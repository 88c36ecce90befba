"""Seifert-matrix knot invariants: signature, Alexander polynomial, Arf
invariant, and the determinant-square slice obstruction.

Everything is exact and comes from integer (Bareiss) determinants.  A
determinant whose entries are polynomials of degree at most 1 in t has
degree at most n = size; `_det_poly` interpolates it from its values at
t = 0..n (Newton divided differences over the rationals), requires
integer coefficients and checks it at t = n + 1.

- The Alexander polynomial is det(V - t V^T), normalized so that
  D(t) = D(1/t) and D(1) = 1.  Its sample at t = 1 is det(V - V^T) = 1,
  checked when the Seifert matrix is read, so it takes no determinant.
- The signature of S = V + V^T is read from chi(t) = det(tI - S) by
  Descartes' rule of signs: the sign changes of chi's coefficients count
  the positive eigenvalues and those of chi(-t) the negative ones.  The
  rule is exact because a symmetric matrix has only real eigenvalues.
- The Arf invariant is read from |D(-1)| = |det(V + V^T)| mod 8, a value
  of the Alexander polynomial already computed, so it takes no determinant
  of its own.

V - V^T is skew-symmetric of even size, so its determinant is the square
of its Pfaffian, and a unimodular one has det(V - V^T) = 1.  That gives
laws: D(1) = det(V - V^T) = 1; D(t) = t^n D(1/t), so D can be centered;
det S = det(V - V^T) mod 2 is odd, so S is nonsingular and its positive
and negative eigenvalues add up to n.  D(1) = 1 (so D != 0) holds by
construction, as the t = 1 sample is that value, and the tests check it;
the other laws are checked, and a broken one is a bug (InternalError).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from . import f2linalg as la
from .errors import InputError, InternalError, as_int

OBSTRUCTED = "obstructed"
UNKNOWN = "unknown"


class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = 1 (size 2g)."""

    def __init__(self, entries):
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise InputError("malformed seifert input: matrix must be a list of rows")
        self.v = [[as_int(x, "seifert", "matrix entry") for x in row] for row in entries]
        n = len(self.v)
        if any(len(r) != n for r in self.v):
            raise InputError("Seifert matrix must be square")
        if n % 2:
            raise InputError("Seifert matrix must have even size")
        skew = [
            [self.v[i][j] - self.v[j][i] for j in range(n)] for i in range(n)
        ]
        if la.int_det(skew) != 1:
            raise InputError("V - V^T is not unimodular")
        self.size = n

    def symmetrized(self) -> list[list[int]]:
        n = self.size
        return [[self.v[i][j] + self.v[j][i] for j in range(n)] for i in range(n)]

    def to_json(self) -> dict:
        return {"kind": "seifert", "matrix": [row[:] for row in self.v]}

    @classmethod
    def from_json(cls, data: dict) -> "SeifertMatrix":
        """A missing matrix raises KeyError; `cli.parse_input` is the
        checked door that makes it an InputError."""
        return cls(data["matrix"])


@dataclass
class LaurentPoly:
    """Integer Laurent polynomial, coefficients indexed by exponent."""

    coeffs: dict[int, int]

    def __post_init__(self):
        self.coeffs = {int(e): int(c) for e, c in self.coeffs.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def reversed_var(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def __call__(self, t: int) -> Fraction:
        return sum(
            (Fraction(c) * Fraction(t) ** e for e, c in self.coeffs.items()),
            Fraction(0),
        )

    def is_symmetric(self) -> bool:
        return self == self.reversed_var()

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c:+d}")
            elif e == 1:
                terms.append(f"{c:+d}*t")
            else:
                terms.append(f"{c:+d}*t^{e}")
        s = " ".join(terms)
        return s[1:] if s.startswith("+") else s


def _interpolate(values: list[int]) -> list[Fraction]:
    """Coefficients, constant term first, of the polynomial of degree below
    len(values) that takes values[k] at t = k: Newton divided differences,
    expanded by Horner's rule, exactly over the rationals."""
    c = [Fraction(y) for y in values]
    n = len(c)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    poly: list[Fraction] = []
    for k in range(n - 1, -1, -1):  # poly <- poly * (t - k) + c[k]
        poly = [Fraction(0)] + poly
        for e in range(len(poly) - 1):
            poly[e] -= k * poly[e + 1]
        poly[0] += c[k]
    return poly


def _det_poly(at, n: int, what: str, known: dict[int, int] | None = None) -> LaurentPoly:
    """det(at(t)) for a square matrix at(t) whose entries are polynomials of
    degree at most 1 in t, so the determinant has degree at most n = size.

    It is interpolated from its values at t = 0..n and checked at
    t = n + 1; every value is one integer (Bareiss) determinant, except
    those that `known` (a dict t -> value) already holds.
    """
    known = known or {}
    coeffs = _interpolate([known[t] if t in known else la.int_det(at(t)) for t in range(n + 1)])
    if any(c.denominator != 1 for c in coeffs):
        raise InternalError(f"{what} interpolation has non-integer coefficients")
    det = LaurentPoly(dict(enumerate(coeffs)))
    if det(n + 1) != la.int_det(at(n + 1)):
        raise InternalError(f"{what} interpolation disagrees with the determinant at t = {n + 1}")
    return det


def signature(v: SeifertMatrix) -> int:
    """Signature of S = V + V^T by Descartes' rule of signs on
    chi(t) = det(tI - S): sign changes of chi's coefficients count the
    positive eigenvalues, those of chi(-t) the negative ones.  The count is
    exact because a symmetric matrix has only real eigenvalues."""
    s = v.symmetrized()
    n = v.size
    chi = _det_poly(
        lambda t: [[t * (i == j) - s[i][j] for j in range(n)] for i in range(n)],
        n,
        "characteristic polynomial",
    )
    exps = sorted(chi.coeffs)
    pos = _sign_changes([chi.coeffs[e] for e in exps])
    neg = _sign_changes([(-1) ** e * chi.coeffs[e] for e in exps])
    if pos + neg != n:
        raise InternalError(
            f"Descartes' count finds {pos} positive and {neg} negative eigenvalues"
            f" of V + V^T of size {n}, but det(V + V^T) is odd"
        )
    return pos - neg


def _sign_changes(coeffs: list[int]) -> int:
    """Sign changes along a list of nonzero integers."""
    return sum(a * b < 0 for a, b in zip(coeffs, coeffs[1:]))


def alexander(v: SeifertMatrix) -> LaurentPoly:
    """det(V - t V^T), shifted to be symmetric in t <-> 1/t; its value at 1
    is det(V - V^T) = 1, which SeifertMatrix has checked, so that sample
    takes no determinant of its own and D(1) = 1 needs no check."""
    n = v.size
    det = _det_poly(
        lambda t: [[v.v[i][j] - t * v.v[j][i] for j in range(n)] for i in range(n)],
        n,
        "Alexander",
        known={1: 1},
    )
    exps = sorted(det.coeffs)
    if (exps[0] + exps[-1]) % 2:
        raise InternalError("Alexander determinant cannot be symmetrized")
    det = det.shift(-(exps[0] + exps[-1]) // 2)
    if not det.is_symmetric():
        raise InternalError("Alexander determinant is not symmetric after centering")
    return det


def arf(p: LaurentPoly) -> int:
    """Arf invariant of the knot with Alexander polynomial p, from
    |p(-1)| = |det(V + V^T)| mod 8 (0 for +-1, 1 for +-3).  p(-1) = p(1)
    mod 2, and p(1) = 1, so an even value is a bug."""
    a = abs(int(p(-1)))
    if a % 2 == 0:
        raise InternalError(f"Alexander value {a} at -1 is even, but the value at 1 is 1")
    return 0 if a % 8 in (1, 7) else 1


def fox_milnor_obstruction(p: LaurentPoly) -> str:
    """Necessary slice condition: |Delta(-1)| must be a perfect square.
    Returns "obstructed" or "unknown" (the test is one-sided)."""
    a = abs(int(p(-1)))
    return UNKNOWN if isqrt(a) ** 2 == a else OBSTRUCTED


def corollary_predicate(sigma: int, arf_value: int) -> bool:
    """Truth of sigma = 4*Arf + 4 (mod 8)."""
    if arf_value not in (0, 1):
        raise InputError("Arf invariant must be 0 or 1")
    return (sigma - 4 * arf_value - 4) % 8 == 0
