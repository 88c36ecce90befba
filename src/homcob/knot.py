"""Seifert-matrix knot invariants: signature, Alexander polynomial, Arf
invariant, and the determinant-square slice obstruction.

Everything is exact: the signature comes from rational congruence
diagonalization of V + V^T; the Alexander polynomial det(V - t V^T), of
degree at most 2g, from its values at t = 0..2g (integer determinants)
by exact interpolation, checked at t = 2g + 1 and normalized so that
D(t) = D(1/t) and D(1) = 1; the Arf invariant from |det(V + V^T)| =
|D(-1)| mod 8, without the polynomial.
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
    """Square integer matrix V with V - V^T unimodular (size 2g)."""

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
        if n and abs(la.int_det(skew)) != 1:
            raise InputError("V - V^T is not unimodular")
        self.size = n

    def symmetrized(self) -> list[list[int]]:
        n = self.size
        return [[self.v[i][j] + self.v[j][i] for j in range(n)] for i in range(n)]

    def to_json(self) -> dict:
        return {"kind": "seifert", "matrix": [row[:] for row in self.v]}

    @classmethod
    def from_json(cls, data: dict) -> "SeifertMatrix":
        if "matrix" not in data:
            raise InputError("seifert input missing 'matrix'")
        return cls(data["matrix"])


def signature(v: SeifertMatrix) -> int:
    """Signature of V + V^T by exact congruence diagonalization; zero
    eigenvalues contribute nothing."""
    s = [[Fraction(x) for x in row] for row in v.symmetrized()]
    n = len(s)
    sig = 0
    rows = list(range(n))
    while rows:
        # find a nonzero diagonal entry to pivot on
        piv = next((i for i in rows if s[i][i] != 0), None)
        if piv is None:
            # all-zero diagonal: find an off-diagonal pair, which splits
            # off a hyperbolic (+1, -1) block
            pair = None
            for i in rows:
                for j in rows:
                    if i != j and s[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # zero block: no contribution
            i, j = pair
            # replace row/col i by i+j to create a nonzero diagonal entry
            for k in range(n):
                s[i][k] += s[j][k]
            for k in range(n):
                s[k][i] += s[k][j]
            piv = i
        sig += 1 if s[piv][piv] > 0 else -1
        rows.remove(piv)
        for i in rows:
            if s[i][piv] != 0:
                coef = s[i][piv] / s[piv][piv]
                for k in range(n):
                    s[i][k] -= coef * s[piv][k]
                for k in range(n):
                    s[k][i] -= coef * s[k][piv]
    if sig % 2:
        raise InputError("odd signature: invalid Seifert matrix")
    return sig


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


def alexander(v: SeifertMatrix) -> LaurentPoly:
    """det(V - t V^T), shifted to be symmetric in t <-> 1/t and signed so
    the value at 1 is +1.

    The determinant has degree at most n = size, so it is interpolated
    from its values at t = 0..n and checked at t = n + 1; every value is
    one integer determinant.
    """
    n = v.size
    if n == 0:
        return LaurentPoly.one()

    def value(t: int) -> int:
        return la.int_det([[v.v[i][j] - t * v.v[j][i] for j in range(n)] for i in range(n)])

    coeffs = _interpolate([value(t) for t in range(n + 1)])
    if any(c.denominator != 1 for c in coeffs):
        raise InternalError("Alexander interpolation has non-integer coefficients")
    det = LaurentPoly(dict(enumerate(coeffs)))
    if det(n + 1) != value(n + 1):
        raise InternalError(f"Alexander interpolation disagrees with the determinant at t = {n + 1}")
    if not det.coeffs:
        raise InputError("vanishing Alexander determinant: invalid Seifert matrix")
    exps = sorted(det.coeffs)
    center = Fraction(exps[0] + exps[-1], 2)
    if center.denominator != 1:
        raise InputError("Alexander determinant cannot be symmetrized")
    det = det.shift(-int(center))
    if not det.is_symmetric():
        raise InputError("Alexander determinant is not symmetric after centering")
    at_one = det(1)
    if abs(at_one) != 1:
        raise InputError(f"Alexander value at 1 is {at_one}, not a unit")
    if at_one == -1:
        det = -det
    return det


def arf(v: SeifertMatrix) -> int:
    """Arf invariant from |Delta(-1)| mod 8 (0 for +-1, 1 for +-3), where
    |Delta(-1)| = |det(V + V^T)|."""
    a = abs(la.int_det(v.symmetrized()))
    if a % 2 == 0:
        raise InputError("even determinant: invalid Seifert matrix for a knot")
    r = a % 8
    if r in (1, 7):
        return 0
    if r in (3, 5):
        return 1
    raise InputError(f"impossible odd residue {r}")  # unreachable


def fox_milnor_obstruction(p: LaurentPoly) -> str:
    """Necessary slice condition: |Delta(-1)| must be a perfect square.
    Returns "obstructed" or "unknown" (the test is one-sided)."""
    val = p(-1)
    if val.denominator != 1:
        raise InputError("polynomial has non-integer values")
    a = abs(int(val))
    return UNKNOWN if isqrt(a) ** 2 == a else OBSTRUCTED


def corollary_predicate(sigma: int, arf_value: int) -> bool:
    """Truth of sigma = 4*Arf + 4 (mod 8)."""
    if arf_value not in (0, 1):
        raise InputError("Arf invariant must be 0 or 1")
    return (sigma - 4 * arf_value - 4) % 8 == 0
