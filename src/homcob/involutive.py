"""Involutive mapping-cone algebra over F[U] and correction terms.

Inputs are finitely generated free graded complexes over F[U] (entries
U^k with k forced by degrees) together with a grading-preserving chain
involution iota, exact up to chain homotopy.  Towers are read by
elimination over F[U]: repeatedly take the differential entry with the
smallest U-power, clear its row and column by changes of basis (every
other entry of that row or column carries a power at least as large, so
each operation is an XOR of F2 coefficients with a non-negative forced
U-power) and split the pair off as a torsion summand.  The generators
left unpaired carry no differential; their degrees are the bottoms of
the U-towers of the plus flavor.  The correction term d is the bottom of
the single tower.  The cone of Q(1+iota) carries a Q of degree -1 with
Q^2 = 0; its two towers yield the refinements d_bar and d_under:

* if 1 + iota is null-homotopic the cone splits and d_under = d_bar = d;
* otherwise d_bar is the bottom of the tower in d's parity, and the
  other tower's bottom sits at d - 1 + 2K where K counts how many
  Q-images of the main tower die in homology, giving d_under = d - 2K.

The second rule is equivalent to reflecting the off-parity bottom b
through d (d_under = 2d - b - 1); it reproduces the split case with
K = 0 and the bundled +1-surgery fixture with K = 1.

The explicit plus flavor on a degree window (tensoring with
F[U, U^-1]/F[U]) stays available as `UComplex.plus_window`, for the
cone laws on homology dimensions and as the reference the elimination
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import f2linalg as la
from .errors import InputError, InternalError, ModelInvalidError, as_int
from .graded import GradedComplex, Homology

DEFAULT_MARGIN = 2


def _forced_power(deg_from: int, deg_to: int, shift: int):
    """U-power k of an entry U^k * target inside a degree-`shift` map,
    i.e. deg_to - 2k = deg_from + shift; None if no such k >= 0."""
    num = deg_to - deg_from - shift
    if num % 2 or num < 0:
        return None
    return num // 2


class UComplex:
    """Free graded complex over F[U]; differential entries carry the
    degree-forced U-power."""

    def __init__(self, generators, differential):
        self.generators = [(str(l), as_int(d, "u_complex", "degree")) for l, d in generators]
        labels = [l for l, _ in self.generators]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate generator labels")
        self.index = {l: i for i, l in enumerate(labels)}
        n = len(self.generators)
        self.d_mat = la.f2_zeros(n, n)
        for ent in differential:
            src, tgt, upower = ent
            if src not in self.index or tgt not in self.index:
                raise InputError(f"differential entry {ent} references unknown generator")
            i, j = self.index[tgt], self.index[src]
            k = _forced_power(self.generators[j][1], self.generators[i][1], -1)
            if k is None:
                raise InputError(f"no degree -1 entry possible from {src!r} to {tgt!r}")
            if as_int(upower, "u_complex", "upower") != k:
                raise InputError(
                    f"entry {src!r}->{tgt!r} must have upower {k}, got {upower}"
                )
            self.d_mat[i, j] ^= 1
        if la.f2_mul(self.d_mat, self.d_mat).any():
            raise InputError("differential does not square to zero")

    def degrees(self) -> list[int]:
        return [d for _, d in self.generators]

    def entry_list(self) -> list[dict]:
        out = []
        for j, (src, dsrc) in enumerate(self.generators):
            for i, (tgt, dtgt) in enumerate(self.generators):
                if self.d_mat[i, j]:
                    out.append(
                        {"from": src, "to": tgt, "upower": _forced_power(dsrc, dtgt, -1)}
                    )
        return out

    def to_json(self, iota: "IotaMap | None" = None) -> dict:
        data = {
            "kind": "u_complex",
            "generators": [{"label": l, "degree": d} for l, d in self.generators],
            "differential": self.entry_list(),
        }
        if iota is not None:
            data["iota"] = iota.entry_list(self)
        return data

    @classmethod
    def from_json(cls, data: dict):
        try:
            gens = [(g["label"], g["degree"]) for g in data["generators"]]
            diff = [(e["from"], e["to"], e["upower"]) for e in data.get("differential", [])]
            c = cls(gens, diff)
        except KeyError as e:
            raise InputError(f"u_complex missing field {e}") from e
        iota = None
        if "iota" in data:
            iota = IotaMap.of(
                c, [(e["from"], e["to"], e.get("upower", 0)) for e in data["iota"]]
            )
        return c, iota

    # -- towers ----------------------------------------------------------

    def tower_bottoms(self) -> dict[int, int]:
        """{parity: bottom} of the U-towers, by elimination on the entry
        with the smallest U-power (see the module docstring)."""
        degs = np.array(self.degrees(), dtype=np.int64)
        m = self.d_mat.copy()
        paired = set()
        while m.any():
            rows, cols = np.nonzero(m)
            t = int(np.argmin(degs[rows] - degs[cols]))
            i, j = int(rows[t]), int(cols[t])
            for k in np.flatnonzero(m[:, j]):
                if k != i:  # x_i <- x_i + U^* x_k
                    m[k] ^= m[i]
                    m[:, i] ^= m[:, k]
            for c in np.flatnonzero(m[i]):
                if c != j:  # x_c <- x_c + U^* x_j
                    m[:, c] ^= m[:, j]
                    m[j] ^= m[c]
            # d^2 = 0 leaves row j and column i empty: drop the pair
            m[i, j] = 0
            paired.update((i, j))
        towers = {}
        for parity in (0, 1):
            bottoms = [int(d) for g, d in enumerate(degs) if g not in paired and d % 2 == parity]
            if len(bottoms) > 1:
                raise ModelInvalidError("stabilized rank exceeds 1: multiple towers in one parity")
            if bottoms:
                towers[parity] = bottoms[0]
        return towers

    # -- plus flavor -----------------------------------------------------

    def default_window(self) -> tuple[int, int]:
        degs = self.degrees() or [0]
        lo = min(degs) - 6
        hi = max(degs) + 2 * (DEFAULT_MARGIN + 2 + len(self.generators))
        return lo, hi

    def plus_window(self, lo: int, hi: int, extra_ops=None) -> GradedComplex:
        """Explicit GF(2) model of the quotient flavor on [lo, hi]:
        basis elements (x, k) = U^{-k} x for k >= 0."""
        degs = self.degrees()
        if degs and hi < max(degs) + 2 * (DEFAULT_MARGIN + 1):
            raise InputError("window top too low for the plus flavor")
        if degs and lo > min(degs) - 2:
            raise InputError("window bottom too high for the plus flavor")
        basis: dict[int, list] = {}
        for (lab, deg) in self.generators:
            k = max(0, (lo - deg + 1) // 2)
            while deg + 2 * k <= hi:
                if deg + 2 * k >= lo:
                    basis.setdefault(deg + 2 * k, []).append((lab, k))
                k += 1
        index = {d: {b: i for i, b in enumerate(bs)} for d, bs in basis.items()}
        diff, um = {}, {}
        for d, bs in basis.items():
            dmat = la.f2_zeros(len(basis.get(d - 1, [])), len(bs))
            umat = la.f2_zeros(len(basis.get(d - 2, [])), len(bs))
            for j, (lab, k) in enumerate(bs):
                gj = self.index[lab]
                for gi in range(len(self.generators)):
                    if self.d_mat[gi, gj]:
                        tl, td = self.generators[gi]
                        jump = _forced_power(self.generators[gj][1], td, -1)
                        if k - jump >= 0 and lo <= td + 2 * (k - jump):
                            dmat[index[d - 1][(tl, k - jump)], j] ^= 1
                if k >= 1 and d - 2 >= lo:
                    umat[index[d - 2][(lab, k - 1)], j] ^= 1
            diff[d] = dmat
            um[d] = umat
        ops = {"U": (-2, um)}
        if extra_ops:
            for name, (shift, fn) in extra_ops.items():
                mats = {}
                for d, bs in basis.items():
                    mat = la.f2_zeros(len(basis.get(d + shift, [])), len(bs))
                    for j, (lab, k) in enumerate(bs):
                        for (tl, tk) in fn(lab, k):
                            tgt_deg = d + shift
                            if tgt_deg in index and (tl, tk) in index[tgt_deg]:
                                mat[index[tgt_deg][(tl, tk)], j] ^= 1
                    mats[d] = mat
                ops[name] = (shift, mats)
        cx = GradedComplex(basis, diff, ops)
        cx.check_differential()
        cx.check_op_commutes("U", lo_safe=lo + 4)
        return cx


class IotaMap:
    """Grading-preserving F[U]-linear map given by its F2 coefficient
    matrix (U-powers forced by degrees)."""

    def __init__(self, mat: np.ndarray):
        self.mat = la.f2(mat)

    @classmethod
    def identity(cls, c: UComplex) -> "IotaMap":
        return cls(la.f2_eye(len(c.generators)))

    @classmethod
    def of(cls, c: UComplex, entries) -> "IotaMap":
        n = len(c.generators)
        m = la.f2_zeros(n, n)
        for ent in entries:
            src, tgt, upower = ent
            if src not in c.index or tgt not in c.index:
                raise InputError(f"iota entry {ent} references unknown generator")
            i, j = c.index[tgt], c.index[src]
            k = _forced_power(c.generators[j][1], c.generators[i][1], 0)
            if k is None:
                raise InputError(f"no degree 0 entry possible from {src!r} to {tgt!r}")
            if as_int(upower, "u_complex", "upower") != k:
                raise InputError(f"iota entry {src!r}->{tgt!r} must have upower {k}")
            m[i, j] ^= 1
        return cls(m)

    def entry_list(self, c: UComplex) -> list[dict]:
        out = []
        for j, (src, dsrc) in enumerate(c.generators):
            for i, (tgt, dtgt) in enumerate(c.generators):
                if self.mat[i, j]:
                    out.append(
                        {"from": src, "to": tgt, "upower": _forced_power(dsrc, dtgt, 0)}
                    )
        return out


def _support_ok(c: UComplex, mat: np.ndarray, shift: int) -> bool:
    for j, (_, dj) in enumerate(c.generators):
        for i, (_, di) in enumerate(c.generators):
            if mat[i, j] and _forced_power(dj, di, shift) is None:
                return False
    return True


def _homotopy_solve(c: UComplex, rhs: np.ndarray, localized: bool = False):
    """Solve dH + Hd = rhs for a degree +1 F[U]-map H; returns the H
    matrix or None.  With localized=True, negative U-powers are allowed
    (the question 'is rhs null-homotopic after inverting U')."""
    n = len(c.generators)
    degs = c.degrees()

    def h_allowed(i, j):  # entry H[i, j]: generator j -> generator i, degree +1
        k = degs[i] - degs[j] - 1
        return k % 2 == 0 and (localized or k >= 0)

    def eq_allowed(i, j):  # degree-0 maps
        k = degs[i] - degs[j]
        return k % 2 == 0 and (localized or k >= 0)

    unknowns = [(i, j) for j in range(n) for i in range(n) if h_allowed(i, j)]
    uindex = {p: t for t, p in enumerate(unknowns)}
    equations = [(i, j) for j in range(n) for i in range(n) if eq_allowed(i, j)]
    a = la.f2_zeros(len(equations), len(unknowns))
    b = np.zeros(len(equations), dtype=np.uint8)
    for row, (i, j) in enumerate(equations):
        b[row] = rhs[i, j]
        # (dH)_{ij} = sum_z d[i,z] H[z,j]
        for z in range(n):
            if c.d_mat[i, z] and (z, j) in uindex:
                a[row, uindex[(z, j)]] ^= 1
        # (Hd)_{ij} = sum_y H[i,y] d[y,j]
        for y in range(n):
            if c.d_mat[y, j] and (i, y) in uindex:
                a[row, uindex[(i, y)]] ^= 1
    x = la.solve_f2(a, b)
    if x is None:
        return None
    h = la.f2_zeros(n, n)
    for t, (i, j) in enumerate(unknowns):
        h[i, j] = x[t]
    return h


def validate_iota(c: UComplex, iota: IotaMap) -> bool:
    """Chain map with iota^2 homotopic to the identity, or InputError."""
    n = len(c.generators)
    if iota.mat.shape != (n, n):
        raise InputError("iota has the wrong shape")
    if not _support_ok(c, iota.mat, 0):
        raise InputError("iota is not degree homogeneous of degree 0")
    if (la.f2_mul(iota.mat, c.d_mat) ^ la.f2_mul(c.d_mat, iota.mat)).any():
        raise InputError("iota is not a chain map")
    sq = la.f2_mul(iota.mat, iota.mat) ^ la.f2_eye(n)
    if _homotopy_solve(c, sq) is None:
        raise InputError("iota^2 is not chain homotopic to the identity")
    return True


def one_plus_iota_nullhomotopic(c: UComplex, iota: IotaMap, localized=False) -> bool:
    rhs = iota.mat ^ la.f2_eye(len(c.generators))
    return _homotopy_solve(c, rhs, localized=localized) is not None


def iota_localized_identity(c: UComplex, iota: IotaMap) -> bool:
    """Does iota act as the identity on U-localized homology?"""
    return one_plus_iota_nullhomotopic(c, iota, localized=True)


class ConeComplex:
    """Mapping cone of Q(1+iota): generators x and Qx (degree shifted by
    -1), differential [[d, 0], [1+iota, d]], module structure over
    F[Q,U]/(Q^2)."""

    def __init__(self, base: UComplex, iota: IotaMap):
        validate_iota(base, iota)
        self.base = base
        self.iota = iota
        gens = [(f"m:{l}", d) for l, d in base.generators]
        gens += [(f"q:{l}", d - 1) for l, d in base.generators]
        n = len(base.generators)
        self.complex = UComplex(gens, [])
        block = la.f2_zeros(2 * n, 2 * n)
        one_plus = iota.mat ^ la.f2_eye(n)
        block[:n, :n] = base.d_mat
        block[n:, n:] = base.d_mat
        block[n:, :n] = one_plus
        if not _support_ok(self.complex, block, -1):
            raise InternalError("cone differential not degree homogeneous")
        self.complex.d_mat = block
        if la.f2_mul(block, block).any():
            raise InternalError("cone differential does not square to zero")

    def plus_window(self, lo: int, hi: int) -> GradedComplex:
        n = len(self.base.generators)

        def q_images(lab, k):
            kind, name = lab.split(":", 1)
            if kind == "m":
                return [(f"q:{name}", k)]
            return []

        cx = self.complex.plus_window(lo, hi, extra_ops={"Q": (-1, q_images)})
        # module relations: Q^2 = 0 and QU = UQ on the window interior
        for d in cx.degrees():
            qq = la.f2_mul(cx.op_matrix("Q", d - 1), cx.op_matrix("Q", d))
            if qq.any():
                raise InternalError("Q^2 != 0 on the cone window")
        cx.check_op_commutes("Q", lo_safe=lo + 4)
        return cx

    def default_window(self) -> tuple[int, int]:
        return self.complex.default_window()


def cone_iota(c: UComplex, iota: IotaMap) -> ConeComplex:
    return ConeComplex(c, iota)


# ---------------------------------------------------------------------------
# correction terms


def d_invariant(c: UComplex) -> Fraction:
    """Bottom degree of the single U-tower of the plus flavor."""
    if not c.generators:
        raise ModelInvalidError("empty complex has no U-tower")
    towers = c.tower_bottoms()
    if len(towers) == 0:
        raise ModelInvalidError("no U-tower in the plus flavor")
    if len(towers) > 1:
        raise ModelInvalidError("more than one U-tower in the plus flavor")
    return Fraction(next(iter(towers.values())))


@dataclass
class InvolutiveReport:
    d: Fraction
    d_bar: Fraction
    d_under: Fraction
    split: bool
    findings: list[str] = field(default_factory=list)

    def triple(self):
        return (self.d, self.d_bar, self.d_under)


def involutive_correction_terms(cone: ConeComplex) -> InvolutiveReport:
    """d, d_bar, d_under of a validated cone."""
    base = cone.base
    d = d_invariant(base)
    findings: list[str] = []

    if one_plus_iota_nullhomotopic(base, cone.iota):
        report = InvolutiveReport(d, d, d, True, findings)
        _cross_check_split(cone, report)
        return report

    towers = cone.complex.tower_bottoms()
    if len(towers) != 2:
        raise ModelInvalidError(
            f"cone has {len(towers)} stabilized towers, expected 2"
        )
    main_parity = int(d) % 2
    b_main = towers.get(main_parity)
    b_q = towers.get(1 - main_parity)
    if b_main is None or b_q is None:
        raise ModelInvalidError("cone towers do not occupy both parities")
    d_bar = Fraction(b_main)
    if d_bar != d:
        findings.append(
            f"main cone tower bottom {b_main} differs from d = {d}"
        )
    # reflect the off-parity bottom through d: b_q = d - 1 + 2K where K
    # Q-images of the main tower die, and d_under = d - 2K
    d_under = 2 * d - b_q - 1
    if (b_q - (int(d) - 1)) % 2:
        raise InternalError("cone tower parities are inconsistent")
    report = InvolutiveReport(d, d_bar, Fraction(d_under), False, findings)
    _check_report_laws(report)
    return report


def _check_report_laws(report: InvolutiveReport):
    d, db, du = report.d, report.d_bar, report.d_under
    if (db - d) % 2 != 0 or (du - d) % 2 != 0:
        report.findings.append(f"mod-2 congruence fails: {(d, db, du)}")
    if not (du <= d <= db):
        report.findings.append(f"ordering d_under <= d <= d_bar fails: {(du, d, db)}")


def _cross_check_split(cone, report):
    """In the split case the cone towers must sit at d and d-1."""
    towers = cone.complex.tower_bottoms()
    d = int(report.d)
    if towers.get(d % 2) != d or towers.get(1 - d % 2) != d - 1:
        report.findings.append(
            f"split cone towers {towers} not at (d, d-1) = {(d, d - 1)}"
        )


def _window_dims(cone: ConeComplex):
    """Homology of the cone and of its base on the cone's default window,
    and the interior degrees where both are exact."""
    lo, hi = cone.default_window()
    hc = Homology(cone.plus_window(lo, hi))
    hb = Homology(cone.base.plus_window(lo, hi))
    return hc, hb, range(lo + 4, hi - 2 * DEFAULT_MARGIN)


def split_dims_law(cone: ConeComplex) -> bool:
    """dim HFI_n == dim HF_n + dim HF_{n+1} on the window interior
    (exact for split cones; an inequality <= holds in general)."""
    hc, hb, interior = _window_dims(cone)
    return all(hc.dim(n) == hb.dim(n) + hb.dim(n + 1) for n in interior)


def cone_rank_bound(cone: ConeComplex) -> bool:
    """Long-exact-sequence bound dim HFI_n <= dim HF_n + dim HF_{n+1}."""
    hc, hb, interior = _window_dims(cone)
    return all(hc.dim(n) <= hb.dim(n) + hb.dim(n + 1) for n in interior)


# ---------------------------------------------------------------------------
# surgery arithmetic


def v0_triple(p: int, report: InvolutiveReport):
    """(V0, V0_bar, V0_under) from the correction terms of p-surgery.

    Any positive integer p is accepted; the surgery formulas are
    established for p at least the Seifert genus of the knot, and
    conjectural below it.
    """
    if p <= 0:
        raise InputError("surgery coefficient p must be a positive integer")
    base = Fraction(p - 1, 8)
    return (
        base - report.d / 2,
        base - report.d_bar / 2,
        base - report.d_under / 2,
    )


def v0_inverse(p: int, v0, v0_bar, v0_under):
    """Correction terms (d, d_bar, d_under) back from a V-triple."""
    if p <= 0:
        raise InputError("surgery coefficient p must be a positive integer")
    base = Fraction(p - 1, 8)
    return (
        2 * (base - Fraction(v0)),
        2 * (base - Fraction(v0_bar)),
        2 * (base - Fraction(v0_under)),
    )
