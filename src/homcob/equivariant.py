"""Chain-level models of equivariant Floer complexes and their tower
invariants.

A PinModel is one free tower triple over F[q,v]/(q^3) (bottoms at the
reducible degree n, n+1, n+2; towers carry no internal differential) plus
a finite-dimensional part with q, v actions and differentials, including
arrows from the finite part into the towers.  Materializing a degree
window turns the model into explicit GF(2) linear algebra; tower bottoms
A, B, C are read off from stabilized v-power images and converted into
the integer invariants alpha = A/2, beta = (B-1)/2, gamma = (C-2)/2 with
Rokhlin residue mu.  An SOneModel is the one-tower analogue over F[U]
giving the delta invariant.

Tower basis bookkeeping: the element (a, k) sits in degree n + 4k + a for
a in {0,1,2}, k >= 0; q maps (a, k) -> (a-1, k) and v maps (a, k) ->
(a, k-1), both vanishing off the range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import f2linalg as la
from .errors import InputError, InternalError, ModelInvalidError
from .graded import GradedComplex, Homology

DEFAULT_MARGIN = 2


def _check_homogeneous(name: str, mat: np.ndarray, degrees: list[int], shift: int):
    n = len(degrees)
    if mat.shape != (n, n):
        raise InputError(f"{name} must be {n}x{n}, got {mat.shape}")
    for i in range(n):
        for j in range(n):
            if mat[i, j] and degrees[i] != degrees[j] + shift:
                raise InputError(
                    f"{name} entry ({i},{j}) violates degree shift {shift}"
                )


@dataclass
class TowerArrow:
    """Differential component from a finite generator into the tower
    element q^a v^b g (degree n + 4b + a)."""

    source: str
    a: int
    b: int


class PinModel:
    """Free F[q,v]/(q^3) tower triple plus finite part.

    reducible_degree may be None for the (hypothetical) model with no
    reducible tower; such models must have no arrows into the towers.
    """

    def __init__(self, reducible_degree, finite, q_op, v_op, d_fin, d_to_tower):
        if reducible_degree is not None:
            reducible_degree = int(reducible_degree)
            if reducible_degree % 2:
                raise InputError("reducible degree must be even")
        self.reducible_degree = reducible_degree
        self.finite: list[tuple[str, int]] = [(str(l), int(d)) for l, d in finite]
        labels = [l for l, _ in self.finite]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate finite generator labels")
        self.gen_index = {l: i for i, l in enumerate(labels)}
        degs = [d for _, d in self.finite]
        n = len(self.finite)
        self.q_op = la.f2(q_op) if n else la.f2_zeros(0, 0)
        self.v_op = la.f2(v_op) if n else la.f2_zeros(0, 0)
        self.d_fin = la.f2(d_fin) if n else la.f2_zeros(0, 0)
        _check_homogeneous("q_op", self.q_op, degs, -1)
        _check_homogeneous("v_op", self.v_op, degs, -4)
        _check_homogeneous("d_fin", self.d_fin, degs, -1)
        q3 = la.f2_mul(la.f2_mul(self.q_op, self.q_op), self.q_op)
        if q3.any():
            raise InputError("q_op^3 != 0")
        if (la.f2_mul(self.q_op, self.v_op) ^ la.f2_mul(self.v_op, self.q_op)).any():
            raise InputError("q_op and v_op do not commute")
        self.d_to_tower: list[TowerArrow] = []
        for arrow in d_to_tower:
            if isinstance(arrow, TowerArrow):
                src, a, b = arrow.source, arrow.a, arrow.b
            else:
                src, a, b = arrow
            a, b = int(a), int(b)
            if src not in self.gen_index:
                raise InputError(f"tower arrow from unknown generator {src!r}")
            if not (0 <= a <= 2) or b < 0:
                raise InputError("tower arrow needs a in {0,1,2} and b >= 0")
            if reducible_degree is None:
                raise InputError("tower arrow in a model without a reducible tower")
            deg = self.gen_index[src]
            if self.finite[deg][1] - 1 != reducible_degree + 4 * b + a:
                raise InputError(f"tower arrow from {src!r} is not of degree -1")
            self.d_to_tower.append(TowerArrow(str(src), a, b))
        # full chain-level consistency on a canonical window
        try:
            self.materialize(*self.default_window())
        except InternalError as e:
            raise InputError(f"inconsistent model: {e}") from e

    # -- windows ---------------------------------------------------------

    def _degree_pool(self) -> list[int]:
        degs = [d for _, d in self.finite]
        if self.reducible_degree is not None:
            degs.append(self.reducible_degree)
        return degs or [0]

    def default_window(self, margin: int = DEFAULT_MARGIN) -> tuple[int, int]:
        # tower kills can raise bottoms by ~4 per finite generator, so the
        # top keeps that much headroom beyond the stability margin
        degs = self._degree_pool()
        n = self.reducible_degree if self.reducible_degree is not None else max(degs)
        lo = min(degs) - 8
        hi = max(max(degs), n) + 4 * (margin + 2 + len(self.finite))
        return lo, max(hi, n + 16)

    def materialize(self, lo: int, hi: int) -> GradedComplex:
        """Explicit GF(2) complex with q and v on the window [lo, hi]."""
        degs = self._degree_pool()
        if lo > min(degs) - 4:
            raise InputError(f"window bottom {lo} too high; need <= {min(degs) - 4}")
        n = self.reducible_degree
        if n is not None and hi < n + 16:
            raise InputError(f"window top {hi} too low; need >= {n + 16}")
        if self.finite and hi < max(d for _, d in self.finite) + 2:
            raise InputError("window top does not cover the finite part")

        basis: dict[int, list] = {}

        def put(deg, label):
            basis.setdefault(deg, []).append(label)

        for lab, deg in self.finite:
            if lo <= deg <= hi:
                put(deg, ("f", lab))
        if n is not None:
            k = 0
            while n + 4 * k <= hi:
                for a in range(3):
                    deg = n + 4 * k + a
                    if lo <= deg <= hi:
                        put(deg, ("t", a, k))
                k += 1

        index = {d: {lab: i for i, lab in enumerate(b)} for d, b in basis.items()}

        diff: dict[int, np.ndarray] = {}
        qm: dict[int, np.ndarray] = {}
        vm: dict[int, np.ndarray] = {}
        for d, b in basis.items():
            dmat = la.f2_zeros(len(basis.get(d - 1, [])), len(b))
            qmat = la.f2_zeros(len(basis.get(d - 1, [])), len(b))
            vmat = la.f2_zeros(len(basis.get(d - 4, [])), len(b))
            for j, lab in enumerate(b):
                if lab[0] == "f":
                    gi = self.gen_index[lab[1]]
                    # differential inside the finite part
                    for i2 in range(len(self.finite)):
                        if self.d_fin[i2, gi]:
                            tgt = ("f", self.finite[i2][0])
                            dmat[index[d - 1][tgt], j] ^= 1
                    # differential into the towers
                    for arrow in self.d_to_tower:
                        if arrow.source == lab[1]:
                            tgt = ("t", arrow.a, arrow.b)
                            dmat[index[d - 1][tgt], j] ^= 1
                    for i2 in range(len(self.finite)):
                        if self.q_op[i2, gi]:
                            tgt = ("f", self.finite[i2][0])
                            qmat[index[d - 1][tgt], j] ^= 1
                        if self.v_op[i2, gi]:
                            tgt = ("f", self.finite[i2][0])
                            vmat[index[d - 4][tgt], j] ^= 1
                else:
                    _, a, k = lab
                    if a >= 1:
                        qmat[index[d - 1][("t", a - 1, k)], j] ^= 1
                    if k >= 1:
                        vmat[index[d - 4][("t", a, k - 1)], j] ^= 1
            diff[d] = dmat
            qm[d] = qmat
            vm[d] = vmat

        cx = GradedComplex(basis, diff, {"q": (-1, qm), "v": (-4, vm)})
        cx.check_differential()
        cx.check_op_commutes("q", lo_safe=lo)
        cx.check_op_commutes("v", lo_safe=lo)
        return cx

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": "pin_model",
            "reducible_degree": self.reducible_degree,
            "finite": [{"label": l, "degree": d} for l, d in self.finite],
            "q": self.q_op.tolist(),
            "v": self.v_op.tolist(),
            "d_fin": self.d_fin.tolist(),
            "d_to_tower": [
                {"from": a.source, "a": a.a, "b": a.b} for a in self.d_to_tower
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PinModel":
        try:
            finite = [(g["label"], g["degree"]) for g in data.get("finite", [])]
            arrows = [
                (t["from"], t["a"], t["b"]) for t in data.get("d_to_tower", [])
            ]
            return cls(
                data.get("reducible_degree"),
                finite,
                data.get("q", []),
                data.get("v", []),
                data.get("d_fin", []),
                arrows,
            )
        except KeyError as e:
            raise InputError(f"pin model missing field {e}") from e


@dataclass
class BorelHomology:
    """Homology of a materialized model with its induced module actions."""

    model: PinModel
    window: tuple[int, int]
    margin: int
    homology: Homology

    def dims(self) -> dict[int, int]:
        return self.homology.dims()

    def induced_q(self, d: int) -> np.ndarray:
        return self.homology.induced_op("q", d)

    def induced_v(self, d: int) -> np.ndarray:
        return self.homology.induced_op("v", d)

    def check_module_relations(self) -> bool:
        """q^3 = 0 and qv = vq on homology, on the window interior."""
        lo, hi = self.window
        for d in range(lo + 6, hi - 4 * self.margin):
            q3 = la.f2_mul(
                self.homology.induced_op("q", d - 2),
                la.f2_mul(self.homology.induced_op("q", d - 1), self.induced_q(d)),
            )
            if q3.any():
                return False
            qv = la.f2_mul(self.homology.induced_op("q", d - 4), self.induced_v(d))
            vq = la.f2_mul(self.homology.induced_op("v", d - 1), self.induced_q(d))
            if (qv ^ vq).any():
                return False
        return True


@dataclass
class AbcReport:
    A: int
    B: int
    C: int
    alpha: int
    beta: int
    gamma: int
    mu: int
    window: tuple[int, int]
    margin: int

    def triple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


def borel_homology(model: PinModel, window=None, margin=DEFAULT_MARGIN) -> BorelHomology:
    lo, hi = window if window is not None else model.default_window(margin)
    cx = model.materialize(lo, hi)
    return BorelHomology(model, (lo, hi), margin, Homology(cx))


def _stable_cut(hi: int, margin: int) -> int:
    return hi - 4 * margin


def _bottom_for_residue(h: Homology, n: int, residue: int, lo: int, hi: int, margin: int):
    """Minimal degree of the residue class with a nonzero stabilized
    v-power image, or None."""
    ranks = h.stable_ranks("v", lo, _stable_cut(hi, margin))
    return next((d for d in ranks if (d - n - residue) % 4 == 0 and ranks[d]), None)


def tower_bottoms(
    bh: BorelHomology, check_window_independence: bool = True
) -> tuple[int, int, int]:
    """Lowest degrees A, B, C of the three v-towers in homology."""
    model = bh.model
    n = model.reducible_degree
    if n is None:
        raise ModelInvalidError("model has no reducible tower")
    lo, hi = bh.window
    out = []
    for r in range(3):
        b = _bottom_for_residue(bh.homology, n, r, lo, hi, bh.margin)
        if b is None:
            raise ModelInvalidError(
                f"no surviving v-tower in residue {r}: localization violated"
            )
        out.append(b)
    if check_window_independence:
        wider = borel_homology(model, (lo - 4, hi + 8), bh.margin + 2)
        again = tower_bottoms(wider, check_window_independence=False)
        if tuple(out) != again:
            raise ModelInvalidError(
                f"tower bottoms depend on the window: {tuple(out)} vs {again}"
            )
    return tuple(out)


def abc(model: PinModel, window=None, margin=DEFAULT_MARGIN) -> AbcReport:
    """Extract (alpha, beta, gamma, mu) from the tower bottoms."""
    bh = borel_homology(model, window, margin)
    A, B, C = tower_bottoms(bh)
    if A % 2 or (B - 1) % 2 or (C - 2) % 2:
        raise InternalError(f"tower bottoms have impossible parities: {(A, B, C)}")
    alpha, beta, gamma = A // 2, (B - 1) // 2, (C - 2) // 2
    mu = alpha % 2
    if (A - 2 * mu) % 4 or (B - 2 * mu - 1) % 4 or (C - 2 * mu - 2) % 4:
        raise InternalError(f"tower bottoms break the mod-4 residues: {(A, B, C)}")
    if not (alpha >= beta >= gamma):
        raise InternalError(
            f"alpha >= beta >= gamma violated: {(alpha, beta, gamma)}"
        )
    if not (alpha % 2 == beta % 2 == gamma % 2 == mu):
        raise InternalError("mod-2 congruence of (alpha, beta, gamma, mu) violated")
    return AbcReport(A, B, C, alpha, beta, gamma, mu, bh.window, bh.margin)


def abc_of_reverse(model: PinModel, window=None, margin=DEFAULT_MARGIN):
    """(alpha, beta, gamma) of the orientation reverse: (-gamma, -beta, -alpha)."""
    r = abc(model, window, margin)
    return (-r.gamma, -r.beta, -r.alpha)


def rokhlin_check(report: AbcReport) -> int:
    """beta mod 2, with the congruence alpha = beta = gamma (mod 2) asserted."""
    if not (report.alpha % 2 == report.beta % 2 == report.gamma % 2):
        raise ModelInvalidError("mod-2 congruence violated in report")
    return report.beta % 2


@dataclass
class LocalizationReport:
    ok: bool
    anchored_at: int | None  # reducible degree, None when towers are absent
    pattern: list[int]       # stable dimensions over one period scan
    detail: str = ""


def localization_check(model: PinModel, window=None, margin=DEFAULT_MARGIN) -> LocalizationReport:
    """Stabilized v-image must be the three-tower pattern 1,1,1,0 anchored
    at the reducible degree, or identically zero without a reducible."""
    bh = borel_homology(model, window, margin)
    lo, hi = bh.window
    cut = _stable_cut(hi, margin)
    n = model.reducible_degree
    if n is None:
        # the last four degrees use one step from just above the cut
        below = bh.homology.stable_ranks("v", cut - 8, cut)
        above = bh.homology.stable_ranks("v", cut - 3, cut + 4)
        pattern = [below[d] for d in range(cut - 8, cut - 3)]
        pattern += [above[d] for d in range(cut - 3, cut + 1)]
        ok = all(x == 0 for x in pattern)
        return LocalizationReport(ok, None, pattern,
                                  "free model localizes to zero" if ok else
                                  "stable classes in a model without towers")
    bottoms = tower_bottoms(bh)
    ranks = bh.homology.stable_ranks("v", lo, cut)
    degrees = range(max(bottoms), cut - 3)
    pattern = [ranks[d] for d in degrees]
    ok = all(ranks[d] == (1 if (d - n) % 4 in (0, 1, 2) else 0) for d in degrees)
    return LocalizationReport(ok, n, pattern,
                              "" if ok else "stable range deviates from the tower pattern")


def coborel_tower_tops(model: PinModel, window=None, margin=DEFAULT_MARGIN):
    """Maximal degrees of the three downward towers of the degree-negated
    dual complex; cross-validates the duality formulas."""
    lo, hi = window if window is not None else model.default_window(margin)
    cx = model.materialize(lo, hi)
    dual = _dualize(cx)
    h = Homology(dual)
    n = model.reducible_degree
    if n is None:
        raise ModelInvalidError("model has no reducible tower")
    dlo, dhi = -hi, -lo
    cut = dlo + 4 * margin
    tops = []
    for r in range(3):
        top = None
        d = dhi - ((dhi - (-(n + r))) % 4)
        while d >= cut:
            k = (d - cut) // 4
            if k >= 1 and la.rank_f2(h.op_power("v", d, k)) > 0:
                top = d
                break
            d -= 4
        if top is None:
            raise ModelInvalidError(f"no surviving dual tower in residue {r}")
        tops.append(top)
    return tuple(tops)


def _dualize(cx: GradedComplex) -> GradedComplex:
    basis = {-d: [("dual", lab) for lab in cx.basis[d]] for d in cx.degrees()}
    diff = {}
    ops: dict[str, tuple[int, dict[int, np.ndarray]]] = {}
    for name, (shift, _) in cx.ops.items():
        ops[name] = (shift, {})
    for e in list(basis):
        diff[e] = cx.d_matrix(-e + 1).T.copy()
        for name, (shift, mats) in cx.ops.items():
            ops[name][1][e] = cx.op_matrix(name, -e - shift).T.copy()
    out = GradedComplex(basis, diff, ops)
    out.check_differential()
    return out


# ---------------------------------------------------------------------------
# S^1 analogue: one U-tower


class SOneModel:
    """Single free F[U] tower (bottom at the reducible degree, U of degree
    -2) plus a finite part with a U action."""

    def __init__(self, reducible_degree, finite, u_op, d_fin, d_to_tower):
        self.reducible_degree = int(reducible_degree)
        self.finite = [(str(l), int(d)) for l, d in finite]
        labels = [l for l, _ in self.finite]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate finite generator labels")
        self.gen_index = {l: i for i, l in enumerate(labels)}
        degs = [d for _, d in self.finite]
        n = len(self.finite)
        self.u_op = la.f2(u_op) if n else la.f2_zeros(0, 0)
        self.d_fin = la.f2(d_fin) if n else la.f2_zeros(0, 0)
        _check_homogeneous("u_op", self.u_op, degs, -2)
        _check_homogeneous("d_fin", self.d_fin, degs, -1)
        self.d_to_tower = []
        for arrow in d_to_tower:
            src, b = (arrow.source, arrow.b) if isinstance(arrow, TowerArrow) else arrow
            b = int(b)
            if src not in self.gen_index or b < 0:
                raise InputError(f"bad tower arrow {arrow}")
            if self.finite[self.gen_index[src]][1] - 1 != self.reducible_degree + 2 * b:
                raise InputError(f"tower arrow from {src!r} is not of degree -1")
            self.d_to_tower.append(TowerArrow(str(src), 0, b))
        try:
            self.materialize(*self.default_window())
        except InternalError as e:
            raise InputError(f"inconsistent model: {e}") from e

    def default_window(self, margin: int = DEFAULT_MARGIN) -> tuple[int, int]:
        degs = [d for _, d in self.finite] + [self.reducible_degree]
        lo = min(degs) - 6
        hi = max(max(degs), self.reducible_degree) + 2 * (margin + 4 + len(self.finite))
        return lo, hi

    def materialize(self, lo: int, hi: int) -> GradedComplex:
        n = self.reducible_degree
        degs = [d for _, d in self.finite] + [n]
        if lo > min(degs) - 2:
            raise InputError("window bottom too high")
        if hi < n + 2 * (DEFAULT_MARGIN + 2):
            raise InputError("window top too low")
        basis: dict[int, list] = {}
        for lab, deg in self.finite:
            if lo <= deg <= hi:
                basis.setdefault(deg, []).append(("f", lab))
        k = 0
        while n + 2 * k <= hi:
            if n + 2 * k >= lo:
                basis.setdefault(n + 2 * k, []).append(("t", k))
            k += 1
        index = {d: {lab: i for i, lab in enumerate(b)} for d, b in basis.items()}
        diff, um = {}, {}
        for d, b in basis.items():
            dmat = la.f2_zeros(len(basis.get(d - 1, [])), len(b))
            umat = la.f2_zeros(len(basis.get(d - 2, [])), len(b))
            for j, lab in enumerate(b):
                if lab[0] == "f":
                    gi = self.gen_index[lab[1]]
                    for i2 in range(len(self.finite)):
                        if self.d_fin[i2, gi]:
                            dmat[index[d - 1][("f", self.finite[i2][0])], j] ^= 1
                        if self.u_op[i2, gi]:
                            umat[index[d - 2][("f", self.finite[i2][0])], j] ^= 1
                    for arrow in self.d_to_tower:
                        if arrow.source == lab[1]:
                            dmat[index[d - 1][("t", arrow.b)], j] ^= 1
                else:
                    if lab[1] >= 1:
                        umat[index[d - 2][("t", lab[1] - 1)], j] ^= 1
            diff[d] = dmat
            um[d] = umat
        cx = GradedComplex(basis, diff, {"U": (-2, um)})
        cx.check_differential()
        cx.check_op_commutes("U", lo_safe=lo)
        return cx

    def to_json(self) -> dict:
        return {
            "kind": "s1_model",
            "reducible_degree": self.reducible_degree,
            "finite": [{"label": l, "degree": d} for l, d in self.finite],
            "u": self.u_op.tolist(),
            "d_fin": self.d_fin.tolist(),
            "d_to_tower": [{"from": a.source, "b": a.b} for a in self.d_to_tower],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SOneModel":
        try:
            finite = [(g["label"], g["degree"]) for g in data.get("finite", [])]
            arrows = [(t["from"], t["b"]) for t in data.get("d_to_tower", [])]
            return cls(
                data["reducible_degree"],
                finite,
                data.get("u", []),
                data.get("d_fin", []),
                arrows,
            )
        except KeyError as e:
            raise InputError(f"s1 model missing field {e}") from e


def delta_invariant(model: SOneModel, window=None, margin=DEFAULT_MARGIN):
    """Half the minimal degree of the class surviving all windowed
    U-divisibility tests."""
    from fractions import Fraction

    lo, hi = window if window is not None else model.default_window(margin)
    n = model.reducible_degree

    def bottom(lo, hi, margin):
        h = Homology(model.materialize(lo, hi))
        ranks = h.stable_ranks("U", lo, hi - 2 * margin)
        return next((d for d in ranks if (d - n) % 2 == 0 and ranks[d]), None)

    first = bottom(lo, hi, margin)
    if first is None:
        raise ModelInvalidError("no surviving U-tower")
    if bottom(lo - 2, hi + 4, margin + 1) != first:
        raise ModelInvalidError("delta depends on the window")
    return Fraction(first, 2)
