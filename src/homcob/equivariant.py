"""Chain-level models of equivariant Floer complexes and their tower
invariants.

A PinModel is one free tower triple over F[q,v]/(q^3) (bottoms at the
reducible degree n, n+1, n+2; towers carry no internal differential) plus
a finite-dimensional part with q, v actions and differentials, including
arrows from the finite part into the towers.  Its tower bottoms A, B, C
give the integer invariants alpha = A/2, beta = (B-1)/2, gamma = (C-2)/2
with Rokhlin residue mu.  An SOneModel is the one-tower analogue over
F[U] giving the delta invariant.  Both kinds are read, checked and
written by one reader (`_TowerModel`) that takes the tower step, the
levels and the operators as data.

Tower basis bookkeeping: the element (a, k) sits in degree n + 4k + a for
a in {0,1,2}, k >= 0; q maps (a, k) -> (a-1, k) and v maps (a, k) ->
(a, k-1), both vanishing off the range.  In an SOneModel the element
(0, k) sits in degree n + 2k and U maps it to (0, k-1).

Reading the bottoms.  Degree n + 4k + a holds exactly one tower element,
(a, k) (degree n + 2k holds (0, k) in an SOneModel).  High above the
finite part it spans its degree, so the stable image of v (or U) in
degree n + 4k + a is spanned by the class of (a, k): it is nonzero
exactly when (a, k) is not a boundary.  Boundaries are closed downwards:
if (a, k+1) = dc, then (a, k) = d(vc).  So the bottom at level a is
n + a + step * (b + 1), where b is the highest tower-arrow target (a, b)
that is a boundary, or n + a when none is (step 4, or 2 for U).  Every
boundary comes from a finite generator, so every target is read from one
column reduction (`f2linalg.reduce_columns`) of [T; d_fin], where T has
one row of tower arrows per target, in the low bits.  A column is only
added to one with the same highest bit, so of the same degree: each
reduced column is homogeneous.  One whose highest set bit is a row of T
is 0 on d_fin, whose bits are higher, and on the other rows of T, since
its degree holds one tower element: it is that target alone.
Conversely a boundary lies in the column space, whose reduced columns
have distinct highest bits, so one of them owns its row.  A target is a
boundary exactly when it owns a reduced column.

Reading a model.  Each finite-part matrix is checked for 0/1 entries,
then for its n x n shape, then for its degree shift on its rows packed
into Python ints.  A list or tuple of n lists or tuples (a JSON matrix
is n lists of n entries) is packed as it is read; a shape error names
the shape, or the row lengths when they differ.  The packed rows are
the one form of each matrix: every law (d^2 = 0 and d commuting with
q, v or U on the generators with the same T, then q^3 = 0 and qv = vq)
runs as XORs of them, the columns of [T; d_fin] are packed from them,
and `to_json` and the window oracle read them.  Neither reading needs a
window, so neither costs more when the degrees spread.

Orientation reversal.  Over F2 the homology of the degree-negated dual
complex in degree -D is the dual space of H_D, and each power of v
induces the transposed map, so it has the same rank.  The downward tower
of the dual in the residue of n + a therefore runs down from the negated
bottom: the co-Borel tops are (-A, -B, -C) (`coborel_tower_tops`).

Localization.  Above the finite part each degree holds at most one tower
element, so the stable image of v in a degree D >= max(A, B, C) is
spanned by the tower element in D, when there is one: none when
(D - n) mod 4 = 3, and otherwise (a, k), which is not a boundary because
D is at or above its level's bottom and boundaries are closed downwards.
The stable v-rank is 1 when (D - n) mod 4 is 0, 1 or 2 and 0 otherwise;
with no reducible tower the finite part is all there is and every stable
rank is 0 (`localization_check`).

Windows.  No report lays out a window.  `materialize` still lays out the
explicit GF(2) complex on a degree window (`graded.ladder_window`) for the
test oracles that check the readings above; `default_window` puts its
bottom below every generator and its stable cut at least 8 degrees above
the highest generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple

from . import f2linalg as la
from .errors import InputError, InternalError, ModelInvalidError, as_int
from .graded import GradedComplex, ladder_window


_INT, _BITS = frozenset({int}), frozenset({0, 1})
_SEQUENCES = (list, tuple)


def _read_matrix(value, kind: str, field: str, degrees: list[int],
                 masks: dict[int, int], shift: int) -> list[int]:
    """The packed rows (bit j of row i is entry (i, j)) of a finite-part
    matrix of a `kind` input: entries the integers 0 or 1, not reduced mod
    2, then n x n, then row i inside masks[degrees[i] - shift], the
    generators of that degree.  The first bad entry in row-major order is
    named.  A row of plain ints 0 and 1 passes two set tests; any other row
    is walked entry by entry.  A list or tuple of n lists or tuples is
    packed as it is read."""
    for row in value:
        if set(map(type, row)) <= _INT and set(row) <= _BITS:
            continue
        for x in row:
            if isinstance(x, bool) or not hasattr(x, "__index__") or x not in (0, 1):
                raise InputError(
                    f"malformed {kind} input: {field} entries must be 0 or 1, got {x!r}"
                )
    n = len(degrees)
    if not (isinstance(value, _SEQUENCES) and len(value) == n
            and all(isinstance(row, _SEQUENCES) and len(row) == n for row in value)):
        if not (isinstance(value, _SEQUENCES) and all(isinstance(r, _SEQUENCES) for r in value)):
            raise InputError(f"{field} must be a list of {n} lists")
        lengths = [len(row) for row in value]
        got = (f"ragged rows of lengths {lengths}" if len(set(lengths)) > 1
               else (len(lengths), lengths[0] if lengths else 0))
        raise InputError(f"{field} must be {n}x{n}, got {got}")
    rows = [sum(1 << j for j, x in enumerate(row) if x) for row in value]
    for i, row in enumerate(rows):
        if bad := row & ~masks.get(degrees[i] - shift, 0):
            j = (bad & -bad).bit_length() - 1
            raise InputError(f"{field} entry ({i},{j}) violates degree shift {shift}")
    return rows


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The GF(2) product of two matrices given as packed rows: row i is the
    XOR of the rows of b at the set bits of row i of a."""
    out = []
    for row in a:
        acc = 0
        while row:
            j = row.bit_length() - 1
            acc ^= b[j]
            row ^= 1 << j
        out.append(acc)
    return out


class TowerArrow(NamedTuple):
    """Differential component from a finite generator into the tower
    element q^a v^b g (degree n + 4b + a); a = 0 in an SOneModel."""

    source: str
    a: int
    b: int


class _TowerModel:
    """What PinModel and SOneModel share: towers (a, k) at levels
    0 <= a < LEVELS in degree n + STEP * k + a, finite generators
    `finite` with differential `d_fin`, tower arrows `d_to_tower`, and the
    operators OPS, each as (name, input field, shift, tower entries).  The
    tower entry (a, a2, j) sends (a, k) to (a2, k - j).  Each finite-part
    matrix is kept as packed rows only, `_rows[field]` (bit j of row i is
    entry (i, j)).  Inputs of the kind KIND are read and checked here, and
    written back by `to_json`."""

    STEP = LEVELS = 0
    KIND = ""
    OPS: tuple = ()

    def __init__(self, reducible_degree, finite, op_values, d_fin, d_to_tower):
        """`op_values` holds the finite-part matrices of OPS in order;
        `reducible_degree` is None for a model without towers."""
        kind = self.KIND
        if reducible_degree is not None:
            reducible_degree = as_int(reducible_degree, kind, "reducible_degree")
        self.reducible_degree = reducible_degree
        self.finite = [(str(l), as_int(d, kind, "degree")) for l, d in finite]
        labels = [l for l, _ in self.finite]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate finite generator labels")
        self.gen_index = {l: i for i, l in enumerate(labels)}
        degs = [d for _, d in self.finite]
        masks: dict[int, int] = {}
        for j, deg in enumerate(degs):
            masks[deg] = masks.get(deg, 0) | 1 << j
        fields = [(f, shift) for _, f, shift, _ in self.OPS] + [("d_fin", -1)]
        self._rows = {field: _read_matrix(value, kind, field, degs, masks, shift)
                      for (field, shift), value in zip(fields, [*op_values, d_fin])}
        self.d_to_tower = [self._arrow(t) for t in d_to_tower]
        *ops, d = self._rows.values()
        self._check_generators(d, ops)
        self._check_operators(ops)

    def _arrow(self, arrow) -> TowerArrow:
        """The tower arrow (source, a, b), checked against the model."""
        src, a, b = arrow
        a = as_int(a, self.KIND, "tower arrow a")
        b = as_int(b, self.KIND, "tower arrow b")
        if src not in self.gen_index:
            raise InputError(f"tower arrow from unknown generator {src!r}")
        if not (0 <= a < self.LEVELS) or b < 0:
            raise InputError(f"tower arrow needs 0 <= a < {self.LEVELS} and b >= 0")
        if self.reducible_degree is None:
            raise InputError("tower arrow in a model without a reducible tower")
        if self.finite[self.gen_index[src]][1] - 1 != self.reducible_degree + self.STEP * b + a:
            raise InputError(f"tower arrow from {src!r} is not of degree -1")
        return TowerArrow(str(src), a, b)

    def to_json(self) -> dict:
        one_level, n = self.LEVELS == 1, len(self.finite)
        return {
            "kind": self.KIND,
            "reducible_degree": self.reducible_degree,
            "finite": [{"label": l, "degree": d} for l, d in self.finite],
            **{field: [[row >> j & 1 for j in range(n)] for row in rows]
               for field, rows in self._rows.items()},
            "d_to_tower": [{"from": t.source, "b": t.b} if one_level else
                           {"from": t.source, "a": t.a, "b": t.b} for t in self.d_to_tower],
        }

    @classmethod
    def from_json(cls, data: dict):
        """The model of a raw input dict.  A missing field raises KeyError;
        `cli.parse_input` is the checked door that makes it an InputError."""
        finite = [(g["label"], g["degree"]) for g in data.get("finite", [])]
        arrows = [(t["from"], 0 if cls.LEVELS == 1 else t["a"], t["b"])
                  for t in data.get("d_to_tower", [])]
        ops = [data.get(field, []) for _, field, _, _ in cls.OPS]
        return cls(data.get("reducible_degree"), finite, *ops, data.get("d_fin", []), arrows)

    def _tower_rows(self) -> tuple[list[tuple[int, int]], list[int]]:
        """The tower-arrow targets (a, b) whose row is nonzero, and the
        packed rows of the matrix T whose row r holds the tower arrows into
        targets[r], over the finite generators."""
        rows: dict[tuple[int, int], int] = {}
        for t in self.d_to_tower:
            rows[t.a, t.b] = rows.get((t.a, t.b), 0) ^ 1 << self.gen_index[t.source]
        targets = [key for key, row in rows.items() if row]
        return targets, [rows[key] for key in targets]

    def _check_generators(self, d: list[int], ops: list[list[int]]):
        """d^2 = 0 and dP = Pd for every operator P, on the generators (packed
        rows).  On the finite part these are d_fin^2 = 0 and d_fin P = P d_fin;
        for the matrix T of tower arrows (one row per target), T d_fin = 0 and
        T P = P_tower T.  One product d_fin^2 and T d_fin, stacked, checks
        the first law, and one product T P per operator the second; the
        tower side P_tower T only moves rows of T.  The error names the
        lowest degree at fault, as a window's check does."""
        targets, t = self._tower_rows()
        rows = dict(zip(targets, t))
        degs = [deg for _, deg in self.finite]

        def at_fault(bad_rows, what):
            if bad := reduce(or_, bad_rows, 0):
                low = min(deg for j, deg in enumerate(degs) if bad >> j & 1)
                raise InputError(f"inconsistent model: {what} at degree {low}")

        at_fault(_mul(d + t, d), "differential does not square to zero")
        for (name, _, _, tower), p in zip(self.OPS, ops):
            bad = [x ^ y for x, y in zip(_mul(d, p), _mul(p, d))]
            tp = dict(zip(targets, _mul(t, p)))
            # rows of T P (the targets) and of P_tower T (their images)
            images = {(a2, b - j) for a, b in rows for a1, a2, j in tower if a1 == a and b >= j}
            for a, b in set(rows) | images:
                y = tp.get((a, b), 0)
                for a1, a2, j in tower:
                    if a2 == a:
                        y ^= rows.get((a1, b + j), 0)
                bad.append(y)
            at_fault(bad, f"operator {name} does not commute with D")

    def _check_operators(self, ops: list[list[int]]):
        """Laws among the operators (packed rows): none for one operator."""

    def _ladders(self):
        """The model in the form of graded.ladder_window: the finite
        generators, and the towers as ladders ("t", a) from n + a."""
        labels = [l for l, _ in self.finite]

        def fin(rows):
            return [(labels[j], labels[i], 0)
                    for i, row in enumerate(rows) for j in range(len(labels)) if row >> j & 1]

        gens = [(l, d, 0) for l, d in self.finite]
        if self.reducible_degree is not None:
            gens += [(("t", a), self.reducible_degree + a, self.STEP)
                     for a in range(self.LEVELS)]
        arrows = [(t.source, ("t", t.a), -t.b) for t in self.d_to_tower]
        maps = {"d": (-1, fin(self._rows["d_fin"]) + arrows)}
        for name, field, shift, tower in self.OPS:
            maps[name] = (shift, fin(self._rows[field])
                          + [(("t", a1), ("t", a2), j) for a1, a2, j in tower])
        return gens, maps


class PinModel(_TowerModel):
    """Free F[q,v]/(q^3) tower triple plus finite part.

    reducible_degree may be None for the (hypothetical) model with no
    reducible tower; such models must have no arrows into the towers.
    """

    STEP, LEVELS, KIND = 4, 3, "pin_model"
    OPS = (("q", "q", -1, ((1, 0, 0), (2, 1, 0))),
           ("v", "v", -4, tuple((a, a, 1) for a in range(3))))

    def __init__(self, reducible_degree, finite, q_op, v_op, d_fin, d_to_tower):
        super().__init__(reducible_degree, finite, (q_op, v_op), d_fin, d_to_tower)

    def _check_operators(self, ops):
        """An even reducible degree, then q^3 = 0 and qv = vq."""
        if self.reducible_degree is not None and self.reducible_degree % 2:
            raise InputError("reducible degree must be even")
        q, v = ops
        if any(_mul(q, _mul(q, q))):
            raise InputError("q_op^3 != 0")
        if _mul(q, v) != _mul(v, q):
            raise InputError("q_op and v_op do not commute")

    # -- windows ---------------------------------------------------------

    def _degree_pool(self) -> list[int]:
        degs = [d for _, d in self.finite]
        if self.reducible_degree is not None:
            degs.append(self.reducible_degree)
        return degs or [0]

    def default_window(self) -> tuple[int, int]:
        # the stable cut, 8 below the top, sits 8 + 4 per finite
        # generator above the highest generator
        degs = self._degree_pool()
        n = self.reducible_degree if self.reducible_degree is not None else max(degs)
        lo = min(degs) - 8
        hi = max(max(degs), n) + 4 * (4 + len(self.finite))
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
        return ladder_window(*self._ladders(), lo, hi)


@dataclass
class AbcReport:
    A: int
    B: int
    C: int
    alpha: int
    beta: int
    gamma: int
    mu: int

    def triple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


def tower_bottoms(model) -> tuple[int, ...]:
    """The lowest degree of each tower in homology, level by level: A, B, C
    of a PinModel, the one bottom of an SOneModel.  A tower-arrow target is
    a boundary exactly when its row of T owns a reduced column of [T; d_fin]
    (see the module docstring), so one column reduction reads them all."""
    n = model.reducible_degree
    if n is None:
        raise ModelInvalidError("model has no reducible tower")
    targets, t = model._tower_rows()
    # the columns of [T; d_fin], packed from its rows: bit r of column j is
    # entry (r, j)
    cols = [0] * len(model.finite)
    for r, row in enumerate(t + model._rows["d_fin"]):
        while row:
            j = row.bit_length() - 1
            cols[j] |= 1 << r
            row ^= 1 << j
    owner = la.reduce_columns(cols)[2]
    bottoms = [n + a for a in range(model.LEVELS)]
    for r, (a, b) in enumerate(targets):
        if r in owner:
            bottoms[a] = max(bottoms[a], n + a + model.STEP * (b + 1))
    return tuple(bottoms)


def abc(model: PinModel) -> AbcReport:
    """Extract (alpha, beta, gamma, mu) from the tower bottoms.  Its law is
    the ordering alpha >= beta >= gamma."""
    A, B, C = tower_bottoms(model)
    alpha, beta, gamma = A // 2, (B - 1) // 2, (C - 2) // 2
    mu = alpha % 2
    if not (alpha >= beta >= gamma):
        raise InternalError(
            f"alpha >= beta >= gamma violated: {(alpha, beta, gamma)}"
        )
    return AbcReport(A, B, C, alpha, beta, gamma, mu)


@dataclass
class LocalizationReport:
    ok: bool
    anchored_at: int | None  # reducible degree, None when towers are absent
    pattern: list[int]       # stable dimensions over one period
    detail: str = ""


def localization_check(model: PinModel) -> LocalizationReport:
    """Stabilized v-image must be the three-tower pattern 1,1,1,0 anchored
    at the reducible degree, or identically zero without a reducible.  Read
    from the tower bottoms (see the module docstring) over one period, the
    four degrees from max(A, B, C) up."""
    n = model.reducible_degree
    if n is None:
        return LocalizationReport(True, None, [0, 0, 0, 0], "free model localizes to zero")
    top = max(tower_bottoms(model))
    return LocalizationReport(True, n, [1 if (d - n) % 4 in (0, 1, 2) else 0
                                        for d in range(top, top + 4)])


def coborel_tower_tops(model: PinModel):
    """Maximal degrees of the three downward towers of the degree-negated
    dual complex: the negated tower bottoms (see the module docstring)."""
    return tuple(-b for b in tower_bottoms(model))


# ---------------------------------------------------------------------------
# S^1 analogue: one U-tower


class SOneModel(_TowerModel):
    """Single free F[U] tower (bottom at the reducible degree, U of degree
    -2) plus a finite part with a U action."""

    STEP, LEVELS, KIND = 2, 1, "s1_model"
    OPS = (("U", "u", -2, ((0, 0, 1),)),)

    def __init__(self, reducible_degree, finite, u_op, d_fin, d_to_tower):
        # the U-tower is not optional
        reducible_degree = as_int(reducible_degree, self.KIND, "reducible_degree")
        super().__init__(reducible_degree, finite, (u_op,), d_fin, d_to_tower)

    def default_window(self) -> tuple[int, int]:
        # the stable cut, 4 below the top, sits 8 + 2 per finite
        # generator above the highest generator
        degs = [d for _, d in self.finite] + [self.reducible_degree]
        lo = min(degs) - 6
        hi = max(max(degs), self.reducible_degree) + 2 * (6 + len(self.finite))
        return lo, hi

    def materialize(self, lo: int, hi: int) -> GradedComplex:
        """Explicit GF(2) complex with U on the window [lo, hi]."""
        n = self.reducible_degree
        degs = [d for _, d in self.finite] + [n]
        if lo > min(degs) - 2:
            raise InputError("window bottom too high")
        if hi < n + 8:
            raise InputError("window top too low")
        return ladder_window(*self._ladders(), lo, hi)


def delta_invariant(model: SOneModel) -> Fraction:
    """Half the bottom degree of the U-tower in homology."""
    (bottom,) = tower_bottoms(model)
    return Fraction(bottom, 2)
