"""Involutive mapping-cone algebra over F[U] and correction terms.

Inputs are finitely generated free graded complexes over F[U] together
with a grading-preserving chain involution iota, exact up to chain
homotopy.  Every F[U]-map is stored by the F2 coefficients of its
entries, since one rule forces its U-powers: an entry j -> i of a
degree-s map carries U^k with deg i - 2k = deg j + s (k >= 0).
`_forced_power` is the only place that rule is written; the differential
and iota share one entry reader and one entry printer.  The reader writes
the coefficients straight into packed columns in slot order (below): bit
slot[i] of column slot[j], so that duplicate entries cancel by XOR.  These
columns are the one form of each map.  An iota is always read against
its complex (`IotaMap.of`; `IotaMap.identity` is that complex's
identity), so every entry has its forced U-power before `validate_iota`
sees it, and `validate_iota` and the split test refuse an iota read
against another complex.  The numpy matrices `UComplex.d_mat` and
`IotaMap.mat`, in generator order, are unpacked from the columns on first
use, for the products of `f2_mul` (`validate_iota` and the homotopy
solve), `to_json` and the tests.

Towers are read from one column reduction of d (`UComplex._reduce`).
Order the generators by falling degree (ties by index), generator
order[t] in slot t, and let m be d's coefficient matrix with rows and
columns in that order: the reader's packed columns are m's, d^2 = 0 is
checked as XORs of them, and they are reduced as they are.  A change of
basis x_b -> x_b + U^k x_a (k >= 0) adds a generator into one of lower
or equal degree and the same parity, so it keeps the rank of every block
of m whose rows have degree at most e and whose columns have degree at
least e'.  By the pairing lemma of persistence (Cohen-Steiner,
Edelsbrunner and Morozov, "Vines and vineyards by updating persistence
in linear time", SoCG 2006) these ranks fix the degrees of the pairs that
any elimination by such changes splits off.  The entry with the smallest
U-power in a column is its lowest-degree row, so elimination on that
entry is the column reduction of m.  Its paired slots are N, the columns
j with a nonzero reduced boundary R_j, and L, the lowest rows low(j) of
those R_j.  L and N are disjoint because d^2 = 0: if x_i is the lowest
term of R_j, then dR_j = 0 puts d x_i in the span of d of earlier
generators.  The slots in neither set are unpaired; their degrees are
the bottoms of the U-towers of the plus flavor.  The correction term d
is the bottom of the single tower.  The reduction is
`f2linalg.reduce_columns`, the one GF(2) elimination of the package; a
complex fixes d when it is built, so it reduces d once and keeps the
result for the tower read and the normal form.

The same reduction puts d in normal form (`UComplex.normal_form`).  Keep
the column operations V, so that column j of dV is the reduced boundary
R_j.  The new basis keeps V_j in slot j, except that slot low(j) of a
nonzero R_j holds R_j, read as x_low(j) plus terms of higher degree (the
U-power of its lowest term divided out).  In the falling-degree order the
matrix P^-1 of this basis is unitriangular and each entry adds a
generator into one of lower or equal degree, so P is a degree-preserving
F[U] change of basis, read from P^-1 by back-substitution on its packed
columns, and N = P d P^-1 has one 1 at (low(j), j) for each
pair and no other entry: d is a sum of blocks, one per pair and one per
unpaired generator.  A homotopy dH + Hd = R becomes N H' + H' N = R' with
H' = P H P^-1 and R' = P R P^-1.  N has no entry between blocks, so the
part of N H' + H' N from block B to block A involves H'[A, B] alone: the
equation splits into one system of at most 4 unknowns and 4 equations
per pair of blocks, and the pairs with R'[A, B] = 0 take H'[A, B] = 0;
R = 0 itself takes H = 0 with no product at all.  Each system is built
as packed columns, with its right-hand side packed from the nonzeros of
R', and goes to the packed core of `f2linalg.solve_f2` with no numpy
round trip.
H -> P H P^-1 is a bijection of degree +1 F[U]-maps, so a block with
no solution means that no H exists: None is exact.  Every H = P^-1 H' P
returned is checked against dH + Hd = R.

The cone of Q(1+iota) carries a Q of degree -1 with Q^2 = 0; its x keep
their degrees and its Qx sit one lower.  Its differential is
[[d, 0], [1+iota, d]], built from parts already checked, so it needs no
check of its own.  Its support: the two d blocks keep d's degree -1
support, and 1 + iota has an entry x -> Qy of degree -1 exactly where
iota's x -> y has degree 0.  Its square mod 2 is
[[d^2, 0], [iota d + d iota, d^2]]: d^2 = 0 is checked when C is built
and iota d = d iota by `validate_iota`.  Hendricks and Manolescu
("Involutive Heegaard Floer homology", section 5) define the involutive
complex as this cone with every degree raised by 1, and read d_under + 1
as the bottom of its tower not in the image of Q, and d_bar as the bottom
of its tower in the image of Q.  Once U is inverted, 1 + iota acts as 0
(iota is the identity on the one tower of C), so the cone has one tower
in d's parity, carried by the x, and one in the other parity, carried by
the Qx.  Undoing the shift: d_under = b_main, the cone's tower bottom in
d's parity, and d_bar = b_q + 1, with b_q its bottom in the other parity.
The split case, 1 + iota = dH + Hd, is a special case, not a second path:
the change of basis x -> x + QHx makes the cone C + C[-1], with towers at
d and d - 1, so d_bar = d_under = d.  Two cone towers and the ordering
d_under <= d <= d_bar are checked (InternalError); by the parity key
d_under, d and d_bar agree mod 2, a law the tests check.

The cone is built as packed columns in an interleaved slot order: for the
generator x in slot t of C, m:x sits in slot 2t and q:x in slot 2t + 1.
With `_spread` moving bit r to bit 2r, column 2t is
spread(d_t) | spread((1 + iota)_t) << 1 and column 2t + 1 is
spread(d_t) << 1.  This order does not fall in degree, but the reduction
needs that only within a parity.  An entry of degree -1 joins opposite
parities, so two columns with the same lowest row have the same parity,
and `reduce_columns` only ever adds a column to another of its own
parity.  Within one parity the order falls: two m's or two q's keep C's
order; m:t before q:u needs D_t >= D_u - 1, true since t comes first;
q:u before m:t (u in an earlier slot, so D_u >= D_t) needs
D_u - 1 >= D_t, true since D_u and D_t differ mod 2 when q:u and m:t
share a parity.  So each parity block gets the falling-degree reduction
that the pairing-lemma argument above needs, and `tower_bottoms` reads
the cone as it reads C.

The explicit plus flavor on a degree window (tensoring with
F[U, U^-1]/F[U]) stays available as `UComplex.plus_window`, laid out by
`graded.ladder_window`, as the reference the tower read and the cone
laws on homology dimensions are tested against; no command builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import f2linalg as la
from .errors import InputError, InternalError, ModelInvalidError, as_int
from .graded import GradedComplex, ladder_window

DEFAULT_MARGIN = 2


def _forced_power(deg_from: int, deg_to: int, shift: int):
    """U-power k of an entry U^k * target inside a degree-`shift` map,
    i.e. deg_to - 2k = deg_from + shift; None if no such k >= 0."""
    num = deg_to - deg_from - shift
    if num % 2 or num < 0:
        return None
    return num // 2


def _read_entries(c: "UComplex", entries, shift: int, what: str) -> list[int]:
    """Packed columns, in c's slot order, of the degree-`shift` map with
    (from, to, upower) `entries` on c's generators: bit slot[to] of column
    slot[from].  `what` names the map in errors.  Each entry is checked,
    then XORed in, so duplicate entries cancel."""
    cols = [0] * len(c.generators)
    degs, slot = c.degrees(), c._slot
    for ent in entries:
        src, tgt, upower = ent
        if src not in c.index or tgt not in c.index:
            raise InputError(f"{what} entry {ent} references unknown generator")
        i, j = c.index[tgt], c.index[src]
        k = _forced_power(degs[j], degs[i], shift)
        if k is None:
            raise InputError(f"no degree {shift} entry possible from {src!r} to {tgt!r}")
        if as_int(upower, "u_complex", "upower") != k:
            raise InputError(f"{what} entry {src!r}->{tgt!r} must have upower {k}, got {upower}")
        cols[slot[j]] ^= 1 << slot[i]
    return cols


def _apply(cols: list[int], x: int) -> int:
    """The image of the packed vector x under the map with packed columns
    cols: the XOR of cols[r] over the bits r of x."""
    y = 0
    while x:
        top = x.bit_length() - 1
        y ^= cols[top]
        x ^= 1 << top
    return y


def _matrix(cols: list[int], slot: list[int]) -> np.ndarray:
    """The coefficient matrix, rows and columns in generator order, of the
    map whose packed columns are `cols` in slot order (generator g in slot
    slot[g]): a transposed view of the unpacked columns."""
    where = np.array(slot, dtype=np.intp)
    return la._unpack_rows(cols, len(cols))[where][:, where].T


# _SPREAD[b]: the byte b with bit r moved to bit 2r, as two little-endian bytes
_SPREAD = [int("0".join(format(b, "b")), 2).to_bytes(2, "little") for b in range(256)]


def _spread(x: int) -> int:
    """x with bit r moved to bit 2r, one byte at a time through _SPREAD:
    the m-slots of the cone's interleaved order (module docstring)."""
    if not x:
        return 0
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_SPREAD.__getitem__, data)), "little")


def _entry_list(c: "UComplex", mat: np.ndarray, shift: int) -> list[dict]:
    """The nonzeros of a degree-`shift` map as entries, column by column."""
    gens = c.generators
    return [
        {"from": gens[j][0], "to": gens[i][0],
         "upower": _forced_power(gens[j][1], gens[i][1], shift)}
        for j, i in zip(*np.nonzero(mat.T))
    ]


class UComplex:
    """Free graded complex over F[U]; differential entries carry the
    degree-forced U-power.  The differential is kept as packed columns in
    slot order (`_order[t]` is the generator in slot t, `_slot` its
    inverse); its coefficient matrix `d_mat`, in generator order, is
    unpacked on first use, for the products of `validate_iota` and the
    homotopy solve, `to_json` and the tests."""

    def __init__(self, generators, differential):
        """Generators (label, degree) and the differential's (from, to,
        upower) entries, each checked (InputError).  Slots fall in degree,
        ties by index."""
        gens = [(str(l), as_int(d, "u_complex", "degree")) for l, d in generators]
        if len({l for l, _ in gens}) != len(gens):
            raise InputError("duplicate generator labels")
        self._setup(gens, sorted(range(len(gens)), key=lambda g: (-gens[g][1], g)))
        self._cols = _read_entries(self, differential, -1, "differential")
        if any(_apply(self._cols, col) for col in self._cols):
            raise InputError("differential does not square to zero")

    @classmethod
    def _from_columns(cls, generators, order, cols: list[int]) -> "UComplex":
        """The complex on the checked (label, degree) `generators` whose
        differential has the packed columns `cols` in the slot order
        `order`, which the caller has checked: degree -1 support,
        d^2 = 0, and slots that fall in degree within each parity (module
        docstring)."""
        c = cls.__new__(cls)
        c._setup(generators, order)
        c._cols = cols
        return c

    def _setup(self, generators, order: list[int]):
        self.generators = generators
        self.index = {l: g for g, (l, _) in enumerate(generators)}
        self._order, self._slot = order, [0] * len(order)
        for t, g in enumerate(order):
            self._slot[g] = t
        self._reduction = None

    d_mat = cached_property(lambda self: _matrix(self._cols, self._slot))

    def degrees(self) -> list[int]:
        return [d for _, d in self.generators]

    def entry_list(self) -> list[dict]:
        return _entry_list(self, self.d_mat, -1)

    def to_json(self, iota: "IotaMap | None" = None) -> dict:
        data = {
            "kind": "u_complex",
            "generators": [{"label": l, "degree": d} for l, d in self.generators],
            "differential": self.entry_list(),
        }
        if iota is not None:
            data["iota"] = _entry_list(self, iota.mat, 0)
        return data

    @classmethod
    def from_json(cls, data: dict):
        """(complex, iota or None) of a raw input dict.  A missing field
        raises KeyError; `cli.parse_input` is the checked door that makes it
        an InputError."""
        gens = [(g["label"], g["degree"]) for g in data["generators"]]
        diff = [(e["from"], e["to"], e["upower"]) for e in data.get("differential", [])]
        c = cls(gens, diff)
        iota = None
        if "iota" in data:
            iota = IotaMap.of(c, [(e["from"], e["to"], e["upower"]) for e in data["iota"]])
        return c, iota

    # -- towers ----------------------------------------------------------

    def _reduce(self):
        """The column reduction of d in slot order: (cols, ops, owner).
        cols[t] is the reduced column R_t (bit r: slot r), ops[t] the
        column operations V_t (R_t = d V_t), and owner maps the lowest
        slot of each nonzero R_t to t (module docstring).  Computed on the
        first call and kept, since d is fixed at construction."""
        if self._reduction is None:
            self._reduction = la.reduce_columns(self._cols)
        return self._reduction

    def tower_bottoms(self) -> dict[int, int]:
        """{parity: bottom} of the U-towers: the degrees of the slots of
        the column reduction that are neither a low (L) nor a nonzero
        column (N), see the module docstring."""
        degs = self.degrees()
        cols, _, owner = self._reduce()
        towers = {}
        for parity in (0, 1):
            bottoms = [degs[g] for t, g in enumerate(self._order)
                       if not cols[t] and t not in owner and degs[g] % 2 == parity]
            if len(bottoms) > 1:
                raise ModelInvalidError("stabilized rank exceeds 1: multiple towers in one parity")
            if bottoms:
                towers[parity] = bottoms[0]
        return towers

    def normal_form(self):
        """(P, P^-1, pairs): a degree-preserving F[U] change of basis and
        the pairs (i, j) of N = P d P^-1, whose only nonzeros are the 1s at
        them (module docstring).  Built from the column reduction of d.
        In slot order P^-1 is upper unitriangular: its column t is e_t plus
        earlier slots.  So P e_t = e_t + sum of P e_s over those slots s,
        and P comes column by column, in slot order, by back-substitution
        on the packed columns."""
        cols, ops, owner = self._reduce()
        slots = ops[:]  # column t of P^-1: V_t, or R_s = d V_s in slot low(s)
        for low, s in owner.items():
            slots[low] = cols[s]
        inv = []
        for t, col in enumerate(slots):
            inv.append(1 << t ^ _apply(inv, col ^ 1 << t))
        p_inv, p = _matrix(slots, self._slot), _matrix(inv, self._slot)
        order = self._order
        return p, p_inv, [(order[low], order[s]) for low, s in owner.items()]

    # -- plus flavor -----------------------------------------------------

    def default_window(self) -> tuple[int, int]:
        degs = self.degrees() or [0]
        lo = min(degs) - 6
        hi = max(degs) + 2 * (DEFAULT_MARGIN + 2 + len(self.generators))
        return lo, hi

    def plus_window(self, lo: int, hi: int, extra_ops=None) -> GradedComplex:
        """Explicit GF(2) model of the quotient flavor on [lo, hi]: each
        generator x is the ladder (x, k) = U^{-k} x, k >= 0, of step 2
        (graded.ladder_window).  extra_ops: name -> (shift, entries), more
        operators in the entry form of ladder_window."""
        degs = self.degrees()
        if degs and hi < max(degs) + 2 * (DEFAULT_MARGIN + 1):
            raise InputError("window top too low for the plus flavor")
        if degs and lo > min(degs) - 2:
            raise InputError("window bottom too high for the plus flavor")
        gens = [(lab, deg, 2) for lab, deg in self.generators]
        maps = {
            "d": (-1, [(e["from"], e["to"], e["upower"]) for e in self.entry_list()]),
            "U": (-2, [(lab, lab, 1) for lab, _ in self.generators]),
            **(extra_ops or {}),
        }
        return ladder_window(gens, maps, lo, hi)


class IotaMap:
    """Grading-preserving F[U]-linear map on a complex c (U-powers forced
    by degrees), read against c: it keeps c and its packed columns in c's
    slot order; its matrix `mat` is unpacked on first use.  `of` and
    `identity` are the constructors."""

    def __init__(self, c: UComplex, cols: list[int]):
        """The map on c with the packed columns `cols` in c's slot order,
        which the caller has checked: degree-0 support."""
        self._complex, self._cols = c, cols

    @classmethod
    def identity(cls, c: UComplex) -> "IotaMap":
        return cls(c, [1 << t for t in range(len(c.generators))])

    @classmethod
    def of(cls, c: UComplex, entries) -> "IotaMap":
        """The map with (from, to, upower) `entries` on c's generators,
        each checked by the entry reader."""
        return cls(c, _read_entries(c, entries, 0, "iota"))

    mat = cached_property(lambda self: _matrix(self._cols, self._complex._slot))


def _check_read_against(c: UComplex, iota: IotaMap):
    """InputError unless iota was read against c itself."""
    if iota._complex is not c:
        raise InputError("iota was read against another complex")


def _homotopy_solve(c: UComplex, rhs: np.ndarray):
    """Solve dH + Hd = rhs for a degree +1 F[U]-map H; returns the H
    matrix or None.  In the normal form N = P d P^-1 the equation
    N H' + H' N = P rhs P^-1 splits into one system of at most 4 unknowns
    per pair of blocks (module docstring).  A zero rhs is answered by
    H = 0 at once, since dH + Hd = 0 for it.  Any other H = P^-1 H' P is
    certified."""
    n = len(c.generators)
    degs = c.degrees()
    h = la.f2_zeros(n, n)
    if not rhs.any():
        return h
    p, p_inv, pairs = c.normal_form()
    target = {j: i for i, j in pairs}  # N x_j = x_i
    source = {i: j for i, j in pairs}
    blocks = [(s,) for s in range(n)]
    for i, j in pairs:
        blocks[i] = blocks[j] = (i, j)
    r = la.f2_mul(la.f2_mul(p, rhs), p_inv)
    rows, cols = (ix.tolist() for ix in np.nonzero(r))
    for a, b in {(blocks[i], blocks[j]) for i, j in zip(rows, cols)}:
        # (N H' + H' N)[a, b] involves H'[a, b] only: the unknown H'[x, y]
        # enters at (N x, y) and at (x, N^T y); the equations are the
        # cells, packed in this order
        cells = {e: row for row, e in enumerate((x, y) for x in a for y in b)}
        bits = sum(1 << row for e, row in cells.items() if r[e])
        unknowns = [(x, y) for x, y in cells
                    if _forced_power(degs[y], degs[x], 1) is not None]
        system = []
        for x, y in unknowns:
            col = 1 << cells[target[x], y] if x in target else 0
            if y in source:
                col ^= 1 << cells[x, source[y]]
            system.append(col)
        sol = la._solve_packed(system, [bits])
        if sol is None:
            return None
        for k, e in enumerate(unknowns):
            if sol[0] >> k & 1:
                h[e] = 1
    h = la.f2_mul(la.f2_mul(p_inv, h), p)
    if (la.f2_mul(c.d_mat, h) ^ la.f2_mul(h, c.d_mat) ^ rhs).any():
        raise InternalError("homotopy solve returned H with dH + Hd != rhs")
    return h


def validate_iota(c: UComplex, iota: IotaMap) -> bool:
    """Chain map with iota^2 homotopic to the identity, or InputError.
    The entry reader has checked the U-power of every entry of iota."""
    _check_read_against(c, iota)
    n = len(c.generators)
    if (la.f2_mul(iota.mat, c.d_mat) ^ la.f2_mul(c.d_mat, iota.mat)).any():
        raise InputError("iota is not a chain map")
    sq = la.f2_mul(iota.mat, iota.mat) ^ la.f2_eye(n)
    if _homotopy_solve(c, sq) is None:
        raise InputError("iota^2 is not chain homotopic to the identity")
    return True


def one_plus_iota_nullhomotopic(c: UComplex, iota: IotaMap) -> bool:
    _check_read_against(c, iota)
    rhs = iota.mat ^ la.f2_eye(len(c.generators))
    return _homotopy_solve(c, rhs) is not None


def cone_iota(c: UComplex, iota: IotaMap) -> UComplex:
    """The mapping cone of Q(1+iota), once iota is validated: generators
    m:x and q:x (degree shifted by -1), differential [[d, 0], [1+iota, d]],
    built from packed columns in the interleaved slot order (module
    docstring).  Neither its support nor its square is checked again: mod
    2 the square is [[d^2, 0], [iota d + d iota, d^2]], whose blocks
    `UComplex` and `validate_iota` have already found zero."""
    validate_iota(c, iota)
    n = len(c.generators)
    gens = [(f"m:{l}", d) for l, d in c.generators]
    gens += [(f"q:{l}", d - 1) for l, d in c.generators]
    # slot 2t holds m:x and slot 2t + 1 holds q:x, for x in c's slot t:
    # d m:x = m:dx + q:(1 + iota)x and d q:x = q:dx
    cols = []
    for t, (d_t, iota_t) in enumerate(zip(c._cols, iota._cols)):
        m = _spread(d_t)
        cols += [m | _spread(iota_t ^ 1 << t) << 1, m << 1]
    order = [g + half for g in c._order for half in (0, n)]
    return UComplex._from_columns(gens, order, cols)


# ---------------------------------------------------------------------------
# correction terms


def d_invariant(c: UComplex) -> Fraction:
    """Bottom degree of the single U-tower of the plus flavor."""
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

    def triple(self):
        return (self.d, self.d_bar, self.d_under)


def involutive_correction_terms(c: UComplex, iota: IotaMap) -> InvolutiveReport:
    """d, d_bar, d_under of c with iota, read from the two towers of their
    cone by definition (module docstring); the split case is a special
    case.  iota is validated first (by `cone_iota`), then d is read."""
    cone = cone_iota(c, iota)
    d = d_invariant(c)
    towers = cone.tower_bottoms()
    if len(towers) != 2:
        raise InternalError(f"cone has {len(towers)} stabilized towers, expected 2")
    main_parity = int(d) % 2
    du, db = Fraction(towers[main_parity]), Fraction(towers[1 - main_parity] + 1)
    if not (du <= d <= db):
        raise InternalError(f"ordering d_under <= d <= d_bar fails: {(du, d, db)}")
    return InvolutiveReport(d, db, du)


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
