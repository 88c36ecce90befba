"""Involutive mapping-cone algebra over F[U] and correction terms.

Inputs are finitely generated free graded complexes over F[U] together
with a grading-preserving chain involution iota, exact up to chain
homotopy: one `UComplex` holds both.  It reads iota after d, and checks
iota's two laws (`validate_iota`) as soon as iota is read, as it checks
d^2 = 0: a complex that carries iota satisfies them.  Every
F[U]-map is stored by the F2 coefficients of its entries, since one rule
forces its U-powers: an entry j -> i of a degree-s map carries U^k with
deg i - 2k = deg j + s (k >= 0).  `_forced_power` is the only place that
rule is written; the differential and iota share one entry reader and
one entry printer.  A complex keeps its generators in falling degree,
ties in input order (below), and bit r of every packed vector is its
generator r.  The reader writes the coefficients straight into packed
columns, bit i of column j for an entry j -> i, so that duplicate
entries cancel by XOR.  These columns are the one form of each map, so
every entry of iota has its forced U-power before `validate_iota` sees
it.  Every product of two maps is taken on these
columns by `f2linalg._apply`: column t of A B is A applied to B's column
t.  So the chain-map check, iota^2 + 1, 1 + iota, the homotopy solve and
its certificate are XORs of packed columns, and `to_json` reads its
entries from them.

Towers are read from one column reduction of d (`UComplex._reduce`).
Let m be d's coefficient matrix, its rows and columns in the stored
order, which falls in degree: the reader's packed columns are m's,
d^2 = 0 is checked as XORs of them, and they are reduced as they are.
A change of basis x_b -> x_b + U^k x_a (k >= 0) adds a generator into
one of lower or equal degree and the same parity, so it keeps the rank
of every block of m whose rows have degree at most e and whose columns
have degree at least e'.  By the pairing lemma of persistence
(Cohen-Steiner, Edelsbrunner and Morozov, "Vines and vineyards by
updating persistence in linear time", SoCG 2006) these ranks fix the
degrees of the pairs that any elimination by such changes splits off.
The entry with the smallest U-power in a column is its lowest-degree
row, so elimination on that entry is the column reduction of m.  Its
paired generators are N, the columns j with a nonzero reduced boundary
R_j, and L, the lowest rows low(j) of those R_j.  L and N are disjoint
because d^2 = 0: if x_i is the lowest term of R_j, then dR_j = 0 puts
d x_i in the span of d of earlier generators.  The generators in
neither set are unpaired; their degrees are the bottoms of the U-towers
of the plus flavor.  The correction term d
is the bottom of the single tower.  The reduction is
`f2linalg.reduce_columns`, the one GF(2) elimination of the package; a
complex fixes d when it is built, so it reduces d once and keeps the
result for the tower read and the normal form.

The same reduction puts d in normal form (`UComplex.normal_form`).  Keep
the column operations V, so that column j of dV is the reduced boundary
R_j.  Element j of the new basis is V_j, except that element low(j) of
a nonzero R_j is R_j, read as x_low(j) plus terms of higher degree (the
U-power of its lowest term divided out).  In the falling-degree order the
matrix P^-1 of this basis is unitriangular and each entry adds a
generator into one of lower or equal degree, so P is a degree-preserving
F[U] change of basis, read from P^-1 by back-substitution on its packed
columns, and N = P d P^-1 has one 1 at (low(j), j) for each pair and no
other entry: d is a sum of blocks, one per pair and one per unpaired
generator.  P, P^-1, the pairs and the blocks all index the stored
generators.  A homotopy dH + Hd = R becomes N H' + H' N = R' with
H' = P H P^-1 and R' = P R P^-1.  N has no entry between blocks, so the
part of N H' + H' N from block B to block A involves H'[A, B] alone: the
equation splits into one system of at most 4 unknowns and 4 equations
per pair of blocks, and the pairs with R'[A, B] = 0 take H'[A, B] = 0;
R = 0 itself takes H = 0 with no product at all.  Each system is built
as packed columns, with its right-hand side packed from the nonzeros of
R', and goes to `f2linalg._solve_packed`.
H -> P H P^-1 is a bijection of degree +1 F[U]-maps, so a block with
no solution means that no H exists: None is exact.  Every H = P^-1 H' P
returned is checked against dH + Hd = R.

The cone of Q(1+iota) carries a Q of degree -1 with Q^2 = 0; its x keep
their degrees and its Qx sit one lower.  Its differential is
[[d, 0], [1+iota, d]], built from parts already checked, so it needs no
check of its own.  Its support: the two d blocks keep d's degree -1
support, and 1 + iota has an entry x -> Qy of degree -1 exactly where
iota's x -> y has degree 0.  Its square mod 2 is
[[d^2, 0], [iota d + d iota, d^2]]: d^2 = 0 and iota d = d iota are
both checked when C is built, the second by `validate_iota`.  Hendricks
and Manolescu ("Involutive Heegaard Floer homology", section 5) define
the involutive complex as this cone with every degree raised by 1, and
read d_under + 1 as the bottom of its tower not in the image of Q, and
d_bar as the bottom of its tower in the image of Q.  Once U is inverted, 1 + iota acts as 0
(iota is the identity on the one tower of C), so the cone has one tower
in d's parity, carried by the x, and one in the other parity, carried by
the Qx.  Undoing the shift: d_under = b_main, the cone's tower bottom in
d's parity, and d_bar = b_q + 1, with b_q its bottom in the other parity.
The split case, 1 + iota = dH + Hd, is a special case, not a second path:
the change of basis x -> x + QHx makes the cone C + C[-1], with towers at
d and d - 1, so d_bar = d_under = d.  Two cone towers and the ordering
d_under <= d <= d_bar are checked (InternalError); by the parity key
d_under, d and d_bar agree mod 2, a law the tests check.

The cone's generators interleave C's: for C's generator t, say x, m:x
is the cone's generator 2t and q:x its generator 2t + 1.  With `_spread`
moving bit r to bit 2r, column 2t is spread(d_t) | spread((1 + iota)_t)
<< 1 and column 2t + 1 is spread(d_t) << 1.  This order does not fall
in degree, but the reduction needs that only within a parity.  An entry of degree -1 joins opposite
parities, so two columns with the same lowest row have the same parity,
and `reduce_columns` only ever adds a column to another of its own
parity.  Within one parity the order falls: two m's or two q's keep C's
order; m:t before q:u needs D_t >= D_u - 1, true since t comes first;
q:u before m:t (u earlier in C, so D_u >= D_t) needs
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
from fractions import Fraction

from . import f2linalg as la
from .errors import InputError, InternalError, ModelInvalidError, as_int, echo
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
    """Packed columns of the degree-`shift` map with (from, to, upower)
    `entries` on c's generators: bit index[to] of column index[from].
    `what` names the map in errors.  Each entry is checked, in input
    order, then XORed in, so duplicate entries cancel."""
    cols = [0] * len(c.generators)
    degs = c.degrees()
    for ent in entries:
        src, tgt, upower = ent
        if src not in c.index or tgt not in c.index:
            raise InputError(f"{what} entry {echo(ent)} references unknown generator")
        i, j = c.index[tgt], c.index[src]
        k = _forced_power(degs[j], degs[i], shift)
        if k is None:
            raise InputError(f"no degree {shift} entry possible from {echo(src)} to {echo(tgt)}")
        if (power := as_int(upower, "u_complex", "upower")) != k:
            raise InputError(f"{what} entry {echo(src)}->{echo(tgt)} must have upower {k}, "
                             f"got {echo(power)}")
        cols[j] ^= 1 << i
    return cols


def _triples(entries):
    """The (from, to, upower) of each raw entry dict, taken only as they
    are iterated."""
    for e in entries:
        yield e["from"], e["to"], e["upower"]


def _bits(x: int):
    """The set bits r of the packed vector x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# _SPREAD[b]: the byte b with bit r moved to bit 2r, as two little-endian bytes
_SPREAD = [int("0".join(format(b, "b")), 2).to_bytes(2, "little") for b in range(256)]


def _spread(x: int) -> int:
    """x with bit r moved to bit 2r, one byte at a time through _SPREAD:
    the m:x places of the cone's interleaved order (module docstring)."""
    if not x:
        return 0
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return int.from_bytes(b"".join(map(_SPREAD.__getitem__, data)), "little")


def _entry_list(c: "UComplex", cols: list[int], shift: int) -> list[dict]:
    """The nonzeros of the degree-`shift` map on c with packed columns
    `cols`, as entries: column by column, rows within a column, both in
    c's generator order."""
    gens = c.generators
    return [
        {"from": gens[j][0], "to": gens[i][0],
         "upower": _forced_power(gens[j][1], gens[i][1], shift)}
        for j, col in enumerate(cols) for i in _bits(col)
    ]


class UComplex:
    """Free graded complex over F[U] with an optional involution iota;
    entries carry the degree-forced U-power.  `generators` falls in
    degree, ties in input order, and the differential and iota are kept
    as packed columns on it: bit r of a column is generator r.  `_iota`
    is None when the complex has no iota."""

    def __init__(self, generators, differential, iota=None):
        """Generators (label, degree) and the (from, to, upower) entries of
        the differential and of iota (None: no iota), each checked
        (InputError), iota's after d^2 = 0; then iota's laws are checked
        by `validate_iota`.  The generators are checked in input order,
        then stably sorted by falling degree."""
        gens = [(str(l), as_int(d, "u_complex", "degree")) for l, d in generators]
        if len({l for l, _ in gens}) != len(gens):
            raise InputError("duplicate generator labels")
        self._setup(sorted(gens, key=lambda g: -g[1]))
        self._cols = _read_entries(self, differential, -1, "differential")
        if any(la._apply(self._cols, col) for col in self._cols):
            raise InputError("differential does not square to zero")
        self._iota = None if iota is None else _read_entries(self, iota, 0, "iota")
        if self._iota is not None:
            validate_iota(self)

    @classmethod
    def _from_columns(cls, generators, cols: list[int]) -> "UComplex":
        """The complex on the checked (label, degree) `generators`, kept
        in their given order, whose differential has the packed columns
        `cols`, which the caller has checked: degree -1 support, d^2 = 0,
        and generators that fall in degree within each parity (module
        docstring).  It has no iota."""
        c = cls.__new__(cls)
        c._setup(generators)
        c._cols, c._iota = cols, None
        return c

    def _setup(self, generators):
        self.generators = generators
        self.index = {l: g for g, (l, _) in enumerate(generators)}
        self._reduction = self._normal = None

    def degrees(self) -> list[int]:
        return [d for _, d in self.generators]

    def entry_list(self) -> list[dict]:
        return _entry_list(self, self._cols, -1)

    def to_json(self) -> dict:
        data = {
            "kind": "u_complex",
            "generators": [{"label": l, "degree": d} for l, d in self.generators],
            "differential": self.entry_list(),
        }
        if self._iota is not None:
            data["iota"] = _entry_list(self, self._iota, 0)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "UComplex":
        """The complex of a raw input dict, with iota if it has an "iota"
        field.  A missing field raises KeyError; `cli.parse_input` is the
        checked door that makes it an InputError.  iota's entries are
        taken from the field only as the constructor reads them, after
        d^2 = 0 is checked."""
        gens = [(g["label"], g["degree"]) for g in data["generators"]]
        diff = list(_triples(data.get("differential", [])))
        return cls(gens, diff, _triples(data["iota"]) if "iota" in data else None)

    # -- towers ----------------------------------------------------------

    def _reduce(self):
        """The column reduction of d: (cols, ops, owner).  cols[t] is the
        reduced column R_t (bit r: generator r), ops[t] the column
        operations V_t (R_t = d V_t), and owner maps the lowest row of
        each nonzero R_t to t (module docstring).  Computed on the first
        call and kept, since d is fixed at construction."""
        if self._reduction is None:
            self._reduction = la.reduce_columns(self._cols)
        return self._reduction

    def tower_bottoms(self) -> dict[int, int]:
        """{parity: bottom} of the U-towers: the degrees of the generators
        that the column reduction leaves neither a low (L) nor a nonzero
        column (N), see the module docstring."""
        degs = self.degrees()
        cols, _, owner = self._reduce()
        towers = {}
        for parity in (0, 1):
            bottoms = [deg for t, deg in enumerate(degs)
                       if not cols[t] and t not in owner and deg % 2 == parity]
            if len(bottoms) > 1:
                raise ModelInvalidError("stabilized rank exceeds 1: multiple towers in one parity")
            if bottoms:
                towers[parity] = bottoms[0]
        return towers

    def normal_form(self):
        """(P, P^-1, pairs): a degree-preserving F[U] change of basis as
        packed columns, and the generator pairs (low, s) of N = P d P^-1,
        whose only nonzeros are the 1s at them (module docstring).  Built
        from the column reduction of d.  P^-1 is upper unitriangular: its
        column t is e_t plus earlier generators.  So P e_t = e_t + sum of
        P e_s over those generators s, and P comes column by column, in
        generator order, by back-substitution.  Computed on the first call
        and kept, as the reduction is."""
        if self._normal is None:
            cols, ops, owner = self._reduce()
            p_inv = ops[:]  # column t: V_t, or R_s = d V_s in column low(s)
            for low, s in owner.items():
                p_inv[low] = cols[s]
            p = []
            for t, col in enumerate(p_inv):
                p.append(1 << t ^ la._apply(p, col ^ 1 << t))
            self._normal = tuple(p), tuple(p_inv), tuple(owner.items())
        return self._normal

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


def _iota_of(c: UComplex) -> list[int]:
    """c's iota as packed columns, or InputError if c has none."""
    if c._iota is None:
        raise InputError("u_complex input needs an 'iota' field for this command")
    return c._iota


def _homotopy_solve(c: UComplex, rhs: list[int]):
    """Solve dH + Hd = rhs for a degree +1 F[U]-map H, both as packed
    columns on c's generators; returns H or None.  In the normal form
    N = P d P^-1 the equation N H' + H' N = P rhs P^-1 splits into one
    system of at most 4 unknowns per pair of blocks (module docstring).  A
    zero rhs is answered by H = 0 at once, since dH + Hd = 0 for it.  Any
    other H = P^-1 H' P is certified."""
    n = len(c.generators)
    h = [0] * n
    if not any(rhs):
        return h
    degs = c.degrees()
    p, p_inv, pairs = c.normal_form()
    target = {s: low for low, s in pairs}  # N x_s = x_low
    source = {low: s for low, s in pairs}
    blocks = [(t,) for t in range(n)]
    for low, s in pairs:
        blocks[low] = blocks[s] = (low, s)
    r = [la._apply(p, la._apply(rhs, col)) for col in p_inv]  # column t: P rhs P^-1 e_t
    for a, b in {(blocks[i], blocks[j]) for j, col in enumerate(r) for i in _bits(col)}:
        # (N H' + H' N)[a, b] involves H'[a, b] only: the unknown H'[x, y]
        # enters at (N x, y) and at (x, N^T y); the equations are the
        # cells, packed in this order
        cells = {e: row for row, e in enumerate((x, y) for x in a for y in b)}
        bits = sum(1 << row for (x, y), row in cells.items() if r[y] >> x & 1)
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
        for k, (x, y) in enumerate(unknowns):
            if sol[0] >> k & 1:
                h[y] ^= 1 << x
    h = [la._apply(p_inv, la._apply(h, col)) for col in p]  # column t: P^-1 H' P e_t
    d = c._cols
    if any(la._apply(d, h_t) ^ la._apply(h, d_t) ^ rhs_t for h_t, d_t, rhs_t in zip(h, d, rhs)):
        raise InternalError("homotopy solve returned H with dH + Hd != rhs")
    return h


def validate_iota(c: UComplex) -> bool:
    """c's iota is a chain map with iota^2 homotopic to the identity, or
    InputError.  `UComplex` calls it, by this module-level name, as soon
    as it has read iota's entries, each with its checked U-power; so every
    complex that carries an iota has passed it."""
    d, i = c._cols, _iota_of(c)
    if any(la._apply(i, d_t) ^ la._apply(d, i_t) for d_t, i_t in zip(d, i)):
        raise InputError("iota is not a chain map")
    sq = [la._apply(i, i_t) ^ 1 << t for t, i_t in enumerate(i)]
    if _homotopy_solve(c, sq) is None:
        raise InputError("iota^2 is not chain homotopic to the identity")
    return True


def one_plus_iota_nullhomotopic(c: UComplex) -> bool:
    return _homotopy_solve(c, [i_t ^ 1 << t for t, i_t in enumerate(_iota_of(c))]) is not None


def cone_iota(c: UComplex) -> UComplex:
    """The mapping cone of Q(1+iota) for c's iota: generators m:x and q:x
    (degree shifted by -1), interleaved in c's order, and differential
    [[d, 0], [1+iota, d]], built from packed columns (module docstring).
    Neither its support nor its square is checked again: mod 2 the square
    is [[d^2, 0], [iota d + d iota, d^2]], whose blocks `UComplex` found
    zero when it built c."""
    # m:x is generator 2t and q:x generator 2t + 1, for c's generator t:
    # d m:x = m:dx + q:(1 + iota)x and d q:x = q:dx
    gens, cols = [], []
    for t, ((l, deg), d_t, iota_t) in enumerate(zip(c.generators, c._cols, _iota_of(c))):
        gens += [(f"m:{l}", deg), (f"q:{l}", deg - 1)]
        m = _spread(d_t)
        cols += [m | _spread(iota_t ^ 1 << t) << 1, m << 1]
    return UComplex._from_columns(gens, cols)


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


def involutive_correction_terms(c: UComplex) -> InvolutiveReport:
    """d, d_bar, d_under of c with its iota, read from the two towers of
    their cone by definition (module docstring); the split case is a
    special case.  A c without iota is refused before d is read."""
    cone = cone_iota(c)
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
    p = as_int(p, "v0", "surgery coefficient p")
    if p <= 0:
        raise InputError("surgery coefficient p must be a positive integer")
    base = Fraction(p - 1, 8)
    return (
        base - report.d / 2,
        base - report.d_bar / 2,
        base - report.d_under / 2,
    )
