"""Abstract simplicial complexes and their invariants.

Simplices are stored as sorted tuples of integer vertex labels.  Boundary
orientation follows ascending vertex order with alternating signs, so all
chain-level data is reproducible.  Provides the neighborhood operations
(closure, star, link), joins and suspensions, integral and mod-2
(co)homology, the integral Bockstein on mod-2 cohomology, edge-path
fundamental-group presentations, and link-based manifold scans, which
certify links by the inductive definition of a combinatorial manifold
(F. H. Lutz, arXiv:math/0506372): every vertex link of a PL sphere is one.

Homology takes one path for Z and F2: the augmented chain complex is first
shrunk by the reductions that cause no fill-in (`_coreduce`), and only the
boundaries restricted to the cells it keeps are eliminated, by a Smith
normal form or a GF(2) rank.  A mod-2 cochain is one packed int (bit j:
its value on the j-th simplex).  Each coboundary delta_d, whose columns
are the packed odd rows of the boundary d_{d+1}, is reduced once per
complex (`ChainComplexZ._coboundary`); the cocycles of
`cohomology_basis` and every `is_zero_class` are read from that
reduction, and `bockstein_sq1` adds the boundary rows at a cochain's set
bits.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations
from operator import xor

from . import f2linalg as la
from .errors import InputError, InternalError, as_int, echo
from .toddcoxeter import COSET_LIMIT, check_coset_limit, coset_enumeration

Simplex = tuple[int, ...]

# The largest input `from_facets` reads: the 18-vertex simplex, 2^18 - 1
# cells, takes 4 s and 362 MB in `homology`, while the 20-vertex simplex
# took 1.46 GB, and under a 1.2 GB address-space limit it ran out of memory
MAX_FACET_VERTICES = 18
MAX_CELLS = 1 << 18


def _simplex(s) -> Simplex:
    t = tuple(sorted(int(v) for v in s))
    if len(set(t)) != len(t):
        raise InputError(f"simplex with repeated vertices: {echo(s)}")
    if not t:
        raise InputError("empty simplex")
    return t


def _proper_faces(s: Simplex):
    for k in range(1, len(s)):
        yield from combinations(s, k)


class AbstractComplex:
    """A finite abstract simplicial complex: vertex set plus a
    downward-closed set of nonempty simplices."""

    def __init__(self, vertices, simplices, _validated=False):
        if _validated:
            self.vertices: tuple[int, ...] = vertices
            self.simplices: frozenset[Simplex] = simplices
            return
        verts = [int(v) for v in vertices]
        if len(set(verts)) != len(verts):
            raise InputError("duplicate vertices")
        vset = set(verts)
        simps = set()
        for s in simplices:
            t = _simplex(s)
            if not set(t) <= vset:
                raise InputError(f"simplex {echo(t)} references unknown vertex")
            simps.add(t)
        for s in list(simps):
            for f in _proper_faces(s):
                if f not in simps:
                    raise InputError(f"not downward closed: missing face {echo(f)} of {echo(s)}")
        for v in vset:
            if (v,) not in simps:
                raise InputError(f"vertex {echo(v)} has no singleton simplex")
        self.vertices = tuple(sorted(vset))
        self.simplices = frozenset(simps)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_facets(cls, facets, vertices=None) -> "AbstractComplex":
        """Build the downward closure of a set of maximal faces.

        Extra isolated vertices may be supplied via `vertices`; each is
        read as a facet of one vertex, before the facets.  A facet of more
        than MAX_FACET_VERTICES vertices is refused before its faces are
        listed, and a closure of more than MAX_CELLS cells as soon as it
        grows past them (InputError).
        """
        simps = set()
        verts = set()
        for f in chain(([v] for v in vertices or ()), facets):
            t = _simplex([as_int(v, "simplicial", "vertex") for v in f])
            if len(t) > MAX_FACET_VERTICES:
                raise InputError(f"facet has {len(t)} vertices, more than {MAX_FACET_VERTICES}")
            verts.update(t)
            for k in range(1, len(t) + 1):
                simps.update(combinations(t, k))
            if len(simps) > MAX_CELLS:
                raise InputError(f"closure has more than {MAX_CELLS} cells")
        # downward closed by construction, every vertex a singleton
        return cls(tuple(sorted(verts)), frozenset(simps), _validated=True)

    @classmethod
    def empty(cls) -> "AbstractComplex":
        return cls((), frozenset(), _validated=True)

    # -- basics --------------------------------------------------------

    def __contains__(self, s) -> bool:
        return _simplex(s) in self.simplices

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbstractComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return f"AbstractComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices)"

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def simplices_of_dim(self, d: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == d + 1)

    def facets(self) -> list[Simplex]:
        """Maximal simplices: those that are no codimension-1 face of another."""
        covered = {f for s in self.simplices for f in combinations(s, len(s) - 1)}
        return sorted(self.simplices - covered)

    def is_pure(self) -> bool:
        d = self.dimension()
        return all(len(f) - 1 == d for f in self.facets())

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def f_vector(self) -> list[int]:
        return [len(self.simplices_of_dim(d)) for d in range(self.dimension() + 1)]

    def is_connected(self) -> bool:
        vs = self.vertices
        return not vs or len(self._search(vs[0], self.simplices_of_dim(1))) == len(vs)

    def _search(self, root: int, edges: list[Simplex]) -> dict[int, int]:
        """Breadth-first search of the 1-skeleton, whose edges are `edges`
        (`simplices_of_dim(1)`), from `root`, neighbours in increasing
        order: the parent of each vertex reached (root's is root).  The
        edges come sorted, so each neighbour list is built increasing."""
        adj = {v: [] for v in self.vertices}
        for (u, v) in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = {root: root}
        order = [root]
        for u in order:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        return parent

    def to_json(self) -> dict:
        return {
            "kind": "simplicial",
            "vertices": list(self.vertices),
            "facets": [list(f) for f in self.facets()],
        }

    # -- neighborhood operations ----------------------------------------

    def closure(self, subset) -> frozenset[Simplex]:
        """Smallest downward-closed set of simplices containing `subset`."""
        simps = [_simplex(s) for s in subset]
        for s in simps:
            if s not in self.simplices:
                raise InputError(f"simplex {echo(s)} not in complex")
        out = set()
        for s in simps:
            out.add(s)
            out.update(_proper_faces(s))
        return frozenset(out)

    def star(self, tau) -> frozenset[Simplex]:
        """All cofaces of tau, tau included."""
        t = _simplex(tau)
        if t not in self.simplices:
            raise InputError(f"simplex {echo(t)} not in complex")
        tset = set(t)
        return frozenset(s for s in self.simplices if tset <= set(s))

    def _stars(self) -> dict[int, list[Simplex]]:
        """vertex -> the simplices containing it; built on the first call
        and kept on self (an AbstractComplex is immutable)."""
        stars = getattr(self, "_star_index", None)
        if stars is None:
            stars = self._star_index = {}
            for s in self.simplices:
                for v in s:
                    stars.setdefault(v, []).append(s)
        return stars

    def link(self, tau) -> "AbstractComplex":
        """Simplices of the closed star disjoint from tau, as a complex:
        the set {rho \\ tau : rho strictly contains tau}, which is downward
        closed because K is.  Every such rho contains each vertex of tau,
        so only the smallest star of those vertices is searched."""
        t = _simplex(tau)
        if t not in self.simplices:
            raise InputError(f"simplex {echo(t)} not in complex")
        tset = set(t)
        stars = self._stars()
        simps = frozenset(
            tuple(v for v in s if v not in tset)
            for s in min((stars[v] for v in t), key=len)
            if len(s) > len(t) and tset.issubset(s)
        )
        verts = tuple(sorted(s[0] for s in simps if len(s) == 1))
        return AbstractComplex(verts, simps, _validated=True)


# ---------------------------------------------------------------------------
# joins, cones, suspensions


def join(k1: AbstractComplex, k2: AbstractComplex) -> AbstractComplex:
    """Simplicial join; the second factor's vertices are relabeled above
    the first factor's range."""
    offset = (max(k1.vertices) + 1 if k1.vertices else 0) - (
        min(k2.vertices) if k2.vertices else 0
    )
    relabel = {v: v + offset for v in k2.vertices}
    simps = set(k1.simplices)
    simps2 = {tuple(sorted(relabel[v] for v in s)) for s in k2.simplices}
    simps |= simps2
    for s1 in k1.simplices:
        for s2 in simps2:
            simps.add(tuple(sorted(s1 + s2)))
    verts = list(k1.vertices) + [relabel[v] for v in k2.vertices]
    return AbstractComplex(sorted(verts), simps)


def cone(k: AbstractComplex) -> AbstractComplex:
    point = AbstractComplex.from_facets([[0]])
    return join(k, point)


def suspension(k: AbstractComplex) -> AbstractComplex:
    """Join with two new points; shifts reduced homology up by one."""
    two_points = AbstractComplex.from_facets([[0], [1]])
    return join(k, two_points)


# ---------------------------------------------------------------------------
# chain complexes and homology


@dataclass
class ChainComplexZ:
    """Integral simplicial chain complex with ascending-vertex orientation.

    boundaries[d] maps d-chains to (d-1)-chains, stored once as sparse rows
    (an IntMatrix: row i maps the index of each d-simplex with the (d-1)-
    simplex i as a face to its sign); boundaries[0] is the augmentation
    (all-ones row), so homology reduces the augmented complex and reduced
    homology is a flag, not a different complex.  The face rule (drop
    vertex i, sign (-1)^i) makes d_{d-1} d_d = 0; the tests check it.
    """

    generators: list[list[Simplex]]
    boundaries: list[la.IntMatrix]  # boundaries[d]: dim C_{d-1} x dim C_d
    _coboundaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, k: AbstractComplex) -> "ChainComplexZ":
        """The chain complex of k, built on the first call and kept on k
        (an AbstractComplex is immutable) for every later one.  Callers
        must not modify it."""
        cc = getattr(k, "_chains", None)
        if cc is None:
            cc = k._chains = cls._build(k)
        return cc

    @classmethod
    def _build(cls, k: AbstractComplex) -> "ChainComplexZ":
        # one pass buckets the simplices by dimension, then each bucket is
        # sorted: the order of simplices_of_dim
        dim = k.dimension()
        gens: list[list[Simplex]] = [[] for _ in range(dim + 1)]
        for s in k.simplices:
            gens[len(s) - 1].append(s)
        for g in gens:
            g.sort()
        index = [{s: i for i, s in enumerate(g)} for g in gens]
        # boundaries[0], the augmentation, then each boundary from the face index
        bnds = [la.IntMatrix([dict.fromkeys(range(len(g)), 1)], (1, len(g))) for g in gens[:1]]
        for d in range(1, dim + 1):
            rows: list[dict[int, int]] = [{} for _ in gens[d - 1]]
            faces = index[d - 1]
            for j, s in enumerate(gens[d]):
                for i in range(d + 1):
                    rows[faces[s[:i] + s[i + 1:]]][j] = -1 if i & 1 else 1
            bnds.append(la.IntMatrix(rows, (len(rows), len(gens[d]))))
        return cls(gens, bnds)

    def boundary(self, d: int) -> la.IntMatrix:
        """The map C_d -> C_{d-1} (zero matrix outside range; d=0 gives a
        zero map, the augmentation is handled separately)."""
        if 1 <= d < len(self.boundaries):
            return self.boundaries[d]
        rows = len(self.generators[d - 1]) if 0 <= d - 1 < len(self.generators) else 0
        cols = len(self.generators[d]) if 0 <= d < len(self.generators) else 0
        return la.IntMatrix([{}] * rows, (rows, cols))  # one shared row, read only

    def _coboundary(self, d: int):
        """The column reduction (red, ops, owner) of delta_d: C^d -> C^{d+1}
        over GF(2), whose column i is row i of d_{d+1} mod 2, packed (bit
        j: the j-th (d+1)-simplex).  Computed on the first call for d and
        kept, since the boundaries are fixed; callers must not modify it."""
        out = self._coboundaries.get(d)
        if out is None:
            out = self._coboundaries[d] = la.reduce_columns(_odd_bits(self.boundary(d + 1).rows))
        return out


@dataclass
class HomologyGroup:
    free_rank: int
    torsion: list[int] = field(default_factory=list)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _coreduce(cc: ChainComplexZ) -> list[list[int]]:
    """The cells of the augmented complex that the reductions without
    fill-in leave, per degree: kept[d + 1] lists the indices of the kept
    d-simplices, kept[0] the empty simplex (index 0) if it stays.

    A pair (a, b), a a face of b, goes when b has a as its only face left
    (a coreduction) or a has b as its only coface left (a collapse).  Its
    coefficient is +-1, a unit over Z and over F2, so dividing out the
    acyclic span of b and its boundary keeps the homology; every other
    boundary dc becomes dc - <dc, a> <db, a> db with a and b dropped, and
    the correction vanishes there: db is +-a in a coreduction, and
    <dc, a> = 0 in a collapse.  So what remains is the restriction of the
    boundaries to the kept cells (Kaczynski-Mrozek-Slusarek, "Homology
    computation by reduction of chain complexes", 1998; Mrozek-Batko,
    "Coreduction homology algorithm", DCG 41, 2009).  Cells are numbered
    degree by degree, the empty simplex first; the queue starts from every
    cell with one face (the vertices, which pair with the empty simplex)
    or one coface in that order, and takes each cell whose count falls to
    one."""
    start = [0, 1]
    for g in cc.generators:
        start.append(start[-1] + len(g))
    n = start[-1]
    up: list[list[int]] = []  # cofaces of each cell
    down: list[list[int]] = [[] for _ in range(n)]  # faces of each cell
    for b, lo, hi in zip(cc.boundaries, start, start[1:]):
        for x, row in enumerate(b.rows, lo):
            up.append([hi + j for j in row])
            for c in up[-1]:
                down[c].append(x)
    up += [[]] * (n - len(up))  # the top simplices
    nfaces = list(map(len, down))
    ncofaces = list(map(len, up))
    alive = [True] * n
    queue = deque(x for x in range(n) if nfaces[x] == 1 or ncofaces[x] == 1)
    pop, push = queue.popleft, queue.append
    while queue:
        x = pop()
        if not alive[x]:
            continue
        if nfaces[x] == 1:  # a coreduction with x's one face
            for y in down[x]:
                if alive[y]:
                    break
        elif ncofaces[x] == 1:  # a collapse with x's one coface
            for y in up[x]:
                if alive[y]:
                    break
        else:
            continue
        alive[x] = alive[y] = False
        for z in (x, y):
            for f in down[z]:
                if alive[f]:
                    ncofaces[f] -= 1
                    if ncofaces[f] == 1:
                        push(f)
            for c in up[z]:
                if alive[c]:
                    nfaces[c] -= 1
                    if nfaces[c] == 1:
                        push(c)
    return [[x - lo for x in range(lo, hi) if alive[x]] for lo, hi in zip(start, start[1:])]


def homology(k: AbstractComplex, ring: str = "Z", reduced: bool = False):
    """Simplicial homology.

    ring "Z": list of HomologyGroup per dimension.
    ring "F2": list of GF(2) dimensions per dimension.
    Both rings first shrink the augmented complex (`_coreduce`) and then
    take a Smith normal form (Z) of what is left of each boundary, or a
    GF(2) rank (F2) of its odd entries, packed into ints straight from the
    sparse rows; that gives reduced homology, and H_0 gains a Z unless
    `reduced`.
    """
    if ring not in ("Z", "F2"):
        raise InputError(f"unsupported coefficient ring {ring!r}")
    cc = ChainComplexZ.of(k)
    dim = len(cc.generators) - 1
    if dim < 0:
        return []
    kept = _coreduce(cc)
    # rank of the kept part of each boundary (torsion too over Z), the
    # augmentation boundaries[0] included: H_d = ker d_d / im d_{d+1}
    ranks = [0] * (dim + 2)
    torsion: list[list[int]] = [[] for _ in range(dim + 2)]
    for d, b in enumerate(cc.boundaries):
        col = {j: t for t, j in enumerate(kept[d + 1])}
        if ring == "F2":
            # the odd entries of each kept row, packed (bit t: kept column t)
            packed = [sum(1 << col[j] for j, x in b.rows[i].items() if x & 1 and j in col)
                      for i in kept[d]]
            ranks[d] = len(la.reduce_columns(packed)[2])
            continue
        rows = [{col[j]: x for j, x in b.rows[i].items() if j in col} for i in kept[d]]
        if any(rows):
            diag = la.smith_normal_form(la.IntMatrix(rows, (len(rows), len(col))))
            ranks[d] = sum(1 for x in diag if x != 0)
            torsion[d] = sorted(x for x in diag if x > 1)
    out = []
    for d in range(dim + 1):
        free = len(kept[d + 1]) - ranks[d] - ranks[d + 1] + (d == 0 and not reduced)
        out.append(free if ring == "F2" else HomologyGroup(free, torsion[d + 1]))
    return out


def is_homology_sphere(k: AbstractComplex, dim: int) -> bool:
    """Does k have the integral homology of S^dim?  (dim >= 0; S^0 allowed.)"""
    if k.dimension() != dim:
        return False
    h = homology(k, "Z", reduced=True)
    for d, g in enumerate(h):
        want = 1 if d == dim else 0
        if g.free_rank != want or g.torsion:
            return False
    return True


# ---------------------------------------------------------------------------
# mod-2 cochains, cocycles, Bockstein


def _odd_bits(rows) -> list[int]:
    """Sparse integer rows mod 2, packed: bit j of out[i] is rows[i][j] mod
    2.  The rows of d_{d+1} so packed are the columns of delta_d."""
    return [sum(1 << j for j, x in row.items() if x & 1) for row in rows]


def _set_bits(x: int) -> list[int]:
    """The indices of the set bits of x >= 0, increasing."""
    return [m.start() for m in re.finditer("1", bin(x)[:1:-1])]


@dataclass
class CohomologyClass:
    """A GF(2) cocycle representative on the d-simplices of a complex: bit
    j of `cochain` is its value on the j-th d-simplex (in the order of
    `simplices_of_dim(d)`)."""

    complex: AbstractComplex
    dim: int
    cochain: int

    def __post_init__(self):
        if self.dim < 0:
            raise InputError(f"cohomology degree must be non-negative, got {self.dim}")
        cc = ChainComplexZ.of(self.complex)
        n = len(cc.generators[self.dim]) if self.dim < len(cc.generators) else 0
        if not isinstance(self.cochain, int) or self.cochain < 0 or self.cochain >> n:
            raise InputError(
                f"cochain must be an int with bits only at the {n} {self.dim}-simplices"
            )
        rows = cc.boundary(self.dim + 1).rows
        if reduce(xor, _odd_bits(rows[i] for i in _set_bits(self.cochain)), 0):
            raise InputError("cochain is not a cocycle over GF(2)")

    @classmethod
    def _built(cls, k: AbstractComplex, dim: int, cochain: int) -> "CohomologyClass":
        """A class the package built: its checks hold by construction (the
        tests check them), so `__post_init__` is skipped."""
        x = object.__new__(cls)
        x.complex, x.dim, x.cochain = k, dim, cochain
        return x

    def is_zero_class(self) -> bool:
        """Is this cocycle a coboundary?  It is reduced against the kept
        reduction of delta_{dim-1}."""
        red, _, owner = ChainComplexZ.of(self.complex)._coboundary(self.dim - 1)
        return not la._reduce_after(red, owner, [self.cochain])[0]


def bockstein_sq1(x: CohomologyClass) -> CohomologyClass:
    """Connecting map of 0 -> Z/2 -> Z/4 -> Z/2 -> 0 on mod-2 cohomology.

    Lift the cocycle to integer coefficients (entries 0/1), take the
    integral coboundary, halve, reduce mod 2.  The class of the result is
    independent of the lift and of the representative.
    """
    rows = ChainComplexZ.of(x.complex).boundary(x.dim + 1).rows  # C_{d+1} -> C_d over Z
    # the integral coboundary of the 0/1 lift, by (d+1)-simplex: the sum of
    # the boundary rows of the d-simplices where x is 1
    vals: dict[int, int] = {}
    for i in _set_bits(x.cochain):
        for j, y in rows[i].items():
            vals[j] = vals.get(j, 0) + y
    if any(val & 1 for val in vals.values()):
        raise InternalError("integral coboundary of a mod-2 cocycle is odd")
    # bit 1 of an even val is (val // 2) % 2; delta(delta x / 2) = 0 over Z
    image = sum(1 << j for j, val in vals.items() if val & 2)
    return CohomologyClass._built(x.complex, x.dim + 1, image)


def cohomology_basis(k: AbstractComplex, d: int) -> list[CohomologyClass]:
    """Representative cocycles spanning H^d(k; F2)."""
    if d < 0:
        raise InputError(f"cohomology degree must be non-negative, got {d}")
    cc = ChainComplexZ.of(k)
    red, ops, _ = cc._coboundary(d)
    cocycles = [op for col, op in zip(red, ops) if not col]  # the kernel of delta_d
    # keep each cocycle outside the span of the coboundaries and the
    # cocycles before it: the pivot columns of [delta_{d-1} | cocycles]
    below, _, owner = cc._coboundary(d - 1)
    kept = la._reduce_after(below, owner, cocycles)
    return [CohomologyClass._built(k, d, z) for z, col in zip(cocycles, kept) if col]


# ---------------------------------------------------------------------------
# fundamental group via edge paths


@dataclass
class GroupPresentation:
    """Finitely presented group; relators are words in signed generator
    indices (1-based: +i is generator i-1, -i its inverse)."""

    ngens: int
    relators: list[list[int]]

    def __post_init__(self):
        for w in self.relators:
            for letter in w:
                if letter == 0 or abs(letter) > self.ngens:
                    raise InputError(f"relator letter {letter} out of range")

    def abelianization(self) -> HomologyGroup:
        """Structure of the abelianized group, via SNF of the relator
        exponent matrix."""
        mat = [[0] * self.ngens for _ in self.relators]
        for i, w in enumerate(self.relators):
            for letter in w:
                mat[i][abs(letter) - 1] += 1 if letter > 0 else -1
        if not mat:
            return HomologyGroup(self.ngens)
        diag = la.smith_normal_form(mat)
        rank = sum(1 for x in diag if x != 0)
        torsion = sorted(x for x in diag if x > 1)
        return HomologyGroup(self.ngens - rank, torsion)


def fundamental_group(k: AbstractComplex, basepoint=None) -> GroupPresentation:
    """Edge-path presentation from the 2-skeleton and a BFS spanning tree.

    Generators are the non-tree edges; each 2-simplex contributes one
    relator (tree edges are dropped from the words).
    """
    if not k.vertices:
        raise InputError("fundamental group of the empty complex")
    edges = k.simplices_of_dim(1)
    parent = k._search(k.vertices[0], edges)
    if len(parent) != len(k.vertices):
        raise InputError("complex is not connected")
    base = k.vertices[0] if basepoint is None else int(basepoint)
    if (base,) not in k.simplices:
        raise InputError(f"basepoint {echo(base)} not a vertex")
    if base != k.vertices[0]:
        parent = k._search(base, edges)

    gen_index = {}
    for (u, v) in edges:
        if parent[u] != v and parent[v] != u:  # not a tree edge
            gen_index[u, v] = len(gen_index) + 1  # 1-based

    # the edges (a, b), (b, c), (a, c) of a sorted triangle are sorted: a
    # generator read along the triangle's boundary keeps its sign on the
    # first two and flips it on the third (0 for tree edges)
    relators = []
    for (a, b, c) in k.simplices_of_dim(2):
        word = [gen_index.get((a, b), 0), gen_index.get((b, c), 0), -gen_index.get((a, c), 0)]
        word = [x for x in word if x != 0]
        if word:
            relators.append(word)
    return GroupPresentation(len(gen_index), relators)


# ---------------------------------------------------------------------------
# link-based manifold scan


@dataclass
class LinkReport:
    simplex: Simplex
    link_dim: int
    homology_sphere: bool
    certified_sphere: bool | None  # exact answer where decidable, else None
    pi1_order: int | str | None = None  # int, "exceeded", or None if not asked


def link_manifold_scan(
    k: AbstractComplex, certify_pi1: bool = False, coset_limit: int = COSET_LIMIT
) -> list[LinkReport]:
    """Check every link of codimension >= 1 against the sphere it should be.

    The scan runs from the largest simplex down, so each lk(s + v), the
    link of a vertex v of lk(s) since k is pure, is answered before lk(s).
    lk(s) is S^0 when it has two vertices, and S^1 or S^2 when it is
    connected, has Euler characteristic 0 or 2 and every lk(s + v) is a
    sphere: the inductive definition of a combinatorial manifold (F. H.
    Lutz, "Triangulated manifolds with few vertices: combinatorial
    manifolds", arXiv:math/0506372).  Only links this rule does not
    certify get the integral homology test (an SNF of what `_coreduce`
    leaves of each boundary), since a sphere has the homology of one.
    Dimension-3 links get no sphere recognition; pi1 of a homology
    3-sphere link is optionally certified by coset enumeration, whose
    limit is checked up front.  Reports come in (size, simplex) order.
    """
    check_coset_limit(coset_limit)
    n = k.dimension()
    if not k.is_pure():
        raise InputError("link scan requires a pure complex")
    if n > 4:
        raise InputError("link scan supports dimension <= 4")
    cert: dict[Simplex, bool | None] = {}
    reports = []
    for s in sorted(k.simplices, key=lambda s: (len(s), s), reverse=True):
        ld = n - len(s)  # the dimension of lk s, since k is pure
        if ld < 0:
            continue
        lk = k.link(s)
        if ld == 0:
            cert[s] = len(lk.vertices) == 2
        elif ld <= 2:
            cert[s] = (all(cert[tuple(sorted(s + (v,)))] for v in lk.vertices)
                       and lk.euler_characteristic() == 2 * (ld - 1) and lk.is_connected())
        else:
            cert[s] = None
        hs = cert[s] is True or is_homology_sphere(lk, ld)
        pi1: int | str | None = None
        if certify_pi1 and ld == 3 and hs:  # H~_0 = 0: lk is connected
            pi1 = coset_enumeration(fundamental_group(lk), coset_limit)
        reports.append(LinkReport(s, ld, hs, cert[s], pi1))
    return reports[::-1]
