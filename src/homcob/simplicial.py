"""Abstract simplicial complexes and their invariants.

Simplices are stored as sorted tuples of integer vertex labels.  Boundary
orientation follows ascending vertex order with alternating signs, so all
chain-level data is reproducible.  Provides the neighborhood operations
(closure, star, link), joins and suspensions, integral and mod-2
(co)homology, the integral Bockstein on mod-2 cohomology, edge-path
fundamental-group presentations, and link-based manifold scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from . import f2linalg as la
from .errors import InputError, InternalError, as_int

Simplex = tuple[int, ...]


def _simplex(s) -> Simplex:
    t = tuple(sorted(int(v) for v in s))
    if len(set(t)) != len(t):
        raise InputError(f"simplex with repeated vertices: {s}")
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
                raise InputError(f"simplex {t} references unknown vertex")
            simps.add(t)
        for s in list(simps):
            for f in _proper_faces(s):
                if f not in simps:
                    raise InputError(f"not downward closed: missing face {f} of {s}")
        for v in vset:
            if (v,) not in simps:
                raise InputError(f"vertex {v} has no singleton simplex")
        self.vertices = tuple(sorted(vset))
        self.simplices = frozenset(simps)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_facets(cls, facets, vertices=None) -> "AbstractComplex":
        """Build the downward closure of a set of maximal faces.

        Extra isolated vertices may be supplied via `vertices`.
        """
        def vertex(v):
            return as_int(v, "simplicial", "vertex")

        simps = set()
        verts = set(map(vertex, vertices)) if vertices else set()
        for f in facets:
            t = _simplex([vertex(v) for v in f])
            verts.update(t)
            for k in range(1, len(t) + 1):
                simps.update(combinations(t, k))
        for v in verts:
            simps.add((v,))
        return cls(sorted(verts), simps)

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
        """Maximal simplices."""
        out = []
        for s in self.simplices:
            sset = set(s)
            if not any(len(t) > len(s) and sset < set(t) for t in self.simplices):
                out.append(s)
        return sorted(out)

    def is_pure(self) -> bool:
        d = self.dimension()
        return all(len(f) - 1 == d for f in self.facets())

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def f_vector(self) -> list[int]:
        return [len(self.simplices_of_dim(d)) for d in range(self.dimension() + 1)]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj = {v: set() for v in self.vertices}
        for s in self.simplices_of_dim(1):
            adj[s[0]].add(s[1])
            adj[s[1]].add(s[0])
        seen = {self.vertices[0]}
        todo = [self.vertices[0]]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

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
                raise InputError(f"simplex {s} not in complex")
        out = set()
        for s in simps:
            out.add(s)
            out.update(_proper_faces(s))
        return frozenset(out)

    def star(self, tau) -> frozenset[Simplex]:
        """All cofaces of tau, tau included."""
        t = _simplex(tau)
        if t not in self.simplices:
            raise InputError(f"simplex {t} not in complex")
        tset = set(t)
        return frozenset(s for s in self.simplices if tset <= set(s))

    def link(self, tau) -> "AbstractComplex":
        """Simplices of the closed star disjoint from tau, as a complex."""
        t = _simplex(tau)
        tset = set(t)
        cl = self.closure(self.star(t))
        simps = {s for s in cl if not (tset & set(s))}
        verts = sorted({v for s in simps for v in s})
        return AbstractComplex(verts, simps)


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

    boundaries[d] maps d-chains to (d-1)-chains; boundaries[0] is the
    augmentation (all-ones row) so reduced homology is a flag, not a
    different complex.
    """

    generators: list[list[Simplex]]
    boundaries: list[list[list[int]]]  # boundaries[d]: dim C_{d-1} x dim C_d

    @classmethod
    def of(cls, k: AbstractComplex) -> "ChainComplexZ":
        dim = k.dimension()
        gens = [k.simplices_of_dim(d) for d in range(dim + 1)]
        index = [{s: i for i, s in enumerate(g)} for g in gens]
        bnds = []
        for d in range(dim + 1):
            rows = len(gens[d - 1]) if d > 0 else 1
            mat = [[0] * len(gens[d]) for _ in range(rows)]
            for j, s in enumerate(gens[d]):
                if d == 0:
                    mat[0][j] = 1  # augmentation
                    continue
                for i, v in enumerate(s):
                    face = s[:i] + s[i + 1 :]
                    mat[index[d - 1][face]][j] = (-1) ** i
            bnds.append(mat)
        cc = cls(gens, bnds)
        cc._check()
        return cc

    def _check(self):
        for d in range(1, len(self.boundaries)):
            prod = la.int_mul(self.boundaries[d - 1], self.boundaries[d])
            if d >= 2 and any(any(x != 0 for x in row) for row in prod):
                raise InternalError(f"boundary composition nonzero in degree {d}")

    def boundary(self, d: int) -> list[list[int]]:
        """The map C_d -> C_{d-1} (zero matrix outside range; d=0 gives a
        zero map, the augmentation is handled separately)."""
        if 1 <= d < len(self.boundaries):
            return self.boundaries[d]
        rows = len(self.generators[d - 1]) if 0 <= d - 1 < len(self.generators) else 0
        cols = len(self.generators[d]) if 0 <= d < len(self.generators) else 0
        return [[0] * cols for _ in range(rows)]


@dataclass
class HomologyGroup:
    free_rank: int
    torsion: list[int] = field(default_factory=list)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion


def homology(k: AbstractComplex, ring: str = "Z", reduced: bool = False):
    """Simplicial homology.

    ring "Z": list of HomologyGroup per dimension (via Smith normal form).
    ring "F2": list of GF(2) dimensions per dimension.
    The reduced flag augments with the empty simplex.
    """
    if ring not in ("Z", "F2"):
        raise InputError(f"unsupported coefficient ring {ring!r}")
    dim = k.dimension()
    if dim < 0:
        return []
    cc = ChainComplexZ.of(k)
    out = []
    for d in range(dim + 1):
        n = len(cc.generators[d])
        lower = cc.boundary(d)  # C_d -> C_{d-1}
        upper = cc.boundary(d + 1)
        if d == 0 and reduced:
            lower = cc.boundaries[0]  # augmentation
        if d == 0 and not reduced:
            lower = [[0] * n for _ in range(0)]
        if ring == "F2":
            r_low = la.rank_f2(lower) if len(lower) else 0
            r_up = la.rank_f2(upper) if (upper and len(upper[0])) else 0
            out.append(n - r_low - r_up)
        else:
            diag_low = snf_rank(lower)
            diag_up = la.snf_diagonal(upper) if (upper and upper[0]) else []
            r_up = sum(1 for x in diag_up if x != 0)
            free = n - diag_low - r_up
            torsion = sorted(x for x in diag_up if x > 1)
            out.append(HomologyGroup(free, torsion))
    return out


def snf_rank(m) -> int:
    if not m or not m[0]:
        return 0
    return sum(1 for x in la.snf_diagonal(m) if x != 0)


def betti_numbers(k: AbstractComplex, reduced=False) -> list[int]:
    return [h.free_rank for h in homology(k, "Z", reduced)]


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


def is_f2_homology_sphere(k: AbstractComplex, dim: int) -> bool:
    """Mod-2 counterpart of is_homology_sphere."""
    if k.dimension() != dim:
        return False
    dims = homology(k, "F2")
    if dim == 0:
        return dims[0] == 2
    return (
        dims[0] == 1
        and dims[dim] == 1
        and all(dims[d] == 0 for d in range(1, dim))
    )


# ---------------------------------------------------------------------------
# mod-2 cochains, cocycles, Bockstein


def coboundary_matrix(cc: ChainComplexZ, d: int) -> np.ndarray:
    """delta: C^d -> C^{d+1} over GF(2) (transpose of the boundary)."""
    b = cc.boundary(d + 1)
    if not b or not b[0]:
        rows = len(cc.generators[d + 1]) if d + 1 < len(cc.generators) else 0
        cols = len(cc.generators[d]) if 0 <= d < len(cc.generators) else 0
        return la.f2_zeros(rows, cols)
    return la.f2(la.int_transpose(b))


@dataclass
class CohomologyClass:
    """A GF(2) cocycle representative on the d-simplices of a complex."""

    complex: AbstractComplex
    dim: int
    cochain: np.ndarray

    def __post_init__(self):
        self.cochain = la.f2(self.cochain).reshape(-1)
        cc = ChainComplexZ.of(self.complex)
        n = len(cc.generators[self.dim]) if self.dim < len(cc.generators) else 0
        if self.cochain.shape[0] != n:
            raise InputError(
                f"cochain length {self.cochain.shape[0]} != number of {self.dim}-simplices {n}"
            )
        delta = coboundary_matrix(cc, self.dim)
        if delta.size and la.f2_mul(delta, self.cochain.reshape(-1, 1)).any():
            raise InputError("cochain is not a cocycle over GF(2)")

    def is_zero_class(self) -> bool:
        """Is this cocycle a coboundary?"""
        cc = ChainComplexZ.of(self.complex)
        if self.dim == 0:
            return not self.cochain.any()
        delta = coboundary_matrix(cc, self.dim - 1)
        return la.solve_f2(delta, self.cochain) is not None

    def same_class(self, other: "CohomologyClass") -> bool:
        if self.dim != other.dim or self.complex is not other.complex:
            if self.complex != other.complex:
                raise InputError("classes on different complexes")
        diff = CohomologyClass(self.complex, self.dim, self.cochain ^ other.cochain)
        return diff.is_zero_class()


def bockstein_sq1(x: CohomologyClass) -> CohomologyClass:
    """Connecting map of 0 -> Z/2 -> Z/4 -> Z/2 -> 0 on mod-2 cohomology.

    Lift the cocycle to integer coefficients (entries 0/1), take the
    integral coboundary, halve, reduce mod 2.  The class of the result is
    independent of the lift and of the representative.
    """
    cc = ChainComplexZ.of(x.complex)
    d = x.dim
    bnd = cc.boundary(d + 1)  # C_{d+1} -> C_d over Z
    n_up = len(cc.generators[d + 1]) if d + 1 < len(cc.generators) else 0
    lift = [int(v) for v in x.cochain]
    out = []
    for j in range(n_up):
        # integral coboundary evaluated on the j-th (d+1)-simplex
        val = sum(bnd[i][j] * lift[i] for i in range(len(lift))) if lift else 0
        if val % 2 != 0:
            raise InternalError("integral coboundary of a mod-2 cocycle is odd")
        out.append((val // 2) % 2)
    return CohomologyClass(x.complex, d + 1, np.array(out, dtype=np.uint8))


def cohomology_basis(k: AbstractComplex, d: int) -> list[CohomologyClass]:
    """Representative cocycles spanning H^d(k; F2)."""
    cc = ChainComplexZ.of(k)
    delta_d = coboundary_matrix(cc, d)
    n = len(cc.generators[d]) if d < len(cc.generators) else 0
    if n == 0:
        return []
    cocycles = la.kernel_basis_f2(delta_d) if delta_d.size else [
        la.f2_eye(n)[i] for i in range(n)
    ]
    if d == 0:
        img = la.f2_zeros(n, 0)
    else:
        img = la.image_basis_f2(coboundary_matrix(cc, d - 1))
    # keep each cocycle outside the span of the coboundaries and the
    # cocycles before it: the pivot columns of [img | cocycles]
    both = np.concatenate([img] + [z.reshape(-1, 1) for z in cocycles], axis=1)
    return [
        CohomologyClass(k, d, cocycles[j - img.shape[1]])
        for j in la.pivot_columns_f2(both)
        if j >= img.shape[1]
    ]


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
        diag = la.snf_diagonal(la.int_transpose(mat))  # columns = relators
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
    if not k.is_connected():
        raise InputError("complex is not connected")
    base = k.vertices[0] if basepoint is None else int(basepoint)
    if (base,) not in k.simplices:
        raise InputError(f"basepoint {base} not a vertex")

    edges = k.simplices_of_dim(1)
    adj = {v: [] for v in k.vertices}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()

    tree = set()
    seen = {base}
    queue = [base]
    while queue:
        u = queue.pop(0)
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.add(tuple(sorted((u, w))))
                queue.append(w)

    gen_index = {}
    for e in edges:
        if e not in tree:
            gen_index[e] = len(gen_index) + 1  # 1-based

    def letter(u, v):
        """Generator letter for the directed edge u -> v (0 for tree edges)."""
        e = tuple(sorted((u, v)))
        g = gen_index.get(e, 0)
        if g == 0:
            return 0
        return g if (u, v) == e else -g

    relators = []
    for (a, b, c) in k.simplices_of_dim(2):
        word = [letter(a, b), letter(b, c), -letter(a, c) if letter(a, c) else 0]
        word = [x for x in word if x != 0]
        if word:
            relators.append(word)
    return GroupPresentation(len(gen_index), relators)


# ---------------------------------------------------------------------------
# link-based manifold scan


def _is_circle(k: AbstractComplex) -> bool:
    if k.dimension() != 1 or not k.vertices:
        return False
    deg = {v: 0 for v in k.vertices}
    for (u, v) in k.simplices_of_dim(1):
        deg[u] += 1
        deg[v] += 1
    return all(d == 2 for d in deg.values()) and k.is_connected()


def _is_closed_surface(k: AbstractComplex) -> bool:
    if k.dimension() != 2 or not k.is_pure():
        return False
    count = {}
    for t in k.simplices_of_dim(2):
        for e in combinations(t, 2):
            count[e] = count.get(e, 0) + 1
    if any(c != 2 for c in count.values()):
        return False
    return all(_is_circle(k.link((v,))) for v in k.vertices) and k.is_connected()


def _is_two_sphere(k: AbstractComplex) -> bool:
    return _is_closed_surface(k) and k.euler_characteristic() == 2


@dataclass
class LinkReport:
    simplex: Simplex
    link_dim: int
    homology_sphere: bool
    f2_homology_sphere: bool
    certified_sphere: bool | None  # exact answer where decidable, else None
    pi1_order: int | str | None = None  # int, "exceeded", or None if not asked

    def verdict(self) -> str:
        if self.certified_sphere is True:
            return "sphere"
        if self.certified_sphere is False:
            return "not-sphere"
        if not self.homology_sphere:
            return "not-sphere"
        if self.pi1_order == 1:
            return "homology-sphere-pi1-trivial"
        if isinstance(self.pi1_order, int):
            return "homology-sphere-pi1-order-%d" % self.pi1_order
        if self.pi1_order == "exceeded":
            return "homology-sphere-pi1-unknown"
        return "homology-sphere"


def link_manifold_scan(
    k: AbstractComplex, certify_pi1: bool = False, coset_limit: int = 2000
) -> list[LinkReport]:
    """Check every link of codimension >= 1 against the sphere it should be.

    Dimension-1 links get an exact circle test, dimension-2 links an exact
    sphere test (closed surface with Euler characteristic 2); dimension-3
    links are reported as homology spheres with optional fundamental-group
    certification through coset enumeration.  No sphere recognition is
    attempted above link dimension 2.
    """
    from .toddcoxeter import coset_enumeration

    n = k.dimension()
    if not k.is_pure():
        raise InputError("link scan requires a pure complex")
    if n > 4:
        raise InputError("link scan supports dimension <= 4")
    reports = []
    for s in sorted(k.simplices, key=lambda s: (len(s), s)):
        codim = n - (len(s) - 1)
        if codim < 1:
            continue
        lk = k.link(s)
        ld = codim - 1
        hs = is_homology_sphere(lk, ld)
        hs2 = is_f2_homology_sphere(lk, ld)
        cert: bool | None = None
        if ld == 0:
            cert = len(lk.vertices) == 2
        elif ld == 1:
            cert = _is_circle(lk)
        elif ld == 2:
            cert = _is_two_sphere(lk)
        pi1: int | str | None = None
        if certify_pi1 and ld == 3 and hs and lk.is_connected():
            pres = fundamental_group(lk)
            pi1 = coset_enumeration(pres, coset_limit)
        reports.append(LinkReport(s, ld, hs, hs2, cert, pi1))
    return reports
