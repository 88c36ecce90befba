"""Deterministic random generators shared by the test suite.

Valid models are built as direct sums of elementary blocks whose
consistency is forced by construction, then disguised by conjugating
with random degree-respecting automorphisms: the computations under
test see dense matrices, while validity is guaranteed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import numpy as np

from homcob import f2linalg as la
from homcob.equivariant import AbcReport, LocalizationReport, PinModel, SOneModel, tower_bottoms
from homcob.errors import InputError, InternalError, ModelInvalidError
from homcob.graded import GradedComplex, Homology, ladder_window
from homcob.involutive import (
    DEFAULT_MARGIN,
    UComplex,
    _forced_power,
    cone_iota,
)
from homcob.knot import LaurentPoly, SeifertMatrix
from homcob.simplicial import (
    AbstractComplex,
    ChainComplexZ,
    CohomologyClass,
    GroupPresentation,
    HomologyGroup,
    LinkReport,
    fundamental_group,
    homology,
    is_homology_sphere,
)
from homcob.toddcoxeter import COSET_LIMIT, EXCEEDED, check_coset_limit, coset_enumeration


def row_echelon_oracle(m: np.ndarray):
    """Scalar Gauss-Jordan on unpacked uint8 rows, in place: (matrix, pivot_cols).

    The reference for the packed kernel in f2linalg.
    """
    r = 0
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        hit = -1
        for rr in range(r, rows):
            if m[rr, c]:
                hit = rr
                break
        if hit < 0:
            continue
        if hit != r:
            m[[r, hit]] = m[[hit, r]]
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr, :] ^= m[r, :]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def greedy_reps(span: np.ndarray, vectors) -> list[int]:
    """Indices of the vectors kept one at a time: keep z when it raises the
    rank of span plus the vectors kept so far.  The reference for the
    homology and cohomology representatives."""
    keep = []
    for i, z in enumerate(vectors):
        aug = np.concatenate([span, z.reshape(-1, 1)], axis=1)
        if la.rank_f2(aug) > la.rank_f2(span):
            keep.append(i)
            span = aug
    return keep


def greedy_homology_reps(cx, d: int) -> np.ndarray:
    """Degree-d representatives of graded.Homology, chosen greedily."""
    ker = la.kernel_basis_f2(cx.d_matrix(d))
    keep = greedy_reps(la.image_basis_f2(cx.d_matrix(d + 1)), ker)
    return np.stack([ker[i] for i in keep], axis=1) if keep else la.f2_zeros(cx.dim(d), 0)


def f2_inverse(p: np.ndarray) -> np.ndarray:
    x = la.solve_f2(p, la.f2_eye(p.shape[0]))
    assert x is not None, "matrix not invertible"
    return x


def random_invertible_degree_preserving(rng: random.Random, degrees: list[int]):
    """Block-diagonal (per degree) random invertible F2 matrix."""
    n = len(degrees)
    p = la.f2_zeros(n, n)
    for deg in set(degrees):
        idx = [i for i, d in enumerate(degrees) if d == deg]
        k = len(idx)
        while True:
            block = la.f2([[rng.randint(0, 1) for _ in range(k)] for _ in range(k)])
            if la.rank_f2(block) == k:
                break
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                p[ia, ib] = block[a, b]
    return p


# ---------------------------------------------------------------------------
# integer matrices


def int_transpose(a) -> list[list[int]]:
    return [list(r) for r in zip(*a)] if a else []


def int_dense(a: la.IntMatrix) -> list[list[int]]:
    """The dense list of lists of a sparse integer matrix."""
    rows, cols = a.shape
    out = [[0] * cols for _ in range(rows)]
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            out[i][j] = x
    return out


def dense_int_mul(a, b):
    """Schoolbook integer product, every entry visited."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def snf_transforms(m, row_log, col_log, pivots, diag):
    """(U, D, V) of an SNF rebuilt from its logs: U is the product of the
    elementary matrices of the row log, V of the column log, each followed
    by the signs and permutation that put pivot k at (k, k) with a positive
    entry; D is the dense matrix with diagonal diag."""
    rows, cols = len(m), len(m[0]) if m else 0

    def elementary(n, i, j, q):  # I - q e_i e_j^T
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] -= q
        return e

    u = [[int(r == c) for c in range(rows)] for r in range(rows)]
    for dst, src, q in row_log:  # row_dst -= q * row_src
        u = dense_int_mul(elementary(rows, dst, src, q), u)
    v = [[int(r == c) for c in range(cols)] for r in range(cols)]
    for dst, src, q in col_log:  # col_dst -= q * col_src
        v = dense_int_mul(v, elementary(cols, src, dst, q))
    reduced = dense_int_mul(dense_int_mul(u, m), v)
    sign = {p: -1 if reduced[p][c] < 0 else 1 for p, c in pivots}
    row_order = list(sign) + [i for i in range(rows) if i not in sign]
    used = [c for _, c in pivots]
    col_order = used + [j for j in range(cols) if j not in used]
    u = [[sign.get(p, 1) * x for x in u[p]] for p in row_order]
    v = [[row[c] for c in col_order] for row in v]
    d = [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return u, d, v


def check_snf_oracle(m, u, d, v):
    """The dense SNF certificate: U*m*V = D by schoolbook products, U and V
    unimodular by Bareiss determinants, and the divisibility chain."""
    if dense_int_mul(dense_int_mul(u, m), v) != d:
        raise InternalError("SNF verification failed: U*m*V != D")
    if abs(la.int_det(u)) != 1 or abs(la.int_det(v)) != 1:
        raise InternalError("SNF verification failed: transform not unimodular")
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for x, y in zip(diag, diag[1:]):
        if x < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise InternalError("SNF verification failed: divisibility chain broken")


def snf_diagonal_oracle(m) -> list[int]:
    """SNF diagonal from determinantal divisors: d1*...*dk is the gcd of the
    k x k minors (meant for matrices of a few rows and columns)."""
    rows, cols = len(m), len(m[0])
    divisors = [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for r in combinations(range(rows), k):
            for c in combinations(range(cols), k):
                g = gcd(g, la.int_det([[m[i][j] for j in c] for i in r]))
        divisors.append(g)
    return [b // a if a else 0 for a, b in zip(divisors, divisors[1:])]


def poly_det_oracle(mat: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by expansion over the first column with memoized minors
    (exponential in the size)."""
    n = len(mat)
    if n == 0:
        return LaurentPoly.one()
    cache: dict[tuple[int, ...], LaurentPoly] = {}

    def minor(rows: tuple[int, ...], col: int) -> LaurentPoly:
        if not rows:
            return LaurentPoly.one()
        key = rows + (col,)
        if key in cache:
            return cache[key]
        acc = LaurentPoly.zero()
        for idx, r in enumerate(rows):
            entry = mat[r][col]
            if entry.coeffs:
                sub = minor(rows[:idx] + rows[idx + 1 :], col + 1)
                term = entry * sub
                acc = acc + term if idx % 2 == 0 else acc - term
        cache[key] = acc
        return acc

    return minor(tuple(range(n)), 0)


def alexander_oracle(v: SeifertMatrix) -> LaurentPoly:
    """The Alexander polynomial from the Laplace determinant of V - t V^T,
    normalized as knot.alexander normalizes it."""
    n = v.size
    if n == 0:
        return LaurentPoly.one()
    det = poly_det_oracle(
        [[LaurentPoly({0: v.v[i][j], 1: -v.v[j][i]}) for j in range(n)] for i in range(n)]
    )
    if not det.coeffs:
        raise InputError("vanishing Alexander determinant")
    exps = sorted(det.coeffs)
    center = Fraction(exps[0] + exps[-1], 2)
    assert center.denominator == 1
    det = det.shift(-int(center))
    assert det.is_symmetric() and abs(det(1)) == 1
    return -det if det(1) == -1 else det


def signature_oracle(v: SeifertMatrix) -> int:
    """Signature of V + V^T by exact congruence diagonalization over the
    rationals, row and column operations in pairs; zero eigenvalues
    contribute nothing."""
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


# ---------------------------------------------------------------------------
# simplicial


def random_complex(rng: random.Random, max_vertices: int = 8) -> AbstractComplex:
    nv = rng.randint(1, max_vertices)
    verts = list(range(1, nv + 1))
    facets = []
    for _ in range(rng.randint(1, 2 * nv)):
        size = rng.randint(1, min(4, nv))
        facets.append(rng.sample(verts, size))
    return AbstractComplex.from_facets(facets, vertices=verts)


def link_oracle(k: AbstractComplex, tau) -> AbstractComplex:
    """The link as the simplices of the closed star (closure of the star)
    disjoint from tau, re-validated as a complex: the reference for
    AbstractComplex.link."""
    tset = set(tau)
    simps = {s for s in k.closure(k.star(tau)) if not (tset & set(s))}
    return AbstractComplex(sorted({v for s in simps for v in s}), simps)


def link_by_full_scan(k: AbstractComplex, tau) -> AbstractComplex:
    """{rho \\ tau : rho a simplex of k strictly containing tau}, found by
    walking every simplex of k: the reference for the star index of
    AbstractComplex.link."""
    t = tuple(sorted(tau))
    tset = set(t)
    simps = frozenset(
        tuple(v for v in s if v not in tset)
        for s in k.simplices
        if len(s) > len(t) and tset.issubset(s)
    )
    verts = tuple(sorted(s[0] for s in simps if len(s) == 1))
    return AbstractComplex._built(verts, simps)


def facets_oracle(k: AbstractComplex) -> list:
    """Simplices that are a proper subset of no other simplex, by comparing
    every pair: the reference for AbstractComplex.facets."""
    return sorted(
        s for s in k.simplices
        if not any(len(t) > len(s) and set(s) < set(t) for t in k.simplices)
    )


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


def certified_sphere_oracle(k: AbstractComplex) -> bool | None:
    """Is k a sphere?  Decided exactly in dimensions 0, 1 and 2 by
    recognizing two points, a circle (every vertex of degree 2, connected)
    or a closed surface (every edge in two triangles, every vertex link a
    circle, connected) with Euler characteristic 2; None above.  Each link
    is recognized on its own: the reference for the inductive rule of
    `link_manifold_scan`."""
    d = k.dimension()
    if d == 0:
        return len(k.vertices) == 2
    if d == 1:
        return _is_circle(k)
    if d == 2:
        return _is_closed_surface(k) and k.euler_characteristic() == 2
    return None


def link_scan_oracle(
    k: AbstractComplex, certify_pi1: bool = False, coset_limit: int = COSET_LIMIT
) -> list[LinkReport]:
    """The link scan with every link certified on its own by
    `certified_sphere_oracle`, in (size, simplex) order: the reference for
    `link_manifold_scan`."""
    check_coset_limit(coset_limit)
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
        ld = codim - 1  # the dimension of lk, since k is pure
        cert = certified_sphere_oracle(lk)
        hs = cert is True or is_homology_sphere(lk, ld)
        pi1: int | str | None = None
        if certify_pi1 and ld == 3 and hs and lk.is_connected():
            pres = fundamental_group(lk)
            pi1 = coset_enumeration(pres, coset_limit)
        reports.append(LinkReport(s, ld, hs, cert, pi1))
    return reports


def homology_oracle(k: AbstractComplex, ring: str = "Z", reduced: bool = False):
    """Homology from a Smith normal form (Z) or a GF(2) rank (F2) of every
    whole boundary, the augmentation only when reduced: the reference for
    the reduced complex that `homology` eliminates."""
    dim = k.dimension()
    if dim < 0:
        return []
    cc = ChainComplexZ.of(k)
    ranks = [0] * (dim + 2)
    torsion: list[list[int]] = [[] for _ in range(dim + 2)]
    for d in range(0 if reduced else 1, dim + 1):
        b = cc.boundaries[d]
        if ring == "F2":
            ranks[d] = la.rank_f2(mod2_oracle(b))
        else:
            diag = la.smith_normal_form(b)
            ranks[d] = sum(1 for x in diag if x != 0)
            torsion[d] = sorted(x for x in diag if x > 1)
    out = []
    for d in range(dim + 1):
        free = len(cc.generators[d]) - ranks[d] - ranks[d + 1]
        out.append(free if ring == "F2" else HomologyGroup(free, torsion[d + 1]))
    return out


def mod2_oracle(b: la.IntMatrix) -> np.ndarray:
    """The dense GF(2) copy of an integer matrix: the reference for the
    packed odd rows of simplicial."""
    return la.f2(np.array(int_dense(b), dtype=np.int64).reshape(b.shape))


def coboundary_oracle(cc: ChainComplexZ, d: int) -> np.ndarray:
    """delta: C^d -> C^{d+1} over GF(2), dense: the transpose of the
    mod-2 boundary d_{d+1} (n x 0 for d = -1)."""
    return mod2_oracle(cc.boundary(d + 1)).T


def cohomology_basis_oracle(k: AbstractComplex, d: int) -> list[np.ndarray]:
    """The cochains of cohomology_basis from dense coboundaries: the
    kernel basis of delta_d, and of it the pivot columns of
    [delta_{d-1} | cocycles] past delta_{d-1}."""
    cc = ChainComplexZ.of(k)
    if d >= len(cc.generators) or not cc.generators[d]:
        return []
    cocycles = la.kernel_basis_f2(coboundary_oracle(cc, d))
    delta = coboundary_oracle(cc, d - 1)
    both = np.concatenate([delta] + [z.reshape(-1, 1) for z in cocycles], axis=1)
    m = delta.shape[1]
    return [cocycles[j - m] for j in la.pivot_columns_f2(both) if j >= m]


def sq1_oracle(k: AbstractComplex, d: int) -> list[tuple[str, object]]:
    """The rows of `homcob sq1 --dim d` from dense matrices: each class of
    cohomology_basis_oracle, lifted to 0/1 integers, times the dense
    integral boundary d_{d+1}, halved, is nonzero when delta_d @ y = Sq1
    has no solution."""
    cc = ChainComplexZ.of(k)
    reps = cohomology_basis_oracle(k, d)
    b = cc.boundary(d + 1)
    bnd = np.array(int_dense(b), dtype=np.int64).reshape(b.shape)
    delta = coboundary_oracle(cc, d)
    rows: list[tuple[str, object]] = [("h_dim", len(reps))]
    for i, z in enumerate(reps):
        vals = z.astype(np.int64) @ bnd
        assert not (vals % 2).any()
        rows.append((f"sq1_class_{i}_nonzero", la.solve_f2(delta, (vals // 2) % 2) is None))
    return rows


def betti_numbers(k: AbstractComplex, reduced=False) -> list[int]:
    return [h.free_rank for h in homology(k, "Z", reduced)]


def is_zero(g: HomologyGroup) -> bool:
    return g.free_rank == 0 and not g.torsion


def cochain_values(x: CohomologyClass) -> list[int]:
    """The 0/1 value of x on each simplex of its degree, in order: the bits
    of its packed cochain."""
    return [x.cochain >> j & 1 for j in range(len(x.complex.simplices_of_dim(x.dim)))]


def pack_cochain(values) -> int:
    """A 0/1 vector as a packed cochain: bit j is values[j] mod 2."""
    return sum(1 << j for j, v in enumerate(values) if int(v) & 1)


def same_class(x: CohomologyClass, y: CohomologyClass) -> bool:
    """Do two mod-2 cocycles of one degree on one complex represent the
    same cohomology class?"""
    if x.dim != y.dim:
        raise InputError(f"classes of different degrees {x.dim} and {y.dim}")
    if x.complex is not y.complex and x.complex != y.complex:
        raise InputError("classes on different complexes")
    return CohomologyClass(x.complex, x.dim, x.cochain ^ y.cochain).is_zero_class()


# ---------------------------------------------------------------------------
# coset enumeration on a union-find table


class CosetCapHit(Exception):
    pass


class UnionFindCosetTable:
    """Coset table over columns g0, g0^-1, g1, g1^-1, ... with union-find
    coincidence handling."""

    def __init__(self, ngens: int, limit: int):
        self.width = 2 * ngens
        self.limit = limit
        self.neighbors: list[list[int | None]] = []
        self.parent: list[int] = []
        self.created = 0
        self.define()

    def define(self) -> int:
        if self.created >= self.limit:
            raise CosetCapHit()
        self.created += 1
        self.neighbors.append([None] * self.width)
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, c: int) -> int:
        while self.parent[c] != c:
            self.parent[c] = self.parent[self.parent[c]]
            c = self.parent[c]
        return c

    @staticmethod
    def col(letter: int) -> int:
        g = abs(letter) - 1
        return 2 * g + (0 if letter > 0 else 1)

    def get(self, c: int, col: int):
        out = self.neighbors[self.find(c)][col]
        return None if out is None else self.find(out)

    def set(self, c: int, col: int, d: int):
        merges: list[tuple[int, int]] = []
        self._edge(c, col, d, merges)
        self._process(merges)

    def merge(self, a: int, b: int):
        self._process([(a, b)])

    def _edge(self, c: int, col: int, d: int, merges: list):
        """Record c.col = d and the inverse edge; queue conflicts."""
        c, d = self.find(c), self.find(d)
        cur = self.neighbors[c][col]
        if cur is None:
            self.neighbors[c][col] = d
        else:
            cur = self.find(cur)
            self.neighbors[c][col] = cur
            if cur != d:
                merges.append((cur, d))
        icol = col ^ 1
        cur2 = self.neighbors[d][icol]
        if cur2 is None:
            self.neighbors[d][icol] = c
        else:
            cur2 = self.find(cur2)
            self.neighbors[d][icol] = cur2
            if cur2 != c:
                merges.append((cur2, c))

    def _process(self, merges: list):
        while merges:
            a, b = merges.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.parent[b] = a
            row = self.neighbors[b]
            self.neighbors[b] = [None] * self.width
            for col, out in enumerate(row):
                if out is not None:
                    self._edge(a, col, self.find(out), merges)

    def live_count(self) -> int:
        return sum(1 for c in range(len(self.parent)) if self.find(c) == c)


def coxeter_sn(n: int) -> GroupPresentation:
    """The Coxeter presentation of the symmetric group S_n (order n!)."""
    rels = [[i, i] for i in range(1, n)]
    rels += [[i, i + 1] * 3 for i in range(1, n - 1)]
    rels += [[i, j] * 2 for i in range(1, n) for j in range(i + 2, n)]
    return GroupPresentation(n - 1, rels)


def scramble_presentation(rng: random.Random, p: GroupPresentation) -> GroupPresentation:
    """The same group: permuted and possibly inverted generators, rotated
    relators in random order."""
    perm = list(range(1, p.ngens + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in perm]
    rels = []
    for w in p.relators:
        w = [sign[abs(x) - 1] * perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w]
        r = rng.randrange(len(w))
        rels.append(w[r:] + w[:r])
    rng.shuffle(rels)
    return GroupPresentation(p.ngens, rels)


def random_presentation(rng: random.Random, max_gens: int = 3) -> GroupPresentation:
    """Random relators of length 1-8, not freely reduced in general."""
    g = rng.randint(1, max_gens)
    rels = [
        [rng.choice((1, -1)) * rng.randint(1, g) for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 4))
    ]
    return GroupPresentation(g, rels)


def coset_enumeration_oracle(p: GroupPresentation, limit: int):
    """(order or "exceeded", cosets defined) by HLT on the union-find
    table: the reference for toddcoxeter.coset_enumeration."""
    if limit < 1:
        raise InputError("coset limit must be >= 1")
    table = UnionFindCosetTable(p.ngens, limit)
    words = [[UnionFindCosetTable.col(letter) for letter in w] for w in p.relators]
    try:
        idx = 0
        while idx < table.created:
            if table.find(idx) != idx:
                idx += 1
                continue
            for word in words:
                if table.find(idx) != idx:
                    break  # merged away mid-scan; survivor saw these edges
                _oracle_scan_and_fill(table, idx, word)
            if table.find(idx) == idx:
                for col in range(table.width):
                    if table.get(idx, col) is None:
                        table.set(idx, col, table.define())
            idx += 1
    except CosetCapHit:
        return EXCEEDED, table.created
    return table.live_count(), table.created


def _oracle_scan_and_fill(table: UnionFindCosetTable, cos: int, word: list[int]):
    """Trace `word` at `cos`, defining cosets so the cycle closes."""
    n = len(word)
    if n == 0:
        return
    front = table.find(cos)
    i = 0
    while i < n:
        nxt = table.get(front, word[i])
        if nxt is None:
            break
        front = nxt
        i += 1
    if i == n:
        table.merge(front, cos)  # full scan must close up
        return
    back = table.find(cos)
    j = n
    while j - 1 > i:
        prv = table.get(back, word[j - 1] ^ 1)
        if prv is None:
            break
        back = prv
        j -= 1
    while i < j - 1:
        fresh = table.define()
        table.set(front, word[i], fresh)
        front = table.find(fresh)
        i += 1
    table.set(front, word[i], back)  # closing deduction (may coincide)


# ---------------------------------------------------------------------------
# equivariant models


def random_pin_model(
    rng: random.Random,
    with_tower: bool = True,
    max_blocks: int = 2,
    conjugate: bool = True,
) -> PinModel:
    n = 2 * rng.randint(-2, 2) if with_tower else None
    gens: list[tuple[str, int]] = []
    q_entries: list[tuple[str, str]] = []
    v_entries: list[tuple[str, str]] = []
    d_entries: list[tuple[str, str]] = []
    arrows: list[tuple[str, int, int]] = []
    counter = 0

    def fresh(deg):
        nonlocal counter
        counter += 1
        name = f"g{counter}"
        gens.append((name, deg))
        return name

    for _ in range(rng.randint(0, max_blocks)):
        kind = rng.choice(["pair", "killer"] if with_tower else ["pair"])
        if kind == "pair":
            deg = rng.randint(-3, 6)
            x = fresh(deg)
            y = fresh(deg - 1)
            d_entries.append((x, y))
        else:
            a0 = rng.randint(0, 2)
            depth = rng.randint(0, 1)
            # now and then with a copy one degree lower, each block
            # generator having its copy as finite boundary: a cycle that
            # bounds nothing, homologous to the tower target, which lives
            parts = [{} for _ in range(2 if rng.random() < 1 / 3 else 1)]
            for alpha in range(a0 + 1):
                for j in range(depth + 1):
                    for c, part in enumerate(parts):
                        part[(alpha, j)] = fresh(n + 4 * (depth - j) + (a0 - alpha) + 1 - c)
            for part in parts:
                for (alpha, j), name in part.items():
                    if alpha < a0:
                        q_entries.append((name, part[(alpha + 1, j)]))
                    if j < depth:
                        v_entries.append((name, part[(alpha, j + 1)]))
            for (alpha, j), name in parts[0].items():
                arrows.append((name, a0 - alpha, depth - j))
                if len(parts) == 2:
                    d_entries.append((name, parts[1][(alpha, j)]))

    m = len(gens)
    index = {name: i for i, (name, _) in enumerate(gens)}
    qm = la.f2_zeros(m, m)
    vm = la.f2_zeros(m, m)
    dm = la.f2_zeros(m, m)
    for src, tgt in q_entries:
        qm[index[tgt], index[src]] = 1
    for src, tgt in v_entries:
        vm[index[tgt], index[src]] = 1
    for src, tgt in d_entries:
        dm[index[tgt], index[src]] = 1

    if conjugate and m:
        degrees = [d for _, d in gens]
        p = random_invertible_degree_preserving(rng, degrees)
        pinv = f2_inverse(p)
        qm = la.f2_mul(la.f2_mul(p, qm), pinv)
        vm = la.f2_mul(la.f2_mul(p, vm), pinv)
        dm = la.f2_mul(la.f2_mul(p, dm), pinv)
        # tower arrows transform by precomposition with p^-1
        pairs = sorted({(a, b) for _, a, b in arrows})
        t = la.f2_zeros(len(pairs), m)
        for src, a, b in arrows:
            t[pairs.index((a, b)), index[src]] ^= 1
        t = la.f2_mul(t, pinv)
        arrows = [
            (gens[j][0], *pairs[i])
            for i in range(len(pairs))
            for j in range(m)
            if t[i, j]
        ]

    return PinModel(n, gens, qm.tolist(), vm.tolist(), dm.tolist(), arrows)


def random_s1_model(rng: random.Random, max_blocks: int = 2) -> SOneModel:
    n = rng.randint(-3, 3)
    gens, d_entries, u_entries, arrows = [], [], [], []
    counter = 0

    def fresh(deg):
        nonlocal counter
        counter += 1
        gens.append((f"g{counter}", deg))
        return f"g{counter}"

    for _ in range(rng.randint(0, max_blocks)):
        if rng.random() < 0.5:
            deg = rng.randint(-3, 5)
            x = fresh(deg)
            y = fresh(deg - 1)
            d_entries.append((x, y))
        else:
            depth = rng.randint(0, 2)
            # now and then with a copy one degree lower, as in random_pin_model
            parts = [[fresh(n + 2 * (depth - j) + 1 - c) for j in range(depth + 1)]
                     for c in range(2 if rng.random() < 1 / 3 else 1)]
            for part in parts:
                u_entries += [(part[j], part[j + 1]) for j in range(depth)]
            for j, name in enumerate(parts[0]):
                arrows.append((name, 0, depth - j))
                if len(parts) == 2:
                    d_entries.append((name, parts[1][j]))
    m = len(gens)
    index = {name: i for i, (name, _) in enumerate(gens)}
    um = la.f2_zeros(m, m)
    dm = la.f2_zeros(m, m)
    for src, tgt in u_entries:
        um[index[tgt], index[src]] = 1
    for src, tgt in d_entries:
        dm[index[tgt], index[src]] = 1
    return SOneModel(n, gens, um.tolist(), dm.tolist(), arrows)


def rokhlin_check(report: AbcReport) -> int:
    """beta mod 2, with the congruence alpha = beta = gamma (mod 2) asserted."""
    if not (report.alpha % 2 == report.beta % 2 == report.gamma % 2):
        raise ModelInvalidError("mod-2 congruence violated in report")
    return report.beta % 2


# ---------------------------------------------------------------------------
# involutive inputs


def cols_matrix(cols: list[int]) -> np.ndarray:
    """The 0/1 matrix of the packed columns cols: entry (r, t) is bit r of
    cols[t]."""
    return la._unpack_rows(cols, len(cols)).T


def matrix_cols(mat) -> list[int]:
    """The packed columns of the square 0/1 matrix mat: the inverse of
    cols_matrix."""
    return la._pack_rows(la.f2(mat).T)


def d_matrix_of(c: UComplex) -> np.ndarray:
    """c's differential as a coefficient matrix on c.generators."""
    return cols_matrix(c._cols)


def iota_matrix_of(c: UComplex) -> np.ndarray:
    """c's iota as a coefficient matrix on c.generators."""
    return cols_matrix(c._iota)


def _matrix_entries(gens, mat: np.ndarray, shift: int) -> list[tuple]:
    """The (from, to, upower) entries of the degree-`shift` map on `gens`
    with the coefficient matrix mat."""
    return [(gens[j][0], gens[i][0], _forced_power(gens[j][1], gens[i][1], shift))
            for i, j in zip(*np.nonzero(mat))]


def ucomplex_from_matrix(gens, d_mat: np.ndarray, iota_mat: np.ndarray | None = None):
    """The complex on `gens` whose differential has the coefficient
    matrix d_mat, with the iota of matrix iota_mat if one is given, read
    through the entry reader (which checks them again)."""
    iota = None if iota_mat is None else _matrix_entries(gens, iota_mat, 0)
    return UComplex(gens, _matrix_entries(gens, d_mat, -1), iota)


def with_iota(c: UComplex, mat: np.ndarray) -> UComplex:
    """c with the iota whose coefficient matrix is mat, read through the
    entry reader, which refuses an entry of no degree-0 U-power."""
    return ucomplex_from_matrix(c.generators, d_matrix_of(c), mat)


def with_identity_iota(c: UComplex) -> UComplex:
    """c with iota = 1."""
    return with_iota(c, la.f2_eye(len(c.generators)))


def random_ucomplex_with_iota(
    rng: random.Random,
    max_pairs: int = 3,
    iota_identity: bool = False,
    conjugate: bool = True,
):
    """A tower generator plus U-step pairs, with iota = id + f where f
    sends pair tops to degree-matched cycles; iota is the identity on
    localized homology by construction."""
    d_tower = 2 * rng.randint(-2, 2)
    shapes = []
    for _ in range(rng.randint(0, max_pairs)):
        m = rng.randint(1, 2)
        shapes.append((rng.randint(-3, 4), m))
    return _tower_and_pairs_with_iota(rng, d_tower, shapes, iota_identity, conjugate)


def spread_ucomplex_with_iota(rng: random.Random, pairs: int, spread: int = 5):
    """The shape of the benchmark's u_complex models: a tower generator
    plus `pairs` pairs x -> U^m y whose tops x are spread evenly over
    [-spread, spread] around the tower, m = 1, 2 alternating, with iota
    as in random_ucomplex_with_iota.  Returns (c, d)."""
    d_tower = 2 * rng.randint(-2, 2)
    shapes = [(d_tower + round(-spread + 2 * spread * i / max(1, pairs - 1)), 1 + i % 2)
              for i in range(pairs)]
    return _tower_and_pairs_with_iota(rng, d_tower, shapes), d_tower


def _tower_and_pairs_with_iota(rng, d_tower, shapes, iota_identity=False, conjugate=True):
    """The generator e at d_tower plus a pair x -> U^m y with x at degree
    dx for each (dx, m) of `shapes`, and iota = id + f (f sends pair tops
    to degree-matched cycles, each with probability 1/2); both conjugated
    by a random allowed automorphism unless conjugate is False."""
    gens = [("e", d_tower)]
    entries = []
    pairs = []
    for i, (dx, m) in enumerate(shapes):
        x, y = f"x{i}", f"y{i}"
        gens.append((x, dx))
        gens.append((y, dx - 1 + 2 * m))
        entries.append((x, y, m))
        pairs.append((x, y))
    c = UComplex(gens, entries)
    n = len(gens)
    iota = la.f2_eye(n)
    if not iota_identity:
        degs = dict(gens)
        cycles = ["e"] + [y for _, y in pairs]
        for x, _ in pairs:
            for tgt in cycles:
                if _forced_power(degs[x], degs[tgt], 0) is not None and rng.random() < 0.5:
                    iota[c.index[tgt], c.index[x]] ^= 1
    if conjugate and n > 1:
        p = _random_allowed_automorphism(rng, c)
        pinv = f2_inverse(p)
        dmat = la.f2_mul(la.f2_mul(p, d_matrix_of(c)), pinv)
        iota = la.f2_mul(la.f2_mul(p, iota), pinv)
        assert not la.f2_mul(dmat, dmat).any()
        return ucomplex_from_matrix(c.generators, dmat, iota)
    return with_iota(c, iota)


def dual_ucomplex(c: UComplex) -> UComplex:
    """The orientation reverse: degrees negated, d and iota (if c has one)
    transposed."""
    gens = [(l, -d) for l, d in c.generators]
    iota = None if c._iota is None else iota_matrix_of(c).T
    return ucomplex_from_matrix(gens, d_matrix_of(c).T, iota)


def connected_sum(c1: UComplex, c2: UComplex) -> UComplex:
    """Y1 # Y2 as the tensor product over F[U] (Hendricks, Manolescu and
    Zemke, "A connected sum formula for involutive Heegaard Floer
    homology"): generators x1 x2 in degree deg x1 + deg x2,
    d = d1 (x) 1 + 1 (x) d2 and iota = iota1 (x) iota2; the U-powers
    follow from the degrees."""
    gens = [(f"{l1}*{l2}", d1 + d2) for l1, d1 in c1.generators for l2, d2 in c2.generators]
    n1, n2 = len(c1.generators), len(c2.generators)
    d_mat = np.kron(d_matrix_of(c1), la.f2_eye(n2)) ^ np.kron(la.f2_eye(n1), d_matrix_of(c2))
    assert not la.f2_mul(d_mat, d_mat).any()
    return ucomplex_from_matrix(gens, d_mat, np.kron(iota_matrix_of(c1), iota_matrix_of(c2)))


def _random_allowed_automorphism(rng: random.Random, c: UComplex) -> np.ndarray:
    degs = [d for _, d in c.generators]
    p = random_invertible_degree_preserving(rng, degs)
    n = len(degs)
    for i in range(n):
        for j in range(n):
            if i != j and degs[i] > degs[j] and (degs[i] - degs[j]) % 2 == 0:
                if rng.random() < 0.3:
                    p[i, j] ^= 1
    # strictly degree-raising extras keep the matrix invertible
    assert la.rank_f2(p) == n
    return p


def with_far_pair(c: UComplex, degree: int, upower: int) -> UComplex:
    """c plus an acyclic-over-U pair x -> U^upower y with x at `degree`,
    iota extended by the identity on the pair."""
    gens = list(c.generators) + [("far_x", degree), ("far_y", degree - 1 + 2 * upower)]
    n = len(c.generators)
    d_mat, iota = la.f2_zeros(n + 2, n + 2), la.f2_eye(n + 2)
    d_mat[:n, :n], d_mat[n + 1, n] = d_matrix_of(c), 1
    iota[:n, :n] = iota_matrix_of(c)
    return ucomplex_from_matrix(gens, d_mat, iota)


def random_ucomplex(rng: random.Random, max_towers: int = 4, max_pairs: int = 4) -> UComplex:
    """A free complex over F[U]: up to max_towers single generators and
    up to max_pairs pairs x -> U^k y with k in 0..2, conjugated by a random
    allowed automorphism.  Degrees lie in a narrow range, so ties, U^0
    entries and several towers in one parity all occur."""
    gens = [(f"t{t}", rng.randint(-3, 3)) for t in range(rng.randint(0, max_towers))]
    entries = []
    for i in range(rng.randint(0, max_pairs)):
        k, dx = rng.randint(0, 2), rng.randint(-3, 3)
        gens += [(f"x{i}", dx), (f"y{i}", dx - 1 + 2 * k)]
        entries.append((f"x{i}", f"y{i}", k))
    c = UComplex(gens, entries)
    if len(gens) < 2:
        return c
    p = _random_allowed_automorphism(rng, c)
    d_mat = la.f2_mul(la.f2_mul(p, d_matrix_of(c)), f2_inverse(p))
    assert not la.f2_mul(d_mat, d_mat).any()
    return ucomplex_from_matrix(c.generators, d_mat)


def random_fu_map(rng: random.Random, c: UComplex, shift: int):
    """A random F[U]-map of degree `shift` on c."""
    degs = c.degrees()
    m = la.f2_zeros(len(degs), len(degs))
    for i, di in enumerate(degs):
        for j, dj in enumerate(degs):
            if _forced_power(dj, di, shift) is not None and rng.random() < 0.3:
                m[i, j] = 1
    return m


def homotopic_iota(rng: random.Random, c: UComplex) -> UComplex:
    """c with iota + dK + Kd for a random degree +1 F[U]-map K: a chain
    map homotopic to c's iota, whose square is the identity only up to
    homotopy."""
    k, d = random_fu_map(rng, c, 1), d_matrix_of(c)
    return with_iota(c, iota_matrix_of(c) ^ la.f2_mul(d, k) ^ la.f2_mul(k, d))


def homotopy_solve_oracle(c: UComplex, rhs: np.ndarray, localized: bool = False):
    """Dense reference for `involutive._homotopy_solve`: one equation per
    allowed degree-0 entry (i, j), filled by scanning every z and y for
    (dH)[i, j] = sum d[i, z] H[z, j] and (Hd)[i, j] = sum H[i, y] d[y, j],
    O(n^3).  The degree rule is written out here on purpose, apart from
    the library's.  Returns H or None."""
    n = len(c.generators)
    degs = c.degrees()
    d = d_matrix_of(c)

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
        for z in range(n):
            if d[i, z] and (z, j) in uindex:
                a[row, uindex[(z, j)]] ^= 1
        for y in range(n):
            if d[y, j] and (i, y) in uindex:
                a[row, uindex[(i, y)]] ^= 1
    x = la.solve_f2(a, b)
    if x is None:
        return None
    h = la.f2_zeros(n, n)
    for t, (i, j) in enumerate(unknowns):
        h[i, j] = x[t]
    return h


def iota_localized_identity(c: UComplex) -> bool:
    """Does c's iota act as the identity on U-localized homology?  That
    is, is 1 + iota null-homotopic once U is inverted (any U-powers in H)."""
    rhs = iota_matrix_of(c) ^ la.f2_eye(len(c.generators))
    return homotopy_solve_oracle(c, rhs, localized=True) is not None


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


# ---------------------------------------------------------------------------
# tower reading on a window of the plus flavor


def towers_from_profile(profile: dict[int, int]):
    """Split a stable U-profile into per-parity towers.

    Returns {parity: bottom_degree}; raises if a parity's profile is not
    0...0,1,1,...,1 (a single tower)."""
    towers = {}
    for parity in (0, 1):
        degs = sorted(d for d in profile if d % 2 == parity)
        ranks = [profile[d] for d in degs]
        if any(r > 1 for r in ranks):
            raise ModelInvalidError("stabilized rank exceeds 1: multiple towers in one parity")
        nz = [d for d, r in zip(degs, ranks) if r == 1]
        if not nz:
            continue
        bottom = nz[0]
        expect = [d for d in degs if d >= bottom]
        if nz != expect:
            raise ModelInvalidError("stabilized tower has gaps")
        towers[parity] = bottom
    return towers


def elimination_tower_bottoms(c: UComplex) -> dict[int, int]:
    """The reference for UComplex.tower_bottoms by elimination over F[U]:
    repeatedly take the differential entry with the smallest U-power,
    clear its row and column by changes of basis (every other entry of
    that row or column carries a power at least as large, so each
    operation is an XOR of F2 coefficients with a non-negative forced
    U-power) and split the pair off.  The generators left unpaired sit
    at the tower bottoms."""
    degs = np.array(c.degrees(), dtype=np.int64)
    m = d_matrix_of(c).copy()
    paired = set()
    while m.any():
        rows, cols = np.nonzero(m)
        t = int(np.argmin(degs[rows] - degs[cols]))
        i, j = int(rows[t]), int(cols[t])
        for k in np.flatnonzero(m[:, j]):
            if k != i:  # x_i <- x_i + U^* x_k
                m[k] ^= m[i]
                m[:, i] ^= m[:, k]
        for col in np.flatnonzero(m[i]):
            if col != j:  # x_col <- x_col + U^* x_j
                m[:, col] ^= m[:, j]
                m[j] ^= m[col]
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


def falling_degree_tower_bottoms(c: UComplex) -> dict[int, int]:
    """The reference for the cone's interleaved tower read: one column
    reduction of d with every generator in a strict falling-degree order
    (ties by index), packed from d's coefficient matrix; the unpaired
    generators sit at the tower bottoms."""
    degs = c.degrees()
    order = sorted(range(len(degs)), key=lambda g: (-degs[g], g))
    red, _, owner = la.reduce_columns(la._pack_rows(d_matrix_of(c)[np.ix_(order, order)].T))
    towers = {}
    for parity in (0, 1):
        bottoms = [degs[g] for t, g in enumerate(order)
                   if not red[t] and t not in owner and degs[g] % 2 == parity]
        if len(bottoms) > 1:
            raise ModelInvalidError("stabilized rank exceeds 1: multiple towers in one parity")
        if bottoms:
            towers[parity] = bottoms[0]
    return towers


def window_tower_bottoms(c: UComplex) -> dict[int, int]:
    """The reference for UComplex.tower_bottoms: the stable U-profile of
    the plus flavor on the default window, read below the cut 4 degrees
    under its top."""
    lo, hi = c.default_window()
    h = Homology(c.plus_window(lo, hi))
    return towers_from_profile(h.stable_ranks("U", lo + 2, hi - 4))


# ---------------------------------------------------------------------------
# tower reading of the equivariant models on a window


def _window_bottoms(model, name: str, levels: int, below_top: int):
    """In each residue n + a of the tower step, the lowest degree with a
    nonzero stable image of `name` on the model's default window, read
    below the cut `below_top` degrees under its top (None if there is none)."""
    lo, hi = model.default_window()
    ranks = Homology(model.materialize(lo, hi)).stable_ranks(name, lo, hi - below_top)
    step, n = model.STEP, model.reducible_degree
    return tuple(
        next((d for d in ranks if (d - n - a) % step == 0 and ranks[d]), None)
        for a in range(levels)
    )


def window_pin_bottoms(model: PinModel):
    """The reference for tower_bottoms on a PinModel: (A, B, C) read from
    the stable v-images on the default window."""
    return _window_bottoms(model, "v", 3, 8)


def window_delta_bottom(model: SOneModel):
    """The reference for the bottom behind delta_invariant: read from the
    stable U-images on the default window."""
    return _window_bottoms(model, "U", 1, 4)[0]


def _with_finite(model, gens) -> dict:
    """The JSON of the model (PinModel or SOneModel) plus the finite
    generators gens, (label, degree) pairs, with every matrix padded by
    zeros."""
    data = model.to_json()
    k, n = len(data["finite"]), len(gens)
    data["finite"] += [{"label": label, "degree": d} for label, d in gens]
    for key in ("q", "v", "u", "d_fin"):
        if key in data:
            data[key] = [row + [0] * n for row in data[key]] + [[0] * (k + n) for _ in gens]
    return data


def with_acyclic_pair(model, degree: int):
    """The same model (PinModel or SOneModel) plus a pair x -> y, with x at
    `degree` and y one below; the pair has no other arrows."""
    data = _with_finite(model, [("pair_x", degree), ("pair_y", degree - 1)])
    data["d_fin"][-1][-2] = 1
    return type(model).from_json(data)


def with_isolated_generator(model, degree: int):
    """The same model (PinModel or SOneModel) plus a finite generator at
    `degree` with no arrows at all."""
    return type(model).from_json(_with_finite(model, [("lone", degree)]))


# ---------------------------------------------------------------------------
# window oracles: what the library reads from the finite part, computed on
# an explicit window


def dual_ladders(gens, maps: dict):
    """The degree-negated dual of a ladder complex: degrees and steps
    negated, every map transposed (same shift)."""
    return ([(lab, -deg, -step) for lab, deg, step in gens],
            {name: (shift, [(tgt, src, -j) for src, tgt, j in entries])
             for name, (shift, entries) in maps.items()})


@dataclass
class BorelHomology:
    """Homology of a materialized model with its induced module actions."""

    model: PinModel
    window: tuple[int, int]
    homology: Homology

    @property
    def cut(self) -> int:
        """Top degree of the stable reads: 8 below the window top."""
        return self.window[1] - 8

    def dims(self) -> dict[int, int]:
        return self.homology.dims()

    def induced_q(self, d: int) -> np.ndarray:
        return self.homology.induced_op("q", d)

    def induced_v(self, d: int) -> np.ndarray:
        return self.homology.induced_op("v", d)

    def check_module_relations(self) -> bool:
        """q^3 = 0 and qv = vq on homology, on the window interior."""
        for d in range(self.window[0] + 6, self.cut):
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


def borel_homology(model: PinModel) -> BorelHomology:
    lo, hi = model.default_window()
    return BorelHomology(model, (lo, hi), Homology(model.materialize(lo, hi)))


def window_localization(model: PinModel) -> LocalizationReport:
    """The reference for localization_check: the stable v-ranks of the
    Borel homology on the default window.  `ok` checks every degree from
    max(A, B, C) up to the cut; the pattern is the first period.  Without
    a reducible tower `ok` checks every degree up to the cut and the
    pattern is the last period."""
    bh = borel_homology(model)
    lo, cut = bh.window[0], bh.cut
    # the last four degrees use one step from just above the cut
    ranks = {**bh.homology.stable_ranks("v", lo, cut),
             **bh.homology.stable_ranks("v", cut - 3, cut + 4)}
    n = model.reducible_degree
    if n is None:
        pattern = [ranks[d] for d in range(cut - 3, cut + 1)]
        ok = all(x == 0 for x in ranks.values())
        return LocalizationReport(ok, None, pattern,
                                  "free model localizes to zero" if ok else
                                  "stable classes in a model without towers")
    top = max(tower_bottoms(model))
    pattern = [ranks[d] for d in range(top, top + 4)]
    ok = all(ranks[d] == (1 if (d - n) % 4 in (0, 1, 2) else 0) for d in range(top, cut + 1))
    return LocalizationReport(ok, n, pattern,
                              "" if ok else "stable range deviates from the tower pattern")


def _window_dual_tops(model, name: str, levels: int, below_top: int):
    """In each residue -(n + a) of the tower step, the highest degree of
    the degree-negated dual window (the model's default window negated)
    whose classes survive `name`-powers down to the dual of the stable
    cut, `below_top` degrees under the window's top."""
    n = model.reducible_degree
    if n is None:
        raise ModelInvalidError("model has no reducible tower")
    lo, hi = model.default_window()
    h = Homology(ladder_window(*dual_ladders(*model._ladders()), -hi, -lo))
    dhi, cut, step = -lo, -(hi - below_top), model.STEP
    tops = []
    for r in range(levels):
        top = None
        d = dhi - ((dhi - (-(n + r))) % step)
        while d >= cut:
            k = (d - cut) // step
            if k >= 1 and la.rank_f2(h.op_power(name, d, k)) > 0:
                top = d
                break
            d -= step
        if top is None:
            raise ModelInvalidError(f"no surviving dual tower in residue {r}")
        tops.append(top)
    return tuple(tops)


def window_coborel_tops(model: PinModel):
    """The reference for coborel_tower_tops: the tops of the three dual
    towers, read from v-powers."""
    return _window_dual_tops(model, "v", 3, 8)


def window_delta_coborel_top(model: SOneModel) -> int:
    """The one-tower analogue of window_coborel_tops: the top of the dual
    U-tower, read from U-powers.  Orientation duality puts it at minus the
    bottom behind delta_invariant, so delta(-Y) = -delta(Y)."""
    return _window_dual_tops(model, "U", 1, 4)[0]


def cone_plus_window(c: UComplex, lo: int, hi: int) -> GradedComplex:
    """The plus flavor of the cone of Q(1+iota) on [lo, hi], with
    Q (x, k) = (Qx, k)."""
    q = [(f"m:{lab}", f"q:{lab}", 0) for lab, _ in c.generators]
    cx = cone_iota(c).plus_window(lo, hi, {"Q": (-1, q)})
    # the module relation Q^2 = 0 (the window checks dQ = Qd)
    for d in cx.degrees():
        qq = la.f2_mul(cx.op_matrix("Q", d - 1), cx.op_matrix("Q", d))
        if qq.any():
            raise InternalError("Q^2 != 0 on the cone window")
    return cx


def cone_window_dims(c: UComplex):
    """Homology of the cone and of its base c on the cone's default
    window, and the interior degrees where both are exact."""
    lo, hi = cone_iota(c).default_window()
    hc = Homology(cone_plus_window(c, lo, hi))
    hb = Homology(c.plus_window(lo, hi))
    return hc, hb, range(lo + 4, hi - 2 * DEFAULT_MARGIN)


def split_dims_law(c: UComplex) -> bool:
    """dim HFI_n == dim HF_n + dim HF_{n+1} on the window interior
    (exact for split cones; an inequality <= holds in general)."""
    hc, hb, interior = cone_window_dims(c)
    return all(hc.dim(n) == hb.dim(n) + hb.dim(n + 1) for n in interior)


def cone_rank_bound(c: UComplex) -> bool:
    """Long-exact-sequence bound dim HFI_n <= dim HF_n + dim HF_{n+1}."""
    hc, hb, interior = cone_window_dims(c)
    return all(hc.dim(n) <= hb.dim(n) + hb.dim(n + 1) for n in interior)


# ---------------------------------------------------------------------------
# a fresh interpreter

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def fresh_python(script: str, *args: str) -> str:
    """The standard output of `script` run with `args` in a new interpreter
    that imports homcob from the source tree."""
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert done.returncode == 0, done.stderr
    return done.stdout
