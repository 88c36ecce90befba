"""Deterministic random generators shared by the test suite.

Valid models are built as direct sums of elementary blocks whose
consistency is forced by construction, then disguised by conjugating
with random degree-respecting automorphisms: the computations under
test see dense matrices, while validity is guaranteed.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from homcob import f2linalg as la
from homcob.equivariant import PinModel, SOneModel
from homcob.errors import ModelInvalidError
from homcob.graded import Homology
from homcob.involutive import IotaMap, UComplex, _forced_power
from homcob.simplicial import AbstractComplex


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
    n = p.shape[0]
    cols = []
    eye = la.f2_eye(n)
    for j in range(n):
        x = la.solve_f2(p, eye[:, j])
        assert x is not None, "matrix not invertible"
        cols.append(x)
    return np.stack(cols, axis=1)


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
# simplicial


def random_complex(rng: random.Random, max_vertices: int = 8) -> AbstractComplex:
    nv = rng.randint(1, max_vertices)
    verts = list(range(1, nv + 1))
    facets = []
    for _ in range(rng.randint(1, 2 * nv)):
        size = rng.randint(1, min(4, nv))
        facets.append(rng.sample(verts, size))
    return AbstractComplex.from_facets(facets, vertices=verts)


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
            block = {}
            for alpha in range(a0 + 1):
                for j in range(depth + 1):
                    block[(alpha, j)] = fresh(n + 4 * (depth - j) + (a0 - alpha) + 1)
            for (alpha, j), name in block.items():
                if alpha < a0:
                    q_entries.append((name, block[(alpha + 1, j)]))
                if j < depth:
                    v_entries.append((name, block[(alpha, j + 1)]))
                arrows.append((name, a0 - alpha, depth - j))

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

    return PinModel(n, gens, qm, vm, dm, arrows)


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
            block = [fresh(n + 2 * (depth - j) + 1) for j in range(depth + 1)]
            for j, name in enumerate(block):
                if j < depth:
                    u_entries.append((name, block[j + 1]))
                arrows.append((name, depth - j))
    m = len(gens)
    index = {name: i for i, (name, _) in enumerate(gens)}
    um = la.f2_zeros(m, m)
    dm = la.f2_zeros(m, m)
    for src, tgt in u_entries:
        um[index[tgt], index[src]] = 1
    for src, tgt in d_entries:
        dm[index[tgt], index[src]] = 1
    return SOneModel(n, gens, um, dm, arrows)


# ---------------------------------------------------------------------------
# involutive inputs


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
    gens = [("e", d_tower)]
    entries = []
    pairs = []
    for i in range(rng.randint(0, max_pairs)):
        m = rng.randint(1, 2)
        dx = rng.randint(-3, 4)
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
        dmat = la.f2_mul(la.f2_mul(p, c.d_mat), pinv)
        iota = la.f2_mul(la.f2_mul(p, iota), pinv)
        c2 = UComplex(gens, [])
        c2.d_mat = dmat
        assert not la.f2_mul(dmat, dmat).any()
        c = c2
    return c, IotaMap(iota)


def dual_ucomplex(c: UComplex, iota: IotaMap):
    """The orientation reverse: degrees negated, d and iota transposed."""
    gens = [(l, -d) for l, d in c.generators]
    dual = UComplex(gens, [(e["to"], e["from"], e["upower"]) for e in c.entry_list()])
    return dual, IotaMap(iota.mat.T.copy())


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


def with_far_pair(c: UComplex, iota: IotaMap, degree: int, upower: int):
    """c plus an acyclic-over-U pair x -> U^upower y with x at `degree`,
    iota extended by the identity on the pair."""
    gens = list(c.generators) + [("far_x", degree), ("far_y", degree - 1 + 2 * upower)]
    entries = [(e["from"], e["to"], e["upower"]) for e in c.entry_list()]
    big = UComplex(gens, entries + [("far_x", "far_y", upower)])
    n = len(c.generators)
    mat = la.f2_eye(n + 2)
    mat[:n, :n] = iota.mat
    return big, IotaMap(mat)


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


def window_tower_bottoms(c: UComplex) -> dict[int, int]:
    """The reference for UComplex.tower_bottoms: the stable U-profile of
    the plus flavor on the default window, read below the cut 4 degrees
    under its top."""
    lo, hi = c.default_window()
    h = Homology(c.plus_window(lo, hi))
    return towers_from_profile(h.stable_ranks("U", lo + 2, hi - 4))
