import hashlib
import importlib.util
import json
import random
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from homcob import f2linalg as la
from homcob import fixtures
from homcob.cli import parse_input, run
from homcob.errors import InputError, InternalError
from homcob.simplicial import (
    AbstractComplex,
    ChainComplexZ,
    CohomologyClass,
    _coreduce,
    bockstein_sq1,
    cohomology_basis,
    cone,
    fundamental_group,
    homology,
    is_homology_sphere,
    join,
    link_manifold_scan,
    suspension,
)
from homcob.toddcoxeter import coset_enumeration

from helpers import (
    betti_numbers,
    certified_sphere_oracle,
    coboundary_oracle,
    cochain_values,
    facets_oracle,
    greedy_reps,
    homology_oracle,
    int_dense,
    is_zero,
    link_by_full_scan,
    link_oracle,
    link_scan_oracle,
    pack_cochain,
    random_complex,
    same_class,
    sq1_oracle,
)

ROOT = Path(__file__).resolve().parents[1]

TRIANGLE_EDGE = AbstractComplex.from_facets([[1, 3, 4], [1, 2]])
BDRY_D3 = AbstractComplex.from_facets(list(combinations(range(1, 5), 3)))
BDRY_D4 = AbstractComplex.from_facets(list(combinations(range(1, 6), 4)))
TORUS7 = AbstractComplex.from_facets(
    sorted(
        {tuple(sorted([i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1])) for i in range(7)}
        | {tuple(sorted([i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1])) for i in range(7)}
    )
)
RP2 = AbstractComplex.from_facets(
    [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
     [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]]
)


# -- construction and validation ------------------------------------------


def test_worked_example_has_nine_simplices():
    assert len(TRIANGLE_EDGE.simplices) == 9
    assert TRIANGLE_EDGE.simplices == frozenset(
        {(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (3, 4), (1, 3, 4)}
    )


def test_single_vertex():
    k = AbstractComplex.from_facets([[1]])
    assert k.simplices == frozenset({(1,)})


def test_triangle_closure_has_seven_faces():
    k = AbstractComplex.from_facets([[1, 2, 3]])
    assert len(k.simplices) == 7


def test_validate_rejects_missing_face():
    with pytest.raises(InputError):
        AbstractComplex([1, 2], [(1, 2)])


def test_validate_rejects_unknown_vertex():
    with pytest.raises(InputError):
        AbstractComplex([1], [(1,), (1, 2), (2,)])


def test_validate_rejects_duplicate_vertices():
    with pytest.raises(InputError):
        AbstractComplex([1, 1], [(1,)])


# every door that takes a vertex refuses one that is not an integer, as
# from_facets does: 1.9 and True are not read as 1, nor "2" as 2
PATH = AbstractComplex.from_facets([[1, 2], [2, 3]])
NOT_AN_INTEGER = [1.9, "2", True]


@pytest.mark.parametrize("vertex", NOT_AN_INTEGER)
def test_link_refuses_a_vertex_that_is_not_an_integer(vertex):
    with pytest.raises(InputError, match="vertex must be an integer"):
        PATH.link([vertex])


@pytest.mark.parametrize("vertex", NOT_AN_INTEGER)
def test_star_refuses_a_vertex_that_is_not_an_integer(vertex):
    with pytest.raises(InputError, match="vertex must be an integer"):
        PATH.star([vertex])


@pytest.mark.parametrize("vertex", NOT_AN_INTEGER)
def test_closure_refuses_a_vertex_that_is_not_an_integer(vertex):
    with pytest.raises(InputError, match="vertex must be an integer"):
        PATH.closure([(2,), (vertex,)])


@pytest.mark.parametrize("vertex", NOT_AN_INTEGER)
def test_membership_refuses_a_vertex_that_is_not_an_integer(vertex):
    with pytest.raises(InputError, match="vertex must be an integer"):
        [vertex] in PATH  # noqa: B015


@pytest.mark.parametrize("vertex", NOT_AN_INTEGER)
def test_constructor_refuses_a_vertex_that_is_not_an_integer(vertex):
    # a vertex list and a simplex that int() would have read as 1 and 2
    other = 1 if vertex == "2" else 2
    simplices = [(1,), (2,), (1, 2)]
    with pytest.raises(InputError, match="vertex must be an integer"):
        AbstractComplex([vertex, other], simplices)
    with pytest.raises(InputError, match="vertex must be an integer"):
        AbstractComplex([1, 2], [(1,), (2,), (vertex, other)])
    assert AbstractComplex([other, 3 - other], simplices).vertices == (1, 2)


@pytest.mark.parametrize("base", NOT_AN_INTEGER)
def test_pi1_refuses_a_basepoint_that_is_not_an_integer(base):
    # int() read 1.9 and True as vertex 1, and "2" as vertex 2
    with pytest.raises(InputError, match="basepoint must be an integer"):
        fundamental_group(PATH, base)


@pytest.mark.parametrize("d", [1.5, "1", True])
def test_cohomology_basis_refuses_a_degree_that_is_not_an_integer(d):
    # 1.5 and "1" raised TypeError, and True was read as 1
    with pytest.raises(InputError, match="cohomology degree must be an integer"):
        cohomology_basis(PATH, d)


def test_cohomology_class_refuses_a_degree_or_cochain_that_is_not_an_integer():
    # dim=True was read as 1, dim=1.0 raised TypeError, and cochain=True
    # passed the type check as the int 1 (a cocycle on a point)
    point = AbstractComplex.from_facets([[1]])
    for dim in (True, 1.0, "1"):
        with pytest.raises(InputError, match="cohomology degree must be an integer"):
            CohomologyClass(point, dim, 0)
    with pytest.raises(InputError, match="cochain must be an int"):
        CohomologyClass(point, 0, True)
    assert CohomologyClass(point, 0, 1).is_zero_class() is False


# -- closure / star / link -------------------------------------------------


def test_closure_of_edge():
    assert TRIANGLE_EDGE.closure([(1, 2)]) == frozenset({(1,), (2,), (1, 2)})


def test_closure_empty():
    assert TRIANGLE_EDGE.closure([]) == frozenset()


def test_closure_of_top_simplex():
    assert len(TRIANGLE_EDGE.closure([(1, 3, 4)])) == 7


def test_star_of_vertex_4():
    assert TRIANGLE_EDGE.star((4,)) == frozenset({(4,), (1, 4), (3, 4), (1, 3, 4)})


def test_star_of_maximal_simplex():
    assert TRIANGLE_EDGE.star((1, 3, 4)) == frozenset({(1, 3, 4)})


def test_star_of_vertex_2():
    assert TRIANGLE_EDGE.star((2,)) == frozenset({(2,), (1, 2)})


def test_link_of_4_is_edge_13():
    lk = TRIANGLE_EDGE.link((4,))
    assert lk.simplices == frozenset({(1,), (3,), (1, 3)})


def test_link_of_1_is_point_and_edge():
    lk = TRIANGLE_EDGE.link((1,))
    assert lk.simplices == frozenset({(2,), (3,), (4,), (3, 4)})


def test_link_of_maximal_is_empty():
    assert TRIANGLE_EDGE.link((1, 3, 4)).simplices == frozenset()


def test_link_requires_membership():
    with pytest.raises(InputError):
        TRIANGLE_EDGE.link((2, 3))


def test_link_against_bruteforce_on_random_complexes():
    rng = random.Random(5)
    for _ in range(60):
        k = random_complex(rng, 8)
        for tau in sorted(k.simplices):
            assert k.link(tau) == link_oracle(k, tau), (k, tau)


def _scan_complexes():
    """The complexes whose links the benchmark scans, and their relatives."""
    return [
        RP2, TORUS7, BDRY_D4, suspension(RP2), suspension(suspension(RP2)),
        suspension(TORUS7), suspension(BDRY_D4),
        join(RP2, AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])),
        AbstractComplex.from_facets(list(combinations(range(1, 7), 5))),
    ]


def test_link_against_bruteforce_on_scanned_complexes():
    for k in _scan_complexes():
        for tau in k.simplices:
            assert k.link(tau) == link_oracle(k, tau), (k, tau)


def _pure_random_complex(rng: random.Random) -> AbstractComplex:
    dim = rng.randint(1, 3)
    verts = list(range(1, rng.randint(dim + 2, 8) + 1))
    facets = [rng.sample(verts, dim + 1) for _ in range(rng.randint(1, 8))]
    return AbstractComplex.from_facets(facets)


def test_scan_homology_sphere_field_matches_snf():
    rng = random.Random(23)
    complexes = _scan_complexes() + [_pure_random_complex(rng) for _ in range(80)]
    z_spheres = others = 0
    for k in complexes:
        for r in link_manifold_scan(k):
            assert r.homology_sphere == is_homology_sphere(k.link(r.simplex), r.link_dim)
            z_spheres += r.homology_sphere
            others += not r.homology_sphere
    assert z_spheres >= 100 and others >= 100


def _fixture_family():
    """Every simplicial fixture with its suspension and double suspension."""
    out = []
    for name in fixtures.fixture_names():
        if fixtures.describe(name) == "simplicial":
            k = parse_input(fixtures.load(name)[0])
            out += [k, suspension(k), suspension(suspension(k))]
    return out


def test_from_facets_equals_the_validating_constructor():
    """from_facets skips the constructor's checks: the complex it builds
    equals the one the validating constructor builds from the same closure
    on every simplicial fixture, its suspensions and random facet lists
    with isolated vertices."""
    rng = random.Random(61)
    cases = [(k.facets(), None) for k in _fixture_family()]
    for _ in range(60):
        nv = rng.randint(1, 8)
        verts = list(range(1, nv + 1))
        facets = [rng.sample(verts, rng.randint(1, min(4, nv)))
                  for _ in range(rng.randint(0, 2 * nv))]
        cases.append((facets, verts + [nv + 3]))
    for facets, verts in cases:
        closure = {t for f in facets for r in range(1, len(f) + 1)
                   for t in combinations(sorted(f), r)} | {(v,) for v in verts or ()}
        checked = AbstractComplex(sorted(t[0] for t in closure if len(t) == 1), closure)
        k = AbstractComplex.from_facets(facets, vertices=verts)
        assert k == checked
        assert type(k.vertices) is tuple and type(k.simplices) is frozenset


def test_link_by_star_index_matches_full_scan():
    circle = AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])
    complexes = _fixture_family() + [
        join(RP2, circle), join(TRIANGLE_EDGE, circle), join(BDRY_D3, circle), cone(TORUS7),
        AbstractComplex.from_facets([[1], [2, 3], [4, 5, 6]], vertices=[7]),
    ]
    links = 0
    for k in complexes:
        for s in sorted(k.simplices):
            lk = k.link(s)
            assert lk == link_by_full_scan(k, s), (k, s)
            links += 1
            for t in sorted(lk.simplices):  # links of links use the link's own index
                assert lk.link(t) == link_by_full_scan(lk, t), (k, s, t)
    assert links >= 1000


def test_certified_link_is_a_homology_sphere():
    """The law the scan's order rests on: a link the oracle recognizer
    certifies has the integral homology of a sphere, so no SNF needs to
    confirm it."""
    seen = {True: 0, False: 0, None: 0}
    for k in _fixture_family():
        scanned = k.is_pure() and k.dimension() <= 4
        reports = {r.simplex: r for r in link_manifold_scan(k)} if scanned else {}
        for s in k.simplices:
            lk = k.link(s)
            cert, hs = certified_sphere_oracle(lk), is_homology_sphere(lk, lk.dimension())
            assert cert is not True or hs, (k, s)
            seen[cert] += 1
            if s in reports:
                assert (reports[s].certified_sphere, reports[s].homology_sphere) == (cert, hs)
    assert min(seen.values()) >= 20, seen


def test_facets_match_pairwise_definition():
    circle = AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])
    complexes = _fixture_family() + [
        AbstractComplex.empty(), TRIANGLE_EDGE, join(RP2, circle), join(TRIANGLE_EDGE, circle),
        cone(TORUS7), AbstractComplex.from_facets([[1], [2, 3], [4, 5, 6]], vertices=[7]),
    ]
    complexes += [k.link(s) for k in complexes for s in k.simplices]
    for k in complexes:
        assert k.facets() == facets_oracle(k), k
    assert AbstractComplex.empty().facets() == []


# -- joins, cones, suspensions ----------------------------------------------


def test_join_of_two_s0_is_circle():
    s0 = AbstractComplex.from_facets([[0], [1]])
    circle = join(s0, s0)
    assert circle.f_vector() == [4, 4]
    h = homology(circle, "Z")
    assert h[1].free_rank == 1 and not h[1].torsion


def test_join_builds_what_the_validating_constructor_builds():
    """join, and so cone and suspension, build through
    AbstractComplex._built: the validating constructor accepts the same
    vertices and simplices and builds an equal complex."""
    rng = random.Random(3940)
    fixed = [BDRY_D3, RP2, TORUS7, TRIANGLE_EDGE, AbstractComplex.empty()]
    joins = [join(a, b) for a in fixed for b in fixed]
    for _ in range(40):
        a, b = random_complex(rng, 5), random_complex(rng, 5)
        joins += [join(a, b), cone(a), suspension(b), suspension(cone(a))]
    for j in joins:
        assert type(j.vertices) is tuple and type(j.simplices) is frozenset
        assert AbstractComplex(j.vertices, j.simplices) == j
    assert len(joins) >= 160


def test_suspension_of_bdry_d3_is_s3():
    s = suspension(BDRY_D3)
    assert is_homology_sphere(s, 3)


def test_cone_is_acyclic():
    c = cone(TORUS7)
    for g in homology(c, "Z", reduced=True):
        assert is_zero(g)


def test_suspension_shifts_reduced_homology():
    rng = random.Random(13)
    for _ in range(10):
        k = random_complex(rng, 6)
        hk = homology(k, "Z", reduced=True)
        hs = homology(suspension(k), "Z", reduced=True)
        for d, g in enumerate(hk):
            target = hs[d + 1] if d + 1 < len(hs) else None
            if target is None:
                assert is_zero(g)
            else:
                assert (g.free_rank, g.torsion) == (target.free_rank, target.torsion)
        if hs:
            assert is_zero(hs[0])


# -- homology fixtures -------------------------------------------------------


def test_bdry_d3_is_sphere():
    h = homology(BDRY_D3, "Z", reduced=True)
    assert [str(g) for g in h] == ["0", "0", "Z"]


def test_torus_homology():
    h = homology(TORUS7, "Z")
    assert str(h[0]) == "Z"
    assert h[1].free_rank == 2 and not h[1].torsion
    assert str(h[2]) == "Z"


def test_rp2_homology_integral_and_mod2():
    h = homology(RP2, "Z")
    assert h[1].free_rank == 0 and h[1].torsion == [2]
    assert str(h[2]) == "0"
    assert homology(RP2, "F2") == [1, 1, 1]


def _nonzero_composites(boundaries) -> list[int]:
    """The degrees d >= 1 where d_{d-1} d_d (d_0 the augmentation) has a
    nonzero entry, one sparse row of the product at a time."""
    bad = []
    for d in range(1, len(boundaries)):
        below = boundaries[d].rows
        for row in boundaries[d - 1].rows:
            acc: dict[int, int] = {}
            for k, x in row.items():
                for j, y in below[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            if any(acc.values()):
                bad.append(d)
                break
    return bad


def test_boundary_squares_to_zero():
    """d d = 0 on the augmented complex, a law of the face rule that the
    build does not check; one flipped sign in any degree breaks it."""
    complexes = _fixture_family() + _integer_algebra_family()
    for seed in (17, 18, 19):
        rng = random.Random(seed)
        complexes += [random_complex(rng, 9) for _ in range(40)]
    for k in complexes:
        assert _nonzero_composites(ChainComplexZ.of(k).boundaries) == [], k
    cc = ChainComplexZ.of(suspension(RP2))
    for d in range(1, len(cc.boundaries)):
        bnds = [la.IntMatrix([dict(row) for row in b.rows], b.shape) for b in cc.boundaries]
        row = bnds[d].rows[0]
        j = min(row)
        row[j] = -row[j]
        assert d in _nonzero_composites(bnds)


def _count_builds(monkeypatch):
    builds = []
    build = ChainComplexZ._build.__func__

    def counted(cls, k):
        builds.append(k)
        return build(cls, k)

    monkeypatch.setattr(ChainComplexZ, "_build", classmethod(counted))
    return builds


def test_chain_complex_is_built_once_per_complex(monkeypatch):
    builds = _count_builds(monkeypatch)
    k = suspension(RP2)
    homology(k, "Z")
    homology(k, "F2", reduced=True)
    x = cohomology_basis(k, 2)[0]
    image = bockstein_sq1(x)
    assert not image.is_zero_class() and same_class(x, x)
    assert builds == [k]
    assert ChainComplexZ.of(k) is ChainComplexZ.of(k)


def test_equal_complexes_keep_their_own_chain_complexes(monkeypatch):
    facets = [list(f) for f in suspension(RP2).facets()]
    fresh = AbstractComplex.from_facets(facets)
    want = (homology(fresh, "Z"), homology(fresh, "F2", reduced=True),
            [cochain_values(x) for x in cohomology_basis(fresh, 2)])
    builds = _count_builds(monkeypatch)
    k1, k2 = AbstractComplex.from_facets(facets), AbstractComplex.from_facets(facets)
    assert k1 == k2 and k1 is not k2
    for k in (k1, k2, k1):
        assert (homology(k, "Z"), homology(k, "F2", reduced=True),
                [cochain_values(x) for x in cohomology_basis(k, 2)]) == want
    assert builds == [k1, k2] and builds[0] is k1 and builds[1] is k2
    assert ChainComplexZ.of(k1) is not ChainComplexZ.of(k2)
    x1, x2 = cohomology_basis(k1, 2)[0], cohomology_basis(k2, 2)[0]
    assert same_class(x1, x2)


def test_same_class_needs_one_degree_and_one_complex():
    h1, h2 = cohomology_basis(RP2, 1)[0], cohomology_basis(RP2, 2)[0]
    assert len(cochain_values(h1)) != len(cochain_values(h2))
    # the boundary of the 3-simplex has 4 vertices and 4 triangles, so the
    # cochains of H^0 and H^2 have the same length
    h0, top = cohomology_basis(BDRY_D3, 0)[0], cohomology_basis(BDRY_D3, 2)[0]
    assert len(cochain_values(h0)) == len(cochain_values(top))
    for x, y in ((h1, h2), (h2, h1), (h0, top), (top, h0)):
        with pytest.raises(InputError, match="different degrees"):
            same_class(x, y)
    with pytest.raises(InputError, match="different complexes"):
        same_class(cohomology_basis(RP2, 2)[0], cohomology_basis(suspension(RP2), 2)[0])
    assert same_class(top, cohomology_basis(AbstractComplex.from_facets(
        list(combinations(range(1, 5), 3))), 2)[0])


@pytest.mark.parametrize("reduced", [False, True])
def test_integral_homology_takes_one_snf_per_kept_boundary(monkeypatch, reduced):
    """Each SNF input is the restriction of a boundary to the cells that
    _coreduce keeps, one per boundary with a nonzero kept entry, and on
    the suspension of RP^2 all of them hold fewer than a tenth of the
    entries of the whole boundaries."""
    snf = la.smith_normal_form
    taken = []

    def counted(m):
        taken.append(m)
        return snf(m)

    monkeypatch.setattr(la, "smith_normal_form", counted)
    k = suspension(RP2)
    homology(k, "Z", reduced)
    cc = ChainComplexZ.of(k)
    kept = _coreduce(cc)
    want = []
    for d, b in enumerate(cc.boundaries):
        rows = [[b.rows[i].get(j, 0) for j in kept[d + 1]] for i in kept[d]]
        if any(any(row) for row in rows):
            want.append((d, rows))
    assert len(taken) == len(want) >= 1
    for m, (d, rows) in zip(taken, want):
        assert int_dense(m) == rows
        assert m.shape[0] <= cc.boundaries[d].shape[0] and m.shape[1] <= cc.boundaries[d].shape[1]
    whole = sum(b.shape[0] * b.shape[1] for b in cc.boundaries[0 if reduced else 1:])
    assert 10 * sum(m.shape[0] * m.shape[1] for m in taken) < whole


def _integer_algebra_family():
    """The complexes whose homology the benchmark takes: RP^2, the torus,
    S^3, their suspensions, the double suspension of RP^2 and RP^2 * S^1."""
    rp2, torus, s3 = (parse_input(fixtures.load(name)[0])
                      for name in ("rp2_6", "torus7", "boundary_delta4"))
    circle = AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])
    return [rp2, torus, s3, suspension(rp2), suspension(torus), suspension(s3),
            suspension(suspension(rp2)), join(rp2, circle)]


def test_homology_matches_the_whole_boundary_oracle():
    rng = random.Random(26)
    complexes = ([random_complex(rng, 9) for _ in range(600)] + _fixture_family()
                 + _integer_algebra_family())
    for k in complexes:
        for ring in ("Z", "F2"):
            for reduced in (False, True):
                assert homology(k, ring, reduced) == homology_oracle(k, ring, reduced), (k, ring)


def test_reduction_keeps_the_euler_characteristic():
    """Each pair removed has one cell in each of two adjacent degrees, so
    the kept cells, the empty simplex in degree -1, count chi - 1."""
    rng = random.Random(27)
    complexes = ([random_complex(rng, 9) for _ in range(200)] + _fixture_family()
                 + _integer_algebra_family())
    for k in complexes:
        kept = _coreduce(ChainComplexZ.of(k))
        assert sum((-1) ** (d - 1) * len(cells) for d, cells in enumerate(kept)) \
            == k.euler_characteristic() - 1


def test_spheres_reduce_to_their_top_cell():
    for k in (BDRY_D4, suspension(BDRY_D4)):
        kept = _coreduce(ChainComplexZ.of(k))
        assert [len(cells) for cells in kept] == [0] * k.dimension() + [0, 1]


def test_homology_of_a_large_simplex_is_a_point_quickly():
    k = AbstractComplex.from_facets([list(range(13))])
    start = time.perf_counter()
    z, f2 = homology(k, "Z"), homology(k, "F2")
    assert time.perf_counter() - start < 2.0
    assert [str(g) for g in z] == ["Z"] + ["0"] * 12
    assert f2 == [1] + [0] * 12


def test_euler_characteristic_vs_betti():
    rng = random.Random(29)
    for _ in range(10):
        k = random_complex(rng, 7)
        chi = k.euler_characteristic()
        assert chi == sum((-1) ** d * b for d, b in enumerate(betti_numbers(k)))
        assert chi == sum((-1) ** d * b for d, b in enumerate(homology(k, "F2")))


# -- Bockstein ----------------------------------------------------------------


def test_bockstein_zero_class():
    zero = CohomologyClass(RP2, 1, 0)
    image = bockstein_sq1(zero)
    assert image.cochain == 0


def test_bockstein_of_a_replaced_non_cocycle_raises():
    """CohomologyClass checks its cochain when it is built; one replaced
    afterwards with a single edge, whose coboundary is odd on each
    triangle at that edge, reaches bockstein_sq1's parity law."""
    x = cohomology_basis(RP2, 1)[0]
    x.cochain = 1  # the first edge alone
    with pytest.raises(InternalError, match="integral coboundary of a mod-2 cocycle is odd"):
        bockstein_sq1(x)


def test_bockstein_rp2_generator_nonzero():
    x = cohomology_basis(RP2, 1)[0]
    image = bockstein_sq1(x)
    assert not image.is_zero_class()
    # brute force over all integral lifts: entries of the lift may be 0 or 1
    # in any pattern congruent to x; the class of (delta lift)/2 must agree
    cc = ChainComplexZ.of(RP2)
    bnd = cc.boundary(2)
    base = cochain_values(x)
    rng = random.Random(4)
    for _ in range(12):
        lift = [b + 2 * rng.randint(0, 1) * (1 if rng.random() < 0.5 else -1) for b in base]
        out = []
        for j in range(len(RP2.simplices_of_dim(2))):
            val = sum(bnd.rows[i].get(j, 0) * lift[i] for i in range(len(lift)))
            assert val % 2 == 0
            out.append((val // 2) % 2)
        other = CohomologyClass(RP2, 2, pack_cochain(out))
        assert same_class(other, image)


def _bench_family(tmp_path):
    """The input files of the integer-algebra benchmark's homology and sq1
    jobs at seed 7: the fixture complexes, relabelled, their suspensions
    and RP^2 * S^1."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    jobs = gen.make_jobs("integer-algebra", 7, ROOT / "src" / "homcob" / "data", tmp_path)
    return sorted({job["argv"][-1] for job in jobs if job["cmd"] in ("homology", "sq1")})


def _read(path):
    return parse_input(json.loads(Path(path).read_text()))


def test_cohomology_basis_matches_greedy_choice(tmp_path):
    rng = random.Random(43)
    family = _fixture_family() + [_read(p) for p in _bench_family(tmp_path)]
    for k in [RP2, TORUS7] + family + [random_complex(rng) for _ in range(300)]:
        cc = ChainComplexZ.of(k)
        for d in range(k.dimension() + 1):
            delta = coboundary_oracle(cc, d)
            n = len(cc.generators[d])
            cocycles = la.kernel_basis_f2(delta) if delta.size else list(la.f2_eye(n))
            img = la.image_basis_f2(coboundary_oracle(cc, d - 1)) if d else la.f2_zeros(n, 0)
            want = [cocycles[i] for i in greedy_reps(img, cocycles)]
            got = [cochain_values(x) for x in cohomology_basis(k, d)]
            assert got == [z.tolist() for z in want]


def test_sq1_reads_packed_rows_only_and_matches_the_dense_oracle(monkeypatch, tmp_path):
    """`homcob sq1 --dim d` for every d on every simplicial fixture, its
    two suspensions and the integer-algebra benchmark complexes, with the
    numpy GF(2) entry points made to raise: sq1 reads the packed odd rows
    alone, and its rows equal the dense oracle's."""
    paths = _bench_family(tmp_path)
    for i, k in enumerate(_fixture_family()):
        paths.append(str(tmp_path / f"family-{i}.json"))
        Path(paths[-1]).write_text(json.dumps(k.to_json()))
    cases = []
    for path in paths:
        k = _read(path)
        cases += [(path, d, sq1_oracle(k, d)) for d in range(k.dimension() + 2)]

    def numpy_entry_point(*args, **kwargs):
        raise AssertionError("a numpy GF(2) entry point was called")

    for name in ("f2_mul", "kernel_basis_f2", "pivot_columns_f2", "solve_f2", "rank_f2"):
        monkeypatch.setattr(la, name, numpy_entry_point)
    for path, d, want in cases:
        text, code = run(["sq1", "--dim", str(d), path])
        assert code == 0
        assert text.splitlines()[2:] == [f"{key}: {value}" for key, value in want]


def _copies(k, m):
    """m disjoint copies of k, copy c with its vertices shifted by c times
    one more than k's largest vertex."""
    shift = max(k.vertices) + 1
    return AbstractComplex.from_facets(
        [[v + c * shift for v in f] for c in range(m) for f in k.facets()])


BETTI_F2 = {"rp2_6": [1, 1, 1], "torus7": [1, 2, 1]}


@pytest.mark.parametrize("name", sorted(BETTI_F2))
@pytest.mark.parametrize("m", [1, 40])
def test_sq1_reduces_each_coboundary_once_whatever_the_number_of_classes(
        monkeypatch, tmp_path, name, m):
    """`homcob sq1` on m disjoint copies of a fixture has h = m or 2m
    classes, and reduces delta_d and delta_{d-1} once each: every class is
    read from those two reductions.  Its rows equal the dense oracle's."""
    k = _copies(parse_input(fixtures.load(name)[0]), m)
    path = tmp_path / "copies.json"
    path.write_text(json.dumps(k.to_json()))
    reduce_columns, calls = la.reduce_columns, []

    def counted(cols):
        calls.append(len(cols))
        return reduce_columns(cols)

    monkeypatch.setattr(la, "reduce_columns", counted)
    for d in (1, 2):
        calls.clear()
        text, code = run(["sq1", "--dim", str(d), str(path)])
        assert code == 0 and len(calls) == 2
        assert text.splitlines()[2:] == [f"{key}: {value}" for key, value in sq1_oracle(k, d)]
        assert text.splitlines()[2] == f"h_dim: {m * BETTI_F2[name][d]}"


def test_bockstein_vanishes_on_torus():
    for x in cohomology_basis(TORUS7, 1):
        assert bockstein_sq1(x).is_zero_class()


def test_bockstein_squared_zero_and_representative_independence():
    x = cohomology_basis(RP2, 1)[0]
    sq = bockstein_sq1(x)
    assert bockstein_sq1(sq).cochain == 0
    # change the representative by a coboundary of a random 0-cochain
    cc = ChainComplexZ.of(RP2)
    delta0 = coboundary_oracle(cc, 0)
    rng = random.Random(41)
    for _ in range(6):
        y = np.array([rng.randint(0, 1) for _ in range(len(RP2.vertices))], dtype=np.uint8)
        dy = la.f2_mul(delta0, y.reshape(-1, 1)).reshape(-1)
        x2 = CohomologyClass(RP2, 1, x.cochain ^ pack_cochain(dy))
        assert same_class(bockstein_sq1(x2), sq)


def test_zero_and_nonzero_0_cochains_on_every_fixture():
    """A 0-cochain is a cocycle exactly when it is constant along every
    edge, and a coboundary only when it is zero, since there are no
    (-1)-cochains: zero, all-ones, one vertex and one component's vertices
    on every simplicial fixture and its suspensions.  Every cochain of the
    top dimension is a cocycle, its coboundary matrix having no rows, and
    a coboundary when it adds nothing to the rank of the one below."""
    for k in _fixture_family():
        verts = [v for (v,) in k.simplices_of_dim(0)]
        edges = k.simplices_of_dim(1)
        component = {v: {v} for v in verts}
        for u, w in edges:
            if component[u] is not component[w]:
                merged = component[u] | component[w]
                for x in merged:
                    component[x] = merged
        picks = [set(), set(verts), {verts[0]}, {verts[-1]}, component[verts[-1]]]
        for pick in picks:
            cochain = pack_cochain([v in pick for v in verts])
            if all((u in pick) == (w in pick) for u, w in edges):
                assert CohomologyClass(k, 0, cochain).is_zero_class() == (not pick)
            else:
                with pytest.raises(InputError, match="not a cocycle"):
                    CohomologyClass(k, 0, cochain)
        top = k.dimension()
        n = len(k.simplices_of_dim(top))
        delta = coboundary_oracle(ChainComplexZ.of(k), top - 1)
        for values in (np.zeros(n, np.uint8), np.ones(n, np.uint8)):
            bounds = la.rank_f2(np.column_stack([delta, values])) == la.rank_f2(delta)
            assert CohomologyClass(k, top, pack_cochain(values)).is_zero_class() == bounds


def test_cohomology_class_rejects_a_negative_degree():
    rp2 = parse_input(fixtures.load("rp2_6")[0])
    with pytest.raises(InputError, match="cohomology degree must be non-negative, got -1"):
        CohomologyClass(rp2, -1, 0)


# (fixture, suspensions): integral homology, reduced; mod-2 Betti numbers,
# reduced; per degree, whether Sq1 of each cohomology_basis class is
# nonzero; and a digest of the basis cochains and their Sq1 cochains.
# Computed with dense integer boundaries; the sparse rows must agree.
PINNED_ANSWERS = {
    ('triangle_edge', 0): (['Z', '0', '0'], ['0', '0', '0'], [1, 0, 0], [0, 0, 0], [[False], [], []], 'e383507e7b756ff8'),
    ('triangle_edge', 1): (['Z', '0', '0', '0'], ['0', '0', '0', '0'], [1, 0, 0, 0], [0, 0, 0, 0], [[False], [], [], []], '661b120f7230c675'),
    ('triangle_edge', 2): (['Z', '0', '0', '0', '0'], ['0', '0', '0', '0', '0'], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [[False], [], [], [], []], '05f199ad56bfda42'),
    ('boundary_delta3', 0): (['Z', '0', 'Z'], ['0', '0', 'Z'], [1, 0, 1], [0, 0, 1], [[False], [], [False]], 'b50a0df357c833b2'),
    ('boundary_delta3', 1): (['Z', '0', '0', 'Z'], ['0', '0', '0', 'Z'], [1, 0, 0, 1], [0, 0, 0, 1], [[False], [], [], [False]], '88cd196ccf5ce27a'),
    ('boundary_delta3', 2): (['Z', '0', '0', '0', 'Z'], ['0', '0', '0', '0', 'Z'], [1, 0, 0, 0, 1], [0, 0, 0, 0, 1], [[False], [], [], [], [False]], '13778f6d52354430'),
    ('boundary_delta4', 0): (['Z', '0', '0', 'Z'], ['0', '0', '0', 'Z'], [1, 0, 0, 1], [0, 0, 0, 1], [[False], [], [], [False]], 'f62690b31501e118'),
    ('boundary_delta4', 1): (['Z', '0', '0', '0', 'Z'], ['0', '0', '0', '0', 'Z'], [1, 0, 0, 0, 1], [0, 0, 0, 0, 1], [[False], [], [], [], [False]], '6c3abde9d60797a1'),
    ('boundary_delta4', 2): (['Z', '0', '0', '0', '0', 'Z'], ['0', '0', '0', '0', '0', 'Z'], [1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1], [[False], [], [], [], [], [False]], '600639dab0872ff4'),
    ('torus7', 0): (['Z', 'Z + Z', 'Z'], ['0', 'Z + Z', 'Z'], [1, 2, 1], [0, 2, 1], [[False], [False, False], [False]], '21fb977e5e1e3fe2'),
    ('torus7', 1): (['Z', '0', 'Z + Z', 'Z'], ['0', '0', 'Z + Z', 'Z'], [1, 0, 2, 1], [0, 0, 2, 1], [[False], [], [False, False], [False]], '02835b8af861d416'),
    ('torus7', 2): (['Z', '0', '0', 'Z + Z', 'Z'], ['0', '0', '0', 'Z + Z', 'Z'], [1, 0, 0, 2, 1], [0, 0, 0, 2, 1], [[False], [], [], [False, False], [False]], 'f95d9b279d74c599'),
    ('rp2_6', 0): (['Z', 'Z/2', '0'], ['0', 'Z/2', '0'], [1, 1, 1], [0, 1, 1], [[False], [True], [False]], '02aa1900194ec853'),
    ('rp2_6', 1): (['Z', '0', 'Z/2', '0'], ['0', '0', 'Z/2', '0'], [1, 0, 1, 1], [0, 0, 1, 1], [[False], [], [True], [False]], '6127666ce53a7eb4'),
    ('rp2_6', 2): (['Z', '0', '0', 'Z/2', '0'], ['0', '0', '0', 'Z/2', '0'], [1, 0, 0, 1, 1], [0, 0, 0, 1, 1], [[False], [], [], [True], [False]], '9aefc151f4785e85'),
}


def _answers(k):
    sq1, cochains = [], []
    for d in range(k.dimension() + 1):
        nonzero = []
        for x in cohomology_basis(k, d):
            image = bockstein_sq1(x)
            nonzero.append(not image.is_zero_class())
            cochains += [cochain_values(x), cochain_values(image)]
        sq1.append(nonzero)
    return ([str(g) for g in homology(k, "Z")], [str(g) for g in homology(k, "Z", reduced=True)],
            homology(k, "F2"), homology(k, "F2", reduced=True), sq1,
            hashlib.sha256(json.dumps(cochains).encode()).hexdigest()[:16])


def test_answers_on_the_fixture_family_are_pinned():
    seen = {}
    for name in fixtures.fixture_names():
        if fixtures.describe(name) == "simplicial":
            k = parse_input(fixtures.load(name)[0])
            for s in range(3):
                seen[name, s] = _answers(k)
                k = suspension(k)
    assert seen == PINNED_ANSWERS


def test_bockstein_rejects_non_cocycle():
    with pytest.raises(InputError, match="not a cocycle"):
        CohomologyClass(RP2, 1, 1)  # the first edge alone


def test_classes_the_package_builds_pass_the_outside_checks(monkeypatch):
    """cohomology_basis and bockstein_sq1 build their classes without
    __post_init__; each cochain still passes it: on every fixture and its
    suspensions, CohomologyClass(k, d, x.cochain) and, for y = Sq1 x,
    CohomologyClass(k, d + 1, y.cochain) construct."""
    checks = []
    post_init = CohomologyClass.__post_init__
    monkeypatch.setattr(CohomologyClass, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    built = nonzero = 0
    for k in _fixture_family():
        for d in range(k.dimension() + 1):
            for x in cohomology_basis(k, d):
                y = bockstein_sq1(x)
                assert checks == [], (k, d)
                assert CohomologyClass(k, d, x.cochain) == x
                assert CohomologyClass(k, d + 1, y.cochain) == y
                checks.clear()
                built += 2
                nonzero += y.cochain != 0
    assert built >= 60 and nonzero >= 3


def test_cohomology_class_rejects_a_cochain_past_its_simplices():
    n1 = len(RP2.simplices_of_dim(1))
    for cochain in (1 << n1, -1, [0] * n1):
        with pytest.raises(InputError, match=f"must be an int with bits only at the {n1} 1-simplices"):
            CohomologyClass(RP2, 1, cochain)


# -- fundamental group ---------------------------------------------------------


def test_pi1_sphere_trivial():
    p = fundamental_group(BDRY_D3)
    assert coset_enumeration(p, 10) == 1


def test_pi1_rp2_order_two():
    p = fundamental_group(RP2)
    assert coset_enumeration(p, 100) == 2
    ab = p.abelianization()
    assert (ab.free_rank, ab.torsion) == (0, [2])


def test_pi1_torus_infinite_with_z2_abelianization():
    p = fundamental_group(TORUS7)
    assert coset_enumeration(p, 150) == "exceeded"
    ab = p.abelianization()
    assert (ab.free_rank, ab.torsion) == (2, [])


def test_pi1_presentation_follows_the_breadth_first_tree():
    # the octahedron: its 1-skeleton is not complete, so the tree depends on
    # the order of the search; neighbours are taken in increasing order
    square = [(1, 2), (2, 3), (3, 4), (1, 4)]
    k = AbstractComplex.from_facets([[apex, *e] for apex in (0, 5) for e in square])
    pinned = {
        None: [[1], [2], [3], [5], [1, 4], [2, 7], [3, 6, -4], [5, 7, -6]],
        1: [[-1], [-2], [1, 3], [5, -2], [4], [7], [3, 6, -4], [5, 7, -6]],
        3: [[3, -1], [4, -2], [1], [-2], [3, 6, -5], [4, 7, -5], [-6], [7]],
    }
    for base, relators in pinned.items():
        p = fundamental_group(k, base)
        assert (p.ngens, p.relators) == (7, relators)


def test_pi1_requires_connected():
    k = AbstractComplex.from_facets([[1], [2]])
    with pytest.raises(InputError):
        fundamental_group(k)


def test_pi1_names_a_bad_basepoint_before_a_disconnected_complex():
    k = AbstractComplex.from_facets([[1], [2]])
    with pytest.raises(InputError, match="basepoint 9 not a vertex"):
        fundamental_group(k, 9)
    with pytest.raises(InputError, match="complex is not connected"):
        fundamental_group(k, 2)


# the digest of the presentations below, from every basepoint, as the
# version that searched from the first vertex and then again from any
# other basepoint gave them
PI1_PRESENTATIONS = (108, "421e1557f481d175d93539d0f4c394c7bb6f687fc5aca5292f5999de0acb4391")


def test_pi1_searches_once_from_its_basepoint(monkeypatch):
    """fundamental_group checks the basepoint, then runs one breadth-first
    search from it, which also tells whether the complex is connected; on
    every simplicial fixture, its suspension and its cone, from every
    basepoint, it gives the presentations it gave with two searches."""
    roots = []
    search = AbstractComplex._search
    monkeypatch.setattr(AbstractComplex, "_search",
                        lambda k, root, edges: roots.append(root) or search(k, root, edges))
    digest, count = hashlib.sha256(), 0
    for name in fixtures.fixture_names():
        if fixtures.describe(name) != "simplicial":
            continue
        k = parse_input(fixtures.load(name)[0])
        for form, x in (("", k), ("S", suspension(k)), ("C", cone(k))):
            for base in (None, *x.vertices):
                roots.clear()
                p = fundamental_group(x, base)
                assert roots == [x.vertices[0] if base is None else base]
                digest.update(json.dumps([form + name, base, p.ngens, p.relators]).encode())
                count += 1
    assert (count, digest.hexdigest()) == PI1_PRESENTATIONS


def test_abelianization_matches_h1_on_fixtures():
    for k in (BDRY_D3, RP2, TORUS7, TRIANGLE_EDGE):
        ab = fundamental_group(k).abelianization()
        h1 = homology(k, "Z")[1]
        assert (ab.free_rank, sorted(ab.torsion)) == (h1.free_rank, sorted(h1.torsion))


# -- link scans -----------------------------------------------------------------


def test_torus_scan_all_circles():
    reports = link_manifold_scan(TORUS7)
    assert all(r.certified_sphere for r in reports)


def test_bdry_d4_scan():
    reports = link_manifold_scan(BDRY_D4, certify_pi1=True, coset_limit=50)
    for r in reports:
        assert r.homology_sphere
        if r.link_dim <= 2:
            assert r.certified_sphere
        if r.link_dim == 3:
            assert r.pi1_order == 1


def test_suspension_rp2_cone_points_fail():
    s = suspension(RP2)
    reports = link_manifold_scan(s)
    failing = [r for r in reports if r.certified_sphere is False]
    cone_points = {r.simplex for r in failing if len(r.simplex) == 1}
    assert len(cone_points) == 2  # both suspension points
    for r in failing:
        if len(r.simplex) == 1:
            lk = s.link(r.simplex)
            assert lk.euler_characteristic() == 1  # the RP^2 link


def test_scan_rejects_non_pure():
    with pytest.raises(InputError):
        link_manifold_scan(TRIANGLE_EDGE)


def _random_pure_complex_to_dim4(rng: random.Random) -> AbstractComplex:
    """A pure complex of dimension 1 to 4: random facets, or most of the
    facets of the boundary of a simplex or of a cross-polytope (all of them
    one time in three), so that many links are spheres and many are not."""
    dim = rng.randint(1, 4)
    kind = rng.randrange(3)
    if kind == 0:
        verts = list(range(1, rng.randint(dim + 2, 9) + 1))
        return AbstractComplex.from_facets(
            [rng.sample(verts, dim + 1) for _ in range(rng.randint(1, 10))])
    if kind == 1:
        sphere = list(combinations(range(1, dim + 3), dim + 1))
    else:
        sphere = [[i + (dim + 1) * b for i, b in enumerate(signs, 1)]
                  for signs in product((0, 1), repeat=dim + 1)]
    if rng.random() < 1 / 3:
        return AbstractComplex.from_facets(sphere)
    return AbstractComplex.from_facets([f for f in sphere if rng.random() < 0.8] or sphere[:1])


def _scan_or_error(scan, k, certify_pi1):
    try:
        return scan(k, certify_pi1, 50)
    except InputError as e:
        return str(e)


def test_scan_equals_the_oracle_that_recognizes_each_link_alone():
    """The inductive rule gives the LinkReport list of the oracle, which
    recognizes every link of dimension <= 2 on its own: on every fixture
    and its suspensions, on joins with a circle of their 0- and 1-skeleta
    and of those of dimension <= 2, on cones and suspensions of two
    circles and of a sphere beside a torus (links that pass every other
    test but connectedness), and on 500 random pure complexes of
    dimension 1 to 4; pi1 certified and not, with a small coset limit."""
    circle = AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])
    family = _fixture_family()
    complexes = family + [join(k, circle) for k in family if k.dimension() <= 2]
    for k1, k2 in ((circle, circle), (BDRY_D3, TORUS7)):  # k2 moved past k1's vertices
        two = AbstractComplex.from_facets(k1.facets() + [[v + 4 for v in f] for f in k2.facets()])
        complexes += [cone(two), suspension(two)]
    for k in family:
        for d in (0, 1):
            skeleton = [s for s in k.simplices if len(s) <= d + 1]
            complexes.append(join(AbstractComplex.from_facets(skeleton), circle))
    rng = random.Random(3105)
    complexes += [_random_pure_complex_to_dim4(rng) for _ in range(500)]
    seen = {True: 0, False: 0, None: 0, "pi1": 0, "error": 0}
    for k in complexes:
        for certify_pi1 in (False, True):
            got = _scan_or_error(link_manifold_scan, k, certify_pi1)
            assert got == _scan_or_error(link_scan_oracle, k, certify_pi1), (k, certify_pi1)
            if isinstance(got, str):
                seen["error"] += 1
                continue
            for r in got:
                seen[r.certified_sphere] += 1
                seen["pi1"] += r.pi1_order is not None
    assert min(seen.values()) >= 10, seen


def test_scan_takes_one_link_per_non_facet_simplex_and_no_link_of_a_link(monkeypatch):
    """A link of dimension 1 or 2 is certified from the answers for the
    larger simplices, never by taking links inside it: the scan calls
    AbstractComplex.link once on k for each simplex that is no facet."""
    calls = []
    link = AbstractComplex.link
    monkeypatch.setattr(AbstractComplex, "link",
                        lambda self, tau: calls.append((self, tau)) or link(self, tau))
    circle = AbstractComplex.from_facets([[1, 2], [2, 3], [1, 3]])
    complexes = [k for k in _fixture_family() if k.is_pure() and k.dimension() <= 4]
    complexes += _scan_complexes() + [join(TORUS7, circle)]
    for k in complexes:
        calls.clear()
        link_manifold_scan(k, True, 50)
        assert all(owner is k for owner, _ in calls), k
        assert sorted(tau for _, tau in calls) == sorted(k.simplices - set(k.facets())), k
