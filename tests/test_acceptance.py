"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with its measured time (run with -s to see them)."""

import random
import time
from fractions import Fraction
from itertools import combinations

from homcob import fixtures
from homcob.cli import _dual_rows, main
from homcob.equivariant import (
    PinModel,
    abc,
    coborel_tower_tops,
    localization_check,
    tower_bottoms,
)
from homcob.involutive import (
    IotaMap,
    UComplex,
    d_invariant,
    involutive_correction_terms,
    v0_triple,
)
from homcob.knot import (
    SeifertMatrix,
    alexander,
    arf,
    corollary_predicate,
    fox_milnor_obstruction,
    signature,
)
from homcob.simplicial import (
    AbstractComplex,
    bockstein_sq1,
    cohomology_basis,
    homology,
    suspension,
)
from homcob.toddcoxeter import coset_enumeration
from homcob.simplicial import GroupPresentation

from helpers import (
    coxeter_sn,
    iota_localized_identity,
    is_zero,
    random_complex,
    random_pin_model,
    random_ucomplex_with_iota,
    scramble_presentation,
    split_dims_law,
    spread_ucomplex_with_iota,
    window_coborel_tops,
    window_localization,
)


def _report(num, label, elapsed, budget):
    line = f"ACCEPTANCE {num:02d} PASS  {label}  ({elapsed * 1000:.1f} ms, budget {budget})"
    print(line)
    return line


def _best_of(fn, n=5):
    best = float("inf")
    out = None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_acceptance_01_link_example():
    k = AbstractComplex.from_facets([[1, 3, 4], [1, 2]])
    (lk4, lk1), elapsed = _best_of(lambda: (k.link((4,)), k.link((1,))))
    assert lk4.simplices == frozenset({(1,), (3,), (1, 3)})
    assert lk1.simplices == frozenset({(2,), (3,), (4,), (3, 4)})
    assert elapsed < 0.001
    _report(1, "link of {4} and {1} in the worked example", elapsed, "<1ms")


def test_acceptance_02_abc_fixtures():
    s3 = PinModel(0, [], [], [], [], [])
    r1, t1 = _best_of(lambda: abc(s3), n=3)
    assert r1.triple() == (0, 0, 0) and r1.mu == 0
    poincare = PinModel(2, [], [], [], [], [])
    r2, t2 = _best_of(lambda: abc(poincare), n=3)
    assert r2.triple() == (1, 1, 1) and r2.mu == 1
    assert t1 < 0.1 and t2 < 0.1
    _report(2, "alpha/beta/gamma of the S^0 and S^2 models", max(t1, t2), "<100ms each")


def test_acceptance_03_duality():
    t0 = time.perf_counter()
    for n in (0, 2, -2):
        m = PinModel(n, [], [], [], [], [])
        r = abc(m)
        rows = dict(_dual_rows(None, m))
        assert (rows["alpha_reverse"], rows["beta_reverse"], rows["gamma_reverse"]) == (
            -r.gamma, -r.beta, -r.alpha)
        A, B, C = tower_bottoms(m)
        assert coborel_tower_tops(m) == window_coborel_tops(m) == (-A, -B, -C)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, "orientation-reversal formulas on S^0, S^2, S^-2", elapsed, "<1s")


def test_acceptance_04_involutive_fixture():
    t0 = time.perf_counter()
    c, iota = UComplex.from_json(fixtures.load("sigma237")[0])
    rep = involutive_correction_terms(c, iota)
    assert (rep.d, rep.d_bar, rep.d_under) == (0, 0, -2)
    assert v0_triple(1, rep) == (0, 0, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, "surgery fixture d=0, d_bar=0, d_under=-2; V-triple (0,0,1)", elapsed, "<1s")


def test_acceptance_05_split_cone_law():
    rng = random.Random(1205)
    t0 = time.perf_counter()
    for _ in range(25):
        c, _ = random_ucomplex_with_iota(rng, iota_identity=True)
        assert len(c.generators) <= 8
        iota = IotaMap.identity(c)
        assert split_dims_law(c, iota)
        rep = involutive_correction_terms(c, iota)
        d = d_invariant(c)
        assert rep.triple() == (d, d, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, "split-cone law on 25 random complexes with iota = id", elapsed, "<10s")


def test_acceptance_06_ordering():
    rng = random.Random(1206)
    t0 = time.perf_counter()
    for _ in range(100):
        c, iota = random_ucomplex_with_iota(rng)
        assert iota_localized_identity(c, iota)
        rep = involutive_correction_terms(c, iota)
        assert rep.d_under <= rep.d <= rep.d_bar
        assert (rep.d_bar - rep.d) % 2 == 0 and (rep.d_under - rep.d) % 2 == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "d_under <= d <= d_bar and congruences on 100 random cones", elapsed, "<60s")


def test_acceptance_07_localization():
    rng = random.Random(1207)
    t0 = time.perf_counter()
    for i in range(50):
        with_tower = i % 5 != 4
        m = random_pin_model(rng, with_tower=with_tower)
        rep = localization_check(m)
        assert rep.ok and rep == window_localization(m)
        if not with_tower:
            assert rep.anchored_at is None and all(x == 0 for x in rep.pattern)
        else:
            assert rep.anchored_at == m.reducible_degree
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, "localization pattern on 50 random models", elapsed, "<30s")


def test_acceptance_08_congruence_suite():
    rng = random.Random(1208)
    t0 = time.perf_counter()
    models = [
        PinModel(0, [], [], [], [], []),
        PinModel(2, [], [], [], [], []),
        PinModel(-2, [], [], [], [], []),
    ] + [random_pin_model(rng) for _ in range(50)]
    for m in models:
        r = abc(m)
        assert r.alpha >= r.beta >= r.gamma
        assert r.alpha % 2 == r.beta % 2 == r.gamma % 2 == r.mu
    elapsed = time.perf_counter() - t0
    _report(8, "congruence and ordering on fixtures plus 50 random models", elapsed, "exact")


def test_acceptance_09_simplicial_suite():
    t0 = time.perf_counter()
    torus = AbstractComplex.from_facets(
        sorted(
            {tuple(sorted([i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1])) for i in range(7)}
            | {tuple(sorted([i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1])) for i in range(7)}
        )
    )
    h1 = homology(torus, "Z")[1]
    assert h1.free_rank == 2 and not h1.torsion
    rp2 = AbstractComplex.from_facets(
        [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 2, 6],
         [2, 3, 5], [3, 4, 6], [2, 4, 5], [3, 5, 6], [2, 4, 6]]
    )
    h1 = homology(rp2, "Z")[1]
    assert h1.free_rank == 0 and h1.torsion == [2]
    gen = cohomology_basis(rp2, 1)[0]
    assert not bockstein_sq1(gen).is_zero_class()
    rng = random.Random(1209)
    for _ in range(25):
        k = random_complex(rng, 7)
        hk = homology(k, "Z", reduced=True)
        hs = homology(suspension(k), "Z", reduced=True)
        for d, g in enumerate(hk):
            up = hs[d + 1] if d + 1 < len(hs) else None
            if up is None:
                assert is_zero(g)
            else:
                assert (g.free_rank, g.torsion) == (up.free_rank, up.torsion)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, "torus H1, RP^2 torsion and Sq^1, suspension shift x25", elapsed, "<30s")


def test_acceptance_10_pi1_certification():
    p = GroupPresentation(2, [[1, 1, 1, -2, -2, -2, -2, -2], [1, 1, 1, -1, -2, -1, -2]])
    order, elapsed = _best_of(lambda: coset_enumeration(p, 500), n=3)
    assert order == 120
    assert elapsed < 1.0
    _report(10, "binary icosahedral order 120 with cap 500", elapsed, "<1s")


def test_acceptance_11_knot_suite():
    fig8 = SeifertMatrix([[1, 1], [0, -1]])

    def compute():
        return (
            signature(fig8),
            alexander(fig8),
            arf(alexander(fig8)),
        )

    (sig, poly, arf_val), elapsed = _best_of(compute)
    assert sig == 0
    assert arf_val == 1
    assert abs(poly(-1)) == 5
    assert fox_milnor_obstruction(poly) == "obstructed"
    assert corollary_predicate(sig, arf_val) is True
    assert elapsed < 0.01
    _report(11, "figure-eight: sigma 0, Arf 1, |Delta(-1)|=5, obstructed", elapsed, "<10ms")


def test_acceptance_12_out_of_reach_documented():
    import os

    t0 = time.perf_counter()
    assert main(["abc", "fixtures:sigma_2_3_11"]) == 2
    readme_path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    readme = open(readme_path, encoding="utf-8").read()
    assert "sigma_2_3_11" in readme
    assert "beta" in readme.lower()
    elapsed = time.perf_counter() - t0
    _report(12, "placeholder fixture refuses with exit 2 and is documented", elapsed, "exact")


def test_acceptance_13_s7_coset_table():
    p = scramble_presentation(random.Random(7), coxeter_sn(7))
    order, elapsed = _best_of(lambda: coset_enumeration(p, 20000), n=3)
    assert order == 5040
    assert elapsed < 2.0
    _report(13, "scrambled S7 order 5040 with cap 20000", elapsed, "<2s")


def test_acceptance_14_hfi_at_scale():
    rng = random.Random(1214)
    c, iota, d = spread_ucomplex_with_iota(rng, 80)
    assert len(c.generators) == 161
    rep, elapsed = _best_of(lambda: involutive_correction_terms(c, iota), n=3)
    assert rep.d == d
    assert elapsed < 0.5
    _report(14, "hfi on a 161-generator model", elapsed, "<0.5s")
    big, big_iota, big_d = spread_ucomplex_with_iota(rng, 160)
    assert len(big.generators) == 321
    t0 = time.perf_counter()
    assert involutive_correction_terms(big, big_iota).d == big_d
    _report(14, "hfi on a 321-generator model", time.perf_counter() - t0, "completes")


def test_acceptance_15_hfi_at_641_generators():
    rng = random.Random(1214)
    for pairs in (80, 160):  # the models of row 14 come first from this seed
        spread_ucomplex_with_iota(rng, pairs)
    c, iota, d = spread_ucomplex_with_iota(rng, 320)
    assert len(c.generators) == 641
    rep, elapsed = _best_of(lambda: involutive_correction_terms(c, iota), n=3)
    assert rep.d == d
    assert elapsed < 0.5
    _report(15, "hfi on a 641-generator model", elapsed, "<0.5s")


def test_acceptance_16_hfi_at_1281_generators():
    rng = random.Random(1214)
    for pairs in (80, 160, 320):  # the models of rows 14 and 15 come first from this seed
        spread_ucomplex_with_iota(rng, pairs)
    c, iota, d = spread_ucomplex_with_iota(rng, 640)
    assert len(c.generators) == 1281
    rep, elapsed = _best_of(lambda: involutive_correction_terms(c, iota), n=3)
    assert rep.d == d
    assert elapsed < 0.8
    _report(16, "hfi on a 1281-generator model", elapsed, "<0.8s")
