import random
from fractions import Fraction

import pytest

from homcob.equivariant import (
    PinModel,
    SOneModel,
    abc,
    abc_of_reverse,
    borel_homology,
    coborel_tower_tops,
    delta_invariant,
    localization_check,
    rokhlin_check,
    tower_bottoms,
)
from homcob.errors import InputError, ModelInvalidError
from homcob.graded import Homology

from helpers import random_pin_model, random_s1_model

S3 = PinModel(0, [], [], [], [], [])
POINCARE = PinModel(2, [], [], [], [], [])
S_MINUS2 = PinModel(-2, [], [], [], [], [])

Q3 = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
Z3 = [[0] * 3] * 3
TRIPLE_KILLER = PinModel(
    0,
    [("z", 3), ("qz", 2), ("q2z", 1)],
    Q3,
    Z3,
    Z3,
    [("z", 2, 0), ("qz", 1, 0), ("q2z", 0, 0)],
)


def window_dims(model, lo, hi):
    return Homology(model.materialize(lo, hi)).dims()


def wider_window_bottoms(model, name, period, residues, grow_lo, grow_hi):
    """Tower bottoms read on a window wider than the model's own, with the
    stable cut moved up by the same amount as the top: in each residue
    class, the lowest degree with a nonzero stable image of `name`."""
    lo, hi = model.default_window()
    lo, hi = lo - grow_lo, hi + grow_hi
    ranks = Homology(model.materialize(lo, hi)).stable_ranks(name, lo, hi - 8)
    n = model.reducible_degree
    return tuple(
        next(d for d in ranks if (d - n - r) % period == 0 and ranks[d]) for r in residues
    )


# -- materialization ---------------------------------------------------------


def test_s0_dims_follow_pattern():
    dims = window_dims(S3, -4, 20)
    for d in range(0, 13):
        assert dims.get(d, 0) == (1 if d % 4 in (0, 1, 2) else 0)
    assert all(d >= 0 for d in dims)


def test_shifted_model_shifts_pattern():
    dims = window_dims(POINCARE, -4, 24)
    for d in range(2, 15):
        assert dims.get(d, 0) == (1 if (d - 2) % 4 in (0, 1, 2) else 0)
    assert dims.get(0, 0) == 0 and dims.get(1, 0) == 0


def test_window_too_small_rejected():
    with pytest.raises(InputError):
        S3.materialize(-4, 10)
    with pytest.raises(InputError):
        S3.materialize(2, 24)


def test_killer_is_consistent():
    # materialize() asserts D^2 = 0 and the q/v equivariance internally
    TRIPLE_KILLER.materialize(-8, 28)


def test_lone_tower_arrow_without_q_partner_rejected():
    with pytest.raises(InputError):
        PinModel(0, [("x", 3)], [[0]], [[0]], [[0]], [("x", 2, 0)])


def test_borel_homology_killer_drops_degree_two():
    dims = borel_homology(TRIPLE_KILLER).dims()
    for d in (0, 1, 2, 3):
        assert dims.get(d, 0) == 0
    for d in (4, 5, 6):
        assert dims.get(d, 0) == 1


def test_acyclic_pair_leaves_homology():
    plain = window_dims(S3, -8, 24)
    pair = PinModel(
        0, [("x", 5), ("y", 4)], [[0, 0]] * 2, [[0, 0]] * 2, [[0, 0], [1, 0]], []
    )
    with_pair = window_dims(pair, -8, 24)
    assert plain == with_pair


# -- tower bottoms and abc ----------------------------------------------------


def test_bottoms_s0():
    assert tower_bottoms(borel_homology(S3)) == (0, 1, 2)


def test_bottoms_s2():
    assert tower_bottoms(borel_homology(POINCARE)) == (2, 3, 4)


def test_bottoms_killer_shift():
    assert tower_bottoms(borel_homology(TRIPLE_KILLER)) == (4, 5, 6)


def test_abc_s3():
    r = abc(S3)
    assert r.triple() == (0, 0, 0) and r.mu == 0


def test_abc_poincare():
    r = abc(POINCARE)
    assert r.triple() == (1, 1, 1) and r.mu == 1


def test_abc_s_minus2():
    r = abc(S_MINUS2)
    assert r.triple() == (-1, -1, -1) and r.mu == 1


def test_abc_residues():
    for model in (S3, POINCARE, S_MINUS2, TRIPLE_KILLER):
        r = abc(model)
        assert (r.A - 2 * r.mu) % 4 == 0
        assert (r.B - 2 * r.mu - 1) % 4 == 0
        assert (r.C - 2 * r.mu - 2) % 4 == 0


def test_odd_reducible_degree_rejected():
    with pytest.raises(InputError):
        PinModel(1, [], [], [], [], [])


# -- localization ---------------------------------------------------------------


def test_localization_s0():
    rep = localization_check(S3)
    assert rep.ok and rep.anchored_at == 0


def test_localization_finite_only():
    free = PinModel(
        None, [("x", 1), ("y", 0)], [[0, 0]] * 2, [[0, 0]] * 2, [[0, 0], [1, 0]], []
    )
    rep = localization_check(free)
    assert rep.ok and rep.anchored_at is None
    assert all(x == 0 for x in rep.pattern)


def test_localization_random_models():
    rng = random.Random(2024)
    for _ in range(20):
        m = random_pin_model(rng)
        assert localization_check(m).ok


def test_tower_bottoms_requires_tower():
    free = PinModel(None, [("x", 0)], [[0]], [[0]], [[0]], [])
    with pytest.raises(ModelInvalidError):
        tower_bottoms(borel_homology(free))


# -- duality ----------------------------------------------------------------------


def test_reverse_of_poincare():
    assert abc_of_reverse(POINCARE) == (-1, -1, -1)


def test_reverse_of_s3():
    assert abc_of_reverse(S3) == (0, 0, 0)


def test_reverse_is_involution():
    rng = random.Random(77)
    for _ in range(10):
        m = random_pin_model(rng)
        a, b, g = abc(m).triple()
        ra, rb, rg = abc_of_reverse(m)
        assert (ra, rb, rg) == (-g, -b, -a)
        assert (-rg, -rb, -ra) == (a, b, g)


def test_coborel_tops_fixtures():
    assert coborel_tower_tops(S3) == (0, -1, -2)
    assert coborel_tower_tops(POINCARE) == (-2, -3, -4)


def test_coborel_tops_acyclic_stability():
    pair = PinModel(
        0, [("x", 5), ("y", 4)], [[0, 0]] * 2, [[0, 0]] * 2, [[0, 0], [1, 0]], []
    )
    assert coborel_tower_tops(pair) == coborel_tower_tops(S3)


def test_coborel_matches_negated_bottoms():
    rng = random.Random(99)
    models = [S3, POINCARE, S_MINUS2] + [random_pin_model(rng) for _ in range(8)]
    for m in models:
        A, B, C = tower_bottoms(borel_homology(m))
        assert coborel_tower_tops(m) == (-A, -B, -C)


# -- congruences / properties -------------------------------------------------------


def test_window_independence_on_random_models():
    rng = random.Random(31)
    for _ in range(50):
        m = random_pin_model(rng)
        r = abc(m)
        assert (r.A, r.B, r.C) == wider_window_bottoms(m, "v", 4, range(3), 8, 16)


def test_congruence_suite_random():
    rng = random.Random(63)
    for _ in range(30):
        m = random_pin_model(rng)
        r = abc(m)
        assert r.alpha >= r.beta >= r.gamma
        assert r.alpha % 2 == r.beta % 2 == r.gamma % 2 == r.mu


def test_monotonicity_under_acyclic_sum():
    rng = random.Random(15)
    for _ in range(8):
        m = random_pin_model(rng, max_blocks=1, conjugate=False)
        gens = list(m.finite) + [("pax", 9), ("pay", 8)]
        k = len(m.finite)
        grow = lambda mat: [
            [int(mat[i][j]) if i < k and j < k else 0 for j in range(k + 2)]
            for i in range(k + 2)
        ]
        d = grow(m.d_fin)
        d[k + 1][k] = 1  # pax -> pay
        m2 = PinModel(
            m.reducible_degree,
            gens,
            grow(m.q_op),
            grow(m.v_op),
            d,
            [(a.source, a.a, a.b) for a in m.d_to_tower],
        )
        assert abc(m2).triple() == abc(m).triple()


def test_borel_dims_match_rank_oracle():
    # independent route: dim H_d = dim C_d - rank D_d - rank D_{d+1}
    from homcob import f2linalg as la

    rng = random.Random(71)
    for m in [S3, TRIPLE_KILLER] + [random_pin_model(rng) for _ in range(6)]:
        lo, hi = m.default_window()
        cx = m.materialize(lo, hi)
        bh = borel_homology(m)
        for d in range(lo + 2, hi - 2):
            expect = (
                cx.dim(d)
                - la.rank_f2(cx.d_matrix(d))
                - la.rank_f2(cx.d_matrix(d + 1))
            )
            assert bh.homology.dim(d) == expect


def test_module_relations_on_homology():
    rng = random.Random(55)
    models = [S3, POINCARE, TRIPLE_KILLER] + [random_pin_model(rng) for _ in range(8)]
    for m in models:
        assert borel_homology(m).check_module_relations()


def test_rokhlin_values():
    assert rokhlin_check(abc(S3)) == 0
    assert rokhlin_check(abc(POINCARE)) == 1
    assert rokhlin_check(abc(S_MINUS2)) == 1  # -1 = 1 mod 2


# -- S^1 models and delta -------------------------------------------------------------


def test_delta_s0():
    assert delta_invariant(SOneModel(0, [], [], [], [])) == 0


def test_delta_shifted_poincare():
    assert delta_invariant(SOneModel(2, [], [], [], [])) == 1


def test_delta_killed_bottom():
    m = SOneModel(0, [("z", 1)], [[0]], [[0]], [("z", 0)])
    assert delta_invariant(m) == 1


def test_delta_random_window_independent():
    rng = random.Random(8)
    for _ in range(15):
        m = random_s1_model(rng)
        (bottom,) = wider_window_bottoms(m, "U", 2, [0], 4, 8)
        assert delta_invariant(m) == Fraction(bottom, 2)


def test_delta_is_half_integer_of_tower_bottom():
    rng = random.Random(12)
    for _ in range(10):
        m = random_s1_model(rng)
        d = delta_invariant(m)
        assert (2 * d) % 1 == 0
