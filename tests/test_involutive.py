import random
from fractions import Fraction

import pytest

from homcob import fixtures
from homcob.equivariant import SOneModel, delta_invariant
from homcob.errors import InputError, ModelInvalidError
from homcob.graded import Homology
from homcob.involutive import (
    ConeComplex,
    IotaMap,
    UComplex,
    cone_iota,
    d_invariant,
    involutive_correction_terms,
    iota_localized_identity,
    one_plus_iota_nullhomotopic,
    v0_inverse,
    v0_triple,
    validate_iota,
)

from helpers import (
    cone_plus_window,
    cone_rank_bound,
    dual_ucomplex,
    random_ucomplex_with_iota,
    split_dims_law,
    towers_from_profile,
    window_tower_bottoms,
    with_far_pair,
)

S3 = UComplex([("g", 0)], [])


def sigma237():
    c, iota = UComplex.from_json(fixtures.load_raw("sigma237"))
    return c, iota


# -- complex validation ------------------------------------------------------


def test_differential_power_is_forced():
    with pytest.raises(InputError):
        UComplex([("x", 0), ("y", 1)], [("x", "y", 0)])  # needs U^1


def test_differential_must_square_to_zero():
    with pytest.raises(InputError):
        UComplex(
            [("x", 2), ("y", 1), ("z", 0)],
            [("x", "y", 0), ("y", "z", 0)],
        )


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        UComplex([("x", 0), ("x", 2)], [])


def test_json_roundtrip():
    c, iota = sigma237()
    data = c.to_json(iota)
    c2, iota2 = UComplex.from_json(data)
    assert c2.generators == c.generators
    assert (c2.d_mat == c.d_mat).all()
    assert (iota2.mat == iota.mat).all()


# -- plus flavor ---------------------------------------------------------------


def test_plus_window_s3_tower():
    cx = S3.plus_window(-6, 14)
    h = Homology(cx)
    for d in range(-4, 10):
        assert h.dim(d) == (1 if d >= 0 and d % 2 == 0 else 0)


def test_plus_window_shifted():
    c = UComplex([("g", 2)], [])
    h = Homology(c.plus_window(-4, 16))
    assert h.dim(0) == 0 and h.dim(2) == 1


def test_plus_window_two_step_truncated_tower():
    c = UComplex([("x", -1), ("y", 0)], [("x", "y", 1)])
    h = Homology(c.plus_window(-7, 13))
    # direct kernel/image oracle: only the class of (x, 0) at degree -1 survives
    assert h.dim(-1) == 1
    for d in range(0, 8):
        assert h.dim(d) == 0


def test_window_validation():
    with pytest.raises(InputError):
        S3.plus_window(-6, 2)


# -- d invariant ------------------------------------------------------------------


def test_d_s3_is_zero():
    assert d_invariant(S3) == 0


def test_d_normalization_shift():
    assert d_invariant(UComplex([("g", 2)], [])) == 2


def test_d_rises_with_box():
    low = UComplex([("g", -2)], [])
    assert d_invariant(low) == -2
    boxed = UComplex(
        [("g", -2), ("a", -1), ("b", 0)],
        [("a", "g", 0), ("a", "b", 1)],
    )
    assert d_invariant(boxed) == 0


def test_d_requires_a_tower():
    killed = UComplex([("g", 0), ("x", 1)], [("x", "g", 0)])
    with pytest.raises(ModelInvalidError):
        d_invariant(killed)


def test_d_rejects_two_towers():
    c = UComplex([("g", 0), ("h", 0)], [])
    with pytest.raises(ModelInvalidError):
        d_invariant(c)


def test_d_sigma237_fixture():
    c, _ = sigma237()
    assert d_invariant(c) == 0


# -- tower bottoms by elimination against the window reader ----------------------


def both_orientations_and_cones(c, iota):
    """c, its orientation reverse, and the complexes of both cones."""
    out = []
    for base, i in ((c, iota), dual_ucomplex(c, iota)):
        out += [base, cone_iota(base, i).complex]
    return out


def test_tower_bottoms_match_window_reader_on_random_complexes():
    rng = random.Random(4242)
    for _ in range(40):
        c, iota = random_ucomplex_with_iota(rng, max_pairs=4)
        for cx in both_orientations_and_cones(c, iota):
            assert cx.tower_bottoms() == window_tower_bottoms(cx)


@pytest.mark.parametrize("offset", [50, -50, 100, 200, -400, 400])
def test_tower_bottoms_match_window_reader_with_a_far_pair(offset):
    rng = random.Random(offset)
    c, iota = random_ucomplex_with_iota(rng, max_pairs=2)
    far, far_iota = with_far_pair(c, iota, offset + rng.randint(0, 1), rng.randint(1, 3))
    for cx in both_orientations_and_cones(far, far_iota):
        assert cx.tower_bottoms() == window_tower_bottoms(cx)


def test_tower_bottoms_fixture_and_hand_built_cases():
    c, iota = sigma237()
    for cx in both_orientations_and_cones(c, iota):
        assert cx.tower_bottoms() == window_tower_bottoms(cx)
    box = UComplex([("e", 0), ("a", 0), ("b", 3)], [("a", "b", 2)])
    assert box.tower_bottoms() == window_tower_bottoms(box) == {0: 0}
    assert UComplex([("g", -3), ("h", 2)], []).tower_bottoms() == {0: 2, 1: -3}
    killed = UComplex([("g", 0), ("x", 1)], [("x", "g", 0)])
    assert killed.tower_bottoms() == window_tower_bottoms(killed) == {}


@pytest.mark.parametrize(
    "c",
    [
        UComplex([("g", 0), ("h", 0)], []),
        UComplex(
            [("e", 0), ("a", 1), ("w", 2), ("v", 0)],
            [("a", "w", 1), ("a", "v", 0)],
        ),
    ],
)
def test_two_towers_in_one_parity_rejected_like_window_reader(c):
    with pytest.raises(ModelInvalidError, match="multiple towers in one parity") as exact:
        c.tower_bottoms()
    with pytest.raises(ModelInvalidError) as window:
        window_tower_bottoms(c)
    assert str(exact.value) == str(window.value)


def test_towers_from_profile_rejects_gaps():
    with pytest.raises(ModelInvalidError, match="gaps"):
        towers_from_profile({0: 1, 2: 0, 4: 1})


# -- iota validation -----------------------------------------------------------------


def test_identity_iota_passes():
    assert validate_iota(S3, IotaMap.identity(S3))


def test_swap_iota_passes():
    c = UComplex([("x", 0), ("y", 0)], [])
    swap = IotaMap.of(c, [("x", "y", 0), ("y", "x", 0)])
    assert validate_iota(c, swap)


def test_order_three_map_fails_homotopy_check():
    c = UComplex([("x", 0), ("y", 0)], [])
    m = IotaMap.of(c, [("x", "y", 0), ("y", "x", 0), ("y", "y", 0)])
    with pytest.raises(InputError):
        validate_iota(c, m)


def test_u_power_iota_entry_unconstructible():
    with pytest.raises(InputError):
        IotaMap.of(S3, [("g", "g", 1)])


def test_non_commuting_iota_rejected():
    c = UComplex(
        [("x", 1), ("y", 0), ("z", 1)],
        [("x", "y", 0)],
    )
    m = IotaMap.of(c, [("x", "z", 0), ("z", "x", 0), ("y", "y", 0)])
    with pytest.raises(InputError):
        validate_iota(c, m)


def test_sigma237_iota_valid_but_not_null():
    c, iota = sigma237()
    assert validate_iota(c, iota)
    assert not one_plus_iota_nullhomotopic(c, iota)
    assert iota_localized_identity(c, iota)


# -- cones -------------------------------------------------------------------------------


def test_split_cone_s3():
    cone = cone_iota(S3, IotaMap.identity(S3))
    h = Homology(cone_plus_window(cone, -7, 15))
    # two towers, bottoms 0 and -1
    for d in range(-1, 9):
        assert h.dim(d) == 1
    assert h.dim(-2) == 0
    r = involutive_correction_terms(cone)
    assert r.triple() == (0, 0, 0) and r.split and not r.findings


def test_split_dims_law_for_identity_iota():
    rng = random.Random(500)
    for _ in range(10):
        c, _ = random_ucomplex_with_iota(rng, iota_identity=True)
        cone = cone_iota(c, IotaMap.identity(c))
        assert split_dims_law(cone)
        r = involutive_correction_terms(cone)
        d = d_invariant(c)
        assert r.triple() == (d, d, d)


def test_sigma237_correction_terms():
    c, iota = sigma237()
    r = involutive_correction_terms(cone_iota(c, iota))
    assert (r.d, r.d_bar, r.d_under) == (0, 0, -2)
    assert not r.split and not r.findings


def test_ordering_property_on_random_instances():
    rng = random.Random(606)
    for _ in range(40):
        c, iota = random_ucomplex_with_iota(rng)
        validate_iota(c, iota)
        assert iota_localized_identity(c, iota)
        r = involutive_correction_terms(cone_iota(c, iota))
        assert not r.findings, r.findings
        assert r.d_under <= r.d <= r.d_bar
        assert (r.d_bar - r.d) % 2 == 0 and (r.d_under - r.d) % 2 == 0


def test_cone_rank_bound():
    rng = random.Random(321)
    for _ in range(10):
        c, iota = random_ucomplex_with_iota(rng)
        assert cone_rank_bound(cone_iota(c, iota))


def test_cone_requires_valid_iota():
    c = UComplex([("x", 0), ("y", 0)], [])
    m = IotaMap.of(c, [("x", "y", 0), ("y", "x", 0), ("y", "y", 0)])
    with pytest.raises(InputError):
        cone_iota(c, m)


def test_depth_two_q_connection():
    # da = U^2 b lets the class of a survive one U-translate up, so the
    # cone kills two Q-images of the main tower: d_under = d - 4
    c = UComplex([("e", 0), ("a", 0), ("b", 3)], [("a", "b", 2)])
    assert d_invariant(c) == 0
    io = IotaMap.of(
        c, [("e", "e", 0), ("a", "a", 0), ("a", "e", 0), ("b", "b", 0)]
    )
    r = involutive_correction_terms(cone_iota(c, io))
    assert r.triple() == (0, 0, -4) and not r.findings


def test_two_towers_in_one_parity_rejected():
    # da = Uw + v chains the v-classes into a second infinite tower
    c = UComplex(
        [("e", 0), ("a", 1), ("w", 2), ("v", 0)],
        [("a", "w", 1), ("a", "v", 0)],
    )
    with pytest.raises(ModelInvalidError):
        d_invariant(c)


def test_tower_touching_iota_surfaces_findings():
    # box plus dot with iota = flip composed with e -> e + d: valid, not
    # null-homotopic, identity on localized homology, but the cone's
    # main tower extends below d; the violation is recorded, not hidden
    c = UComplex(
        [("e", 0), ("b", 0), ("a", -1), ("c", -1), ("d", 0)],
        [("b", "a", 0), ("b", "c", 0), ("a", "d", 1), ("c", "d", 1)],
    )
    io = IotaMap.of(
        c,
        [("e", "e", 0), ("e", "d", 0), ("b", "b", 0),
         ("a", "c", 0), ("c", "a", 0), ("d", "d", 0)],
    )
    assert validate_iota(c, io)
    assert iota_localized_identity(c, io)
    assert not one_plus_iota_nullhomotopic(c, io)
    r = involutive_correction_terms(cone_iota(c, io))
    assert r.findings  # ordering violation is surfaced as a finding


# -- v0 arithmetic --------------------------------------------------------------------------


def test_v0_figure_eight_values():
    c, iota = sigma237()
    r = involutive_correction_terms(cone_iota(c, iota))
    assert v0_triple(1, r) == (0, 0, 1)


def test_v0_all_zero():
    r = involutive_correction_terms(cone_iota(S3, IotaMap.identity(S3)))
    assert v0_triple(1, r) == (0, 0, 0)


def test_v0_formula_p9():
    # p = 9, d = 2 -> V0 = 1 - 1 = 0
    assert Fraction(9 - 1, 8) - Fraction(2, 2) == 0


def test_v0_requires_positive_p():
    r = involutive_correction_terms(cone_iota(S3, IotaMap.identity(S3)))
    with pytest.raises(InputError):
        v0_triple(0, r)


def test_v0_inverse_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        p = rng.randint(1, 12)
        d = Fraction(rng.randint(-8, 8), 1)
        db = d + 2 * rng.randint(0, 2)
        du = d - 2 * rng.randint(0, 2)
        base = Fraction(p - 1, 8)
        v = (base - d / 2, base - db / 2, base - du / 2)
        assert v0_inverse(p, *v) == (d, db, du)


# -- cross-module check ------------------------------------------------------------------------


def test_sigma237_d_equals_twice_delta():
    c, _ = sigma237()
    d = d_invariant(c)
    s1 = SOneModel.from_json(fixtures.load_raw("sigma237_s1"))
    assert d == 2 * delta_invariant(s1)
