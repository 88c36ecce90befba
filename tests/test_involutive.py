import json
import random
from fractions import Fraction

import numpy as np
import pytest

from homcob import cli, fixtures, involutive
from homcob import f2linalg as la
from homcob.equivariant import SOneModel, delta_invariant
from homcob.errors import InputError, InternalError, ModelInvalidError
from homcob.graded import Homology
from homcob.involutive import (
    IotaMap,
    UComplex,
    _forced_power,
    _homotopy_solve,
    _matrix,
    _read_entries,
    _spread,
    cone_iota,
    d_invariant,
    involutive_correction_terms,
    one_plus_iota_nullhomotopic,
    v0_triple,
    validate_iota,
)

from helpers import (
    cone_plus_window,
    cone_rank_bound,
    connected_sum,
    dual_ucomplex,
    elimination_tower_bottoms,
    falling_degree_tower_bottoms,
    homotopic_iota,
    homotopy_solve_oracle,
    iota_from_matrix,
    iota_localized_identity,
    random_fu_map,
    random_ucomplex,
    random_ucomplex_with_iota,
    split_dims_law,
    spread_ucomplex_with_iota,
    towers_from_profile,
    v0_inverse,
    window_tower_bottoms,
    with_far_pair,
)

S3 = UComplex([("g", 0)], [])


def sigma237():
    c, iota = UComplex.from_json(fixtures.load("sigma237")[0])
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


def test_forced_power_rule():
    assert _forced_power(0, 2, 0) == 1
    assert _forced_power(0, 1, -1) == 1
    assert _forced_power(0, 0, -1) is None  # parity
    assert _forced_power(2, 0, 0) is None  # would need U^-1


def test_duplicate_entries_cancel():
    c = UComplex([("x", 1), ("y", 0), ("z", 0)], [])
    entries = [("x", "y", 0), ("x", "z", 0), ("x", "y", 0), ("x", "z", 0), ("x", "z", 0)]
    # slots fall in degree, ties by index: x, y, z sit in slots 0, 1, 2
    assert _read_entries(c, entries, -1, "differential") == [1 << 2, 0, 0]
    assert _matrix(_read_entries(c, entries, -1, "differential"), c._slot).tolist() == [
        [0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert _read_entries(c, [], 0, "iota") == [0, 0, 0]
    assert _matrix(_read_entries(UComplex([], []), [], 0, "iota"), []).shape == (0, 0)
    # the same pair listed twice in a differential cancels; d = 0 then
    same = UComplex([("x", 1), ("y", 0)], [("x", "y", 0), ("x", "y", 0)])
    assert not same.d_mat.any() and same.tower_bottoms() == {1: 1, 0: 0}
    with pytest.raises(InputError, match="must have upower 0, got 1"):
        _read_entries(c, [("x", "y", 0), ("x", "y", 1)], -1, "differential")


def test_entry_reader_packs_in_slot_order():
    # generator g sits in slot slot[g]; an entry from -> to sets bit
    # slot[to] of column slot[from], and d_mat is read back in generator order
    c = UComplex([("y", 0), ("w", 2), ("x", 1), ("v", 1)], [("x", "y", 0), ("w", "v", 0)])
    assert c._order == [1, 2, 3, 0] and c._slot == [3, 0, 1, 2]
    assert c._cols == [1 << 2, 1 << 3, 0, 0]
    assert c.d_mat.tolist() == [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    iota = IotaMap.of(c, [(l, l, 0) for l, _ in c.generators] + [("x", "v", 0)])
    assert iota._complex is c and iota._cols == [1, 2 | 4, 4, 8]
    want = la.f2_eye(4)
    want[3, 2] = 1  # x -> v
    assert (iota.mat == want).all()


@pytest.mark.parametrize("big", [2**61 - 1, 2**61, 2**62, 2**63, 10**30])
def test_support_check_is_exact_beyond_int64(big):
    # degrees +-big: a difference of 2 big overflows int64 from big = 2^62
    for sign in (1, -1):
        degs = [sign * big, sign * big - 1, -sign * big, sign * big + 2]
        # from deg - 1 up to deg: U^0 at shift +1, odd at shift 0
        assert _forced_power(degs[1], degs[0], 1) == 0
        assert _forced_power(degs[1], degs[0], 0) is None
        # deg down to deg - 1 at shift -1
        assert _forced_power(degs[0], degs[1], -1) == 0
        assert _forced_power(degs[0], degs[1], 1) is None
        # deg up to deg + 2 at shift 0: U^1; not at shift 1
        assert _forced_power(degs[0], degs[3], 0) == 1
        assert _forced_power(degs[0], degs[3], 1) is None
        # the iota reader checks its support by the same rule, on d = 0,
        # where iota = 1 + (one entry) squares to the identity
        c = UComplex([(str(g), deg) for g, deg in enumerate(degs)], [])
        low, high = (2, 0) if sign > 0 else (0, 2)
        for src, tgt, ok in [(low, high, True),  # -big up to +big: U^big
                             (high, low, False),  # needs U^-big
                             (0, 3, True), (3, 0, False),  # U^1 and U^-1
                             (1, 0, False), (0, 1, False)]:  # odd differences
            mat = np.eye(4, dtype=np.uint8)
            mat[tgt, src] = 1
            if ok:
                assert validate_iota(c, iota_from_matrix(c, mat))
            else:
                with pytest.raises(InputError, match="no degree 0 entry possible"):
                    iota_from_matrix(c, mat)


def test_an_iota_read_against_another_complex_is_refused():
    # the same generators and maps, read twice: the sizes match, yet an
    # iota belongs to the complex it was read against
    rng = random.Random(3435)
    models = fixture_models() + [random_ucomplex_with_iota(rng) for _ in range(10)]
    for c, iota in models:
        other, _ = UComplex.from_json(c.to_json(iota))
        for check in (validate_iota, one_plus_iota_nullhomotopic, cone_iota,
                      involutive_correction_terms):
            with pytest.raises(InputError, match="iota was read against another complex"):
                check(other, iota)
        assert validate_iota(c, iota)
        one_plus_iota_nullhomotopic(c, iota)


def test_validate_iota_never_asks_the_u_power_rule(monkeypatch):
    # the entry reader has refused every entry without a forced power, so
    # validate_iota asks the U-power rule nothing; iota^2 = 1 here, so the
    # homotopy solve asks it nothing either
    rng = random.Random(3434)
    docs = [c.to_json(iota) for c, iota in
            [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(20)]]
    calls = []
    forced = involutive._forced_power
    monkeypatch.setattr(involutive, "_forced_power", lambda *a: calls.append(a) or forced(*a))
    for doc in docs:
        c, iota = UComplex.from_json(doc)
        n = len(c.generators)
        assert not (la.f2_mul(iota.mat, iota.mat) ^ la.f2_eye(n)).any()
        calls.clear()
        assert validate_iota(c, iota) and calls == []


def _minus_sigma237_with(edit):
    data = fixtures.load("minus_sigma237")[0]
    edit(data)
    return data


def _put(field, k, key, value):
    def edit(data):
        data[field][k][key] = value
    return edit


def _drop(field, k, key):
    def edit(data):
        del data[field][k][key]
    return edit


# minus_sigma237: e (0), a (0), b (1); differential a -> U b; iota e->e, a->a, a->e, b->b
@pytest.mark.parametrize(
    "edit, message",
    [
        (_put("differential", 0, "from", "zz"),
         "differential entry ('zz', 'b', 1) references unknown generator"),
        (_put("differential", 0, "to", "e"), "no degree -1 entry possible from 'a' to 'e'"),
        (_put("differential", 0, "upower", 0),
         "differential entry 'a'->'b' must have upower 1, got 0"),
        (_put("differential", 0, "upower", 1.0),
         "malformed u_complex input: upower must be an integer, got 1.0"),
        (_drop("differential", 0, "upower"), "u_complex missing field 'upower'"),
        (_put("iota", 0, "to", "zz"), "iota entry ('e', 'zz', 0) references unknown generator"),
        (_put("iota", 1, "to", "b"), "no degree 0 entry possible from 'a' to 'b'"),
        (_put("iota", 0, "upower", 1), "iota entry 'e'->'e' must have upower 0, got 1"),
        (_put("iota", 0, "upower", "0"),
         "malformed u_complex input: upower must be an integer, got '0'"),
        (_drop("iota", 0, "upower"), "u_complex missing field 'upower'"),
    ],
    ids=[f"{m}-{c}" for m in ("differential", "iota")
         for c in ("unknown-generator", "impossible-degree", "wrong-upower", "non-integer-upower",
                   "missing-upower")],
)
def test_entry_reader_rejects_bad_entries(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_minus_sigma237_with(edit)))
    with pytest.raises(InputError) as err:
        cli.run(["hfi", str(path)])
    assert str(err.value) == message and err.value.exit_code == 1
    assert cli.main(["hfi", str(path)]) == 1
    assert capsys.readouterr().err == f"error: InputError: {message}\n"


def _column_major_entries(c, mat, shift):
    """Nonzeros of a degree-`shift` map, column by column: the order
    `to_json` writes."""
    out = []
    for j, (src, dj) in enumerate(c.generators):
        for i, (tgt, di) in enumerate(c.generators):
            if mat[i, j]:
                out.append({"from": src, "to": tgt, "upower": (di - dj - shift) // 2})
    return out


def _entry_set(entries):
    return {(e["from"], e["to"], e["upower"]) for e in entries}


def _assert_json_roundtrip(c, iota):
    data = c.to_json(iota)
    assert data == {
        "kind": "u_complex",
        "generators": [{"label": l, "degree": d} for l, d in c.generators],
        "differential": _column_major_entries(c, c.d_mat, -1),
        "iota": _column_major_entries(c, iota.mat, 0),
    }
    c2, iota2 = UComplex.from_json(json.loads(json.dumps(data)))
    assert c2.generators == c.generators
    assert (c2.d_mat == c.d_mat).all() and (iota2.mat == iota.mat).all()
    assert json.dumps(c2.to_json(iota2)) == json.dumps(data)


def test_json_roundtrip():
    for name in fixtures.fixture_names():
        if fixtures.describe(name) == "u_complex":
            raw = fixtures.load(name)[0]
            c, iota = UComplex.from_json(raw)
            _assert_json_roundtrip(c, iota)
            data = c.to_json(iota)
            for field in ("differential", "iota"):
                assert _entry_set(data[field]) == _entry_set(raw[field])
    rng = random.Random(8080)
    for _ in range(50):
        c, iota = random_ucomplex_with_iota(rng, max_pairs=4)
        _assert_json_roundtrip(c, iota)


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
    with pytest.raises(ModelInvalidError, match="no U-tower in the plus flavor"):
        d_invariant(UComplex([], []))


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
        out += [base, cone_iota(base, i)]
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


def _agrees_with_elimination(cx):
    """tower_bottoms equals the elimination oracle, or both reject two
    towers in one parity; the towers, or None when both reject."""
    try:
        want = elimination_tower_bottoms(cx)
    except ModelInvalidError:
        with pytest.raises(ModelInvalidError, match="multiple towers in one parity"):
            cx.tower_bottoms()
        return None
    assert cx.tower_bottoms() == want
    return want


def test_tower_bottoms_match_the_elimination_oracle():
    rng = random.Random(1506)
    complexes = []
    for _ in range(60):
        complexes += both_orientations_and_cones(*random_ucomplex_with_iota(rng, max_pairs=4))
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        for _ in range(8):
            c, iota = random_ucomplex_with_iota(rng, max_pairs=3)
            far = with_far_pair(c, iota, offset + rng.randint(0, 1), rng.randint(1, 3))
            complexes += both_orientations_and_cones(*far)
    general = []
    for _ in range(400):
        c = random_ucomplex(rng)
        general += [c, dual_ucomplex(c, IotaMap.identity(c))[0]]
    outcomes = [_agrees_with_elimination(cx) for cx in complexes + general]
    assert len(outcomes) >= 1000
    assert outcomes.count(None) >= 100
    assert sum(o is not None and len(o) == 2 for o in outcomes) >= 100
    u0 = sum(any(e["upower"] == 0 for e in c.entry_list()) for c in general)
    ties = sum(len(set(c.degrees())) < len(c.degrees()) for c in general)
    assert u0 >= 100 and ties >= 100


@pytest.mark.parametrize(
    "gens, entries, towers",
    [
        # x -> y + U z: the U^0 entry pairs x with y, z carries the tower
        ([("z", 2), ("x", 1), ("y", 0)], [("x", "y", 0), ("x", "z", 1)], {0: 2}),
        # d a = b + c with deg b = deg c: one of them is paired
        ([("a", 1), ("b", 0), ("c", 0)], [("a", "b", 0), ("a", "c", 0)], {0: 0}),
        # d a1 = d a2 = b: one of a1, a2 is paired, a1 + a2 is a cycle
        ([("a1", 1), ("a2", 1), ("b", 0)], [("a1", "b", 0), ("a2", "b", 0)], {1: 1}),
        # ... and with one more generator at an odd degree, two odd towers
        ([("b", 0), ("a1", 1), ("a2", 1), ("g", -1)],
         [("a1", "b", 0), ("a2", "b", 0)], None),
    ],
)
def test_tower_bottoms_hand_built_ties_and_u0_entries(gens, entries, towers):
    cx = UComplex(gens, entries)
    assert _agrees_with_elimination(cx) == towers
    if towers is not None:
        assert window_tower_bottoms(cx) == towers


def _check_normal_form(cx):
    """The laws of UComplex.normal_form on cx: P P^-1 = 1, P is what a
    general solve of P^-1 X = 1 gives, P and P^-1 are degree-0 F[U]-maps, P d P^-1 is the pairing and nothing else, and the
    unpaired slots sit at the tower bottoms.  Returns the towers, or None
    when tower_bottoms rejects two towers in one parity."""
    n = len(cx.generators)
    degs = cx.degrees()
    p, p_inv, pairs = cx.normal_form()
    assert (la.f2_mul(p, p_inv) == la.f2_eye(n)).all()
    assert (p == la.solve_f2(p_inv, la.f2_eye(n))).all()  # back-substitution vs. a solve
    for m in (p, p_inv):
        for i, j in zip(*np.nonzero(m)):
            assert _forced_power(degs[j], degs[i], 0) is not None
    nf = la.f2_mul(la.f2_mul(p, cx.d_mat), p_inv)
    assert (nf.sum(axis=0) <= 1).all() and (nf.sum(axis=1) <= 1).all()
    assert sorted(zip(*(ix.tolist() for ix in np.nonzero(nf)))) == sorted(pairs)
    targets, sources = {i for i, _ in pairs}, {j for _, j in pairs}
    assert not targets & sources
    unpaired = [degs[s] for s in range(n) if s not in targets | sources]
    by_parity = {parity: [d for d in unpaired if d % 2 == parity] for parity in (0, 1)}
    if any(len(ds) > 1 for ds in by_parity.values()):
        with pytest.raises(ModelInvalidError, match="multiple towers in one parity"):
            cx.tower_bottoms()
        return None
    towers = {parity: ds[0] for parity, ds in by_parity.items() if ds}
    assert cx.tower_bottoms() == towers
    return towers


def test_normal_form_laws():
    rng = random.Random(1010)
    complexes = []
    for _ in range(60):
        complexes += both_orientations_and_cones(*random_ucomplex_with_iota(rng, max_pairs=4))
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        for _ in range(8):
            c, iota = random_ucomplex_with_iota(rng, max_pairs=3)
            far = with_far_pair(c, iota, offset + rng.randint(0, 1), rng.randint(1, 3))
            complexes += both_orientations_and_cones(*far)
    for _ in range(400):
        c = random_ucomplex(rng)
        complexes += [c, dual_ucomplex(c, IotaMap.identity(c))[0]]
    outcomes = [_check_normal_form(cx) for cx in complexes]
    assert len(outcomes) >= 1000
    assert outcomes.count(None) >= 100
    assert sum(o is not None and len(o) == 2 for o in outcomes) >= 100


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


# -- homotopy solves -------------------------------------------------------------


def _homotopy_systems(rng, count):
    """(complex, rhs) on random complexes, their duals and far pairs at
    +-50; rhs 1 + iota, iota^2 + 1, iota'^2 + 1 for an iota' homotopic to
    iota, a random degree-0 map and a random boundary dK + Kd."""
    systems = []
    while len(systems) < count:
        c, iota = random_ucomplex_with_iota(rng, max_pairs=4)
        sign = rng.choice((1, -1))
        far = with_far_pair(c, iota, sign * 50 + rng.randint(0, 1), rng.randint(1, 3))
        for base, i in ((c, iota), dual_ucomplex(c, iota), far):
            n = len(base.generators)
            k = random_fu_map(rng, base, 1)
            moved = homotopic_iota(rng, base, i).mat
            rhss = (
                i.mat ^ la.f2_eye(n),
                la.f2_mul(i.mat, i.mat) ^ la.f2_eye(n),
                la.f2_mul(moved, moved) ^ la.f2_eye(n),
                random_fu_map(rng, base, 0),
                la.f2_mul(base.d_mat, k) ^ la.f2_mul(k, base.d_mat),
            )
            systems += [(base, rhs) for rhs in rhss]
    return systems


def test_homotopy_solve_matches_dense_oracle():
    solved = unsolvable = nontrivial = 0
    for c, rhs in _homotopy_systems(random.Random(2718), 1500):
        h = _homotopy_solve(c, rhs)
        expected = homotopy_solve_oracle(c, rhs)
        assert (h is None) == (expected is None)
        if h is None:
            unsolvable += 1
            continue
        solved += 1
        nontrivial += bool(rhs.any())
        assert ((la.f2_mul(c.d_mat, h) ^ la.f2_mul(h, c.d_mat)) == rhs).all()
        degs = c.degrees()
        for i, j in zip(*np.nonzero(h)):
            assert _forced_power(degs[j], degs[i], 1) is not None
    assert solved + unsolvable >= 1500
    assert unsolvable >= 200 and nontrivial >= 200


def test_homotopy_solve_certifies_h(monkeypatch):
    # d x = y; the only degree +1 entry is H: y -> x, and dH + Hd = 1 for it
    c = UComplex([("x", 1), ("y", 0)], [("x", "y", 0)])
    zero, one = la.f2_zeros(2, 2), la.f2_eye(2)
    assert (_homotopy_solve(c, zero) == 0).all()
    assert (_homotopy_solve(c, one) == [[0, 1], [0, 0]]).all()
    solve = la._solve_packed

    def wrong_block_answers(cols, rhs):  # every unknown of every block flipped
        return [x ^ (1 << len(cols)) - 1 for x in solve(cols, rhs)]

    monkeypatch.setattr(la, "_solve_packed", wrong_block_answers)
    with pytest.raises(InternalError, match="dH \\+ Hd"):
        _homotopy_solve(c, one)


def test_zero_rhs_is_answered_without_a_product(monkeypatch):
    c, _ = sigma237()
    n = len(c.generators)
    calls = []
    mul = la.f2_mul
    monkeypatch.setattr(la, "f2_mul", lambda a, b: calls.append(1) or mul(a, b))
    h = _homotopy_solve(c, la.f2_zeros(n, n))
    assert h is not None and h.shape == (n, n) and not h.any()
    assert calls == []
    assert one_plus_iota_nullhomotopic(c, IotaMap.identity(c)) and calls == []


def _falling_degree_order(c):
    degs = c.degrees()
    return sorted(range(len(degs)), key=lambda g: (-degs[g], g))


def _interleaved_order(c):
    """The cone's slots: m:x in slot 2t and q:x in slot 2t + 1, for the
    generator x in slot t of c."""
    n = len(c.generators)
    return [g + half for g in _falling_degree_order(c) for half in (0, n)]


def test_one_hfi_run_reduces_each_complex_once(monkeypatch, tmp_path, capsys):
    rng = random.Random(1717)
    models = [sigma237()] + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(6)]
    models += [dual_ucomplex(*m) for m in models]
    reduce_columns = la.reduce_columns
    for k, (c, iota) in enumerate(models):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(c.to_json(iota)))
        seen = []
        monkeypatch.setattr(la, "reduce_columns",
                            lambda cols: seen.append(list(cols)) or reduce_columns(cols))
        assert cli.main(["hfi", str(path)]) == 0
        monkeypatch.setattr(la, "reduce_columns", reduce_columns)
        # d is reduced once in falling-degree order, and the cone's d (read
        # from its generator-order matrix) once in the interleaved order;
        # the other reductions are the homotopy solve's block systems
        cone = cone_iota(c, iota)
        for x, order in ((c, _falling_degree_order(c)), (cone, _interleaved_order(c))):
            want, n = x.d_mat[np.ix_(order, order)], len(order)
            # packed columns, unpacked: row t of the unpacked rows is column t
            assert sum(len(cols) == n and all(col >> n == 0 for col in cols)
                       and (la._unpack_rows(cols, n).T == want).all() for cols in seen) == 1, k
    capsys.readouterr()


@pytest.mark.parametrize("command", ["hfi", "v0"])
def test_hfi_and_v0_runs_stay_packed(monkeypatch, tmp_path, capsys, command):
    """The entry reader packs d and iota itself: an hfi or v0 run packs no
    numpy matrix and counts no cells."""
    rng = random.Random(3232)
    models = fixture_models() + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(10)]
    models += [dual_ucomplex(*m) for m in models]
    paths = []
    for k, (c, iota) in enumerate(models):
        paths.append(tmp_path / f"m{k}.json")
        paths[-1].write_text(json.dumps(c.to_json(iota)))
    calls = []
    monkeypatch.setattr(la, "_pack_rows", lambda *a: calls.append("_pack_rows"))
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append("bincount"))
    extra = ["--p", "1"] if command == "v0" else []
    for path in paths:
        assert cli.main([command, str(path), *extra]) == 0
    assert calls == []
    capsys.readouterr()


# -- cones -------------------------------------------------------------------------------


def test_split_cone_s3():
    iota = IotaMap.identity(S3)
    h = Homology(cone_plus_window(S3, iota, -7, 15))
    # two towers, bottoms 0 and -1
    for d in range(-1, 9):
        assert h.dim(d) == 1
    assert h.dim(-2) == 0
    r = involutive_correction_terms(S3, iota)
    assert r.triple() == (0, 0, 0) and one_plus_iota_nullhomotopic(S3, iota)


def test_split_dims_law_for_identity_iota():
    rng = random.Random(500)
    for _ in range(10):
        c, _ = random_ucomplex_with_iota(rng, iota_identity=True)
        iota = IotaMap.identity(c)
        assert split_dims_law(c, iota)
        r = involutive_correction_terms(c, iota)
        d = d_invariant(c)
        assert r.triple() == (d, d, d)


def test_split_cones_are_read_by_the_general_rule():
    # 1 + iota = dH + Hd makes the cone C + C[-1]: towers at d and d - 1
    rng = random.Random(77)
    split = 0
    for _ in range(60):
        c, iota = random_ucomplex_with_iota(rng, iota_identity=rng.random() < 0.3)
        for base, i in ((c, iota), dual_ucomplex(c, iota)):
            r = involutive_correction_terms(base, i)
            if one_plus_iota_nullhomotopic(base, i):
                d = int(r.d)
                assert cone_iota(base, i).tower_bottoms() == {d % 2: d, (d - 1) % 2: d - 1}
                assert r.triple() == (d, d, d)
                split += 1
    assert split >= 20


def test_homotopic_iota_gives_the_same_correction_terms():
    # cones of homotopic maps are isomorphic by x -> x + QKx
    rng = random.Random(1507)
    squares_off_identity = 0
    for _ in range(40):
        c, iota = random_ucomplex_with_iota(rng, max_pairs=4)
        moved = homotopic_iota(rng, c, iota)
        # both maps on the dual are read against the one dual complex
        dual, dual_iota = dual_ucomplex(c, iota)
        dual_moved = iota_from_matrix(dual, moved.mat.T)
        for base, i, j in ((c, iota, moved), (dual, dual_iota, dual_moved)):
            assert validate_iota(base, j)
            square = la.f2_mul(j.mat, j.mat) ^ la.f2_eye(len(base.generators))
            squares_off_identity += bool(square.any())
            want = involutive_correction_terms(base, i)
            got = involutive_correction_terms(base, j)
            assert got.triple() == want.triple()
            assert one_plus_iota_nullhomotopic(base, j) == one_plus_iota_nullhomotopic(base, i)
    assert squares_off_identity >= 10


def test_sigma237_correction_terms():
    c, iota = sigma237()
    r = involutive_correction_terms(c, iota)
    assert (r.d, r.d_bar, r.d_under) == (0, 0, -2)
    assert not one_plus_iota_nullhomotopic(c, iota)


def test_ordering_property_on_random_instances():
    rng = random.Random(606)
    for _ in range(40):
        c, iota = random_ucomplex_with_iota(rng)
        validate_iota(c, iota)
        assert iota_localized_identity(c, iota)
        r = involutive_correction_terms(c, iota)
        assert r.d_under <= r.d <= r.d_bar
        assert (r.d_bar - r.d) % 2 == 0 and (r.d_under - r.d) % 2 == 0


def test_cone_rank_bound():
    rng = random.Random(321)
    for _ in range(10):
        c, iota = random_ucomplex_with_iota(rng)
        assert cone_rank_bound(c, iota)


def test_cone_requires_valid_iota():
    c = UComplex([("x", 0), ("y", 0)], [])
    m = IotaMap.of(c, [("x", "y", 0), ("y", "x", 0), ("y", "y", 0)])
    with pytest.raises(InputError):
        cone_iota(c, m)


def fixture_models():
    """(c, iota) of every u_complex fixture."""
    return [UComplex.from_json(fixtures.load(name)[0]) for name in fixtures.fixture_names()
            if fixtures.describe(name) == "u_complex"]


def cone_suites(rng):
    """(c, iota) of the fixtures and of the random suites: random models,
    their orientation reverses, homotopic iotas, far pairs at +-50 to
    +-400 and connected sums."""
    models = fixture_models()
    for _ in range(40):
        c, iota = random_ucomplex_with_iota(rng, max_pairs=4)
        models += [(c, iota), dual_ucomplex(c, iota), (c, homotopic_iota(rng, c, iota))]
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        c, iota = random_ucomplex_with_iota(rng, max_pairs=3)
        far = with_far_pair(c, iota, offset + rng.randint(0, 1), rng.randint(1, 3))
        models += [far, dual_ucomplex(*far)]
    for _ in range(20):
        a = random_ucomplex_with_iota(rng, max_pairs=2)
        b = dual_ucomplex(*random_ucomplex_with_iota(rng, max_pairs=2))
        models += [connected_sum(*a, *b), connected_sum(*a, *dual_ucomplex(*a))]
    return models


def test_cone_differential_is_homogeneous_and_squares_to_zero():
    # cone_iota checks neither: mod 2 the square is [[d^2, 0], [iota d + d iota, d^2]],
    # zero once d is a differential and iota a chain map
    models = cone_suites(random.Random(2201))
    for c, iota in models:
        cone = cone_iota(c, iota)
        degs = cone.degrees()
        assert all(_forced_power(degs[j], degs[i], -1) is not None
                   for i, j in zip(*np.nonzero(cone.d_mat)))
        assert not la.f2_mul(cone.d_mat, cone.d_mat).any()
    assert len(models) >= 170


def test_spread_moves_bit_r_to_bit_2r():
    assert _spread(0) == 0
    for r in (0, 1, 7, 8, 15, 16, 63, 64, 1000, 4099):
        assert _spread(1 << r) == 1 << 2 * r
        assert _spread((1 << r) | 1) == (1 << 2 * r) | 1
    rng = random.Random(5)
    for bits in (1, 3, 8, 9, 25, 64, 300, 2600):
        for _ in range(20):
            x = rng.getrandbits(bits)
            assert _spread(x) == sum(1 << 2 * r for r in range(bits) if x >> r & 1)


def test_interleaved_cone_read_matches_a_falling_degree_read():
    """The cone's towers, read in its interleaved slot order, equal the
    towers of one strict falling-degree reduction of its generator-order
    matrix: on the cone suites (both orientations), and on the benchmark's
    shape with a pair 50 to 400 degrees away, in both orientations."""
    rng = random.Random(3301)
    models = cone_suites(rng)
    for pairs in (1, 3, 6, 12):
        c, iota, _ = spread_ucomplex_with_iota(rng, pairs)
        for offset in (50, -50, 120, -120, 400, -400):
            far = with_far_pair(c, iota, offset + rng.randint(0, 1), rng.randint(1, 3))
            models += [far, dual_ucomplex(*far)]
    for c, iota in models:
        cone = cone_iota(c, iota)
        assert cone.tower_bottoms() == falling_degree_tower_bottoms(cone)
        assert len(cone.tower_bottoms()) == 2
    assert len(models) >= 210


def test_correction_terms_never_square_the_cone(monkeypatch):
    rng = random.Random(2202)
    models = fixture_models() + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(50)]
    f2_mul = la.f2_mul
    for c, iota in models:
        block = cone_iota(c, iota).d_mat
        calls = []
        monkeypatch.setattr(la, "f2_mul", lambda a, b: calls.append((a, b)) or f2_mul(a, b))
        involutive_correction_terms(c, iota)
        monkeypatch.setattr(la, "f2_mul", f2_mul)
        assert calls
        assert not any(a.shape == b.shape == block.shape and (a == block).all() and (b == block).all()
                       for a, b in calls)


def test_depth_two_q_connection():
    # da = U^2 b with iota(a) = a + e: the shape of minus_sigma237 one
    # U-step deeper, so d_bar = d + 4; its dual has d_under = d - 4
    c = UComplex([("e", 0), ("a", 0), ("b", 3)], [("a", "b", 2)])
    assert d_invariant(c) == 0
    io = IotaMap.of(
        c, [("e", "e", 0), ("a", "a", 0), ("a", "e", 0), ("b", "b", 0)]
    )
    r = involutive_correction_terms(c, io)
    assert r.triple() == (0, 4, 0)
    r = involutive_correction_terms(*dual_ucomplex(c, io))
    assert r.triple() == (0, 0, -4)


def test_two_towers_in_one_parity_rejected():
    # da = Uw + v chains the v-classes into a second infinite tower
    c = UComplex(
        [("e", 0), ("a", 1), ("w", 2), ("v", 0)],
        [("a", "w", 1), ("a", "v", 0)],
    )
    with pytest.raises(ModelInvalidError):
        d_invariant(c)


def test_tower_touching_iota_reads_by_definition():
    # box plus dot with iota = flip composed with e -> e + d: valid, not
    # null-homotopic, identity on localized homology; the cone's main
    # tower extends below d, which is d_under, and no law breaks
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
    r = involutive_correction_terms(c, io)
    assert r.triple() == (0, 0, -2)


def test_connected_sum_laws():
    # Hendricks-Manolescu-Zemke: d adds, Y # -Y reads (0, 0, 0), and
    # d_under1 + d_under2 <= d_under <= d_under1 + d_bar2 <= d_bar <= d_bar1 + d_bar2
    rng = random.Random(2)

    def factor():
        c, iota = random_ucomplex_with_iota(rng)
        return dual_ucomplex(c, iota) if rng.random() < 0.5 else (c, iota)

    def terms(c, iota):
        return involutive_correction_terms(c, iota)

    nontrivial = 0
    for _ in range(300):
        y1, y2 = factor(), factor()
        r1, r2 = terms(*y1), terms(*y2)
        for (a, ra), (b, rb) in (((y1, r1), (y2, r2)), ((y2, r2), (y1, r1))):
            r = terms(*connected_sum(*a, *b))
            assert r.d == ra.d + rb.d
            assert (ra.d_under + rb.d_under <= r.d_under <= ra.d_under + rb.d_bar
                    <= r.d_bar <= ra.d_bar + rb.d_bar), (ra.triple(), rb.triple(), r.triple())
        nontrivial += r.d_bar != r.d_under
        assert terms(*connected_sum(*y1, *dual_ucomplex(*y1))).triple() == (0, 0, 0)
    assert nontrivial >= 40


def test_connected_sums_of_non_split_factors():
    # the laws of test_connected_sum_laws on sums whose factors both have
    # d_bar != d_under, where d_under1 + d_bar2 is a bound of its own
    rng = random.Random(3)
    factors = []
    while len(factors) < 40:
        c, iota = random_ucomplex_with_iota(rng)
        y = dual_ucomplex(c, iota) if rng.random() < 0.5 else (c, iota)
        r = involutive_correction_terms(*y)
        if r.d_bar != r.d_under:
            factors.append((y, r))
    pairs = list(zip(factors[::2], factors[1::2]))
    for (y1, r1), (y2, r2) in pairs:
        for (a, ra), (b, rb) in (((y1, r1), (y2, r2)), ((y2, r2), (y1, r1))):
            r = involutive_correction_terms(*connected_sum(*a, *b))
            assert r.d == ra.d + rb.d
            assert (ra.d_under + rb.d_under <= r.d_under <= ra.d_under + rb.d_bar
                    <= r.d_bar <= ra.d_bar + rb.d_bar), (ra.triple(), rb.triple(), r.triple())
    assert len(pairs) >= 20


def test_connected_sums_of_sigma237():
    # Hendricks-Manolescu-Zemke: every connected sum of copies of
    # Sigma(2,3,7) has d_bar = 0 and d_under = -2
    y = sigma237()
    minus_y = UComplex.from_json(fixtures.load("minus_sigma237")[0])
    two = connected_sum(*y, *y)
    for c, iota, want in ((*two, (0, 0, -2)), (*connected_sum(*two, *y), (0, 0, -2)),
                          (*connected_sum(*minus_y, *minus_y), (0, 2, 0)),
                          (*connected_sum(*y, *minus_y), (0, 0, 0))):
        assert involutive_correction_terms(c, iota).triple() == want


def test_broken_law_exits_3(monkeypatch, capsys):
    # a cone tower read four degrees too high puts d_under above d
    read = UComplex.tower_bottoms

    def raised_main_tower(c):
        towers = read(c)
        if len(towers) == 2:
            towers[0] += 4
        return towers

    monkeypatch.setattr(UComplex, "tower_bottoms", raised_main_tower)
    with pytest.raises(InternalError, match="ordering"):
        involutive_correction_terms(*sigma237())
    assert cli.main(["hfi", "fixtures:sigma237"]) == 3
    assert capsys.readouterr().err.startswith("error: InternalError: ordering")


@pytest.mark.parametrize("cone_bottoms, message", [
    ({0: -2, 1: -3}, "ordering"),
    ({0: -2}, "cone has 1 stabilized towers, expected 2"),
], ids=["d_bar-below-d", "one-cone-tower"])
def test_each_broken_involutive_law_raises_internal_error(monkeypatch, capsys, cone_bottoms,
                                                          message):
    """Each law of the report that can fail, broken by the cone's tower
    bottoms on Sigma(2,3,7), where d = 0: d_under is the bottom in parity
    0 and d_bar - 1 the bottom in parity 1.  A validated iota on a
    one-tower complex gives a cone with one tower in each parity, so a
    missing one is a bug, not a model error.  The mod-2 congruences hold
    by the parity key (test_ordering_property_on_random_instances)."""
    read = UComplex.tower_bottoms
    monkeypatch.setattr(UComplex, "tower_bottoms",
                        lambda c: dict(cone_bottoms) if len(read(c)) == 2 else read(c))
    with pytest.raises(InternalError, match=message):
        involutive_correction_terms(*sigma237())
    assert cli.main(["hfi", "fixtures:sigma237"]) == 3
    assert capsys.readouterr().err.startswith(f"error: InternalError: {message}")


# -- v0 arithmetic --------------------------------------------------------------------------


def test_v0_figure_eight_values():
    c, iota = sigma237()
    r = involutive_correction_terms(c, iota)
    assert v0_triple(1, r) == (0, 0, 1)


def test_v0_all_zero():
    r = involutive_correction_terms(S3, IotaMap.identity(S3))
    assert v0_triple(1, r) == (0, 0, 0)


def test_v0_formula_p9():
    # p = 9, d = 2 -> V0 = 1 - 1 = 0
    assert Fraction(9 - 1, 8) - Fraction(2, 2) == 0


def test_v0_requires_positive_p():
    r = involutive_correction_terms(S3, IotaMap.identity(S3))
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
    s1 = SOneModel.from_json(fixtures.load("sigma237_s1")[0])
    assert d == 2 * delta_invariant(s1)
