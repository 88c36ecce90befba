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
    UComplex,
    _forced_power,
    _homotopy_solve,
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
    cols_matrix,
    connected_sum,
    d_matrix_of,
    dual_ucomplex,
    elimination_tower_bottoms,
    falling_degree_tower_bottoms,
    homotopic_iota,
    homotopy_solve_oracle,
    iota_localized_identity,
    iota_matrix_of,
    matrix_cols,
    random_fu_map,
    random_ucomplex,
    random_ucomplex_with_iota,
    split_dims_law,
    spread_ucomplex_with_iota,
    towers_from_profile,
    v0_inverse,
    window_tower_bottoms,
    with_far_pair,
    with_identity_iota,
    with_iota,
)

S3 = UComplex([("g", 0)], [])


def sigma237():
    return UComplex.from_json(fixtures.load("sigma237")[0])


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
    # generators fall in degree, ties in input order: x, y, z are 0, 1, 2
    assert _read_entries(c, entries, -1, "differential") == [1 << 2, 0, 0]
    assert cols_matrix(_read_entries(c, entries, -1, "differential")).tolist() == [
        [0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert _read_entries(c, [], 0, "iota") == [0, 0, 0]
    empty = UComplex([], [])
    assert cols_matrix(_read_entries(empty, [], 0, "iota")).shape == (0, 0)
    # the same pair listed twice in a differential cancels; d = 0 then
    same = UComplex([("x", 1), ("y", 0)], [("x", "y", 0), ("x", "y", 0)])
    assert not d_matrix_of(same).any() and same.tower_bottoms() == {1: 1, 0: 0}
    with pytest.raises(InputError, match="must have upower 0, got 1"):
        _read_entries(c, [("x", "y", 0), ("x", "y", 1)], -1, "differential")


def test_generators_are_stored_in_falling_degree():
    # ties keep their input position; an entry from -> to sets bit
    # index[to] of column index[from]
    c = UComplex([("y", 0), ("w", 2), ("x", 1), ("v", 1)], [("x", "y", 0), ("w", "v", 0)])
    assert c.generators == [("w", 2), ("x", 1), ("v", 1), ("y", 0)]
    assert c.index == {"w": 0, "x": 1, "v": 2, "y": 3} and c.degrees() == [2, 1, 1, 0]
    assert c._cols == [1 << 2, 1 << 3, 0, 0]
    assert d_matrix_of(c).tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert [g["label"] for g in c.to_json()["generators"]] == ["w", "x", "v", "y"]
    with_x_to_v = UComplex(c.generators, [("x", "y", 0), ("w", "v", 0)],
                           [(l, l, 0) for l, _ in c.generators] + [("x", "v", 0)])
    assert with_x_to_v._cols == c._cols and with_x_to_v._iota == [1, 2 | 4, 4, 8]
    want = la.f2_eye(4)
    want[2, 1] = 1  # x -> v
    assert (iota_matrix_of(with_x_to_v) == want).all()


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
            mat[c.index[str(tgt)], c.index[str(src)]] = 1
            if ok:
                assert validate_iota(with_iota(c, mat))
            else:
                with pytest.raises(InputError, match="no degree 0 entry possible"):
                    with_iota(c, mat)


@pytest.mark.parametrize("entry_point", [validate_iota, one_plus_iota_nullhomotopic, cone_iota,
                                         involutive_correction_terms])
def test_a_complex_without_iota_is_refused_first(entry_point):
    # the missing iota is named before any other check, though the last
    # two complexes have no single tower
    no_iota = {k: v for k, v in fixtures.load("sigma237")[0].items() if k != "iota"}
    for c in (UComplex.from_json(no_iota), S3, UComplex([], []),
              UComplex([("a", 0), ("b", 0)], [])):
        assert c._iota is None and "iota" not in c.to_json()
        with pytest.raises(InputError) as err:
            entry_point(c)
        assert str(err.value) == "u_complex input needs an 'iota' field for this command"


def test_validate_iota_never_asks_the_u_power_rule(monkeypatch):
    # the entry reader has refused every entry without a forced power, so
    # validate_iota asks the U-power rule nothing; iota^2 = 1 here, so the
    # homotopy solve asks it nothing either
    rng = random.Random(3434)
    docs = [random_ucomplex_with_iota(rng, max_pairs=4).to_json() for _ in range(20)]
    calls = []
    forced = involutive._forced_power
    monkeypatch.setattr(involutive, "_forced_power", lambda *a: calls.append(a) or forced(*a))
    for doc in docs:
        c = UComplex.from_json(doc)
        n = len(c.generators)
        mat = iota_matrix_of(c)
        assert not (la.f2_mul(mat, mat) ^ la.f2_eye(n)).any()
        calls.clear()
        assert validate_iota(c) and calls == []


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


def _assert_json_roundtrip(c):
    data = c.to_json()
    want = {
        "kind": "u_complex",
        "generators": [{"label": l, "degree": d} for l, d in c.generators],
        "differential": _column_major_entries(c, d_matrix_of(c), -1),
    }
    if c._iota is not None:
        want["iota"] = _column_major_entries(c, iota_matrix_of(c), 0)
    assert data == want
    c2 = UComplex.from_json(json.loads(json.dumps(data)))
    assert c2.generators == c.generators
    assert (d_matrix_of(c2) == d_matrix_of(c)).all()
    assert c2._iota == c._iota
    assert json.dumps(c2.to_json()) == json.dumps(data)


def test_json_roundtrip():
    for name in fixtures.fixture_names():
        if fixtures.describe(name) == "u_complex":
            raw = fixtures.load(name)[0]
            c = UComplex.from_json(raw)
            _assert_json_roundtrip(c)
            data = c.to_json()
            for field in ("differential", "iota"):
                assert _entry_set(data[field]) == _entry_set(raw[field])
            # without iota; an empty one, iota = 0, is refused when it is
            # read, since iota^2 = 0 is not homotopic to the identity
            bare = UComplex.from_json({k: v for k, v in raw.items() if k != "iota"})
            assert bare._iota is None and "iota" not in bare.to_json()
            _assert_json_roundtrip(bare)
            with pytest.raises(InputError, match="iota\\^2 is not chain homotopic"):
                UComplex.from_json({**raw, "iota": []})
    rng = random.Random(8080)
    for _ in range(50):
        _assert_json_roundtrip(random_ucomplex_with_iota(rng, max_pairs=4))
    _assert_json_roundtrip(random_ucomplex(rng))


def _shuffled(rng, data, keep_ties):
    """The u_complex input dict data with its generator, differential and
    iota lists shuffled; with keep_ties, generators of one degree keep
    their order, so that only the interleaving of the degrees moves."""
    out = {key: rng.sample(data[key], len(data[key]))
           for key in ("generators", "differential", "iota") if key in data}
    if keep_ties:
        queues = {}
        for g in data["generators"]:
            queues.setdefault(g["degree"], []).append(g)
        out["generators"] = [queues[g["degree"]].pop(0) for g in out["generators"]]
    return {**data, **out}


def test_reports_do_not_depend_on_input_order(tmp_path):
    # a stable sort by falling degree stores the generators: a shuffle
    # that keeps ties in order gives the same complex, and any shuffle the
    # same maps on relabelled generators and the same hfi and v0 reports
    rng = random.Random(3838)
    inputs = [fixtures.load(name)[0] for name in fixtures.fixture_names()
              if fixtures.describe(name) == "u_complex"]
    for _ in range(40):
        c = random_ucomplex_with_iota(rng, max_pairs=4)
        inputs += [c.to_json(), homotopic_iota(rng, c).to_json()]

    def reports(data):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        # the first two lines name the input file and its hash
        return [cli.run([*argv, str(path)])[0].splitlines()[2:]
                for argv in (["hfi"], ["v0", "--p", "1"])]

    ties = 0
    for k, data in enumerate(inputs):
        base, want = UComplex.from_json(data), reports(data)
        ties += len(set(base.degrees())) < len(base.generators)
        for keep_ties in (True, False):
            shuffled = _shuffled(rng, data, keep_ties)
            c = UComplex.from_json(shuffled)
            assert reports(shuffled) == want, (k, keep_ties)
            if keep_ties:
                assert c.generators == base.generators, k
                assert c._cols == base._cols and c._iota == base._iota, k
            else:
                assert sorted(c.generators) == sorted(base.generators), k
                assert c.degrees() == base.degrees(), k
                for field in ("differential", "iota"):
                    assert _entry_set(c.to_json()[field]) == _entry_set(base.to_json()[field]), k
    assert len(inputs) >= 82 and ties >= 40


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
    assert d_invariant(sigma237()) == 0


# -- tower bottoms by elimination against the window reader ----------------------


def both_orientations_and_cones(c):
    """c, its orientation reverse, and the complexes of both cones."""
    out = []
    for base in (c, dual_ucomplex(c)):
        out += [base, cone_iota(base)]
    return out


def test_tower_bottoms_match_window_reader_on_random_complexes():
    rng = random.Random(4242)
    for _ in range(40):
        for cx in both_orientations_and_cones(random_ucomplex_with_iota(rng, max_pairs=4)):
            assert cx.tower_bottoms() == window_tower_bottoms(cx)


@pytest.mark.parametrize("offset", [50, -50, 100, 200, -400, 400])
def test_tower_bottoms_match_window_reader_with_a_far_pair(offset):
    rng = random.Random(offset)
    c = random_ucomplex_with_iota(rng, max_pairs=2)
    far = with_far_pair(c, offset + rng.randint(0, 1), rng.randint(1, 3))
    for cx in both_orientations_and_cones(far):
        assert cx.tower_bottoms() == window_tower_bottoms(cx)


def test_tower_bottoms_fixture_and_hand_built_cases():
    for cx in both_orientations_and_cones(sigma237()):
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
        complexes += both_orientations_and_cones(random_ucomplex_with_iota(rng, max_pairs=4))
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        for _ in range(8):
            c = random_ucomplex_with_iota(rng, max_pairs=3)
            far = with_far_pair(c, offset + rng.randint(0, 1), rng.randint(1, 3))
            complexes += both_orientations_and_cones(far)
    general = []
    for _ in range(400):
        c = random_ucomplex(rng)
        general += [c, dual_ucomplex(c)]
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
    """The laws of UComplex.normal_form on cx, whose packed columns and
    pairs index cx's generators, checked on their unpacked matrices:
    P P^-1 = 1, P is what a general solve of P^-1 X = 1 gives, P and P^-1
    are degree-0 F[U]-maps, P d P^-1 is the pairing and nothing else, and
    the unpaired generators sit at the tower bottoms.  Returns the towers, or
    None when tower_bottoms rejects two towers in one parity."""
    n = len(cx.generators)
    degs = cx.degrees()
    p_cols, p_inv_cols, pairs = cx.normal_form()
    assert all(col >> n == 0 for col in p_cols + p_inv_cols)
    p, p_inv = cols_matrix(p_cols), cols_matrix(p_inv_cols)
    assert (la.f2_mul(p, p_inv) == la.f2_eye(n)).all()
    assert (p == la.solve_f2(p_inv, la.f2_eye(n))).all()  # back-substitution vs. a solve
    for m in (p, p_inv):
        for i, j in zip(*np.nonzero(m)):
            assert _forced_power(degs[j], degs[i], 0) is not None
    nf = la.f2_mul(la.f2_mul(p, cols_matrix(cx._cols)), p_inv)
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
        complexes += both_orientations_and_cones(random_ucomplex_with_iota(rng, max_pairs=4))
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        for _ in range(8):
            c = random_ucomplex_with_iota(rng, max_pairs=3)
            far = with_far_pair(c, offset + rng.randint(0, 1), rng.randint(1, 3))
            complexes += both_orientations_and_cones(far)
    for _ in range(400):
        c = random_ucomplex(rng)
        complexes += [c, dual_ucomplex(c)]
    outcomes = [_check_normal_form(cx) for cx in complexes]
    assert len(outcomes) >= 1000
    assert outcomes.count(None) >= 100
    assert sum(o is not None and len(o) == 2 for o in outcomes) >= 100


def test_hfi_builds_the_normal_form_once_and_not_for_the_cone(monkeypatch):
    """Reading a complex and running hfi on it solves on it twice (iota^2
    + 1 when it is read, then 1 + iota): the second solve reuses the first
    one's P, P^-1 and pairs, and the cone, which only reads its towers,
    never builds them."""
    built, cones = [], []
    build, cone = UComplex.normal_form, involutive.cone_iota
    monkeypatch.setattr(UComplex, "normal_form",
                        lambda self: built.append((self, build(self))) or built[-1][1])
    monkeypatch.setattr(involutive, "cone_iota", lambda c: cones.append(cone(c)) or cones[-1])
    rng = random.Random(1216)
    twice = 0
    for _ in range(60):
        c = random_ucomplex_with_iota(rng, max_pairs=4)
        built.clear()
        c = homotopic_iota(rng, c)  # iota^2 = 1 only up to homotopy
        involutive_correction_terms(c)
        one_plus_iota_nullhomotopic(c)
        assert all(owner is c and nf is built[0][1] for owner, nf in built)
        twice += len(built) == 2
        assert cones[-1]._normal is None
    assert twice >= 5


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
    assert validate_iota(with_identity_iota(S3))


def test_swap_iota_passes():
    swap = UComplex([("x", 0), ("y", 0)], [], [("x", "y", 0), ("y", "x", 0)])
    assert validate_iota(swap)


def test_order_three_map_fails_homotopy_check():
    # the constructor runs validate_iota, so no complex carries this iota
    with pytest.raises(InputError, match="iota\\^2 is not chain homotopic to the identity"):
        UComplex([("x", 0), ("y", 0)], [], [("x", "y", 0), ("y", "x", 0), ("y", "y", 0)])


def test_u_power_iota_entry_unconstructible():
    with pytest.raises(InputError):
        UComplex([("g", 0)], [], [("g", "g", 1)])


def test_non_commuting_iota_rejected():
    with pytest.raises(InputError, match="iota is not a chain map"):
        UComplex(
            [("x", 1), ("y", 0), ("z", 1)],
            [("x", "y", 0)],
            [("x", "z", 0), ("z", "x", 0), ("y", "y", 0)],
        )


# (generators, differential, iota, message): an iota that is no chain map,
# the swap of b and e with da = b, and one whose square is not homotopic to
# the identity, iota = 0
BAD_IOTAS = [
    ([("e", 0), ("a", 1), ("b", 0)], [("a", "b", 0)],
     [("e", "b", 0), ("b", "e", 0), ("a", "a", 0)], "iota is not a chain map"),
    ([("g", 0)], [], [], "iota^2 is not chain homotopic to the identity"),
]


@pytest.mark.parametrize("gens, diff, iota, message", BAD_IOTAS, ids=["swap-b-e", "zero"])
def test_a_complex_is_never_built_with_an_iota_that_breaks_its_laws(gens, diff, iota, message):
    """UComplex and from_json run validate_iota once iota's entries are
    read, so the split test, the cone and the correction terms never see
    such an iota; the CLI names the law as before."""
    with pytest.raises(InputError) as err:
        UComplex(gens, diff, iota)
    assert str(err.value) == message
    data = {"kind": "u_complex",
            "generators": [{"label": l, "degree": d} for l, d in gens],
            "differential": [{"from": a, "to": b, "upower": k} for a, b, k in diff],
            "iota": [{"from": a, "to": b, "upower": k} for a, b, k in iota]}
    with pytest.raises(InputError) as err:
        UComplex.from_json(data)
    assert str(err.value) == message
    # without iota the complex is built, and the involutive doors name the
    # missing iota
    bare = UComplex(gens, diff)
    for door in (validate_iota, one_plus_iota_nullhomotopic, cone_iota):
        with pytest.raises(InputError, match="needs an 'iota' field"):
            door(bare)


def test_the_constructor_validates_iota_through_the_module_name(monkeypatch):
    """UComplex calls validate_iota by its module-level name, once per
    complex with an iota and never for one without, so a wrapper bound to
    that name sees every check."""
    seen = []
    check = involutive.validate_iota
    monkeypatch.setattr(involutive, "validate_iota", lambda c: seen.append(c) or check(c))
    c = sigma237()
    assert seen == [c]
    UComplex.from_json({k: v for k, v in fixtures.load("sigma237")[0].items() if k != "iota"})
    cone_iota(c)
    involutive_correction_terms(c)
    one_plus_iota_nullhomotopic(c)
    assert seen == [c]


def test_sigma237_iota_valid_but_not_null():
    c = sigma237()
    assert validate_iota(c)
    assert not one_plus_iota_nullhomotopic(c)
    assert iota_localized_identity(c)


# -- homotopy solves -------------------------------------------------------------


def _homotopy_systems(rng, count):
    """(complex, rhs) on random complexes, their duals and far pairs at
    +-50; rhs 1 + iota, iota^2 + 1, iota'^2 + 1 for an iota' homotopic to
    iota, a random degree-0 map and a random boundary dK + Kd."""
    systems = []
    while len(systems) < count:
        c = random_ucomplex_with_iota(rng, max_pairs=4)
        sign = rng.choice((1, -1))
        far = with_far_pair(c, sign * 50 + rng.randint(0, 1), rng.randint(1, 3))
        for base in (c, dual_ucomplex(c), far):
            n = len(base.generators)
            k = random_fu_map(rng, base, 1)
            moved = iota_matrix_of(homotopic_iota(rng, base))
            d, mat = d_matrix_of(base), iota_matrix_of(base)
            rhss = (
                mat ^ la.f2_eye(n),
                la.f2_mul(mat, mat) ^ la.f2_eye(n),
                la.f2_mul(moved, moved) ^ la.f2_eye(n),
                random_fu_map(rng, base, 0),
                la.f2_mul(d, k) ^ la.f2_mul(k, d),
            )
            systems += [(base, rhs) for rhs in rhss]
    return systems


def test_homotopy_solve_matches_dense_oracle():
    # the solve takes and returns packed columns; the oracle and the
    # check below work on their unpacked matrices
    solved = unsolvable = nontrivial = 0
    for c, rhs in _homotopy_systems(random.Random(2718), 1500):
        h = _homotopy_solve(c, matrix_cols(rhs))
        expected = homotopy_solve_oracle(c, rhs)
        assert (h is None) == (expected is None)
        if h is None:
            unsolvable += 1
            continue
        n = len(c.generators)
        assert len(h) == n and all(col >> n == 0 for col in h)
        h = cols_matrix(h)
        solved += 1
        nontrivial += bool(rhs.any())
        d = d_matrix_of(c)
        assert ((la.f2_mul(d, h) ^ la.f2_mul(h, d)) == rhs).all()
        degs = c.degrees()
        for i, j in zip(*np.nonzero(h)):
            assert _forced_power(degs[j], degs[i], 1) is not None
    assert solved + unsolvable >= 1500
    assert unsolvable >= 200 and nontrivial >= 200


def test_homotopy_solve_certifies_h(monkeypatch):
    # d x = y; the only degree +1 entry is H: y -> x, and dH + Hd = 1 for it
    # (x is generator 0 and y generator 1)
    c = UComplex([("x", 1), ("y", 0)], [("x", "y", 0)])
    zero, one = [0, 0], [1 << 0, 1 << 1]
    assert _homotopy_solve(c, zero) == [0, 0]
    assert _homotopy_solve(c, one) == [0, 1 << 0]
    assert cols_matrix(_homotopy_solve(c, one)).tolist() == [[0, 1], [0, 0]]
    solve = la._solve_packed

    def wrong_block_answers(cols, rhs):  # every unknown of every block flipped
        return [x ^ (1 << len(cols)) - 1 for x in solve(cols, rhs)]

    monkeypatch.setattr(la, "_solve_packed", wrong_block_answers)
    with pytest.raises(InternalError, match="dH \\+ Hd"):
        _homotopy_solve(c, one)


def test_zero_rhs_is_answered_without_a_product(monkeypatch):
    # every product of the involutive layer is taken by la._apply
    c = sigma237()
    n = len(c.generators)
    identity = with_identity_iota(c)
    calls = []
    apply = la._apply
    monkeypatch.setattr(la, "_apply", lambda cols, x: calls.append(1) or apply(cols, x))
    assert _homotopy_solve(c, [0] * n) == [0] * n
    assert calls == []
    assert one_plus_iota_nullhomotopic(identity) and calls == []
    # the counter does see the products of a nonzero rhs
    assert not one_plus_iota_nullhomotopic(c) and calls


def _falling_degree_order(c):
    degs = c.degrees()
    return sorted(range(len(degs)), key=lambda g: (-degs[g], g))


def _interleaved_order(c, cone):
    """The cone's generators m:x, q:x for each generator x of c, in c's
    falling-degree order."""
    return [cone.index[f"{half}:{c.generators[g][0]}"]
            for g in _falling_degree_order(c) for half in "mq"]


def test_one_hfi_run_reduces_each_complex_once(monkeypatch, tmp_path, capsys):
    rng = random.Random(1717)
    models = [sigma237()] + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(6)]
    models += [dual_ucomplex(c) for c in models]
    reduce_columns = la.reduce_columns
    for k, c in enumerate(models):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(c.to_json()))
        seen = []
        monkeypatch.setattr(la, "reduce_columns",
                            lambda cols: seen.append(list(cols)) or reduce_columns(cols))
        assert cli.main(["hfi", str(path)]) == 0
        monkeypatch.setattr(la, "reduce_columns", reduce_columns)
        # d is reduced once in falling-degree order, and the cone's d (read
        # from its coefficient matrix) once in the interleaved order;
        # the other reductions are the homotopy solve's block systems
        cone = cone_iota(c)
        for x, order in ((c, _falling_degree_order(c)), (cone, _interleaved_order(c, cone))):
            want, n = d_matrix_of(x)[np.ix_(order, order)], len(order)
            # packed columns, unpacked: row t of the unpacked rows is column t
            assert sum(len(cols) == n and all(col >> n == 0 for col in cols)
                       and (la._unpack_rows(cols, n).T == want).all() for cols in seen) == 1, k
    capsys.readouterr()


@pytest.mark.parametrize("command", ["hfi", "v0"])
def test_hfi_and_v0_runs_stay_packed(monkeypatch, tmp_path, capsys, command):
    """The entry reader packs d and iota itself, and every product is
    taken on the packed columns: an hfi or v0 run packs, unpacks and
    multiplies no numpy matrix and counts no cells."""
    rng = random.Random(3232)
    models = fixture_models() + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(10)]
    models += [dual_ucomplex(c) for c in models]
    paths = []
    for k, c in enumerate(models):
        paths.append(tmp_path / f"m{k}.json")
        paths[-1].write_text(json.dumps(c.to_json()))
    calls = []
    for name in ("_pack_rows", "_unpack_rows", "f2_mul", "f2_eye", "f2_zeros"):
        monkeypatch.setattr(la, name, lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append("bincount"))
    extra = ["--p", "1"] if command == "v0" else []
    for path in paths:
        assert cli.main([command, str(path), *extra]) == 0
    assert calls == []
    capsys.readouterr()


# -- cones -------------------------------------------------------------------------------


def test_split_cone_s3():
    s3 = with_identity_iota(S3)
    h = Homology(cone_plus_window(s3, -7, 15))
    # two towers, bottoms 0 and -1
    for d in range(-1, 9):
        assert h.dim(d) == 1
    assert h.dim(-2) == 0
    r = involutive_correction_terms(s3)
    assert r.triple() == (0, 0, 0) and one_plus_iota_nullhomotopic(s3)


def test_split_dims_law_for_identity_iota():
    rng = random.Random(500)
    for _ in range(10):
        c = random_ucomplex_with_iota(rng, iota_identity=True)
        assert (iota_matrix_of(c) == la.f2_eye(len(c.generators))).all()
        assert split_dims_law(c)
        r = involutive_correction_terms(c)
        d = d_invariant(c)
        assert r.triple() == (d, d, d)


def test_split_cones_are_read_by_the_general_rule():
    # 1 + iota = dH + Hd makes the cone C + C[-1]: towers at d and d - 1
    rng = random.Random(77)
    split = 0
    for _ in range(60):
        c = random_ucomplex_with_iota(rng, iota_identity=rng.random() < 0.3)
        for base in (c, dual_ucomplex(c)):
            r = involutive_correction_terms(base)
            if one_plus_iota_nullhomotopic(base):
                d = int(r.d)
                assert cone_iota(base).tower_bottoms() == {d % 2: d, (d - 1) % 2: d - 1}
                assert r.triple() == (d, d, d)
                split += 1
    assert split >= 20


def test_homotopic_iota_gives_the_same_correction_terms():
    # cones of homotopic maps are isomorphic by x -> x + QKx
    rng = random.Random(1507)
    squares_off_identity = 0
    for _ in range(40):
        c = random_ucomplex_with_iota(rng, max_pairs=4)
        moved = homotopic_iota(rng, c)
        for base, other in ((c, moved), (dual_ucomplex(c), dual_ucomplex(moved))):
            assert (d_matrix_of(other) == d_matrix_of(base)).all()
            assert validate_iota(other)
            mat = iota_matrix_of(other)
            square = la.f2_mul(mat, mat) ^ la.f2_eye(len(base.generators))
            squares_off_identity += bool(square.any())
            want = involutive_correction_terms(base)
            got = involutive_correction_terms(other)
            assert got.triple() == want.triple()
            assert one_plus_iota_nullhomotopic(other) == one_plus_iota_nullhomotopic(base)
    assert squares_off_identity >= 10


def test_sigma237_correction_terms():
    c = sigma237()
    r = involutive_correction_terms(c)
    assert (r.d, r.d_bar, r.d_under) == (0, 0, -2)
    assert not one_plus_iota_nullhomotopic(c)


def test_ordering_property_on_random_instances():
    rng = random.Random(606)
    for _ in range(40):
        c = random_ucomplex_with_iota(rng)
        validate_iota(c)
        assert iota_localized_identity(c)
        r = involutive_correction_terms(c)
        assert r.d_under <= r.d <= r.d_bar
        assert (r.d_bar - r.d) % 2 == 0 and (r.d_under - r.d) % 2 == 0


def test_cone_rank_bound():
    rng = random.Random(321)
    for _ in range(10):
        assert cone_rank_bound(random_ucomplex_with_iota(rng))


def test_cone_requires_valid_iota():
    # an iota that fails its laws is refused before any cone can be built
    # from it, and a complex without iota has no cone
    with pytest.raises(InputError, match="iota\\^2 is not chain homotopic"):
        UComplex([("x", 0), ("y", 0)], [], [("x", "y", 0), ("y", "x", 0), ("y", "y", 0)])
    with pytest.raises(InputError, match="needs an 'iota' field"):
        cone_iota(UComplex([("x", 0), ("y", 0)], []))


def fixture_models():
    """Every u_complex fixture, with its iota."""
    return [UComplex.from_json(fixtures.load(name)[0]) for name in fixtures.fixture_names()
            if fixtures.describe(name) == "u_complex"]


def cone_suites(rng):
    """The fixtures and the random suites, each with its iota: random
    models, their orientation reverses, homotopic iotas, far pairs at +-50
    to +-400 and connected sums."""
    models = fixture_models()
    for _ in range(40):
        c = random_ucomplex_with_iota(rng, max_pairs=4)
        models += [c, dual_ucomplex(c), homotopic_iota(rng, c)]
    for offset in (50, -50, 100, -100, 200, -200, 400, -400):
        c = random_ucomplex_with_iota(rng, max_pairs=3)
        far = with_far_pair(c, offset + rng.randint(0, 1), rng.randint(1, 3))
        models += [far, dual_ucomplex(far)]
    for _ in range(20):
        a = random_ucomplex_with_iota(rng, max_pairs=2)
        b = dual_ucomplex(random_ucomplex_with_iota(rng, max_pairs=2))
        models += [connected_sum(a, b), connected_sum(a, dual_ucomplex(a))]
    return models


def test_cone_differential_is_homogeneous_and_squares_to_zero():
    # cone_iota checks neither: mod 2 the square is [[d^2, 0], [iota d + d iota, d^2]],
    # zero once d is a differential and iota a chain map
    models = cone_suites(random.Random(2201))
    for c in models:
        cone = cone_iota(c)
        degs, d = cone.degrees(), d_matrix_of(cone)
        assert all(_forced_power(degs[j], degs[i], -1) is not None for i, j in zip(*np.nonzero(d)))
        assert not la.f2_mul(d, d).any()
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
    """The cone's towers, read in its interleaved order, equal the
    towers of one strict falling-degree reduction of its coefficient
    matrix: on the cone suites (both orientations), and on the benchmark's
    shape with a pair 50 to 400 degrees away, in both orientations."""
    rng = random.Random(3301)
    models = cone_suites(rng)
    for pairs in (1, 3, 6, 12):
        c, _ = spread_ucomplex_with_iota(rng, pairs)
        for offset in (50, -50, 120, -120, 400, -400):
            far = with_far_pair(c, offset + rng.randint(0, 1), rng.randint(1, 3))
            models += [far, dual_ucomplex(far)]
    for c in models:
        cone = cone_iota(c)
        assert cone.tower_bottoms() == falling_degree_tower_bottoms(cone)
        assert len(cone.tower_bottoms()) == 2
    assert len(models) >= 210


def test_correction_terms_never_square_the_cone(monkeypatch):
    rng = random.Random(2202)
    models = fixture_models() + [random_ucomplex_with_iota(rng, max_pairs=4) for _ in range(50)]
    # every product is taken by la._apply on packed columns; none of them
    # applies the cone's differential (2n columns), or any map as large,
    # from reading the complex, which checks iota, to its correction terms
    apply = la._apply
    for c in models:
        sizes = []
        monkeypatch.setattr(la, "_apply", lambda cols, x: sizes.append(len(cols)) or apply(cols, x))
        involutive_correction_terms(UComplex.from_json(c.to_json()))
        monkeypatch.setattr(la, "_apply", apply)
        assert sizes and max(sizes) <= len(c.generators)
        assert len(cone_iota(c)._cols) == 2 * len(c.generators)


def test_depth_two_q_connection():
    # da = U^2 b with iota(a) = a + e: the shape of minus_sigma237 one
    # U-step deeper, so d_bar = d + 4; its dual has d_under = d - 4
    c = UComplex([("e", 0), ("a", 0), ("b", 3)], [("a", "b", 2)],
                 [("e", "e", 0), ("a", "a", 0), ("a", "e", 0), ("b", "b", 0)])
    assert d_invariant(c) == 0
    r = involutive_correction_terms(c)
    assert r.triple() == (0, 4, 0)
    r = involutive_correction_terms(dual_ucomplex(c))
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
        [("e", "e", 0), ("e", "d", 0), ("b", "b", 0),
         ("a", "c", 0), ("c", "a", 0), ("d", "d", 0)],
    )
    assert validate_iota(c)
    assert iota_localized_identity(c)
    assert not one_plus_iota_nullhomotopic(c)
    r = involutive_correction_terms(c)
    assert r.triple() == (0, 0, -2)


def test_connected_sum_laws():
    # Hendricks-Manolescu-Zemke: d adds, Y # -Y reads (0, 0, 0), and
    # d_under1 + d_under2 <= d_under <= d_under1 + d_bar2 <= d_bar <= d_bar1 + d_bar2
    rng = random.Random(2)

    def factor():
        c = random_ucomplex_with_iota(rng)
        return dual_ucomplex(c) if rng.random() < 0.5 else c

    terms = involutive_correction_terms
    nontrivial = 0
    for _ in range(300):
        y1, y2 = factor(), factor()
        r1, r2 = terms(y1), terms(y2)
        for (a, ra), (b, rb) in (((y1, r1), (y2, r2)), ((y2, r2), (y1, r1))):
            r = terms(connected_sum(a, b))
            assert r.d == ra.d + rb.d
            assert (ra.d_under + rb.d_under <= r.d_under <= ra.d_under + rb.d_bar
                    <= r.d_bar <= ra.d_bar + rb.d_bar), (ra.triple(), rb.triple(), r.triple())
        nontrivial += r.d_bar != r.d_under
        assert terms(connected_sum(y1, dual_ucomplex(y1))).triple() == (0, 0, 0)
    assert nontrivial >= 40


def test_connected_sums_of_non_split_factors():
    # the laws of test_connected_sum_laws on sums whose factors both have
    # d_bar != d_under, where d_under1 + d_bar2 is a bound of its own
    rng = random.Random(3)
    factors = []
    while len(factors) < 40:
        c = random_ucomplex_with_iota(rng)
        y = dual_ucomplex(c) if rng.random() < 0.5 else c
        r = involutive_correction_terms(y)
        if r.d_bar != r.d_under:
            factors.append((y, r))
    pairs = list(zip(factors[::2], factors[1::2]))
    for (y1, r1), (y2, r2) in pairs:
        for (a, ra), (b, rb) in (((y1, r1), (y2, r2)), ((y2, r2), (y1, r1))):
            r = involutive_correction_terms(connected_sum(a, b))
            assert r.d == ra.d + rb.d
            assert (ra.d_under + rb.d_under <= r.d_under <= ra.d_under + rb.d_bar
                    <= r.d_bar <= ra.d_bar + rb.d_bar), (ra.triple(), rb.triple(), r.triple())
    assert len(pairs) >= 20


def test_connected_sums_of_sigma237():
    # Hendricks-Manolescu-Zemke: every connected sum of copies of
    # Sigma(2,3,7) has d_bar = 0 and d_under = -2
    y = sigma237()
    minus_y = UComplex.from_json(fixtures.load("minus_sigma237")[0])
    two = connected_sum(y, y)
    for c, want in ((two, (0, 0, -2)), (connected_sum(two, y), (0, 0, -2)),
                    (connected_sum(minus_y, minus_y), (0, 2, 0)),
                    (connected_sum(y, minus_y), (0, 0, 0))):
        assert involutive_correction_terms(c).triple() == want


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
        involutive_correction_terms(sigma237())
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
        involutive_correction_terms(sigma237())
    assert cli.main(["hfi", "fixtures:sigma237"]) == 3
    assert capsys.readouterr().err.startswith(f"error: InternalError: {message}")


# -- v0 arithmetic --------------------------------------------------------------------------


def test_v0_figure_eight_values():
    r = involutive_correction_terms(sigma237())
    assert v0_triple(1, r) == (0, 0, 1)


def test_v0_all_zero():
    r = involutive_correction_terms(with_identity_iota(S3))
    assert v0_triple(1, r) == (0, 0, 0)


def test_v0_formula_p9():
    # p = 9, d = 2 -> V0 = 1 - 1 = 0
    assert Fraction(9 - 1, 8) - Fraction(2, 2) == 0


def test_v0_requires_positive_p():
    r = involutive_correction_terms(with_identity_iota(S3))
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
    d = d_invariant(sigma237())
    s1 = SOneModel.from_json(fixtures.load("sigma237_s1")[0])
    assert d == 2 * delta_invariant(s1)


@pytest.mark.parametrize("p", [True, 1.5, "1"])
def test_v0_triple_refuses_p_that_is_not_an_integer(p):
    # True was read as p = 1, and 1.5 raised TypeError
    r = involutive_correction_terms(sigma237())
    with pytest.raises(InputError, match="surgery coefficient p must be an integer"):
        v0_triple(p, r)
