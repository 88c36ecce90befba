import copy
import json
import random
from fractions import Fraction

import pytest

from homcob import equivariant, fixtures
from homcob import f2linalg as la
from homcob.cli import _dual_rows, main, run
from homcob.equivariant import (
    PinModel,
    SOneModel,
    TowerArrow,
    abc,
    coborel_tower_tops,
    delta_invariant,
    localization_check,
    tower_bottoms,
)
from homcob.errors import InputError, InternalError, ModelInvalidError
from homcob.graded import Homology

from helpers import (
    borel_homology,
    random_pin_model,
    random_s1_model,
    rokhlin_check,
    window_coborel_tops,
    window_delta_bottom,
    window_localization,
    window_pin_bottoms,
    with_acyclic_pair,
)

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


def reverse_triple(model):
    """(alpha, beta, gamma) of the orientation reverse, as `homcob dual`
    reports them."""
    rows = dict(_dual_rows(None, model))
    return rows["alpha_reverse"], rows["beta_reverse"], rows["gamma_reverse"]


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


def test_s1_tower_arrow_has_one_level():
    with pytest.raises(InputError, match="0 <= a < 1"):
        SOneModel(0, [("z", 2)], [[0]], [[0]], [TowerArrow("z", 1, 0)])
    m = SOneModel(0, [("z", 1)], [[0]], [[0]], [TowerArrow("z", 0, 0), ("z", 0, 0)])
    assert m.d_to_tower == [TowerArrow("z", 0, 0)] * 2
    # the JSON arrow of a one-level model names no level: a = 0
    data = {"reducible_degree": 0, "finite": [{"label": "z", "degree": 1}],
            "u": [[0]], "d_fin": [[0]], "d_to_tower": [{"from": "z", "b": 0}]}
    assert SOneModel.from_json(data).d_to_tower == [TowerArrow("z", 0, 0)]


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
    assert tower_bottoms(S3) == (0, 1, 2)


def test_bottoms_s2():
    assert tower_bottoms(POINCARE) == (2, 3, 4)


def test_bottoms_killer_shift():
    assert tower_bottoms(TRIPLE_KILLER) == (4, 5, 6)


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
    """A = 2mu, B = 2mu + 1, C = 2mu + 2 mod 4, which fix the parities of
    A, B, C and give alpha = beta = gamma = mu mod 2.  abc does not check
    them: each bottom is n + a or n + a + 4(b + 1) for an even n, so they
    hold by construction."""
    rng = random.Random(26)
    models = [S3, POINCARE, S_MINUS2, TRIPLE_KILLER] + [random_pin_model(rng) for _ in range(60)]
    for model in models:
        r = abc(model)
        assert (r.A - 2 * r.mu) % 4 == 0
        assert (r.B - 2 * r.mu - 1) % 4 == 0
        assert (r.C - 2 * r.mu - 2) % 4 == 0
        assert r.alpha % 2 == r.beta % 2 == r.gamma % 2 == r.mu


@pytest.mark.parametrize("bottoms, message", [
    ((0, 5, 2), "alpha >= beta >= gamma"),
    ((0, 1, 6), "alpha >= beta >= gamma"),
], ids=["beta-above-alpha", "gamma-above-beta"])
def test_each_broken_abc_law_raises_internal_error(monkeypatch, capsys, bottoms, message):
    """The law of abc, the ordering, broken by the tower bottoms of S^3."""
    monkeypatch.setattr(equivariant, "tower_bottoms", lambda model: bottoms)
    with pytest.raises(InternalError, match=message):
        abc(S3)
    assert main(["abc", "fixtures:s3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: InternalError: ") and message in err


def test_odd_reducible_degree_rejected():
    with pytest.raises(InputError):
        PinModel(1, [], [], [], [], [])


def test_inhomogeneous_entry_is_named_in_row_major_order():
    # q lowers degree by 1: (0,1) is allowed, (0,2) and (1,0) are not
    q = [[0, 1, 1], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(InputError) as e:
        PinModel(0, [("x", 0), ("y", 1), ("z", 2)], q, Z3, Z3, [])
    assert str(e.value) == "q entry (0,2) violates degree shift -1"


def _pin_input(**fields):
    """A pin_model input: two generators, x in degree 1 and y in degree 0
    with d x = y, unless `fields` replace them."""
    return {"kind": "pin_model", "reducible_degree": 0,
            "finite": [{"label": "x", "degree": 1}, {"label": "y", "degree": 0}],
            "q": [[0, 0], [0, 0]], "v": [[0, 0], [0, 0]], "d_fin": [[0, 0], [1, 0]],
            "d_to_tower": [], **fields}


def _entries(n, ones):
    mat = [[0] * n for _ in range(n)]
    for i, j in ones:
        mat[i][j] = 1
    return mat


def _finite(*degrees):
    return [{"label": f"g{i}", "degree": d} for i, d in enumerate(degrees)]


MALFORMED = "malformed pin_model input: "


@pytest.mark.parametrize("fields, code, message", [
    # q entry (0,2) breaks the degree shift before the 2, but entries are read first
    ({"finite": _finite(0, 1, 2), "q": [[0, 1, 1], [0, 0, 0], [0, 2, 0]],
      "v": _entries(3, []), "d_fin": _entries(3, [])},
     1, MALFORMED + "q entries must be 0 or 1, got 2"),
    ({"d_fin": [[0, 0, 0], [1, 0, 0]]}, 1, "d_fin must be 2x2, got (2, 3)"),
    ({"d_fin": [[0, 0], [1]]}, 1, "d_fin must be 2x2, got ragged rows of lengths [2, 1]"),
    ({"finite": [], "q": {}, "v": [], "d_fin": []}, 1, "q must be a list of 0 lists"),
    ({"v": [[0, 0], [1.0, 0]]}, 1, MALFORMED + "v entries must be 0 or 1, got 1.0"),
    ({"d_fin": [[0, 0], [True, 0]]}, 1, MALFORMED + "d_fin entries must be 0 or 1, got True"),
    ({"q": 5}, 1, MALFORMED + "TypeError: 'int' object is not iterable"),
    ({"v": [0, 0]}, 1, MALFORMED + "TypeError: 'int' object is not iterable"),
    # 70 generators in degree 0 but g65 in degree 1: (3,65) is allowed, and
    # (3,66) is the first bad entry, past bit 64 of its packed row
    ({"finite": _finite(*[int(i == 65) for i in range(70)]), "q": _entries(70, []),
      "v": _entries(70, []), "d_fin": _entries(70, [(3, 65), (3, 66), (3, 69), (4, 0)])},
     1, "d_fin entry (3,66) violates degree shift -1"),
    # d^2 fails on the chains g0 -> g1 -> g2 from degree 4 and g3 -> g4 -> g5
    # from degree 2, and the lower degree is named
    ({"finite": _finite(4, 3, 2, 2, 1, 0), "q": _entries(6, []), "v": _entries(6, []),
      "d_fin": _entries(6, [(1, 0), (2, 1), (4, 3), (5, 4)])},
     1, "inconsistent model: differential does not square to zero at degree 2"),
    ({"finite": [], "q": [], "v": [], "d_fin": []}, 0, None),
], ids=["two-after-degree-violation", "shape", "ragged", "empty-dict", "float", "bool",
        "not-a-list", "row-not-a-list", "wide-rows", "d-squared", "empty"])
def test_model_reading_messages(tmp_path, capsys, fields, code, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_pin_input(**fields)))
    assert main(["abc", str(path)]) == code
    err = capsys.readouterr().err
    assert err == ("" if message is None else f"error: InputError: {message}\n")


def test_reading_a_model_takes_no_numpy_product(monkeypatch):
    """Model reading checks every law on packed rows: la.f2_mul is never
    called."""
    models = fixture_models() + [TRIPLE_KILLER] + random_models(41, 40)
    inputs = [(type(m), m.to_json()) for m in models]
    calls, f2_mul = [], la.f2_mul
    monkeypatch.setattr(la, "f2_mul", lambda *args: calls.append(args) or f2_mul(*args))
    for cls, data in inputs:
        cls.from_json(data)
    assert calls == []


def test_tower_commands_need_no_numpy_read(monkeypatch, tmp_path):
    """abc, dual, tate and delta read a JSON model straight into packed rows
    and take the tower read from them: with la.f2 and la._pack_rows raising,
    every fixture and random model reports what it reports without."""
    commands = {"pin_model": ["abc", "dual", "tate"], "s1_model": ["delta"]}
    jobs = [[cmd, f"fixtures:{name}"] for name in fixtures.fixture_names()
            for cmd in commands.get(fixtures.describe(name), [])]
    for k, m in enumerate(fixture_models() + [TRIPLE_KILLER] + random_models(43, 40)):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(m.to_json()))
        jobs += [[cmd, str(path)] for cmd in commands[m.KIND]]
    want = [run(argv) for argv in jobs]
    assert sum(code == 0 for _, code in want) >= 80

    def refuse(*args):
        raise AssertionError("numpy round trip while reading a model")

    monkeypatch.setattr(la, "f2", refuse)
    monkeypatch.setattr(la, "_pack_rows", refuse)
    assert [run(argv) for argv in jobs] == want


def test_to_json_writes_back_the_input_matrices():
    """to_json unpacks each packed matrix into the input's lists of plain
    ints 0 and 1, and the model it writes reads back as the same model."""
    inputs = [fixtures.load(name)[0] for name in fixtures.fixture_names()
              if fixtures.describe(name) in ("pin_model", "s1_model")]
    inputs += [m.to_json() for m in random_models(47, 20)]
    for data in inputs:
        m = (PinModel if data["kind"] == "pin_model" else SOneModel).from_json(data)
        out = m.to_json()
        for field in [f for _, f, _, _ in m.OPS] + ["d_fin"]:
            assert out[field] == data.get(field, []), field
            assert {type(x) for row in out[field] for x in row} <= {int}
        back = type(m).from_json(json.loads(json.dumps(out)))
        assert back._rows == m._rows and back.d_to_tower == m.d_to_tower
        assert back.to_json() == out


# -- localization ---------------------------------------------------------------


def test_localization_s0():
    rep = localization_check(S3)
    assert rep.ok and rep.anchored_at == 0
    assert rep == window_localization(S3)


def test_localization_finite_only():
    free = PinModel(
        None, [("x", 1), ("y", 0)], [[0, 0]] * 2, [[0, 0]] * 2, [[0, 0], [1, 0]], []
    )
    rep = localization_check(free)
    assert rep.ok and rep.anchored_at is None
    assert all(x == 0 for x in rep.pattern)
    assert rep == window_localization(free)


def test_localization_random_models():
    rng = random.Random(2024)
    for _ in range(20):
        m = random_pin_model(rng)
        rep = localization_check(m)
        assert rep.ok and rep == window_localization(m)


def test_tower_bottoms_requires_tower():
    free = PinModel(None, [("x", 0)], [[0]], [[0]], [[0]], [])
    with pytest.raises(ModelInvalidError):
        tower_bottoms(free)


# -- duality ----------------------------------------------------------------------


def test_reverse_of_poincare():
    assert reverse_triple(POINCARE) == (-1, -1, -1)


def test_reverse_of_s3():
    assert reverse_triple(S3) == (0, 0, 0)


def test_reverse_is_involution():
    rng = random.Random(77)
    for _ in range(10):
        m = random_pin_model(rng)
        a, b, g = abc(m).triple()
        ra, rb, rg = reverse_triple(m)
        assert (ra, rb, rg) == (-g, -b, -a)
        assert (-rg, -rb, -ra) == (a, b, g)


def test_coborel_tops_fixtures():
    assert coborel_tower_tops(S3) == window_coborel_tops(S3) == (0, -1, -2)
    assert coborel_tower_tops(POINCARE) == window_coborel_tops(POINCARE) == (-2, -3, -4)


def test_coborel_tops_acyclic_stability():
    pair = PinModel(
        0, [("x", 5), ("y", 4)], [[0, 0]] * 2, [[0, 0]] * 2, [[0, 0], [1, 0]], []
    )
    assert coborel_tower_tops(pair) == coborel_tower_tops(S3)
    assert window_coborel_tops(pair) == window_coborel_tops(S3)


def test_coborel_matches_negated_bottoms():
    rng = random.Random(99)
    models = [S3, POINCARE, S_MINUS2] + [random_pin_model(rng) for _ in range(8)]
    for m in models:
        A, B, C = tower_bottoms(m)
        assert coborel_tower_tops(m) == window_coborel_tops(m) == (-A, -B, -C)


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
        data = m.to_json()
        grow = lambda mat: [
            [mat[i][j] if i < k and j < k else 0 for j in range(k + 2)]
            for i in range(k + 2)
        ]
        d = grow(data["d_fin"])
        d[k + 1][k] = 1  # pax -> pay
        m2 = PinModel(
            m.reducible_degree,
            gens,
            grow(data["q"]),
            grow(data["v"]),
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
    m = SOneModel(0, [("z", 1)], [[0]], [[0]], [("z", 0, 0)])
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


# -- tower bottoms from the finite part ------------------------------------------------


def fixture_models():
    out = []
    for name in fixtures.fixture_names():
        kind = fixtures.describe(name)
        if kind in ("pin_model", "s1_model"):
            cls = PinModel if kind == "pin_model" else SOneModel
            out.append(cls.from_json(fixtures.load(name)[0]))
    return out


def random_models(seed, count):
    """Random pin and s1 models, alternating, from the two random suites."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out += [random_pin_model(rng, max_blocks=3), random_s1_model(rng, max_blocks=3)]
    return out


def window_bottoms(m):
    return window_pin_bottoms(m) if isinstance(m, PinModel) else (window_delta_bottom(m),)


def test_tower_bottoms_match_window_reader():
    models = fixture_models()
    assert sorted(type(m).__name__ for m in models) == ["PinModel"] * 3 + ["SOneModel"] * 2
    for m in models + [TRIPLE_KILLER] + random_models(3, 80):
        assert tower_bottoms(m) == window_bottoms(m)


@pytest.mark.parametrize("offset", [-400, -200, -100, -50, 50, 100, 200, 400])
def test_tower_bottoms_match_window_reader_with_a_far_pair(offset):
    for m in fixture_models() + random_models(abs(offset) + (offset < 0), 3):
        far = with_acyclic_pair(m, m.reducible_degree + offset)
        assert tower_bottoms(far) == window_bottoms(far) == tower_bottoms(m)


def test_one_tower_read_is_one_reduction(monkeypatch):
    """Every tower-arrow target is read from one column reduction of
    [T; d_fin], with no rank taken per target."""
    many = [m for m in random_models(19, 40) if len({(t.a, t.b) for t in m.d_to_tower}) >= 2]
    assert len(many) >= 20
    calls = []
    reduce, rank = la.reduce_columns, la.rank_f2
    monkeypatch.setattr(la, "reduce_columns", lambda cols: calls.append(cols) or reduce(cols))
    monkeypatch.setattr(la, "rank_f2", lambda m: calls.append("rank") or rank(m))
    for m in fixture_models() + [TRIPLE_KILLER] + many:
        calls.clear()
        tower_bottoms(m)
        # the one reduction is of the packed columns of [T; d_fin]
        targets, t = m._tower_rows()
        stacked = la._unpack_rows(t + m._rows["d_fin"], len(m.finite))
        assert calls == [la._pack_rows(stacked.T)]


def test_a_target_hit_with_a_finite_cycle_is_no_boundary():
    """d x = y + (0, 0) with y a cycle that is no boundary: the target is
    homologous to y, not a boundary, so its tower keeps its bottom.  The
    column of x has its highest bit on d_fin only while T takes the low
    bits; with T on top it would claim (0, 0) as a boundary."""
    zero = [[0, 0], [0, 0]]
    pin = PinModel(0, [("x", 1), ("y", 0)], zero, zero, [[0, 0], [1, 0]], [("x", 0, 0)])
    s1 = SOneModel(0, [("x", 1), ("y", 0)], zero, [[0, 0], [1, 0]], [("x", 0, 0)])
    assert tower_bottoms(pin) == window_pin_bottoms(pin) == (0, 1, 2)
    assert tower_bottoms(s1) == (window_delta_bottom(s1),) == (0,)


def test_tower_reads_build_no_window(monkeypatch):
    def refuse(self, lo, hi):
        raise AssertionError(f"window [{lo}, {hi}] materialized")

    monkeypatch.setattr(PinModel, "materialize", refuse)
    monkeypatch.setattr(SOneModel, "materialize", refuse)
    for m in fixture_models() + [TRIPLE_KILLER] + random_models(5, 40):
        if isinstance(m, PinModel):
            r = abc(m)
            assert reverse_triple(m) == (-r.gamma, -r.beta, -r.alpha)
            for offset in (-100_000, 100_000):
                far = with_acyclic_pair(m, m.reducible_degree + offset)
                assert abc(far) == r and reverse_triple(far) == reverse_triple(m)
        else:
            delta = delta_invariant(m)
            for offset in (-100_000, 100_000):
                assert delta_invariant(with_acyclic_pair(m, m.reducible_degree + offset)) == delta


def _check_dual_and_tate_against_windows(m):
    if m.reducible_degree is None:
        for reader in (coborel_tower_tops, window_coborel_tops):
            with pytest.raises(ModelInvalidError):
                reader(m)
    else:
        assert coborel_tower_tops(m) == window_coborel_tops(m)
    assert localization_check(m) == window_localization(m)


def random_pin_models(seed, count):
    """Random pin models, every fourth one without a reducible tower."""
    rng = random.Random(seed)
    return [random_pin_model(rng, with_tower=i % 4 != 3, max_blocks=3) for i in range(count)]


def test_dual_and_tate_match_window_oracles():
    pins = [m for m in fixture_models() if isinstance(m, PinModel)]
    models = pins + [TRIPLE_KILLER] + random_pin_models(6, 160)
    assert sum(m.reducible_degree is None for m in models) == 40
    for m in models:
        _check_dual_and_tate_against_windows(m)


@pytest.mark.parametrize("offset", [-400, -200, -100, -50, 50, 100, 200, 400])
def test_dual_and_tate_match_window_oracles_with_a_far_pair(offset):
    pins = [m for m in fixture_models() if isinstance(m, PinModel)]
    for m in pins + [TRIPLE_KILLER] + random_pin_models(abs(offset) + (offset < 0), 4):
        _check_dual_and_tate_against_windows(
            with_acyclic_pair(m, (m.reducible_degree or 0) + offset))


def _mutations(m):
    """Every one-entry flip of d_fin and of the operators that keeps degrees,
    and every tower arrow that could be toggled."""
    degs = [d for _, d in m.finite]
    shifts = {"d_fin": -1, **{field: shift for _, field, shift, _ in m.OPS}}
    out = [(field, i, j) for field, shift in shifts.items()
           for i, di in enumerate(degs) for j, dj in enumerate(degs) if di == dj + shift]
    for label, d in m.finite:
        r = d - 1 - m.reducible_degree
        if r >= 0 and r % m.STEP < m.LEVELS:
            out.append(("arrow", label, r % m.STEP, r // m.STEP))
    return out


def _mutated(m, mutation):
    out = copy.deepcopy(m)
    if mutation[0] == "arrow":
        arrow = TowerArrow(*mutation[1:])
        if arrow in out.d_to_tower:
            out.d_to_tower.remove(arrow)
        else:
            out.d_to_tower.append(arrow)
    else:
        field, i, j = mutation
        out._rows[field][i] ^= 1 << j
    return out


def test_generator_checks_agree_with_the_window_checks():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for m in random_models(41, 40):
        mutations = _mutations(m)
        for mutation in rng.sample(mutations, min(6, len(mutations))):
            bad = _mutated(m, mutation)
            try:
                bad.materialize(*bad.default_window())
                window = None
            except InternalError as e:
                window = f"inconsistent model: {e}"
            try:
                type(bad).from_json(bad.to_json())
                generators = None
            except InputError as e:
                generators = str(e) if str(e).startswith("inconsistent model") else None
            assert generators == window, mutation
            seen[window is None] += 1
    assert seen[True] > 50 and seen[False] > 50
