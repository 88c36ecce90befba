import json

import pytest

from homcob import fixtures
from homcob.cli import load_input, main, parse_input, run
from homcob.errors import InputError, ModelInvalidError


def out_of(argv):
    text, code = run(argv)
    assert code == 0
    return text


def test_every_real_fixture_parses_and_validates():
    for name in fixtures.fixture_names():
        if name == "sigma_2_3_11":
            continue
        data, _ = load_input(f"fixtures:{name}")
        parse_input(data)  # validation happens in the constructors


def test_fixture_roundtrip_serialization():
    from homcob.equivariant import PinModel, SOneModel
    from homcob.involutive import UComplex

    for name in ("s3", "poincare", "s_minus2"):
        data, _ = load_input(f"fixtures:{name}")
        m = PinModel.from_json(data)
        again = PinModel.from_json(m.to_json())
        assert again.to_json() == m.to_json()
    data, _ = load_input("fixtures:sigma237")
    c, iota = UComplex.from_json(data)
    c2, iota2 = UComplex.from_json(c.to_json(iota))
    assert c2.to_json(iota2) == c.to_json(iota)
    data, _ = load_input("fixtures:sigma237_s1")
    s = SOneModel.from_json(data)
    assert SOneModel.from_json(s.to_json()).to_json() == s.to_json()
    for name in ("triangle_edge", "torus7", "rp2_6", "boundary_delta3"):
        data, _ = load_input(f"fixtures:{name}")
        k = parse_input(data)
        again = parse_input(k.to_json())
        assert again == k
    for name in ("unknot", "trefoil", "figure_eight"):
        data, _ = load_input(f"fixtures:{name}")
        v = parse_input(data)
        assert parse_input(v.to_json()).v == v.v


def test_empty_facet_list_is_valid():
    k = parse_input({"kind": "simplicial", "facets": []})
    assert k.dimension() == -1 and not k.simplices


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        parse_input({"kind": "mystery"})


def test_link_command_worked_example():
    text = out_of(["link", "--simplex", "4", "fixtures:triangle_edge"])
    assert "simplices: [(1,), (1, 3), (3,)]" in text
    text = out_of(["link", "--simplex", "1", "fixtures:triangle_edge"])
    assert "simplices: [(2,), (3,), (3, 4), (4,)]" in text


def test_star_and_closure_commands():
    text = out_of(["star", "--simplex", "4", "fixtures:triangle_edge"])
    assert "(1, 3, 4)" in text
    text = out_of(["closure", "--simplex", "1,2", "fixtures:triangle_edge"])
    assert "simplices: [(1,), (1, 2), (2,)]" in text


def test_homology_command():
    text = out_of(["homology", "fixtures:torus7"])
    assert "H1: Z + Z" in text
    text = out_of(["homology", "--ring", "F2", "fixtures:rp2_6"])
    assert "H0: F2^1" in text and "H1: F2^1" in text and "H2: F2^1" in text


def test_sq1_command():
    text = out_of(["sq1", "--dim", "1", "fixtures:rp2_6"])
    assert "sq1_class_0_nonzero: True" in text
    text = out_of(["sq1", "--dim", "1", "fixtures:torus7"])
    assert "sq1_class_0_nonzero: False" in text


def test_pi1_command():
    text = out_of(["pi1", "--limit", "100", "fixtures:rp2_6"])
    assert "coset_enumeration: 2" in text


def test_scan_links_command():
    text = out_of(["scan-links", "fixtures:boundary_delta4"])
    assert "all_certified_spheres: True" in text


def test_abc_commands():
    text = out_of(["abc", "fixtures:s3"])
    assert "alpha: 0" in text and "mu: 0" in text
    text = out_of(["abc", "fixtures:poincare"])
    assert "alpha: 1" in text and "beta: 1" in text and "gamma: 1" in text and "mu: 1" in text


def test_dual_and_tate_commands():
    text = out_of(["dual", "fixtures:s3"])
    assert "coborel_tops: [0, -1, -2]" in text
    text = out_of(["tate", "fixtures:poincare"])
    assert "localizes: True" in text and "anchored_at: 2" in text


def test_delta_command():
    assert "delta: 1" in out_of(["delta", "fixtures:poincare_s1"])
    assert "delta: 0" in out_of(["delta", "fixtures:sigma237_s1"])


def test_hfi_command():
    text = out_of(["hfi", "fixtures:sigma237"])
    assert "d: 0" in text and "d_bar: 0" in text and "d_under: -2" in text


def test_v0_command():
    text = out_of(["v0", "--p", "1", "fixtures:sigma237"])
    assert "V0: 0" in text and "V0_bar: 0" in text and "V0_under: 1" in text


def test_knot_command():
    text = out_of(["knot", "fixtures:figure_eight"])
    assert "signature: 0" in text
    assert "arf: 1" in text
    assert "fox_milnor: obstructed" in text
    assert "corollary_sigma_eq_4arf_plus_4: True" in text


def test_json_mode_is_valid_json():
    text = out_of(["--json", "abc", "fixtures:poincare"])
    doc = json.loads(text)
    assert doc["results"]["alpha"] == 1


def test_determinism():
    for argv in (
        ["abc", "fixtures:poincare"],
        ["--json", "hfi", "fixtures:sigma237"],
        ["homology", "fixtures:torus7"],
        ["knot", "fixtures:trefoil"],
    ):
        assert out_of(list(argv)) == out_of(list(argv))


def test_placeholder_fixture_exits_two():
    assert main(["abc", "fixtures:sigma_2_3_11"]) == 2


def test_unknown_fixture_exits_one():
    assert main(["abc", "fixtures:nope"]) == 1


def test_wrong_kind_exits_one():
    assert main(["abc", "fixtures:torus7"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert main(["homology", str(tmp_path / "absent.json")]) == 1


def test_invalid_model_file_exits_one(tmp_path):
    # schema-valid pin model whose q matrix breaks q^3 = 0 is rejected
    bad = {
        "kind": "pin_model",
        "reducible_degree": 0,
        "finite": [
            {"label": "a", "degree": 4},
            {"label": "b", "degree": 3},
            {"label": "c", "degree": 2},
            {"label": "d", "degree": 1},
        ],
        "q": [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ],
        "v": [[0] * 4] * 4,
        "d_fin": [[0] * 4] * 4,
        "d_to_tower": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["abc", str(path)]) == 1


def test_file_input_matches_fixture(tmp_path):
    data, _ = load_input("fixtures:figure_eight")
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(data))
    from_file = out_of(["knot", str(path)])
    from_fixture = out_of(["knot", "fixtures:figure_eight"])
    # identical apart from the echoed input path
    strip = lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("command:"))
    assert strip(from_file) == strip(from_fixture)


@pytest.mark.parametrize(
    "cmd, data",
    [
        ("abc", {"kind": "pin_model", "reducible_degree": 0, "finite": "x"}),
        ("hfi", {"kind": "u_complex", "generators": [{"label": "a", "degree": None}],
                 "iota": []}),
        ("homology", {"kind": "simplicial", "facets": [["a", "b"]]}),
    ],
)
def test_malformed_fields_exit_one_without_traceback(tmp_path, capsys, cmd, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: malformed {data['kind']} input")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["abc", "--bogus", "fixtures:s3"],
        [],
        ["--json"],
        ["hfi", "--window", "0:9", "fixtures:sigma237"],
        ["abc", "--margin", "3", "fixtures:s3"],
        ["v0", "fixtures:sigma237"],
        ["v0", "--p", "x", "fixtures:sigma237"],
        ["nocommand", "fixtures:s3"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["hfi", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--window", "--margin"])
@pytest.mark.parametrize(
    "cmd, fixture",
    [("abc", "s3"), ("dual", "s3"), ("tate", "s3"), ("delta", "poincare_s1"),
     ("hfi", "sigma237"), ("v0", "sigma237")],
)
def test_window_and_margin_options_are_gone(capsys, cmd, fixture, flag):
    extra = ["--p", "1"] if cmd == "v0" else []
    assert main([cmd, *extra, f"fixtures:{fixture}", flag, "2"]) == 1
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def _fixture_with(name, edit):
    data, _ = load_input(f"fixtures:{name}")
    edit(data)
    return data


def _killer_pin(a, b):
    return {
        "kind": "pin_model", "reducible_degree": 0,
        "finite": [{"label": "z", "degree": 3}, {"label": "qz", "degree": 2},
                   {"label": "q2z", "degree": 1}],
        "q": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "v": [[0] * 3] * 3, "d_fin": [[0] * 3] * 3,
        "d_to_tower": [{"from": "z", "a": a, "b": b}, {"from": "qz", "a": 1, "b": 0},
                       {"from": "q2z", "a": 0, "b": 0}],
    }


def _s1_with(reducible, degree, b):
    return {
        "kind": "s1_model", "reducible_degree": reducible,
        "finite": [{"label": "z", "degree": degree}], "u": [[0]], "d_fin": [[0]],
        "d_to_tower": [{"from": "z", "b": b}],
    }


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "cmd, data, field",
    [
        ("hfi", _fixture_with("sigma237", _set("generators", 0, "degree", 1.5)), "degree"),
        ("hfi", _fixture_with("sigma237", _set("generators", 0, "degree", "0")), "degree"),
        ("hfi", _fixture_with("sigma237", _set("generators", 0, "degree", False)), "degree"),
        ("hfi", _fixture_with("sigma237", _set("differential", 0, "upower", 1.0)), "upower"),
        ("hfi", _fixture_with("sigma237", _set("iota", 0, "upower", "0")), "upower"),
        ("abc", _fixture_with("s3", _set("reducible_degree", 0.0)), "reducible_degree"),
        ("abc", _fixture_with("s3", _set("reducible_degree", "4")), "reducible_degree"),
        ("abc", _fixture_with("s3", _set("finite", [{"label": "x", "degree": 1.5}])), "degree"),
        ("abc", _killer_pin(2.0, 0), "tower arrow a"),
        ("abc", _killer_pin(2, "0"), "tower arrow b"),
        ("delta", _s1_with(True, 1, 0), "reducible_degree"),
        ("delta", _s1_with(0, "1", 0), "degree"),
        ("delta", _s1_with(0, 1, 0.0), "tower arrow b"),
        ("homology", {"kind": "simplicial", "facets": [[1, 2.5]]}, "vertex"),
        ("homology", {"kind": "simplicial", "facets": [["1", 2]]}, "vertex"),
        ("homology", {"kind": "simplicial", "facets": [[1, 2]], "vertices": [True]}, "vertex"),
    ],
)
def test_integer_fields_must_be_integers(tmp_path, capsys, cmd, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: malformed {data['kind']} input: {field} ")
    assert "must be an integer" in err


def test_integer_fields_accept_their_valid_forms(tmp_path):
    for cmd, data in (("abc", _killer_pin(2, 0)), ("delta", _s1_with(0, 1, 0))):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(data))
        assert main([cmd, str(path)]) == 0
