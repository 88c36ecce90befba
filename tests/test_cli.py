import hashlib
import json
import random
import sys

import pytest

from homcob import cli, fixtures, graded, involutive
from homcob.cli import load_input, main, parse_input, run
from homcob.equivariant import PinModel, SOneModel, abc, delta_invariant
from homcob.errors import HomcobError, InputError, ModelInvalidError
from homcob.simplicial import AbstractComplex

from helpers import (
    fresh_python,
    random_pin_model,
    random_s1_model,
    with_acyclic_pair,
    with_isolated_generator,
)


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
    c = UComplex.from_json(data)
    assert "iota" in c.to_json()
    assert UComplex.from_json(c.to_json()).to_json() == c.to_json()
    data, _ = load_input("fixtures:sigma237_s1")
    s = SOneModel.from_json(data)
    assert SOneModel.from_json(s.to_json()).to_json() == s.to_json()
    # random models have finite parts and tower arrows, which the fixtures lack
    rng = random.Random(12)
    models = [random_pin_model(rng, with_tower=i % 4 != 3, max_blocks=3) for i in range(40)]
    models += [random_s1_model(rng, max_blocks=3) for _ in range(40)]
    for kind in (PinModel, SOneModel):
        assert sum(bool(m._arrows) for m in models if type(m) is kind) >= 15
    for m in models:
        again = type(m).from_json(json.loads(json.dumps(m.to_json())))
        assert again.to_json() == m.to_json()
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
    for kind in ("mystery", [1], None):
        with pytest.raises(InputError, match="unknown input kind"):
            parse_input({"kind": kind})


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


def test_sq1_negative_dim_exits_one_without_traceback(capsys):
    assert main(["sq1", "--dim", "-1", "fixtures:rp2_6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: cohomology degree must be non-negative")
    assert "Traceback" not in err


def test_pi1_command():
    text = out_of(["pi1", "--limit", "100", "fixtures:rp2_6"])
    assert "coset_enumeration: 2" in text


def test_scan_links_command():
    text = out_of(["scan-links", "fixtures:boundary_delta4"])
    assert "all_certified_spheres: True" in text


@pytest.mark.parametrize("limit, message", [
    ("0", "coset limit must be >= 1"),
    ("1000001", "coset limit must be <= 1000000"),
])
def test_scan_links_checks_the_limit_without_certify_pi1(capsys, limit, message):
    """scan-links refuses a coset limit out of range as pi1 does, whether
    or not it is asked to certify pi1."""
    for argv in (["scan-links", "--limit", limit, "fixtures:boundary_delta4"],
                 ["pi1", "--limit", limit, "fixtures:rp2_6"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: InputError: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"facets": [list(range(20))]}, "facet has 20 vertices, more than 18"),
    ({"facets": [[0, 1], list(range(19))]}, "facet has 19 vertices, more than 18"),
    # the 18-vertex simplex has 2^18 - 1 cells; two more vertices pass 2^18
    ({"facets": [list(range(18))], "vertices": [100, 101]},
     "closure has more than 262144 cells"),
])
def test_oversized_simplicial_input_is_refused(tmp_path, capsys, doc, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "simplicial", **doc}))
    for command in ("homology", "sq1"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: InputError: {message}\n")


def test_the_eighteen_vertex_simplex_is_read():
    k = parse_input({"kind": "simplicial", "facets": [list(range(18))], "vertices": [100]})
    assert len(k.simplices) == 2 ** 18 and len(k.vertices) == 19


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


def test_only_hfi_solves_the_split_homotopy(monkeypatch):
    """v0 prints no split row, so it solves one homotopy (iota^2 ~ 1, in
    validate_iota); hfi solves a second one, for 1 + iota."""
    solve = involutive._homotopy_solve
    calls = []
    monkeypatch.setattr(involutive, "_homotopy_solve",
                        lambda c, rhs: calls.append((c, rhs)) or solve(c, rhs))
    for argv, want in ((["v0", "--p", "1", "fixtures:sigma237"], 1),
                       (["hfi", "fixtures:sigma237"], 2)):
        calls.clear()
        out_of(argv)
        assert len(calls) == want, argv
        # each right-hand side is packed columns, one per generator
        for c, rhs in calls:
            assert len(rhs) == len(c.generators) and all(type(col) is int for col in rhs)


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


def test_invalid_model_file_exits_one(tmp_path, capsys):
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
    # with no finite generators the matrices are still read and checked
    for cmd, data, attr in (
        ("abc", {"kind": "pin_model", "reducible_degree": 0, "finite": [],
                 "q": [[1, 1], [0, 1]], "v": "xx", "d_fin": [[5]]}, "q"),
        ("delta", {"kind": "s1_model", "reducible_degree": 0, "finite": [],
                   "u": [[1, 1], [0, 1]], "d_fin": [[5]]}, "u"),
    ):
        path.write_text(json.dumps(data))
        assert main([cmd, str(path)]) == 1
        assert f"InputError: {attr} must be 0x0" in capsys.readouterr().err


def test_file_input_matches_fixture(tmp_path):
    """The input digest is the first 16 hex digits of the sha256 of the
    input's bytes.  A copy of a fixture's file reports exactly as the
    fixture does; a re-formatted copy reports the same results under the
    digest of its own bytes."""
    raw = fixtures.load("figure_eight")[1]
    copy = tmp_path / "fig8.json"
    copy.write_bytes(raw)
    spaced = tmp_path / "fig8_spaced.json"
    spaced.write_text(json.dumps(json.loads(raw), indent=3, sort_keys=True))
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    # identical apart from the echoed input path
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("command:")]
    from_fixture = strip(out_of(["knot", "fixtures:figure_eight"]))
    assert from_fixture[0] == f"input: sha256:{digest(copy)}"
    assert strip(out_of(["knot", str(copy)])) == from_fixture
    reformatted = strip(out_of(["knot", str(spaced)]))
    assert reformatted[0] == f"input: sha256:{digest(spaced)}" != from_fixture[0]
    assert reformatted[1:] == from_fixture[1:]
    as_json = json.loads(out_of(["--json", "knot", str(spaced)]))
    assert as_json["input"] == digest(spaced)
    assert as_json["results"] == json.loads(out_of(["--json", "knot", str(copy)]))["results"]


@pytest.mark.parametrize(
    "raw",
    [b'\xff\xfe{"kind": "s"}',
     '{"kind": "simplicial"}'.encode("utf-16"),
     '{"kind": "simplicial", "facets": [["\xe9"]]}'.encode("latin-1")],
    ids=["stray-bytes", "utf-16", "latin-1"],
)
def test_input_that_is_not_utf8_exits_one_without_traceback(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert main(["homology", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: {path} is not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "raw, reason",
    [("[" * 100_000 + "]" * 100_000, "nested too deeply"),
     ('{"kind": "simplicial", "facets": [[' + "7" * 5000 + "]]}",
      "an integer has more than 4300 digits"),
     ("1" * 5000, "an integer has more than 4300 digits")],
    ids=["deep-array", "long-integer-field", "long-integer"],
)
def test_json_past_the_parser_limits_exits_one_without_traceback(tmp_path, capsys, raw, reason):
    path = tmp_path / "bad.json"
    path.write_text(raw)
    assert main(["homology", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: InputError: invalid JSON in {path}: {reason}\n")


def test_utf8_bom_is_refused_as_invalid_json(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b'\xef\xbb\xbf{"kind": "simplicial"}')
    assert main(["homology", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: InputError: invalid JSON in {path}")


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
    "facets, vertices, message",
    [
        ([[1, 1]], None, "simplex with repeated vertices: [1, 1]"),
        ([[1, 2], [2, 3, 2]], None, "simplex with repeated vertices: [2, 3, 2]"),
        ([[1, 2], []], None, "empty simplex"),
        ([[1, "a"]], None, "malformed simplicial input: vertex must be an integer, got 'a'"),
        ([[1, 2]], [3, 1.5], "malformed simplicial input: vertex must be an integer, got 1.5"),
        ([5], None, "malformed simplicial input: TypeError: 'int' object is not iterable"),
    ],
)
def test_malformed_facets_keep_their_message_and_exit_one(tmp_path, capsys, facets,
                                                           vertices, message):
    path = tmp_path / "bad.json"
    data = {"kind": "simplicial", "facets": facets}
    if vertices is not None:
        data["vertices"] = vertices
    path.write_text(json.dumps(data))
    assert main(["homology", str(path)]) == 1
    assert capsys.readouterr().err == f"error: InputError: {message}\n"


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
        ["hfi"],
        ["link", "--simplex", "a", "fixtures:triangle_edge"],
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


def _drop(*path):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


def _arrow_cases():
    """(kind, edit, message): a valid model with tower arrows, edited so
    that one arrow is bad.  An s1_model arrow has no level a to edit."""
    both = [
        (_set("d_to_tower", 0, "from", "nope"), "tower arrow from unknown generator 'nope'"),
        (_set("d_to_tower", 0, "b", -1), "and b >= 0"),
        (_set("d_to_tower", 0, "b", 1), "tower arrow from 'z' is not of degree -1"),
        (_set("d_to_tower", 0, "b", 0.5), "tower arrow b must be an integer"),
        (_drop("d_to_tower", 0, "from"), "missing field 'from'"),
        (_drop("d_to_tower", 0, "b"), "missing field 'b'"),
    ]
    pin_only = [
        (_set("d_to_tower", 0, "a", 3), "tower arrow needs 0 <= a < 3"),
        (_set("d_to_tower", 0, "a", -1), "tower arrow needs 0 <= a < 3"),
        (_set("d_to_tower", 0, "a", "2"), "tower arrow a must be an integer"),
        (_drop("d_to_tower", 0, "a"), "missing field 'a'"),
        (_set("reducible_degree", None), "tower arrow in a model without a reducible tower"),
    ]
    s1_only = [(_set("reducible_degree", None), "reducible_degree must be an integer")]
    return ([("pin_model", *case) for case in both + pin_only]
            + [("s1_model", *case) for case in both + s1_only])


@pytest.mark.parametrize("kind, edit, message", _arrow_cases())
def test_bad_tower_arrows_exit_one(tmp_path, capsys, kind, edit, message):
    cmd, data = ("abc", _killer_pin(2, 0)) if kind == "pin_model" else ("delta", _s1_with(0, 1, 0))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InputError: ") and message in err
    assert "Traceback" not in err


def _two_generator(kind):
    fields = {"pin_model": {"q": [[0, 0], [0, 0]], "v": [[0, 0], [0, 0]]},
              "s1_model": {"u": [[0, 0], [0, 0]]}}[kind]
    return {"kind": kind, "reducible_degree": 0,
            "finite": [{"label": "x", "degree": 1}, {"label": "y", "degree": 0}],
            "d_fin": [[0, 0], [1, 0]], "d_to_tower": [], **fields}


@pytest.mark.parametrize("value", [3.7, "1", 2, True, -1, None])
@pytest.mark.parametrize(
    "cmd, kind, field",
    [("abc", "pin_model", "q"), ("abc", "pin_model", "v"), ("abc", "pin_model", "d_fin"),
     ("delta", "s1_model", "u"), ("delta", "s1_model", "d_fin")],
)
def test_matrix_entries_must_be_bits(tmp_path, capsys, cmd, kind, field, value):
    data = _two_generator(kind)
    data[field][1][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: malformed {kind} input: {field} entries "
                          f"must be 0 or 1, got {value!r}")


DEEP = json.loads("[" * 900 + "1" + "]" * 900)  # a list nested 900 deep
LONG = "x" * 5000


def _u_complex(entry):
    return {"kind": "u_complex", "iota": [],
            "generators": [{"label": "a", "degree": 1}, {"label": "b", "degree": 0}],
            "differential": [dict(zip(("from", "to", "upower"), entry))]}


@pytest.mark.parametrize(
    "cmd, data, message",
    [
        ("homology", {"kind": "simplicial", "facets": [[1, DEEP]]},
         "malformed simplicial input: vertex must be an integer, got [[[[[[[...]]]]]]]"),
        ("knot", {"kind": "seifert", "matrix": [[1, 1], [0, DEEP]]},
         "malformed seifert input: matrix entry must be an integer, got [[[[[[[...]]]]]]]"),
        ("knot", {"kind": "seifert", "matrix": [[1, [LONG] * 9], [0, 1]]},
         "malformed seifert input: matrix entry must be an integer, got "
         "['xxxxxxxxxxxx...xxxxxxxxxxxxx', 'xxxxxxxxxxxx...xxxxxxxx..."),
        ("abc", {**_two_generator("pin_model"), "q": [[0, 0], [DEEP, 0]]},
         "malformed pin_model input: q entries must be 0 or 1, got [[[[[[[...]]]]]]]"),
        ("abc", {**_two_generator("pin_model"), "d_to_tower": [{"from": LONG, "a": 0, "b": 0}]},
         "tower arrow from unknown generator 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        ("hfi", _u_complex((LONG, "b", 0)),
         "differential entry ('xxxxxxxxxxxx...xxxxxxxxxxxxx', 'b', 0) references unknown generator"),
        ("hfi", _u_complex(("a", "b", 10 ** 200)),
         "differential entry 'a'->'b' must have upower 0, "
         "got 100000000000000000...0000000000000000000"),
        ("abc", {"kind": DEEP},
         "this command needs a 'pin_model' input, got [[[[[[[...]]]]]]]"),
    ],
    ids=["homology-vertex", "knot-entry", "knot-entry-cut", "abc-matrix-entry",
         "abc-arrow-source", "hfi-entry", "hfi-upower", "kind"],
)
def test_errors_cap_the_value_they_repeat(tmp_path, capsys, cmd, data, message):
    """An error that repeats a bad input value repeats it abridged, never
    the whole of a huge or deeply nested value."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: InputError: {message}\n")


BIG = 10 ** 3999 + 7  # 4 000 digits, under Python's limit for int(str)
TRIANGLE = {"kind": "simplicial", "facets": [[1, 2, 3]]}
BIG_SIMPLEX = "simplex (100000000000000000...0000000000000000007,) not in complex"


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["homology"], {"kind": "simplicial", "facets": [[BIG, BIG]]},
         "simplex with repeated vertices: [100000000000000000...0000000000000000007, "
         "10000000000000..."),
        (["link", "--simplex", str(BIG)], TRIANGLE, BIG_SIMPLEX),
        (["star", "--simplex", str(BIG)], TRIANGLE, BIG_SIMPLEX),
        (["closure", "--simplex", "1", "--simplex", str(BIG)], TRIANGLE, BIG_SIMPLEX),
        (["link", "--simplex", "1" * 5000], TRIANGLE,
         "bad simplex '111111111111...1111111111111': a vertex has more than "
         f"{sys.get_int_max_str_digits()} digits"),
        (["link", "--simplex", "1" * 5000 + "x"], TRIANGLE,
         "bad simplex '111111111111...111111111111x': use comma-separated integers"),
        (["pi1", "--basepoint", str(BIG)], TRIANGLE,
         "basepoint 100000000000000000...0000000000000000007 not a vertex"),
    ],
    ids=["homology-repeated-vertex", "link-simplex", "star-simplex", "closure-simplex",
         "link-bad-simplex", "link-junk-simplex", "pi1-basepoint"],
)
def test_simplicial_errors_cap_the_value_they_repeat(tmp_path, capsys, argv, data, message):
    """The simplicial doors, input file or option, repeat a huge value
    abridged, as every other error does."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: InputError: {message}\n")


LONG = "x" * 5000
# 3 000 generators and a q of 3 000 rows, of lengths 1 and (the last) 0:
# the ragged message listed every length
RAGGED_Q = {"kind": "pin_model", "reducible_degree": 0,
            "finite": [{"label": f"g{i}", "degree": 2 * i} for i in range(3000)],
            "q": [[0]] * 2999 + [[]]}


@pytest.mark.parametrize(
    "argv",
    [["abc", "ragged.json"], ["abc", LONG + ".json"], ["abc", f"fixtures:{LONG}"],
     ["abc", "fixtures:s3", LONG], [LONG, "fixtures:s3"],
     ["homology", "--ring", LONG, "fixtures:torus7"], ["sq1", "--dim", LONG, "fixtures:torus7"]],
    ids=["ragged-rows", "cannot-read", "unknown-fixture", "unrecognized-argument",
         "invalid-command", "invalid-ring", "invalid-int"],
)
def test_an_error_line_abridges_a_long_argument_or_input(tmp_path, monkeypatch, capsys, argv):
    """Each of these lines repeated a whole value, in 5 000 to 10 000
    characters: now each is one line of at most 200 (argparse's messages
    are clipped whole, the others abridge the value they repeat)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ragged.json").write_text(json.dumps(RAGGED_Q))
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: InputError: ") and err.count("\n") == 1
    assert len(err) <= 201, err[:300]


def test_short_paths_and_values_print_in_full(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["abc", "missing.json"]) == 1
    assert capsys.readouterr() == ("", "error: InputError: cannot read missing.json: "
                                   "[Errno 2] No such file or directory: 'missing.json'\n")
    assert main(["abc", "fixtures:nope"]) == 1
    assert capsys.readouterr() == (
        "", "error: InputError: unknown fixture 'nope'; see `homcob fixtures`\n")
    (tmp_path / "ragged.json").write_text(json.dumps({**_two_generator("pin_model"),
                                                      "q": [[0, 0], [0]]}))
    assert main(["abc", "ragged.json"]) == 1
    assert capsys.readouterr() == (
        "", "error: InputError: q must be 2x2, got ragged rows of lengths [2, 1]\n")
    assert main(["homology", "--ring", "Q", "fixtures:torus7"]) == 1
    assert "argument --ring: invalid choice: 'Q' (choose from " in capsys.readouterr().err


@pytest.mark.parametrize(
    "vertices, simplices, message",
    [
        ([1, 2], [[1], [2], [1, 2], [BIG]],
         "simplex (100000000000000000...0000000000000000007,) references unknown vertex"),
        (list(range(1, 10)), [[v] for v in range(1, 10)] + [list(range(1, 10))],
         "not downward closed: missing face (1, 2) of (1, 2, 3, 4, 5, 6, ...)"),
        ([1, 2, BIG], [[1], [2], [1, 2]],
         "vertex 100000000000000000...0000000000000000007 has no singleton simplex"),
    ],
    ids=["unknown-vertex", "missing-face", "no-singleton"],
)
def test_complex_checks_cap_the_value_they_repeat(vertices, simplices, message):
    """The checks of the AbstractComplex constructor, which no command
    reaches (the CLI reads facets, closed by construction), abridge too."""
    with pytest.raises(InputError) as err:
        AbstractComplex(vertices, simplices)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.7, 1], [0, 1]], "matrix entry must be an integer, got 1.7"),
        ([[1, 1], [0, "1"]], "matrix entry must be an integer, got '1'"),
        ([[True, 1], [0, 1]], "matrix entry must be an integer, got True"),
        ([[1, None], [0, 1]], "matrix entry must be an integer, got None"),
        ([[1, 1], 5], "matrix must be a list of rows"),
        ({"0": [1, 1]}, "matrix must be a list of rows"),
    ],
)
def test_seifert_entries_must_be_integers(tmp_path, capsys, matrix, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "seifert", "matrix": matrix}))
    assert main(["knot", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InputError: malformed seifert input: {message}")


BOUNDARY_DELTA6 = {"kind": "simplicial",
                   "facets": [[v for v in range(7) if v != w] for w in range(7)]}


@pytest.mark.parametrize(
    "argv, data, code, message",
    [
        (["hfi"], _fixture_with("sigma237", _drop("iota")), 1,
         "InputError: u_complex input needs an 'iota' field for this command"),
        (["v0", "--p", "1"], _fixture_with("sigma237", _drop("iota")), 1,
         "InputError: u_complex input needs an 'iota' field for this command"),
        (["hfi"], {"kind": "u_complex", "generators": [], "iota": []}, 2,
         "ModelInvalidError: no U-tower in the plus flavor"),
        (["abc"], {**_two_generator("pin_model"),
                   "finite": [{"label": "x", "degree": 1}, {"label": "x", "degree": 0}]}, 1,
         "InputError: duplicate finite generator labels"),
        (["knot"], {"kind": "seifert"}, 1, "InputError: seifert missing field 'matrix'"),
        (["scan-links"], BOUNDARY_DELTA6, 1, "InputError: link scan supports dimension <= 4"),
        (["pi1", "--basepoint", "9"], fixtures.load("rp2_6")[0], 1,
         "InputError: basepoint 9 not a vertex"),
    ],
    ids=["hfi-no-iota", "v0-no-iota", "empty-u_complex", "duplicate-pin-labels",
         "seifert-no-matrix", "scan-links-dim-5", "pi1-basepoint-outside"],
)
def test_refused_inputs_name_their_cause(tmp_path, capsys, argv, data, code, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "cmd, data, message",
    [
        ("homology", {"kind": "simplicial", "facets": [5]},
         "malformed simplicial input: TypeError: "),
        ("abc", {"kind": "pin_model", "reducible_degree": 0, "finite": "x"},
         "malformed pin_model input: TypeError: "),
        ("delta", {"kind": "s1_model", "finite": 3}, "malformed s1_model input: TypeError: "),
        ("hfi", {"kind": "u_complex", "generators": [{"label": "a", "degree": None}]},
         "malformed u_complex input: degree must be an integer, got None"),
        ("abc", {**_killer_pin(2, 0), "d_to_tower": [{"a": 2, "b": 0}]},
         "pin_model missing field 'from'"),
        ("abc", {**_killer_pin(2, 0), "d_to_tower": [{"from": "z", "b": 0}]},
         "pin_model missing field 'a'"),
        ("abc", {**_killer_pin(2, 0), "d_to_tower": [{"from": "z", "a": 2}]},
         "pin_model missing field 'b'"),
        ("delta", {**_s1_with(0, 1, 0), "d_to_tower": [{"from": "z"}]},
         "s1_model missing field 'b'"),
        ("hfi", _fixture_with("minus_sigma237", _drop("differential", 0, "upower")),
         "u_complex missing field 'upower'"),
        ("hfi", _fixture_with("minus_sigma237", _drop("iota", 0, "upower")),
         "u_complex missing field 'upower'"),
        ("hfi", {"kind": "u_complex"}, "u_complex missing field 'generators'"),
        ("knot", {"kind": "seifert"}, "seifert missing field 'matrix'"),
    ],
    ids=["facets-int", "finite-str", "s1-finite-int", "degree-null", "arrow-no-from",
         "arrow-no-a", "arrow-no-b", "s1-arrow-no-b", "no-differential-upower",
         "no-iota-upower", "no-generators", "seifert-no-matrix"],
)
def test_parse_input_refuses_as_the_cli_does(tmp_path, capsys, cmd, data, message):
    """parse_input is the one door: the library refuses a malformed field
    with the InputError, word for word, that the CLI prints."""
    with pytest.raises(InputError) as err:
        parse_input(data)
    assert str(err.value).startswith(message)
    assert message.endswith(": ") or str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([cmd, str(path)]) == 1
    assert capsys.readouterr().err == f"error: InputError: {err.value}\n"


def test_tate_on_a_model_without_a_reducible_tower_says_why(tmp_path):
    free = {**_two_generator("pin_model"), "reducible_degree": None}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(free))
    assert out_of(["tate", str(path)]).splitlines()[2:] == [
        "localizes: True", "anchored_at: None", "stable_pattern: [0, 0, 0, 0]",
        "detail: free model localizes to zero"]
    assert json.loads(out_of(["--json", "tate", str(path)]))["results"]["detail"] == (
        "free model localizes to zero")


def _outcome(argv):
    try:
        return run(list(argv))
    except HomcobError as e:
        return type(e).__name__, str(e), e.exit_code


MIXED_SEQUENCE = [
    ["closure", "--simplex", "1,2", "--simplex", "3,4", "fixtures:triangle_edge"],
    ["closure", "--simplex", "1,3", "fixtures:triangle_edge"],
    ["v0", "--p", "3", "fixtures:sigma237"],
    ["v0", "fixtures:sigma237"],
    ["--json", "abc", "fixtures:poincare"],
    ["abc", "fixtures:s3"],
    ["abc", "--bogus", "fixtures:s3"],
    ["closure", "--simplex", "1", "--simplex", "1,3,4", "fixtures:triangle_edge"],
    ["homology", "--ring", "F2", "--reduced", "fixtures:rp2_6"],
    ["homology", "fixtures:rp2_6"],
    ["pi1", "--basepoint", "2", "--limit", "50", "fixtures:rp2_6"],
    ["pi1", "fixtures:rp2_6"],
    ["sq1", "--dim", "2", "fixtures:rp2_6"],
    ["sq1", "fixtures:rp2_6"],
    ["nocommand", "fixtures:s3"],
    [],
    ["--json", "fixtures"],
    ["closure", "--simplex", "2", "fixtures:triangle_edge"],
    ["link", "fixtures:triangle_edge"],
    ["link", "--simplex", "4", "fixtures:triangle_edge"],
]


def test_one_parser_serves_a_mixed_sequence(monkeypatch):
    """One process reusing the cached parser gives what a fresh parser per
    call gives: no appended --simplex, option value or subcommand leaks
    from one call into the next."""
    assert cli._parser() is cli._parser()
    shared = [_outcome(argv) for argv in MIXED_SEQUENCE * 2]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(argv) for argv in MIXED_SEQUENCE * 2]
    assert shared == fresh
    # five usage errors, each exit 1; everything else ran
    assert [o[-1] for o in shared[:len(MIXED_SEQUENCE)]].count(1) == 5
    assert "simplices: [(1,), (1, 3), (3,)]" in shared[1][0]


COMMAND_ARGS = {
    "link": ["--simplex", "1"], "star": ["--simplex", "1"], "closure": ["--simplex", "1"],
    "homology": [], "sq1": [], "pi1": [], "scan-links": [], "abc": [], "dual": [],
    "tate": [], "delta": [], "hfi": [], "v0": ["--p", "1"], "knot": [],
}


COMMAND_KIND = {
    "link": "simplicial", "star": "simplicial", "closure": "simplicial",
    "homology": "simplicial", "sq1": "simplicial", "pi1": "simplicial",
    "scan-links": "simplicial", "abc": "pin_model", "dual": "pin_model", "tate": "pin_model",
    "delta": "s1_model", "hfi": "u_complex", "v0": "u_complex", "knot": "seifert",
}
FIXTURE_OF_KIND = {"simplicial": "torus7", "pin_model": "s3", "s1_model": "poincare_s1",
                   "u_complex": "sigma237", "seifert": "trefoil"}


@pytest.mark.parametrize(
    "cmd, other",
    [(cmd, other) for cmd in COMMAND_ARGS
     for other in FIXTURE_OF_KIND if other != COMMAND_KIND[cmd]],
)
def test_each_command_refuses_every_other_input_kind(capsys, cmd, other):
    argv = [cmd, *COMMAND_ARGS[cmd], f"fixtures:{FIXTURE_OF_KIND[other]}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: InputError: this command needs a '{COMMAND_KIND[cmd]}' input, got '{other}'\n")


@pytest.fixture
def refuse_windows(monkeypatch):
    """Make laying out a window an error, wherever homcob binds the builder."""
    original = graded.ladder_window

    def refuse(gens, maps, lo, hi):
        raise AssertionError(f"window [{lo}, {hi}] laid out")

    for name, mod in list(sys.modules.items()):
        if name == "homcob" or name.startswith("homcob."):
            if vars(mod).get("ladder_window") is original:
                monkeypatch.setattr(mod, "ladder_window", refuse)


def test_no_command_builds_a_window(refuse_windows, tmp_path):
    ran = 0
    for name in fixtures.fixture_names():
        for cmd, extra in COMMAND_ARGS.items():
            try:
                run([cmd, *extra, f"fixtures:{name}"])
                ran += 1
            except HomcobError:
                pass
    # every command on every fixture of its kind, except scan-links on the
    # impure triangle_edge (InputError) and the placeholder sigma_2_3_11
    assert ran == 52
    assert run(["fixtures"])[1] == 0

    def body(argv):
        lines = out_of(argv).splitlines()
        return [l for l in lines if not l.startswith(("command:", "input:"))]

    for name in fixtures.fixture_names():
        kind = fixtures.describe(name)
        if kind not in ("pin_model", "s1_model"):
            continue
        m = (PinModel if kind == "pin_model" else SOneModel).from_json(fixtures.load(name)[0])
        cmds = ["abc", "dual", "tate"] if kind == "pin_model" else ["delta"]
        for offset in (-100_000, 100_000):
            path = tmp_path / f"{name}{offset}.json"
            far_model = with_acyclic_pair(m, m.reducible_degree + offset)
            path.write_text(json.dumps(far_model.to_json()))
            for cmd in cmds:
                near, far = body([cmd, f"fixtures:{name}"]), body([cmd, str(path)])
                assert near == far, (name, offset, cmd)


# Runs each argv in a new interpreter, with numpy loadable or not, and
# prints every report (or error), and whether numpy was loaded, as JSON.
REPORTS_IN_A_FRESH_INTERPRETER = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy raises ImportError
from homcob import cli
from homcob.errors import HomcobError
cli.build_parser()
reports = []
for argv in json.loads(sys.argv[2]):
    try:
        reports.append(cli.run(argv)[0])
    except HomcobError as e:
        reports.append(f"{type(e).__name__}: {e}")
print(json.dumps({"reports": reports, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("numpy", ["loadable", "blocked"])
def test_no_command_loads_numpy(numpy):
    """Every command on every fixture of its kind, and `fixtures`, reports
    the same in a new interpreter as here, without loading numpy; with
    numpy made unimportable, too."""
    argvs = [[cmd, *extra, f"fixtures:{name}"] for name in fixtures.fixture_names()
             for cmd, extra in COMMAND_ARGS.items()
             if COMMAND_KIND[cmd] == fixtures.describe(name)] + [["fixtures"]]
    expected = []
    for argv in argvs:
        try:
            expected.append(run(argv)[0])
        except HomcobError as e:
            expected.append(f"{type(e).__name__}: {e}")
    # the 52 runs of test_no_command_builds_a_window, scan-links refusing the
    # impure triangle_edge, and `fixtures`
    assert len(argvs) == 54 and sum(r.startswith("InputError") for r in expected) == 1
    fresh = json.loads(fresh_python(REPORTS_IN_A_FRESH_INTERPRETER, numpy, json.dumps(argvs)))
    assert fresh["reports"] == expected
    assert fresh["numpy"] == (numpy == "blocked")


@pytest.mark.parametrize("degree", [-10**30, 10**30])
def test_isolated_generator_beyond_int64_changes_no_tower_bottom(tmp_path, degree):
    for name in fixtures.fixture_names():
        kind = fixtures.describe(name)
        if kind not in ("pin_model", "s1_model"):
            continue
        m = (PinModel if kind == "pin_model" else SOneModel).from_json(fixtures.load(name)[0])
        lone = with_isolated_generator(m, degree)
        if kind == "pin_model":
            assert abc(lone) == abc(m)
        else:
            assert delta_invariant(lone) == delta_invariant(m)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lone.to_json()))
        for cmd in ["abc", "dual", "tate"] if kind == "pin_model" else ["delta"]:
            near = run([cmd, f"fixtures:{name}"])[0]
            far, code = run([cmd, str(path)])
            assert code == 0
            # past the two lines that name the command and the input
            assert far.splitlines()[2:] == near.splitlines()[2:], (name, cmd)
