"""Fuzz of the command line over mutated fixtures.

Each example takes a bundled fixture, or one of two tower models with a
finite part, tower arrows and an isolated generator (no bundled fixture
has a tower arrow), applies a few mutations to its JSON (drop a field,
swap a value for one of another type, perturb an integer by a little or
by 10**30, make a matrix row ragged), and runs one command on it with
numeric options drawn from small ranges; 15 examples per command.  Every
outcome must be a report with exit code 0, or a HomcobError with exit
code 1 (input) or 2 (invalid model): never an internal error and never
another exception.  Each example has a budget of EXAMPLE_DEADLINE_MS
(drawing excluded): its slowest run measured 5 ms on one core of a
2-core x86-64 host, and one example in 2 800 drawn at random 52 ms.

A byte-level sweep writes broken copies of every fixture file, truncated
or with one byte set to 0x80 or 0xff (never valid UTF-8), and runs each
through `cli.main`: each must exit 1 or 2 with one `error:` line and no
traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homcob import fixtures
from homcob.cli import load_input, main, run
from homcob.equivariant import PinModel, SOneModel
from homcob.errors import HomcobError

from helpers import with_isolated_generator

COMMANDS = {
    "simplicial": ["link", "star", "closure", "homology", "sq1", "pi1", "scan-links"],
    "pin_model": ["abc", "dual", "tate"],
    "s1_model": ["delta"],
    "u_complex": ["hfi", "v0"],
    "seifert": ["knot"],
}
ALL_COMMANDS = [c for cmds in COMMANDS.values() for c in cmds]
FIXTURES = [n for n in fixtures.fixture_names() if fixtures.describe(n) in COMMANDS]
CORPUS = [load_input(f"fixtures:{n}")[0] for n in FIXTURES] + [
    # q^2 z, q z, z kill the tower bottoms (0, 0), (1, 0), (2, 0); x -> y is a
    # pair; the lone generator in degree 7 can move to any degree
    with_isolated_generator(PinModel(
        0, [("z", 3), ("qz", 2), ("q2z", 1), ("x", 5), ("y", 4)],
        [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0] * 5, [0] * 5],
        [[0] * 5] * 5, [[0] * 5] * 3 + [[0] * 5, [0, 0, 0, 1, 0]],
        [("z", 2, 0), ("qz", 1, 0), ("q2z", 0, 0)]), 7).to_json(),
    # U z1 = z0 kill the tower elements in degrees 2 and 0; x -> y is a pair
    with_isolated_generator(SOneModel(
        0, [("z1", 3), ("z0", 1), ("x", 5), ("y", 4)],
        [[0] * 4, [1, 0, 0, 0], [0] * 4, [0] * 4],
        [[0] * 4] * 3 + [[0, 0, 1, 0]], [("z1", 0, 1), ("z0", 0, 0)]), 7).to_json(),
]
OTHER_TYPES = ["x", "1", 1.5, None, True, [], {}, [[]], -1, 2]
EXAMPLE_DEADLINE_MS = 100


def _paths(doc, prefix=()):
    """Every (path, value) below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, value = paths[draw(st.integers(0, len(paths) - 1))]
        parent = _parent(doc, path)
        how = draw(st.sampled_from(["drop", "swap", "perturb", "ragged"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "swap":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        elif how == "perturb" and isinstance(value, int) and not isinstance(value, bool):
            parent[path[-1]] = value + draw(st.one_of(
                st.integers(-3, 3), st.sampled_from([-10**30, 10**30])))
        elif how == "ragged" and isinstance(value, list) and value and all(
                isinstance(row, list) for row in value):
            row = value[draw(st.integers(0, len(value) - 1))]
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(st.integers(0, 1)))
    return doc


@st.composite
def invocations(draw, cmd):
    """(argv without the input path, mutated input document) for `cmd`."""
    kind = next(k for k, cmds in COMMANDS.items() if cmd in cmds)
    # now and then an input of another kind
    docs = [d for d in CORPUS if d["kind"] == kind] if draw(st.integers(0, 9)) else CORPUS
    doc = draw(mutated(copy.deepcopy(draw(st.sampled_from(docs)))))
    small = st.integers(-2, 6)
    argv = [cmd]
    if cmd in ("link", "star", "closure"):
        verts = draw(st.lists(small, min_size=0, max_size=3))
        argv += ["--simplex", ",".join(map(str, verts))]
    elif cmd == "sq1":
        argv += ["--dim", str(draw(st.integers(-2, 4)))]
    elif cmd == "pi1":
        if draw(st.booleans()):
            argv += ["--basepoint", str(draw(small))]
        argv += ["--limit", str(draw(st.integers(-1, 60)))]
    elif cmd == "scan-links":
        argv += ["--limit", str(draw(st.integers(-1, 60)))]
    elif cmd == "v0":
        argv += ["--p", str(draw(st.integers(-2, 4)))]
    return argv, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_outcome(argv, doc, path, where=()):
    """Run argv on doc, written to path: the outcome must be a report with
    exit code 0 or a HomcobError with exit code 1 or 2."""
    path.write_text(json.dumps(doc))
    try:
        text, code = run([*argv, str(path)])
    except HomcobError as e:
        assert e.exit_code in (1, 2), f"{argv} {where}: {type(e).__name__}: {e}"
    else:
        assert code == 0 and isinstance(text, str)


@pytest.mark.parametrize("cmd", ALL_COMMANDS)
@settings(max_examples=15, derandomize=True, deadline=EXAMPLE_DEADLINE_MS, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_fixtures_exit_zero_one_or_two(fuzz_dir, cmd, data):
    argv, doc = data.draw(invocations(cmd))
    _check_outcome(argv, doc, fuzz_dir / "input.json")


@pytest.mark.parametrize("kind", ["pin_model", "s1_model", "u_complex", "seifert"])
def test_every_integer_moved_by_10_30_exits_zero_one_or_two(fuzz_dir, kind):
    """The large perturbation on every integer of every input of `kind` in
    the corpus in turn, under every command of that kind.  The examples
    above seldom draw the one degree that can move alone (once in a sample
    of 3000 mutated pin-model documents).  The simplicial inputs hold about
    300 integers and are left to the examples."""
    ran = 0
    for doc in (d for d in CORPUS if d["kind"] == kind):
        for where, value in _paths(doc):
            if not isinstance(value, int) or isinstance(value, bool):
                continue
            for big in (-10**30, 10**30):
                moved = copy.deepcopy(doc)
                _parent(moved, where)[where[-1]] = value + big
                for cmd in COMMANDS[kind]:
                    argv = [cmd, "--p", "1"] if cmd == "v0" else [cmd]
                    _check_outcome(argv, moved, fuzz_dir / "input.json", where)
                    ran += 1
    assert ran


def _broken_copies(raw: bytes, cuts: int = 24, flips: int = 8):
    """Truncations of raw at `cuts` points before its closing brace (so no
    copy is a whole document) and copies with one byte, at `flips`
    evenly spaced positions, set to 0x80 or 0xff."""
    body = len(raw.rstrip())
    for end in sorted({*range(0, body, max(1, body // cuts)), body - 1}):
        yield f"cut {end}", raw[:end]
    for pos in range(0, len(raw), max(1, len(raw) // flips)):
        for byte in (0x80, 0xFF):
            yield f"{byte:#x} at {pos}", raw[:pos] + bytes([byte]) + raw[pos + 1:]


def test_broken_fixture_bytes_exit_one_or_two_without_traceback(fuzz_dir, capsys):
    """Every fixture file, the placeholder too, broken at the byte level."""
    path = fuzz_dir / "broken.json"
    ran = 0
    for name in fixtures.fixture_names():
        cmd = COMMANDS.get(fixtures.describe(name), ["homology"])[0]
        for what, raw in _broken_copies(fixtures.read_bytes(name)):
            path.write_bytes(raw)
            code = main([cmd, str(path)])
            out, err = capsys.readouterr()
            assert code in (1, 2), f"{name} {what}: exit {code}"
            assert not out and err.startswith("error: ") and err.count("\n") == 1, (name, what)
            assert "Traceback" not in err
            ran += 1
    assert ran >= 16 * (24 + 2 * 8)
