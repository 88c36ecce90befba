"""Every applicable command on every bundled fixture against the recorded
`results` block in golden_results.json.

The record is compared as canonical JSON text, so a changed value, type
(True versus 1) or key fails.  To re-record after a deliberate change of
results, run ``python tests/test_golden.py --write`` from a checkout and
justify the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from homcob import fixtures
from homcob.cli import run
from homcob.errors import HomcobError

GOLDEN = Path(__file__).with_name("golden_results.json")

COMMANDS = {
    "simplicial": (
        ["homology", "--ring", "Z"],
        ["homology", "--ring", "F2"],
        ["sq1"],
        ["pi1"],
        ["scan-links"],
    ),
    "pin_model": (["abc"], ["dual"], ["tate"]),
    "s1_model": (["delta"],),
    "u_complex": (["hfi"], ["v0", "--p", "1"]),
    "seifert": (["knot"],),
}


def cases() -> list[list[str]]:
    out = []
    for name in fixtures.fixture_names():
        for cmd in COMMANDS.get(fixtures.describe(name), ()):
            out.append([*cmd, f"fixtures:{name}"])
    return out


def results_of(argv: list[str]) -> dict:
    """The `results` block of the JSON report, or the error it raises."""
    try:
        text, _ = run(["--json", *argv])
    except HomcobError as e:
        return {"error": f"{type(e).__name__}: {e}", "code": e.exit_code}
    return json.loads(text)["results"]


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_results_match_golden(golden, argv):
    assert canonical(results_of(argv)) == canonical(golden[" ".join(argv)])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    record = {" ".join(a): results_of(a) for a in cases()}
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
