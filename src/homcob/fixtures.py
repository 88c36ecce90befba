"""Bundled fixture registry.

Fixtures are JSON files shipped with the package and addressed as
``fixtures:<name>`` on the command line.  Every bundled fixture parses
and validates at import of the test suite; the ``sigma_2_3_11`` entry is
an intentional placeholder that refuses to load (no chain-level model of
that Brieskorn sphere is bundled; supplying one requires external
equivariant chain data).
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import InputError, ModelInvalidError, echo

_PACKAGE = "homcob"

NAMES = (
    "triangle_edge",
    "boundary_delta3",
    "boundary_delta4",
    "torus7",
    "rp2_6",
    "s3",
    "poincare",
    "s_minus2",
    "sigma237",
    "minus_sigma237",
    "sigma237_s1",
    "poincare_s1",
    "unknot",
    "trefoil",
    "figure_eight",
    "sigma_2_3_11",
)


def fixture_names() -> list[str]:
    return list(NAMES)


def read_bytes(name: str) -> bytes:
    """The file of the bundled fixture `name`, byte for byte."""
    if name not in NAMES:
        raise InputError(f"unknown fixture {echo(name)}; see `homcob fixtures`")
    return resources.files(_PACKAGE).joinpath("data", f"{name}.json").read_bytes()


def load(name: str) -> tuple[dict, bytes]:
    """The parsed fixture `name` and the bytes it was parsed from."""
    raw = read_bytes(name)
    data = json.loads(raw.decode("utf-8"))
    if data.get("kind") == "placeholder":
        raise ModelInvalidError(f"fixture {name!r} is a placeholder: {data['reason']}")
    return data, raw


def describe(name: str) -> str:
    return json.loads(read_bytes(name)).get("kind", "?")
