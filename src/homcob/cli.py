"""Command-line front end.

Inputs are JSON files dispatched on a top-level "kind" field, or bundled
fixtures addressed as ``fixtures:<name>``.  Reports are line-oriented
``key: value`` text by default and a JSON document under ``--json``;
output is byte-identical across runs for identical inputs and flags.

`run` takes each command through the same stages: the arguments (each
subcommand names its input kind and its rows function), `load_input`,
the kind check, `parse_input`, the report's rows, and `Report.emit`.
`parse_input` is the one place where a missing or malformed field
becomes an InputError, for the library as for the CLI.

Every report names its input by a digest: the first 16 hex digits of
the sha256 of the input file's bytes, as read (``sha256sum FILE | cut
-c1-16``; for a fixture, of its bundled file).  Two files that differ
only in formatting give the same results under different digests.

Exit codes: 0 success, 1 input error, 2 model-invalid, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass

from . import fixtures as fixture_registry
from .equivariant import (
    PinModel,
    SOneModel,
    abc,
    delta_invariant,
    localization_check,
)
from .errors import HomcobError, InputError
from .involutive import (
    UComplex,
    involutive_correction_terms,
    one_plus_iota_nullhomotopic,
    v0_triple,
)
from .knot import (
    SeifertMatrix,
    alexander,
    arf,
    corollary_predicate,
    fox_milnor_obstruction,
    signature,
)
from .simplicial import (
    AbstractComplex,
    bockstein_sq1,
    cohomology_basis,
    fundamental_group,
    homology,
    link_manifold_scan,
)
from .toddcoxeter import COSET_LIMIT, coset_enumeration


def load_input(path_or_fixture: str) -> tuple[dict, str]:
    """Raw JSON dict plus the digest of the input's bytes (see the module
    docstring).  The bytes are read once, decoded strictly as UTF-8 and
    parsed; the digest is taken of the same bytes."""
    if path_or_fixture.startswith("fixtures:"):
        data, raw = fixture_registry.load(path_or_fixture.split(":", 1)[1])
    else:
        try:
            with open(path_or_fixture, "rb") as f:
                raw = f.read()
        except OSError as e:
            raise InputError(f"cannot read {path_or_fixture}: {e}") from e
        try:
            data = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise InputError(f"{path_or_fixture} is not UTF-8 text: {e}") from e
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON in {path_or_fixture}: {e}") from e
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("input must be a JSON object with a 'kind' field")
    return data, hashlib.sha256(raw).hexdigest()[:16]


READERS = {
    "simplicial": lambda data: AbstractComplex.from_facets(
        data.get("facets", []), vertices=data.get("vertices")),
    "pin_model": PinModel.from_json,
    "s1_model": SOneModel.from_json,
    "u_complex": UComplex.from_json,
    "seifert": SeifertMatrix.from_json,
}


def parse_input(data: dict):
    """Typed value from a raw input dict: the one place where a missing or
    malformed field becomes an InputError."""
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in READERS:
        raise InputError(f"unknown input kind {kind!r}; expected one of {tuple(READERS)}")
    try:
        return READERS[kind](data)
    except KeyError as e:
        raise InputError(f"{kind} missing field {e}") from e
    except (TypeError, ValueError, AttributeError) as e:
        # a field of the wrong type or shape, caught while building the value
        raise InputError(f"malformed {kind} input: {type(e).__name__}: {e}") from e


def _parse_simplex(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise InputError(f"bad simplex {text!r}: use comma-separated integers") from e


@dataclass
class Report:
    command: str
    digest: str
    rows: list[tuple[str, object]]

    def emit(self, as_json: bool) -> str:
        if as_json:
            doc = {
                "command": self.command,
                "input": self.digest,
                "results": {k: v for k, v in self.rows},
                "provenance": {},
            }
            return json.dumps(doc, sort_keys=True, default=str)
        lines = [f"command: {self.command}", f"input: sha256:{self.digest}"]
        for k, v in self.rows:
            lines.append(f"{k}: {v}")
        return "\n".join(lines)


# -- the rows of each command's report: (args, parsed input) -> [(key, value)]


def _link_rows(args, k):
    lk = k.link(_parse_simplex(args.simplex))
    return [("vertices", sorted(lk.vertices)), ("simplices", sorted(lk.simplices))]


def _star_rows(args, k):
    return [("simplices", sorted(k.star(_parse_simplex(args.simplex))))]


def _closure_rows(args, k):
    return [("simplices", sorted(k.closure([_parse_simplex(s) for s in args.simplex])))]


def _homology_rows(args, k):
    groups = homology(k, args.ring, args.reduced)
    rows = [(f"H{d}", str(g) if args.ring == "Z" else f"F2^{g}") for d, g in enumerate(groups)]
    return rows + [("euler_characteristic", k.euler_characteristic())]


def _sq1_rows(args, k):
    basis = cohomology_basis(k, args.dim)
    return [("h_dim", len(basis))] + [
        (f"sq1_class_{i}_nonzero", not bockstein_sq1(x).is_zero_class())
        for i, x in enumerate(basis)]


def _pi1_rows(args, k):
    pres = fundamental_group(k, args.basepoint)
    return [("generators", pres.ngens), ("relators", len(pres.relators)),
            ("coset_enumeration", coset_enumeration(pres, args.limit)),
            ("abelianization", str(pres.abelianization()))]


def _scan_links_rows(args, k):
    reports = link_manifold_scan(k, args.certify_pi1, args.limit)
    exact = [r for r in reports if r.certified_sphere is not None]
    rows = [("links_checked", len(reports)),
            ("all_certified_spheres", bool(exact) and all(r.certified_sphere for r in exact))]
    for r in reports:
        if r.certified_sphere is False or not r.homology_sphere:
            rows.append((f"failing_{','.join(map(str, r.simplex))}", "not-sphere"))
        elif r.pi1_order is not None:
            rows.append((f"pi1_{','.join(map(str, r.simplex))}", r.pi1_order))
    return rows


def _abc_rows(args, m):
    r = abc(m)
    return [(key, getattr(r, key)) for key in ("A", "B", "C", "alpha", "beta", "gamma", "mu")]


def _dual_rows(args, m):
    """The reverse's (alpha, beta, gamma), which is (-gamma, -beta, -alpha),
    and the co-Borel tops (-A, -B, -C), both read from one abc."""
    r = abc(m)
    return [("alpha_reverse", -r.gamma), ("beta_reverse", -r.beta), ("gamma_reverse", -r.alpha),
            ("coborel_tops", [-r.A, -r.B, -r.C])]


def _tate_rows(args, m):
    loc = localization_check(m)
    rows = [("localizes", loc.ok), ("anchored_at", loc.anchored_at),
            ("stable_pattern", loc.pattern)]
    return rows + [("detail", loc.detail)] if loc.detail else rows


def _delta_rows(args, m):
    return [("delta", delta_invariant(m))]


def _correction_terms(value):
    c, iota = value
    if iota is None:
        raise InputError("u_complex input needs an 'iota' field for this command")
    return involutive_correction_terms(c, iota)


def _hfi_rows(args, value):
    """The correction terms validate iota before the split test reads it."""
    r = _correction_terms(value)
    return [("d", r.d), ("d_bar", r.d_bar), ("d_under", r.d_under),
            ("split", one_plus_iota_nullhomotopic(*value))]


def _v0_rows(args, value):
    v0, v0b, v0u = v0_triple(args.p, _correction_terms(value))
    return [("p", args.p), ("V0", v0), ("V0_bar", v0b), ("V0_under", v0u)]


def _knot_rows(args, v):
    sig = signature(v)
    poly = alexander(v)
    arf_val = arf(poly)
    return [("signature", sig), ("alexander", str(poly)), ("alexander_at_minus1", poly(-1)),
            ("arf", arf_val), ("fox_milnor", fox_milnor_obstruction(poly)),
            ("corollary_sigma_eq_4arf_plus_4", corollary_predicate(sig, arf_val))]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (exit 1); argparse's own exit code 2
    is the one documented for an invalid model."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Each command names, through set_defaults, the input kind it takes
    and the function that gives its report's rows."""
    ap = _Parser(
        prog="homcob",
        description="exact calculators for simplicial, equivariant-tower, "
        "involutive-cone, and Seifert-matrix invariants",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, kind, rows, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("input", nargs="?", help="JSON file or fixtures:<name>")
        p.set_defaults(kind=kind, rows=rows)
        return p

    p = add("link", "simplicial", _link_rows, help="link of a simplex")
    p.add_argument("--simplex", required=True, help="comma-separated vertices")
    p = add("star", "simplicial", _star_rows, help="star of a simplex")
    p.add_argument("--simplex", required=True)
    p = add("closure", "simplicial", _closure_rows, help="closure of a set of simplices")
    p.add_argument("--simplex", action="append", required=True)
    p = add("homology", "simplicial", _homology_rows, help="simplicial homology")
    p.add_argument("--ring", choices=("Z", "F2"), default="Z")
    p.add_argument("--reduced", action="store_true")
    p = add("sq1", "simplicial", _sq1_rows,
            help="integral Bockstein on mod-2 cohomology generators")
    p.add_argument("--dim", type=int, default=1)
    p = add("pi1", "simplicial", _pi1_rows,
            help="edge-path fundamental group with coset enumeration")
    p.add_argument("--basepoint", type=int)
    p.add_argument("--limit", type=int, default=COSET_LIMIT)
    p = add("scan-links", "simplicial", _scan_links_rows, help="simplex-link sphere checks")
    p.add_argument("--certify-pi1", action="store_true")
    p.add_argument("--limit", type=int, default=COSET_LIMIT)

    add("abc", "pin_model", _abc_rows, help="tower invariants alpha, beta, gamma")
    add("dual", "pin_model", _dual_rows, help="invariants of the orientation reverse")
    add("tate", "pin_model", _tate_rows, help="localization pattern check")
    add("delta", "s1_model", _delta_rows, help="S1-model delta invariant")
    add("hfi", "u_complex", _hfi_rows, help="involutive correction terms d, d_bar, d_under")
    p = add("v0", "u_complex", _v0_rows,
            help="surgery concordance invariants V0, V0_bar, V0_under")
    p.add_argument("--p", type=int, required=True)

    add("knot", "seifert", _knot_rows, help="Seifert-matrix invariants")
    sub.add_parser("fixtures", help="list bundled fixtures")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args keeps no state between calls
    (each call fills a fresh namespace), and building it costs more than
    a small command."""
    return build_parser()


def run(argv: list[str]) -> tuple[str, int]:
    args = _parser().parse_args(argv)
    if args.command == "fixtures":
        names = fixture_registry.fixture_names()
        rows = [(name, fixture_registry.describe(name)) for name in names]
        return Report("fixtures", "-", rows).emit(args.json), 0
    if not args.input:
        raise InputError("missing input (JSON file or fixtures:<name>)")
    data, digest = load_input(args.input)
    if data["kind"] != args.kind:
        raise InputError(f"this command needs a {args.kind!r} input, got {data['kind']!r}")
    rows = args.rows(args, parse_input(data))
    return Report(f"{args.command} {args.input}", digest, rows).emit(args.json), 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        out, code = run(argv)
    except HomcobError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
