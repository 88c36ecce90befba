"""Command-line front end.

Inputs are JSON files dispatched on a top-level "kind" field, or bundled
fixtures addressed as ``fixtures:<name>``.  Reports are line-oriented
``key: value`` text by default and a JSON document under ``--json``;
output is byte-identical across runs for identical inputs and flags.

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

from . import fixtures as fixture_registry
from .equivariant import (
    PinModel,
    SOneModel,
    abc,
    abc_of_reverse,
    coborel_tower_tops,
    delta_invariant,
    localization_check,
)
from .errors import HomcobError, InputError
from .involutive import (
    IotaMap,
    UComplex,
    involutive_correction_terms,
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
from .toddcoxeter import coset_enumeration

KINDS = ("simplicial", "pin_model", "s1_model", "u_complex", "seifert")


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


def parse_input(data: dict):
    """Typed value from a raw input dict."""
    kind = data["kind"]
    if kind == "simplicial":
        return AbstractComplex.from_facets(
            data.get("facets", []), vertices=data.get("vertices")
        )
    if kind == "pin_model":
        return PinModel.from_json(data)
    if kind == "s1_model":
        return SOneModel.from_json(data)
    if kind == "u_complex":
        return UComplex.from_json(data)
    if kind == "seifert":
        return SeifertMatrix.from_json(data)
    raise InputError(f"unknown input kind {kind!r}; expected one of {KINDS}")


def _expect(data: dict, kind: str):
    if data["kind"] != kind:
        raise InputError(f"this command needs a {kind!r} input, got {data['kind']!r}")
    try:
        return parse_input(data)
    except (TypeError, ValueError, KeyError, AttributeError) as e:
        # a field of the wrong type or shape, caught while building the value
        raise InputError(f"malformed {kind} input: {type(e).__name__}: {e}") from e


def _parse_simplex(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise InputError(f"bad simplex {text!r}: use comma-separated integers") from e


class Report:
    def __init__(self, command: str, digest: str):
        self.command = command
        self.digest = digest
        self.rows: list[tuple[str, object]] = []

    def add(self, key: str, value):
        self.rows.append((key, value))

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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (exit 1); argparse's own exit code 2
    is the one documented for an invalid model."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="homcob",
        description="exact calculators for simplicial, equivariant-tower, "
        "involutive-cone, and Seifert-matrix invariants",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("input", nargs="?", help="JSON file or fixtures:<name>")
        return p

    p = add("link", help="link of a simplex")
    p.add_argument("--simplex", required=True, help="comma-separated vertices")
    p = add("star", help="star of a simplex")
    p.add_argument("--simplex", required=True)
    p = add("closure", help="closure of a set of simplices")
    p.add_argument("--simplex", action="append", required=True)
    p = add("homology", help="simplicial homology")
    p.add_argument("--ring", choices=("Z", "F2"), default="Z")
    p.add_argument("--reduced", action="store_true")
    p = add("sq1", help="integral Bockstein on mod-2 cohomology generators")
    p.add_argument("--dim", type=int, default=1)
    p = add("pi1", help="edge-path fundamental group with coset enumeration")
    p.add_argument("--basepoint", type=int)
    p.add_argument("--limit", type=int, default=2000)
    p = add("scan-links", help="simplex-link sphere checks")
    p.add_argument("--certify-pi1", action="store_true")
    p.add_argument("--limit", type=int, default=2000)

    add("abc", help="tower invariants alpha, beta, gamma")
    add("dual", help="invariants of the orientation reverse")
    add("tate", help="localization pattern check")
    add("delta", help="S1-model delta invariant")
    add("hfi", help="involutive correction terms d, d_bar, d_under")
    p = add("v0", help="surgery concordance invariants V0, V0_bar, V0_under")
    p.add_argument("--p", type=int, required=True)

    add("knot", help="Seifert-matrix invariants")
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
    cmd = args.command

    if cmd == "fixtures":
        rep = Report("fixtures", "-")
        for name in fixture_registry.fixture_names():
            rep.add(name, fixture_registry.describe(name))
        return rep.emit(args.json), 0

    if not args.input:
        raise InputError("missing input (JSON file or fixtures:<name>)")
    data, digest = load_input(args.input)
    echo = " ".join([cmd, args.input])
    rep = Report(echo, digest)

    if cmd in ("link", "star", "closure", "homology", "sq1", "pi1", "scan-links"):
        k = _expect(data, "simplicial")
        _run_simplicial(cmd, args, k, rep)
    elif cmd in ("abc", "dual", "tate"):
        _run_pin(cmd, _expect(data, "pin_model"), rep)
    elif cmd == "delta":
        rep.add("delta", delta_invariant(_expect(data, "s1_model")))
    elif cmd in ("hfi", "v0"):
        c, iota = _expect(data, "u_complex")
        if iota is None:
            raise InputError("u_complex input needs an 'iota' field for this command")
        report = involutive_correction_terms(c, iota)
        if cmd == "hfi":
            rep.add("d", report.d)
            rep.add("d_bar", report.d_bar)
            rep.add("d_under", report.d_under)
            rep.add("split", report.split)
        else:
            v0, v0b, v0u = v0_triple(args.p, report)
            rep.add("p", args.p)
            rep.add("V0", v0)
            rep.add("V0_bar", v0b)
            rep.add("V0_under", v0u)
    else:  # knot
        v = _expect(data, "seifert")
        sig = signature(v)
        poly = alexander(v)
        arf_val = arf(poly)
        rep.add("signature", sig)
        rep.add("alexander", str(poly))
        rep.add("alexander_at_minus1", poly(-1))
        rep.add("arf", arf_val)
        rep.add("fox_milnor", fox_milnor_obstruction(poly))
        rep.add("corollary_sigma_eq_4arf_plus_4", corollary_predicate(sig, arf_val))
    return rep.emit(args.json), 0


def _run_pin(cmd, m: PinModel, rep: Report):
    if cmd == "abc":
        r = abc(m)
        for key in ("A", "B", "C", "alpha", "beta", "gamma", "mu"):
            rep.add(key, getattr(r, key))
    elif cmd == "dual":
        rev = abc_of_reverse(m)
        rep.add("alpha_reverse", rev[0])
        rep.add("beta_reverse", rev[1])
        rep.add("gamma_reverse", rev[2])
        tops = coborel_tower_tops(m)
        rep.add("coborel_tops", list(tops))
    elif cmd == "tate":
        loc = localization_check(m)
        rep.add("localizes", loc.ok)
        rep.add("anchored_at", loc.anchored_at)
        rep.add("stable_pattern", loc.pattern)
        if loc.detail:
            rep.add("detail", loc.detail)


def _run_simplicial(cmd, args, k: AbstractComplex, rep: Report):
    if cmd == "link":
        lk = k.link(_parse_simplex(args.simplex))
        rep.add("vertices", sorted(lk.vertices))
        rep.add("simplices", sorted(lk.simplices))
    elif cmd == "star":
        rep.add("simplices", sorted(k.star(_parse_simplex(args.simplex))))
    elif cmd == "closure":
        simps = [_parse_simplex(s) for s in args.simplex]
        rep.add("simplices", sorted(k.closure(simps)))
    elif cmd == "homology":
        groups = homology(k, args.ring, args.reduced)
        for d, g in enumerate(groups):
            rep.add(f"H{d}", str(g) if args.ring == "Z" else f"F2^{g}")
        rep.add("euler_characteristic", k.euler_characteristic())
    elif cmd == "sq1":
        basis = cohomology_basis(k, args.dim)
        rep.add("h_dim", len(basis))
        for i, x in enumerate(basis):
            image = bockstein_sq1(x)
            rep.add(f"sq1_class_{i}_nonzero", not image.is_zero_class())
    elif cmd == "pi1":
        pres = fundamental_group(k, args.basepoint)
        rep.add("generators", pres.ngens)
        rep.add("relators", len(pres.relators))
        rep.add("coset_enumeration", coset_enumeration(pres, args.limit))
        rep.add("abelianization", str(pres.abelianization()))
    elif cmd == "scan-links":
        reports = link_manifold_scan(k, args.certify_pi1, args.limit)
        exact = [r for r in reports if r.certified_sphere is not None]
        rep.add("links_checked", len(reports))
        rep.add(
            "all_certified_spheres",
            bool(exact) and all(r.certified_sphere for r in exact),
        )
        for r in reports:
            if r.certified_sphere is False or not r.homology_sphere:
                rep.add(f"failing_{','.join(map(str, r.simplex))}", "not-sphere")
            elif r.pi1_order is not None:
                rep.add(f"pi1_{','.join(map(str, r.simplex))}", r.pi1_order)


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
