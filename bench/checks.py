"""Output checks: every job against the values its construction fixes and
against exact laws.

Each failed check adds one reason to the job:

* raised          -- the job raised or exited non-zero
* construction    -- a value pinned by the generator came out different
* nondeterministic -- a later pass printed a different report
* law.order       -- ordering or mod-2 congruence of an invariant triple
* law.finding     -- an `hfi` report carries a finding_* row
* law.duality     -- d_bar(-Y) != -d_under(Y) or d_under(-Y) != -d_bar(Y)
* law.uct         -- F2 homology disagrees with the universal coefficients
                     applied to the Z homology of the same complex
* law.euler       -- the Euler characteristic disagrees with the ranks
* law.knot        -- Alexander polynomial not symmetric with value 1 at 1,
                     or Fox-Milnor / corollary rows inconsistent
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

REASONS = ("raised", "construction", "nondeterministic", "law.order", "law.finding",
           "law.duality", "law.uct", "law.euler", "law.knot")


def parse_group(text: str) -> tuple[int, list[int]]:
    if text == "0":
        return 0, []
    free, tors = 0, []
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        else:
            tors.append(int(part.split("/")[1]))
    return free, sorted(tors)


def parse_laurent(text: str) -> dict[int, int]:
    out = {}
    for tok in text.split():
        if "*t" in tok:
            coef, rest = tok.split("*t")
            exp = int(rest[1:]) if rest.startswith("^") else 1
        else:
            coef, exp = tok, 0
        out[exp] = out.get(exp, 0) + int(coef)
    return {e: c for e, c in out.items() if c}


def _hfi(exp, res, bad):
    d, db, du = (Fraction(res[k]) for k in ("d", "d_bar", "d_under"))
    if d != Fraction(exp["d"]):
        bad.add("construction")
    if not (du <= d <= db) or (db - d) % 2 or (du - d) % 2:
        bad.add("law.order")
    if any(k.startswith("finding_") for k in res):
        bad.add("law.finding")


def _v0(exp, res, bad):
    v, vb, vu = (Fraction(res[k]) for k in ("V0", "V0_bar", "V0_under"))
    if res["p"] != exp["p"] or v != Fraction(exp["V0"]):
        bad.add("construction")
    if not (vb <= v <= vu) or (v - vb).denominator != 1 or (vu - v).denominator != 1:
        bad.add("law.order")


def _abc(exp, res, bad):
    if any(res[k] != v for k, v in exp.items()):
        bad.add("construction")
    a, b, g, mu = res["alpha"], res["beta"], res["gamma"], res["mu"]
    if not (a >= b >= g) or not (a % 2 == b % 2 == g % 2 == mu):
        bad.add("law.order")


def _equal(exp, res, bad):
    if any(res.get(k) != v for k, v in exp.items()):
        bad.add("construction")


def _tate(exp, res, bad):
    pattern = res.get("stable_pattern") or []
    r = exp["start"] - exp["anchored_at"]
    want = [0 if (r + i) % 4 == 3 else 1 for i in range(len(pattern))]
    if (res.get("localizes") is not True or res.get("anchored_at") != exp["anchored_at"]
            or not pattern or pattern != want):
        bad.add("construction")


def _delta(exp, res, bad):
    if Fraction(res["delta"]) != Fraction(exp["delta"]):
        bad.add("construction")


def _homology(exp, res, bad):
    z = exp["ring"] == "Z"
    got = {k: list(parse_group(v)) if z else int(v.split("^")[1])
           for k, v in res.items() if k.startswith("H")}
    if got != exp["rows"]:
        bad.add("construction")
    ranks = [got[f"H{d}"][0] if z else got[f"H{d}"] for d in range(len(got))]
    chi = res["euler_characteristic"]
    if chi != exp["chi"]:
        bad.add("construction")
    if chi != sum((-1) ** d * r for d, r in enumerate(ranks)):
        bad.add("law.euler")


def _sq1(exp, res, bad):
    want = exp["nonzero"]
    got = [res.get(f"sq1_class_{i}_nonzero") for i in range(res.get("h_dim", -1))]
    if res.get("h_dim") != len(want) or sorted(got, key=str) != sorted(want, key=str):
        bad.add("construction")


def _pi1(exp, res, bad):
    if res["coset_enumeration"] != exp["coset_enumeration"]:
        bad.add("construction")
    if list(parse_group(res["abelianization"])) != [exp["abelianization"][0],
                                                    sorted(exp["abelianization"][1])]:
        bad.add("construction")


def _scan(exp, res, bad):
    failing = sorted(k.split("_", 1)[1] for k in res if k.startswith("failing_"))
    pi1 = {k.split("_", 1)[1]: v for k, v in res.items() if k.startswith("pi1_")}
    if (res["links_checked"] != exp["links_checked"]
            or res["all_certified_spheres"] != exp["all_certified_spheres"]
            or failing != exp["failing"]
            or sorted(pi1) != sorted(exp["pi1_vertices"])
            or any(v != 1 for v in pi1.values())):
        bad.add("construction")


def _knot(exp, res, bad):
    poly = parse_laurent(res["alexander"])
    at_m1 = Fraction(res["alexander_at_minus1"])
    if (res["signature"] != exp["signature"]
            or poly != {int(e): c for e, c in exp["alexander"].items()}
            or at_m1 != exp["alexander_at_minus1"] or res["arf"] != exp["arf"]
            or res["fox_milnor"] != exp["fox_milnor"]
            or res["corollary_sigma_eq_4arf_plus_4"] != exp["corollary_sigma_eq_4arf_plus_4"]):
        bad.add("construction")
    a = abs(int(at_m1))
    symmetric = poly == {-e: c for e, c in poly.items()}
    arf_rule = 0 if a % 8 in (1, 7) else 1
    square = isqrt(a) ** 2 == a
    if (not symmetric or sum(poly.values()) != 1
            or at_m1 != sum(c * (-1) ** (e % 2) for e, c in poly.items())
            or res["arf"] != arf_rule
            or (res["fox_milnor"] == "unknown") != square
            or res["corollary_sigma_eq_4arf_plus_4"]
            != ((res["signature"] - 4 * res["arf"] - 4) % 8 == 0)):
        bad.add("law.knot")


def _coset(exp, res, bad):
    if res != exp["order"]:
        bad.add("construction")


CHECKS = {
    "hfi": _hfi, "v0": _v0, "abc": _abc, "dual": _equal, "tate": _tate,
    "delta": _delta, "homology": _homology, "sq1": _sq1, "pi1": _pi1,
    "scan-links": _scan, "knot": _knot, "coset": _coset,
}


def check_all(jobs: list[dict], outputs: list[dict]) -> list[set]:
    """The set of failed-check reasons of each job."""
    reasons: list[set] = []
    parsed: list = []
    for job, out in zip(jobs, outputs):
        bad: set = set()
        res = None
        if "error" in out or out["code"] != 0:
            bad.add("raised")
        else:
            doc = json.loads(out["text"])
            res = doc["results"] if job["kind"] == "cli" else doc
            try:
                CHECKS[job["cmd"]](job["expect"], res, bad)
            except (KeyError, ValueError, TypeError, IndexError):
                bad.add("construction")  # a missing or malformed row
        reasons.append(bad)
        parsed.append(res)
    _pair_laws(jobs, parsed, reasons)
    return reasons


def _pair_laws(jobs, parsed, reasons):
    """Laws between two jobs: orientation duality of (Y, -Y) hfi reports,
    universal coefficients between Z and F2 homology of one complex.  A
    violation is charged to the second job of the pair."""
    groups: dict[tuple, dict] = {}
    for job, res in zip(jobs, parsed):
        if job["pair"] is not None and res is not None and job["cmd"] in ("hfi", "homology"):
            groups.setdefault((job["cmd"], job["pair"]), {})[job["role"]] = (job["id"], res)
    for (cmd, _), g in groups.items():
        try:
            _pair_law(cmd, g, reasons)
        except (KeyError, ValueError, IndexError):
            pass  # a malformed report already failed its own check


def _pair_law(cmd, g, reasons):
    if cmd == "hfi" and "Y" in g and "-Y" in g:
        (_, y), (jid, my) = g["Y"], g["-Y"]
        if (Fraction(my["d_bar"]) != -Fraction(y["d_under"])
                or Fraction(my["d_under"]) != -Fraction(y["d_bar"])):
            reasons[jid].add("law.duality")
    if cmd == "homology" and "Z" in g and "F2" in g:
        (_, z), (jid, f2) = g["Z"], g["F2"]
        groups_z = {int(k[1:]): parse_group(v) for k, v in z.items() if k.startswith("H")}
        for d, (free, tors) in groups_z.items():
            lower = groups_z.get(d - 1, (0, []))[1]
            want = free + sum(t % 2 == 0 for t in tors) + sum(t % 2 == 0 for t in lower)
            if int(f2.get(f"H{d}", "F2^-1").split("^")[1]) != want:
                reasons[jid].add("law.uct")
