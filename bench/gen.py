"""Seeded input generators whose answers are fixed by construction.

Every generator returns JSON-ready input data plus the values that its
construction pins.  Nothing here imports homcob: the program under test
only ever sees the generated files, and the expected values come from the
block structure of each model, never from running the program.

* u_complex + iota: one tower generator e plus U-step pairs x -> U^m y,
  iota = id + f with f sending pair tops to cycles, conjugated by a random
  F[U]-automorphism.  d is the degree of e (negated for the dual).
* pin_model: one reducible tower triple at n plus acyclic pairs and
  "killer" blocks; a killer block with q-length a0 and depth k kills the
  tower elements q^a v^j g for a <= a0, j <= k.  The tower bottom at
  q-level a is n + a + 4 (1 + deepest killer reaching level a).
* s1_model: the one-tower analogue; delta = (n + 2 (1 + deepest killer)) / 2.
* simplicial: suspensions and joins of bundled complexes with randomly
  relabelled vertices; reduced homology shifts by one per suspension and
  by k + 1 under a join with S^k.
* Coxeter presentations of S_n (order n!) and the binary icosahedral group
  (order 120).
* Seifert block sums of trefoil and figure-eight blocks under a random
  unimodular congruence P V P^T: signature and Arf add, the Alexander
  polynomial multiplies, and the congruence changes none of them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import factorial, isqrt
from pathlib import Path

# ---------------------------------------------------------------------------
# small GF(2) matrices as lists of lists


def _zeros(n):
    return [[0] * n for _ in range(n)]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mul(a, b):
    if not a:
        return []
    bt = list(zip(*b))
    return [[sum(x & y for x, y in zip(row, col)) & 1 for col in bt] for row in a]


def _inverse(p):
    """Inverse over GF(2), or None when singular."""
    n = len(p)
    a = [row[:] + e for row, e in zip(p, _eye(n))]
    for c in range(n):
        hit = next((r for r in range(c, n) if a[r][c]), None)
        if hit is None:
            return None
        a[c], a[hit] = a[hit], a[c]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x ^ y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _random_invertible(rng, k):
    while True:
        block = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        if _inverse(block) is not None:
            return block


def _degree_automorphism(rng, degrees, u_step=False):
    """Random invertible matrix with blocks on equal degrees.

    With u_step, entries from degree d_j up to d_i > d_j with d_i - d_j even
    are added too: U-power maps of an F[U]-automorphism."""
    n = len(degrees)
    p = _zeros(n)
    for deg in set(degrees):
        idx = [i for i, d in enumerate(degrees) if d == deg]
        block = _random_invertible(rng, len(idx))
        for a, ia in enumerate(idx):
            for b, ib in enumerate(idx):
                p[ia][ib] = block[a][b]
    if u_step:
        for i in range(n):
            for j in range(n):
                gap = degrees[i] - degrees[j]
                if gap > 0 and gap % 2 == 0 and rng.random() < 0.3:
                    p[i][j] ^= 1
    return p


def _conjugate(p, pinv, m):
    return _mul(_mul(p, m), pinv)


# ---------------------------------------------------------------------------
# u_complex with iota (hfi, v0)


def _upower(deg_from, deg_to, shift):
    return (deg_to - deg_from - shift) // 2


def _ucomplex_json(degrees, dmat, iota):
    labels = [f"g{i}" for i in range(len(degrees))]
    n = len(degrees)
    return {
        "kind": "u_complex",
        "generators": [{"label": l, "degree": d} for l, d in zip(labels, degrees)],
        "differential": [
            {"from": labels[j], "to": labels[i], "upower": _upower(degrees[j], degrees[i], -1)}
            for j in range(n) for i in range(n) if dmat[i][j]
        ],
        "iota": [
            {"from": labels[j], "to": labels[i], "upower": _upower(degrees[j], degrees[i], 0)}
            for j in range(n) for i in range(n) if iota[i][j]
        ],
    }


def dual_ucomplex(data):
    """Orientation reverse: negated degrees, transposed d and iota."""
    gens = [{"label": g["label"], "degree": -g["degree"]} for g in data["generators"]]
    deg = {g["label"]: g["degree"] for g in gens}
    flip = lambda ents, shift: [
        {"from": e["to"], "to": e["from"], "upower": _upower(deg[e["to"]], deg[e["from"]], shift)}
        for e in ents
    ]
    return {
        "kind": "u_complex",
        "generators": gens,
        "differential": flip(data["differential"], -1),
        "iota": flip(data.get("iota", []), 0),
    }


def ucomplex(rng, pairs, spread=5, far=None):
    """Tower generator plus `pairs` U-step pairs x -> U^m y whose tops are
    spread evenly over [-spread, spread] around the tower, with m = 1, 2
    alternating, so that the degrees (and the window) depend on the size
    only; `far` places one more pair (m = 1) that far above the tower.
    Returns (json, d)."""
    d_tower = 2 * rng.randint(-2, 2)
    shapes = [(round(-spread + 2 * spread * i / max(1, pairs - 1)), 1 + i % 2)
              for i in range(pairs)]
    rng.shuffle(shapes)
    if far is not None:
        shapes.append((far, 1))
    degrees = [d_tower]
    edges = []
    for off, m in shapes:
        dx = d_tower + off
        degrees += [dx, dx - 1 + 2 * m]
        edges.append((len(degrees) - 2, len(degrees) - 1))
    tops = [x for x, _ in edges]
    n = len(degrees)
    dmat = _zeros(n)
    for x, y in edges:
        dmat[y][x] = 1
    iota = _eye(n)
    cycles = [0] + [y for _, y in edges]
    for x in tops:
        for c in cycles:
            gap = degrees[c] - degrees[x]
            if gap >= 0 and gap % 2 == 0 and rng.random() < 0.5:
                iota[c][x] ^= 1
    p = _degree_automorphism(rng, degrees, u_step=True)
    pinv = _inverse(p)
    data = _ucomplex_json(degrees, _conjugate(p, pinv, dmat), _conjugate(p, pinv, iota))
    return data, d_tower


# ---------------------------------------------------------------------------
# pin_model (abc, dual, tate) and s1_model (delta)


def _plan(rng, total, killer_sizes):
    """Random list of blocks ("pair" or a killer shape) with exactly
    `total` generators."""
    out = []
    left = total
    while left:
        if left >= 2 and rng.random() < 0.35:
            out.append("pair")
            left -= 2
            continue
        shape = rng.choice([s for s in killer_sizes if killer_sizes[s] <= left])
        out.append(shape)
        left -= killer_sizes[shape]
    return out


def _finite_part(rng, n, plan, killer, pair_offset, far):
    """Build the finite part block by block and conjugate it by a random
    degree-preserving automorphism.

    killer(fresh, edges, arrows, shape) adds one killer block: generators
    from fresh(degree), operator edges into edges[name], tower arrows
    (generator, target) into arrows.  Returns (degrees, {name: matrix},
    arrows, killer shapes); "d" names the finite differential."""
    plan = list(plan)
    if far is not None:
        plan.append("pair")
    offsets = [rng.randint(*pair_offset) for kind in plan if kind == "pair"]
    if far is not None:
        offsets[-1] = far
    offsets = iter(offsets)
    degrees, edges, arrows, shapes = [], {"d": []}, [], []

    def fresh(deg):
        degrees.append(deg)
        return len(degrees) - 1

    for kind in plan:
        if kind == "pair":
            top = fresh(n + next(offsets))
            edges["d"].append((top, fresh(degrees[top] - 1)))
        else:
            killer(fresh, edges, arrows, kind)
            shapes.append(kind)
    m = len(degrees)
    mats = {}
    for name, es in edges.items():
        mats[name] = _zeros(m)
        for src, tgt in es:
            mats[name][tgt][src] = 1
    if not m:
        return degrees, mats, arrows, shapes
    p = _degree_automorphism(rng, degrees)
    pinv = _inverse(p)
    mats = {k: _conjugate(p, pinv, v) for k, v in mats.items()}
    # tower arrows transform by precomposition with p^-1
    targets = sorted({t for _, t in arrows})
    t = [[0] * m for _ in targets]
    for src, tgt in arrows:
        t[targets.index(tgt)][src] ^= 1
    t = _mul(t, pinv) if targets else []
    arrows = [(j, targets[i]) for i in range(len(targets)) for j in range(m) if t[i][j]]
    return degrees, mats, arrows, shapes


PIN_KILLERS = {(a0, depth): (a0 + 1) * (depth + 1) for a0 in range(3) for depth in range(3)}


def pin_model(rng, total, pair_offset=(-6, 10), far=None, plan=None):
    """Returns (json, expected) for a conjugated pin model with `total`
    finite generators in random blocks, or with the blocks of `plan`;
    `far` adds one acyclic pair that far from n."""
    n = 2 * rng.randint(-2, 2)

    def killer(fresh, edges, arrows, shape):
        a0, depth = shape
        block = {}
        for alpha in range(a0 + 1):
            for j in range(depth + 1):
                block[(alpha, j)] = fresh(n + 4 * (depth - j) + (a0 - alpha) + 1)
        for (alpha, j), g in block.items():
            if alpha < a0:
                edges.setdefault("q", []).append((g, block[(alpha + 1, j)]))
            if j < depth:
                edges.setdefault("v", []).append((g, block[(alpha, j + 1)]))
            arrows.append((g, (a0 - alpha, depth - j)))

    if plan is None:
        plan = _plan(rng, total, PIN_KILLERS)
    degrees, mats, arrows, shapes = _finite_part(rng, n, plan, killer, pair_offset, far)
    zero = _zeros(len(degrees))
    labels = [f"g{i}" for i in range(len(degrees))]
    data = {
        "kind": "pin_model",
        "reducible_degree": n,
        "finite": [{"label": l, "degree": d} for l, d in zip(labels, degrees)],
        "q": mats.get("q", zero),
        "v": mats.get("v", zero),
        "d_fin": mats["d"],
        "d_to_tower": [{"from": labels[j], "a": a, "b": b} for j, (a, b) in arrows],
    }
    return data, pin_expect(n, shapes)


def pin_expect(n, shapes):
    """Tower bottoms: at q-level a, n + a + 4 (1 + the deepest killer
    reaching level a), or n + a when none does."""
    bottoms = []
    for level in range(3):
        depths = [depth for a0, depth in shapes if a0 >= level]
        bottoms.append(n + level + (4 * (1 + max(depths)) if depths else 0))
    A, B, C = bottoms
    alpha, beta, gamma = A // 2, (B - 1) // 2, (C - 2) // 2
    return {"n": n, "A": A, "B": B, "C": C, "alpha": alpha, "beta": beta,
            "gamma": gamma, "mu": alpha % 2}


def s1_model(rng, total, pair_offset=(-5, 8), far=None, plan=None):
    """Returns (json, delta) for a conjugated s1 model (arguments as for
    pin_model; a killer block is given by its depth)."""
    n = rng.randint(-3, 3)

    def killer(fresh, edges, arrows, depth):
        block = [fresh(n + 2 * (depth - j) + 1) for j in range(depth + 1)]
        for j, g in enumerate(block):
            if j < depth:
                edges.setdefault("u", []).append((g, block[j + 1]))
            arrows.append((g, depth - j))

    if plan is None:
        plan = _plan(rng, total, {d: d + 1 for d in range(4)})
    degrees, mats, arrows, shapes = _finite_part(rng, n, plan, killer, pair_offset, far)
    labels = [f"g{i}" for i in range(len(degrees))]
    data = {
        "kind": "s1_model",
        "reducible_degree": n,
        "finite": [{"label": l, "degree": d} for l, d in zip(labels, degrees)],
        "u": mats.get("u", _zeros(len(degrees))),
        "d_fin": mats["d"],
        "d_to_tower": [{"from": labels[j], "b": b} for j, b in arrows],
    }
    bottom = n + (2 * (1 + max(shapes)) if shapes else 0)
    return data, Fraction(bottom, 2)


# ---------------------------------------------------------------------------
# simplicial complexes


class Cx:
    """Facets plus the reduced integral homology fixed by construction:
    rhom[d] = (free rank, sorted torsion)."""

    def __init__(self, facets, rhom, name):
        self.facets = [tuple(sorted(f)) for f in facets]
        self.rhom = rhom
        self.name = name

    def vertices(self):
        return sorted({v for f in self.facets for v in f})

    def simplices(self):
        out = set()
        for f in self.facets:
            for k in range(1, len(f) + 1):
                out.update(combinations(f, k))
        return out

    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def relabel(self, rng):
        verts = self.vertices()
        new = rng.sample(range(1, 10 * len(verts) + 10), len(verts))
        m = dict(zip(verts, new))
        return Cx([[m[v] for v in f] for f in self.facets], self.rhom, self.name), m

    def to_json(self):
        return {"kind": "simplicial", "vertices": self.vertices(),
                "facets": [list(f) for f in sorted(self.facets)]}


def sphere_boundary(n):
    """Boundary of the n-simplex, an (n-1)-sphere."""
    verts = list(range(1, n + 2))
    return Cx(list(combinations(verts, n)), {n - 1: (1, [])}, f"bd{n}")


def join(k, l, name):
    """k * l with l relabelled above k; homology by the join formula for
    l a sphere S^s: reduced H_d(k * l) = reduced H_{d-s-1}(k)."""
    (s, _), = [(d, g) for d, g in l.rhom.items()]
    off = max(k.vertices())
    facets = [f + tuple(v + off for v in g) for f in k.facets for g in l.facets]
    rhom = {d + s + 1: g for d, g in k.rhom.items()}
    return Cx(facets, rhom, name)


def suspension(k):
    return join(k, Cx([(1,), (2,)], {0: (1, [])}, "s0"), "S" + k.name)


def homology_rows(cx, ring):
    """Expected H{d} rows of `homcob homology` (unreduced) for dims 0..dim:
    [free rank, torsion] over Z, the dimension over F2 by universal
    coefficients."""
    rows = {}
    for d in range(cx.dim() + 1):
        free, tors = cx.rhom.get(d, (0, []))
        if d == 0:
            free += 1
        if ring == "Z":
            rows[f"H{d}"] = [free, sorted(tors)]
        else:
            lower = cx.rhom.get(d - 1, (0, []))[1]
            rows[f"H{d}"] = free + sum(1 for t in tors if t % 2 == 0) + sum(
                1 for t in lower if t % 2 == 0)
    return rows


def euler(cx):
    return sum((-1) ** (len(s) - 1) for s in cx.simplices())


# ---------------------------------------------------------------------------
# group presentations


def coxeter_sn(n):
    gens = n - 1
    rels = [[i, i] for i in range(1, n)]
    rels += [[i, i + 1] * 3 for i in range(1, n - 1)]
    rels += [[i, j] * 2 for i in range(1, n) for j in range(i + 2, n)]
    return gens, rels, factorial(n)


def binary_icosahedral():
    # <s, t | (st)^2 = s^3 = t^5>
    s, t = 1, 2
    return 2, [[s, t, s, t, -s, -s, -s], [s, s, s, -t, -t, -t, -t, -t]], 120


def scramble_presentation(rng, gens, rels):
    """Same group: permuted and possibly inverted generators, rotated
    relators in random order."""
    perm = list(range(1, gens + 1))
    rng.shuffle(perm)
    sign = {g: rng.choice((1, -1)) for g in perm}
    out = []
    for w in rels:
        w = [sign[perm[abs(x) - 1]] * perm[abs(x) - 1] * (1 if x > 0 else -1) for x in w]
        r = rng.randrange(len(w))
        out.append(w[r:] + w[:r])
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Seifert matrices


TREFOIL = ([[-1, 1], [0, -1]], -2, {-1: 1, 0: -1, 1: 1})
FIGURE_EIGHT = ([[1, 1], [0, -1]], 0, {-1: -1, 0: 3, 1: -1})


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def seifert_sum(rng, genus):
    """Block sum of `genus` trefoil / figure-eight blocks under a random
    unimodular congruence.  Returns (json, expected)."""
    blocks = [rng.choice((TREFOIL, FIGURE_EIGHT)) for _ in range(genus)]
    n = 2 * genus
    v = _zeros(n)
    sig, poly = 0, {0: 1}
    for i, (mat, s, p) in enumerate(blocks):
        for a in range(2):
            for b in range(2):
                v[2 * i + a][2 * i + b] = mat[a][b]
        sig += s
        poly = _poly_mul(poly, p)
    # P = L U with unit triangular factors of entries in {-1, 0, 1}: det 1,
    # dense, with entry sizes that do not vary much from seed to seed
    lower, upper = _eye(n), _eye(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 1))
    p = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    pv = [[sum(p[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    w = [[sum(pv[i][k] * p[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    at_minus1 = sum(c * (-1) ** (e % 2) for e, c in poly.items())
    arf = len(blocks) % 2  # each block has Arf 1
    a = abs(at_minus1)
    return {"kind": "seifert", "matrix": w}, {
        "signature": sig,
        "alexander": poly,
        "alexander_at_minus1": at_minus1,
        "arf": arf,
        "fox_milnor": "unknown" if isqrt(a) ** 2 == a else "obstructed",
        "corollary_sigma_eq_4arf_plus_4": (sig - 4 * arf - 4) % 8 == 0,
    }


# ---------------------------------------------------------------------------
# workloads


class JobList:
    """Collects jobs and writes their input files."""

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.jobs: list[dict] = []

    def write(self, data, stem) -> str:
        path = self.inputs / f"{len(self.jobs):04d}-{stem}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def cli(self, cmd, src, expect, *flags, pair=None, role=None):
        self.jobs.append({
            "id": len(self.jobs), "kind": "cli", "cmd": cmd,
            "argv": ["--json", cmd, *flags, src],
            "expect": expect, "pair": pair, "role": role,
        })

    def coset(self, name, gens, rels, order, limit):
        self.jobs.append({
            "id": len(self.jobs), "kind": "coset", "cmd": "coset",
            "name": name, "gens": gens, "relators": rels, "limit": limit,
            "expect": {"order": order}, "pair": None, "role": None,
        })


def _frac(x) -> str:
    return str(Fraction(x))


def _hfi_jobs(jl, rng, data, d, tag, v0=True):
    """hfi on Y and on its dual -Y; with v0, v0 on Y as well."""
    for role, doc, dd in (("Y", data, d), ("-Y", dual_ucomplex(data), -d)):
        src = doc if isinstance(doc, str) else jl.write(doc, f"{tag}{role}")
        jl.cli("hfi", src, {"d": _frac(dd)}, pair=tag, role=role)
        if v0 and role == "Y":
            p = rng.randint(1, 9)
            jl.cli("v0", src, {"p": p, "V0": _frac(Fraction(p - 1, 8) - Fraction(dd, 2))},
                   "--p", str(p))


def _pin_jobs(jl, data, exp, tag):
    src = data if isinstance(data, str) else jl.write(data, tag)
    jl.cli("abc", src, {k: exp[k] for k in ("A", "B", "C", "alpha", "beta", "gamma", "mu")})
    jl.cli("dual", src, {
        "alpha_reverse": -exp["gamma"], "beta_reverse": -exp["beta"],
        "gamma_reverse": -exp["alpha"], "coborel_tops": [-exp["A"], -exp["B"], -exp["C"]],
    })
    jl.cli("tate", src, {"localizes": True, "anchored_at": exp["n"],
                         "start": max(exp["A"], exp["B"], exp["C"])})


def tower_batch(jl, rng, data_dir):
    # two u_complex + iota at each of 5, 7, ..., 25 generators, two more at
    # 5 and one more at 7, both orientations; v0 at 5, 15 and 25
    # generators.  The extra cheap models put the median job inside the
    # 7-generator size class instead of on the step between 7 and 9
    # generators, where it flipped from seed to seed.
    extra = {5: "cd", 7: "c"}
    for gens in range(5, 26, 2):
        for copy in "ab" + extra.get(gens, ""):
            data, d = ucomplex(rng, (gens - 1) // 2)
            _hfi_jobs(jl, rng, data, d, f"u{gens}{copy}", v0=copy == "a" and gens in (5, 15, 25))
    sigma = json.loads((data_dir / "sigma237.json").read_text())
    jl.cli("hfi", "fixtures:sigma237", {"d": "0"}, pair="sigma237", role="Y")
    jl.cli("v0", "fixtures:sigma237", {"p": 1, "V0": "0"}, "--p", "1")
    src = jl.write(dual_ucomplex(sigma), "sigma237-dual")
    jl.cli("hfi", src, {"d": "0"}, pair="sigma237", role="-Y")
    # pin models with 0..18 finite generators
    for total in range(0, 19, 6):
        data, exp = pin_model(rng, total)
        _pin_jobs(jl, data, exp, f"pin{total}")
    for name, n in (("poincare", 2), ("s3", 0), ("s_minus2", -2)):
        _pin_jobs(jl, f"fixtures:{name}", pin_expect(n, []), name)
    # s1 models
    for total in range(0, 13, 4):
        data, delta = s1_model(rng, total)
        jl.cli("delta", jl.write(data, f"s1-{total}"), {"delta": _frac(delta)})
    jl.cli("delta", "fixtures:poincare_s1", {"delta": "1"})
    jl.cli("delta", "fixtures:sigma237_s1", {"delta": "0"})


def degree_spread(jl, rng, data_dir):
    for dist in (50, 100, 200, 400):
        data, d = ucomplex(rng, 1, spread=3, far=dist)
        _hfi_jobs(jl, rng, data, d, f"far{dist}", v0=dist <= 100)
        for sign in (1, -1):
            data, exp = pin_model(rng, 2, far=sign * dist, plan=[(1, 0)])
            _pin_jobs(jl, data, exp, f"pinfar{sign * dist}")
            data, delta = s1_model(rng, 2, far=sign * dist, plan=[1])
            jl.cli("delta", jl.write(data, f"s1far{sign * dist}"), {"delta": _frac(delta)})


def _simplicial_family(data_dir):
    def facets(name):
        return json.loads((data_dir / f"{name}.json").read_text())["facets"]

    rp2 = Cx(facets("rp2_6"), {1: (0, [2])}, "rp2")
    torus = Cx(facets("torus7"), {1: (2, []), 2: (1, [])}, "torus")
    s3 = Cx(facets("boundary_delta4"), {3: (1, [])}, "s3")
    return rp2, torus, s3


def integer_algebra(jl, rng, data_dir):
    rp2, torus, s3 = _simplicial_family(data_dir)
    srp2 = suspension(rp2)
    ss_rp2 = suspension(srp2)
    storus = suspension(torus)
    rp2_s1 = join(rp2, sphere_boundary(2), "rp2*S1")
    complexes = [rp2, torus, s3, srp2, storus, suspension(s3), ss_rp2, rp2_s1]
    for cx in complexes:
        cx, _ = cx.relabel(rng)
        src = jl.write(cx.to_json(), cx.name)
        chi = euler(cx)
        for ring in ("Z", "F2"):
            jl.cli("homology", src, {"ring": ring, "rows": homology_rows(cx, ring), "chi": chi},
                   "--ring", ring, pair=cx.name, role=ring)
    for cx, dim, want in ((rp2, 1, [True]), (srp2, 2, [True]), (ss_rp2, 3, [True]),
                          (torus, 1, [False, False]), (storus, 2, [False, False])):
        cx, _ = cx.relabel(rng)
        jl.cli("sq1", jl.write(cx.to_json(), f"sq1-{cx.name}"), {"nonzero": want},
               "--dim", str(dim))
    for cx, order, ab in ((rp2, 2, (0, [2])), (torus, "exceeded", (2, [])),
                          (s3, 1, (0, [])), (srp2, 1, (0, []))):
        cx, _ = cx.relabel(rng)
        jl.cli("pi1", jl.write(cx.to_json(), f"pi1-{cx.name}"),
               {"coset_enumeration": order, "abelianization": ab}, "--limit", "1000")
    for cx in (sphere_boundary(5), suspension(s3), storus):
        apexes = set()
        if cx is storus:
            apexes = {max(cx.vertices()) - 1, max(cx.vertices())}
        cx, relabel = cx.relabel(rng)
        simplices = cx.simplices()
        facets = {s for s in simplices if len(s) == cx.dim() + 1}
        pure_sphere = not apexes
        jl.cli("scan-links", jl.write(cx.to_json(), f"scan-{cx.name}"), {
            "links_checked": len(simplices) - len(facets),
            "all_certified_spheres": pure_sphere,
            "failing": sorted(str(relabel[v]) for v in apexes),
            "pi1_vertices": sorted(str(v) for v in cx.vertices())
            if pure_sphere and cx.dim() == 4 else [],
        }, "--certify-pi1")
    for n in (5, 6, 7):
        gens, rels, order = coxeter_sn(n)
        jl.coset(f"S{n}", gens, scramble_presentation(rng, gens, rels), order, 20000)
    gens, rels, order = binary_icosahedral()
    jl.coset("2I", gens, scramble_presentation(rng, gens, rels), order, 20000)
    for genus in range(2, 8):
        data, exp = seifert_sum(rng, genus)
        jl.cli("knot", jl.write(data, f"knot-g{genus}"), exp)


WORKLOADS = {
    "tower-batch": tower_batch,
    "degree-spread": degree_spread,
    "integer-algebra": integer_algebra,
}


def make_jobs(workload: str, seed: int, data_dir: Path, inputs: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    jl = JobList(inputs)
    WORKLOADS[workload](jl, rng, data_dir)
    return jl.jobs
