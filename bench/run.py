"""homcob benchmark: seeded workloads through the public API, every output
checked, end-to-end metrics from an untraced run and per-layer metrics
from a traced one.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it imports homcob from
./src).  Workloads: tower-batch, degree-spread, integer-algebra (see
gen.py and LAYERS.md).  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat each metric by name and unit, the tail percentile with its sample
count, and the failed jobs per reason.

Each run:
1. times `setup_s`: fresh interpreters importing homcob.cli and building
   its parser, SETUP_SPAWNS before and SETUP_SPAWNS after the worker runs
   (median of both batches); with --trace 1 also splits the import time
   into numpy and homcob with `python -X importtime`;
2. generates the job list from the seed into .bench_build/homcob-bench/;
3. runs it in one fresh worker process, one job at a time (closed loop,
   one client, all processes pinned to one CPU): cycling through the list until S seconds have passed (at
   least two whole passes), or with --trace 1 one untraced and one traced
   pass;
4. checks every output (checks.py) and prints the metrics.  A job's
   latency is its median over its untraced runs.

Every timing is scaled to a reference speed with the probe in speed.py,
because the speed of a shared host drifts by up to 2x within minutes; the
unscaled figures are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# set-up spawns before and again after the worker; setup_s is the median
# of both batches, so it samples the machine at two moments
SETUP_SPAWNS = 8
IMPORTTIME_SPAWNS = 5
WORKER_TIMEOUT_S = 150
SPAWN_TIMEOUT_S = 30

COMMANDS = ("hfi", "v0", "abc", "dual", "tate", "delta", "homology", "sq1", "pi1",
            "scan-links", "knot")
GF2_FUNCS = ("rank_f2", "kernel_basis_f2", "solve_f2", "image_basis_f2", "f2_mul")


def end_to_end_specs():
    return [("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_p50_ms", "ms"),
            ("job_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def per_layer_specs():
    """(name, unit) of every per-layer metric, in print order."""
    out = [(f"cli.{c}.p50_ms", "ms") for c in COMMANDS]
    out += [(f"cli.{n}.self_s", "s") for n in ("parse_input", "load_input", "emit")]
    out += [("setup.import_numpy_s", "s"), ("setup.import_homcob_s", "s")]

    def calls_self(prefix):
        return [(f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s")]

    for f in GF2_FUNCS:
        out += calls_self(f"f2linalg.{f}")
    out += [("f2linalg.gf2.cells", "count")]
    out += calls_self("f2linalg.smith_normal_form") + [("f2linalg.smith_normal_form.cells", "count")]
    out += calls_self("f2linalg.int_det")
    out += [("graded.Homology.builds", "count"), ("graded.Homology.self_s", "s"),
            ("graded.Homology.chain_dim", "count")]
    out += calls_self("graded.induced_op") + calls_self("graded.stable_rank")
    out += calls_self("equivariant.materialize") + [("equivariant.materialize.window_width", "count")]
    out += [(f"equivariant.{f}.self_s", "s") for f in
            ("tower_bottoms", "abc", "coborel_tower_tops", "localization_check", "delta_invariant")]
    out += [("equivariant.materialize_per_job", "calls/job")]
    out += calls_self("involutive.plus_window") + [("involutive.plus_window.basis_dim", "count")]
    out += [(f"involutive.{f}.self_s", "s") for f in
            ("validate_iota", "one_plus_iota_nullhomotopic", "d_invariant",
             "involutive_correction_terms")]
    out += [("involutive.plus_window_per_job", "calls/job")]
    out += [("simplicial.ChainComplexZ.builds", "count"), ("simplicial.ChainComplexZ.self_s", "s")]
    for f in ("homology", "AbstractComplex.link", "link_manifold_scan", "cohomology_basis",
              "bockstein_sq1", "fundamental_group"):
        out += calls_self(f"simplicial.{f}")
    out += calls_self("toddcoxeter.coset_enumeration") + [("toddcoxeter.cosets", "count")]
    for f in ("signature", "alexander", "arf"):
        out += calls_self(f"knot.{f}")
    out += [("knot.alexander_per_job", "calls/job"), ("trace.overhead_share", "ratio")]
    out += [(f"layer.{m}.self_share", "ratio") for m in spans.LAYERS]
    return out


# span names whose call count is reported under another word
RENAMED = {"graded.Homology": "builds", "simplicial.ChainComplexZ": "builds"}
PER_JOB = {"equivariant.materialize_per_job": "equivariant.materialize",
           "involutive.plus_window_per_job": "involutive.plus_window",
           "knot.alexander_per_job": "knot.alexander"}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _spawn_times(cmd, env, root, n) -> list[list[float]]:
    """[wall time, mean speed probe around it] of n runs of cmd.  The wait
    blocks in waitpid (a timeout on subprocess.run would poll in steps of
    up to 50 ms); a timer kills a child that hangs."""
    out = []
    before = speed.probe()
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=root,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = time.perf_counter() - t0
        watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        after = speed.probe()
        out.append([elapsed, (before + after) / 2])
        before = after
    return out


SETUP_CMD = [sys.executable, "-c", "import homcob.cli as c; c.build_parser()"]


def measure_setup(env, root) -> list[list[float]]:
    """Set-up times of SETUP_SPAWNS fresh interpreters with the probe times
    around each, after one untimed spawn that warms the bytecode and page
    caches."""
    _spawn_times(SETUP_CMD, env, root, 1)
    return _spawn_times(SETUP_CMD, env, root, SETUP_SPAWNS)


def measure_import_split(env, root) -> tuple[float, float]:
    """(numpy, homcob without numpy) cumulative import seconds."""
    numpy_s, homcob_s = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import homcob.cli"],
                             env=env, cwd=root, check=True, capture_output=True, text=True,
                             timeout=SPAWN_TIMEOUT_S).stderr
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
        numpy_s.append(cumulative.get("numpy", 0.0))
        homcob_s.append(cumulative["homcob.cli"] - cumulative.get("numpy", 0.0))
    return statistics.median(numpy_s), statistics.median(homcob_s)


def percentile(sorted_vals, p) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile that leaves at least ten jobs of one pass
    beyond it (every run makes at least one pass)."""
    return max(50, min(99, math.floor(100 * (1 - 10 / jobs_per_pass))))


def verdict(jobs, result):
    """(correct, attempted, failed, failing jobs per reason, one line per
    failing job).  Each job counts once however often it was timed, so the
    counts depend on the seed alone; a job fails if any of its runs did."""
    reasons = checks.check_all(jobs, result["outputs"])
    per_reason = {r: 0 for r in checks.REASONS}
    failed, lines = 0, []
    for job, out, bad, moved in zip(jobs, result["outputs"], reasons, result["mismatch"]):
        if moved:
            bad = bad | {"nondeterministic"}
        for r in bad:
            per_reason[r] += 1
        failed += bool(bad)
        if bad:
            what = (" ".join(job["argv"][1:-1] + [Path(job["argv"][-1]).name])
                    if job["kind"] == "cli" else f"coset {job['name']}")
            error = out.get("error", "").strip().splitlines()[-1:]
            lines.append(f"failed job {job['id']} {what}: {', '.join(sorted(bad))}"
                         + (f" ({error[0]})" if error else ""))
    correct = not any(per_reason[r] for r in ("raised", "construction", "nondeterministic"))
    return correct, len(jobs), failed, per_reason, lines


def job_latencies(result, scale) -> list[float]:
    """Each job's latency: the median over its untraced runs, each scaled
    to the reference speed (speed.py) when `scale` is set."""
    return [statistics.median(speed.scaled(raw, near) if scale else raw for raw, near in xs)
            for xs in result["samples"]]


def end_to_end(jobs, result, setup_s, scale=True):
    lat = job_latencies(result, scale)
    tail_p = tail_percentile(len(jobs))
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_ms": statistics.median(lat) * 1000,
        "job_tail_ms": percentile(sorted(lat), tail_p) * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    runs = [len(xs) for xs in result["samples"]]
    note = (f"job_tail_ms is p{tail_p} over {len(lat)} jobs, each the median of "
            f"{min(runs)}-{max(runs)} runs")
    return metrics, note


def per_layer(jobs, result, import_split):
    t = result["traced"]
    calls, self_s, hit, counts = t["calls"], t["self_s"], t["jobs_hit"], t["counts"]
    def scaled_pass(p):
        return [speed.scaled(raw, near) for raw, near in zip(p["lat"], p["around"])]

    first = scaled_pass(result["passes"][0])
    values = {}
    for cmd in COMMANDS:
        lat = [x for j, x in zip(jobs, first) if j["cmd"] == cmd]
        values[f"cli.{cmd}.p50_ms"] = statistics.median(lat) * 1000 if lat else 0.0
    values["setup.import_numpy_s"], values["setup.import_homcob_s"] = import_split
    for _, _, name, counter, _ in spans.SPANS:
        values[f"{name}.{RENAMED.get(name, 'calls')}"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        if counter:
            values[counter] = counts.get(counter, 0)
    for metric, name in PER_JOB.items():
        values[metric] = calls.get(name, 0) / hit[name] if hit.get(name) else 0.0
    values["trace.overhead_share"] = sum(scaled_pass(t)) / sum(first) - 1
    by_layer = {m: 0.0 for m in spans.LAYERS}
    for name, s in self_s.items():
        by_layer[name.split(".")[0]] += s
    total = sum(by_layer.values()) or 1.0
    for m, s in by_layer.items():
        values[f"layer.{m}.self_share"] = s / total
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    data = src / "homcob" / "data"
    if not (src / "homcob" / "cli.py").is_file() or not data.is_dir():
        return fail(f"no homcob sources under {src}; run from the root of a checkout")
    if args.workload not in gen.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(gen.WORKLOADS)}")

    # one CPU for this process and every process it starts, so that set-up
    # spawns and jobs run where the speed probe runs: unpinned, a set-up
    # spawn read 0.22-0.27 s or 0.29-0.32 s depending on where the
    # scheduler put the child, and the parent's probe did not see it
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(args.seed % 2**32))
    base = root / ".bench_build" / "homcob-bench"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        setup_times = measure_setup(env, root)
        import_split = measure_import_split(env, root) if args.trace else None

        jobs = gen.make_jobs(args.workload, args.seed, data, work / "inputs")
        (work / "jobs.json").write_text(json.dumps(jobs))
        cmd = [sys.executable, str(HERE / "worker.py"), str(work / "jobs.json"),
               str(work / "result.json"), "--src", str(src), "--seconds", str(args.seconds)]
        if args.trace:
            cmd += ["--trace-out", str(base / f"trace-{args.workload}")]
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            return fail(f"worker exited with code {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
        setup_times += measure_setup(env, root)
        setup_s = statistics.median(speed.scaled(raw, near) for raw, near in setup_times)
        raw_setup_s = statistics.median(raw for raw, _ in setup_times)
    except subprocess.TimeoutExpired as e:
        return fail(f"timed out: {e}")
    except subprocess.CalledProcessError as e:
        return fail(f"a set-up interpreter failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, per_reason, failing = verdict(jobs, result)
    e2e, tail_note = end_to_end(jobs, result, setup_s)
    unscaled, _ = end_to_end(jobs, result, raw_setup_s, scale=False)
    print("\n".join(failing))
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{sum(map(len, result['samples']))} untraced job runs")
    for name, unit in end_to_end_specs():
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(tail_note)
    print(f"speed probe: fastest {result['fastest_probe'] * 1e6:.1f} us, "
          f"median {result['median_probe'] * 1e6:.1f} us, "
          f"reference {speed.REFERENCE_PROBE_S * 1e6:.0f} us")
    print("unscaled: " + ", ".join(f"{name} {unscaled[name]:.6g} {unit}"
                                   for name, unit in end_to_end_specs()))
    print(f"fail_share {failed / attempted:.6g} ratio ({failed} of {attempted} jobs failed; "
          f"failing jobs by reason: " + ", ".join(f"{r} {n}" for r, n in per_reason.items()) + ")")

    if args.trace:
        values = per_layer(jobs, result, import_split)
        specs = per_layer_specs()
    else:
        values, specs = e2e, end_to_end_specs()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
