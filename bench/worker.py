"""Workload process: runs one job list through homcob in-process, one job
at a time, and writes latencies, outputs and (when traced) span totals.

    python3 bench/worker.py JOBS.json RESULT.json --src SRC --seconds S
        [--trace-out DIR]

Untraced, it cycles through the job list until S seconds have passed,
making at least MIN_PASSES whole passes; a pass cut by the deadline keeps
the samples it took.  A speed probe (speed.py) runs after every job, so
each latency is recorded with the probe times around it.  With
--trace-out it runs one untraced pass, then installs the span wrappers,
runs one traced pass and writes the spans to DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

# every job is timed at least this often
MIN_PASSES = 2


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("jobs")
    ap.add_argument("result")
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import homcob
    from homcob import cli
    from homcob.errors import HomcobError
    from homcob.simplicial import GroupPresentation

    src = Path(args.src).resolve()
    if src not in Path(homcob.__file__).resolve().parents:
        print(f"homcob imported from {homcob.__file__}, not from {src}", file=sys.stderr)
        return 2

    jobs = json.loads(Path(args.jobs).read_text())
    presentations = {
        j["id"]: GroupPresentation(j["gens"], j["relators"]) for j in jobs if j["kind"] == "coset"
    }

    def run_one(job):
        """(latency in s, output record)."""
        t0 = time.perf_counter()
        try:
            if job["kind"] == "cli":
                text, code = cli.run(job["argv"])
                out = {"text": text, "code": code}
            else:
                # looked up at call time so that a traced pass sees the wrapper
                from homcob import toddcoxeter
                order = toddcoxeter.coset_enumeration(presentations[job["id"]], job["limit"])
                out = {"text": json.dumps(order), "code": 0}
        except HomcobError as e:
            out = {"error": f"{type(e).__name__}: {e}", "code": e.exit_code}
        except Exception:  # a crash is a failed job, not a failed run
            out = {"error": traceback.format_exc(), "code": -1}
        return time.perf_counter() - t0, out

    probes = []

    def timed(job, before):
        """(raw latency, mean probe time around it, probe after it, output)."""
        dt, out = run_one(job)
        after = speed.probe()
        probes.append(after)
        return dt, (before + after) / 2, after, out

    def one_pass(tracer=None):
        lat, around, outs = [], [], []
        t0 = time.perf_counter()
        before = speed.probe()
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            dt, near, before, out = timed(job, before)
            lat.append(dt)
            around.append(near)
            outs.append(out)
        return time.perf_counter() - t0, lat, around, outs

    # warm-up: one job of each command, so lazy imports and first-call
    # set-up inside the process are not charged to the timed passes
    seen = set()
    for job in jobs:
        if job["cmd"] not in seen:
            seen.add(job["cmd"])
            run_one(job)

    start = time.perf_counter()
    wall, lat, around, outputs = one_pass()
    passes = [{"wall": wall, "lat": lat, "around": around}]
    samples = [[[x, c]] for x, c in zip(lat, around)]
    mismatch = [0] * len(jobs)

    def compare(i, out):
        mismatch[i] += outputs[i] != out

    # untraced: keep cycling through the job list until the deadline; a
    # pass cut by the deadline still adds its samples
    deadline = start + args.seconds
    while not args.trace_out:
        t0, lat, around = time.perf_counter(), [], []
        before = speed.probe()
        for i, job in enumerate(jobs):
            if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            dt, near, before, out = timed(job, before)
            lat.append(dt)
            around.append(near)
            samples[i].append([dt, near])
            compare(i, out)
        if len(lat) < len(jobs):
            break
        passes.append({"wall": time.perf_counter() - t0, "lat": lat, "around": around})
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    result = {"passes": passes, "samples": samples}
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        wall, lat, around, outs = one_pass(tracer)
        for i, out in enumerate(outs):
            compare(i, out)
        tracer.write(Path(args.trace_out))
        result["traced"] = {"wall": wall, "lat": lat, "around": around, **tracer.summary()}

    result["fastest_probe"] = min(probes)
    result["median_probe"] = statistics.median(probes)
    result["outputs"] = outputs
    result["mismatch"] = mismatch
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
