"""The benchmark's job lists as tests: every job of each workload, built
from seed 7 with the bundled fixtures as data, runs in-process the way
the benchmark worker runs it, and its output passes every check of the
benchmark (construction values and exact laws)."""

import importlib.util
import json
from pathlib import Path

import pytest

from homcob import cli, toddcoxeter
from homcob.errors import HomcobError
from homcob.simplicial import GroupPresentation

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gen, checks = _load("gen"), _load("checks")


def _run(job):
    """The output record of one job, as the benchmark worker writes it."""
    try:
        if job["kind"] == "cli":
            text, code = cli.run(job["argv"])
            return {"text": text, "code": code}
        group = GroupPresentation(job["gens"], job["relators"])
        return {"text": json.dumps(toddcoxeter.coset_enumeration(group, job["limit"])),
                "code": 0}
    except HomcobError as e:
        return {"error": f"{type(e).__name__}: {e}", "code": e.exit_code}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_bench_job_passes_its_checks(workload, tmp_path):
    jobs = gen.make_jobs(workload, 7, ROOT / "src" / "homcob" / "data", tmp_path)
    assert jobs
    reasons = checks.check_all(jobs, [_run(job) for job in jobs])
    failing = {job["id"]: sorted(bad) for job, bad in zip(jobs, reasons) if bad}
    assert failing == {}
