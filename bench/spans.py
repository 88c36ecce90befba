"""Spans around the public functions of each homcob module.

Spans are kept in memory (name, start, end, parent span, job id) and
written out when the run ends.  A span's self time is its duration minus
the time covered by its child spans.  Nothing inside homcob is edited:
`install` replaces each listed function, wherever a homcob module has
bound it, with a wrapper that opens and closes a span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "f2linalg", "graded", "equivariant", "involutive",
          "simplicial", "toddcoxeter", "knot")


def _cells(x) -> int:
    """rows x cols of a matrix argument (length of a vector)."""
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for s in shape:
            n *= s
        return n
    if isinstance(x, list):
        return len(x) * (len(x[0]) if x and isinstance(x[0], (list, tuple)) else 1)
    return 0


def _arg_cells(args, kwargs, out):
    return sum(_cells(a) for a in args)


def _window_width(args, kwargs, out):
    return args[2] - args[1]


def _basis_dim(args, kwargs, out):
    return sum(len(b) for b in out.basis.values())


def _chain_dim(args, kwargs, out):
    cx = args[1]
    return sum(cx.dim(d) for d in cx.degrees())


def _cosets(args, kwargs, out):
    return out if isinstance(out, int) else 0


# (module, attribute, span name, counter name, counter)
SPANS = [
    ("cli", "run", "cli.run", None, None),
    ("cli", "load_input", "cli.load_input", None, None),
    ("cli", "parse_input", "cli.parse_input", None, None),
    ("cli", "Report.emit", "cli.emit", None, None),
    ("f2linalg", "rank_f2", "f2linalg.rank_f2", "f2linalg.gf2.cells", _arg_cells),
    ("f2linalg", "kernel_basis_f2", "f2linalg.kernel_basis_f2", "f2linalg.gf2.cells", _arg_cells),
    ("f2linalg", "solve_f2", "f2linalg.solve_f2", "f2linalg.gf2.cells", _arg_cells),
    ("f2linalg", "image_basis_f2", "f2linalg.image_basis_f2", "f2linalg.gf2.cells", _arg_cells),
    ("f2linalg", "f2_mul", "f2linalg.f2_mul", "f2linalg.gf2.cells", _arg_cells),
    ("f2linalg", "smith_normal_form", "f2linalg.smith_normal_form",
     "f2linalg.smith_normal_form.cells", _arg_cells),
    ("f2linalg", "int_det", "f2linalg.int_det", None, None),
    ("graded", "Homology.__init__", "graded.Homology", "graded.Homology.chain_dim", _chain_dim),
    ("graded", "Homology.induced_op", "graded.induced_op", None, None),
    ("graded", "Homology.stable_rank", "graded.stable_rank", None, None),
    ("equivariant", "PinModel.materialize", "equivariant.materialize",
     "equivariant.materialize.window_width", _window_width),
    ("equivariant", "SOneModel.materialize", "equivariant.materialize",
     "equivariant.materialize.window_width", _window_width),
    ("equivariant", "tower_bottoms", "equivariant.tower_bottoms", None, None),
    ("equivariant", "abc", "equivariant.abc", None, None),
    ("equivariant", "coborel_tower_tops", "equivariant.coborel_tower_tops", None, None),
    ("equivariant", "localization_check", "equivariant.localization_check", None, None),
    ("equivariant", "delta_invariant", "equivariant.delta_invariant", None, None),
    ("involutive", "UComplex.plus_window", "involutive.plus_window",
     "involutive.plus_window.basis_dim", _basis_dim),
    ("involutive", "validate_iota", "involutive.validate_iota", None, None),
    ("involutive", "one_plus_iota_nullhomotopic", "involutive.one_plus_iota_nullhomotopic",
     None, None),
    ("involutive", "d_invariant", "involutive.d_invariant", None, None),
    ("involutive", "involutive_correction_terms", "involutive.involutive_correction_terms",
     None, None),
    ("simplicial", "ChainComplexZ.of", "simplicial.ChainComplexZ", None, None),
    ("simplicial", "homology", "simplicial.homology", None, None),
    ("simplicial", "AbstractComplex.link", "simplicial.AbstractComplex.link", None, None),
    ("simplicial", "link_manifold_scan", "simplicial.link_manifold_scan", None, None),
    ("simplicial", "cohomology_basis", "simplicial.cohomology_basis", None, None),
    ("simplicial", "bockstein_sq1", "simplicial.bockstein_sq1", None, None),
    ("simplicial", "fundamental_group", "simplicial.fundamental_group", None, None),
    ("toddcoxeter", "coset_enumeration", "toddcoxeter.coset_enumeration",
     "toddcoxeter.cosets", _cosets),
    ("knot", "signature", "knot.signature", None, None),
    ("knot", "alexander", "knot.alexander", None, None),
    ("knot", "arf", "knot.arf", None, None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.job = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.jobs_hit: dict[str, int] = {}
        self._last_job: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.jobs_hit[name] = 0
        return nid

    def open(self, name: str) -> None:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.job_of.append(self.job)
        self.end.append(0.0)
        self.stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        idx, child = self.stack.pop()
        self.end[idx] = end
        dur = end - self.start[idx]
        name = self.names[self.name[idx]]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._last_job.get(name) != self.job:
            self._last_job[name] = self.job
            self.jobs_hit[name] += 1
        if self.stack:
            self.stack[-1][1] += dur

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def write(self, out: Path) -> None:
        """Spans as raw arrays plus a JSON index of the names."""
        out.mkdir(parents=True, exist_ok=True)
        (out / "names.json").write_text(json.dumps(
            {"names": self.names,
             "fields": {"name": "i32", "start": "f64", "end": "f64",
                        "parent": "i32", "job": "i32"}}))
        for field, arr in (("name", self.name), ("start", self.start), ("end", self.end),
                           ("parent", self.parent), ("job", self.job_of)):
            with open(out / f"{field}.bin", "wb") as f:
                arr.tofile(f)

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "jobs_hit": self.jobs_hit, "counts": self.counts}


def _wrap(tracer: Tracer, fn, name, counter, count):
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if counter is not None:
            tracer.count(counter, count(args, kwargs, out))
        return out

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS, rebinding each module-level name in
    every loaded homcob module that refers to it."""
    modules = [m for n, m in sys.modules.items() if n == "homcob" or n.startswith("homcob.")]
    for mod_name, attr, name, counter, count in SPANS:
        mod = sys.modules[f"homcob.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(_wrap(tracer, raw.__func__, name, counter, count)))
            else:
                setattr(cls, meth, _wrap(tracer, raw, name, counter, count))
            continue
        original = getattr(mod, attr)
        traced = _wrap(tracer, original, name, counter, count)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is original:
                    setattr(m, key, traced)
