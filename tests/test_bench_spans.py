"""The traced benchmark run wraps named homcob functions; a rename in
homcob must not break it."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS
    for mod_name, attr, *_ in spans.SPANS:
        mod = importlib.import_module(f"homcob.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() rebinds the method in the class's own namespace
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr, None)), (mod_name, attr)
