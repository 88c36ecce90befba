"""The traced benchmark run wraps named homcob functions; a rename in
homcob must not break it."""

import importlib
import importlib.util
import json
from pathlib import Path

from helpers import fresh_python

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _spans()
    assert spans.SPANS
    for mod_name, attr, *_ in spans.SPANS:
        mod = importlib.import_module(f"homcob.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() rebinds the method in the class's own namespace
            assert meth in vars(getattr(mod, cls_name)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr, None)), (mod_name, attr)


def test_importing_the_cli_loads_every_traced_module():
    """`install` looks each traced module up in sys.modules, after a pass
    that may run none of its functions (integer-algebra runs no tower
    command), so importing the CLI alone must load them all."""
    loaded = json.loads(fresh_python(
        "import json, sys\nimport homcob.cli\nprint(json.dumps(sorted(sys.modules)))"))
    traced = {f"homcob.{mod_name}" for mod_name, *_ in _spans().SPANS}
    assert traced - set(loaded) == set()
