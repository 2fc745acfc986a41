"""Every function the benchmark's tracer wraps must still exist under its
name: a rename would pass the package's own tests and break only the
benchmark.  The tracer module is loaded from its file, never installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name,module,attr",
                         [row[:3] for row in tracing.TARGETS],
                         ids=[row[0] for row in tracing.TARGETS])
def test_traced_name_resolves(name, module, attr):
    owner = importlib.import_module(f"repgrowth.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: repgrowth.{module}.{attr} is gone"
