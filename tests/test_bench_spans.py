"""Every span the benchmark tracer wraps must still name a library callable.

The tracer in ``perfbench/bench_trace.py`` patches ``(module, attribute)``
pairs of ``dorroh``; a rename in the library would silently drop a span
from the traced run, so this checks the names without running the bench.
A dotted ``Class.method`` must be defined on that class itself, because
the tracer patches it through ``Class.__dict__``.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


def test_every_traced_span_resolves():
    spans = _spans()
    assert spans
    for module, attribute, _, _ in spans:
        obj = importlib.import_module(f"dorroh.{module}")
        for part in attribute.split("."):
            # the tracer reads a method from its class's own __dict__, so
            # one inherited from a base class would break a traced run
            if isinstance(obj, type):
                assert part in obj.__dict__, (module, attribute)
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)
