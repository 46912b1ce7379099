import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_is_a_callable_of_the_program():
    # the tracer skips a missing name silently, so a renamed function would
    # read 0 in its per-layer metrics without this check
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{name}" for mod, name in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"hermann.{mod}"),
                                       name, None))]
    assert spans.TARGETS and missing == []
