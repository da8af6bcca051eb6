"""The public surface: every export resolves, and the benchmark's span
tracer still finds every function it wraps."""

import importlib.util
from pathlib import Path

import kerrgate


def test_every_exported_name_resolves():
    assert [name for name in kerrgate.__all__ if not hasattr(kerrgate, name)] == []


def test_span_tracer_finds_every_wrapped_function():
    # read-only: loads perfbench/spans.py and resolves its names, installs nothing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.missing_functions() == []
