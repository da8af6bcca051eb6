"""The public surface: every export resolves, every public callable is
fuzzed or excused, and the benchmark's span tracer still finds every
function it wraps."""

import importlib.util
from pathlib import Path

import kerrgate
from test_arguments import EXCUSED, FUZZ


def test_every_exported_name_resolves():
    assert [name for name in kerrgate.__all__ if not hasattr(kerrgate, name)] == []


def test_every_public_callable_is_fuzzed_or_excused_with_a_reason():
    """A new public function cannot skip the argument contract quietly: it
    joins ``test_arguments.FUZZ`` or says in ``EXCUSED`` why not."""
    public = {name for name in kerrgate.__all__ if callable(getattr(kerrgate, name))}
    assert sorted(public - FUZZ.keys() - EXCUSED.keys()) == []
    assert sorted(FUZZ.keys() & EXCUSED.keys()) == []
    assert sorted((FUZZ.keys() | EXCUSED.keys()) - public) == []
    assert all(reason.strip() for reason in EXCUSED.values())


def test_span_tracer_finds_every_wrapped_function():
    # read-only: loads perfbench/spans.py and resolves its names, installs nothing
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.missing_functions() == []
