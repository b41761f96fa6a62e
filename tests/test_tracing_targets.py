"""The benchmark's span recorder (``bench/tracing.py``) rebinds package
functions by name; every name it lists must still exist in the package."""

import importlib.util
from pathlib import Path

import halfline_dnls.cli  # noqa: F401  (the recorder patches loaded modules)
from halfline_dnls import cascade

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    original = cascade.cascade_integrate
    recorder = _load_tracing().SpanRecorder()
    try:
        recorder.install()
        assert recorder.skipped == []
        assert cascade.cascade_integrate is not original
    finally:
        recorder.uninstall()
    assert cascade.cascade_integrate is original
