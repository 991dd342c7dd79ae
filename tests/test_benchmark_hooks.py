"""The benchmark tracer replaces functions of the package by name; a rename
in the package must fail here rather than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr,
                                                       name)
