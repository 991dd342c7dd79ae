"""The benchmark tracer replaces functions of the package by name and reads
attributes from their results; a rename in the package, or a changed result
type, must fail here rather than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from xxzent.model import ModelParams

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"

# span name -> a call of the traced function, and what its reader returns
READ = {
    "sweep.evaluate_point": (
        lambda f: f("exact", ModelParams(n=4, b=0.3, T=0.2)),
        {"status": "ok"}),
    "sweep.limit_temperature": (
        lambda f: f("exact", ModelParams(n=4, b=0.3), probes=3),
        {"probes": 3}),
    "quadrature.quad_gk": (
        lambda f: f(lambda row, x: x * x, [0.0, 1.0]),
        {"neval": 15}),
}


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracing):
    assert tracing.TARGETS
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr,
                                                       name)


def test_every_result_reader_reads_a_real_result(tracing):
    readers = [(getattr(module, attr), name, read)
               for module, attr, name, read in tracing.TARGETS if read]
    assert {name for _, name, _ in readers} == set(READ)
    for f, name, read in readers:
        call, attrs = READ[name]
        assert read(call(f)) == attrs, name


@pytest.mark.parametrize("tier, attr",
                         [("exact", "thermal_observables_batch"),
                          ("bruteforce", "brute_force_observables")])
def test_each_tier_reaches_its_traced_layer(monkeypatch, tier, attr):
    # the tracer counts a tier's points at the layer it wraps; a tier that
    # went around that layer would read 0 there. The exact tier's layer
    # takes a run of points, the bruteforce tier's one point
    from xxzent import exact, sweep
    calls = []
    real = getattr(exact, attr)

    def spy(arg):
        calls.extend(arg if isinstance(arg, list) else [arg])
        return real(arg)

    monkeypatch.setattr(exact, attr, spy)
    spec = sweep.SweepSpec(tier, ModelParams(n=6, T=0.2),
                           (sweep.GridAxis("b", 0.0, 1.0, 11),))
    points = sweep.run_sweep(spec)
    assert [pt.status for pt in points] == ["ok"] * 11
    assert calls == spec.points()
