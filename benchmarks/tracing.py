"""Spans around the calls into each layer, installed from outside the program.

The traced run replaces a layer's public functions, at the name each caller
looks up, with wrappers that record a span per call: name, start, end,
parent span and run id, plus a few attributes read from the result.
Spans stay in memory and are written out when the run ends. The per-layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from xxzent import cmfa, cspa, exact, figures, sweep


def _status(point):
    return {"status": point.status}


def _probes(limit_result):
    return {"probes": limit_result.n_probes}


def _neval(quad_result):
    return {"neval": quad_result.neval}


# (module, attribute, span name, attributes read from the result).
# cspa binds quad_gk when it is imported, so that is the name to replace;
# figures._sweep_points imports sweep.evaluate_point at call time and
# sweep._scan_limit reads it as a module global; sweep and cspa_moments reach
# exact.*, cspa.* and cmfa.* as module attributes.
TARGETS = (
    (sweep, "evaluate_point", "sweep.evaluate_point", _status),
    (sweep, "limit_temperature", "sweep.limit_temperature", _probes),
    (figures, "limit_temperature", "sweep.limit_temperature", _probes),
    (figures, "reproduce_figure", "figures.reproduce_figure", None),
    (exact, "thermal_observables", "exact.thermal_observables", None),
    (exact, "ground_state_moments", "exact.ground_state", None),
    (exact, "ground_state_pair_state", "exact.ground_state", None),
    (exact, "brute_force_observables", "exact.brute_force", None),
    (exact, "brute_force_pair_density", "exact.brute_force", None),
    (cspa, "cspa_moments", "cspa.cspa_moments", None),
    (cspa, "cspa_logZ", "cspa.cspa_logZ", None),
    (cspa, "breakdown_temperature", "cspa.breakdown_temperature", None),
    (cspa, "quad_gk", "quadrature.quad_gk", _neval),
    (cmfa, "cmfa_moments", "cmfa.cmfa_moments", None),
    (cmfa, "gap_solve", "cmfa.gap_solve", None),
)

STATUSES = ("ok", "breakdown", "not-applicable", "error")

# per-layer metric -> unit, in report order
PER_LAYER = {
    "sweep.evaluate_point.calls": "count",
    "sweep.evaluate_point.busy_s": "s",
    "sweep.evaluate_point.self_s": "s",
    **{f"sweep.status.{s}": "count" for s in STATUSES},
    "sweep.limit_temperature.calls": "count",
    "sweep.limit_temperature.busy_s": "s",
    "sweep.limit_temperature.refine_points": "count",
    "figures.reproduce_figure.busy_s": "s",
    "figures.reproduce_figure.self_s": "s",
    "exact.thermal_observables.calls": "count",
    "exact.thermal_observables.busy_s": "s",
    "exact.ground_state.calls": "count",
    "exact.ground_state.busy_s": "s",
    "exact.ground_state.raised": "count",
    "exact.brute_force.diagonalizations": "count",
    "exact.brute_force.busy_s": "s",
    "cspa.cspa_moments.calls": "count",
    "cspa.cspa_moments.busy_s": "s",
    "cspa.cspa_logZ.calls": "count",
    "cspa.cspa_logZ.busy_s": "s",
    "cspa.cspa_logZ.self_s": "s",
    "cspa.cspa_logZ.breakdowns": "count",
    "cspa.logZ_per_moments": "count",
    "cspa.breakdown_temperature.calls": "count",
    "cspa.breakdown_temperature.busy_s": "s",
    "cspa.breakdown_temperature.useful_frac": "ratio",
    "quadrature.quad_gk.calls": "count",
    "quadrature.quad_gk.busy_s": "s",
    "quadrature.quad_gk.neval": "count",
    "cmfa.cmfa_moments.calls": "count",
    "cmfa.cmfa_moments.busy_s": "s",
    "cmfa.gap_solve.calls": "count",
    "cmfa.gap_solve.busy_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None     # index of the enclosing span
    run: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one tracer per workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, run=self.run_id,
                        parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(result))
            return result
        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextmanager
def installed(tracer: Tracer):
    """Replace each of TARGETS with its traced wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, name, attrs in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, attrs))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of it that its children cover."""
    covered = 0.0
    lo = hi = None
    for c in sorted(children, key=lambda s: s.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if hi is not None and a <= hi:
            hi = max(hi, b)
            continue
        if hi is not None:
            covered += hi - lo
        lo, hi = a, b
    if hi is not None:
        covered += hi - lo
    return span.duration - covered


def _nearest(spans, i, name):
    """Index of the closest enclosing span called ``name``, or None."""
    p = spans[i].parent
    while p is not None and spans[p].name != name:
        p = spans[p].parent
    return p


def layer_metrics(spans) -> dict:
    """The per-layer metrics of PER_LAYER (except the tracing overhead)."""
    children = [[] for _ in spans]
    by_name = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(s)
        by_name.setdefault(s.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def busy(name):   # nested calls of the same layer count once
        return sum(spans[i].duration for i in ids(name)
                   if _nearest(spans, i, name) is None)

    def self_s(name):
        return sum(self_time(spans[i], children[i]) for i in ids(name))

    def raised(name, exc=None):
        return sum(1 for i in ids(name) if spans[i].attrs.get("raised")
                   and exc in (None, spans[i].attrs["raised"]))

    def count_under(child, parent, keep=lambda i: True):
        """parent index -> number of ``child`` spans it encloses."""
        out = {i: 0 for i in ids(parent) if keep(i)}
        for i in ids(child):
            p = _nearest(spans, i, parent)
            if p in out:
                out[p] += 1
        return out

    ep, lt = "sweep.evaluate_point", "sweep.limit_temperature"
    m = {f"{ep}.calls": calls(ep), f"{ep}.busy_s": busy(ep),
         f"{ep}.self_s": self_s(ep)}
    for st in STATUSES:
        m[f"sweep.status.{st}"] = sum(
            1 for i in ids(ep) if spans[i].attrs.get("status") == st)
    probes = count_under(ep, lt)
    m[f"{lt}.calls"] = calls(lt)
    m[f"{lt}.busy_s"] = busy(lt)
    m[f"{lt}.refine_points"] = sum(
        k - spans[i].attrs.get("probes", k) for i, k in probes.items())
    fig = "figures.reproduce_figure"
    m[f"{fig}.busy_s"], m[f"{fig}.self_s"] = busy(fig), self_s(fig)
    for name in ("exact.thermal_observables", "exact.ground_state"):
        m[f"{name}.calls"], m[f"{name}.busy_s"] = calls(name), busy(name)
    m["exact.ground_state.raised"] = raised("exact.ground_state")
    m["exact.brute_force.diagonalizations"] = calls("exact.brute_force")
    m["exact.brute_force.busy_s"] = busy("exact.brute_force")
    cm, lz, bt = ("cspa.cspa_moments", "cspa.cspa_logZ",
                  "cspa.breakdown_temperature")
    m[f"{cm}.calls"], m[f"{cm}.busy_s"] = calls(cm), busy(cm)
    m[f"{lz}.calls"], m[f"{lz}.busy_s"] = calls(lz), busy(lz)
    m[f"{lz}.self_s"] = self_s(lz)
    m[f"{lz}.breakdowns"] = raised(lz, "BreakdownError")
    finished = count_under(lz, cm, keep=lambda i: "raised" not in spans[i].attrs)
    m["cspa.logZ_per_moments"] = (sum(finished.values()) / len(finished)
                                  if finished else 0.0)
    m[f"{bt}.calls"], m[f"{bt}.busy_s"] = calls(bt), busy(bt)
    useful = 0
    for i in ids(bt):
        p = _nearest(spans, i, lz)
        useful += p is not None and spans[p].attrs.get("raised") == \
            "BreakdownError"
    m[f"{bt}.useful_frac"] = useful / calls(bt) if calls(bt) else 0.0
    qg = "quadrature.quad_gk"
    m[f"{qg}.calls"], m[f"{qg}.busy_s"] = calls(qg), busy(qg)
    m[f"{qg}.neval"] = sum(spans[i].attrs.get("neval", 0) for i in ids(qg))
    for name in ("cmfa.cmfa_moments", "cmfa.gap_solve"):
        m[f"{name}.calls"], m[f"{name}.busy_s"] = calls(name), busy(name)
    return m
