"""Tests of the benchmark's own logic: span arithmetic and failure accounting."""

import json
import os

import pytest

import checks
import run
import tracing
import workloads
from tracing import Span, Tracer
from workloads import Job


def test_self_time_subtracts_union_of_children():
    parent = Span("p", 0.0, 10.0)
    # overlapping children count once; a child spilling past the parent is
    # clipped to it
    kids = [Span("c", 1.0, 3.0), Span("c", 2.0, 4.0), Span("c", 6.0, 7.0),
            Span("c", 9.5, 12.0)]
    assert tracing.self_time(parent, kids) == pytest.approx(10.0 - 4.5)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def _spans(*rows):
    """(name, start, end, parent, attrs) tuples -> spans."""
    return [Span(name, s, e, parent=p, attrs=dict(a or {}))
            for name, s, e, p, a in rows]


def test_layer_metrics_from_nested_spans():
    spans = _spans(
        ("sweep.limit_temperature", 0, 10, None, {"probes": 2}),
        ("sweep.evaluate_point", 0, 3, 0, {"status": "ok"}),
        ("cspa.cspa_moments", 0, 3, 1, None),
        ("cspa.cspa_logZ", 0, 1, 2, None),
        ("cspa.breakdown_temperature", 0.5, 1, 3, None),
        ("cspa.cspa_logZ", 1, 2, 2, None),
        ("quadrature.quad_gk", 1, 2, 5, {"neval": 30}),
        ("quadrature.quad_gk", 1.2, 1.5, 6, {"neval": 15}),
        ("sweep.evaluate_point", 3, 5, 0, {"status": "breakdown"}),
        ("cspa.cspa_moments", 3, 5, 8, {"raised": "BreakdownError"}),
        ("cspa.cspa_logZ", 3, 5, 9, {"raised": "BreakdownError"}),
        ("cspa.breakdown_temperature", 4, 5, 10, None),
        ("sweep.evaluate_point", 5, 6, 0, {"status": "error"}),
    )
    m = tracing.layer_metrics(spans)
    assert m["sweep.evaluate_point.calls"] == 3
    assert m["sweep.evaluate_point.busy_s"] == pytest.approx(6.0)
    assert m["sweep.evaluate_point.self_s"] == pytest.approx(1.0)
    assert m["sweep.limit_temperature.refine_points"] == 1
    assert (m["sweep.status.ok"], m["sweep.status.breakdown"],
            m["sweep.status.error"]) == (1, 1, 1)
    # the nested quad_gk call counts as a call but not twice as busy time
    assert m["quadrature.quad_gk.calls"] == 2
    assert m["quadrature.quad_gk.busy_s"] == pytest.approx(1.0)
    assert m["quadrature.quad_gk.neval"] == 45
    assert m["cspa.cspa_logZ.breakdowns"] == 1
    # only the cspa_moments call that finished counts its ln Z evaluations
    assert m["cspa.logZ_per_moments"] == 2
    assert m["cspa.breakdown_temperature.useful_frac"] == pytest.approx(0.5)
    assert m["cspa.cspa_logZ.self_s"] == pytest.approx(0.5 + 0.0 + 1.0)


def test_tracer_links_parents_and_records_raises():
    tracer = Tracer("run")

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda x: traced_inner(x))
    assert outer(1) == 1
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s.name, s.parent, s.attrs.get("raised")) for s in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, None),
                     ("outer", None, "ValueError"), ("inner", 2, "ValueError")]
    assert all(s.run == "run" and s.end >= s.start for s in tracer.spans)


def _point(status="ok", C=0.1, b=0.5):
    return {"tier": "exact", "n": 20, "gamma": 1.0, "b": b, "T": 0.1,
            "status": status, "logZ": 1.0, "Sz": -2.0, "Sz2": 5.0, "S2": 90.0,
            "C": C}


def test_call_that_raises_fails_every_point_it_covers():
    def boom():
        raise OverflowError("math range error")

    jobs = [Job("row", 7, boom, records=lambda r: r),
            Job("ok-row", 2, lambda: [_point(), _point("breakdown")],
                records=lambda r: r)]
    outcomes = [checks.run_call(j) for j in jobs]
    checks.collect_records(jobs, outcomes)
    assert outcomes[0].raised == "OverflowError"
    tally = checks.check_against_reference(
        outcomes, {"row": {"raised": "OverflowError"},
                   "ok-row": [_point(), _point("breakdown")]})
    assert (tally.attempted, tally.failed, tally.mismatched) == (9, 7, 0)
    assert tally.reasons == {"raised OverflowError": 7}


def test_error_status_and_reference_mismatch_count_as_failed():
    out = checks.JobOutcome("row", 3, records=[
        _point("error"), _point(C=0.1 + 1e-6), _point("not-applicable")])
    ref = [_point(), _point(), _point("not-applicable")]
    tally = checks.check_against_reference([out], {"row": ref})
    assert (tally.attempted, tally.failed, tally.mismatched) == (3, 2, 1)
    assert tally.reasons == {"status error": 1, "exact C off reference": 1}
    # a point that failed at the seed commit and now succeeds is only
    # checked for range
    assert checks.point_mismatch(_point(), _point("error")) is None
    assert checks.point_mismatch(_point(C=2.0), _point("error")) is not None


def test_oracle_pairs_bruteforce_with_exact():
    bf = checks.JobOutcome("bruteforce-n10", 2, records=[
        dict(_point(), tier="bruteforce"),
        dict(_point(C=0.1 + 1e-9), tier="bruteforce")])
    ex = checks.JobOutcome("exact-n10", 2, records=[_point(), _point()])
    tally = checks.check_oracle([bf, ex])
    assert (tally.attempted, tally.failed, tally.mismatched) == (4, 1, 1)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
