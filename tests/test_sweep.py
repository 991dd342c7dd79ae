import json
from math import comb

import numpy as np
import pytest

from xxzent import exact
from xxzent.errors import DomainError
from xxzent.model import ModelParams
from xxzent.sweep import (CSV_COLUMNS, TIERS, GridAxis, SweepSpec,
                          evaluate_point, limit_field, limit_temperature,
                          points_to_csv, points_to_json, run_sweep)


def small_spec(tier="exact", **fixed):
    base = dict(n=8, v=1.0, gamma=1.0, b=0.0, T=0.2)
    base.update(fixed)
    return SweepSpec(tier=tier, fixed=ModelParams(**base),
                     axes=(GridAxis("b", 0.0, 1.0, 6),))


def test_grid_axis_validation():
    with pytest.raises(DomainError):
        GridAxis("x", 0, 1, 5)
    with pytest.raises(DomainError):
        GridAxis("b", 0, 1, 1)
    with pytest.raises(DomainError):
        GridAxis("b", 1, 0, 5)
    with pytest.raises(DomainError):
        GridAxis("T", 0, 1, 5, scale="log")
    assert len(GridAxis("T", 0.01, 1, 7, scale="log").values()) == 7


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(tier="nope", fixed=ModelParams(n=4, T=0.1),
                  axes=(GridAxis("b", 0, 1, 3),))
    with pytest.raises(DomainError):
        SweepSpec(tier="bruteforce", fixed=ModelParams(n=20, T=0.1),
                  axes=(GridAxis("b", 0, 1, 3),))
    with pytest.raises(DomainError):
        SweepSpec(tier="exact", fixed=ModelParams(n=4, T=0.1),
                  axes=(GridAxis("b", 0, 1, 3), GridAxis("b", 0, 1, 3)))


def test_sweep_deterministic_across_workers():
    spec = small_spec()
    csv_seq = points_to_csv(run_sweep(spec, workers=1))
    csv_par = points_to_csv(run_sweep(spec, workers=2))
    csv_seq2 = points_to_csv(run_sweep(spec, workers=1))
    assert csv_seq == csv_par == csv_seq2


def test_sweep_2d_ordering_row_major():
    spec = SweepSpec(tier="exact", fixed=ModelParams(n=6, T=0.2),
                     axes=(GridAxis("b", 0.0, 1.0, 2),
                           GridAxis("T", 0.1, 0.2, 2)))
    pts = run_sweep(spec)
    combos = [(pt.params.b, pt.params.T) for pt in pts]
    assert combos == [(0.0, 0.1), (0.0, 0.2), (1.0, 0.1), (1.0, 0.2)]


def test_csv_schema_and_missing_fields():
    pts = run_sweep(small_spec())
    csv = points_to_csv(pts)
    header = csv.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert "nan" not in csv.lower()
    # a failing tier point leaves C empty, status set: cmfa not-applicable
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.93, T=0.001)
    pt = evaluate_point("cmfa", p)
    assert pt.status == "not-applicable"
    row = points_to_csv([pt]).splitlines()[1].split(",")
    cols = dict(zip(CSV_COLUMNS, row))
    assert cols["C"] == "" and cols["status"] == "not-applicable"


def test_sweep_captures_per_point_failures():
    # cspa grid crossing the breakdown boundary: points fail, sweep survives
    spec = SweepSpec(tier="cspa", fixed=ModelParams(n=20, v=1.0, b=0.0, T=1.0),
                     axes=(GridAxis("T", 0.02, 0.3, 6, scale="log"),))
    pts = run_sweep(spec)
    statuses = {pt.status for pt in pts}
    assert "breakdown" in statuses and "ok" in statuses
    assert len(pts) == 6


def test_json_shape():
    spec = small_spec()
    pts = run_sweep(spec)
    doc = json.loads(points_to_json(pts, spec))
    assert doc["spec"]["tier"] == "exact"
    assert len(doc["points"]) == 6
    assert set(doc["points"][0]) == set(CSV_COLUMNS)


def test_limit_temperature_far_field_value():
    from xxzent.exact import far_field_limit_temperature
    res = limit_temperature("exact", ModelParams(n=20, v=1.0, gamma=1.0,
                                                 b=2.0, T=1.0))
    assert res.limit is not None
    assert res.limit == pytest.approx(far_field_limit_temperature(20, 1.0, 1.0),
                                      rel=0.05)


def test_limit_temperature_zero_marker():
    res = limit_temperature("cmfa", ModelParams(n=20, v=1.0, gamma=1.0,
                                                b=1.3, T=1.0))
    assert res.limit is None and res.intervals == ()


def test_limit_temperature_near_critical_scaling():
    # large n, b -> v: T_L ~ v - |b|
    res = limit_temperature("exact", ModelParams(n=2000, v=1.0, gamma=1.0,
                                                 b=0.97, T=1.0))
    assert res.limit == pytest.approx(0.03, rel=0.25)


def test_limit_temperature_cspa_reentry_interval():
    # b slightly above gamma v: entanglement reenters at T > 0 with an onset
    res = limit_temperature("cspa", ModelParams(n=20, v=1.0, gamma=1.0,
                                                b=1.1, T=1.0), probes=40,
                            epsrel=1e-9)
    assert len(res.intervals) == 1
    lo, hi = res.intervals[0]
    assert 0.01 < lo < 0.12          # genuine onset temperature
    assert hi == pytest.approx(res.limit)
    assert res.limit < 0.25


def test_limit_temperature_roots_below_tc():
    # for |b| < gamma v both exact and cmfa roots sit below T_c(b)
    from xxzent.cmfa import critical_temperature
    for b in (0.3, 0.6):
        p = ModelParams(n=40, v=1.0, gamma=1.0, b=b, T=1.0)
        tc = critical_temperature(p)
        for tier in ("exact", "cmfa"):
            res = limit_temperature(tier, p)
            assert res.limit is not None and res.limit < tc


def test_limit_field_t0_equals_bc():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.0)
    res = limit_field("exact", p, b_max=1.5)
    assert res.limit == pytest.approx(0.95, abs=1e-5)


def test_limit_field_bisects_an_edge_with_numpy_float_concurrence():
    # the exact tier's T > 0 C is a numpy float; a probe with
    # 0 < C <= ENTANGLED_EPS must still count as "not entangled", so the
    # edge after the last entangled probe (b ~ 3.661) is bisected
    res = limit_field("exact", ModelParams(n=20, T=0.1), b_max=6.0)
    assert res.limit == pytest.approx(3.7309, abs=1e-4)


def test_entangled_flag_is_a_python_bool_for_every_tier():
    p = ModelParams(n=8, v=1.0, gamma=0.5, b=0.2, T=0.1)
    for tier in TIERS:
        pt = evaluate_point(tier, p)
        assert pt.status == "ok", (tier, pt.message)
        assert type(pt.result.entangled) is bool, tier
    pt = evaluate_point("exact", p.replace(T=0.0))
    assert type(pt.result.entangled) is bool
    pair = exact.exact_pair_state(p)
    assert type(exact.concurrence(pair).entangled) is bool
    far = exact.large_field_expansion(p.replace(b=2.0, T=0.02))
    assert far.status == "ok" and type(far.entangled) is bool


def test_limit_field_small_T_tightens_to_bc():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=1e-4)
    res = limit_field("exact", p, b_max=1.5)
    assert res.limit == pytest.approx(0.95, abs=0.01)


def test_limit_field_cmfa_above_tc_marker():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.6)
    res = limit_field("cmfa", p, b_max=1.5)
    assert res.limit is None and res.intervals == ()


def test_curve_point_wall_time_not_in_output():
    pts = run_sweep(small_spec())
    assert "wall" not in points_to_csv(pts).lower()
    assert all(pt.wall_time >= 0 for pt in pts)


def test_field_symmetry_every_tier():
    # C(b) = C(-b) for every tier that answers at the probe point
    for tier, n, b, T in (("exact", 15, 0.4, 0.2), ("bruteforce", 6, 0.7, 0.3),
                          ("cmfa", 40, 0.5, 0.15), ("cspa", 20, 0.6, 0.2),
                          ("spa", 20, 0.6, 0.2), ("mfa", 20, 0.5, 0.15)):
        cs = []
        for sign in (1.0, -1.0):
            p = ModelParams(n=n, v=1.0, gamma=1.0, b=sign * b, T=T)
            pt = evaluate_point(tier, p, epsrel=1e-9)
            assert pt.status == "ok", (tier, pt.message)
            cs.append(pt.result.concurrence)
        assert cs[0] == pytest.approx(cs[1], abs=1e-9)


def test_ground_state_path_odd_n():
    # odd n: half-integer sectors, b = 0 sits exactly on the M = +-1/2 crossing
    from xxzent.model import crossing_fields
    p = ModelParams(n=7, v=1.0, gamma=1.0, b=0.0, T=0.0)
    assert 0.0 in [round(x, 12) for x in crossing_fields(p).fields]
    pt = evaluate_point("exact", p)
    assert pt.status == "ok"
    assert pt.moments.sz == pytest.approx(0.0)
    assert pt.moments.sz2 - pt.moments.sz ** 2 == pytest.approx(0.25)
    assert 7 * pt.result.concurrence == pytest.approx(1.0, abs=1e-12)


def test_ground_state_point_scans_the_levels_once(monkeypatch):
    # moments and pair state of a T = 0 exact point come from one pass over
    # the ground levels, at a crossing field and between crossings
    levels = exact._ground_levels
    calls = []

    def counted(params):
        calls.append(params)
        return levels(params)

    monkeypatch.setattr(exact, "_ground_levels", counted)
    for b in (0.5, 0.5 + 1.0 / 20):
        calls.clear()
        pt = evaluate_point("exact", ModelParams(n=20, v=1.0, b=b, T=0.0))
        assert pt.status == "ok", pt.message
        assert len(calls) == 1


def test_exact_t0_large_n_matches_low_T_limit():
    # the T = 0 path scans only S = n/2, so n = 8810 works; b = 0.5 + 1/n
    # lies between crossings (one level), b = 0.5 is a crossing field
    # (two-level equal mixture with <S_z^2> - <S_z>^2 = 1/4)
    from xxzent.exact import concurrence, thermal_observables
    n = 8810
    for b, sz_var in ((0.5 + 1.0 / n, 0.0), (0.5, 0.25)):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.0)
        pt = evaluate_point("exact", p)
        assert pt.status == "ok", pt.message
        assert pt.moments.sz2 - pt.moments.sz ** 2 == pytest.approx(sz_var,
                                                                   abs=1e-9)
        _, pair = thermal_observables(p.replace(T=1e-6))
        assert pt.result.concurrence == pytest.approx(
            concurrence(pair).concurrence, abs=1e-12)


def test_any_exception_becomes_error_status(monkeypatch):
    from xxzent import exact

    def boom(params):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(exact, "thermal_observables", boom)
    pts = run_sweep(SweepSpec(tier="exact", fixed=ModelParams(n=8, T=0.2),
                              axes=(GridAxis("b", 0.0, 1.0, 3),)))
    assert [pt.status for pt in pts] == ["error"] * 3
    assert all(pt.message == "ZeroDivisionError: injected" for pt in pts)
    assert all(pt.moments is None and pt.result is None for pt in pts)


def test_bruteforce_point_diagonalizes_once(monkeypatch):
    # one eigh per S_z block, never the full 2^n matrix; the moments and the
    # partial-trace rho_2 share those eigh calls
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    pt = evaluate_point("bruteforce", ModelParams(n=6, v=1.0, b=0.3, T=0.2))
    assert pt.status == "ok"
    assert sorted(calls) == sorted((comb(6, k), comb(6, k)) for k in range(7))
    assert (64, 64) not in calls


def test_ok_points_respect_symmetric_state_bound():
    # every ok point has 0 <= C <= 2/n, whatever the tier
    for tier in ("exact", "bruteforce", "cmfa", "mfa"):
        spec = SweepSpec(tier=tier, fixed=ModelParams(n=10, v=1.0, T=0.15),
                         axes=(GridAxis("b", 0.0, 1.2, 7),))
        for pt in run_sweep(spec):
            if pt.status == "ok":
                assert 0.0 <= pt.result.concurrence <= 2.0 / 10 + 1e-12
    spec = SweepSpec(tier="cspa", fixed=ModelParams(n=20, v=1.0, T=0.2),
                     axes=(GridAxis("b", 0.0, 1.2, 5),))
    for pt in run_sweep(spec):
        if pt.status == "ok":
            assert 0.0 <= pt.result.concurrence <= 2.0 / 20 + 1e-12


def test_limit_scan_bands_around_undefined_probes(monkeypatch):
    # a synthetic C(b) on the probe grid b = 0, 1, ..., 10: undefined on
    # [3.5, 5.5) (probes 4 and 5) and on [7.4, 7.6), which holds the first
    # mid-point of the edge between probes 7 and 8; entangled on
    # [1.3, 3.5), [5.5, 7.4) and [9.25, 10]
    from xxzent import sweep
    calls = []

    def fake(tier, params, epsrel=1e-10):
        b = params.b
        calls.append(b)
        if 3.5 <= b < 5.5 or 7.4 <= b < 7.6:
            return sweep.CurvePoint(tier=tier, params=params,
                                    status="breakdown")
        C = 0.1 if 1.3 <= b < 3.5 or 5.5 <= b < 7.4 or b >= 9.25 else 0.0
        result = exact.ConcurrenceResult(concurrence=C, eof=0.0,
                                         entangled=C > 0)
        return sweep.CurvePoint(tier=tier, params=params, status="ok",
                                result=result)

    monkeypatch.setattr(sweep, "evaluate_point", fake)
    res = limit_field("exact", ModelParams(n=8, T=0.1), b_max=10.0,
                      probes=11)
    assert res.statuses == ("ok",) * 4 + ("undefined",) * 2 + ("ok",) * 5
    assert res.n_probes == 11
    (on1, end1), (on2, end2), (on3, end3) = res.intervals
    assert on1 == pytest.approx(1.3, abs=1e-6)   # bisected from a False probe
    assert end1 == 3.0                  # next probe undefined: no bisection
    assert on2 == 6.0                   # previous probe undefined
    assert end2 == pytest.approx(7.4, abs=1e-6)  # through an undefined mid
    assert on3 == pytest.approx(9.25, abs=1e-6)
    assert end3 is None                 # open at the top of the probe grid
    assert res.limit == end2
    # 11 probes, then 20 halvings of a unit bracket for each of three edges
    assert len(calls) == 11 + 3 * 20
    assert calls[:11] == [float(b) for b in range(11)]
    assert calls[11] == 1.5 and calls[31] == 7.5 and calls[51] == 9.5
