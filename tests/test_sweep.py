import json
from math import exp, inf, log, log2

import numpy as np
import pytest

from xxzent import exact, model
from xxzent.errors import DomainError, XxzentError
from xxzent.figures import POINT_EPSREL
from xxzent.model import ModelParams
from xxzent.quadrature import bracket_root
from xxzent.sweep import (CSV_COLUMNS, TIERS, GridAxis, SweepSpec,
                          evaluate_point, evaluate_run, limit_field,
                          limit_temperature, limit_temperatures,
                          points_to_csv, points_to_json, run_sweep)

from oracles.closed_forms import (far_field_limit_temperature,
                                  large_field_expansion)


def small_spec(tier="exact", **fixed):
    base = dict(n=8, v=1.0, gamma=1.0, b=0.0, T=0.2)
    base.update(fixed)
    return SweepSpec(tier=tier, fixed=ModelParams(**base),
                     axes=(GridAxis("b", 0.0, 1.0, 6),))


def test_grid_axis_validation():
    with pytest.raises(DomainError):
        GridAxis("x", 0, 1, 5)
    for count in (1, 1.5, -inf):
        with pytest.raises(DomainError, match="grid counts must be >= 2"):
            GridAxis("b", 0, 1, count)
    with pytest.raises(DomainError):
        GridAxis("b", 1, 0, 5)
    with pytest.raises(DomainError):
        GridAxis("T", 0, 1, 5, scale="log")
    assert len(GridAxis("T", 0.01, 1, 7, scale="log").values()) == 7


@pytest.mark.parametrize("count", [2.5, float("nan"), inf])
def test_grid_counts_must_be_integers(count):
    with pytest.raises(DomainError, match="grid counts must be integers"):
        GridAxis("b", 0.0, 1.0, count)
    with pytest.raises(DomainError, match="grid counts must be integers"):
        limit_temperature("exact", ModelParams(n=4, b=0.1), probes=count)


def test_integral_float_grid_count_is_an_int():
    axis = GridAxis("b", 0.0, 1.0, 3.0)
    assert axis.count == 3 and type(axis.count) is int
    spec = SweepSpec("exact", ModelParams(n=4, T=0.1), (axis,))
    assert [p.b for p in spec.points()] == [0.0, 0.5, 1.0]


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


def test_grid_and_spec_refusals():
    with pytest.raises(DomainError, match=r"^grid scale must be 'lin' or "
                       r"'log'$"):
        GridAxis("b", 0.0, 1.0, 3, scale="sqrt")
    with pytest.raises(DomainError, match=r"^at least one grid axis "
                       r"required$"):
        SweepSpec(tier="exact", fixed=ModelParams(n=4, T=0.1), axes=())


def test_sweep_deterministic_across_workers(monkeypatch):
    # 2 RUN_POINTS + 1 points are three runs, which a real pool of two
    # processes maps
    import concurrent.futures
    from xxzent import sweep
    mapped = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, f, jobs):
            jobs = list(jobs)
            mapped.append(len(jobs))
            return super().map(f, jobs)
    # sweep imports the pool class when a call asks for one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    for tier in ("exact", "cspa"):
        spec = SweepSpec(tier=tier, fixed=ModelParams(n=8, v=1.0, T=0.2),
                         axes=(GridAxis("b", 0.0, 1.0,
                                        2 * sweep.RUN_POINTS + 1),))
        csv_seq = points_to_csv(run_sweep(spec, workers=1))
        csv_par = points_to_csv(run_sweep(spec, workers=2))
        csv_seq2 = points_to_csv(run_sweep(spec, workers=1))
        assert csv_seq == csv_par == csv_seq2, tier
        assert ",ok\n" in csv_seq, tier
    assert mapped == [3, 3]


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


def _reference_row(pt):
    """A point's row as a dict, field by field: ln Z from the moments where
    the tier gave none and theirs is finite, C, nC and EoF on ok points."""
    p = pt.params
    r = {"tier": pt.tier, "n": p.n, "v": p.v, "gamma": p.gamma, "b": p.b,
         "T": p.T, "logZ": pt.logZ, "Sz": None, "Sz2": None, "S2": None,
         "C": None, "nC": None, "EoF": None, "status": pt.status}
    if pt.moments is not None:
        r["Sz"], r["Sz2"], r["S2"] = pt.moments.sz, pt.moments.sz2, \
            pt.moments.s2
        if pt.logZ is None and np.isfinite(pt.moments.logZ):
            r["logZ"] = pt.moments.logZ
    if pt.result is not None and pt.status == "ok":
        r["C"] = pt.result.concurrence
        r["nC"] = p.n * pt.result.concurrence
        r["EoF"] = pt.result.eof
    return r


def _reference_value(x):
    """The writers' cell value: a float (numpy ones too) as a float, None
    where it is missing or not finite, anything else as it is."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if np.isfinite(x) else None
    return x


def _reference_csv(points, columns=CSV_COLUMNS):
    lines = [",".join(columns)]
    for pt in points:
        row = {k: _reference_value(x) for k, x in _reference_row(pt).items()}
        lines.append(",".join("" if row[c] is None else str(row[c])
                              for c in columns))
    return "\n".join(lines) + "\n"


def _points_of_every_cell_kind():
    from xxzent.sweep import CurvePoint
    f32, f64 = np.float32, np.float64
    pts = [evaluate_point(tier, ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=T))
           for tier, b, T in (("exact", 0.3, 0.1), ("exact", 0.3, 0.0),
                              ("exact", 0.0, 0.0), ("cmfa", 0.3, 0.1),
                              ("cmfa", 1.3, 0.1), ("cmfa", 0.93, 0.001),
                              ("cspa", 0.0, 0.02), ("cspa", 0.5, 0.3),
                              ("spa", 0.5, 0.3), ("mfa", 0.3, 0.1),
                              ("bruteforce", 0.3, 0.1))]
    pts.append(evaluate_point("cspa", ModelParams(n=20, v=1.0, gamma=1.0,
                                                  b=0.5, T=1e-3)))
    odd = ModelParams(n=7, v=f64(1.5), gamma=f32(0.5), b=f32(-0.1),
                      T=f64(0.2))
    moments = exact.CollectiveMoments(sz=f32(0.25), sz2=f64(1.0 / 3.0),
                                      s2=np.nan, logZ=f32(-2.5))
    result = exact.ConcurrenceResult(concurrence=f64(0.125), eof=f32(0.0625),
                                     entangled=True)
    pts += [CurvePoint("exact", odd, "ok", moments, result),
            CurvePoint("exact", odd, "ok", moments, result, logZ=np.inf),
            CurvePoint("exact", odd, "error", moments, result,
                       message="refused"),
            CurvePoint("cspa", odd, "breakdown",
                       exact.CollectiveMoments(sz=np.inf, sz2=-np.inf,
                                               s2=f64(2.0), logZ=-np.inf),
                       result),
            CurvePoint("cmfa", odd, "ok", None,
                       exact.ConcurrenceResult(concurrence=np.nan, eof=np.inf,
                                               entangled=False),
                       logZ=f64(3.0)),
            CurvePoint("cmfa", odd, "not-applicable", None, None)]
    return pts


def test_point_files_hold_each_cell_by_the_one_rule():
    # every cell kind, in both writers: floats, numpy float64 and float32
    # ones, ints and strings; missing and non-finite cells (a NaN ln Z of
    # an exact T = 0 point included) empty in CSV and null in JSON; C, nC
    # and EoF on ok points only; the CLI's moments columns as well
    pts = _points_of_every_cell_kind()
    statuses = {pt.status for pt in pts}
    assert statuses == {"ok", "breakdown", "not-applicable", "error"}
    zero_T = pts[1]
    assert zero_T.status == "ok" and np.isnan(zero_T.moments.logZ)
    assert points_to_csv([zero_T]).splitlines()[1].split(",")[6] == ""
    assert points_to_csv(pts) == _reference_csv(pts)
    moments_only = tuple(c for c in CSV_COLUMNS if c not in ("C", "nC", "EoF"))
    assert points_to_csv(pts, columns=moments_only) == \
        _reference_csv(pts, moments_only)
    def bits(row):
        return {k: (type(x), float.hex(float(x)))
                if isinstance(x, (float, np.floating)) else x
                for k, x in row.items()}
    assert [bits(pt.row()) for pt in pts] == \
        [bits(_reference_row(pt)) for pt in pts]
    spec = small_spec()
    head = {"tier": "exact", "fixed": dict(n=8, v=1.0, gamma=1.0, b=0.0,
                                           T=0.2),
            "axes": [dict(name="b", lo=0.0, hi=1.0, count=6, scale="lin")],
            "outputs": list(CSV_COLUMNS)}
    rows = [{k: _reference_value(x) for k, x in _reference_row(pt).items()}
            for pt in pts]
    for s, h in ((spec, head), (None, {})):
        assert points_to_json(pts, s) == \
            json.dumps({"spec": h, "points": rows}, indent=1) + "\n"


def test_sweep_captures_per_point_failures():
    # cspa grid crossing the breakdown boundary: points fail, sweep survives
    spec = SweepSpec(tier="cspa", fixed=ModelParams(n=20, v=1.0, b=0.0, T=1.0),
                     axes=(GridAxis("T", 0.02, 0.3, 6, scale="log"),))
    pts = run_sweep(spec)
    statuses = {pt.status for pt in pts}
    assert "breakdown" in statuses and "ok" in statuses
    assert len(pts) == 6


def test_unknown_tier_is_an_error_at_every_point():
    p = ModelParams(n=8, v=1.0, gamma=1.0, b=0.0, T=0.2)
    pts = evaluate_run("nope", [p, p.replace(b=0.5)])
    assert [(pt.tier, pt.status, pt.message) for pt in pts] == \
        [("nope", "error", "unknown tier 'nope'")] * 2
    assert all(pt.moments is None and pt.result is None for pt in pts)


def test_json_shape():
    spec = small_spec()
    pts = run_sweep(spec)
    doc = json.loads(points_to_json(pts, spec))
    assert doc["spec"]["tier"] == "exact"
    assert len(doc["points"]) == 6
    assert set(doc["points"][0]) == set(CSV_COLUMNS)


def test_limit_temperature_far_field_value():
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
    pair = exact.thermal_observables(p)[1]
    assert type(exact.concurrence(pair).entangled) is bool
    far = large_field_expansion(p.replace(b=2.0, T=0.02))
    assert far is not None and type(far.entangled) is bool


def test_flag_margin_is_positive_exactly_at_entangled_points():
    # the limit scans read the flag off _flag_margin: on figure 2's points,
    # failed ones included, on the separable spa and mfa points and on
    # cmfa's normal phase (no margin), its sign is the entangled flag of an
    # ok point
    from xxzent import figures, sweep
    runs = []
    for curve in figures._figure_2()[2]:
        params = [curve.fixed.replace(**{curve.axis: float(x)})
                  for x in curve.values]
        runs += [(tier, params) for tier in (*curve.tiers, "spa", "mfa")]
    normal = [ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=T)
              for b in (0.0, 0.5) for T in (0.6, 0.8)]
    runs.append(("cmfa", normal))
    seen = set()
    for tier, params in runs:
        for pt in sweep.evaluate_points(tier, params, POINT_EPSREL):
            flag = pt.status == "ok" and pt.result.entangled
            assert (sweep._flag_margin(pt) > 0) == flag, (tier, pt.params)
            seen.add((tier, pt.status, flag,
                      pt.status == "ok" and pt.result.margin is None))
    assert {("exact", "ok", True, False), ("cspa", "ok", True, False),
            ("cspa", "breakdown", False, False),
            ("cspa", "error", False, False),
            ("cmfa", "ok", False, True), ("spa", "ok", False, True),
            ("mfa", "ok", False, True)} <= seen


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


def test_exact_tiny_T_gives_the_ground_state():
    # once beta |E| passes ~1e16 the window's closed-form peak and the
    # per-level log-weights differ by nats; the sums are then shifted by the
    # largest per-level log-weight, so C is the T = 0 one, not an error.
    # n = 8810, gamma = 1, b = 0.3 is a crossing field (two ground levels)
    checked = 0
    for n in (20, 101, 1000, 8810):
        for gamma in (1.0, 0.5, -0.5):
            for b in (0.3, 1.5):
                p0 = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=0.0)
                c0 = evaluate_point("exact", p0).result.concurrence
                for pt in evaluate_run("exact", [
                        p0.replace(T=T) for T in (1e-16, 1e-20, 1e-50,
                                                  1e-100, 1e-200, 1e-300)]):
                    assert pt.status == "ok", (pt.params, pt.message)
                    assert pt.result.concurrence == pytest.approx(c0,
                                                                  abs=1e-12)
                    checked += 1
    assert checked == 144


@pytest.mark.parametrize("n, b", [(20, 0.35), (8810, 0.3)])
def test_exact_tiny_T_at_a_crossing_field_is_the_equal_mixture(n, b):
    # at a crossing field the two ground columns' log-weights differ only by
    # beta times the rounding of their energies: summed as they stand,
    # <S_z> reads -3.731 at n = 20, T = 1e-16 and -1321.0 at n = 8810,
    # T <= 1e-14, instead of the equal mixture's -3.5 and -1321.5
    p0 = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.0)
    two_M = exact._ground_levels(p0)
    assert len(two_M) == 2
    E = exact._level_energy_2(p0, n, two_M[0])
    zero = evaluate_point("exact", p0)
    for T in (1e-12, 1e-13, 1e-14, 1e-16, 1e-50, 1e-300):
        pt = evaluate_point("exact", p0.replace(T=T))
        assert pt.status == "ok", pt.message
        m = pt.moments
        assert m.sz == zero.moments.sz
        assert m.sz2 - m.sz ** 2 == pytest.approx(0.25, abs=1e-9)
        assert pt.result.concurrence == pytest.approx(
            zero.result.concurrence, abs=1e-12)
        # ln Z = -beta E_ground + ln 2
        assert m.logZ == pytest.approx(-E / T + log(2.0), rel=1e-15)


def test_exact_tiny_T_next_to_a_crossing_field_is_thermal():
    # past the crossing at b = 0.35 (n = 20) by 1e-12 v at T = 1e-12 v, and
    # by 1e-11 v at 1e-11 v, beta Delta = 1: both points are the thermal
    # two-level state, M = -4 and -3 weighted 1 : e^-1, and read it to the
    # rounding of the field offset (1.5e-6); a route with the T = 0
    # tolerance 1e-12 max(v, |b|, 1) gave the first point the crossing's
    # equal mixture, <S_z> = -3.5 and Var(S_z) = 0.25. So does 5e-13 v at
    # 1e-12 v (beta Delta = 1/2)
    for db, T in ((1e-12, 1e-12), (1e-11, 1e-11), (5e-13, 1e-12)):
        m = evaluate_point("exact", ModelParams(n=20, v=1.0, gamma=1.0,
                                                b=0.35 + db, T=T)).moments
        p = 1.0 / (1.0 + exp(db / T))
        assert m.sz == pytest.approx(-4.0 + p, abs=1e-5)
        assert m.sz2 - m.sz ** 2 == pytest.approx(p * (1.0 - p), abs=1e-5)


@pytest.mark.parametrize("T", [1e-305, 1e-308])
def test_exact_T_past_the_float_range_is_refused(T):
    # at n = 8810 beta |E| overflows below T ~ 1.3e-304: the point is
    # refused before any pass, with no RuntimeWarning on the way (an error
    # under this suite)
    p = ModelParams(n=8810, v=1.0, gamma=1.0, b=0.3, T=T)
    with pytest.raises(DomainError, match=r"beta \|E\| overflows .*"
                       "T = 0 is the ground-state path"):
        exact.thermal_observables(p)
    pt = evaluate_point("exact", p)
    assert pt.status == "error" and "overflows" in pt.message
    assert evaluate_point("exact", p.replace(T=1e-300)).status == "ok"


def _pass_log(monkeypatch):
    """The points of each exact array pass (exact._thermal_pass) from here
    on, one list per pass."""
    passes = []
    real = exact._thermal_pass
    monkeypatch.setattr(exact, "_thermal_pass",
                        lambda points, first_round=None: passes.append(points)
                        or real(points, first_round))
    return passes


@pytest.mark.parametrize("n, T", [(8810, 1e-305), (1000, 1e-306)])
def test_exact_overflow_in_a_run_fails_alone(monkeypatch, n, T):
    # a point past the float range between two normal points of one run is
    # refused alone, before any pass, with no RuntimeWarning (an error under
    # this suite), and its neighbours keep their bytes; at either n the two
    # share one array pass: their estimated union, a bracket at the top
    # sector and a window of columns around the vertex of f, is well within
    # _PASS_SECTORS entries
    p = ModelParams(n=n, v=1.0, gamma=1.0, b=0.3, T=T)
    run = [p.replace(T=0.1), p, p.replace(T=1e-300)]
    passes = _pass_log(monkeypatch)
    pts = evaluate_run("exact", run)
    assert [pt.status for pt in pts] == ["ok", "error", "ok"]
    assert pts[1].message == (f"beta |E| overflows at T = {T:.6g}; "
                              "T = 0 is the ground-state path")
    assert len(passes) == 1
    assert all(p not in points for points in passes)
    assert [pts[k].row() for k in (0, 2)] == \
        [evaluate_point("exact", run[k]).row() for k in (0, 2)]


def _overflows(p):
    """The closed-form refusal rule of the exact tier at T > 0 point p."""
    h = p.n / 2.0
    return not np.isfinite(4.0 * p.beta * (
        p.V * h * (h + 1.0) + abs(p.E0) + abs(p.b) * h
        + abs(p.V * p.gamma) * h * h))


# the edge of the float range: every n, gamma and b at 52 T from 1e-295 to
# 1e-308, and the tiny |gamma| of the exotic grid, whose 1 / (2 V gamma)
# overflows at finite T; n = 10^6, whose points cost ~10 ms each, takes a
# subsample of either grid
_EDGE_T = np.logspace(-295, -308, 52).tolist()
_EDGE_GB = [(g, b) for g in (1.0, 0.5, 1e-3, 0.0, -0.5)
            for b in (0.0, 0.3, -1.5, 1e3)]
_EXOTIC_GB = [(g, b) for g in (1e-300, -1e-300, 1e-200, 1e-17, -1e-17,
                               5e-324, -1.0, 0.0)
              for b in (0.0, 1e-300, 0.3, -0.3, 1e6)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, pairs, Ts", [
    *(pytest.param(n, _EDGE_GB, _EDGE_T, id=f"edge-{n}")
      for n in (2, 3, 20, 127, 128, 1000, 8810)),
    pytest.param(10**6, _EDGE_GB[::5], _EDGE_T[::6], id="edge-1000000"),
    *(pytest.param(n, _EXOTIC_GB, [1e-5, 0.1, 10.0, 1e6], id=f"exotic-{n}")
      for n in (200, 1001)),
    pytest.param(10**6, _EXOTIC_GB[::8], [1e-5, 10.0], id="exotic-1000000"),
])
def test_exact_point_is_ok_or_refused_before_any_pass(monkeypatch, n, pairs,
                                                      Ts):
    # every point is ok or refused by the closed-form rule, with no warning
    # of any kind; a refused point reaches no pass, and every pass forms
    # finite sector peaks within the rule's bound, n ln 2 + that sum / 4
    passes, peaks = _pass_log(monkeypatch), []
    real_sectors = exact._live_sectors

    def live_sectors(points, first_round=None):
        sectors = real_sectors(points, first_round)
        peaks.extend(zip(points, sectors.peak.tolist()))
        return sectors

    monkeypatch.setattr(exact, "_live_sectors", live_sectors)
    refused = 0
    for gamma, b in pairs:
        passes.clear()
        run = [ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T) for T in Ts]
        pts = evaluate_run("exact", run)
        passed = [q for points in passes for q in points]
        for p, pt in zip(run, pts):
            if _overflows(p):
                assert pt.status == "error" and pt.message == (
                    f"beta |E| overflows at T = {p.T:.6g}; "
                    "T = 0 is the ground-state path")
                assert p not in passed
                refused += 1
            else:
                assert pt.status == "ok", (p, pt.message)
                assert passed.count(p) == 1
    h = n / 2.0
    for p, peak in peaks:
        bound = n * log(2.0) + (
            p.V * h * (h + 1.0) + abs(p.E0) + abs(p.b) * h
            + abs(p.V * p.gamma) * h * h) / p.T
        assert abs(peak) <= bound * (1.0 + 1e-12), (p, peak)
    # the edge grid reaches past the float range, the exotic one does not
    assert (refused > 0) == (Ts[-1] < 1e-300)


def test_any_exception_becomes_error_status(monkeypatch):
    from xxzent import exact, model

    calls = []

    def boom(points):
        calls.append(len(points))
        raise ZeroDivisionError("injected")

    # the exact tier sums the T > 0 points of a run in
    # thermal_observables_batch: an exception there is a defect of the
    # run's shared pass, which runs once, and every point of the run reads
    # error with a message that names it
    monkeypatch.setattr(exact, "thermal_observables_batch", boom)
    pts = run_sweep(SweepSpec(tier="exact", fixed=ModelParams(n=8, T=0.2),
                              axes=(GridAxis("b", 0.0, 1.0, 3),)))
    assert calls == [3]
    assert [pt.status for pt in pts] == ["error"] * 3
    assert all(pt.message == "RuntimeError: the run's shared pass raised "
               "ZeroDivisionError: injected" for pt in pts)
    assert all(pt.moments is None and pt.result is None for pt in pts)


def _count_eigh(monkeypatch):
    """The shapes np.linalg.eigh is called on, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


# the canonical pair-swap sectors (size, size) of n = 6 spins, one eigh
# each, in each S_z block with k <= 3 down spins (k = 0; 1; 2; 3): for each
# number |sigma| of odd pairs the sector with pair 0 odd and the one with
# pair 0 even, where |sigma| allows both; the pair permutations give the
# other sectors, and the spin flip the blocks with k > 3, without an eigh.
# Wootters' sqrt(rho_2) adds one 4 x 4 eigh per ok point; no sector has 4
# states, and none more than 7, the even sector of k = 3. At n = 5 every
# sector is canonical (two pairs)
SECTORS_6 = sorted([(1, 1),
                    (3, 3), (1, 1), (1, 1),
                    (6, 6), (2, 2), (2, 2), (1, 1), (1, 1),
                    (7, 7), (3, 3), (3, 3), (1, 1), (1, 1), (1, 1)])
SECTORS_5 = sorted([(1, 1), (3, 3), (1, 1), (1, 1), (5, 5), (2, 2), (2, 2),
                    (1, 1)])


def test_non_finite_values_are_an_error(monkeypatch):
    # a value a point carries must be finite; what is absent by design (the
    # margin of spa and mfa, ln Z at an exact T = 0 point) is not checked
    from xxzent import sweep
    nan = float("nan")
    p = ModelParams(n=8, v=1.0, b=0.3, T=0.2)
    good = exact.CollectiveMoments(sz=-1.0, sz2=2.0, s2=12.0, logZ=3.0)
    for outcome in ((good, nan, None), (good, 0.1, nan), (None, None, inf),
                    (exact.CollectiveMoments(sz=-1.0, sz2=nan, s2=12.0,
                                             logZ=3.0), None, None),
                    (exact.CollectiveMoments(sz=-1.0, sz2=2.0, s2=12.0),
                     0.1, None)):
        monkeypatch.setitem(sweep._EVALUATORS, "mfa",
                            lambda points, epsrel: [outcome])
        pt = evaluate_point("mfa", p)
        assert (pt.status, pt.message) == ("error", "non-finite result")
    monkeypatch.setitem(sweep._EVALUATORS, "mfa",
                        lambda points, epsrel: [(good, None, None)])
    assert evaluate_point("mfa", p).status == "ok"
    t0 = evaluate_point("exact", p.replace(T=0.0))
    assert t0.status == "ok" and np.isnan(t0.moments.logZ)


def test_bruteforce_point_diagonalizes_once(monkeypatch):
    # one eigh per canonical sector of the S_z blocks with k <= n // 2,
    # never a whole block (the largest has 20 states) or the full 2^n
    # matrix; the moments and the partial-trace rho_2 share those eigh
    # calls
    calls = _count_eigh(monkeypatch)
    pt = evaluate_point("bruteforce", ModelParams(n=6, v=1.0, b=0.3, T=0.2))
    assert pt.status == "ok"
    assert sorted(calls) == sorted(SECTORS_6 + [(4, 4)])
    assert max(c[-1] for c in calls) == 7


def test_bruteforce_run_diagonalizes_once(monkeypatch):
    # the blocks of F serve every point of a run, whatever v, gamma, b and T
    calls = _count_eigh(monkeypatch)
    points = [ModelParams(n=6, v=1.0, gamma=0.5, b=b, T=T)
              for b in (0.0, 0.3, 1.1) for T in (0.05, 0.4)]
    assert [pt.status for pt in evaluate_run("bruteforce", points)] == \
        ["ok"] * 6
    assert sorted(c for c in calls if c != (4, 4)) == SECTORS_6
    assert calls.count((4, 4)) == 6
    calls.clear()
    pt = evaluate_point("bruteforce", ModelParams(n=6, v=2.0, b=0.7, T=0.3))
    assert pt.status == "ok" and calls == [(4, 4)]


def test_bruteforce_sweep_diagonalizes_once(monkeypatch):
    # the rows of F are kept for the last n, so a sweep of three runs (8, 8
    # and 4 points) diagonalizes each block once; a new n builds its own
    calls = _count_eigh(monkeypatch)
    spec = SweepSpec("bruteforce", ModelParams(n=6, v=1.0, gamma=0.5, T=0.2),
                     (GridAxis("b", 0.0, 1.5, 20),))
    assert all(pt.status == "ok" for pt in run_sweep(spec))
    assert sorted(c for c in calls if c != (4, 4)) == SECTORS_6
    assert exact._flip_flop_rows.cache_info().misses == 1
    calls.clear()
    evaluate_point("bruteforce", ModelParams(n=5, v=1.0, T=0.2))
    evaluate_point("bruteforce", ModelParams(n=6, v=1.0, T=0.2))
    assert sorted(c for c in calls if c != (4, 4)) == sorted(
        SECTORS_5 + SECTORS_6)


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_bruteforce_point_bytes_do_not_depend_on_its_run(gamma):
    points = [ModelParams(n=7, v=1.0, gamma=gamma, b=b, T=T)
              for b, T in ((0.0, 0.03), (0.35, 0.1), (0.8, 0.5), (2.0, 1.5))]
    alone = [evaluate_point("bruteforce", p).row() for p in points]
    assert [pt.row() for pt in evaluate_run("bruteforce", points)] == alone
    assert all(row["status"] == "ok" for row in alone)


def _t0_outcome(tier, gamma):
    """(status, message) of every tier at T = 0: the exact tier answers,
    and the others refuse, cmfa at gamma <= 0 before it reads T."""
    if tier == "exact":
        return "ok", ""
    if tier in ("cspa", "spa"):
        return "error", "cspa_logZ requires T > 0"
    if tier == "cmfa" and gamma <= 0:
        return "not-applicable", "CMFA closed forms require gamma > 0"
    return "error", "beta undefined at T = 0"


def test_t0_refusal_matrix():
    # 216 points: the T = 0 contract of every tier, status and message
    seen = {}
    for tier in TIERS:
        for n in (2, 3, 20):
            for gamma in (-1.0, 0.0, 0.5, 1.0):
                for b in (0.0, 0.3, 1.0):
                    pt = evaluate_point(tier, ModelParams(
                        n=n, v=1.0, gamma=gamma, b=b, T=0.0))
                    seen[tier, n, gamma, b] = (pt.status, pt.message)
    assert len(seen) == 216
    assert seen == {key: _t0_outcome(key[0], key[2]) for key in seen}
    # at T > 0 the CMFA's normal-phase RPA mode vanishes at b = gamma v
    pt = evaluate_point("cmfa", ModelParams(n=20, gamma=1.0, b=1.0, T=1e-6))
    assert (pt.status, pt.message) == (
        "not-applicable", "normal-phase RPA mode not positive (at T_c?)")


def test_bruteforce_t0_point_refused_alone(monkeypatch):
    # the T = 0 point is refused before the pass, so its neighbours keep
    # their bytes and nothing is diagonalized again
    points = [ModelParams(n=6, v=1.0, b=b, T=T)
              for b, T in ((0.2, 0.1), (0.2, 0.0), (0.6, 0.3))]
    alone = [evaluate_point("bruteforce", points[k]).row() for k in (0, 2)]
    exact._flip_flop_rows.cache_clear()
    calls = _count_eigh(monkeypatch)
    run = evaluate_run("bruteforce", points)
    assert [pt.status for pt in run] == ["ok", "error", "ok"]
    assert run[1].message == "beta undefined at T = 0"
    assert [run[0].row(), run[2].row()] == alone
    assert sorted(c for c in calls if c != (4, 4)) == SECTORS_6


def test_bruteforce_non_constant_block_diagonal_raises(monkeypatch):
    # the oracle takes each block's diagonal out of the eigh only because
    # it is constant there; a diagonal that is not must raise
    site_sums = exact._site_sums

    def tilted(bits, i, j):
        sz, zz = site_sums(bits, i, j)
        zz[-1] += 0.25 * (zz.size > 1)
        return sz, zz

    monkeypatch.setattr(exact, "_site_sums", tilted)
    with pytest.raises(XxzentError, match="diagonal not constant"):
        exact.brute_force_observables(ModelParams(n=5, v=1.0, T=0.2))
    pt = evaluate_point("bruteforce", ModelParams(n=5, v=1.0, T=0.2))
    assert (pt.status, pt.message) == (
        "error", "diagonal not constant on the S_z block of 5 states")


def test_bruteforce_asymmetric_sector_matrix_raises(monkeypatch):
    # a projected F is symmetric only if F commutes with the pair swaps;
    # eigh reads one triangle, so a sector matrix that is not must raise
    bincount = np.bincount

    def skewed(x, weights=None, minlength=0):
        out = bincount(x, weights=weights, minlength=minlength)
        if out.size > 1:       # F[0, 1] of the first sector with m > 1
            out[1] += 0.5
        return out

    monkeypatch.setattr(np, "bincount", skewed)
    with pytest.raises(XxzentError, match="not symmetric"):
        exact.brute_force_observables(ModelParams(n=5, v=1.0, T=0.2))
    pt = evaluate_point("bruteforce", ModelParams(n=5, v=1.0, T=0.2))
    assert (pt.status, pt.message) == (
        "error", "flip-flop sum not symmetric on a pair-swap sector of 3 "
        "states")


def _dropping_one_state(monkeypatch, sector):
    """Keep the canonical sectors but the last state of ``sector`` (its odd
    pairs, as bits 2p) wherever the sector has more than one."""
    canonical = exact._canonical_sectors

    def short(sigma, ones):
        keep = canonical(sigma, ones)
        kept = np.flatnonzero(keep & (sigma == sector))
        if kept.size > 1:
            keep[kept[-1]] = False
        return keep

    monkeypatch.setattr(exact, "_canonical_sectors", short)


def test_bruteforce_unequal_sector_stack_raises(monkeypatch):
    # the two canonical sectors of one |sigma| are equal in size; a build
    # that makes them unequal by dropping a state must raise, not be
    # diagonalized short of that state. At n = 5, k = 2 the sector of pair 0
    # (bit 0) then has 1 state and that of pair 1 has 2: the dropped state,
    # sites 0 and 4 down, is reached by a flip of sites 3 and 4 from the
    # other state of its sector, so the flip check raises
    _dropping_one_state(monkeypatch, 1)
    with pytest.raises(XxzentError, match="leaves the canonical"):
        exact.brute_force_observables(ModelParams(n=5, v=1.0, T=0.2))
    pt = evaluate_point("bruteforce", ModelParams(n=5, v=1.0, T=0.2))
    assert (pt.status, pt.message) == (
        "error", "flip-flop sum leaves the canonical pair-swap sectors of "
        "the S_z block with 2 down spins")


def test_bruteforce_flip_out_of_the_kept_sectors_raises(monkeypatch):
    # every flip from a canonical sector lands in that sector; one that
    # lands on a state the build did not keep must raise, not index the
    # last row. At n = 5, k = 1 the even sector loses site 4 down, which a
    # flip of sites 1 and 4 reaches from site 1 down
    _dropping_one_state(monkeypatch, 0)
    with pytest.raises(XxzentError, match="leaves the canonical"):
        exact.brute_force_observables(ModelParams(n=5, v=1.0, T=0.2))
    pt = evaluate_point("bruteforce", ModelParams(n=5, v=1.0, T=0.2))
    assert (pt.status, pt.message) == (
        "error", "flip-flop sum leaves the canonical pair-swap sectors of "
        "the S_z block with 1 down spins")


def _lgamma_calls(monkeypatch):
    """The calls to model.lgamma from here on: ln Y(S) takes two a sector
    it maps, and one for lgamma(n + 1)."""
    calls = []
    real = model.lgamma
    monkeypatch.setattr(model, "lgamma", lambda x: calls.append(x) or real(x))
    return calls


def test_exact_T0_points_map_no_lgamma(monkeypatch):
    # T = 0 points take the ground-state path, which needs no ln Y(S)
    calls = _lgamma_calls(monkeypatch)
    spec = SweepSpec("exact", ModelParams(n=1000, v=1.0, T=0.0),
                     (GridAxis("b", 0.0, 1.5, 5),))
    assert all(pt.status == "ok" for pt in run_sweep(spec))
    assert calls == []


@pytest.mark.parametrize("n", [10**6, 10**8])
def test_exact_point_maps_lgamma_over_its_hull(monkeypatch, n):
    # ln Y(S) is mapped over the point's bracket alone, within a few
    # sectors of its hull of live sectors, whatever n: the full table took
    # n + 1 lgamma calls, 10^8 + 1 here
    p = ModelParams(n=n, v=1.0, gamma=1.0, b=0.3, T=0.1)
    live = exact._live_sectors([p]).live[0]
    hull = int(live.size - live[::-1].argmax() - live.argmax())
    calls = _lgamma_calls(monkeypatch)
    assert evaluate_point("exact", p).status == "ok"
    assert (len(calls) - 1) % 2 == 0
    assert hull <= (len(calls) - 1) // 2 <= hull + log2(n)


@pytest.mark.parametrize("gamma", [1.0, 0.5, -0.5])
def test_exact_point_bytes_do_not_depend_on_its_run(gamma):
    points = [ModelParams(n=101, v=1.0, gamma=gamma, b=b, T=T)
              for b, T in ((0.0, 0.03), (0.35, 0.0), (0.8, 0.5), (0.5, 0.0),
                           (2.0, 1.5), (0.6, 0.1))]
    alone = [evaluate_point("exact", p).row() for p in points]
    assert [pt.row() for pt in evaluate_run("exact", points)] == alone
    assert all(row["status"] == "ok" for row in alone)


def test_exact_failure_stays_with_its_point(monkeypatch):
    # a point whose outcome in the run's batch is an exception fails alone:
    # its neighbours, the T = 0 point among them, keep their bytes, and the
    # run is not retried point by point (which would bracket each point
    # again)
    points = [ModelParams(n=1000, v=1.0, b=b, T=T)
              for b, T in ((0.2, 0.1), (0.5, 0.1), (0.5, 0.0), (0.9, 0.2))]
    clean = evaluate_run("exact", points)
    real = exact.thermal_observables_batch
    runs = []

    def patched(run):
        runs.append(run)
        return [ZeroDivisionError("injected") if p == points[1] else out
                for p, out in zip(run, real(run))]

    monkeypatch.setattr(exact, "thermal_observables_batch", patched)
    hurt = evaluate_run("exact", points)
    assert runs == [points]
    assert [pt.status for pt in hurt] == ["ok", "error", "ok", "ok"]
    assert hurt[1].message == "ZeroDivisionError: injected"
    assert [hurt[k].row() for k in (0, 2, 3)] == \
        [clean[k].row() for k in (0, 2, 3)]


def test_exact_tier_takes_each_point_on_its_path():
    # T = 0 points take the ground-state path, T > 0 points the thermal
    # sum; thermal_observables itself answers T = 0 on the ground-state path
    for T, path in ((0.2, exact.thermal_observables),
                    (0.0, exact.ground_state_observables)):
        p = ModelParams(n=30, v=1.0, b=0.4, T=T)
        moments, pair = path(p)
        pt = evaluate_point("exact", p)
        assert pt.moments == moments
        assert pt.result.margin == exact.concurrence_margin(pair)
    assert exact.thermal_observables(p) == exact.ground_state_observables(p)
    assert np.isnan(exact.exact_moments(p).logZ)


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
    runs = []

    def fake_point(tier, params):
        b = params.b
        if 3.5 <= b < 5.5 or 7.4 <= b < 7.6:
            return sweep.CurvePoint(tier=tier, params=params,
                                    status="breakdown")
        C = 0.1 if 1.3 <= b < 3.5 or 5.5 <= b < 7.4 or b >= 9.25 else 0.0
        # a margin of +-inf gives the side only, so the edges are bisected
        result = exact.ConcurrenceResult(concurrence=C, eof=0.0,
                                         entangled=C > 0,
                                         margin=inf if C > 0 else -inf)
        return sweep.CurvePoint(tier=tier, params=params, status="ok",
                                result=result)

    def fake(tier, points, epsrel=1e-10):
        runs.append([p.b for p in points])
        return [fake_point(tier, p) for p in points]

    monkeypatch.setattr(sweep, "evaluate_run", fake)
    p = ModelParams(n=8, T=0.1)
    res = limit_field("exact", p, b_max=10.0, probes=11)
    assert res.statuses == ("ok",) * 4 + ("breakdown",) * 2 + ("ok",) * 5
    assert res.n_probes == 11
    (on1, end1), (on2, end2), (on3, end3) = res.intervals
    assert on1 == pytest.approx(1.3, abs=1e-6)   # bisected from a False probe
    assert end1 == 3.0                  # next probe undefined: no bisection
    assert on2 == 6.0                   # previous probe undefined
    assert end2 == pytest.approx(7.4, abs=1e-6)  # through an undefined mid
    assert on3 == pytest.approx(9.25, abs=1e-6)
    assert end3 is None                 # open at the top of the probe grid
    assert res.limit is None            # so the probes reach no last end
    # 11 probes in one run, then 20 halvings of a unit bracket for each of
    # three edges, stepped in lockstep: 20 runs of 3, one point an edge
    assert runs[0] == [float(b) for b in range(11)]
    assert [len(run) for run in runs[1:]] == [3] * 20
    assert runs[1] == [1.5, 7.5, 9.5]

    def margin(b):
        return sweep._flag_margin(fake_point("exact", p.replace(b=b)))
    # each edge is sent the points, in order, that it is sent refined alone
    for k, (lo, hi) in enumerate(((1.0, 2.0), (7.0, 8.0), (9.0, 10.0))):
        alone = []

        def g(b):
            alone.append(b)
            return margin(b)
        bracket_root(g, lo, margin(lo), hi, margin(hi), 1e-6)
        assert [run[k] for run in runs[1:]] == alone


def test_limit_edges_on_the_margin_match_a_fine_bisection(monkeypatch):
    # each refined edge against a 1e-12 bisection of the entangled flag
    # between the same two probes; exact and cmfa edges in few evaluations
    from xxzent import sweep
    calls = []
    evaluate_run = sweep.evaluate_run

    def counted(tier, points, epsrel=1e-10):
        calls.extend(p.T for p in points)
        return evaluate_run(tier, points, epsrel)

    monkeypatch.setattr(sweep, "evaluate_run", counted)
    for tier, n, b, probes, epsrel in (("exact", 1000, 0.3, 40, 1e-10),
                                       ("exact", 1000, 0.9, 40, 1e-10),
                                       ("cmfa", 1000, 0.3, 40, 1e-10),
                                       ("cmfa", 1000, 0.9, 40, 1e-10),
                                       ("cspa", 20, 1.15, 28, 1e-8)):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.1)
        calls.clear()
        res = limit_temperature(tier, p, probes=probes, epsrel=epsrel)
        grid, refined = calls[:probes], len(calls) - probes
        assert type(res.limit) is float
        edges = [x for iv in res.intervals for x in iv if x not in grid]
        assert edges and all(type(x) is float for x in edges)
        if tier != "cspa":
            assert len(edges) == 1 and refined <= 8, (tier, b, refined)

        def entangled(T):
            return sweep._flag_margin(
                evaluate_run(tier, [p.replace(T=T)], epsrel)[0]) > 0
        for x in edges:
            i = int(np.searchsorted(grid, x))
            lo, hi = grid[i - 1], grid[i]
            side = entangled(lo)
            while hi - lo >= 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if entangled(mid) == side else (lo, mid)
            assert abs(x - 0.5 * (lo + hi)) <= 5e-7, (tier, b, x, lo)


def _per_edge_scan(tier, params, axis, epsrel):
    """The scan loop that lockstep refinement replaced, as the reference:
    the probes in one list, then each band edge refined alone by
    bracket_root, one evaluate_point a step. (intervals, statuses)."""
    from itertools import groupby
    from xxzent import sweep
    grid = axis.values()
    probes = sweep.evaluate_points(
        tier, [params.replace(**{axis.name: float(x)}) for x in grid], epsrel)

    def g(x):
        return sweep._flag_margin(evaluate_point(
            tier, params.replace(**{axis.name: x}), epsrel))

    def edge(i, k):
        if probes[k].status != "ok":
            return float(grid[i])
        (lo, g_lo), (hi, g_hi) = sorted(
            (float(grid[j]), sweep._flag_margin(probes[j])) for j in (i, k))
        return bracket_root(g, lo, g_lo, hi, g_hi, 1e-6 * params.v)

    intervals = []
    for entangled, run in groupby(range(len(grid)),
                                  key=lambda i: sweep._flag_margin(
                                      probes[i]) > 0):
        if entangled:
            run = list(run)
            i, j = run[0], run[-1]
            intervals.append((edge(i, i - 1) if i > 0 else float(grid[i]),
                              edge(j, j + 1) if j < len(grid) - 1 else None))
    return intervals, tuple(pt.status for pt in probes)


def _hex(intervals):
    return [tuple(None if x is None else x.hex() for x in iv)
            for iv in intervals]


# the nine scans of the benchmark's limit-scan workload at its nominal
# fields, then the reentrant cspa scan at n = 100, b = 1.0: two bands, four
# edges, the inner two on the probes next to an undefined gap; last the
# same scan to t_max = 0.02, where the upper band is open (no end, no
# limit). (tier, n, b, probes, epsrel, t_max)
LIMIT_SCANS = [(tier, n, b, probes, epsrel, 1.0)
               for tier, n, probes, epsrel in (("exact", 1000, 40, 1e-10),
                                               ("cmfa", 1000, 40, 1e-10),
                                               ("cspa", 20, 28, 1e-8))
               for b in (0.3, 0.9, 1.15)]
LIMIT_SCANS += [("cspa", 100, 1.0, 40, 1e-8, 1.0),
                ("cspa", 100, 1.0, 40, 1e-10, 0.02)]


@pytest.mark.parametrize("tier, n, b, probes, epsrel, t_max", LIMIT_SCANS)
def test_lockstep_scan_is_the_per_edge_loop(tier, n, b, probes, epsrel,
                                            t_max):
    p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.1)
    res = limit_temperature(tier, p, t_max=t_max, probes=probes,
                            epsrel=epsrel)
    axis = GridAxis("T", 1e-3, t_max, probes, "log")
    intervals, statuses = _per_edge_scan(tier, p, axis, epsrel)
    assert _hex(res.intervals) == _hex(intervals)
    assert res.statuses == statuses
    assert res.limit == (intervals[-1][1] if intervals else None)
    if n == 100:
        probed = [x in axis.values() for iv in intervals for x in iv]
        assert probed == [False, True, True, False]
        assert (res.limit is None) == (t_max < 1.0)


@pytest.mark.parametrize("tier, n, b_values, probes, epsrel", [
    ("cspa", 20, np.linspace(0.05, 1.3, 12), 28, 1e-8),
    ("exact", 100, np.linspace(0.02, 1.35, 20), 40, 1e-10)])
def test_lockstep_figure_group_is_the_per_edge_loop(tier, n, b_values,
                                                    probes, epsrel):
    # a figure-4 group: its b values in one scan, every edge in lockstep
    fixed = [ModelParams(n=n, v=1.0, gamma=1.0, b=float(b), T=0.1)
             for b in b_values]
    results = limit_temperatures(tier, fixed, probes=probes, epsrel=epsrel)
    axis = GridAxis("T", 1e-3, 1.0, probes, "log")
    for p, res in zip(fixed, results, strict=True):
        intervals, statuses = _per_edge_scan(tier, p, axis, epsrel)
        assert _hex(res.intervals) == _hex(intervals), p.b
        assert res.statuses == statuses
    assert sum(len(res.intervals) for res in results) > len(fixed) // 2


def _synthetic_field_scan(monkeypatch, undefined, entangled):
    """limit_field over the probes b = 0, 1, ..., 10 of a synthetic C(b):
    breakdown where ``undefined(b)``, margin 0.1 where ``entangled(b)`` and
    -0.1 elsewhere. (result, the per-edge loop's intervals, the b values of
    each run the scan evaluates)."""
    from xxzent import sweep
    runs = []

    def fake(tier, points, epsrel=1e-10):
        runs.append([p.b for p in points])
        return [sweep.CurvePoint(tier=tier, params=p, status="breakdown")
                if undefined(p.b) else
                sweep.CurvePoint(tier=tier, params=p, status="ok",
                                 result=exact.concurrence_from_margin(
                                     0.1 if entangled(p.b) else -0.1))
                for p in points]

    monkeypatch.setattr(sweep, "evaluate_run", fake)
    p = ModelParams(n=8, T=0.1)
    res = limit_field("exact", p, b_max=10.0, probes=11)
    scan = runs[:]
    intervals, statuses = _per_edge_scan("exact", p,
                                         GridAxis("b", 0.0, 10.0, 11), 1e-10)
    assert res.statuses == statuses
    assert res.limit == (intervals[-1][1] if intervals else None)
    return res, intervals, scan


def test_band_from_the_first_probe_has_its_onset_there(monkeypatch):
    res, intervals, runs = _synthetic_field_scan(
        monkeypatch, lambda b: False, lambda b: b < 2.5)
    ((onset, end),) = res.intervals
    assert onset == 0.0 and type(onset) is float
    assert end == pytest.approx(2.5, abs=1e-6) and res.limit == end
    assert _hex(res.intervals) == _hex(intervals)
    # the onset evaluates nothing: one point a round, all for the end
    assert all(len(run) == 1 and 2.0 < run[0] < 3.0 for run in runs[1:])
    assert len(runs) > 2


def test_band_between_undefined_probes_stays_on_its_probes(monkeypatch):
    res, intervals, runs = _synthetic_field_scan(
        monkeypatch, lambda b: b in (3.0, 7.0), lambda b: 4.0 <= b < 7.0)
    assert res.intervals == ((4.0, 6.0),) and res.limit == 6.0
    assert _hex(res.intervals) == _hex(intervals)
    assert runs == [[float(b) for b in range(11)]]    # the probes alone


def test_one_probe_band_at_the_top_is_open(monkeypatch):
    res, intervals, runs = _synthetic_field_scan(
        monkeypatch, lambda b: False, lambda b: b >= 9.6)
    ((onset, end),) = res.intervals
    assert onset == pytest.approx(9.6, abs=1e-6)
    assert end is None and res.limit is None
    assert _hex(res.intervals) == _hex(intervals)
    assert all(len(run) == 1 and 9.0 < run[0] < 10.0 for run in runs[1:])


def test_field_scan_of_one_open_band_refines_nothing(monkeypatch):
    # exact at n = 20, T = 0.1 is entangled on every probe of b in
    # [0, 0.5]: both edges stay on the grid's ends, so the probes are the
    # one run, and the band is open at the top
    from xxzent import sweep
    runs = []
    real = sweep.evaluate_run

    def counted(tier, points, epsrel=1e-10):
        runs.append(len(points))
        return real(tier, points, epsrel)

    monkeypatch.setattr(sweep, "evaluate_run", counted)
    p = ModelParams(n=20, T=0.1)
    res = limit_field("exact", p, b_max=0.5, probes=20)
    assert res.intervals == ((0.0, None),) and res.limit is None
    assert runs == [20]
    intervals, _ = _per_edge_scan("exact", p, GridAxis("b", 0.0, 0.5, 20),
                                  1e-10)
    assert _hex(res.intervals) == _hex(intervals)


def test_limit_temperatures_needs_one_n_v_gamma():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.3, T=0.1)
    for fixed in ([], [p, p.replace(n=21)], [p, p.replace(v=2.0)],
                  [p, p.replace(gamma=0.5)]):
        with pytest.raises(DomainError):
            limit_temperatures("exact", fixed)


def test_lockstep_run_counts(monkeypatch):
    # limit-scan's nine scans: the cspa scans' 107 points take 20 runs, the
    # reentrant scan's two edges sharing theirs; the exact and cmfa scans
    # refine one edge each, a run a point
    from xxzent import sweep
    counts = {}
    real = sweep.evaluate_run

    def counted(tier, points, epsrel=1e-10):
        runs, pts = counts.get(tier, (0, 0))
        counts[tier] = (runs + 1, pts + len(points))
        return real(tier, points, epsrel)
    monkeypatch.setattr(sweep, "evaluate_run", counted)
    for tier, n, b, probes, epsrel, _ in LIMIT_SCANS[:9]:
        limit_temperature(tier, ModelParams(n=n, v=1.0, gamma=1.0, b=b,
                                            T=0.1), probes=probes,
                          epsrel=epsrel)
    assert counts == {"exact": (15, 132), "cmfa": (15, 132),
                      "cspa": (20, 107)}


@pytest.mark.parametrize("failure", ["error", "breakdown"])
def test_failure_in_a_shared_refinement_run_stays_with_its_point(
        monkeypatch, failure):
    # cspa at n = 20, b = 1.15: the band's onset and end share each
    # refinement run. A failure injected at the onset's point of the first
    # shared run (the QuadratureError of a failed row, or a breakdown
    # outcome) fails that point alone: the end stays the clean one, and the
    # onset is the one the per-edge loop finds with the same failure
    from xxzent import sweep
    from xxzent.errors import BreakdownError, QuadratureError
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=1.15, T=0.1)
    axis = GridAxis("T", 1e-3, 1.0, 28, "log")
    runs = []
    real_run = sweep.evaluate_run

    def recorded(tier, points, epsrel=1e-10):
        out = real_run(tier, points, epsrel)
        runs.append([(q.T, pt.status) for q, pt in zip(points, out)])
        return out
    monkeypatch.setattr(sweep, "evaluate_run", recorded)
    clean = limit_temperature("cspa", p, probes=28, epsrel=1e-8)
    (target, onset_status), (end_x, end_status) = runs[1]
    assert onset_status == end_status == "ok"
    real = sweep._EVALUATORS["cspa"]

    def injected(points, epsrel):
        fail = QuadratureError if failure == "error" else BreakdownError
        return [fail("injected") if q.T == target else out
                for q, out in zip(points, real(points, epsrel))]
    monkeypatch.setitem(sweep._EVALUATORS, "cspa", injected)
    runs.clear()
    hurt = limit_temperature("cspa", p, probes=28, epsrel=1e-8)
    assert runs[1] == [(target, failure), (end_x, "ok")]
    (on, end), = hurt.intervals
    assert end.hex() == clean.intervals[0][1].hex()
    assert on.hex() != clean.intervals[0][0].hex()
    intervals, _ = _per_edge_scan("cspa", p, axis, 1e-8)
    assert _hex(hurt.intervals) == _hex(intervals)


# figure 2's b = 0.5 T-row (19 ok, 7 breakdown, 4 error in the cspa tier)
# and its T = 0.1 b-row
FIG2_ROWS = ((ModelParams(n=20, v=1.0, b=0.5), GridAxis("T", 0.02, 0.8, 30,
                                                        "log")),
             (ModelParams(n=20, v=1.0, T=0.1), GridAxis("b", 0.0, 1.3, 40)))


@pytest.mark.parametrize("tier", ["cspa", "spa"])
def test_runs_change_nothing_per_point(tier):
    # a point's bytes are the same alone, in a run and under two workers
    from xxzent.figures import POINT_EPSREL
    from xxzent.sweep import evaluate_points
    for fixed, axis in FIG2_ROWS:
        spec = SweepSpec(tier=tier, fixed=fixed, axes=(axis,))
        points = spec.points()
        # rows are refined at 1e-11, and not at the other two
        for epsrel in (POINT_EPSREL, 1e-10, 1e-11):
            text = points_to_csv(evaluate_points(tier, points, epsrel))
            assert text == points_to_csv(
                [evaluate_point(tier, p, epsrel) for p in points])
            assert text == points_to_csv(
                evaluate_points(tier, points, epsrel, workers=2))
    fixed, axis = FIG2_ROWS[0]
    points = SweepSpec("cspa", fixed, (axis,)).points()
    statuses = [pt.status for pt in evaluate_points("cspa", points,
                                                    POINT_EPSREL)]
    assert [statuses.count(s) for s in ("ok", "breakdown", "error")] == \
        [19, 7, 4]


@pytest.mark.parametrize("epsrel", [POINT_EPSREL, 1e-11])
def test_pass_size_changes_no_point(monkeypatch, epsrel):
    # a point's bytes do not depend on the size of the pass it is in: runs
    # of 1, 8 or 40 points at gamma = 1 (figure 2's rows; at epsrel = 1e-11
    # rows are refined), radial batches of 1, 15 or 45 z nodes at gamma < 1
    # (the benchmark's two n = 100 points)
    from xxzent import cspa, sweep
    from xxzent.sweep import evaluate_points
    points = [p for fixed, axis in FIG2_ROWS
              for p in SweepSpec("cspa", fixed, (axis,)).points()]
    points += [ModelParams(n=100, v=1.0, gamma=0.5, b=b, T=0.25)
               for b in (0.05, 0.5)]
    texts = set()
    for run, batch in ((1, 1), (8, 15), (40, 45)):
        monkeypatch.setattr(sweep, "RUN_POINTS", run)
        monkeypatch.setattr(cspa, "_Z_BATCH", batch)
        texts.add(tuple(points_to_csv(evaluate_points(tier, points, epsrel))
                        for tier in ("cspa", "spa")))
    assert len(texts) == 1


# the runs of the exact-large-n benchmark at its nominal grid: b-rows at
# n = 8810 and 1000 (T = 0.1), a T-row at n = 8810 (b = 0.5, T up to 0.6)
# and a T = 0 row
_LARGE_N_RUNS = [
    *(SweepSpec("exact", ModelParams(n=n, v=1.0, T=0.1),
                (GridAxis("b", 0.0, 1.05, count),)).points()
      for n, count in ((8810, 4), (1000, 16))),
    SweepSpec("exact", ModelParams(n=8810, v=1.0, b=0.5, T=0.1),
              (GridAxis("T", 0.01, 0.6, 5, "log"),)).points(),
    SweepSpec("exact", ModelParams(n=8810, v=1.0, T=0.0),
              (GridAxis("b", 0.0, 1.05, 2),)).points()]
# figure 3's exact row at n = 8810, one run
_FIG3_8810 = [ModelParams(n=8810, v=1.0, b=float(b), T=0.1)
              for b in np.linspace(0.0, 1.05, 36)]


def test_exact_pass_size_changes_no_point(monkeypatch):
    # a point's bytes do not depend on the run or the array pass it is in:
    # runs of 1, 8 or 40 points, passes of one point (_PASS_SECTORS = 1)
    # and passes planned within 2048, 8192 (the default) or 16384 entries,
    # on figure 2's rows, the exact-large-n benchmark's rows, figure 3's
    # n = 8810 b-row, a 40-probe log-T grid at n = 1000, and a run that
    # mixes T = 0, a point on the T -> 0 branch (T = 1e-13 at a crossing
    # field), odd n and gamma <= 0
    from xxzent import sweep
    from xxzent.sweep import evaluate_points
    points = [p for fixed, axis in FIG2_ROWS
              for p in SweepSpec("exact", fixed, (axis,)).points()]
    points += [p for run in _LARGE_N_RUNS for p in run]
    points += _FIG3_8810
    points += [ModelParams(n=1000, v=1.0, b=0.3, T=float(T))
               for T in np.geomspace(1e-3, 1.0, 40)]
    points += [ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=T)
               for b, T in ((0.35, 1e-13), (0.35, 0.0), (0.2, 0.1),
                            (0.35, 1e-13), (0.6, 0.0), (0.9, 2.0))]
    points += [ModelParams(n=21, v=1.0, gamma=gamma, b=b, T=T)
               for gamma in (0.0, -0.5)
               for b, T in ((0.0, 0.05), (0.3, 0.0), (1.2, 0.4), (-0.7, 1.0))]
    passes = _pass_log(monkeypatch)
    texts = set()
    for run, cells in ((1, 1), (40, 1), (8, 2048), (40, 8192), (40, 16384)):
        monkeypatch.setattr(sweep, "RUN_POINTS", run)
        monkeypatch.setattr(exact, "_PASS_SECTORS", cells)
        passes.clear()
        pts = evaluate_points("exact", points)
        texts.add(points_to_csv(pts))
        assert (max(map(len, passes)) == 1) == (cells == 1)
    assert len(texts) == 1
    statuses = [pt.status for pt in pts]
    assert statuses.count("ok") == len(points)
    # the T -> 0 branch ran: the crossing's equal mixture, Var(S_z) = 1/4
    m = pts[points.index(ModelParams(n=20, v=1.0, b=0.35, T=1e-13))].moments
    assert m.sz2 - m.sz ** 2 == pytest.approx(0.25, abs=1e-9)


def test_exact_passes_are_sized_by_their_estimated_union(monkeypatch):
    # a run's points share an array pass while their count times the
    # columns of their estimated union stays within _PASS_SECTORS: the
    # exact-large-n runs take 5 passes and figure 3's n = 8810 row 6 (a
    # pass a point would take 10 and 36). Each pass of more than one point
    # allocates at most _PASS_SECTORS entries, and ln Y takes no more
    # lgamma calls than a pass a point would, 3186
    passes, entries = _pass_log(monkeypatch), []
    real = exact._live_sectors

    def live_sectors(points, first_round=None):
        sectors = real(points, first_round)
        entries.append((len(points), len(points) * sectors.j.size))
        return sectors

    monkeypatch.setattr(exact, "_live_sectors", live_sectors)
    calls = _lgamma_calls(monkeypatch)
    for run in _LARGE_N_RUNS:
        assert all(pt.status == "ok" for pt in evaluate_run("exact", run))
    assert [len(points) for points in passes] == [2, 2, 16, 4, 1]
    assert len(calls) <= 3186
    passes.clear()
    assert all(pt.status == "ok" for pt in evaluate_run("exact", _FIG3_8810))
    assert [len(points) for points in passes] == [7, 6, 6, 6, 6, 5]
    assert len(entries) == 11
    assert all(size <= exact._PASS_SECTORS for k, size in entries if k > 1)


def test_no_shared_pass_raises(monkeypatch):
    # an exception that escapes an evaluator is a defect that fails every
    # point of its run. Every evaluator is wrapped, and none raises on
    # figure 2's rows (exact, cspa and spa), the exact-large-n runs, figure
    # 3's n = 8810 row or the benchmark's two n = 100 points at gamma = 0.5
    # (cspa and spa)
    from xxzent import sweep
    from xxzent.sweep import evaluate_points
    raised = []
    for tier, evaluator in list(sweep._EVALUATORS.items()):
        def wrapped(points, epsrel, tier=tier, evaluator=evaluator):
            try:
                return evaluator(points, epsrel)
            except Exception as err:
                raised.append((tier, len(points), repr(err)))
                raise
        monkeypatch.setitem(sweep._EVALUATORS, tier, wrapped)
    runs = [(tier, SweepSpec(tier, fixed, (axis,)).points(), POINT_EPSREL)
            for tier in ("exact", "cspa", "spa") for fixed, axis in FIG2_ROWS]
    runs += [("exact", run, 1e-10) for run in (*_LARGE_N_RUNS, _FIG3_8810)]
    runs += [(tier, [ModelParams(n=100, v=1.0, gamma=0.5, b=b, T=0.25)
                     for b in (0.05, 0.5)], 1e-10) for tier in ("cspa", "spa")]
    for tier, points, epsrel in runs:
        evaluate_points(tier, points, epsrel)
    assert raised == []


def test_mixed_list_gives_the_rows_of_separate_calls():
    # runs never mix n or gamma: one list gives the rows of one call per part
    from xxzent.sweep import evaluate_points
    parts = [[ModelParams(n=20, v=1.0, b=b, T=0.25) for b in (0.1, 0.6, 1.2)],
             [ModelParams(n=30, v=1.0, b=b, T=0.25) for b in (0.2, 0.9)],
             [ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3)],
             [ModelParams(n=20, v=1.0, b=b, T=0.1) for b in (0.0, 0.4, 1.1)]]
    for tier in ("cspa", "spa", "exact"):
        whole = evaluate_points(tier, [p for part in parts for p in part])
        assert points_to_csv(whole) == points_to_csv(
            [pt for part in parts for pt in evaluate_points(tier, part)])


@pytest.mark.parametrize("where, exc", [("fallback", ValueError),
                                        ("fallback", None),
                                        ("shared", ZeroDivisionError),
                                        ("z-peak", None)])
def test_injected_failure_stays_with_its_point(monkeypatch, where, exc):
    # at epsrel = 1e-11 the b = 0.9 row is refined in rounds. A row failure
    # (exc None) fails b = 0.9 alone, and the other points keep their
    # bytes: a NaN in a round that holds the b = 0.9 row, which quad_gk
    # fails, or a QuadratureError in b = 0.9's own z integral at gamma =
    # 0.5. An exception that escapes the pass the run shares (a ValueError
    # in a round, a ZeroDivisionError in the peak scan) is a defect, not a
    # row failure: every point of the run reads error with a message that
    # names it. Either way the evaluator runs once
    from xxzent import cspa, sweep
    from xxzent.errors import QuadratureError
    from xxzent.sweep import evaluate_points
    gamma, T = (0.5, 0.3) if where == "z-peak" else (1.0, 0.1)
    points = [ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
              for b in (0.5, 0.7, 0.8, 0.9, 0.9333)]
    clean = evaluate_points("cspa", points, 1e-11)
    assert all(pt.status == "ok" for pt in clean)
    if where == "fallback":
        real, real_quad = cspa._weighted_factors, cspa.quad_gk
        # the integrand calls so far of the running quad_gk call: every
        # call after its first is a refinement round
        calls, raised = [0], []

        def quad(f, edges, **kwargs):
            calls[0] = 0

            def g(row, x):
                calls[0] += 1
                return f(row, x)
            return real_quad(g, edges, **kwargs)

        def patched(params, r, *args):
            out = real(params, r, *args)
            hit = params.b == 0.9
            if calls[0] > 1 and np.any(hit):
                raised.append(calls[0])
                if exc is not None:
                    raise exc("injected")
                out = np.where(hit, np.nan, out)
            return out
        monkeypatch.setattr(cspa, "quad_gk", quad)
        monkeypatch.setattr(cspa, "_weighted_factors", patched)
    elif where == "z-peak":
        real = cspa.mean_field_z

        def patched(params):
            if params.b == 0.9:
                raise QuadratureError("injected")
            return real(params)
        monkeypatch.setattr(cspa, "mean_field_z", patched)
    else:
        real = cspa._radial_peaks

        def patched(params, zs, mode, fail):
            if np.any(params.b == 0.9):
                raise exc("injected")
            return real(params, zs, mode, fail)
        monkeypatch.setattr(cspa, "_radial_peaks", patched)
    runs = []
    evaluator = sweep._EVALUATORS["cspa"]
    monkeypatch.setitem(sweep._EVALUATORS, "cspa", lambda points, epsrel: (
        runs.append(len(points)) or evaluator(points, epsrel)))
    hurt = evaluate_points("cspa", points, 1e-11)
    assert runs == [5]
    if exc is not None:
        assert [(pt.status, pt.message) for pt in hurt] == [
            ("error", "RuntimeError: the run's shared pass raised "
             f"{exc.__name__}: injected")] * 5
    else:
        assert [pt.status for pt in hurt] == ["ok", "ok", "ok", "error", "ok"]
        assert hurt[3].message == ("non-finite integral or error estimate"
                                   if where == "fallback" else "injected")
        assert points_to_csv(hurt[:3] + hurt[4:]) == points_to_csv(
            clean[:3] + clean[4:])
    if where == "fallback":
        # one round held the row: a failed row is refined no further
        assert len(raised) == 1 and raised[0] > 1


def _counted_evaluators(monkeypatch):
    """tier -> the lengths of the runs its evaluator is called with."""
    from xxzent import sweep
    runs = {tier: [] for tier in TIERS}
    for tier, evaluator in list(sweep._EVALUATORS.items()):
        def counted(points, epsrel, tier=tier, evaluator=evaluator):
            runs[tier].append(len(points))
            return evaluator(points, epsrel)
        monkeypatch.setitem(sweep._EVALUATORS, tier, counted)
    return runs


def test_a_failing_row_beside_an_ok_point_is_one_pass(monkeypatch):
    # a gamma = 1 row that misses its budget at quad_gk's panel cap, beside
    # an ok point: one evaluator call and one _logZ_batch call. The ok
    # point's values are those of its lone evaluation, bit for bit, and the
    # failing point's message is its lone one
    from xxzent import cspa
    from xxzent.sweep import evaluate_point, evaluate_run
    runs = _counted_evaluators(monkeypatch)
    batches = []
    real = cspa._logZ_batch
    monkeypatch.setattr(cspa, "_logZ_batch", lambda points, *args: (
        batches.append(len(points)) or real(points, *args)))
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.07930029923206883)
    pts = evaluate_run("cspa", [p, p.replace(T=0.2)], 1e-12)
    assert runs["cspa"] == [2] and batches == [2]
    assert [pt.status for pt in pts] == ["error", "ok"]
    assert pts[0].message.startswith("no convergence after 4000 panels")
    lone = [evaluate_point("cspa", q, 1e-12) for q in (p, p.replace(T=0.2))]
    assert pts[0].message == lone[0].message
    assert [float(x).hex() for x in pts[1].values()[6:13]] == \
        [float(x).hex() for x in lone[1].values()[6:13]]


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_a_failed_row_leaves_its_run_bit_identical(monkeypatch, gamma):
    # the integrand of one ok point reads NaN, which quad_gk fails: in
    # figure 2's b = 0.5 T-row at gamma = 1 (30 points: 19 ok, 7 breakdown,
    # 4 error) that is its row of the run's shared pass, at gamma = 0.5 its
    # own z integral. That point alone reads error, the run takes one
    # evaluator call, and every point has the bytes of its lone evaluation
    from xxzent import cspa
    from xxzent.sweep import evaluate_point, evaluate_points
    if gamma == 1.0:
        fixed, axis = FIG2_ROWS[0]
        points, epsrel = SweepSpec("cspa", fixed, (axis,)).points(), \
            POINT_EPSREL
    else:
        points, epsrel = [ModelParams(n=20, v=1.0, gamma=0.5, b=0.3,
                                      T=float(T))
                          for T in np.geomspace(0.02, 0.5, 8)], 1e-8
    clean = evaluate_points("cspa", points, epsrel)
    k = [pt.status for pt in clean].index("ok") + 2
    assert clean[k].status == "ok"
    real = cspa._weighted_factors

    def nan_at(params, *args):
        return np.where(params.beta == points[k].beta, np.nan,
                        real(params, *args))
    monkeypatch.setattr(cspa, "_weighted_factors", nan_at)
    runs = _counted_evaluators(monkeypatch)
    hurt = evaluate_points("cspa", points, epsrel)
    assert runs["cspa"] == [len(points)]
    assert (hurt[k].status, hurt[k].message) == (
        "error", "non-finite integral or error estimate")
    assert points_to_csv(hurt[:k] + hurt[k + 1:]) == points_to_csv(
        clean[:k] + clean[k + 1:])
    assert points_to_csv(hurt) == points_to_csv(
        [evaluate_point("cspa", p, epsrel) for p in points])


def test_a_defect_fails_a_shared_run_and_one_point_elsewhere(monkeypatch):
    # a TypeError in every shared pass (the exact tier's array pass, the
    # cspa and spa radial rows at gamma = 1 and z integrals at gamma < 1)
    # fails every point of the run, after one evaluator call; the
    # bruteforce, cmfa and mfa tiers evaluate one point at a time, so the
    # same TypeError at one point fails that point alone
    from xxzent import cmfa, cspa
    from xxzent.sweep import evaluate_run

    def defect(*args):
        raise TypeError("injected")
    for module, name in ((exact, "_thermal_pass"), (cspa, "_logZ_rows"),
                         (cspa, "_logZ_z")):
        monkeypatch.setattr(module, name, defect)
    runs = _counted_evaluators(monkeypatch)
    shared = "RuntimeError: the run's shared pass raised TypeError: injected"
    for tier, gamma in (("exact", 1.0), ("cspa", 1.0), ("spa", 1.0),
                        ("cspa", 0.5), ("spa", 0.5)):
        points = [ModelParams(n=6, v=1.0, gamma=gamma, b=b, T=0.5)
                  for b in (0.1, 0.5, 0.9)]
        pts = evaluate_run(tier, points)
        assert runs[tier][-1] == 3
        assert [(pt.status, pt.message) for pt in pts] == \
            [("error", shared)] * 3
    for module, name in ((exact, "brute_force_observables"),
                         (cmfa, "gap_solve"),
                         (cmfa, "mfa_product_moments")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda p, real=real: (
            defect() if p.b == 0.5 else real(p)))
    for tier in ("bruteforce", "cmfa", "mfa"):
        points = [ModelParams(n=6, v=1.0, gamma=1.0, b=b, T=0.1)
                  for b in (0.1, 0.5, 0.9)]
        pts = evaluate_run(tier, points)
        assert runs[tier] == [3]
        assert [(pt.status, pt.message) for pt in pts] == [
            ("ok", ""), ("error", "TypeError: injected"), ("ok", "")]


def test_refusals_never_cause_a_retry(monkeypatch):
    # a refusal (T <= 0 or a breakdown) is the outcome of its point, decided
    # before the pass, and a run enters the evaluator once
    from xxzent import cspa, sweep
    from xxzent.figures import POINT_EPSREL
    calls = {"evaluator": 0, "_logZ_rows": 0, "_logZ_z": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped
    monkeypatch.setitem(sweep._EVALUATORS, "cspa",
                        counted("evaluator", sweep._EVALUATORS["cspa"]))
    for name in ("_logZ_rows", "_logZ_z"):
        monkeypatch.setattr(cspa, name, counted(name, getattr(cspa, name)))

    def statuses(points, epsrel):
        pts = sweep.evaluate_points("cspa", points, epsrel)
        return [[pt.status for pt in pts].count(s)
                for s in ("ok", "breakdown", "error")]
    # the 30 points of the row are one run (at most RUN_POINTS), which
    # enters the evaluator once whatever its 7 breakdowns and 4 errors
    assert sweep.RUN_POINTS == 40
    fixed, axis = FIG2_ROWS[0]
    points = SweepSpec("cspa", fixed, (axis,)).points()
    assert statuses(points, POINT_EPSREL) == [19, 7, 4]
    assert calls == {"evaluator": 1, "_logZ_rows": 1, "_logZ_z": 0}
    # at gamma < 1 a breakdown point never enters its z integral
    points = [ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=float(T))
              for T in np.geomspace(0.02, 0.5, 8)]
    assert statuses(points, 1e-8) == [6, 2, 0]
    assert calls == {"evaluator": 2, "_logZ_rows": 1, "_logZ_z": 6}


def test_pool_never_outnumbers_the_runs(monkeypatch):
    # a pool forks all its workers at once: never more than there are runs,
    # and one run is evaluated in-process
    import concurrent.futures
    from xxzent import sweep
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, f, jobs):
            return map(f, jobs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    fixed = ModelParams(n=20, v=1.0, T=0.1)
    # runs of at most RUN_POINTS: 3 and RUN_POINTS points are one run,
    # 2 RUN_POINTS + 3 are three
    run = sweep.RUN_POINTS
    assert run == 40
    for count, workers, pooled in ((3, 64, []), (run, 64, []),
                                   (2 * run + 3, 64, [3]),
                                   (2 * run + 3, 2, [2]),
                                   (2 * run + 3, 2.0, [2]),
                                   (2 * run + 3, 1, [])):
        pools.clear()
        spec = SweepSpec("exact", fixed, (GridAxis("b", 0.0, 1.0, count),))
        assert points_to_csv(run_sweep(spec, workers=workers)) == \
            points_to_csv(run_sweep(spec))
        assert pools == pooled
        assert all(type(w) is int for w in pools)


@pytest.mark.parametrize("workers", [1.5, 2.5, float("nan"), inf])
def test_workers_that_are_not_integers_are_refused_before_any_run(
        workers, monkeypatch):
    from xxzent import sweep
    runs = []
    monkeypatch.setattr(sweep, "evaluate_run",
                        lambda *args: runs.append(args) or [])
    spec = SweepSpec("exact", ModelParams(n=20, T=0.1),
                     (GridAxis("b", 0.0, 1.0, 100),))
    with pytest.raises(DomainError, match="workers must be an integer"):
        run_sweep(spec, workers=workers)
    assert runs == []


def test_import_loads_no_process_pool():
    # only evaluate_points(..., workers > 1) needs the pool module, which
    # pulls in multiprocessing, socket, subprocess and logging
    import os
    import subprocess
    import sys
    from pathlib import Path

    import xxzent
    code = ("import sys, xxzent, xxzent.cli, xxzent.figures; "
            "print([m for m in ('concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules])")
    src = str(Path(xxzent.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         timeout=60).stdout
    assert out == "[]\n"
