import json
from math import comb, inf

import numpy as np
import pytest

from xxzent import exact
from xxzent.errors import DomainError, XxzentError
from xxzent.model import ModelParams
from xxzent.sweep import (CSV_COLUMNS, TIERS, GridAxis, SweepSpec,
                          evaluate_point, evaluate_run, limit_field,
                          limit_temperature, points_to_csv, points_to_json,
                          run_sweep)


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


def _count_eigh(monkeypatch):
    """The shapes np.linalg.eigh is called on, in call order."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


# the S_z blocks of n = 6 spins; Wootters' sqrt(rho_2) adds one 4 x 4 eigh
# per ok point, a size no n = 6 block has
BLOCKS_6 = sorted((comb(6, k), comb(6, k)) for k in range(7))


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
    # one eigh per S_z block, never the full 2^n matrix; the moments and the
    # partial-trace rho_2 share those eigh calls
    calls = _count_eigh(monkeypatch)
    pt = evaluate_point("bruteforce", ModelParams(n=6, v=1.0, b=0.3, T=0.2))
    assert pt.status == "ok"
    assert sorted(calls) == sorted(BLOCKS_6 + [(4, 4)])
    assert (64, 64) not in calls


def test_bruteforce_run_diagonalizes_once(monkeypatch):
    # the blocks of F serve every point of a run, whatever v, gamma, b and T
    calls = _count_eigh(monkeypatch)
    points = [ModelParams(n=6, v=1.0, gamma=0.5, b=b, T=T)
              for b in (0.0, 0.3, 1.1) for T in (0.05, 0.4)]
    assert [pt.status for pt in evaluate_run("bruteforce", points)] == \
        ["ok"] * 6
    assert sorted(c for c in calls if c != (4, 4)) == BLOCKS_6
    assert calls.count((4, 4)) == 6


@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_bruteforce_point_bytes_do_not_depend_on_its_run(gamma):
    points = [ModelParams(n=7, v=1.0, gamma=gamma, b=b, T=T)
              for b, T in ((0.0, 0.03), (0.35, 0.1), (0.8, 0.5), (2.0, 1.5))]
    alone = [evaluate_point("bruteforce", p).row() for p in points]
    assert [pt.row() for pt in evaluate_run("bruteforce", points)] == alone
    assert all(row["status"] == "ok" for row in alone)


def test_bruteforce_t0_point_refused_alone(monkeypatch):
    # the T = 0 point is refused before the pass, so its neighbours keep
    # their bytes and nothing is diagonalized again
    points = [ModelParams(n=6, v=1.0, b=b, T=T)
              for b, T in ((0.2, 0.1), (0.2, 0.0), (0.6, 0.3))]
    alone = [evaluate_point("bruteforce", points[k]).row() for k in (0, 2)]
    calls = _count_eigh(monkeypatch)
    run = evaluate_run("bruteforce", points)
    assert [pt.status for pt in run] == ["ok", "error", "ok"]
    assert run[1].message == "brute force oracle requires T > 0"
    assert [run[0].row(), run[2].row()] == alone
    assert sorted(c for c in calls if c != (4, 4)) == BLOCKS_6


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

    def fake_point(tier, params):
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

    def fake(tier, points, epsrel=1e-10):
        return [fake_point(tier, p) for p in points]

    monkeypatch.setattr(sweep, "evaluate_run", fake)
    res = limit_field("exact", ModelParams(n=8, T=0.1), b_max=10.0,
                      probes=11)
    assert res.statuses == ("ok",) * 4 + ("breakdown",) * 2 + ("ok",) * 5
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
            return sweep._entangled(
                evaluate_run(tier, [p.replace(T=T)], epsrel)[0])
        for x in edges:
            i = int(np.searchsorted(grid, x))
            lo, hi = grid[i - 1], grid[i]
            side = entangled(lo)
            while hi - lo >= 1e-12:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if entangled(mid) == side else (lo, mid)
            assert abs(x - 0.5 * (lo + hi)) <= 5e-7, (tier, b, x, lo)


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
    # at epsrel = 1e-11 the b = 0.8 row is refined in rounds: a failure in
    # a round that holds it (a QuadratureError, or any other exception), or
    # in the array pass that the run shares, fails b = 0.8 alone; so does a
    # failure in b = 0.8's own z integral at gamma = 0.5
    from xxzent import cspa
    from xxzent.errors import QuadratureError
    from xxzent.sweep import evaluate_points
    gamma, T = (0.5, 0.3) if where == "z-peak" else (1.0, 0.1)
    points = [ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
              for b in (0.5, 0.7, 0.8, 0.9, 0.9333)]
    clean = evaluate_points("cspa", points, 1e-11)
    assert all(pt.status == "ok" for pt in clean)
    exc = exc or QuadratureError
    if where == "fallback":
        real, real_quad = cspa._weighted_factors, cspa.quad_gk
        in_round = [False]

        def quad(f, edges, **kwargs):
            calls = []

            def g(row, x):
                # every call of the integrand after its first is a round
                in_round[0] = bool(calls)
                calls.append(1)
                return f(row, x)
            return real_quad(g, edges, **kwargs)

        def patched(params, r, *args):
            if in_round[0] and np.any(params.b == 0.8):
                raise exc("injected")
            return real(params, r, *args)
        monkeypatch.setattr(cspa, "quad_gk", quad)
        monkeypatch.setattr(cspa, "_weighted_factors", patched)
    elif where == "z-peak":
        real = cspa._refine_z_peak

        def patched(params, *args):
            if params.b == 0.8:
                raise exc("injected")
            return real(params, *args)
        monkeypatch.setattr(cspa, "_refine_z_peak", patched)
    else:
        real = cspa._radial_peaks

        def patched(params, zs, mode):
            if np.any(params.b == 0.8):
                raise exc("injected")
            return real(params, zs, mode)
        monkeypatch.setattr(cspa, "_radial_peaks", patched)
    hurt = evaluate_points("cspa", points, 1e-11)
    assert [pt.status for pt in hurt] == ["ok", "ok", "error", "ok", "ok"]
    assert hurt[2].message.endswith("injected")
    assert points_to_csv(hurt[:2] + hurt[3:]) == points_to_csv(
        clean[:2] + clean[3:])


def test_refusals_never_cause_a_retry(monkeypatch):
    # a refusal (T <= 0 or a breakdown) is the outcome of its point, decided
    # before the pass; only a failure inside the pass re-runs a run point
    # by point, so these rows enter the evaluator once per run
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
    fixed, axis = FIG2_ROWS[0]
    points = SweepSpec("cspa", fixed, (axis,)).points()
    assert statuses(points, POINT_EPSREL) == [19, 7, 4]
    assert calls == {"evaluator": 4, "_logZ_rows": 4, "_logZ_z": 0}
    # at gamma < 1 a breakdown point never enters its z integral
    points = [ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=float(T))
              for T in np.geomspace(0.02, 0.5, 8)]
    assert statuses(points, 1e-8) == [6, 2, 0]
    assert calls == {"evaluator": 5, "_logZ_rows": 4, "_logZ_z": 6}


def test_pool_never_outnumbers_the_runs(monkeypatch):
    # a pool forks all its workers at once: never more than there are runs,
    # and one run is evaluated in-process
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
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    fixed = ModelParams(n=20, v=1.0, T=0.1)
    for count, workers, pooled in ((3, 64, []), (20, 64, [3]), (20, 2, [2]),
                                   (20, 1, [])):
        pools.clear()
        spec = SweepSpec("exact", fixed, (GridAxis("b", 0.0, 1.0, count),))
        assert points_to_csv(run_sweep(spec, workers=workers)) == \
            points_to_csv(run_sweep(spec))
        assert pools == pooled
