"""Figure tables: file names, row counts and the calls each figure makes,
with point evaluation and limit scans stubbed out, so each runs in
milliseconds; and the runs that figure 4's limit scans take."""

import os

import pytest

from xxzent import figures, sweep
from xxzent.sweep import CurvePoint, LimitResult

# figure -> ({file: data rows} in writing order, point calls, limit scans)
EXPECTED = {
    1: ({"fig1_T0.005.csv": 170, "fig1_T0.025.csv": 170}, 340, 0),
    2: ({**{f"fig2_top_T{T}.csv": 3 * 40 for T in (0.1, 0.25, 0.5)},
         **{f"fig2_bottom_b{b}.csv": 3 * 30 for b in (0.5, 0.9, 1.1)}},
        630, 0),
    3: ({**{f"fig3_top_n{n}.csv": 3 * 36 for n in (20, 100, 1000, 8810)},
         **{f"fig3_bottom_n{n}.csv": 2 * 30 for n in (20, 100, 1000)}},
        612, 0),
    4: ({"fig4_limit_temperature.csv": 144, "fig4_tc.csv": 60}, 0, 144),
    5: ({"fig5_top_limit_temperature.csv": 124,
         **{f"fig5_bottom_g{g}_n{n}.csv": 2 * 26
            for g in (1.0, 0.5) for n in (20, 100, 1000)}},
        312, 124),
}


@pytest.fixture
def calls(monkeypatch):
    count = {"point": 0, "limit": 0}

    def fake_run(tier, points, epsrel=1e-10):
        count["point"] += len(points)
        return [CurvePoint(tier=tier, params=p, status="error")
                for p in points]

    def fake_limits(tier, fixed, **kwargs):
        count["limit"] += len(fixed)
        return [LimitResult(intervals=(), limit=None, n_probes=0,
                            statuses=())] * len(fixed)

    def scan_of_one(tier, params, **kwargs):
        raise AssertionError("a figure's scans go through limit_temperatures")

    monkeypatch.setattr(sweep, "evaluate_run", fake_run)
    monkeypatch.setattr(figures, "limit_temperatures", fake_limits)
    monkeypatch.setattr(figures, "limit_temperature", scan_of_one)
    return count


@pytest.mark.parametrize("fig_id", figures.FIGURE_IDS)
def test_figure_files_rows_and_calls(fig_id, calls, tmp_path):
    rows, points, limits = EXPECTED[fig_id]
    files = figures.reproduce_figure(fig_id, str(tmp_path))
    script = f"fig{fig_id}.gp"
    assert [os.path.basename(f) for f in files] == [*rows, script]
    for name, count in rows.items():
        assert len((tmp_path / name).read_text().splitlines()) == count + 1
    assert (calls["point"], calls["limit"]) == (points, limits)
    plot = (tmp_path / script).read_text()
    assert all(f"'{name}' using" in plot for name in rows)


def test_figure_4_scans_share_runs(monkeypatch, tmp_path):
    # each (tier, n) group of figure 4 is one scan of all its b values, so
    # the band edges of a round share a run: the points are those of one
    # scan per b value, in few runs
    counts = {}
    real = sweep.evaluate_run

    def counted(tier, points, epsrel=1e-10):
        runs, pts = counts.get(tier, (0, 0))
        counts[tier] = (runs + 1, pts + len(points))
        return real(tier, points, epsrel)
    monkeypatch.setattr(sweep, "evaluate_run", counted)
    figures.reproduce_figure(4, str(tmp_path))
    assert counts == {"exact": (87, 2795), "cmfa": (78, 2641),
                      "cspa": (31, 796)}


def test_figure_2_solves_each_gap_once(tmp_path):
    # figure 2's cmfa points ask for 27 distinct (v, T) gaps 106 times: the
    # cache (cleared before each test) solves each once
    from xxzent import cmfa
    figures.reproduce_figure(2, str(tmp_path))
    info = cmfa._gap_root.cache_info()
    assert (info.hits + info.misses, info.misses) == (106, 27)
