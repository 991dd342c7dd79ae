"""Figure tables: file names, row counts and the calls each figure makes,
with point evaluation and limit scans stubbed out, so each runs in
milliseconds."""

import os

import pytest

from xxzent import figures, sweep
from xxzent.sweep import CurvePoint, LimitResult

# figure -> ({file: data rows} in writing order, point calls, limit calls)
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

    def fake_point(tier, params, epsrel=1e-10):
        count["point"] += 1
        return CurvePoint(tier=tier, params=params, status="error")

    def fake_limit(tier, params, **kwargs):
        count["limit"] += 1
        return LimitResult(intervals=(), limit=None, n_probes=0, statuses=())

    monkeypatch.setattr(sweep, "evaluate_point", fake_point)
    monkeypatch.setattr(figures, "limit_temperature", fake_limit)
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
