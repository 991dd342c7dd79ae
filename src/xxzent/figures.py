"""Reference-figure data generation: each figure is a table of curve files.

A figure is a short table, built when the figure is requested, of three
kinds of CSV file:

- a point file: each tier evaluated over one swept axis of fixed model
  parameters through the sweep evaluation loop, tier-major;
- a limit file: the limit temperature for each tier at each field value of
  one or more (tiers, n, gamma, b values, probes, epsrel) groups, each
  tier's field values scanned together by limit_temperatures, so that
  their band edges are refined in lockstep;
- the mean-field T_c(b) guide rows.

One loop writes every file of a figure plus a plain-text gnuplot script
with relative data paths; nothing is plotted in-process. Grid parameters are
fixed here so runs are reproducible; tier failures show up as status fields
in the CSVs, never as aborted files.

Limit-temperature curves use a second CSV schema,

    tier,n,v,gamma,b,T_L,status

since their natural output is one root (or a zero-entanglement marker) per
field value rather than a point sweep.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cmfa import critical_temperature
from .errors import DomainError
from .model import ModelParams, crossing_fields
from .sweep import (LimitResult, _csv, evaluate_points, limit_temperatures,
                    points_to_csv)
# not called here: the benchmark's tracer wraps figures.limit_temperature by
# name, so the name stays until the tracer wraps what the figures call
from .sweep import limit_temperature  # noqa: F401

__all__ = ["reproduce_figure", "FIGURE_IDS", "b_grid_with_crossings"]

FIGURE_IDS = (1, 2, 3, 4, 5)

LIMIT_COLUMNS = ("tier", "n", "v", "gamma", "b", "T_L", "status")

POINT_EPSREL = 1e-9     # quadrature budget of the cspa points


def b_grid_with_crossings(n, lo, hi, count):
    """Linear b grid with every ground-state crossing field b_M injected
    exactly, so the C = 1/n dips are sampled on the nose."""
    cf = crossing_fields(ModelParams(n=n, v=1.0, gamma=1.0))
    return sorted({round(float(x), 12)
                   for x in list(np.linspace(lo, hi, count)) + list(cf.fields)
                   if lo <= x <= hi})


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _tl_row(tier, n, gamma, b, res: LimitResult):
    if res.limit is not None:
        return {"tier": tier, "n": n, "v": 1.0, "gamma": gamma, "b": b,
                "T_L": float(res.limit), "status": "ok"}
    status = "open-band" if res.intervals else "no-entanglement"
    return {"tier": tier, "n": n, "v": 1.0, "gamma": gamma, "b": b,
            "T_L": None, "status": status}


def _gnuplot(name, title, plots, extra="") -> str:
    lines = [
        "# gnuplot script (run: gnuplot %s.gp); data paths are relative" % name,
        "set datafile separator ','",
        "set key outside",
        "set title \"%s\"" % title,
        extra,
        "plot \\",
    ]
    lines.append(", \\\n".join(plots))
    return "\n".join(line for line in lines if line) + "\n"


@dataclass(frozen=True)
class _PointFile:
    """Each tier over one swept axis of ``fixed``, tier-major."""

    name: str
    tiers: tuple
    fixed: ModelParams
    axis: str              # "b" or "T"
    values: Sequence[float]
    plots: tuple           # gnuplot "using ..." clauses for this file

    def text(self) -> str:
        params = [self.fixed.replace(**{self.axis: float(x)})
                  for x in self.values]
        pts = []
        for tier in self.tiers:
            pts += evaluate_points(tier, params, POINT_EPSREL)
        return points_to_csv(pts)


@dataclass(frozen=True)
class _LimitFile:
    """Limit temperatures of (tiers, n, gamma, b values, probes, epsrel)
    groups, each scanned tier-major from T = 0.1 v."""

    name: str
    groups: tuple
    plots: tuple

    def text(self) -> str:
        rows = []
        for tiers, n, gamma, b_values, probes, epsrel in self.groups:
            fixed = [ModelParams(n=n, v=1.0, gamma=gamma, b=float(b), T=0.1)
                     for b in b_values]
            for tier in tiers:
                # the group's b values in one scan: its band edges are
                # refined in lockstep
                results = limit_temperatures(tier, fixed, probes=probes,
                                             epsrel=epsrel)
                rows += [_tl_row(tier, n, gamma, p.b, res)
                         for p, res in zip(fixed, results)]
        return _csv(rows, LIMIT_COLUMNS)


@dataclass(frozen=True)
class _TcGuide:
    """The mean-field critical temperature T_c(b) at gamma = 1."""

    name: str
    b_values: Sequence[float]
    plots: tuple

    def text(self) -> str:
        return _csv(
            ({"tier": "tc", "n": 20, "v": 1.0, "gamma": 1.0, "b": float(b),
              "T_L": critical_temperature(ModelParams(n=20, b=float(b))),
              "status": "ok"} for b in self.b_values), LIMIT_COLUMNS)


# Each figure: (gnuplot title, axis labels, curve files in writing order).

def _figure_1():
    grid = b_grid_with_crossings(20, 0.0, 1.05, 85)
    tiers = ("exact", "cmfa")
    return ("n C vs b, n=20, gamma=1 (low T)",
            "set xlabel 'b/v'\nset ylabel 'n C'",
            [_PointFile(f"fig1_T{T}.csv", tiers, ModelParams(n=20, T=T), "b",
                        grid, tuple(f"5:(strcol(1) eq '{tier}' ? $12 : 1/0) "
                                    f"title '{tier} T={T}' with lines"
                                    for tier in tiers))
             for T in (0.005, 0.025)])


def _figure_2():
    tiers = ("exact", "cmfa", "cspa")
    top = [_PointFile(f"fig2_top_T{T}.csv", tiers, ModelParams(n=20, T=T), "b",
                      np.linspace(0.0, 1.3, 40),
                      (f"5:11 title 'T={T}' with points",))
           for T in (0.1, 0.25, 0.5)]
    bottom = [_PointFile(f"fig2_bottom_b{b}.csv", tiers, ModelParams(n=20, b=b),
                         "T", np.geomspace(0.02, 0.8, 30),
                         (f"6:11 title 'b={b}' with points",))
              for b in (0.5, 0.9, 1.1)]
    return ("C vs b (top rows) and vs T (bottom rows), n=20",
            "set xlabel 'b/v or T/v'\nset ylabel 'C'", top + bottom)


def _figure_3():
    top = [_PointFile(f"fig3_top_n{n}.csv", ("exact", "cmfa", "cspa"),
                      ModelParams(n=n, T=0.1), "b", np.linspace(0.0, 1.05, 36),
                      (f"5:11 title 'n={n}' with points",))
           for n in (20, 100, 1000, 8810)]
    bottom = [_PointFile(f"fig3_bottom_n{n}.csv", ("exact", "cmfa"),
                         ModelParams(n=n, b=0.5), "T",
                         np.geomspace(0.02, 0.6, 30),
                         (f"6:11 title 'n={n} b=0.5' with points",))
              for n in (20, 100, 1000)]
    return ("C vs b at T=0.1v (top) and vs T at b=0.5v (bottom), gamma=1",
            "set xlabel 'b/v or T/v'\nset ylabel 'C'", top + bottom)


def _figure_4():
    groups = [(("exact", "cmfa"), n, 1.0, np.linspace(0.02, 1.35, 20), 40,
               1e-10) for n in (20, 100, 1000)]
    groups += [(("cspa",), n, 1.0, np.linspace(0.05, 1.3, 12), 28, 1e-8)
               for n in (20, 100)]
    return ("limit temperature vs field, gamma=1",
            "set xlabel 'b/v'\nset ylabel 'T_L/v'",
            [_LimitFile("fig4_limit_temperature.csv", tuple(groups),
                        ("5:6 title 'T_L(b)' with points",)),
             _TcGuide("fig4_tc.csv", np.linspace(0.0, 0.999, 60),
                      ("5:6 title 'T_c(b)' with lines dt 2",))])


def _figure_5():
    groups = []
    for gamma in (0.25, 0.5, 0.75, 1.0):
        # CSPA on a coarse grid: the gamma < 1 integrals are 2D
        groups += [(("exact", "cmfa"), 100, gamma,
                    np.linspace(0.02, 1.05 * gamma, 12), 36, 1e-10),
                   (("cspa",), 100, gamma, np.linspace(0.05, gamma, 7), 22,
                    1e-8)]
    files = [_LimitFile("fig5_top_limit_temperature.csv", tuple(groups),
                        ("5:6 title 'T_L(b), n=100' with points",))]
    files += [_PointFile(f"fig5_bottom_g{gamma}_n{n}.csv", ("exact", "cmfa"),
                         ModelParams(n=n, gamma=gamma), "T",
                         np.geomspace(0.01, 0.5, 26),
                         (f"6:11 title 'g={gamma} n={n}' with points",))
              for gamma in (1.0, 0.5) for n in (20, 100, 1000)]
    return ("T_L(b) per gamma (top) and C(T) at b=0 (bottom)",
            "set xlabel 'b/v or T/v'\nset ylabel 'T_L or C'", files)


_FIGURES = {1: _figure_1, 2: _figure_2, 3: _figure_3, 4: _figure_4,
            5: _figure_5}


def reproduce_figure(fig_id: int, out_dir: str):
    """Write the CSV data and gnuplot script for one reference figure.

    Returns the list of files written. Figures 3-5 sweep up to n ~ 8810 and
    figures 4 and 5 run limit-temperature root finds per field value:
    about 0.3 s for figure 4 and 2.7 s for figure 5 in-process (one Xeon
    core).
    """
    if fig_id not in _FIGURES:
        raise DomainError(f"figure id must be one of {FIGURE_IDS}")
    os.makedirs(out_dir, exist_ok=True)
    title, labels, curves = _FIGURES[fig_id]()
    files, plots = [], []
    for curve in curves:
        files.append(_write(os.path.join(out_dir, curve.name), curve.text()))
        plots += [f"'{curve.name}' using {u}" for u in curve.plots]
    name = f"fig{fig_id}"
    script = _gnuplot(name, title, plots, extra=labels)
    files.append(_write(os.path.join(out_dir, name + ".gp"), script))
    return files
