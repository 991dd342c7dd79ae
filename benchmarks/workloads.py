"""The benchmark's workloads: job lists built from a seed.

Each job is one call into a public entry point of ``xxzent`` (the ones the
CLI calls) plus the code that turns its result into point records for the
correctness check. Every workload runs in a single process with
``workers = 1``.

The seed jitters the b and T values of the grids built here, within their
ranges. The jitter pattern is ``seed % VARIANTS``, so every seed maps onto
one of the patterns whose reference values ship in ``reference/``; pattern
0 is the nominal grid. Figure 2's grid is fixed by the program and never
changes; neither does the 2D CSPA sweep next to it (see _cspa_sweep).
"""

from __future__ import annotations

import csv
import glob
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

from xxzent import figures, sweep
from xxzent.model import ModelParams
from xxzent.sweep import GridAxis, SweepSpec

WORKLOADS = ("cspa-sweep", "exact-large-n", "limit-scan", "oracle")
VARIANTS = 16
# Jitter is small because the cost of a CSPA point depends strongly on b;
# a workload's cost must not depend on its seed.
JITTER = 0.01

# the fields a point record keeps for the correctness check
POINT_FIELDS = ("tier", "n", "gamma", "b", "T", "status", "logZ", "Sz", "Sz2",
                "S2", "C")


@dataclass
class Job:
    """One public call. ``points`` is how many points it covers, so that a
    call that raises counts every one of them as failed."""

    name: str
    points: int
    call: Callable[[], Any]
    records: Callable[[Any], list]
    fixed: bool = False        # inputs independent of the seed


def variant_of(seed: int) -> int:
    return seed % VARIANTS


class Jitter:
    """Seeded jitter of grid values, all kept inside their nominal ranges."""

    def __init__(self, seed: int):
        self.variant = variant_of(seed)
        self._rng = random.Random(self.variant)

    def _u(self) -> float:
        return 0.0 if self.variant == 0 else self._rng.random()

    def axis(self, name, lo, hi, count, scale="lin") -> GridAxis:
        """Move each end of the grid inward by up to JITTER of its range."""
        if scale == "log":
            a, b = math.log(lo), math.log(hi)
        else:
            a, b = lo, hi
        q = JITTER * (b - a)
        a, b = a + q * self._u(), b - q * self._u()
        if scale == "log":
            a, b = math.exp(a), math.exp(b)
        return GridAxis(name, a, b, count, scale)

    def value(self, nominal, half_width) -> float:
        """A value within half_width of nominal."""
        if self.variant == 0:
            return nominal
        return nominal + half_width * (2.0 * self._u() - 1.0)


def point_record(pt) -> dict:
    row = pt.row()
    return {k: row[k] for k in POINT_FIELDS}


def sweep_job(name, spec: SweepSpec, fixed=False) -> Job:
    return Job(name, len(spec.points()), lambda: sweep.run_sweep(spec, workers=1),
               lambda pts: [point_record(p) for p in pts], fixed)


def point_job(name, tier, params: ModelParams) -> Job:
    return Job(name, 1, lambda: sweep.evaluate_point(tier, params),
               lambda pt: [point_record(pt)])


def limit_job(name, tier, params: ModelParams, probes, epsrel) -> Job:
    def records(res):
        return [{"tier": tier, "n": params.n, "b": params.b, "status": "ok",
                 "intervals": [list(iv) for iv in res.intervals],
                 "limit": res.limit}]
    return Job(name, 1, lambda: sweep.limit_temperature(
        tier, params, probes=probes, epsrel=epsrel), records)


def _csv_value(key, text):
    if key in ("tier", "status"):
        return text
    if text == "":
        return None
    return int(text) if key == "n" else float(text)


def figure2_job(scratch_dir) -> Job:
    out_dir = os.path.join(scratch_dir, "fig2")

    def call():
        shutil.rmtree(out_dir, ignore_errors=True)
        return figures.reproduce_figure(2, out_dir)

    def records(_files):
        out = []
        for path in sorted(glob.glob(os.path.join(out_dir, "fig2_*.csv"))):
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    out.append({k: _csv_value(k, row[k]) for k in POINT_FIELDS})
        return out

    # 3 b-rows of 40 points and 3 T-rows of 30 points, each for 3 tiers
    return Job("figure2", 3 * 3 * 40 + 3 * 3 * 30, call, records, fixed=True)


def _cspa_sweep(_j: Jitter, scratch_dir):
    # Not jittered: near b = 0.5 the cost of one 2D CSPA point changes by
    # half when b moves by 1%, which would make the cost depend on the seed.
    cspa100 = SweepSpec("cspa", ModelParams(n=100, v=1.0, gamma=0.5, b=0.05,
                                             T=0.25),
                        (GridAxis("b", 0.05, 0.5, 2),))
    return [figure2_job(scratch_dir),
            sweep_job("cspa-n100-gamma0.5", cspa100, fixed=True)]


def _exact_large_n(j: Jitter, _scratch_dir):
    jobs = []
    for n, count in ((8810, 4), (1000, 16)):
        spec = SweepSpec("exact", ModelParams(n=n, v=1.0, gamma=1.0, b=0.0,
                                              T=0.1),
                         (j.axis("b", 0.0, 1.05, count),))
        jobs.append(sweep_job(f"b-row-n{n}", spec))
    spec = SweepSpec("exact", ModelParams(n=8810, v=1.0, gamma=1.0, b=0.5,
                                          T=0.1),
                     (j.axis("T", 0.01, 0.6, 5, "log"),))
    jobs.append(sweep_job("T-row-n8810", spec))
    # T = 0 is the CLI default temperature
    spec = SweepSpec("exact", ModelParams(n=8810, v=1.0, gamma=1.0, b=0.0,
                                          T=0.0),
                     (j.axis("b", 0.0, 1.05, 2),))
    jobs.append(sweep_job("T0-row-n8810", spec))
    return jobs


def _limit_scan(j: Jitter, _scratch_dir):
    fields = [j.value(0.3, 0.01), j.value(0.9, 0.01), j.value(1.15, 0.01)]
    jobs = []
    for tier, n, probes, epsrel in (("exact", 1000, 40, 1e-10),
                                    ("cmfa", 1000, 40, 1e-10),
                                    ("cspa", 20, 28, 1e-8)):
        for k, b in enumerate(fields):
            p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.1)
            jobs.append(limit_job(f"{tier}-n{n}-b{k}", tier, p, probes, epsrel))
    return jobs


def _oracle(j: Jitter, _scratch_dir):
    """Bruteforce and exact on the same points, in pairs."""
    axis = j.axis("b", 0.0, 0.9, 6)
    jobs = []
    for tier in ("bruteforce", "exact"):
        spec = SweepSpec(tier, ModelParams(n=10, v=1.0, gamma=1.0, b=0.0,
                                           T=0.1), (axis,))
        jobs.append(sweep_job(f"{tier}-n10", spec))
    p11 = ModelParams(n=11, v=1.0, gamma=1.0, b=j.value(0.5, 0.01), T=0.1)
    for tier in ("bruteforce", "exact"):
        jobs.append(point_job(f"{tier}-n11", tier, p11))
    return jobs


_JOB_LISTS = {"cspa-sweep": _cspa_sweep, "exact-large-n": _exact_large_n,
             "limit-scan": _limit_scan, "oracle": _oracle}


def build_jobs(workload: str, seed: int, scratch_dir: str) -> list:
    """The workload's job list for a seed; figure output goes to scratch_dir."""
    return _JOB_LISTS[workload](Jitter(seed), scratch_dir)
