"""Tier table, parameter sweeps, limit temperatures/fields, and file output.

Each tier is one entry of a ``tier -> evaluator`` table; an evaluator takes
a run of points and returns one outcome per point, its result or what
refused it. evaluate_run is the one place that runs an evaluator, times it
and turns each outcome into a point and its status, so no exception of any
type aborts a sweep, and no ok point carries a non-finite value. When the
evaluator itself raises (the cspa, spa and exact tiers raise whatever fails
inside the pass a run shares), the run is evaluated again one point at a
time: this retry is the one place that pins a failure of a shared pass to
its point.
evaluate_points is the evaluation loop over a list of parameter points, used
by run_sweep, the limit scans and the reference figures: it cuts the list
into runs of at most RUN_POINTS (40) consecutive points at one (n, v,
gamma), the same runs for every worker count, and a worker process takes
whole runs: a group of 40 points or fewer at one (n, v, gamma) is one run,
evaluated in one process whatever the worker count. The process pool
module, which loads multiprocessing, is imported only by a call that
builds a pool (workers > 1 and more than one run), so importing the
package or running in one process never pays for it. The cspa and spa tiers
evaluate a run at gamma = 1 in one array pass, and the exact tier the
T > 0 points of a run in shared array passes (all of them at n = 20, 16 at
a time at n = 1000), its T = 0 points on the ground-state path; the
bruteforce, cmfa and mfa tiers evaluate one point at a time. The per-n
table of the bruteforce tier, the eigen-rows of one canonical pair-swap
sector per class of each S_z block, is kept for the last n, so the points
at one n share it across runs, limit-scan edge refinements included; the
exact tier keeps nothing between passes.
evaluate_point is a run of one. Output ordering follows the input order
whatever the worker count, and a point's values do not depend on its run,
so CSV/JSON files are byte-identical across runs and across parallelism
levels at a fixed BLAS thread count. The bruteforce tier's values move at
rounding level with that count at n = 14, where LAPACK picks other
eigenvectors inside degenerate eigenspaces.

A limit scan probes a grid along T or b, takes each probe's signed margin
above the entangled flag once, and reads its bands off the positive
margins. _scan_limits takes a list of scans on one probe axis: the probes
of all of them are one evaluate_points call, and every band edge of all
of them a bracket of one quadrature.bracket_roots call, which evaluates
the next point of every open edge in one list a round, so the edges of a
round share a run. An edge next to an undefined probe, or at an end of
the grid, is a zero-width bracket at its probe and costs nothing.
limit_temperature and limit_field are a scan of one, limit_temperatures
the scans at many points of one (n, v, gamma); each edge is bit for bit
the one a scan of its point alone finds.

CSV schema (fixed column order):

    tier,n,v,gamma,b,T,logZ,Sz,Sz2,S2,C,nC,EoF,status

Missing values are empty fields, never NaN text.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from itertools import groupby
from math import inf, isfinite

import numpy as np

from . import cmfa, cspa, exact
from .errors import (BreakdownError, DomainError, NotApplicableError,
                     XxzentError)
from .model import ModelParams
from .quadrature import bracket_roots

__all__ = [
    "TIERS",
    "GridAxis",
    "SweepSpec",
    "check_tier",
    "CurvePoint",
    "evaluate_point",
    "evaluate_points",
    "evaluate_run",
    "run_sweep",
    "limit_temperature",
    "limit_temperatures",
    "limit_field",
    "LimitResult",
    "points_to_csv",
    "points_to_json",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("tier", "n", "v", "gamma", "b", "T", "logZ", "Sz", "Sz2", "S2",
               "C", "nC", "EoF", "status")

# points per run of evaluate_points: a row of figure 2 (30 or 40 points),
# or the probe grid of a figure's or the benchmark's limit scan (22 to 40
# probes), is one run, one array pass at gamma = 1. A CSPA pass costs
# mostly its fixed overhead: figure 2 takes 0.052 s in runs of 40 or 64,
# 0.055 s in runs of 32 and 0.073 s in runs of 8 (best of 20, one Xeon
# core), and a pass of 40 rows faults in no fresh pages
RUN_POINTS = 40


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter: name in {"b", "T"}, linear or log spacing."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str = "lin"

    def __post_init__(self):
        if self.name not in ("b", "T"):
            raise DomainError(f"sweep axis must be 'b' or 'T', got {self.name!r}")
        if not (isfinite(self.lo) and isfinite(self.hi)):
            raise DomainError(f"grid ends must be finite, got {self.lo}, {self.hi}")
        if self.count < 2:
            raise DomainError("grid counts must be >= 2")
        if not (isfinite(self.count) and self.count == int(self.count)):
            raise DomainError(f"grid counts must be integers, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        if not self.lo < self.hi:
            raise DomainError("grid needs lo < hi")
        if self.scale not in ("lin", "log"):
            raise DomainError("grid scale must be 'lin' or 'log'")
        if self.scale == "log" and self.lo <= 0:
            raise DomainError("log grid needs lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A tier, fixed model parameters, and one or two grid axes."""

    tier: str
    fixed: ModelParams
    axes: tuple

    def __post_init__(self):
        check_tier(self.tier, self.fixed.n)
        if not self.axes:
            raise DomainError("at least one grid axis required")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise DomainError("duplicate sweep axes")

    def points(self):
        """Deterministic row-major enumeration of the grid."""
        grids = [a.values() for a in self.axes]
        names = [a.name for a in self.axes]
        out = []
        for combo in np.ndindex(*(len(g) for g in grids)):
            kw = {nm: float(g[i]) for nm, g, i in zip(names, grids, combo)}
            out.append(self.fixed.replace(**kw))
        return out


@dataclass(frozen=True)
class CurvePoint:
    """One evaluated grid point; concurrence fields are set iff status == ok.

    ``wall_time`` is an even share of the time of the run the point was
    evaluated in (see evaluate_points)."""

    tier: str
    params: ModelParams
    status: str
    moments: exact.CollectiveMoments | None = None
    result: exact.ConcurrenceResult | None = None
    logZ: float | None = None
    wall_time: float = 0.0
    message: str = ""

    def values(self) -> tuple:
        """The point's cells in CSV_COLUMNS order, None where missing: ln Z
        from the moments where the tier gave none of its own and theirs is
        finite, and C, nC and EoF on ok points only."""
        p, m, logZ = self.params, self.moments, self.logZ
        sz = sz2 = s2 = c = nc = eof = None
        if m is not None:
            sz, sz2, s2 = m.sz, m.sz2, m.s2
            if logZ is None and isfinite(m.logZ):
                logZ = m.logZ
        if self.result is not None and self.status == "ok":
            c, eof = self.result.concurrence, self.result.eof
            nc = p.n * c
        return (self.tier, p.n, p.v, p.gamma, p.b, p.T, logZ, sz, sz2, s2, c,
                nc, eof, self.status)

    def row(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.values()))


def _bruteforce(params):
    # C from the partial trace of the pairwise Hamiltonian's thermal state,
    # the route that is independent of the collective spectrum
    moments, rho2 = exact.brute_force_observables(params)
    return moments, exact.wootters_margin(rho2), None


def _exact(points, epsrel):
    # T = 0 points take the ground-state path inside the batch
    def margin(observed):
        moments, pair = observed
        return moments, exact.concurrence_margin(pair), None

    return _each(margin, exact.thermal_observables_batch(points))


def _cspa(points, epsrel):
    def margin(params, moments):
        pair = exact.pair_state(moments, params.n, tol=1e-6)
        return moments, exact.concurrence_margin(pair), None

    return _each(margin, points,
                 cspa.cspa_moments_batch(points, "cspa", epsrel))


def _spa(points, epsrel):
    return _each(lambda moments: (moments, None, None),
                 cspa.cspa_moments_batch(points, "spa", epsrel))


def _cmfa(params):
    """Analytic moments in the deformed window, C = 0 in the normal phase.

    In the normal phase (|b| >= gamma v or T >= T_c) the CMFA cannot sustain
    pair entanglement (its far-field bracket is strictly negative), so C is
    exactly zero with the normal-phase ln Z. Every refusal outside the
    CMFA's window is a NotApplicableError, so the point reads
    not-applicable: gamma <= 0, the complex window (T <= Ttilde,
    |b| > b*), chi >= 1 and a non-positive normal-phase RPA mode. T = 0
    is ModelParams.beta's DomainError, an error.
    """
    if params.gamma <= 0:
        raise NotApplicableError("CMFA closed forms require gamma > 0")
    sol = cmfa.gap_solve(params)
    if sol.phase != "deformed":
        return None, None, cmfa.cmfa_logZ(params, sol)
    moments = cmfa.cmfa_moments(params, sol)
    pair = exact.pair_state(moments, params.n, tol=1e-8)
    return moments, exact.concurrence_margin(pair), None


def _mfa(params):
    return cmfa.mfa_product_moments(params), None, None


def _each(f, *columns):
    """f over the zipped columns, one outcome per item: what f returns or
    raises; an item with an exception in a column keeps that exception."""
    out = []
    for args in zip(*columns):
        failed = [a for a in args if isinstance(a, Exception)]
        if failed:
            out.append(failed[0])
            continue
        try:
            out.append(f(*args))
        except Exception as err:     # a sweep outlives any one point
            out.append(err)
    return out


def _per_point(evaluate):
    """The run evaluator of a tier that evaluates one point at a time
    (bruteforce, cmfa, mfa) and reads no epsrel."""
    return lambda points, epsrel: _each(evaluate, points)


# tier -> evaluator(points, epsrel) -> one outcome per point: an exception,
# or (moments or None, margin or None, logZ or None). The exact, cspa and
# spa evaluators take the run in shared array passes, the others through
# _per_point one point at a time. The margin is the signed quantity whose
# positive part is C: 2(|alpha| - sqrt(p+ p-)) of the pair state, or
# Wootters' l1 - l2 - l3 - l4 for bruteforce. None means C = 0 by
# construction: the SPA thermal state is a positive mixture of product
# states and the MFA state a single product state, so neither carries pair
# entanglement, and both compute the moments for the output columns only
# (the concurrence formula on them would read out quadrature noise).
_EVALUATORS = {"bruteforce": _per_point(_bruteforce),
               "exact": _exact, "cspa": _cspa, "spa": _spa,
               "cmfa": _per_point(_cmfa), "mfa": _per_point(_mfa)}
TIERS = tuple(_EVALUATORS)


def check_tier(tier: str, n: int) -> None:
    """DomainError for an unknown tier, or for n past the bruteforce cap:
    the arguments of a sweep, a limit scan or a single point, checked
    before any point is evaluated."""
    if tier not in TIERS:
        raise DomainError(f"unknown tier {tier!r}; choose from {TIERS}")
    if tier == "bruteforce":
        exact.check_brute_force_n(n)


# exception -> point status, one class each; any other exception is an error
_STATUSES = ((BreakdownError, "breakdown"),
             (NotApplicableError, "not-applicable"),
             (XxzentError, "error"))


def _failure(err: Exception):
    """(status, message) of a point whose evaluation raised ``err``."""
    for types, status in _STATUSES:
        if isinstance(err, types):
            return status, str(err)
    return "error", f"{type(err).__name__}: {err}"


def _outcomes(tier: str, points, epsrel: float) -> list:
    """One outcome per point: (moments, ConcurrenceResult, logZ) or the
    exception raised. A run whose evaluator raises is evaluated again one
    point at a time."""
    try:
        if tier not in _EVALUATORS:
            raise DomainError(f"unknown tier {tier!r}")
        outcomes = _EVALUATORS[tier](points, epsrel)
    except Exception as err:     # a sweep outlives any one point
        if len(points) == 1:
            return [err]
        return [out for p in points for out in _outcomes(tier, [p], epsrel)]
    return _each(_result, points, outcomes)


def _result(params, outcome):
    """(moments, ConcurrenceResult, logZ) of an evaluator's outcome; an
    XxzentError where a value the point carries is not finite. Values absent
    by design are None, or ln Z NaN on the moments of a T = 0 point."""
    moments, margin, logZ = outcome
    values = [margin, logZ]
    if moments is not None:
        values += [moments.sz, moments.sz2, moments.s2]
        if params.T > 0:
            values.append(moments.logZ)
    if not all(isfinite(x) for x in values if x is not None):
        raise XxzentError("non-finite result")
    return moments, exact.concurrence_from_margin(margin), logZ


def evaluate_run(tier: str, points, epsrel: float = 1e-10) -> list:
    """Evaluate one tier at a run of parameter points (at one n, v and
    gamma), capturing failures as status; one CurvePoint per point.

    No exception escapes: package errors map to breakdown, not-applicable
    or error, and any other exception to error with its type in the message.
    """
    t0 = time.perf_counter()
    outcomes = _outcomes(tier, points, epsrel)
    share = (time.perf_counter() - t0) / max(len(points), 1)
    out = []
    for params, outcome in zip(points, outcomes):
        if isinstance(outcome, Exception):
            status, message = _failure(outcome)
            out.append(CurvePoint(tier=tier, params=params, status=status,
                                  wall_time=share, message=message))
        else:
            moments, result, logZ = outcome
            out.append(CurvePoint(tier=tier, params=params, status="ok",
                                  moments=moments, result=result, logZ=logZ,
                                  wall_time=share))
    return out


def evaluate_point(tier: str, params: ModelParams,
                   epsrel: float = 1e-10) -> CurvePoint:
    """Evaluate one tier at one parameter point: a run of one."""
    return evaluate_run(tier, [params], epsrel)[0]


def _runs(points):
    """Consecutive points at one (n, v, gamma), at most RUN_POINTS a run."""
    for _, group in groupby(points, key=lambda p: (p.n, p.v, p.gamma)):
        group = list(group)
        for i in range(0, len(group), RUN_POINTS):
            yield group[i:i + RUN_POINTS]


def _run_star(args):
    return evaluate_run(*args)


def evaluate_points(tier: str, params, epsrel: float = 1e-10,
                    workers: int = 1):
    """Evaluate the tier at every ModelParams in ``params``, in order, run
    by run; a pool of ``workers`` processes, never more than there are
    runs, maps the same runs, and only then is the pool module imported.
    A DomainError for workers < 1 or not an integer."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if not (isfinite(workers) and workers == int(workers)):
        raise DomainError(f"workers must be an integer, got {workers}")
    jobs = [(tier, run, epsrel) for run in _runs(params)]
    workers = min(int(workers), len(jobs))
    if workers <= 1:
        done = [_run_star(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_star, jobs))
    return [pt for run in done for pt in run]


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Evaluate the tier on every grid point; output ordered by grid index."""
    return evaluate_points(spec.tier, spec.points(), workers=workers)


# ----------------------------------------------------------------------------
# Limit temperature / field
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitResult:
    """Entanglement bands along one scanned axis.

    ``intervals`` lists (onset, end) pairs where C > 0, ascending; an end of
    None marks a band still open at the last probe. ``limit`` is the end of
    the last band: None when no entanglement was found anywhere (the
    zero-entanglement marker), and None when the last band is still open,
    since the probes do not reach its end. ``statuses`` holds each probe's
    status; a probe whose status is not ok has C undefined and never enters
    a band.
    """

    intervals: tuple
    limit: float | None
    n_probes: int
    statuses: tuple


def _flag_margin(point) -> float:
    """Signed distance above the entangled flag, margin - ENTANGLED_EPS, so
    > 0 exactly where the point is entangled; -inf gives the side only, for
    an undefined point or one without a margin (C = 0 by construction)."""
    if point.status == "ok" and point.result.margin is not None:
        return float(point.result.margin) - exact.ENTANGLED_EPS
    return -inf


def _bands(margins):
    """(first, last) index of each run of positive margins."""
    out = []
    for positive, run in groupby(range(len(margins)),
                                 key=lambda i: margins[i] > 0):
        if positive:
            run = list(run)
            out.append((run[0], run[-1]))
    return out


def _scan_limits(tier, fixed, axis: GridAxis, epsrel):
    """Bands of C > 0 over one probe sweep along ``axis`` from each point of
    ``fixed``, one LimitResult per point.

    Each probe's _flag_margin is taken once, and a band is a run of
    positive margins: the entangled probes. Every band edge is a bracket
    between the band's outer probe and its neighbour, refined to 1e-6 v by
    ITP on the margin. Where the neighbour is undefined or off the grid
    the bracket has zero width at the outer probe, which ITP returns
    without evaluating anything; the end of a band open at the top of the
    grid is then dropped. An undefined refinement point counts as not
    entangled, which moves the bracket toward its defined, entangled side.

    The probes of every scan go through one evaluate_points call, and the
    edges of every scan through one bracket_roots call: each round of the
    root finder evaluates the next point of every open edge as one list,
    so the edges share a run a round instead of taking a run a point. A
    point's values do not depend on its run, so each edge is the one a
    scan of its point alone finds, bit for bit.
    """
    check_tier(tier, fixed[0].n)
    grid = [float(x) for x in axis.values()]
    m = len(grid)
    probes = evaluate_points(
        tier, [p.replace(**{axis.name: x}) for p in fixed for x in grid],
        epsrel)
    margins = [_flag_margin(pt) for pt in probes]
    starts = range(0, len(probes), m)       # each scan's first probe
    bands = [_bands(margins[at:at + m]) for at in starts]
    # every band's onset and end, flat in scan order
    brackets, owners = [], []
    for at, params, spans in zip(starts, fixed, bands):
        for i, j in spans:
            for outer, k in ((i, i - 1), (j, j + 1)):
                if not (0 <= k < m and probes[at + k].status == "ok"):
                    k = outer
                (lo, g_lo), (hi, g_hi) = sorted(
                    (grid[x], margins[at + x]) for x in (outer, k))
                brackets.append((lo, g_lo, hi, g_hi, 1e-6 * params.v))
                owners.append(params)

    def g(which, xs):
        return [_flag_margin(pt) for pt in evaluate_points(
            tier, [owners[w].replace(**{axis.name: x})
                   for w, x in zip(which, xs)], epsrel)]

    roots = iter(bracket_roots(g, brackets))
    out = []
    for at, spans in zip(starts, bands):
        # two roots a band, onset then end
        intervals = tuple((onset, end if j < m - 1 else None)
                          for (_, j), onset, end in zip(spans, roots, roots))
        out.append(LimitResult(
            intervals=intervals,
            limit=intervals[-1][1] if intervals else None, n_probes=m,
            statuses=tuple(pt.status for pt in probes[at:at + m])))
    return out


def limit_temperature(tier: str, params: ModelParams, t_min: float | None = None,
                      t_max: float | None = None, probes: int = 60,
                      epsrel: float = 1e-10) -> LimitResult:
    """Roots of C(T) = 0 for the given tier: every onset interval, and the
    limit temperature T_L, the end of the last one.

    Probes a log-spaced T grid in [1e-3 v, v] by default, brackets every
    C > 0 <-> C = 0 transition and refines each to 1e-6 v by an ITP root
    find on the signed concurrence margin. Reentrant bands (CSPA just above
    the critical field) come out as separate intervals with their onset
    temperatures. The limit is None when C > 0 nowhere, or when the last
    band is still open at t_max. A scan of one (see limit_temperatures).
    A grid that GridAxis rejects, or a tier that check_tier rejects, raises
    DomainError.
    """
    return limit_temperatures(tier, [params], t_min, t_max, probes, epsrel)[0]


def limit_temperatures(tier: str, fixed, t_min: float | None = None,
                       t_max: float | None = None, probes: int = 60,
                       epsrel: float = 1e-10) -> list:
    """limit_temperature at each ModelParams of ``fixed``, which share n, v
    and gamma (a DomainError otherwise), scanned together: all probes in
    one evaluation loop and all band edges refined in lockstep. Each result
    is bit for bit that of limit_temperature at its point alone."""
    if len({(p.n, p.v, p.gamma) for p in fixed}) != 1:
        raise DomainError("limit_temperatures needs one or more points that "
                          "share n, v and gamma")
    v = fixed[0].v
    t_min = 1e-3 * v if t_min is None else t_min
    t_max = v if t_max is None else t_max
    axis = GridAxis("T", t_min, t_max, probes, "log")
    return _scan_limits(tier, fixed, axis, epsrel)


def limit_field(tier: str, params: ModelParams, b_min: float = 0.0,
                b_max: float | None = None, probes: int = 60,
                epsrel: float = 1e-10) -> LimitResult:
    """Roots of C(b) = 0 at fixed T: every band along b, and the limit
    field, the end of the last one (None when C > 0 nowhere, or when the
    last band is still open at b_max).

    The exact tier's far-field entanglement decays like e^{-beta(b - b_c)}
    and is positive until it falls below the entangled-flag floor, so the
    reported far edge is detection-limited (it tightens to b_c as T -> 0).
    A grid that GridAxis rejects, or a tier that check_tier rejects, raises
    DomainError.
    """
    v = params.v
    b_max = 3.0 * v if b_max is None else b_max
    return _scan_limits(tier, [params], GridAxis("b", b_min, b_max, probes),
                        epsrel)[0]


# ----------------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------------

def _value(x):
    """A cell's value: a float (numpy ones too) as a float, or None where it
    is missing or not finite; any other value as it is."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if isfinite(x) else None
    return x


def _fmt(x) -> str:
    """A cell's text: _value's value as str, empty where it is None. A plain
    float, most cells of a file, takes that rule without the call."""
    if type(x) is float:
        return str(x) if isfinite(x) else ""
    x = _value(x)
    return "" if x is None else str(x)


def _text(columns, rows) -> str:
    """CSV text of rows of values in ``columns`` order, one cell rule for
    every file (_fmt)."""
    lines = [",".join(columns)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _cells(points, columns):
    """Each point's values, straight from CurvePoint.values, in the order
    of ``columns`` (a subset of CSV_COLUMNS)."""
    at = [CSV_COLUMNS.index(c) for c in columns]
    return ([values[i] for i in at]
            for values in map(CurvePoint.values, points))


def points_to_csv(points, columns=CSV_COLUMNS) -> str:
    """CSV text of the points' values in the order of ``columns``."""
    return _text(columns, _cells(points, columns))


def points_to_json(points, spec: SweepSpec | None = None,
                   columns=CSV_COLUMNS) -> str:
    """JSON text of the spec, if any, and of the points' values keyed by
    ``columns``: the cells points_to_csv writes, None where it writes an
    empty field."""
    head = {}
    if spec is not None:
        head = {"tier": spec.tier, "fixed": asdict(spec.fixed),
                "axes": [asdict(a) for a in spec.axes],
                "outputs": list(columns)}
    rows = [dict(zip(columns, map(_value, cells)))
            for cells in _cells(points, columns)]
    return json.dumps({"spec": head, "points": rows}, indent=1) + "\n"
