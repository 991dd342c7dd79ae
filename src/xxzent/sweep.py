"""Tier table, parameter sweeps, limit temperatures/fields, and file output.

Each tier is one entry of a ``tier -> evaluator`` table; evaluate_point is
the one place that runs an evaluator, times it and turns what it raised into
the point's status, so no exception of any type aborts a sweep.
evaluate_points is the evaluation loop over a list of parameter points, used
by run_sweep and by the reference figures. Output ordering follows the input
order whatever the worker count, so CSV/JSON files are byte-identical across
runs and across parallelism levels.

CSV schema (fixed column order):

    tier,n,v,gamma,b,T,logZ,Sz,Sz2,S2,C,nC,EoF,status

Missing values are empty fields, never NaN text.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cmfa, cspa, exact
from .errors import (BreakdownError, DomainError, NotApplicableError,
                     PhaseError, XxzentError)
from .model import ModelParams

__all__ = [
    "TIERS",
    "GridAxis",
    "SweepSpec",
    "CurvePoint",
    "evaluate_point",
    "evaluate_points",
    "run_sweep",
    "limit_temperature",
    "limit_field",
    "LimitResult",
    "points_to_csv",
    "points_to_json",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("tier", "n", "v", "gamma", "b", "T", "logZ", "Sz", "Sz2", "S2",
               "C", "nC", "EoF", "status")


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
        if self.count < 2:
            raise DomainError("grid counts must be >= 2")
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
    outputs: tuple = CSV_COLUMNS
    mode_epsrel: float = 1e-10   # quadrature budget for the cspa/spa tiers

    def __post_init__(self):
        if self.tier not in TIERS:
            raise DomainError(f"unknown tier {self.tier!r}; choose from {TIERS}")
        if self.tier == "bruteforce" and self.fixed.n > exact.BRUTE_FORCE_MAX_N:
            raise DomainError(
                f"bruteforce tier caps at n = {exact.BRUTE_FORCE_MAX_N}")
        if not self.axes:
            raise DomainError("at least one grid axis required")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise DomainError("duplicate sweep axes")
        unknown = [c for c in self.outputs if c not in CSV_COLUMNS]
        if unknown:
            raise DomainError(f"unknown output columns {unknown}")

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
    """One evaluated grid point; concurrence fields are set iff status == ok."""

    tier: str
    params: ModelParams
    status: str
    moments: exact.CollectiveMoments | None = None
    result: exact.ConcurrenceResult | None = None
    logZ: float | None = None
    wall_time: float = 0.0
    message: str = ""

    def row(self) -> dict:
        p = self.params
        r = {"tier": self.tier, "n": p.n, "v": p.v, "gamma": p.gamma,
             "b": p.b, "T": p.T, "logZ": self.logZ, "Sz": None, "Sz2": None,
             "S2": None, "C": None, "nC": None, "EoF": None,
             "status": self.status}
        if self.moments is not None:
            r["Sz"], r["Sz2"], r["S2"] = self.moments.sz, self.moments.sz2, \
                self.moments.s2
            if self.logZ is None and np.isfinite(self.moments.logZ):
                r["logZ"] = self.moments.logZ
        if self.result is not None and self.status == "ok":
            r["C"] = self.result.concurrence
            r["nC"] = p.n * self.result.concurrence
            r["EoF"] = self.result.eof
        return r


def _pair_C(pair: exact.PairState, n: int) -> float:
    return exact.concurrence(pair, n).concurrence


def _bruteforce(params, epsrel):
    # C from the partial trace of the dense thermal state, the route that is
    # independent of the collective spectrum
    moments, rho2 = exact.brute_force_observables(params)
    return moments, exact.wootters_concurrence(rho2), None


def _exact(params, epsrel):
    if params.T == 0:
        moments = exact.ground_state_moments(params)
        pair = exact.ground_state_pair_state(params)
    else:
        moments, pair = exact.thermal_observables(params)
    return moments, _pair_C(pair, params.n), None


def _cspa(params, epsrel):
    moments = cspa.cspa_moments(params, mode="cspa", epsrel=epsrel)
    pair = exact.pair_state(moments, params.n, tol=1e-6, clamp=True)
    return moments, _pair_C(pair, params.n), None


def _spa(params, epsrel):
    return cspa.cspa_moments(params, mode="spa", epsrel=epsrel), 0.0, None


def _cmfa(params, epsrel):
    """Analytic moments in the deformed window, C = 0 in the normal phase.

    In the normal phase (|b| >= gamma v or T >= T_c) the CMFA cannot sustain
    pair entanglement (its far-field bracket is strictly negative), so C is
    exactly zero with the normal-phase ln Z; in the complex window
    (T <= Ttilde, b > b*) the tier is not applicable.
    """
    sol = cmfa.gap_solve(params)
    if params.gamma <= 0:
        raise NotApplicableError("CMFA closed forms require gamma > 0")
    if sol.phase != "deformed":
        return None, 0.0, cmfa.cmfa_logZ(params)
    if not sol.applicable:
        raise NotApplicableError(f"b > b* = {sol.b_star:.6g} at T <= Ttilde")
    moments = cmfa.cmfa_moments(params)
    pair = exact.pair_state(moments, params.n, tol=1e-8, clamp=True)
    return moments, _pair_C(pair, params.n), None


def _mfa(params, epsrel):
    return cmfa.mfa_product_moments(params), 0.0, None


# tier -> evaluator(params, epsrel) -> (moments or None, C, logZ or None).
# The SPA thermal state is a positive mixture of product states and the MFA
# state a single product state: neither carries pair entanglement, so both
# report C = 0 and compute the moments for the output columns only (the
# concurrence formula on them would read out finite-difference noise).
_EVALUATORS = {"bruteforce": _bruteforce, "exact": _exact, "cspa": _cspa,
               "spa": _spa, "cmfa": _cmfa, "mfa": _mfa}
TIERS = tuple(_EVALUATORS)

# exception -> point status; any other exception is an error
_STATUSES = ((BreakdownError, "breakdown"),
             ((NotApplicableError, PhaseError), "not-applicable"),
             (XxzentError, "error"))


def _failure(err: Exception):
    """(status, message) of a point whose evaluation raised ``err``."""
    for types, status in _STATUSES:
        if isinstance(err, types):
            return status, str(err)
    return "error", f"{type(err).__name__}: {err}"


def evaluate_point(tier: str, params: ModelParams,
                   epsrel: float = 1e-10) -> CurvePoint:
    """Evaluate one tier at one parameter point, capturing failures as status.

    No exception escapes: package errors map to breakdown, not-applicable
    or error, and any other exception to error with its type in the message.
    """
    t0 = time.perf_counter()
    status, message, moments, result, logZ = "ok", "", None, None, None
    try:
        if tier not in _EVALUATORS:
            raise DomainError(f"unknown tier {tier!r}")
        moments, C, logZ = _EVALUATORS[tier](params, epsrel)
        result = exact.ConcurrenceResult(
            concurrence=C, eof=exact.eof_from_concurrence(C),
            entangled=bool(C > exact.ENTANGLED_EPS), tier=tier)
    except Exception as err:     # a sweep outlives any one point
        status, message = _failure(err)
    return CurvePoint(tier=tier, params=params, status=status,
                      moments=moments, result=result, logZ=logZ,
                      wall_time=time.perf_counter() - t0, message=message)


def _eval_star(args):
    return evaluate_point(*args)


def evaluate_points(tier: str, params, epsrel: float = 1e-10,
                    workers: int = 1):
    """Evaluate the tier at every ModelParams in ``params``, in order."""
    jobs = [(tier, p, epsrel) for p in params]
    if workers <= 1:
        return [_eval_star(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eval_star, jobs, chunksize=4))


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Evaluate the tier on every grid point; output ordered by grid index."""
    return evaluate_points(spec.tier, spec.points(), spec.mode_epsrel, workers)


# ----------------------------------------------------------------------------
# Limit temperature / field
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitResult:
    """Entanglement bands along one scanned axis.

    ``intervals`` lists (onset, end) pairs where C > 0, ascending; an end of
    None marks a band still open at the last probe. ``limit`` is the largest
    refined root (None when no entanglement was found anywhere: the
    zero-entanglement marker). Probes whose status is not ok are treated as
    C undefined and never enter a band.
    """

    intervals: tuple
    limit: float | None
    n_probes: int
    statuses: tuple

    @property
    def entangled_anywhere(self) -> bool:
        return bool(self.intervals)


def _positive(tier, params, epsrel) -> bool | None:
    pt = evaluate_point(tier, params, epsrel)
    if pt.status != "ok":
        return None
    return pt.result.entangled


def _bisect_edge(tier, params, axis, lo, hi, lo_pos, tol, epsrel):
    """Refine a C>0 <-> C=0 edge between two probe values of b or T."""
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        pos = _positive(tier, params.replace(**{axis: mid}), epsrel)
        if pos is None:            # undefined mid-point: shrink toward defined side
            if lo_pos:
                hi = mid
            else:
                lo = mid
            continue
        if pos == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_limit(tier, params, axis, grid, tol, epsrel):
    flags = [_positive(tier, params.replace(**{axis: float(x)}), epsrel)
             for x in grid]
    statuses = tuple("ok" if f is not None else "undefined" for f in flags)
    intervals = []
    limit = None
    start = None
    for i, f in enumerate(flags):
        prev = flags[i - 1] if i else None
        if f and start is None:
            if i > 0 and prev is False:
                onset = _bisect_edge(tier, params, axis, float(grid[i - 1]),
                                     float(grid[i]), False, tol, epsrel)
            else:
                onset = float(grid[i])
            start = onset
        elif not f and start is not None:
            if f is False:
                end = _bisect_edge(tier, params, axis, float(grid[i - 1]),
                                   float(grid[i]), True, tol, epsrel)
            else:
                end = float(grid[i - 1])
            intervals.append((start, end))
            limit = end
            start = None
    if start is not None:
        intervals.append((start, None))   # band open at the top of the probe grid
    return LimitResult(intervals=tuple(intervals), limit=limit,
                       n_probes=len(grid), statuses=statuses)


def limit_temperature(tier: str, params: ModelParams, t_min: float | None = None,
                      t_max: float | None = None, probes: int = 60,
                      tol: float | None = None,
                      epsrel: float = 1e-10) -> LimitResult:
    """Largest root of C(T) = 0 for the given tier, plus all onset intervals.

    Probes a log-spaced T grid in [1e-3 v, v] by default, brackets every
    C > 0 <-> C = 0 transition and refines each by bisection to tol
    (default 1e-6 v). Reentrant bands (CSPA just above the critical field)
    come out as separate intervals with their onset temperatures.
    """
    v = params.v
    t_min = 1e-3 * v if t_min is None else t_min
    t_max = v if t_max is None else t_max
    tol = 1e-6 * v if tol is None else tol
    grid = np.geomspace(t_min, t_max, probes)
    return _scan_limit(tier, params, "T", grid, tol, epsrel)


def limit_field(tier: str, params: ModelParams, b_min: float = 0.0,
                b_max: float | None = None, probes: int = 60,
                tol: float | None = None,
                epsrel: float = 1e-10) -> LimitResult:
    """Largest root of C(b) = 0 at fixed T, plus any far-field bands.

    The exact tier's far-field entanglement decays like e^{-beta(b - b_c)}
    and is positive until it falls below the entangled-flag floor, so the
    reported far edge is detection-limited (it tightens to b_c as T -> 0).
    """
    v = params.v
    b_max = 3.0 * v if b_max is None else b_max
    tol = 1e-6 * v if tol is None else tol
    grid = np.linspace(b_min, b_max, probes)
    return _scan_limit(tier, params, "b", grid, tol, epsrel)


# ----------------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not np.isfinite(x):
            return ""
        return repr(x)
    return str(x)


def points_to_csv(points, columns=CSV_COLUMNS) -> str:
    lines = [",".join(columns)]
    for pt in points:
        row = pt.row()
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def points_to_json(points, spec: SweepSpec | None = None) -> str:
    def clean(row):
        out = {}
        for k, v in row.items():
            if isinstance(v, (float, np.floating)):
                v = float(v)
                if not np.isfinite(v):
                    v = None
            out[k] = v
        return out

    head = {}
    if spec is not None:
        head = {"tier": spec.tier,
                "fixed": {"n": spec.fixed.n, "v": spec.fixed.v,
                          "gamma": spec.fixed.gamma, "b": spec.fixed.b,
                          "T": spec.fixed.T},
                "axes": [{"name": a.name, "lo": a.lo, "hi": a.hi,
                          "count": a.count, "scale": a.scale}
                         for a in spec.axes],
                "outputs": list(spec.outputs)}
    doc = {"spec": head, "points": [clean(pt.row()) for pt in points]}
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"
