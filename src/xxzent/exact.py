"""Exact thermodynamics and pairwise entanglement of the fully connected XXZ model.

Everything here comes from the collective spectrum sum

    Z = sum_S Y(S) sum_M exp(-beta E_SM).

A level's log-weight ln Y(S) - beta E_SM is c_S + f(M): a sector term plus
a quadratic in M, coupled only through |M| <= S. So Z and the other six
sums are sums over the columns M of e^f(M) times suffix sums over the
sectors S >= |M|, taken once per point with np.logaddexp.accumulate
(see :func:`thermal_observables_batch`). The levels of sector S are the
columns |M| <= S, so every sector's largest level is c_S plus a prefix
maximum of f over |M|. Sectors whose maximum lies more than 60 + 2 ln(n+1)
below the global peak, and columns that far below the largest column, are
skipped. The skipped mass is at most e^-60 Z, which moves the concurrence
by less than 3e-13. A point works only where that leaves anything: on a
bracket of sectors around its live ones, which an estimate of the sector
maxima on a grid finds and a bound on them certifies (:func:`_live_sectors`),
and on the window of columns within the cut (:func:`_column_window`). ln Y(S)
is mapped there alone, two lgamma calls a sector, and nothing is kept
between points. A run shares its array passes up to _PASS_SECTORS entries
(every point of a run at n = 20, 16 points at n = 1000, one point from
n = 8192), so at small n a point costs a share of the numpy calls instead
of all of them. At n = 10^6 (T = 0.1 v, b = 0.3 v) a point takes about
2 ms and its bracket 163 sectors of 500,001; at n = 10^8 about 12 ms and
42 MB for the whole process, at n = 10^9 about 0.1 s and 72 MB (one Xeon
core). ln Y itself, by lgamma, rounds to about 3e-9 absolute at
n = 10^6 and 6e-6 at 10^9 (see :mod:`xxzent.model`): huge-n points are
references for time and memory, not for 1e-10. The T = 0 path
(:func:`_ground_levels`) stays O(n).

The symmetric two-qubit reduced state is

    rho_2 = [[p+, 0,     0,   0 ],
             [0,  p,     alpha, 0],
             [0,  alpha, p,   0 ],
             [0,  0,     0,   p-]]        (basis of s^z_i, s^z_j eigenstates)

with p+- and alpha fixed by the three collective averages <S_z>, <S_z^2>,
<S^2>.  Besides the textbook combinations used by :func:`pair_state`, the
exact tier evaluates p+, p-, alpha directly as Boltzmann sums of the shifted
operators

    n(n-1) p+    = <(S_z + n/2)(S_z + n/2 - 1)>
    n(n-1) p-    = <(n/2 - S_z)(n/2 - S_z - 1)>
    n(n-1) alpha = <S^2 - S_z^2 - n/2>

whose per-level weights are small integers near alignment.  This is
algebraically identical but free of the catastrophic cancellation that the
moment-difference route suffers for |b| >> b_c, where p+ can be ~1e-14.

Concurrence:  C = 2 [ |alpha| - sqrt(p+ p-) ]_+, with the entanglement of
formation E = -sum q_+- log2 q_+-, q_+- = (1 +- sqrt(1-C^2))/2.

A brute-force oracle (n <= 14) is included for cross-validation. It builds
the Hamiltonian from its explicit site-pair sum and uses only symmetries of
any sum over all site pairs, never the collective spectrum or Y(S): S_z
conservation, the site permutations and the global spin flip. On the block
with k down spins the pair sum is H = -V F + c_k: the flip-flop sum
F = sum_{i != j} (s^x_i s^x_j + s^y_i s^y_j) depends on n alone, and the
diagonal c_k is the same on every state of the block (checked). The swaps
of the site pairs (0, 1), (2, 3), ... commute with F, so their parities
split each block into sectors sigma (the odd pairs). A permutation of the
pairs that fixes pair (0, 1) maps sector sigma onto pi(sigma) with the same
spectrum and the same rho_2 of sites (0, 1), so only one canonical sector
per class (|sigma|, pair 0 odd or not) is diagonalized, one eigh each, its
columns weighted by the class size: 63 sector matrices at n = 14 instead
of 576, and 4372 columns instead of 16384 (the largest sector has 393
states, the largest block 3432). Blocks k > n // 2 come from block n - k
by the global spin flip. The eigen-rows serve every (v, gamma, b, T) at
that n and are kept for the last n (:func:`_flip_flop_rows`), with rho_2
of sites (0, 1) read off the sectors. On one Xeon core (OpenBLAS, one
thread) the first point at an n takes about 0.004 s at n = 11, 0.017 s at
n = 13 and 0.042 s at n = 14 (a 7 MB tracemalloc peak for the table,
45 MB peak RSS for the whole CLI process), and each later point under
0.1 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil, comb, floor, inf, isfinite, log, sqrt
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InconsistentMomentsError, XxzentError
from .model import ModelParams, _level_energy_2, log_multiplicity_span

__all__ = [
    "CollectiveMoments",
    "PairState",
    "ConcurrenceResult",
    "exact_moments",
    "thermal_observables",
    "thermal_observables_batch",
    "ground_state_observables",
    "ground_state_moments",
    "ground_state_pair_state",
    "pair_state",
    "concurrence",
    "concurrence_margin",
    "concurrence_from_margin",
    "eof_from_concurrence",
    "brute_force_observables",
    "brute_force_pair_density",
    "wootters_margin",
]

BRUTE_FORCE_MAX_N = 14
ENTANGLED_EPS = 1e-14      # C above this counts as entangled (absorbs roundoff)


@dataclass(frozen=True)
class CollectiveMoments:
    """The collective averages <S_z>, <S_z^2>, <S^2> plus ln Z.

    These three averages fully determine the symmetric two-qubit reduced
    density. ``logZ`` is NaN where ln Z is not defined (T = 0 mixtures).
    """

    sz: float
    sz2: float
    s2: float
    logZ: float = float("nan")

    def check(self, n: int, tol: float = 1e-9):
        """Raise if the moments violate their kinematic bounds."""
        half = n / 2.0
        smax = half * (half + 1.0)
        if abs(self.sz) > half + tol:
            raise InconsistentMomentsError(f"|<S_z>| = {abs(self.sz)} > n/2")
        if not (self.sz ** 2 - tol <= self.sz2 <= half ** 2 + tol):
            raise InconsistentMomentsError(f"<S_z^2> = {self.sz2} out of range")
        if not (-tol <= self.s2 <= smax + tol):
            raise InconsistentMomentsError(f"<S^2> = {self.s2} out of range")
        if self.sz2 > self.s2 + tol:
            raise InconsistentMomentsError("<S_z^2> exceeds <S^2>")


@dataclass(frozen=True)
class PairState:
    """Symmetric two-qubit reduced density (p+, p, p-, alpha); matrix form above."""

    p_plus: float
    p: float
    p_minus: float
    alpha: float


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence plus entanglement of formation for one parameter point.

    ``margin`` is the signed quantity whose positive part is C, or None
    where C is 0 by construction; it stays smooth where C switches on.
    """

    concurrence: float
    eof: float
    entangled: bool
    margin: float | None = None


# ----------------------------------------------------------------------------
# Spectral sums
# ----------------------------------------------------------------------------

CUT_NATS = 60.0   # weight below peak - CUT_NATS - 2 ln(n+1) is skipped
# the points of a run share array passes of at most this many points x
# (n/2 + 1) entries, and at least one point: a pass's arrays span its points'
# bracket, which points at distant T can spread over all n/2 + 1 sectors
# (every point of a run at n = 20, 16 points at n = 1000, one point from
# n = 8192)
_PASS_SECTORS = 8192
# a domain of fewer sectors is its own bracket: the estimate, the bounds
# that certify it and the columns below it would take more numpy calls than
# the sectors they skip
_WHOLE_DOMAIN = 64
# the grid rounds of the estimate take at most _GRID points each, until its
# steps are at most _STEP sectors or 1/64 of the range they span
_GRID = 256
_STEP = 32
# a computed log-weight lies within _ROUNDING times the sum of the sizes of
# its terms of its exact value (its roundings take some 10 ulps; this is 256)
_ROUNDING = 2.0 ** -44


def _rows(n: int, M, ssp1, excess) -> np.ndarray:
    """The seven rows of the spectral sums over levels or columns M; the
    sums are the rows times the weights.

    Rows: 1, M, M^2, S(S+1) (count and the three moments) and
    (M + n/2)(M + n/2 - 1), (n/2 - M)(n/2 - M - 1), S(S+1) - M^2 - n/2
    (the direct p+, p-, alpha sums). The caller passes the S(S+1) row as
    ``ssp1`` and the alpha row as ``excess``, each formed without
    cancellation.
    """
    half = n / 2.0
    return np.stack([np.ones_like(M), M, M * M, ssp1,
                     (M + half) * (M + half - 1.0),
                     (half - M) * (half - M - 1.0), excess])


def _observables(n: int, acc, logZ: float = float("nan")):
    """(CollectiveMoments, PairState) from the seven sums of _rows."""
    Z = acc[0]
    moments = CollectiveMoments(sz=acc[1] / Z, sz2=acc[2] / Z, s2=acc[3] / Z,
                                logZ=logZ)
    den = n * (n - 1.0) * Z
    p_plus, p_minus, alpha = acc[4] / den, acc[5] / den, acc[6] / den
    return moments, PairState(p_plus=p_plus, p=0.5 * (1.0 - p_plus - p_minus),
                              p_minus=p_minus, alpha=alpha)


def _cut(top, n: int):
    """Log-weight below which a level or column is skipped, for a largest
    log-weight ``top`` (a float, or an array of them)."""
    return top - CUT_NATS - 2.0 * log(n + 1.0)


def _one(outcomes):
    """The outcome of a batch of one: its value, or the exception raised."""
    (out,) = outcomes
    if isinstance(out, Exception):
        raise out
    return out


_SIGNS = np.array([[-1.0], [1.0]])     # the rows M = -s and M = +s
_HALVES = np.array([[-0.5], [0.5]])    # Stirling's -+ 1/2, on the same rows


class _Sectors(NamedTuple):
    """The live sectors of the points of a pass (see :func:`_live_sectors`):
    per point (the first axis of each array) its beta and b, then over the
    bracket L..H of sectors c (points x sectors), over the columns
    s = S_j (the sector indices ``j``) f (points x 2 x columns), and over
    the bracket live and peak."""

    beta: np.ndarray
    b: np.ndarray
    L: int
    j: np.ndarray
    c: np.ndarray
    f: np.ndarray
    live: np.ndarray
    peak: np.ndarray


def _sector_estimate(n: int, beta, V: float, a: float, b_abs, S):
    """The largest log-weight sigma(S) of sector S (see
    :func:`_live_sectors`) less a constant, to about 0.2 nats, at the
    sectors S (one row) for each point (beta, b_abs: one column): ln Y(S)
    from Stirling's formula and the largest f(M) over |M| <= S at the
    continuous vertex of f, a = V gamma."""
    x = (n / 2.0 + 1.0) + _SIGNS * S           # n/2 + 1 -+ S
    lnY = np.log(2.0 * S + 1.0) - ((x + _HALVES) * np.log(x)).sum(axis=0)
    m = S if a <= 0.0 else np.minimum(S, b_abs * (0.5 / a))
    return lnY + beta * (V * S * (S + 1.0) + m * (b_abs - a * m))


def _estimated_bracket(n: int, beta, V: float, a: float, b_abs):
    """Sector indices (lo, hi) around the sectors where the estimate of
    sigma (:func:`_sector_estimate`) of some point lies within a nat past
    the cut of its largest value.

    Each round takes the estimate at _GRID sectors over lo..hi and moves
    lo and hi in to the grid sectors past that cut before and after the
    largest estimate of each point (the runs of them that start and end
    the grid); the rounds stop at a grid step of at most _STEP sectors or
    1/64 of lo..hi: one round up to n ~ 16000, two up to n ~ 10^7. Points
    whose largest estimate is not finite take no part; without another
    point the bracket is the top sector.
    """
    h, delta = n // 2, (n % 2) / 2.0
    beta, b_abs = beta[:, None], b_abs[:, None]
    lo, hi = 0, h
    while True:
        step = -(-(hi - lo) // (_GRID - 1))
        k = np.arange(lo, hi + step, step)
        k[-1] = hi
        est = _sector_estimate(n, beta, V, a, b_abs, k + delta)
        top = est.max(axis=1)
        if not all(map(isfinite, top.tolist())):
            finite = np.isfinite(top)
            if not finite.any():
                return h, h
            est, top = est[finite], top[finite]
        past = est < _cut(top[:, None] - 1.0, n)
        left = min(past.argmin(axis=1).tolist())
        right = min(past[:, ::-1].argmin(axis=1).tolist())
        lo = int(k[left - 1]) if left else lo
        hi = int(k[-right]) if right else hi
        if step <= max(_STEP, (hi - lo) // 64):
            return lo, hi


def _column_window(n: int, beta, b, a: float, top: int):
    """Sector indices (lo, hi) within 0..top that hold, for every point
    (``beta``, ``b``: one each) and sign, every column |M| <= S_top whose
    f(M) = -beta (b M + a M^2) lies within the cut of the largest f over
    those columns in exact arithmetic, with two columns to spare at each
    end that is not 0 or top; lo > hi where no f is finite.

    The largest f over the lattice is within beta max(a, 0) / 4 of the
    largest over [-S_top, S_top], at the clipped vertex -b / (2a) for a > 0
    and at an end else, and a computed f within its rounding of its exact
    value. So the columns sought have f >= theta, that largest less the
    cut, those and the rounding: for a > 0 the M within
    R = sqrt(d^2 + 1/4 + (cut + rounding) / (beta a)) of the vertex, d its
    distance past S_top; for a < 0 the M off an interval around the vertex
    (every M where theta is below the vertex); for a = 0 the M past
    theta / (beta |b|) on the side of 0 away from b.
    """
    S = top + (n % 2) / 2.0
    b_abs = np.abs(b)
    # the cut and the rounding of f, in units of f
    width = CUT_NATS + 2.0 * log(n + 1.0) + 8.0 * _ROUNDING * (
        max(beta.tolist()) * (max(b_abs.tolist()) * S + abs(a) * S * S)
        + log(n + 1.0) + 1.0)
    if a > 0.0:
        vertex = b_abs * (0.5 / a)                  # |M| of the vertex
        d = np.maximum(vertex - S, 0.0)
        R = np.sqrt(d * d + (0.25 + width / a / beta))
        lo, hi = vertex - R, vertex + R
    elif a < 0.0:
        vertex = b_abs * (-0.5 / a)
        # f(vertex) is the least f; the largest is at the end M = -S sgn(b)
        w2 = (S + vertex) ** 2 - width / (-a) / beta
        w = np.sqrt(np.maximum(w2, 0.0))
        lo = np.where(w2 <= 0.0, 0.0, np.maximum(w - vertex, 0.0))
        hi = np.where(lo <= S, S, -inf)
    else:
        # f = -beta b M: the largest is beta |b| S, at M = -S sgn(b)
        lo = S - width / (beta * b_abs)
        hi = np.where(lo <= S, S, -inf)
    lo = max(float(np.fmin.reduce(lo)) - (n % 2) / 2.0, -1.0)
    hi = min(float(np.fmax.reduce(hi)) - (n % 2) / 2.0, top + 1.0)
    return (int(max(floor(lo) - 2.0, 0.0)) if lo <= top else top + 1,
            int(min(ceil(hi) + 2.0, float(top))) if hi >= 0.0 else -1)


def _live_sectors(points) -> _Sectors:
    """The live sectors of the T > 0 sums at ``points``, which share n, v
    and gamma, over one bracket of sectors L..H (see :class:`_Sectors`).

    A level's log-weight ln Y(S) - beta E_SM is c_S + f(M), with
    c_S = ln Y(S) + beta (V S(S+1) - E0) (``c``, one column per sector
    L..H of two_s_range(n)) and f(M) = -beta (b M + V gamma M^2) (``f``,
    per point the rows M = -s and M = +s over the columns s = S_j; for even
    n the second M = 0 is -inf, so each column appears once). The columns
    are the window of :func:`_column_window` below the bracket, then the
    sectors of the bracket. The levels of sector S are the columns with
    |M| <= S, so its largest log-weight sigma(S) is c_S plus the prefix
    maximum of f over s, at every gamma: over the window, the largest f of
    every column s < S_L, then a running maximum over the bracket.
    ``live`` marks the sectors whose sigma is at least _cut(peak, n),
    ``peak`` being the largest sigma. A point whose peak is not finite
    (beta |E| past the float range: at n = 8810 from T ~ 1e-305) has no
    meaningful row, and is refused before any sum.

    The bracket is every sector of a domain of fewer than _WHOLE_DOMAIN,
    else the estimate of :func:`_estimated_bracket`; ln Y is mapped over it
    alone (:func:`log_multiplicity_span`). It holds where every sector
    outside it is below the cut (:func:`_bracket_holds`); an end that does
    not hold moves out by the bracket's width, and the bracket is taken
    again. So the peak, the cut and the live sectors are those of the sum
    over all n/2 + 1 sectors.
    """
    p0 = points[0]
    n, V, a, E0 = p0.n, p0.V, p0.V * p0.gamma, p0.E0
    h, delta = n // 2, (n % 2) / 2.0
    beta = np.array([p.beta for p in points])
    b = np.array([p.b for p in points])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L, H = ((0, h) if h < _WHOLE_DOMAIN
                else _estimated_bracket(n, beta, V, a, np.abs(b)))
        while True:
            j = np.arange(L, H + 1)
            lo, hi = _column_window(n, beta, b, a, L - 1) if L else (0, -1)
            if lo <= hi:
                j = np.concatenate([np.arange(lo, hi + 1), j])
            s = j + delta                             # S of two_s_range(n)
            below = j.size - (H + 1 - L)              # columns below L
            c = (log_multiplicity_span(n, L, H + 1)
                 + beta[:, None] * (V * s[below:] * (s[below:] + 1.0) - E0))
            M = _SIGNS * s
            f = -beta[:, None, None] * (b[:, None, None] * M + a * M * M)
            if n % 2 == 0 and j[0] == 0:
                f[:, 1, 0] = -inf                 # M = 0 is one column
            f_max = f.max(axis=1)
            if below:
                f_max[:, below] = np.maximum(f_max[:, below],
                                             f_max[:, :below].max(axis=1))
            sigma = c + np.maximum.accumulate(f_max[:, below:], axis=1)
            peak = sigma.max(axis=1)
            cut = _cut(peak, n)
            low, high = ((True, True) if L == 0 and H == h else
                         _bracket_holds(n, V, a, E0, beta, b, L, H, sigma,
                                        peak, cut))
            if low and high:
                return _Sectors(beta, b, L, j, c, f, sigma >= cut[:, None],
                                peak)
            width = H - L + 1
            L, H = (L if low else max(L - width, 0),
                    H if high else min(H + width, h))


def _bracket_holds(n: int, V: float, a: float, E0: float, beta, b, L: int,
                   H: int, sigma, peak, cut):
    """Whether every sector below L, and every sector past H, is below the
    cut as computed, for every point with a finite peak: (low, high).

    An end that is an end of the domain holds. Another holds where it lies
    below the cut by more than twice the rounding of a computed sigma and
    sigma is monotone beyond it in exact arithmetic. The step
    sigma(S+1) - sigma(S) is ln Y(S+1)/Y(S) = ln((n/2 - S)(2S + 3) /
    ((n/2 + S + 2)(2S + 1))), plus 2 beta V (S+1) from c_S, plus the growth
    of the prefix maximum of f, beta max(0, |b| - a x) at x = 2S + 1,
    a = V gamma. At u = S + 1 that is P(u) + Q(x):
    P(u) = ln((m - u)/(m + u)) + 2 beta (V + a-) u, m = n/2 + 1,
    a- = max(0, -a), is concave in u, and Q(x) = ln((x + 2)/x) plus
    beta (|b| + a) where a < 0, else beta max(0, |b| - a x), does not grow
    with x. So no step below sector L is less than the smaller of P(u(0))
    and P(u(L - 1)) plus Q(x(L - 1)), and past the vertex of P no step
    exceeds the one before: sigma rises up to L where that bound is
    positive, and falls from H on where u(H - 1) is past the vertex and
    the step into H is negative, each by more than its rounding. A step is
    linear in beta and grows with |b|, so the bounds are taken over the
    range of the points' beta at their least or largest |b|.
    """
    h, delta, m = n // 2, (n % 2) / 2.0, n / 2.0 + 1.0
    if not all(map(isfinite, peak.tolist())):
        finite = np.isfinite(peak)
        if not finite.any():
            return True, True
        beta, b, sigma, cut = (beta[finite], b[finite], sigma[finite],
                               cut[finite])
    betas = (float(beta.min()), float(beta.max()))
    b_abs = np.abs(b)
    b_min, b_max = float(b_abs.min()), float(b_abs.max())
    Va = V - min(a, 0.0)

    def steps(u, x, b_abs):
        # P(u) + Q(x) at the least and the largest beta
        field = b_abs + a if a < 0.0 else max(0.0, b_abs - a * x)
        return [log((m - u) * (x + 2.0) / ((m + u) * x))
                + beta * (2.0 * Va * u + field) for beta in betas]

    # the rounding of a bound, and twice that of a computed sigma, from
    # ln Y (each lgamma at most n ln(n + 1)), beta V S(S+1), beta E0 and
    # the columns
    rounding = _ROUNDING * (4.0 + log(m) + betas[1] * (
        2.0 * Va * m + b_max + abs(a) * (n + 2.0)))
    slack = 2.0 * _ROUNDING * (n * log(n + 1.0) + 1.0 + betas[1] * (
        V * h * (h + 1.0) + E0 + (b_max + abs(a) * h) * (h + 1.0)))
    low = L == 0
    if not low:
        u, x = L + delta, 2.0 * (L + delta) - 1.0      # the step from L - 1
        low = (min(steps(u, x, b_min) + steps(delta + 1.0, x, b_min))
               > rounding and bool((sigma[:, 0] < cut - slack).all()))
    high = H == h
    if not high:
        u, x = H + delta, 2.0 * (H + delta) - 1.0      # the step into H
        high = (betas[1] * Va * (m - u) * (m + u) <= m * (1.0 - _ROUNDING)
                and max(steps(u, x, b_max)) < -rounding
                and bool((sigma[:, -1] < cut - slack).all()))
    return low, high


def _columns(n: int, sectors: _Sectors):
    """The kept columns of the points of ``sectors`` (whose peaks are
    finite), one segment per point: (M, ssp1, excess, w, ends, shift, G).

    Point k's columns are M[ends[k]:ends[k + 1]], M = -s then M = +s, each
    by ascending s, with their S(S+1) and alpha rows ``ssp1`` and
    ``excess`` and weights ``w`` = e^(g - G[k]); its ln Z is
    shift[k] + G[k] + ln(sum of its w). See
    :func:`thermal_observables_batch`.

    A column's log-weight g(M) = ln H(s) + f(M) is at most
    ln H(first) + f(M), and the columns below the bracket reach that. So
    the columns within the cut lie within the cut of the largest f below
    the bracket: in its column window, which the columns of ``sectors``
    hold; its ends, where not ends of the columns below, must be cut.
    """
    _, _, L, j, c, f, live, _ = sectors
    delta = (n % 2) / 2.0
    rows = np.arange(c.shape[0])
    below = j.size - c.shape[1]                  # columns below the bracket
    first = live.argmax(axis=1) + below
    last = j.size - 1 - live[:, ::-1].argmax(axis=1)
    s = j + delta                                # S of two_s_range(n)
    ssp1 = s * (s + 1.0)
    lo0 = int(first.min())
    log_2s2 = np.log(2.0 * s[lo0:] + 2.0)        # over every point's hull
    lnH = np.full((rows.size, j.size), -inf)     # ln H(s), -inf past the hull
    ratio = np.zeros((rows.size, j.size))        # K(s) / H(s)
    shift = []
    for k, lo, hi in zip(rows, first.tolist(), (last + 1).tolist()):
        # the two suffix sums over the point's own hull of live sectors
        hull = c[k, lo - below:hi - below]
        top = float(hull.max())
        shift.append(top)
        h = np.logaddexp.accumulate(hull[::-1] - top)[::-1]
        lnK = np.logaddexp.accumulate(
            (log_2s2[lo - lo0:hi - 1 - lo0] + h[1:])[::-1])
        lnH[k, lo:hi] = h
        ratio[k, lo:hi - 1] = np.exp(lnK[::-1] - h[:-1])
    # a column s < first sees the whole hull: H(s) = H(first), and K(s)
    # exceeds K(first) by (S(S+1) - s(s+1)) H(first), S = s[first]
    below_first = np.arange(j.size) < first[:, None]
    np.copyto(lnH, lnH[rows, first][:, None], where=below_first)
    np.subtract((ratio[rows, first] + ssp1[first])[:, None], ssp1, out=ratio,
                where=below_first)
    g = lnH[:, None, :] + f
    G = g.max(axis=(1, 2))
    keep = g >= _cut(G, n)[:, None, None]
    if below and ((j[0] > 0 and keep[:, :, 0].any())
                  or (j[below - 1] < L - 1 and keep[:, :, below - 1].any())):
        raise XxzentError("a column within the cut lies at an end of the "
                          "column window")
    # the kept columns as flat indices into g, point by point
    keep = np.flatnonzero(keep)
    point, column = np.divmod(keep, 2 * j.size)
    M = np.concatenate([-s, s])[column]
    r = ratio.ravel()[point * j.size + column % j.size]
    w = np.exp(g.ravel()[keep] - G[point])
    s = np.abs(M)
    return (M, r + s * (s + 1.0), r + (s - n / 2.0), w,
            np.searchsorted(point, np.arange(rows.size + 1)).tolist(), shift,
            G.tolist())


def thermal_observables(params: ModelParams):
    """One pass over the spectrum: (CollectiveMoments, PairState), at T = 0
    those of :func:`ground_state_observables`; a batch of one of
    :func:`thermal_observables_batch`."""
    return _one(thermal_observables_batch([params]))


def thermal_observables_batch(points) -> list:
    """thermal_observables at each of ``points``, which share n, v and
    gamma: one outcome per point, its (CollectiveMoments, PairState) or the
    exception that refuses it. A T = 0 point takes the ground-state path
    (:func:`ground_state_observables`, ln Z NaN) before any pass; the
    passes below take the T > 0 points.

    A level's log-weight c_S + f(M) (see :func:`_live_sectors`) couples S
    and M only through |M| <= S. So each of the seven sums of :func:`_rows`
    is a sum over the columns M of e^f(M) times suffix sums over the
    sectors S >= s = |M|:

        H(s) = sum_{S >= s} e^c_S,
        K(s) = sum_{S >= s} (S(S+1) - s(s+1)) e^c_S
             = sum_{t >= s} 2 (t+1) H(t+1).

    A column's weight is e^f(M) H(s); its S(S+1) sum is K + s(s+1) H and
    its alpha sum K + (s - n/2) H. The other rows are per-column factors, so
    p+- keep their direct sums. H and K are suffix log-sum-exps
    (np.logaddexp.accumulate) over the hull of the live sectors, shifted by
    the hull's largest c_S, and every suffix is a sum of positive terms.
    The columns M = +-s fold onto the sector grid, so per point the work is
    a few numpy passes over the sectors of its bracket and the columns of
    its window, not over levels. A column's log-weight, less the hull's
    shift, is g(M) = ln H(s) + f(M), with the f of :func:`_live_sectors`.
    Only the columns within _cut(G, n) of the largest one, G, are
    exponentiated, with G as their shift, so the summed Z is at least 1 and
    finite. The shift is added back last, as ln Z = shift + (G +
    ln Z_summed): the b-dependent part is rounded at its own size, so ln Z
    stays smooth in b to rounding, and the column weights carry no
    rounding of the large c_S (~10^5 at n ~ 10^3, T ~ 1e-3 v).

    The points share array passes, each of as many as keep
    points x (n/2 + 1) within _PASS_SECTORS entries: the estimate, the
    bracket and its certificate, c_S, f, the sector maxima, the live
    hulls, g and the cut of the columns are computed for all of them at
    once, and so are the rows of their kept columns. Per point remain the
    two suffix sums, each over the point's own hull (a hull spanning the
    pass would sum sectors no point keeps: at n = 8810, b = 0.5 and T from
    0.01 to 0.6 each hull holds 1 to 1080 sectors, their union 3217), the
    product of its kept columns with their weights (one per point, so its
    summation order, and every bit, is that of the point alone) and the
    T -> 0 branch below. Every refusal is decided before any sum: a peak
    that is not finite, a DomainError. Any other exception inside a pass
    raises for the whole batch.

    Certificate: each level of a sector outside the hull weighs less than
    e^_cut(peak, n) = e^peak e^-CUT_NATS / (n+1)^2, and each skipped column
    less than e^G e^-CUT_NATS / (n+1)^2. There are fewer than (n+1)^2
    levels and columns together, and Z >= max(e^peak, e^G), so the skipped
    mass is delta <= e^-60 Z ~ 9e-27 Z. Every per-level value of p+, p-,
    alpha lies in [-1, 1], so each pair-state entry moves by at most
    2 delta; ln Z by at most delta; the moments by at most 2 delta times
    their largest per-level value (n/2, n^2/4, n(n+2)/4). Since
    |sqrt x - sqrt y| <= sqrt|x - y| and p+ + p- <= 1, the concurrence
    moves by |dC| <= 4 delta + 2 sqrt(2 delta) ~ 3e-13. (A cut of e^-40
    would not do: with p+ ~ 1e-26 in the far field, sqrt(delta) ~ 2e-9.)

    When the cut keeps at most two columns, all of them ground columns to
    rounding (:func:`_ground_levels` with ``ulps``: within 4 ulps of the
    ground energy), the point is the T -> 0 limit: the equal mixture of
    the ground levels, with ln Z = shift + G + ln(#ground). Degenerate
    columns differ in g only by beta times the rounding of their energies,
    which skews their weights as T falls (|dC| ~ 3e-9 at n = 20,
    T = 1e-13 v) and below T ~ 1e-16 v drops one of them. Every other
    column is then cut, and so is every lower sector of a kept column: its
    gap is at least v, against at most 2 gamma v/n to a neighbouring
    column. Columns whose computed gap exceeds that rounding are summed as
    they stand, however small beta times the gap.
    """
    out = [ground_state_observables(p) if p.T == 0 else None
           for p in points]
    hot = [k for k, o in enumerate(out) if o is None]
    step = max(1, _PASS_SECTORS // (points[0].n // 2 + 1)) if hot else 1
    for i in range(0, len(hot), step):
        part = hot[i:i + step]
        for k, outcome in zip(part, _thermal_pass([points[k] for k in part])):
            out[k] = outcome
    return out


def _thermal_pass(points) -> list:
    """The outcomes of T > 0 points that share n, v and gamma, from one
    array pass (see :func:`thermal_observables_batch`)."""
    sectors = _live_sectors(points)
    finite = np.isfinite(sectors.peak)
    out = [None if ok else DomainError(f"beta |E| overflows at T = {p.T:.6g}; "
                                       "T = 0 is the ground-state path")
           for p, ok in zip(points, finite)]
    if not finite.any():
        return out
    if not finite.all():
        sectors = sectors._replace(**{k: getattr(sectors, k)[finite] for k in (
            "beta", "b", "c", "f", "live", "peak")})
    n = points[0].n
    M, ssp1, excess, w, ends, shift, G = _columns(n, sectors)
    rows = _rows(n, M, ssp1, excess)
    for i, k in enumerate(np.flatnonzero(finite).tolist()):
        j = slice(ends[i], ends[i + 1])
        if ends[i + 1] - ends[i] <= 2:
            ground = _ground_levels(points[k], ulps=4.0)
            if np.isin(2.0 * M[j], ground).all():
                moments, pair = _top_mixture(n, ground / 2.0)
                out[k] = (replace(moments, logZ=shift[i]
                                  + (G[i] + log(ground.size))), pair)
                continue
        acc = rows[:, j] @ w[j]
        out[k] = _observables(n, acc, logZ=shift[i] + (G[i] + log(acc[0])))
    return out


def exact_moments(params: ModelParams) -> CollectiveMoments:
    """ln Z and the collective moments by direct Boltzmann sums; at T = 0
    the ground-state moments, with ln Z NaN."""
    return thermal_observables(params)[0]


# ----------------------------------------------------------------------------
# T = 0 path
# ----------------------------------------------------------------------------

def _ground_levels(params: ModelParams, ulps: float | None = None):
    """The 2M of the degenerate minimal-energy levels, ascending.

    At fixed M the energy falls with S (v > 0), so every minimal level lies in
    the top sector S = n/2, where Y = 1: O(n) work at any n. A crossing field
    lands exactly on two degenerate levels; the T -> 0 limit of the thermal
    state is the equal mixture over the degenerate set. Levels within
    1e-12 max(v, |b|, 1) of the minimum count as degenerate, or, given
    ``ulps``, within that many units in the last place of its |E|.
    """
    n = params.n
    two_M = np.arange(-n, n + 1, 2)
    E = _level_energy_2(params, n, two_M)
    tol = (1e-12 * max(params.v, abs(params.b), 1.0) if ulps is None
           else ulps * np.spacing(abs(E.min())))
    return two_M[E <= E.min() + tol]


def ground_state_observables(params: ModelParams):
    """One pass over the ground levels: (CollectiveMoments, PairState) at T = 0.

    Sharp (S, M) values, or the equal mixture at a crossing field, where the
    two-level mixture reproduces the fluctuation <S_z^2> - <S_z>^2 = 1/4
    responsible for the C = 1/n dips.
    """
    return _top_mixture(params.n, _ground_levels(params) / 2.0)


def _top_mixture(n: int, M: np.ndarray):
    """(CollectiveMoments, PairState) of the equal mixture of the S = n/2
    levels with the given M."""
    ssp1 = np.full_like(M, n / 2.0 * (n / 2.0 + 1.0))
    return _observables(n, _rows(n, M, ssp1, ssp1 - M * M - n / 2.0)
                        @ np.ones_like(M))


def ground_state_moments(params: ModelParams) -> CollectiveMoments:
    """T = 0 moments of :func:`ground_state_observables`."""
    return ground_state_observables(params)[0]


def ground_state_pair_state(params: ModelParams) -> PairState:
    """T = 0 two-qubit reduced state of :func:`ground_state_observables`."""
    return ground_state_observables(params)[1]


# ----------------------------------------------------------------------------
# Reduced state and concurrence
# ----------------------------------------------------------------------------

def pair_state(moments: CollectiveMoments, n: int,
               tol: float = 1e-12) -> PairState:
    """Two-qubit reduced state from the collective moments.

        p+-   = (<S_z^2> - n/4)/(n(n-1)) + 1/4 +- <S_z>/n
        alpha = (<S^2> - <S_z^2> - n/2)/(n(n-1))

    Raises InconsistentMomentsError when rho_2 fails positivity by more than
    ``tol`` (this guards the approximate tiers, whose moments carry quadrature
    noise).  Negative diagonal populations inside the tolerance band are
    clipped to zero, which keeps sqrt(p+ p-) real for downstream use.
    """
    common = (moments.sz2 - n / 4.0) / (n * (n - 1.0)) + 0.25
    p_plus = common + moments.sz / n
    p_minus = common - moments.sz / n
    alpha = (moments.s2 - moments.sz2 - n / 2.0) / (n * (n - 1.0))
    p = 0.5 * (1.0 - p_plus - p_minus)
    worst = min(p_plus, p_minus, p + alpha, p - alpha)
    if worst < -tol:
        raise InconsistentMomentsError(
            f"rho_2 not PSD: min eigenvalue {worst:.3e} < -{tol:.0e} "
            "(moments inconsistent with a physical symmetric pair state)")
    return PairState(p_plus=max(p_plus, 0.0), p=p, p_minus=max(p_minus, 0.0),
                     alpha=alpha)


def eof_from_concurrence(C: float) -> float:
    """Entanglement of formation as the usual monotone of the concurrence."""
    if C <= 0.0:
        return 0.0
    C = min(C, 1.0)
    q = 0.5 * (1.0 + sqrt(max(1.0 - C * C, 0.0)))
    out = 0.0
    for x in (q, 1.0 - q):
        if x > 0.0:
            out -= x * np.log2(x)
    return float(out)


def concurrence_margin(pair: PairState) -> float:
    """The signed margin 2 (|alpha| - sqrt(p+ p-)) of the symmetric pair."""
    return 2.0 * (abs(pair.alpha) - sqrt(max(pair.p_plus * pair.p_minus, 0.0)))


def concurrence_from_margin(margin: float | None) -> ConcurrenceResult:
    """C = [margin]_+ with its EoF and flag; a margin of None means C = 0."""
    C = 0.0 if margin is None else max(margin, 0.0)
    return ConcurrenceResult(concurrence=C, eof=eof_from_concurrence(C),
                             entangled=bool(C > ENTANGLED_EPS), margin=margin)


def concurrence(pair: PairState) -> ConcurrenceResult:
    """Concurrence C = 2 [ |alpha| - sqrt(p+ p-) ]_+ of the symmetric pair."""
    return concurrence_from_margin(concurrence_margin(pair))


# ----------------------------------------------------------------------------
# Brute-force oracle (pair-swap sectors of the S_z blocks of the 2^n space)
# ----------------------------------------------------------------------------

def brute_force_observables(params: ModelParams):
    """(CollectiveMoments, rho_2 of sites (0, 1)) at one T > 0 point.

    On the block with k down spins H = -V F + c_k, with the flip-flop sum F
    a function of n alone and c_k the same on every state of the block
    (see _block_rows). So the eigenstates of F (_flip_flop_rows: one
    canonical pair-swap sector per class, kept for the last n) are those of
    H at every (v, gamma, b, T), and one log-sum-exp over their energies
    b S_z - V [f + (1 - gamma) sum_{i != j} s^z_i s^z_j] weights them, each
    eigenstate counted as many times as its class has sectors. A point past
    the n cap or at T <= 0 is refused before any eigh.

    rho_2 is indexed by 2 q_0 + q_1 with q = 0 for spin up. Its only
    coherence couples |01> and |10>: every other pair of basis states
    differs in magnetization.
    """
    if params.n > BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"brute force capped at n = {BRUTE_FORCE_MAX_N}: it tabulates all "
            f"2^n = {2 ** params.n} basis states, and at n = 14 the "
            "16384-state table takes about 0.05 s and 7 MB to build")
    if params.T <= 0:
        raise DomainError("brute force oracle requires T > 0")
    rows = _flip_flop_rows(params.n)
    f, sz, zz, s2 = rows[:4]
    w = params.b * sz - params.V * (f + (1.0 - params.gamma) * zz)
    p, logZ = _boltzmann(w, params.beta, rows[9])
    moments = CollectiveMoments(sz=float(p @ sz), sz2=float(p @ (sz * sz)),
                                s2=float(p @ s2), logZ=logZ)
    *pops, coh = rows[4:9] @ p
    rho2 = np.diag(pops)
    rho2[1, 2] = rho2[2, 1] = coh
    return moments, rho2


def _boltzmann(w: np.ndarray, beta: float, mult: np.ndarray):
    """Weights and ln Z of levels w, each counted mult times:
    ln Z = m + ln sum mult e^(lw - m) with m the largest lw = -beta w."""
    lw = -beta * w
    m = lw.max()
    e = mult * np.exp(lw - m)
    Z = e.sum()
    return e / Z, m + log(Z)


@lru_cache(maxsize=1)
def _flip_flop_rows(n: int) -> np.ndarray:
    """Per-eigenstate rows of F over all S_z blocks: its eigenvalue f, S_z,
    the block's sum_{i != j} s^z_i s^z_j, <S^2> = f + S_z^2 + n/2, the four
    rho_2 populations, the rho_2 coherence <01|.|10> and the multiplicity,
    the number of pair-swap sectors that share the column; read-only.

    Bit k of a basis index set means site k is down. Only the blocks with
    k <= n // 2 down spins are built (:func:`_block_rows`: one canonical
    sector per class, one eigh each). The global spin flip maps block k
    onto block n - k and each sector onto the same sector (it commutes
    with the pair swaps), so block n - k has block k's f, <S^2>, coherence
    and multiplicity, S_z negated and the populations in reverse order
    (q -> 3 - q), with no eigh of its own. The blocks stay in the
    order k = 0..n, and the multiplicities sum to 2^n. The rows depend on n
    alone, and the last table is kept, so the points of a sweep or a limit
    scan at one n share one set of eighs.
    """
    idx = np.arange(2 ** n)
    ones = ((idx[:, None] >> np.arange(n)) & 1).sum(axis=1)
    rows = [_block_rows(n, k, ones) for k in range(n // 2 + 1)]
    for k in range(n // 2 + 1, n + 1):
        # f, S_z, zz, <S^2>; populations q -> 3 - q; coherence; multiplicity
        flipped = rows[n - k][[0, 1, 2, 3, 7, 6, 5, 4, 8, 9]]
        flipped[1] = -flipped[1]
        rows.append(flipped)
    rows = np.concatenate(rows, axis=1)
    rows.setflags(write=False)
    return rows


def _site_sums(bits: np.ndarray, i: np.ndarray, j: np.ndarray):
    """S_z and sum over the site pairs (i, j) of s^z_i s^z_j, per basis state
    (a row of ``bits``, 1 for a down spin)."""
    szdiag = 0.5 - bits                       # per-site s_z eigenvalue
    links = np.zeros((bits.shape[1],) * 2)
    links[i, j] = 1.0
    return szdiag.sum(axis=1), ((szdiag @ links) * szdiag).sum(axis=1)


def _pair_bits(s: np.ndarray, even: int):
    """Masks of the site pairs (2p, 2p + 1) of states s, as bit 2p: d, the
    pairs whose bits differ, and g, those of them turned away from the
    canonical orientation (site 2p up, site 2p + 1 down)."""
    lo = s & even
    d = lo ^ ((s >> 1) & even)
    return d, d & lo


def _canonical_sectors(sigma: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Whether each pair-swap sector sigma (its odd pairs, as bits 2p) is
    the canonical one of its class: the first |sigma| pairs if pair 0 is
    odd, else the pairs 1..|sigma|."""
    first = ((1 << 2 * ones[sigma]) - 1) // 3        # pairs 0..|sigma| - 1
    return (sigma == first) | (sigma == 4 * first)


def _block_rows(n: int, k: int, ones: np.ndarray) -> np.ndarray:
    """The rows of :func:`_flip_flop_rows` on the block with k down spins;
    ``ones[s]`` is the number of set bits of s.

    All of it comes from the explicit pair sum H = b S_z - V [F +
    (1 - gamma) sum_{i != j} s^z_i s^z_j], F flipping both spins of a pair
    whose bits differ; the pair sum generates E0 = v(3-gamma)/4 by itself.
    The diagonal part is evaluated state by state on the whole block; its
    sums of +-1/2 and +-1/4 are exact, so XxzentError is raised where it
    is not constant.

    F commutes with the swaps of the site pairs (0, 1), (2, 3), ..., whose
    parities split the block into sectors sigma (the odd pairs). A state s
    with representative r (each pair with differing bits d(r) turned
    canonical) and flipped pairs g(s) labels the basis vector
    2^(-|d(r)|/2) sum_{h in d(r)} (-1)^|h & sigma| swap_h(r) of sector
    sigma = g(s). Each flip r -> t of two differing bits adds
    2^((|d(r)| - |d(t)|)/2) (-1)^|g(t) & sigma| at (r(t), sigma) if sigma
    lies in d(t).

    A permutation of the pairs that fixes pair (0, 1) commutes with F and
    maps sector sigma onto pi(sigma) with the same spectrum and the same
    rho_2 of sites (0, 1). So only the canonical sector of each class
    (|sigma|, pair 0 odd or not) is built (:func:`_canonical_sectors`), and
    its columns carry the class size C(P - 1, |sigma| - 1) or
    C(P - 1, |sigma|), P = n // 2, as multiplicity. Each canonical sector
    takes one eigh of its own; XxzentError is raised if a flip leaves the
    canonical sectors, or if a sector matrix is not symmetric to rounding
    (F not commuting with the swaps). Where pair 0 is odd it is the
    singlet, rho_2 = (0, 1/2, 1/2, 0) with coherence -1/2; else an
    eigenvector's weights on r with pair 0 up-up, down-down and mixed give
    p+, p- and T0, with T0/2 to q = 1, 2 and to the coherence.
    """
    pairs, even = n // 2, (4 ** (n // 2) - 1) // 3
    states = np.flatnonzero(ones == k)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    sz, zz = _site_sums((states[:, None] >> np.arange(n)) & 1, i, j)
    if np.ptp(sz) != 0.0 or np.ptp(zz) != 0.0:
        raise XxzentError(f"diagonal not constant on the S_z block of "
                          f"{states.size} states")
    sz, zz = float(sz[0]), float(zz[0])
    d, g = _pair_bits(states, even)
    keep = _canonical_sectors(g, ones)
    states, d, g = states[keep], d[keep], g[keep]
    order = np.argsort(g, kind="stable")      # one run of states a sector
    states, d, g = states[order], d[order], g[order]
    bounds = [*np.flatnonzero(np.diff(g, prepend=-1)).tolist(), g.size]
    rep = states ^ 3 * g
    # s^x_i s^x_j + s^y_i s^y_j = (s+_i s-_j + s-_i s+_j)/2 flips a pair of
    # differing bits with amplitude 1/2 as (i, j) and again as (j, i)
    rbits = (rep[:, None] >> np.arange(n)) & 1
    fi, fj = i[i < j], j[i < j]
    src, ij = np.nonzero(rbits[:, fi] != rbits[:, fj])
    t = rep[src] ^ (1 << fi[ij]) ^ (1 << fj[ij])
    sigma = g[src]
    dt, gt = _pair_bits(t, even)
    live = (dt & sigma) == sigma
    src, t, sigma, dt, gt = (a[live] for a in (src, t, sigma, dt, gt))
    val = (np.sqrt(2.0 ** (ones[d[src]] - ones[dt]))
           * (1 - 2 * (ones[gt & sigma] & 1)))
    rank = np.full(2 ** n, -1, dtype=np.intp)
    rank[states] = np.arange(states.size)
    dst = rank[t ^ 3 * (gt ^ sigma)]          # basis vector (r(t), sigma)
    if (dst < 0).any():
        raise XxzentError(f"flip-flop sum leaves the canonical pair-swap "
                          f"sectors of the S_z block with {k} down spins")
    # per eigenvector: f, S_z, zz, <S^2>, p+, T0/2, T0/2, p-, coherence, mult
    rows = np.empty((10, g.size))
    pair0 = ((rep & 3) == np.array([[0], [2], [3]])).astype(float)
    cut = np.searchsorted(src, bounds).tolist()
    for lo, hi, a, b in zip(bounds[:-1], bounds[1:], cut[:-1], cut[1:]):
        m = hi - lo
        F = np.bincount((dst[a:b] - lo) * m + (src[a:b] - lo),
                        weights=val[a:b], minlength=m * m).reshape(m, m)
        if np.abs(F - F.T).max() > 1e-12 * n:
            raise XxzentError(f"flip-flop sum not symmetric on a pair-swap "
                              f"sector of {m} states")
        f, U = np.linalg.eigh(F)
        rows[0, lo:hi] = f
        # each eigenvector's weight on the reps with pair 0 up-up, mixed and
        # down-down
        rows[[4, 5, 7], lo:hi] = pair0[:, lo:hi] @ (U * U)
    rows[1], rows[2] = sz, zz
    rows[3] = rows[0] + sz * sz + n / 2.0
    rows[5] *= 0.5
    rows[6] = rows[5]
    rows[8] = rows[5] * (1 - 2 * (g & 1))     # -T0/2 where pair 0 is odd
    rows[9] = np.array([comb(pairs - 1, x) for x in range(pairs)],
                       dtype=float)[ones[g] - (g & 1)]
    return rows


def brute_force_pair_density(params: ModelParams) -> np.ndarray:
    """Exact rho_2 of sites (0, 1), read off the pair-swap sectors."""
    return brute_force_observables(params)[1]


_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))     # sigma_y x sigma_y


def wootters_margin(rho2: np.ndarray) -> float:
    """Wootters' l1 - l2 - l3 - l4 of a two-qubit density matrix; the
    concurrence is its positive part.

    The l, in decreasing order, are the square roots of the spectrum of
    rho (y x y) rho* (y x y), taken here as the singular values of
    sqrt(rho) (y x y) sqrt(rho)*, with sqrt(rho) from eigh. The eigenvalues
    of the non-Hermitian product would carry rounding of order eps |rho|^2,
    which their square roots lift to about 1e-9 where the small l are tiny
    (low T); the singular values keep them to rounding.
    """
    e, U = np.linalg.eigh(rho2)
    root = (U * np.sqrt(np.clip(e, 0.0, None))) @ U.conj().T
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(lam[0] - lam[1] - lam[2] - lam[3])
