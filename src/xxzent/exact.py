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
between points. A run shares its array passes, each of as many points as
keep points x the columns of their estimated union within _PASS_SECTORS
entries (:func:`_passes`: every point of a run at n = 20, 16 points of a
b-row at n = 1000, 6 or 7 of one at n = 8810), so a point costs a share of
the numpy calls instead of all of them. At n = 10^6 (T = 0.1 v,
b = 0.3 v) a point takes about 1 ms and its bracket 163 sectors of
500,001; at n = 10^8 about 7 ms, and 40 MB of peak RSS for a CLI process,
at n = 10^9 about 25 ms and 59 MB (one Xeon core). ln Y itself, by lgamma,
rounds to about 3e-9 absolute at n = 10^6 and 6e-6 at 10^9 (see
:mod:`xxzent.model`): huge-n points are references for time and memory,
not for 1e-10. The T = 0 path (:func:`_ground_levels`) stays O(n).

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

A brute-force oracle (n <= 18) is included for cross-validation. It builds
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
by the global spin flip. The blocks k <= n // 2 are built in one pass over
the blocks: those below n // 2 as whole arrays, then the largest alone.
The eigen-rows serve every (v, gamma, b, T) at that n and are kept for the
last n (:func:`_flip_flop_rows`), with rho_2 of sites (0, 1) read off the
sectors. On one Xeon core (OpenBLAS, one thread) the first point at an n
takes about 0.004 s at n = 11, 0.016 s at n = 13, 0.043 s at n = 14 (a
7 MB tracemalloc peak for the table, 43 MB peak RSS for the whole CLI
process), 0.5 s at n = 16 (0.7 s and 94 MB as a CLI process), 3 s and
242 MB as a CLI process at n = 17, and 10 s at n = 18 (11 s and 461 MB as
a CLI process); each later point takes under 0.1 ms up to n = 14 and
about 0.4 ms at n = 18.
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

BRUTE_FORCE_MAX_N = 18
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
# the entries a pass allocates: the points of a run share array passes of
# at most this many points x columns of their estimated union (brackets and
# windows, see _passes), and at least one point. Points at distant T can
# spread that union over all n/2 + 1 sectors
_PASS_SECTORS = 8192
# a domain of fewer sectors is its own bracket: the estimate, the bounds
# that certify it and the columns below it would take more numpy calls than
# the sectors they skip. Without this shortcut every output keeps its bits,
# but an exact pass at n = 10, 20 or 100 takes about 130-150 us instead of
# 100-120 us (one Xeon core, one BLAS thread)
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
    per point (the first axis of each array) over the bracket L..H of
    sectors c (points x sectors), over the columns s = S_j (the sector
    indices ``j``) f (points x 2 x columns), and over the bracket live and
    peak."""

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


def _grid_ends(n: int, beta, V: float, a: float, b_abs, lo: int, hi: int):
    """One round of the estimate (:func:`_sector_estimate`) at _GRID
    sectors k over lo..hi, for the points (``beta``, ``b_abs``: one column
    each): (k, left, right, step), left and right per point the number of
    grid sectors past the cut before and after its largest estimate (the
    runs of them that start and end the grid)."""
    step = -(-(hi - lo) // (_GRID - 1))
    k = np.arange(lo, hi + step, step)
    k[-1] = hi
    est = _sector_estimate(n, beta, V, a, b_abs, k + (n % 2) / 2.0)
    past = est < _cut(est.max(axis=1)[:, None] - 1.0, n)
    return k, past.argmin(axis=1), past[:, ::-1].argmin(axis=1), step


def _estimated_bracket(n: int, beta, V: float, a: float, b_abs,
                       first_round=None):
    """Sector indices (lo, hi) around the sectors where the estimate of
    sigma (:func:`_sector_estimate`) of some point lies within a nat past
    the cut of its largest value.

    Each round (:func:`_grid_ends`) moves lo and hi in to the grid sectors
    past that cut before and after the largest estimate of each point, the
    first over the whole domain unless ``first_round`` holds its outcome;
    the rounds stop at a grid step of at most _STEP sectors or 1/64 of
    lo..hi: one round up to n ~ 16000, two up to n ~ 10^7. The points are
    finite (:func:`_overflow`); a point whose estimate is NaN (|b| = 0
    times an overflowing 1 / (2 V gamma) at tiny gamma > 0) moves no end.
    """
    lo, hi = 0, n // 2
    while True:
        k, left, right, step = first_round or _grid_ends(
            n, beta[:, None], V, a, b_abs[:, None], lo, hi)
        left, right = min(left.tolist()), min(right.tolist())
        first_round = None
        lo = int(k[left - 1]) if left else lo
        hi = int(k[-right]) if right else hi
        if step <= max(_STEP, (hi - lo) // 64):
            return lo, hi


def _column_window(n: int, beta, b, a: float, top: int):
    """Sector indices (lo, hi) within 0..top that hold, for every point
    (``beta``, ``b``: one each) and sign, every column |M| <= S_top whose
    f(M) = -beta (b M + a M^2) lies within the cut of the largest f over
    those columns in exact arithmetic, with two columns to spare at each
    end that is not 0 or top; lo > hi where no f is finite. The window is
    from the least to the largest of the points' :func:`_window_ends`.
    """
    lo, hi = _window_ends(n, beta, b, a, top)
    lo = max(float(np.fmin.reduce(lo)), -1.0)
    hi = min(float(np.fmax.reduce(hi)), top + 1.0)
    return (int(max(floor(lo) - 2.0, 0.0)) if lo <= top else top + 1,
            int(min(ceil(hi) + 2.0, float(top))) if hi >= 0.0 else -1)


def _window_ends(n: int, beta, b, a: float, top):
    """Per point (``beta``, ``b``, and ``top`` or one top for all: one
    each) the ends (lo, hi), in sector indices, of the M with
    |M| <= S_top whose f(M) = -beta (b M + a M^2) may lie within the cut
    of the largest f over those M: not clipped to 0..top, and NaN where
    1 / (2 V gamma) overflows at tiny |gamma| (:func:`_column_window`
    clips and rounds them).

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
    delta = (n % 2) / 2.0
    S = top + delta
    b_abs = np.abs(b)
    # the cut and the rounding of each point's f, in units of f
    width = CUT_NATS + 2.0 * log(n + 1.0) + 8.0 * _ROUNDING * (
        beta * (b_abs * S + abs(a) * S * S) + log(n + 1.0) + 1.0)
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
    return lo - delta, hi - delta


def _live_sectors(points, first_round=None) -> _Sectors:
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
    ``peak`` being the largest sigma. No point overflows: those that would
    are refused before any pass (:func:`_overflow`), so every c_S, f and
    sigma is finite. Only 1 / (2 V gamma), the vertex of f in the estimate
    and the column window, still overflows (at tiny |gamma|), which the
    errstate below lets pass.

    The bracket is every sector of a domain of fewer than _WHOLE_DOMAIN,
    else the estimate of :func:`_estimated_bracket`, which starts from
    ``first_round`` where given (:func:`_passes`); ln Y is mapped over it
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
                else _estimated_bracket(n, beta, V, a, np.abs(b),
                                       first_round))
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
                return _Sectors(L, j, c, f, sigma >= cut[:, None], peak)
            width = H - L + 1
            L, H = (L if low else max(L - width, 0),
                    H if high else min(H + width, h))


def _bracket_holds(n: int, V: float, a: float, E0: float, beta, b, L: int,
                   H: int, sigma, peak, cut):
    """Whether every sector below L, and every sector past H, is below the
    cut as computed, for every point: (low, high).

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
    """The kept columns of the points of ``sectors``, one segment per
    point: (M, ssp1, excess, w, ends, shift, G).

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
    L, j, c, f, live, _ = sectors
    delta = (n % 2) / 2.0
    rows = np.arange(c.shape[0])
    below = j.size - c.shape[1]                  # columns below the bracket
    first = live.argmax(axis=1) + below
    last = j.size - 1 - live[:, ::-1].argmax(axis=1)
    s = j + delta                                # S of two_s_range(n)
    ssp1 = s * (s + 1.0)
    # c_S over the union of the points' hulls of live sectors, -inf outside
    # each point's own: logaddexp(-inf, x) == x, so the two suffix sums of a
    # row are those over the point's own hull, bit for bit
    lo, hi = min(first.tolist()), max(last.tolist()) + 1
    hull = c[:, lo - below:hi - below]
    if rows.size > 1:                            # one point's hull is lo..hi
        at = np.arange(lo, hi)
        hull = np.where((at >= first[:, None]) & (at <= last[:, None]), hull,
                        -inf)
    shift = hull.max(axis=1)
    h = np.logaddexp.accumulate((hull - shift[:, None])[:, ::-1],
                                axis=1)[:, ::-1]
    lnK = np.logaddexp.accumulate((np.log(2.0 * s[lo:hi - 1] + 2.0)
                                   + h[:, 1:])[:, ::-1], axis=1)[:, ::-1]
    lnH = np.full((rows.size, j.size), -inf)     # ln H(s), -inf past the hull
    lnH[:, lo:hi] = h
    lnH[:, :lo] = h[:, :1]                       # H(first) below the hull
    ratio = np.zeros((rows.size, j.size))        # K(s) / H(s)
    with np.errstate(invalid="ignore"):          # -inf - -inf past the hull
        np.exp(lnK - h[:, :-1], out=ratio[:, lo:hi - 1])
    # a column s < first sees the whole hull: K(s) exceeds K(first) by
    # (S(S+1) - s(s+1)) H(first), S = s[first]
    np.subtract((ratio[rows, first] + ssp1[first])[:, None], ssp1, out=ratio,
                where=np.arange(j.size) < first[:, None])
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
            np.searchsorted(point, np.arange(rows.size + 1)).tolist(),
            shift.tolist(), G.tolist())


def _overflow(p: ModelParams):
    """The DomainError that refuses T > 0 point ``p``, or None.

    ``p`` is refused where 4 beta (V h(h+1) + |E0| + |b| h + |V gamma| h^2),
    h = n/2, overflows. That bounds every log-weight a pass forms and its
    differences: c_S, f(M), the estimate of sigma, sigma, g, the steps and
    the slack of :func:`_bracket_holds`. So every pass takes finite points
    only. At n = 8810, gamma = 1, b = 0.3 a point is refused below
    T ~ 1.3e-304 v.
    """
    h = p.n / 2.0
    if isfinite(4.0 * p.beta * (p.V * h * (h + 1.0) + abs(p.E0) + abs(p.b) * h
                                + abs(p.V * p.gamma) * h * h)):
        return None
    return DomainError(f"beta |E| overflows at T = {p.T:.6g}; "
                       "T = 0 is the ground-state path")


def thermal_observables(params: ModelParams):
    """One pass over the spectrum: (CollectiveMoments, PairState), at T = 0
    those of :func:`ground_state_observables`; a batch of one of
    :func:`thermal_observables_batch`."""
    return _one(thermal_observables_batch([params]))


def thermal_observables_batch(points) -> list:
    """thermal_observables at each of ``points``, which share n, v and
    gamma: one outcome per point, its (CollectiveMoments, PairState) or the
    exception that refuses it. Every point is routed before any pass: a
    T = 0 point takes the ground-state path (:func:`ground_state_observables`,
    ln Z NaN), a T > 0 point where 4 beta (V h(h+1) + |E0| + |b| h
    + |V gamma| h^2), h = n/2, overflows is refused with a DomainError
    (:func:`_overflow`), and the passes below take the other points, each of
    whose log-weights is finite.

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

    The points share array passes (:func:`_passes`): consecutive points
    share one while their count times the columns of their estimated
    union stays within _PASS_SECTORS entries, and it takes the first round
    of its bracket estimate from that plan. The estimate, the bracket and
    its certificate, c_S, f, the sector maxima, the live hulls, the two
    suffix sums, g and the cut of the columns are computed for all of them
    at once, and so are the rows of their kept columns. The suffix sums run
    over the union of the points' hulls, each row -inf outside its own
    hull, and logaddexp(-inf, x) == x: each is the sum over the point's own
    hull, bit for bit (at n = 8810, b = 0.5 and T from 0.01 to 0.6 the
    hulls of a pass of four hold 1 to 241 sectors and their union 242; the
    fifth point, at T = 0.6, has 1078 and a pass of its own). Per point
    remain the product of its kept columns with their weights (one per
    point, so its summation order, and every bit, is that of the point
    alone) and the T -> 0 branch below. Every refusal is decided before
    any pass, so a pass returns one value per point; any exception inside
    a pass raises for the whole batch.

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
    out = [ground_state_observables(p) if p.T == 0 else _overflow(p)
           for p in points]
    hot = [k for k, o in enumerate(out) if o is None]
    for part, first_round in _passes([points[k] for k in hot]):
        for k, outcome in zip(hot, _thermal_pass(part, first_round)):
            out[k] = outcome
        del hot[:len(part)]
    return out


def _passes(points) -> list:
    """The T > 0 points of a run as consecutive runs of them, one per array
    pass, each with the first round of its bracket estimate (the
    ``first_round`` of :func:`_estimated_bracket`, None where there is
    none): each takes points while their count times the columns of their
    estimated union stays within _PASS_SECTORS, and at least one.

    Per point the estimate is its bracket from one first round over the
    whole domain for all the points (:func:`_grid_ends`; the whole domain
    where it has fewer than _WHOLE_DOMAIN sectors), and below it its
    :func:`_window_ends`. A pass's union spans, as :func:`_live_sectors`
    forms it, its points' brackets and, below them, their windows. A run
    of one point takes no estimate here.
    """
    if len(points) < 2:
        return [(points, None)] if points else []
    p0 = points[0]
    n, h, a = p0.n, p0.n // 2, p0.V * p0.gamma
    lo, hi = np.zeros(len(points), int), np.full(len(points), h)
    wlo, whi, grid = lo, lo - 1, None
    if h >= _WHOLE_DOMAIN:
        beta = np.array([p.beta for p in points])
        b = np.array([p.b for p in points])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k, left, right, step = grid = _grid_ends(
                n, beta[:, None], p0.V, a, np.abs(b)[:, None], 0, h)
            lo = k[np.maximum(left - 1, 0)]
            hi = k[np.minimum(k.size - right, k.size - 1)]
            # within 0..top; (top + 1, -1) where a point has no window
            top = lo - 1
            wlo, whi = _window_ends(n, beta, b, a, top)
            wlo = np.where(wlo <= top, np.maximum(wlo, 0.0), top + 1)
            whi = np.where(whi >= 0.0, np.minimum(whi, top), -1.0)
    cuts = [0]
    for i, ends in enumerate(zip(lo.tolist(), hi.tolist(), wlo.tolist(),
                                 whi.tolist())):
        if i:
            L, H = min(union[0], ends[0]), max(union[1], ends[1])
            W0, W1 = min(union[2], ends[2]), max(union[3], ends[3])
            columns = H + 1 - L + max(min(W1, L - 1) + 1 - W0, 0)
            if (i + 1 - cuts[-1]) * columns <= _PASS_SECTORS:
                union = L, H, W0, W1
                continue
            cuts.append(i)
        union = ends
    cuts.append(len(points))
    return [(points[i:j], grid and (k, left[i:j], right[i:j], step))
            for i, j in zip(cuts, cuts[1:])]


def _thermal_pass(points, first_round=None) -> list:
    """The (CollectiveMoments, PairState) of T > 0 points that share n, v
    and gamma and that :func:`_overflow` refuses none of, from one array
    pass (see :func:`thermal_observables_batch`), its bracket estimate
    from ``first_round`` where given (:func:`_live_sectors`)."""
    n = points[0].n
    M, ssp1, excess, w, ends, shift, G = _columns(
        n, _live_sectors(points, first_round))
    rows = _rows(n, M, ssp1, excess)
    out = []
    for k, p in enumerate(points):
        j = slice(ends[k], ends[k + 1])
        if ends[k + 1] - ends[k] <= 2:
            ground = _ground_levels(p, ulps=4.0)
            if np.isin(2.0 * M[j], ground).all():
                moments, pair = _top_mixture(n, ground / 2.0)
                out.append((replace(moments, logZ=shift[k]
                                    + (G[k] + log(ground.size))), pair))
                continue
        acc = rows[:, j] @ w[j]
        out.append(_observables(n, acc, logZ=shift[k] + (G[k] + log(acc[0]))))
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

def check_brute_force_n(n: int) -> None:
    """DomainError for n past the brute-force cap, the one message of the
    cap for the oracle and the bruteforce tier alike."""
    if n > BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"brute force capped at n = {BRUTE_FORCE_MAX_N}: the first point "
            "at n = 18 builds its sector table in about 11 s and 460 MB, "
            "and each n past it costs several times more")


def brute_force_observables(params: ModelParams):
    """(CollectiveMoments, rho_2 of sites (0, 1)) at one T > 0 point.

    On the block with k down spins H = -V F + c_k, with the flip-flop sum F
    a function of n alone and c_k the same on every state of the block
    (see _block_rows). So the eigenstates of F (_flip_flop_rows: one
    canonical pair-swap sector per class, kept for the last n) are those of
    H at every (v, gamma, b, T), and one log-sum-exp over their energies
    b S_z - V [f + (1 - gamma) sum_{i != j} s^z_i s^z_j] weights them, each
    eigenstate counted as many times as its class has sectors. A point at
    T = 0 (ModelParams.beta's refusal) or past the n cap is refused before
    any eigh, and one whose beta |E| overflows before the Boltzmann sum.

    rho_2 is indexed by 2 q_0 + q_1 with q = 0 for spin up. Its only
    coherence couples |01> and |10>: every other pair of basis states
    differs in magnetization.
    """
    beta = params.beta
    check_brute_force_n(params.n)
    rows = _flip_flop_rows(params.n)
    f, sz, zz, s2 = rows[:4]
    w = params.b * sz - params.V * (f + (1.0 - params.gamma) * zz)
    p, logZ = _boltzmann(w, beta, rows[9])
    moments = CollectiveMoments(sz=float(p @ sz), sz2=float(p @ (sz * sz)),
                                s2=float(p @ s2), logZ=logZ)
    *pops, coh = rows[4:9] @ p
    rho2 = np.diag(pops)
    rho2[1, 2] = rho2[2, 1] = coh
    return moments, rho2


def _boltzmann(w: np.ndarray, beta: float, mult: np.ndarray):
    """Weights and ln Z of levels w, each counted mult times:
    ln Z = m + ln sum mult e^(lw - m) with m the largest lw = -beta w.

    A DomainError where beta max|w| overflows, read off these levels alone
    (the exact tier's bound is not consulted): a log-weight would be
    infinite and every weight NaN."""
    e_max = float(np.abs(w).max())
    if not isfinite(beta * e_max):
        raise DomainError(f"brute force: beta |E| overflows at T = "
                          f"{1.0 / beta:.6g} (max |E| = {e_max:.6g})")
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
    k <= n // 2 down spins are built, in one pass over the blocks
    (:func:`_block_rows`: one canonical sector per class, one eigh each).
    That pass takes the blocks below n // 2 together and the largest block
    alone, so up to n = 18 its flip arrays never hold more than 2.3 times
    the flips of the largest block. The global spin flip maps block k onto
    block n - k and each sector onto the same sector (it commutes with the
    pair swaps), so block n - k has block k's f, <S^2>, coherence and
    multiplicity, S_z negated and the populations in reverse order
    (q -> 3 - q), with no eigh of its own. The blocks stay in the order
    k = 0..n, and the multiplicities sum to 2^n. The rows depend on n
    alone, and the last table is kept, so the points of a sweep or a limit
    scan at one n share one set of eighs.
    """
    idx = np.arange(2 ** n)
    ones = ((idx[:, None] >> np.arange(n)) & 1).sum(axis=1)
    half = n // 2
    rows = np.concatenate([_block_rows(n, range(half), ones),
                           _block_rows(n, range(half, half + 1), ones)],
                          axis=1)
    # blocks k < n - half, by k from the top down, give blocks n - k > half
    # in order: f, S_z, zz, <S^2>; populations q -> 3 - q; coherence;
    # multiplicity
    cols = np.flatnonzero(rows[1] > half - n / 2.0)
    cols = cols[np.argsort(rows[1, cols], kind="stable")]
    flipped = rows[np.ix_([0, 1, 2, 3, 7, 6, 5, 4, 8, 9], cols)]
    flipped[1] = -flipped[1]
    rows = np.concatenate([rows, flipped], axis=1)
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


def _block_rows(n: int, ks: range, ones: np.ndarray) -> np.ndarray:
    """The rows of :func:`_flip_flop_rows` on the blocks with k in ks down
    spins, in the order of k; ``ones[s]`` is the number of set bits of s.
    Every step up to the sector matrices runs once on the states of all
    these blocks together.

    All of it comes from the explicit pair sum H = b S_z - V [F +
    (1 - gamma) sum_{i != j} s^z_i s^z_j], F flipping both spins of a pair
    whose bits differ; the pair sum generates E0 = v(3-gamma)/4 by itself.
    The diagonal part is evaluated state by state; its sums of +-1/2 and
    +-1/4 are exact, so XxzentError is raised where it is not constant on
    a block.

    F commutes with the swaps of the site pairs (0, 1), (2, 3), ..., whose
    parities split each block into sectors sigma (the odd pairs). A state s
    with representative r (each pair with differing bits d(r) turned
    canonical) and flipped pairs g(s) labels the basis vector
    2^(-|d(r)|/2) sum_{h in d(r)} (-1)^|h & sigma| swap_h(r) of sector
    sigma = g(s). Each flip r -> t of two differing bits adds
    2^((|d(r)| - |d(t)|)/2) (-1)^|g(t) & sigma| at (r(t), sigma) if sigma
    lies in d(t); a flip keeps k, so it stays in the block of r.

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
    states = np.flatnonzero((ones >= ks.start) & (ones < ks.stop))
    states = states[np.argsort(ones[states], kind="stable")]   # by k, then s
    k = ones[states]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    sz, zz = _site_sums((states[:, None] >> np.arange(n)) & 1, i, j)
    first = np.searchsorted(k, k)             # the first state of each block
    tilted = (sz != sz[first]) | (zz != zz[first])
    if tilted.any():
        raise XxzentError(f"diagonal not constant on the S_z block of "
                          f"{comb(n, int(k[tilted.argmax()]))} states")
    d, g = _pair_bits(states, even)
    keep = _canonical_sectors(g, ones)
    states, d, g, k, sz, zz = (a[keep] for a in (states, d, g, k, sz, zz))
    sector = k << n | g                       # (k, sigma)
    order = np.argsort(sector, kind="stable")     # one run of states a sector
    states, d, g, k, sz, zz, sector = (
        a[order] for a in (states, d, g, k, sz, zz, sector))
    bounds = [*np.flatnonzero(np.diff(sector, prepend=-1)).tolist(), g.size]
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
                          f"sectors of the S_z block with "
                          f"{k[src[(dst < 0).argmax()]]} down spins")
    # only src, dst and val enter the sector matrices: the other flip arrays
    # of all the blocks would otherwise stay alive through every eigh
    del rbits, ij, t, sigma, dt, gt, live, rank
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
