"""Exact thermodynamics and pairwise entanglement of the fully connected XXZ model.

Everything here comes from the collective spectrum sum

    Z = sum_S Y(S) sum_M exp(-beta E_SM),

summed over a certified window. At fixed S the log-weight ln Y(S) - beta E_SM
is a quadratic in M, so every sector's maximum has a closed form; sectors
whose maximum lies more than 60 + 2 ln(n+1) below the global peak are
skipped, and in the others only the M range above that cut (the roots of
the quadratic, widened by one lattice step) is summed, with the peak as the
one log-sum-exp shift. The skipped mass is at most e^-60 Z, which moves the
concurrence by less than 3e-13 (see :func:`thermal_observables`). The work
is one lgamma map of length n + 1 for ln Y(S), kept for the last n
(:func:`log_multiplicities`), then per point one numpy pass over the
sectors for the window, and one numpy pass per CHUNK_LEVELS = 4096 levels
that carry weight -- about 10^4 levels at n = 8810, T = 0.1 v, against
n^2/4 for the full sum. No step is a Python loop over sectors or levels.
At n = 10^6 (T = 0.1 v, one Xeon core) the first point at an n takes about
0.42 s, most of it the lgamma map, and each later point 0.10-0.12 s.

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
the Hamiltonian from its explicit site-pair sum and uses only S_z
conservation, never the collective spectrum. On the magnetization block
with k down spins the pair sum is H = -V F + c_k: the flip-flop sum
F = sum_{i != j} (s^x_i s^x_j + s^y_i s^y_j) depends on n alone, and the
diagonal c_k = b S_z - V (1 - gamma) sum_{i != j} s^z_i s^z_j is the same on
every state of the block (checked state by state). So one eigh of F per
block with k <= n // 2, the largest C(n, n/2) (3432 at n = 14), serves every
(v, gamma, b, T) at that n; the global spin flip maps block k onto block
n - k with the same F, so those blocks take block k's eigen-rows with S_z
negated and no eigh. The rows are kept for the last n
(:func:`_flip_flop_rows`), with rho_2 of sites (0, 1) assembled from the
blocks, so no 2^n x 2^n matrix is ever formed. On one Xeon core (OpenBLAS,
one thread) the first point at an n takes about 0.04 s at n = 11, 1.1 s at
n = 13 and 12.5 s at n = 14 (0.59 GB peak, set by the middle block, which
the flip does not spare), and each later point under 1 ms. Also here: the
large-field expansion of C and the stepwise T = 0 estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, inf, log, sqrt

import numpy as np

from .errors import DomainError, InconsistentMomentsError, XxzentError
from .model import ModelParams, _level_energy_2, log_multiplicities

__all__ = [
    "CollectiveMoments",
    "PairState",
    "ConcurrenceResult",
    "exact_moments",
    "thermal_observables",
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
    "wootters_concurrence",
    "large_field_expansion",
    "far_field_limit_temperature",
    "zero_T_concurrence_approx",
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

    def eigenvalues(self):
        """Spectrum of rho_2: (p+, p-, p+alpha, p-alpha)."""
        return (self.p_plus, self.p_minus, self.p + self.alpha, self.p - self.alpha)

    def matrix(self) -> np.ndarray:
        return np.array([
            [self.p_plus, 0.0, 0.0, 0.0],
            [0.0, self.p, self.alpha, 0.0],
            [0.0, self.alpha, self.p, 0.0],
            [0.0, 0.0, 0.0, self.p_minus],
        ])


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence plus entanglement of formation for one parameter point.

    ``margin`` is the signed quantity whose positive part is C, or None
    where C is 0 by construction; it stays smooth where C switches on.
    """

    concurrence: float
    eof: float
    entangled: bool
    status: str = "ok"
    margin: float | None = None


# ----------------------------------------------------------------------------
# Spectral sums
# ----------------------------------------------------------------------------

CUT_NATS = 60.0   # levels below peak - CUT_NATS - 2 ln(n+1) are skipped
CHUNK_LEVELS = 4096   # window levels per numpy pass (bounds the pass's memory)


def _level_weights(n: int, two_S, two_M) -> np.ndarray:
    """Per-level values of the seven spectral sums, one row each.

    Rows: 1, M, M^2, S(S+1) (count and the three moments) and
    (M + n/2)(M + n/2 - 1), (n/2 - M)(n/2 - M - 1), S(S+1) - M^2 - n/2
    (the direct p+, p-, alpha sums). ``two_S`` is a scalar or broadcasts
    against ``two_M``.
    """
    M = np.asarray(two_M, dtype=float) / 2.0
    S = np.asarray(two_S, dtype=float) / 2.0
    half = n / 2.0
    rows = np.empty((7,) + M.shape)      # filled in place: no stacked copies
    rows[0] = 1.0
    rows[1] = M
    rows[2] = M * M
    rows[3] = S * (S + 1.0)
    rows[4] = (M + half) * (M + half - 1.0)
    rows[5] = (half - M) * (half - M - 1.0)
    rows[6] = rows[3] - rows[2] - half
    return rows


def _observables(n: int, acc, logZ: float = float("nan")):
    """(CollectiveMoments, PairState) from the seven sums of _level_weights."""
    Z = acc[0]
    moments = CollectiveMoments(sz=acc[1] / Z, sz2=acc[2] / Z, s2=acc[3] / Z,
                                logZ=logZ)
    den = n * (n - 1.0) * Z
    p_plus, p_minus, alpha = acc[4] / den, acc[5] / den, acc[6] / den
    return moments, PairState(p_plus=p_plus, p=0.5 * (1.0 - p_plus - p_minus),
                              p_minus=p_minus, alpha=alpha)


def _lattice_down(x, two_S):
    """Largest doubled M <= x with the parity of 2S, elementwise.

    x is first clipped to two lattice steps beyond the sector, so infinite
    or huge roots are safe.
    """
    x = np.clip(x, -two_S - 4.0, two_S + 4.0)
    return two_S - 2 * np.ceil((two_S - x) / 2.0).astype(np.int64)


def _lattice_up(x, two_S):
    """Smallest doubled M >= x with the parity of 2S (clipped as above)."""
    return -_lattice_down(-x, two_S)


def _roots(a: float, b: float, R):
    """Real roots r1 <= r2 of a M^2 + b M = R (a != 0) for each R,
    cancellation-free.

    A discriminant that rounds below zero is taken as zero (double root at
    the vertex); callers widen around the roots by a lattice step anyway.
    Where q = 0 (b = 0 and a R <= 0) both roots are 0.
    """
    s = np.sqrt(np.maximum(b * b + 4.0 * a * R, 0.0))
    q = -0.5 * (b + np.copysign(s, b))
    r1 = q / a
    r2 = np.divide(-R, q, out=np.zeros_like(q), where=q != 0.0)
    return np.minimum(r1, r2), np.maximum(r1, r2)


def _sector_segments(a: float, b: float, R, two_S):
    """Doubled-M ranges where a M^2 + b M <= R, for all sectors at once.

    Returns (k, lo, hi): sector index into ``R``/``two_S`` and the range
    lo..hi (step 2), one entry per non-empty segment. Each range is widened
    by one lattice step beyond the roots, so rounding in the roots never
    drops a level that belongs to the window.
    """
    k = np.arange(two_S.size)
    if a > 0:
        r1, r2 = _roots(a, b, R)
        lo = np.maximum(_lattice_up(2.0 * r1, two_S) - 2, -two_S)
        hi = np.minimum(_lattice_down(2.0 * r2, two_S) + 2, two_S)
    else:
        # a <= 0: the left side is concave or linear in M, so the window is
        # the sector minus one open interval (x1, x2) -- a left and a right
        # end segment. No interval (x1, x2) = (+inf, -inf) leaves the sector
        # whole; a = 0 has one infinite root.
        infs = np.full(R.shape, inf)
        if a < 0:
            gap = b * b + 4.0 * a * R > 0.0
            r1, r2 = _roots(a, b, R)
            x1, x2 = np.where(gap, r1, infs), np.where(gap, r2, -infs)
        elif b > 0:
            x1, x2 = R / b, infs
        elif b < 0:
            x1, x2 = -infs, R / b
        else:
            x1, x2 = infs, -infs
        left_hi = np.minimum(_lattice_down(2.0 * x1, two_S) + 2, two_S)
        right_lo = np.maximum(_lattice_up(2.0 * x2, two_S) - 2, -two_S)
        whole = left_hi + 2 >= right_lo
        k = np.concatenate([k, k])
        lo = np.concatenate([-two_S, np.where(whole, two_S + 2, right_lo)])
        hi = np.concatenate([np.where(whole, two_S, left_hi), two_S])
    keep = lo <= hi
    return k[keep], lo[keep], hi[keep]


def _summation_window(params: ModelParams):
    """Certified window of the T > 0 spectral sum: (peak, segments).

    ``peak`` is the largest level log-weight ln Y(S) - beta E_SM and
    ``segments`` = (two_S, lnY, lo, hi), one array entry per segment: the
    doubled-M ranges lo..hi (step 2) of sector 2S, whose ln Y(S) is lnY,
    holding every level whose log-weight is at least
    cut = peak - CUT_NATS - 2 ln(n+1). At fixed S the log-weight is
    const(S) - beta (b M + a M^2) with a = V gamma, so each sector's maximum
    over the lattice M = -S..S has a closed form (the lattice points around
    the vertex for a > 0, the ends otherwise), evaluated for all S at once;
    sectors whose maximum is below the cut are skipped whole. The number of
    levels summed is sum((hi - lo) // 2 + 1). A peak that is not finite
    (beta |E| past the float range: at n = 8810 from T ~ 1e-305) is a
    DomainError, raised before any sum.
    """
    n, beta = params.n, params.beta
    lnY = log_multiplicities(n)
    a, b = params.V * params.gamma, params.b
    two_S = np.arange(n % 2, n + 1, 2)            # two_s_range(n)
    S = two_S / 2.0
    cands = [-two_S, two_S]
    if a > 0:
        vertex = np.clip(-b / a, -two_S, two_S)        # 2 M* = -b / (V gamma)
        below = two_S - 2.0 * np.ceil((two_S - vertex) / 2.0)
        cands += [below, np.minimum(below + 2.0, two_S)]
    with np.errstate(over="ignore", invalid="ignore"):
        const = lnY + beta * (params.V * S * (S + 1.0) - params.E0)
        best = np.max([-beta * (b * (c / 2.0) + a * (c / 2.0) ** 2)
                       for c in cands], axis=0)
        sector_max = const + best
    peak = float(sector_max.max())
    if not np.isfinite(peak):
        raise DomainError(f"beta |E| overflows at T = {params.T:.6g}; "
                          "T = 0 is the ground-state path")
    cut = peak - CUT_NATS - 2.0 * log(n + 1.0)
    live = np.flatnonzero(sector_max >= cut)
    R = (const[live] - cut) / beta
    k, lo, hi = _sector_segments(a, b, R, two_S[live])
    return peak, (two_S[live][k], lnY[live][k], lo, hi)


def thermal_observables(params: ModelParams):
    """One pass over the spectrum: (CollectiveMoments, PairState) at T > 0.

    Accumulates Z, <S_z>, <S_z^2>, <S^2> and the three direct pair-state sums
    over the certified window of :func:`_summation_window`, shifted by the
    window's peak so no exponential overflows. The window's levels are laid
    out flat, segment after segment, and summed CHUNK_LEVELS at a time.

    Certificate: there are at most (n+1)^2 levels (S, M), each skipped one
    weighs less than e^cut = e^peak e^-CUT_NATS / (n+1)^2, and Z >= e^peak,
    so the skipped mass is delta <= e^-60 Z ~ 9e-27 Z. Every per-level value
    of p+, p-, alpha lies in [-1, 1], so each pair-state entry moves by at
    most 2 delta; ln Z by at most delta; the moments by at most 2 delta times
    their largest per-level value (n/2, n^2/4, n(n+2)/4). Since
    |sqrt x - sqrt y| <= sqrt|x - y| and p+ + p- <= 1, the concurrence
    moves by |dC| <= 4 delta + 2 sqrt(2 delta) ~ 3e-13. (A cut of e^-40
    would not do: with p+ ~ 1e-26 in the far field, sqrt(delta) ~ 2e-9.)

    The closed-form peak and the per-level log-weights round differently,
    by about eps beta |E|: once beta |E| passes ~1e16 that is nats, and
    the top level's weight can overflow or underflow. So where the summed
    Z is not finite or is below 1/2 (the top level alone gives Z ~ 1), or
    another sum is not finite, the peak is taken as the largest per-level
    log-weight of the window and the sums are taken again.
    """
    if params.T <= 0:
        raise DomainError("thermal_observables requires T > 0; "
                          "use the ground-state path at T = 0")
    peak, segments = _summation_window(params)
    with np.errstate(over="ignore", invalid="ignore"):
        acc = _window_sums(params, peak, segments)
    if not (np.isfinite(acc).all() and acc[0] >= 0.5):
        peak = max(float(_log_weights(params, *chunk).max())
                   for chunk in _window_chunks(segments))
        acc = _window_sums(params, peak, segments)
    return _observables(params.n, acc, logZ=peak + log(acc[0]))


def _window_chunks(segments):
    """The window's levels, flat and CHUNK_LEVELS at a time: (two_S, lnY,
    two_M) per chunk."""
    two_S, lnY, lo, hi = segments
    end = np.cumsum((hi - lo) // 2 + 1)    # flat index one past each segment
    levels = int(end[-1])
    for first in range(0, levels, CHUNK_LEVELS):
        j = np.arange(first, min(first + CHUNK_LEVELS, levels))
        k = np.searchsorted(end, j, side="right")    # segment of each level
        yield two_S[k], lnY[k], hi[k] - 2 * (end[k] - 1 - j)


def _window_sums(params: ModelParams, peak: float, segments) -> np.ndarray:
    """The seven sums of :func:`_level_weights` over the window, chunk by
    chunk."""
    acc = np.zeros(7)
    for chunk in _window_chunks(segments):
        acc += _chunk_sums(params, peak, *chunk)
    return acc


def _log_weights(params: ModelParams, two_S, lnY, two_M):
    """Per-level log-weights ln Y(S) - beta E_SM."""
    return lnY - params.beta * _level_energy_2(params, two_S, two_M)


def _chunk_sums(params: ModelParams, peak: float, two_S, lnY, two_M):
    """The seven sums of :func:`_level_weights` over some levels (S, M),
    each weighted by exp(ln Y(S) - beta E_SM - peak).

    A function of its own so that a chunk's arrays are freed before the
    next chunk is built.
    """
    rows = _level_weights(params.n, two_S, two_M)
    rows *= np.exp(_log_weights(params, two_S, lnY, two_M) - peak)
    return rows.sum(axis=1)


def exact_moments(params: ModelParams) -> CollectiveMoments:
    """ln Z and the collective moments by direct Boltzmann sums (T > 0)."""
    return thermal_observables(params)[0]


# ----------------------------------------------------------------------------
# T = 0 path
# ----------------------------------------------------------------------------

def _ground_levels(params: ModelParams, tol: float = 1e-12):
    """Degenerate set of minimal-energy levels [(two_S, two_M, Y weight)].

    At fixed M the energy falls with S (v > 0), so every minimal level lies in
    the top sector S = n/2, where Y = 1: O(n) work at any n. A crossing field
    lands exactly on two degenerate levels; the T -> 0 limit of the thermal
    state is the equal mixture over the degenerate set.
    """
    n = params.n
    two_M = np.arange(-n, n + 1, 2)
    E = _level_energy_2(params, n, two_M)
    scale = max(params.v, abs(params.b), 1.0)
    return [(n, int(tm), 1) for tm in two_M[E <= E.min() + tol * scale]]


def _mixture_observables(params: ModelParams, levels):
    """Equal-weight mixture of the levels, each (S, M) counted Y(S) times."""
    two_S, two_M, Y = np.array(levels, dtype=float).T
    sums = _level_weights(params.n, two_S, two_M) @ Y
    return _observables(params.n, sums)


def ground_state_observables(params: ModelParams):
    """One pass over the ground levels: (CollectiveMoments, PairState) at T = 0.

    Sharp (S, M) values, or the equal mixture at a crossing field, where the
    two-level mixture reproduces the fluctuation <S_z^2> - <S_z>^2 = 1/4
    responsible for the C = 1/n dips.
    """
    return _mixture_observables(params, _ground_levels(params))


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
# Brute-force oracle (S_z blocks of the 2^n Hilbert space)
# ----------------------------------------------------------------------------

def brute_force_observables(params: ModelParams):
    """(CollectiveMoments, rho_2 of sites (0, 1)) at one T > 0 point.

    On the block with k down spins H = -V F + c_k, with the flip-flop sum F
    a function of n alone and c_k the same on every state of the block
    (see _build_block). So the eigenstates of F (_flip_flop_rows: one eigh
    per block with k <= n // 2, the others from the spin flip, kept for the
    last n) are those of H at every (v, gamma, b, T), and one
    log-sum-exp over their energies b S_z - V [f + (1 - gamma)
    sum_{i != j} s^z_i s^z_j] weights them. A point past the n cap or at
    T <= 0 is refused before any eigh.

    rho_2 is indexed by 2 q_0 + q_1 with q = 0 for spin up. Its only
    coherence couples |01> and |10>: every other pair of basis states
    differs in magnetization.
    """
    if params.n > BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"brute force capped at n = {BRUTE_FORCE_MAX_N}: its largest S_z "
            f"block, C({params.n}, {params.n // 2}), exceeds the desk-scale "
            "ceiling")
    if params.T <= 0:
        raise DomainError("brute force oracle requires T > 0")
    rows = _flip_flop_rows(params.n)
    f, sz, zz, s2 = rows[:4]
    w = params.b * sz - params.V * (f + (1.0 - params.gamma) * zz)
    p, logZ = _boltzmann(w, params.beta)
    moments = CollectiveMoments(sz=float(p @ sz), sz2=float(p @ (sz * sz)),
                                s2=float(p @ s2), logZ=logZ)
    *pops, coh = rows[4:] @ p
    rho2 = np.diag(pops)
    rho2[1, 2] = rho2[2, 1] = coh
    return moments, rho2


def _boltzmann(w: np.ndarray, beta: float):
    lw = -beta * w
    m = lw.max()
    e = np.exp(lw - m)
    Z = e.sum()
    return e / Z, m + log(Z)


@lru_cache(maxsize=1)
def _flip_flop_rows(n: int) -> np.ndarray:
    """Per-eigenstate rows of F over all S_z blocks: its eigenvalue f, S_z,
    the block's sum_{i != j} s^z_i s^z_j, <S^2> = f + S_z^2 + n/2, the four
    rho_2 populations and the rho_2 coherence <01|.|10>; read-only.

    The basis is split by the number k of down spins (bit k of a basis index
    set means site k is down); ``pos`` maps a basis index to its position in
    its block. Only the blocks with k <= n // 2 are built and diagonalized,
    each once and then dropped. The global spin flip maps block k onto block
    n - k, whose ascending states are block k's complements in descending
    order: its F is block k's F[::-1, ::-1], S_z changes sign and
    sum_{i != j} s^z_i s^z_j stays. So block n - k has block k's f, <S^2>
    and coherence, S_z negated and the populations in reverse order
    (q -> 3 - q), with no eigh of its own. The blocks stay in the order
    k = 0..n. The rows depend on n alone, and the last table is kept, so the
    points of a sweep or a limit scan at one n share one set of block eighs.
    """
    idx = np.arange(2 ** n)
    down = ((idx[:, None] >> np.arange(n)) & 1).sum(axis=1)
    pair = 2 * (idx & 1) + ((idx >> 1) & 1)   # rho_2 index of sites (0, 1)
    pos = np.empty_like(idx)
    rows = []
    for k in range(n // 2 + 1):
        states = np.flatnonzero(down == k)
        pos[states] = np.arange(states.size)
        F, sz, zz = _build_block(n, states, pos)
        f, U = np.linalg.eigh(F)
        pops = [(U[pair[states] == q] ** 2).sum(axis=0) for q in range(4)]
        swap = states[pair[states] == 1]      # site 0 up, site 1 down
        coh = np.einsum("ia,ia->a", U[pos[swap]], U[pos[swap ^ 3]])
        rows.append(np.stack([f, np.full_like(f, sz), np.full_like(f, zz),
                              f + sz * sz + n / 2.0, *pops, coh]))
    for k in range(n // 2 + 1, n + 1):
        # f, S_z, zz, <S^2>; populations q -> 3 - q; coherence
        flipped = rows[n - k][[0, 1, 2, 3, 7, 6, 5, 4, 8]]
        flipped[1] = -flipped[1]
        rows.append(flipped)
    rows = np.concatenate(rows, axis=1)
    rows.setflags(write=False)
    return rows


def _site_sums(bits: np.ndarray, i: np.ndarray, j: np.ndarray):
    """S_z and sum over the site pairs (i, j) of s^z_i s^z_j, per basis state
    (a row of ``bits``, 1 for a down spin)."""
    szdiag = 0.5 - bits                       # per-site s_z eigenvalue
    return szdiag.sum(axis=1), (szdiag[:, i] * szdiag[:, j]).sum(axis=1)


def _build_block(n: int, states: np.ndarray, pos: np.ndarray):
    """The flip-flop sum F on the S_z block spanned by ``states``, with the
    block's S_z and sum_{i != j} s^z_i s^z_j.

    All three come from the explicit double sum over site pairs i != j, i.e.
    straight from the pairwise form of the Hamiltonian, independent of the
    collective-spectrum route the oracle is meant to check:
    F = sum_{i != j} (s^x_i s^x_j + s^y_i s^y_j), which flips both spins of
    a pair whose bits differ, and H = b S_z - V [F + (1 - gamma)
    sum_{i != j} s^z_i s^z_j]. The pair sum generates the E0 = v(3-gamma)/4
    constant of the collective form by itself (sum_i s_i^2 terms), so there
    is no explicit shift. The diagonal part of H is evaluated state by
    state; its sums of +-1/2 and +-1/4 are exact, so it is the same on every
    state of the block, and XxzentError is raised where it is not, since
    taking it out of the eigh would then be wrong.
    """
    bits = (states[:, None] >> np.arange(n)) & 1
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    sz, zz = _site_sums(bits, i, j)
    if np.ptp(sz) != 0.0 or np.ptp(zz) != 0.0:
        raise XxzentError(f"diagonal not constant on the S_z block of "
                          f"{states.size} states")
    # s^x_i s^x_j + s^y_i s^y_j = (s+_i s-_j + s-_i s+_j)/2
    src, ij = np.nonzero(bits[:, i] != bits[:, j])
    dst = pos[states[src] ^ (1 << i[ij]) ^ (1 << j[ij])]
    F = np.zeros((states.size, states.size))
    np.add.at(F, (dst, src), 0.5)
    return F, float(sz[0]), float(zz[0])


def brute_force_pair_density(params: ModelParams) -> np.ndarray:
    """Exact rho_2 of sites (0, 1), assembled from the S_z blocks."""
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


def wootters_concurrence(rho2: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix."""
    return max(wootters_margin(rho2), 0.0)


# ----------------------------------------------------------------------------
# Asymptotics
# ----------------------------------------------------------------------------

def large_field_expansion(params: ModelParams) -> ConcurrenceResult:
    """Far-field concurrence to lowest order in exp(-beta b):

        C ~ (2/n) e^{-beta(b - b_c)} [ 1 - e^{-beta v}
              - sqrt(2 n eta / (n-1)) e^{-beta gamma v / n} ]_+
        eta = 1 - (n-1) e^{-beta v} + (n/2)(n-3) e^{-2 beta v (1 - 1/n)}

    Valid deep in the aligned region; requires |b| - b_c > 5 T (else the
    result is flagged not-applicable rather than silently extrapolated).
    """
    n, v = params.n, params.v
    beta = params.beta
    b = abs(params.b)
    b_c = params.b_c
    if b - b_c <= 5.0 * params.T:
        return ConcurrenceResult(concurrence=float("nan"), eof=float("nan"),
                                 entangled=False, status="not-applicable")
    ebv = exp(-beta * v)
    eta = 1.0 - (n - 1.0) * ebv + 0.5 * n * (n - 3.0) * exp(-2.0 * beta * v * (1.0 - 1.0 / n))
    bracket = 1.0 - ebv - sqrt(max(2.0 * n * eta / (n - 1.0), 0.0)) * exp(-beta * params.gamma * v / n)
    C = (2.0 / n) * exp(-beta * (b - b_c)) * max(bracket, 0.0)
    return ConcurrenceResult(concurrence=C, eof=eof_from_concurrence(C),
                             entangled=bool(C > ENTANGLED_EPS))


def far_field_limit_temperature(n: int, gamma: float, v: float) -> float:
    """b-independent limit temperature 2*gamma*v / (n ln[2n/(n-1)]) for b >> b_c."""
    return 2.0 * gamma * v / (n * log(2.0 * n / (n - 1.0)))


def zero_T_concurrence_approx(n: int, m: float) -> float:
    """Stepwise T = 0 concurrence, C ~ 1/(n-1) + [4m^2/(1-4m^2)]/(n-1)^2.

    m = M/n must stay well below 1/2 (the expansion breaks near alignment).
    """
    if abs(m) >= 0.5 - 1.0 / n:
        raise DomainError(f"|m| = {abs(m)} too close to 1/2: expansion invalid")
    return 1.0 / (n - 1.0) + (4.0 * m * m / (1.0 - 4.0 * m * m)) / (n - 1.0) ** 2
