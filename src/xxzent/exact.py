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
is O(n) for the sector scan plus the levels that carry weight -- about 10^4
at n = 8810, T = 0.1 v, against n^2/4 for the full sum -- so n ~ 10^5 is
routine.

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

A dense 2^n brute-force oracle (n <= 14) built from local spin matrices is
included for cross-validation, together with the large-field expansion of C
and the stepwise T = 0 estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, copysign, exp, inf, log, sqrt

import numpy as np

from .errors import DomainError, InconsistentMomentsError
from .model import ModelParams, _level_energy_2, log_multiplicity, two_s_range

__all__ = [
    "CollectiveMoments",
    "PairState",
    "ConcurrenceResult",
    "exact_moments",
    "exact_pair_state",
    "thermal_observables",
    "ground_state_moments",
    "ground_state_pair_state",
    "pair_state",
    "concurrence",
    "eof_from_concurrence",
    "brute_force_moments",
    "brute_force_pair_density",
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
    """Concurrence plus entanglement of formation for one parameter point."""

    concurrence: float
    eof: float
    entangled: bool
    tier: str = "exact"
    status: str = "ok"


# ----------------------------------------------------------------------------
# Spectral sums
# ----------------------------------------------------------------------------

CUT_NATS = 60.0   # levels below peak - CUT_NATS - 2 ln(n+1) are skipped


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
    ssp1 = np.broadcast_to(S * (S + 1.0), M.shape)
    return np.stack([np.ones_like(M), M, M * M, ssp1,
                     (M + half) * (M + half - 1.0),
                     (half - M) * (half - M - 1.0),
                     ssp1 - M * M - half])


def _observables(n: int, acc, logZ: float = float("nan")):
    """(CollectiveMoments, PairState) from the seven sums of _level_weights."""
    Z = acc[0]
    moments = CollectiveMoments(sz=acc[1] / Z, sz2=acc[2] / Z, s2=acc[3] / Z,
                                logZ=logZ)
    den = n * (n - 1.0) * Z
    p_plus, p_minus, alpha = acc[4] / den, acc[5] / den, acc[6] / den
    return moments, PairState(p_plus=p_plus, p=0.5 * (1.0 - p_plus - p_minus),
                              p_minus=p_minus, alpha=alpha)


def _lattice_down(x: float, two_S: int) -> int:
    """Largest doubled M <= x with the parity of 2S.

    x is first clipped to two lattice steps beyond the sector, so infinite
    or huge roots are safe.
    """
    x = min(max(x, -two_S - 4.0), two_S + 4.0)
    return two_S - 2 * ceil((two_S - x) / 2.0)


def _lattice_up(x: float, two_S: int) -> int:
    """Smallest doubled M >= x with the parity of 2S (clipped as above)."""
    return -_lattice_down(-x, two_S)


def _roots(a: float, b: float, R: float):
    """Real roots r1 <= r2 of a M^2 + b M = R (a != 0), cancellation-free.

    A discriminant that rounds below zero is taken as zero (double root at
    the vertex); callers widen around the roots by a lattice step anyway.
    """
    s = sqrt(max(b * b + 4.0 * a * R, 0.0))
    q = -0.5 * (b + copysign(s, b))
    if q == 0.0:
        return 0.0, 0.0
    r1, r2 = q / a, -R / q
    return min(r1, r2), max(r1, r2)


def _sector_segments(a: float, b: float, R: float, two_S: int):
    """Doubled-M ranges (lo, hi) of one sector where a M^2 + b M <= R.

    Each range is widened by one lattice step beyond the roots, so rounding
    in the roots never drops a level that belongs to the window.
    """
    if a > 0:
        r1, r2 = _roots(a, b, R)
        lo = max(_lattice_up(2.0 * r1, two_S) - 2, -two_S)
        hi = min(_lattice_down(2.0 * r2, two_S) + 2, two_S)
        return [(lo, hi)] if lo <= hi else []
    # a <= 0: the left side is concave or linear in M, so the window is the
    # sector minus one open interval (x1, x2) -- up to two end segments
    if a < 0 and b * b + 4.0 * a * R > 0.0:
        x1, x2 = _roots(a, b, R)
    elif a == 0 and b != 0:
        x1, x2 = (R / b, inf) if b > 0 else (-inf, R / b)
    else:
        return [(-two_S, two_S)]
    left_hi = min(_lattice_down(2.0 * x1, two_S) + 2, two_S)
    right_lo = max(_lattice_up(2.0 * x2, two_S) - 2, -two_S)
    if left_hi + 2 >= right_lo:
        return [(-two_S, two_S)]
    return [(lo, hi) for lo, hi in ((-two_S, left_hi), (right_lo, two_S))
            if lo <= hi]


def _summation_window(params: ModelParams):
    """Certified window of the T > 0 spectral sum: (peak, segments).

    ``peak`` is the largest level log-weight ln Y(S) - beta E_SM and
    ``segments`` lists (two_S, ln Y(S), lo, hi): the doubled-M ranges lo..hi
    (step 2) holding every level whose log-weight is at least
    cut = peak - CUT_NATS - 2 ln(n+1). At fixed S the log-weight is
    const(S) - beta (b M + a M^2) with a = V gamma, so each sector's maximum
    over the lattice M = -S..S has a closed form (the lattice points around
    the vertex for a > 0, the ends otherwise), evaluated for all S at once;
    sectors whose maximum is below the cut are skipped whole. The number of
    levels summed is sum((hi - lo) // 2 + 1).
    """
    n, beta = params.n, params.beta
    a, b = params.V * params.gamma, params.b
    two_S = np.array(two_s_range(n))
    lnY = np.fromiter((log_multiplicity(n, int(t)) for t in two_S), float,
                      len(two_S))
    S = two_S / 2.0
    const = lnY + beta * (params.V * S * (S + 1.0) - params.E0)
    cands = [-two_S, two_S]
    if a > 0:
        vertex = np.clip(-b / a, -two_S, two_S)        # 2 M* = -b / (V gamma)
        below = two_S - 2.0 * np.ceil((two_S - vertex) / 2.0)
        cands += [below, np.minimum(below + 2.0, two_S)]
    best = np.max([-beta * (b * (c / 2.0) + a * (c / 2.0) ** 2) for c in cands],
                  axis=0)
    sector_max = const + best
    peak = float(sector_max.max())
    cut = peak - CUT_NATS - 2.0 * log(n + 1.0)
    segments = []
    for k in np.flatnonzero(sector_max >= cut):
        ts = int(two_S[k])
        R = (const[k] - cut) / beta
        segments += [(ts, float(lnY[k]), lo, hi)
                     for lo, hi in _sector_segments(a, b, R, ts)]
    return peak, segments


def thermal_observables(params: ModelParams):
    """One pass over the spectrum: (CollectiveMoments, PairState) at T > 0.

    Accumulates Z, <S_z>, <S_z^2>, <S^2> and the three direct pair-state sums
    over the certified window of :func:`_summation_window`, one sector at a
    time, shifted by the window's peak so no exponential overflows.

    Certificate: there are at most (n+1)^2 levels (S, M), each skipped one
    weighs less than e^cut = e^peak e^-CUT_NATS / (n+1)^2, and Z >= e^peak,
    so the skipped mass is delta <= e^-60 Z ~ 9e-27 Z. Every per-level value
    of p+, p-, alpha lies in [-1, 1], so each pair-state entry moves by at
    most 2 delta; ln Z by at most delta; the moments by at most 2 delta times
    their largest per-level value (n/2, n^2/4, n(n+2)/4). Since
    |sqrt x - sqrt y| <= sqrt|x - y| and p+ + p- <= 1, the concurrence
    moves by |dC| <= 4 delta + 2 sqrt(2 delta) ~ 3e-13. (A cut of e^-40
    would not do: with p+ ~ 1e-26 in the far field, sqrt(delta) ~ 2e-9.)
    """
    if params.T <= 0:
        raise DomainError("thermal_observables requires T > 0; "
                          "use the ground-state path at T = 0")
    n, beta = params.n, params.beta
    peak, segments = _summation_window(params)
    acc = np.zeros(7)
    for two_S, lnY, lo, hi in segments:
        two_M = np.arange(lo, hi + 1, 2)
        w = lnY - beta * _level_energy_2(params, two_S, two_M)
        acc += (_level_weights(n, two_S, two_M) * np.exp(w - peak)).sum(axis=1)
    return _observables(n, acc, logZ=peak + log(acc[0]))


def exact_moments(params: ModelParams) -> CollectiveMoments:
    """ln Z and the collective moments by direct Boltzmann sums (T > 0)."""
    return thermal_observables(params)[0]


def exact_pair_state(params: ModelParams) -> PairState:
    """Two-qubit reduced state by direct (cancellation-free) sums (T > 0)."""
    return thermal_observables(params)[1]


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


def ground_state_moments(params: ModelParams) -> CollectiveMoments:
    """T = 0 moments: sharp (S, M) values, or the equal mixture at a crossing.

    At a crossing field the two-level mixture reproduces the fluctuation
    <S_z^2> - <S_z>^2 = 1/4 responsible for the C = 1/n dips.
    """
    return _mixture_observables(params, _ground_levels(params))[0]


def ground_state_pair_state(params: ModelParams) -> PairState:
    """T = 0 two-qubit reduced state (same mixture as ground_state_moments)."""
    return _mixture_observables(params, _ground_levels(params))[1]


# ----------------------------------------------------------------------------
# Reduced state and concurrence
# ----------------------------------------------------------------------------

def pair_state(moments: CollectiveMoments, n: int, tol: float = 1e-12,
               clamp: bool = False) -> PairState:
    """Two-qubit reduced state from the collective moments.

        p+-   = (<S_z^2> - n/4)/(n(n-1)) + 1/4 +- <S_z>/n
        alpha = (<S^2> - <S_z^2> - n/2)/(n(n-1))

    Raises InconsistentMomentsError when rho_2 fails positivity by more than
    ``tol`` (this guards the approximate tiers, whose moments carry quadrature
    and finite-difference noise).  With ``clamp`` the tiny negative diagonal
    populations inside the tolerance band are clipped to zero, which keeps
    sqrt(p+ p-) real for downstream use.
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
    if clamp:
        p_plus = max(p_plus, 0.0)
        p_minus = max(p_minus, 0.0)
    return PairState(p_plus=p_plus, p=p, p_minus=p_minus, alpha=alpha)


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


def concurrence(pair: PairState, n: int, tier: str = "exact",
                status: str = "ok") -> ConcurrenceResult:
    """Concurrence C = 2 [ |alpha| - sqrt(p+ p-) ]_+ of the symmetric pair."""
    u = abs(pair.alpha) - sqrt(max(pair.p_plus * pair.p_minus, 0.0))
    C = max(2.0 * u, 0.0)
    return ConcurrenceResult(concurrence=C, eof=eof_from_concurrence(C),
                             entangled=bool(C > ENTANGLED_EPS), tier=tier, status=status)


# ----------------------------------------------------------------------------
# Brute-force oracle (dense 2^n Hilbert space)
# ----------------------------------------------------------------------------

def brute_force_observables(params: ModelParams):
    """(CollectiveMoments, rho_2) from one dense 2^n diagonalization."""
    w, U, ops = _brute_force_eig(params)
    p, logZ = _boltzmann(w, params.beta)
    SZd, S2 = ops
    sz = float(p @ (U * SZd[:, None] * U).sum(axis=0))
    sz2 = float(p @ (U * (SZd ** 2)[:, None] * U).sum(axis=0))
    s2 = float(p @ (U * (S2 @ U)).sum(axis=0))
    moments = CollectiveMoments(sz=sz, sz2=sz2, s2=s2, logZ=logZ)
    rho = (U * p[None, :]) @ U.T
    return moments, _pair_density_from_rho(rho, params.n)


def brute_force_moments(params: ModelParams) -> CollectiveMoments:
    """Thermal collective moments from dense 2^n diagonalization (n <= 14)."""
    return brute_force_observables(params)[0]


def _boltzmann(w: np.ndarray, beta: float):
    lw = -beta * w
    m = lw.max()
    e = np.exp(lw - m)
    Z = e.sum()
    return e / Z, m + log(Z)


def _brute_force_eig(params: ModelParams):
    n = params.n
    if n > BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"brute force capped at n = {BRUTE_FORCE_MAX_N}: a 2^{n} dense "
            "diagonalization exceeds the desk-scale ceiling")
    if params.T <= 0:
        raise DomainError("brute force oracle requires T > 0")
    H, SZd, S2 = _build_dense(params)
    w, U = np.linalg.eigh(H)
    return w, U, (SZd, S2)


def _build_dense(params: ModelParams):
    """Dense H (real), the diagonal of S_z, and the dense S^2 matrix.

    H is assembled from single-site operators with an explicit double sum
    over site pairs, i.e. straight from the pairwise form of the Hamiltonian,
    independent of the collective-spectrum route it is meant to check.
    """
    n = params.n
    dim = 2 ** n
    idx = np.arange(dim)
    # spins: bit k of the basis index = 1 means site k is down (-1/2)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    szdiag = 0.5 - bits  # per-site s_z eigenvalue, shape (dim, n)
    SZd = szdiag.sum(axis=1)

    # the pairwise i != j sum generates the E0 = v(3-gamma)/4 constant of the
    # collective form by itself (sum_i s_i^2 terms), so no explicit shift here
    H = np.zeros((dim, dim))
    H[idx, idx] = params.b * SZd
    V = params.V
    sxsx_plus_sysy = np.zeros((dim, dim))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # diagonal part: s^z_i s^z_j
            H[idx, idx] -= V * (1.0 - params.gamma) * szdiag[:, i] * szdiag[:, j]
            # flip-flop part: s^x_i s^x_j + s^y_i s^y_j = (s+_i s-_j + s-_i s+_j)/2
            # acts on states where bits i and j differ, flipping both
            differ = bits[:, i] != bits[:, j]
            src = idx[differ]
            dst = src ^ (1 << i) ^ (1 << j)
            sxsx_plus_sysy[dst, src] += 0.5
    H -= V * sxsx_plus_sysy

    # S^2 = S_z^2 + (S+ S- + S- S+)/2, assembled from the same flip-flop blocks
    S2 = sxsx_plus_sysy.copy()
    S2[idx, idx] += SZd ** 2 + n / 2.0  # sum_i (sx_i^2 + sy_i^2) = n/2 on the diagonal
    return H, SZd, S2


def brute_force_pair_density(params: ModelParams) -> np.ndarray:
    """Exact rho_2 of sites (0, 1) by partial trace of the thermal state."""
    return brute_force_observables(params)[1]


def _pair_density_from_rho(rho: np.ndarray, n: int) -> np.ndarray:
    dim_rest = 2 ** (n - 2)
    # basis index = bit0 + 2*bit1 + 4*rest with bit = 0 meaning spin up, so a
    # C-order reshape exposes axes (rest, site1, site0)
    r = rho.reshape(dim_rest, 2, 2, dim_rest, 2, 2)
    rho2 = np.einsum("rabrcd->abcd", r).reshape(4, 4)
    # swap to the standard |q_i q_j> ordering (site 0 first)
    perm = [0, 2, 1, 3]
    return rho2[np.ix_(perm, perm)]


def wootters_concurrence(rho2: np.ndarray) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    R = rho2 @ yy @ rho2.conj() @ yy
    ev = np.linalg.eigvals(R)
    ev = np.sqrt(np.clip(ev.real, 0.0, None))
    ev.sort()
    return float(max(0.0, ev[-1] - ev[-2] - ev[-3] - ev[-4]))


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
                                 entangled=False, tier="large-field",
                                 status="not-applicable")
    ebv = exp(-beta * v)
    eta = 1.0 - (n - 1.0) * ebv + 0.5 * n * (n - 3.0) * exp(-2.0 * beta * v * (1.0 - 1.0 / n))
    bracket = 1.0 - ebv - sqrt(max(2.0 * n * eta / (n - 1.0), 0.0)) * exp(-beta * params.gamma * v / n)
    C = (2.0 / n) * exp(-beta * (b - b_c)) * max(bracket, 0.0)
    return ConcurrenceResult(concurrence=C, eof=eof_from_concurrence(C),
                             entangled=bool(C > ENTANGLED_EPS), tier="large-field")


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
