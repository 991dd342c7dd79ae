"""Exact thermodynamics and pairwise entanglement of the fully connected XXZ model.

Everything here comes from the collective spectrum sum

    Z = sum_S Y(S) sum_M exp(-beta E_SM),

evaluated with log-sum-exp stabilization, so n up to 10^4 at low T is safe.

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
from math import exp, log, sqrt

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

def _sector_arrays(params: ModelParams, two_S: int):
    """(S, M arrays, lnY - beta*E) for one spin sector."""
    two_M = np.arange(-two_S, two_S + 1, 2)
    E = _level_energy_2(params, two_S, two_M)
    w = log_multiplicity(params.n, two_S) - params.beta * E
    return two_M / 2.0, w


def thermal_observables(params: ModelParams):
    """One pass over the spectrum: (CollectiveMoments, PairState) at T > 0.

    Accumulates Z, <S_z>, <S_z^2>, <S^2> and the three direct pair-state sums
    with a streaming log-sum-exp shift, sector by sector, so memory stays
    O(n) and no exponential ever overflows.
    """
    if params.T <= 0:
        raise DomainError("thermal_observables requires T > 0; "
                          "use the ground-state path at T = 0")
    n = params.n
    half = n / 2.0
    shift = -np.inf
    acc = np.zeros(7)  # Z, M, M^2, S(S+1), wplus, wminus, walpha
    for two_S in two_s_range(n):
        M, w = _sector_arrays(params, two_S)
        m = w.max()
        if m > shift:
            if np.isfinite(shift):
                acc *= exp(shift - m)
            shift = m
        e = np.exp(w - shift)
        S = two_S / 2.0
        ssp1 = S * (S + 1.0)
        acc[0] += e.sum()
        acc[1] += (M * e).sum()
        acc[2] += (M * M * e).sum()
        acc[3] += ssp1 * e.sum()
        acc[4] += ((M + half) * (M + half - 1.0) * e).sum()
        acc[5] += ((half - M) * (half - M - 1.0) * e).sum()
        acc[6] += ((ssp1 - M * M - half) * e).sum()
    Z = acc[0]
    logZ = shift + log(Z)
    moments = CollectiveMoments(sz=acc[1] / Z, sz2=acc[2] / Z, s2=acc[3] / Z,
                                logZ=logZ)
    den = n * (n - 1.0) * Z
    p_plus = acc[4] / den
    p_minus = acc[5] / den
    alpha = acc[6] / den
    p = 0.5 * (1.0 - p_plus - p_minus)
    return moments, PairState(p_plus=p_plus, p=p, p_minus=p_minus, alpha=alpha)


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
    n = params.n
    half = n / 2.0
    wtot = sz = sz2 = s2 = wp = wm = wa = 0.0
    for two_S, two_M, Y in levels:
        S, M = two_S / 2.0, two_M / 2.0
        d = Y  # Y(S) degenerate copies of each (S, M) level, equally weighted
        wtot += d
        sz += d * M
        sz2 += d * M * M
        s2 += d * S * (S + 1.0)
        wp += d * (M + half) * (M + half - 1.0)
        wm += d * (half - M) * (half - M - 1.0)
        wa += d * (S * (S + 1.0) - M * M - half)
    moments = CollectiveMoments(sz=sz / wtot, sz2=sz2 / wtot, s2=s2 / wtot)
    den = n * (n - 1.0) * wtot
    p_plus, p_minus, alpha = wp / den, wm / den, wa / den
    return moments, PairState(p_plus=p_plus, p=0.5 * (1 - p_plus - p_minus),
                              p_minus=p_minus, alpha=alpha)


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
                             entangled=C > ENTANGLED_EPS, tier=tier, status=status)


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
                             entangled=C > ENTANGLED_EPS, tier="large-field")


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
