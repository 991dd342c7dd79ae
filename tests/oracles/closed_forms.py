"""Closed forms of the fully connected XXZ model and its explicit collective
spectrum, as test oracles for the tiers.

The far-field and T = 0 concurrence expansions and the far-field limit
temperature check the exact tier; the large-n CMFA expansion and the T_c
jump of ln Z check the cmfa tier; the single RPA mode checks the cspa
integrand; the (S, M) level table checks the exact tier's spectral sums,
and the ln Y(S) table of every sector its live sectors, over the full scan.
Only public xxzent names are imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, log1p, sqrt

import numpy as np

from xxzent.cmfa import cmfa_logZ, critical_temperature, gap_solve
from xxzent.cspa import omega_squared
from xxzent.errors import DomainError, PhaseError
from xxzent.exact import (ENTANGLED_EPS, ConcurrenceResult,
                          eof_from_concurrence)
from xxzent.model import ModelParams, level_energy, multiplicity, two_s_range


# ----------------------------------------------------------------------------
# Collective spectrum
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinLevel:
    """One collective level: quantum numbers, energy and multiplicity Y(S)."""

    S: float
    M: float
    energy: float
    multiplicity: int


def log_multiplicities(n: int) -> np.ndarray:
    """ln Y(S) for every 2S of two_s_range(n), the full scan: one lgamma map
    of length n + 1 and one log1p map over the sectors, bit-identical to
    model.log_multiplicity element by element (the same terms, combined in
    the same order, with lgamma and log1p from ``math``)."""
    lg = np.fromiter(map(lgamma, range(1, n + 2)), float, n + 1)  # lgamma(j+1)
    h = n // 2
    k = np.arange(h, -1, -1.0)             # k = (n - 2S) / 2, 2S ascending
    lc = lg[n] - lg[h::-1] - lg[n - h:]    # lgamma(k+1), lgamma(n-k+1)
    x = -k / (n - k + 1.0)
    return lc + np.fromiter(map(log1p, x.tolist()), float, k.size)


def spectrum_table(params: ModelParams):
    """All (S, M, E_SM, Y(S)) rows of the collective spectrum.

    O(n^2) rows; intended for small to moderate n.
    """
    rows = []
    for two_S in two_s_range(params.n):
        S = two_S / 2.0
        Y = multiplicity(params.n, S)
        for two_M in range(-two_S, two_S + 1, 2):
            M = two_M / 2.0
            rows.append(SpinLevel(S, M, level_energy(params, S, M), Y))
    return rows


# ----------------------------------------------------------------------------
# Exact-tier asymptotics
# ----------------------------------------------------------------------------

def large_field_expansion(params: ModelParams) -> ConcurrenceResult | None:
    """Far-field concurrence to lowest order in exp(-beta b):

        C ~ (2/n) e^{-beta(b - b_c)} [ 1 - e^{-beta v}
              - sqrt(2 n eta / (n-1)) e^{-beta gamma v / n} ]_+
        eta = 1 - (n-1) e^{-beta v} + (n/2)(n-3) e^{-2 beta v (1 - 1/n)}

    Valid deep in the aligned region; requires |b| - b_c > 5 T, and returns
    None elsewhere rather than extrapolate.
    """
    n, v = params.n, params.v
    beta = params.beta
    b = abs(params.b)
    b_c = params.b_c
    if b - b_c <= 5.0 * params.T:
        return None
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


# ----------------------------------------------------------------------------
# CMFA asymptotics
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CmfaAsymptotics:
    """Large-n CMFA concurrence and its limit-field / limit-temperature forms."""

    c_large_n: float           # (1/n)[1 - 2n e^{-beta v} - (2T/gv)/(1-b^2/(gv)^2)]_+
    b_l: float                 # limit field gv sqrt(1 - (2T/gv)/(1 - 2n e^{-bv}))
    t_l_low_t: float           # (gv/2)(1 - b^2/(gv)^2), valid while 2n e^{-v/T} << 1
    t_l_large_n: float         # (v/ln 2n)[1 - (2/g)/((ln 2n)^2 (1 - b^2/(gv)^2))]
    n_disappear: float         # entanglement gone for n >~ (1/2) e^{beta v}(1 - 2T/(gv))


def cmfa_asymptotics(params: ModelParams) -> CmfaAsymptotics:
    """O(1/n) expansion of the CMFA concurrence and its closed-form limits.

    Requires the deformed phase well below T_c (the expansion drops the
    near-critical chi structure).
    """
    sol = gap_solve(params)
    if sol.phase != "deformed":
        raise PhaseError("asymptotic CMFA forms hold in the deformed phase only")
    n, v, g, T = params.n, params.v, params.gamma, params.T
    beta = 1.0 / T
    gv = g * v
    x2 = (params.b / gv) ** 2
    ebv = exp(-beta * v)
    bracket = 1.0 - 2.0 * n * ebv - (2.0 * T / gv) / (1.0 - x2) if x2 < 1 else -1.0
    c = max(bracket, 0.0) / n
    denom = 1.0 - 2.0 * n * ebv
    b_l = gv * sqrt(1.0 - (2.0 * T / gv) / denom) if denom > 0 and \
        (2.0 * T / gv) < denom else 0.0
    ln2n = log(2.0 * n)
    t_l_large_n = (v / ln2n) * (1.0 - (2.0 / g) / (ln2n ** 2 * (1.0 - x2))) \
        if x2 < 1 else 0.0
    n_gone = float("inf") if beta * v > 700.0 \
        else 0.5 * exp(beta * v) * (1.0 - 2.0 * T / gv)
    return CmfaAsymptotics(
        c_large_n=c,
        b_l=b_l,
        t_l_low_t=0.5 * gv * (1.0 - x2) if x2 < 1 else 0.0,
        t_l_large_n=t_l_large_n,
        n_disappear=n_gone,
    )


def tc_discontinuity(params: ModelParams, rel_step: float = 1e-8) -> float:
    """Jump of ln Z_CMFA across T_c(b), measured, not smoothed.

    The deformed and normal branches are not claimed to join continuously;
    this reports logZ(T_c(1+eps)) - logZ(T_c(1-eps)). Note the deformed
    branch diverges like -ln(1-chi)/2 as T -> T_c^-, so the reported jump
    grows (logarithmically) as rel_step shrinks.
    """
    tc = critical_temperature(params)
    if tc <= 0:
        raise DomainError("no deformed phase at these parameters")
    above = cmfa_logZ(params.replace(T=tc * (1.0 + rel_step)))
    below = cmfa_logZ(params.replace(T=tc * (1.0 - rel_step)))
    return above - below


# ----------------------------------------------------------------------------
# CSPA collective mode
# ----------------------------------------------------------------------------

def rpa_frequency(params: ModelParams, r: float, z: float = 0.0) -> complex:
    """The collective RPA energy: real >= 0, or positive imaginary."""
    w2 = omega_squared(params, r, z)
    return complex(sqrt(w2)) if w2 >= 0 else complex(0.0, sqrt(-w2))
