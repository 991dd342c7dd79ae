"""Mean-field + RPA closed forms for the fully connected XXZ model.

Deformed phase (gamma > 0, |b| < gamma v, T < T_c): the gap solves

    lam = v tanh(beta lam / 2)            (independent of b and gamma),

so the gap is computed once per (v, T) and shared by every n, gamma and b,
as cspa computes T* once per field; the longitudinal shift gives
b - z = b/gamma (independent of T and v), and

    T_c(b) = b' / ln[(1 + b'/v)/(1 - b'/v)],   b' = |b|/gamma,

which decreases from v/2 at b -> 0 and vanishes at |b| -> gamma v. The
partition function in the deformed phase carries the static Gaussian and RPA
corrections of the broken-symmetry saddle,

    Z = e^{-(n beta/4v)(lam^2 - b'^2)} Z(lam) sinh(beta lam/2)
        sqrt(4 pi n / (beta v (1 - chi))),
    chi = (beta v / 2) sech^2(beta lam/2) = (beta v / 2)(1 - lam^2/v^2),

the two chi forms agreeing on the gap-equation manifold only. In the normal
phase (r = 0) the single positive RPA mode w = b' - v tanh(beta b'/2) gives

    Z = Z(b') sinh(beta b'/2) / sinh(beta w/2).

gamma < 1 enters ln Z exclusively through the literal rescaling identity

    logZ(gamma, b, v, T) = logZ(1, b/gamma, v, T) - (1/2) ln gamma,

which this module implements as its defining contract (it holds to machine
precision by construction). The moments, however, use the gamma-direct
forms

    <S_z>             = -n b / (2 gamma v)             (T-independent)
    <S_z^2> - <S_z>^2 = n T / (2 gamma v)
    <S^2>             = (n lam / 2v)^2
                        + (n/2)[1 - chi(2 - (1+chi) T/v)] / (1-chi)^2,

which are the Hartree values and match the exact tier for large n at every
gamma; see the docstring of cmfa_moments for why the two prescriptions
differ at gamma < 1.

The plain MFA (no fluctuation factors), the mfa tier, is
mfa_product_moments: the gamma-direct moments and ln Z of the Hartree
product state. Its two-qubit reduced state is a product state, so the MFA
concurrence vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cosh, exp, inf, log, nan, pi, sinh, sqrt, tanh

import numpy as np

from .errors import DomainError, NotApplicableError
from .exact import CollectiveMoments
from .model import ModelParams
from .quadrature import bracket_root

__all__ = [
    "MeanFieldSolution",
    "gap_solve",
    "critical_temperature",
    "cmfa_logZ",
    "cmfa_moments",
    "mfa_product_moments",
    "mean_field_z",
]


@dataclass(frozen=True)
class MeanFieldSolution:
    """Self-consistent mean field at one parameter point.

    ``applicable`` means the deformed-phase CMFA moments are real: for
    T <= Ttilde = gamma v/(2n) the concurrence turns complex past
    b* = b_c - gamma v sqrt(1 - T/Ttilde)/n, and the tier must report
    not-applicable instead of extrapolating.
    """

    phase: str                 # "deformed" | "normal"
    lam: float                 # gap; lam = |b|/gamma at T = T_c
    chi: float
    tc: float
    t_tilde: float
    applicable: bool
    b_star: float | None = None


def _sech2(x: float) -> float:
    """sech^2(x) without overflow at large |x|."""
    e = exp(-2.0 * abs(x))
    return 4.0 * e / (1.0 + e) ** 2


# the gap depends on (v, T) alone, and a figure asks for the same few again
# and again: figure 4 for 269 distinct (v, T) in 1699 calls. Figure 5, the
# largest, asks for 299, so 512 entries keep every root of any one figure.
@lru_cache(maxsize=512)
def _gap_root(v: float, T: float) -> float:
    """Root of lam = v tanh(beta lam / 2) in [1e-12 v, v] to 1e-14 v; 0 if
    T >= v/2. Computed once per (v, T), as cspa._t_star is per field."""
    if T >= 0.5 * v:
        return 0.0
    beta = 1.0 / T

    def f(lam):
        return lam - v * tanh(0.5 * beta * lam)

    lo = 1e-12 * v
    if f(lo) >= 0.0:
        return 0.0
    # the side of the root only: plain bisection steps, so that the CMFA
    # outputs do not depend on the root finder's interpolation
    return bracket_root(lambda lam: -inf if f(lam) < 0.0 else inf,
                        lo, -inf, v, inf, 1e-14 * v)


def critical_temperature(params: ModelParams) -> float:
    """T_c(b) = b'/ln[(1+b'/v)/(1-b'/v)] with b' = |b|/gamma; v/2 at b = 0."""
    if params.gamma <= 0:
        return 0.0
    bp = abs(params.b) / params.gamma
    if bp >= params.v:
        return 0.0
    x = bp / params.v
    if x < 1e-8:   # T_c = (v/2)(1 - x^2/3 - ...): v/2 to double precision
        return 0.5 * params.v
    return bp / log((1.0 + x) / (1.0 - x))


def _deformed(params: ModelParams, tc: float) -> bool:
    """Whether the point is in the deformed phase: gamma > 0, |b| < gamma v
    and T below its T_c = ``tc``."""
    g = params.gamma
    return g > 0 and abs(params.b) < g * params.v and params.T < tc


def gap_solve(params: ModelParams) -> MeanFieldSolution:
    """Phase selection and the b-independent gap of the deformed phase. At
    T = 0 ModelParams.beta refuses the point, as in every closed form here
    but mean_field_z."""
    beta = params.beta
    v, T, g = params.v, params.T, params.gamma
    tc = critical_temperature(params)
    t_tilde = g * v / (2.0 * params.n) if g > 0 else 0.0
    if not _deformed(params, tc):
        return MeanFieldSolution(phase="normal", lam=abs(params.b) / g if g > 0 else 0.0,
                                 chi=0.0, tc=tc, t_tilde=t_tilde, applicable=False)
    lam = _gap_root(v, T)
    chi = 0.5 * beta * v * _sech2(0.5 * beta * lam)
    b_star = None
    applicable = True
    if T <= t_tilde:
        b_star = params.b_c - g * v * sqrt(max(1.0 - T / t_tilde, 0.0)) / params.n
        applicable = abs(params.b) <= b_star
    return MeanFieldSolution(phase="deformed", lam=lam, chi=chi, tc=tc,
                             t_tilde=t_tilde, applicable=applicable,
                             b_star=b_star)


def _log_sinh(x: float) -> float:
    if x > 20.0:
        return x - log(2.0) + np.log1p(-exp(-2.0 * x))
    return log(sinh(x))


def _log_cosh(x: float) -> float:
    if x > 20.0:
        return x - log(2.0)
    return log(cosh(x))


def _logZ_free(n: int, beta: float, lam: float, E0: float) -> float:
    """ln[e^{-beta E0} (2 cosh(beta lam/2))^n]."""
    return n * (log(2.0) + _log_cosh(0.5 * beta * lam)) - beta * E0


def cmfa_logZ(params: ModelParams, sol=None) -> float:
    """ln Z_CMFA at any gamma in (0, 1]: the gamma = 1 closed forms for both
    phases at b' = |b|/gamma, minus ln(gamma)/2.

    gamma < 1 is produced by the exact rescaling identity
    logZ(gamma, b) = logZ(1, b/gamma) - ln(gamma)/2, applied literally; this
    makes the identity a machine-precision invariant of the implementation.
    Note the identity fixes the additive constant to the gamma = 1 one
    (e.g. E0(1) = v/2), so cross-tier comparisons of ln Z should be done at
    gamma = 1 (the moment formulas are unaffected; see cmfa_moments).
    ``sol`` is gap_solve(params) when the caller has it; the gamma = 1
    point at b' has the same phase, gap and chi.
    """
    beta = params.beta
    if params.gamma <= 0:
        raise DomainError("CMFA closed forms require gamma > 0")
    n, v, b = params.n, params.v, abs(params.b) / params.gamma
    E0 = 0.5 * v  # gamma = 1
    if sol is None:
        sol = gap_solve(params.replace(gamma=1.0, b=b))
    if sol.phase == "deformed":
        lam, chi = sol.lam, sol.chi
        if chi >= 1.0:
            raise NotApplicableError(
                f"chi = {chi} >= 1 inside the deformed branch")
        out = -(0.25 * n * beta / v) * (lam * lam - b * b) \
            + _logZ_free(n, beta, lam, E0)
        out += _log_sinh(0.5 * beta * lam) \
            + 0.5 * log(4.0 * pi * n / (beta * v * (1.0 - chi)))
        return out - 0.5 * log(params.gamma)
    # normal phase: single RPA mode w = b - v tanh(beta b / 2) > 0
    out = _logZ_free(n, beta, b, E0)
    # sinh(beta b/2)/sinh(beta w/2) written via g(u) = sinh(beta u/2)/(beta u/2)
    # to stay finite for b -> 0 and w -> 0
    tr = tanh(0.5 * beta * b) / (0.5 * beta * b) if b > 0 else 1.0
    ratio = 1.0 - 0.5 * beta * v * tr          # w/b, continued through b = 0
    if ratio <= 0.0:
        raise NotApplicableError(
            "normal-phase RPA mode not positive (at T_c?)")
    w = b * ratio
    out += _log_g(0.5 * beta * b) - _log_g(0.5 * beta * w) - log(ratio)
    return out - 0.5 * log(params.gamma)


def _log_g(x: float) -> float:
    """ln[sinh(x)/x], g(0) = 1."""
    if x == 0.0:
        return 0.0
    if x > 20.0:
        return x - log(2.0 * x) + np.log1p(-exp(-2.0 * x))
    return log(sinh(x) / x)


def cmfa_moments(params: ModelParams, sol=None) -> CollectiveMoments:
    """Analytic deformed-phase moments (gamma-direct forms).

    These are the Hartree values plus the RPA-corrected <S^2>: the transverse
    field enters as -n b/(2 gamma v), the fluctuation grows linearly in T as
    n T/(2 gamma v), and <S^2> is gamma-independent. They agree with the
    b-derivatives of the *direct* saddle-point evaluation of ln Z at any
    gamma, and with the exact tier for large n; note they do not match
    b-derivatives of the literally-rescaled cmfa_logZ at gamma < 1 (that
    identity and the moment formulas are mutually inconsistent by a chain
    rule factor, an inconsistency inherited from the closed forms themselves;
    the moments side is the one vetted against the exact tier).

    Raises NotApplicableError in the normal phase (no deformed saddle; the
    CMFA concurrence there is handled as identically zero by the tier
    layer) and for T <= Ttilde, |b| > b*, where the concurrence formula
    turns complex. ``sol`` is gap_solve(params) when the caller has it.
    """
    if sol is None:
        sol = gap_solve(params)
    if sol.phase != "deformed":
        raise NotApplicableError(
            f"CMFA moments need the deformed phase (|b| < gamma v = "
            f"{params.gamma * params.v:.6g} and T < T_c = {sol.tc:.6g})")
    if not sol.applicable:
        raise NotApplicableError(
            f"CMFA concurrence complex for |b| > b* = {sol.b_star:.6g} at "
            f"T = {params.T:.6g} <= Ttilde = {sol.t_tilde:.6g}")
    n, v, g, T = params.n, params.v, params.gamma, params.T
    lam, chi = sol.lam, sol.chi
    sz = -n * params.b / (2.0 * g * v)
    sz2 = sz * sz + n * T / (2.0 * g * v)
    s2 = (0.5 * n * lam / v) ** 2 \
        + 0.5 * n * (1.0 - chi * (2.0 - (1.0 + chi) * T / v)) / (1.0 - chi) ** 2
    return CollectiveMoments(sz=sz, sz2=sz2, s2=s2,
                             logZ=cmfa_logZ(params, sol))


def _normal_z_shift(params: ModelParams, end: float | None = None) -> float:
    """Longitudinal mean-field shift z in the normal phase (r = 0): a
    stable root of f(z) = z - (gamma - 1) v tanh(beta (b - z)/2), by Newton
    steps from the aligned end z = (gamma - 1) v end, with ``end`` = sign(b)
    (1 at b = 0) unless given.

    f is concave on that side of z = b, so the steps rise monotonically to
    the root nearest the aligned end; at gamma <= 0, b = 0, that is the
    ordered root, not the unstable z = 0. From the other end (-sign(b)) the
    steps reach the ordered root on that side where f has one; where it
    has none they end on the first root, or meet f' <= 0 and give NaN.

    So at b = 0 (+0 and -0 alike), gamma <= 0 and T < (1 - gamma) v / 2
    the mfa tier reports the ordered branch of the + side, the one
    b -> +0 selects (S_z near -n/2), not the mean of the two mirrored
    branches, whose S_z is the exact 0: a chosen branch, like the
    symmetry breaking of any mean field. b = +-1e-12 give mirrored S_z."""
    g, v, b = params.gamma, params.v, params.b
    beta = params.beta
    c = (1.0 - g) * 0.5 * beta * v         # f'(z) = 1 - c sech^2
    if end is None:
        end = 1.0 if b >= 0 else -1.0
    z = (g - 1.0) * v * end
    for _ in range(500):
        t = tanh(0.5 * beta * (b - z))
        # f' as (1 - c) + c t^2: at c = 1 (the b = 0 ordering temperature)
        # 1 - c (1 - t^2) would round to 0 once t^2 < 1e-16
        slope = (1.0 - c) + c * t * t
        if slope <= 0.0:
            return nan
        step = (z - (g - 1.0) * v * t) / slope
        z -= step
        if abs(step) < 1e-14 * max(v, 1.0):
            break
    return z


def mean_field_z(params: ModelParams) -> tuple[float, ...]:
    """Every longitudinal shift z of a mean-field saddle, the stable one
    first; they are also the saddles of the CSPA z integrand at large n.

    Deformed phase: (b - b/gamma,). Normal phase: _normal_z_shift from the
    aligned end, then from the other end; where there is no ordered root on
    that side, the second is NaN or repeats the first. The phase is
    gap_solve's, decided without solving the gap.
    """
    # its own refusal: the deformed branch reads no beta
    if params.T <= 0:
        raise DomainError("mean_field_z requires T > 0")
    if _deformed(params, critical_temperature(params)):
        return (params.b - params.b / params.gamma,)
    end = 1.0 if params.b >= 0 else -1.0
    return _normal_z_shift(params, end), _normal_z_shift(params, -end)


def mfa_product_moments(params: ModelParams) -> CollectiveMoments:
    """Collective moments of the plain mean-field product state.

    Deformed phase: per-site magnetization m_z = -b/(2 gamma v) and a
    transverse component of length sqrt(lam^2 - (b/gamma)^2)/(2v); normal
    phase: m_z = -tanh(beta(b-z)/2)/2 with the longitudinal shift z. The
    resulting rho_2 = rho_1 x rho_1 is separable, so the MFA concurrence is
    identically zero.
    """
    n, v, g = params.n, params.v, params.gamma
    beta = params.beta
    sol = gap_solve(params)
    if sol.phase == "deformed":
        lam = sol.lam
        mz = -params.b / (2.0 * g * v)
        mperp2 = max(lam * lam - (params.b / g) ** 2, 0.0) / (4.0 * v * v)
        # -beta F at the deformed Hartree point, gamma-direct:
        # sum x^2/2v = (n/4v)(lam^2 - b^2/gamma) once the z shift is folded in
        quad = (n * beta / (4.0 * v)) * (lam * lam - params.b ** 2 / g)
        logZ = -quad + _logZ_free(n, beta, lam, params.E0)
    else:
        z = _normal_z_shift(params)
        w = params.b - z
        mz = -0.5 * tanh(0.5 * beta * abs(w)) * (1.0 if w >= 0 else -1.0)
        mperp2 = 0.0
        # static free energy of the product state, gamma-direct
        quad = 0.0
        if g < 1.0:
            quad = (n * beta / (4.0 * v)) * z * z / (1.0 - g)
        logZ = -quad + _logZ_free(n, beta, abs(w), params.E0)
    m2 = mz * mz + mperp2
    sz = n * mz
    sz2 = n / 4.0 + n * (n - 1.0) * mz * mz
    s2 = 0.75 * n + n * (n - 1.0) * m2
    return CollectiveMoments(sz=sz, sz2=sz2, s2=s2, logZ=logZ)
