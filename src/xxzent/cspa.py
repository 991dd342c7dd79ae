"""Static-path + RPA partition function for the fully connected XXZ model.

The static auxiliary-field integral, radially reduced, is one-dimensional for
gamma = 1,

    Z_CSPA = (n beta / 2v) Int_0^inf r dr e^{-n beta r^2 / 4v} Z(lam) C_RPA,

and two-dimensional for gamma < 1 (longitudinal shift z),

    Z_CSPA = (1/4) sqrt(n^3 beta^3 / (pi v^3 (1-gamma)))
             Int r dr Int dz e^{-(n beta/4v)(r^2 + z^2/(1-gamma))} Z(lam) C_RPA,

with

    lam           = sqrt((b - z)^2 + r^2)
    Z(lam)        = e^{-beta E0} (2 cosh(beta lam / 2))^n
    C_RPA         = [omega / sinh(beta omega/2)] * [sinh(beta lam/2) / lam]
    omega^2(r, z) = (lam - v t)(lam - v (1 - gamma r^2/lam^2) t),
                    t = tanh(beta lam / 2).

omega^2 < 0 (imaginary collective mode) is fine as long as
beta|omega|/2 < pi, where the analytic continuation
omega/sinh(beta omega/2) = |omega|/sin(beta|omega|/2) applies; past that the
integrand diverges, the temperature is below the breakdown temperature T*,
and the evaluation refuses with a BreakdownError. The validity scan runs on a
fixed grid before any integration (fail fast with a diagnostic).

Everything is evaluated in log space around one radial peak scan, the
maximum (r_peak, l_peak) of ln[r e^L(r, z)] over an r grid, vectorized over
z. Each radial integral is shifted by its l_peak, with panels placed across
r_peak so the quadrature cannot miss a sharp large-n saddle. For gamma < 1
the z with the highest l_peak seeds the outer z panels and shifts the outer
integral; z nodes more than 200 log-units below it are skipped.

Setting C_RPA = 1 gives the plain SPA (mode="spa"): never breaks down,
never entangled.

Moments follow by Richardson-extrapolated central differences of ln Z in b
(first and second derivatives) and in v, through the thermodynamic relations

    <S_z>   = -T d lnZ / d b
    <S_z^2> = T^2 d^2 lnZ / d b^2 + <S_z>^2
    <S^2>   = n T d lnZ / d v + gamma <S_z^2> + n (3-gamma)/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt

import numpy as np

from .errors import BreakdownError, DomainError, QuadratureError
from .exact import CollectiveMoments
from .model import ModelParams
from .quadrature import _NODES, _WGFULL, _WK, quad_gk

__all__ = [
    "CspaEvaluation",
    "rpa_frequency",
    "omega_squared",
    "cspa_logZ",
    "cspa_moments",
    "breakdown_temperature",
]

_SCAN_R = 256
_SCAN_Z = 64
_TAIL_LOG_UNITS = 40.0     # log-units of Gaussian tail kept beyond the peak


def omega_squared(params: ModelParams, r, z=0.0):
    """omega^2 of the single collective RPA mode at static point (r, z).

    Vectorized over r and/or z. The sign of the result classifies the mode:
    positive = real, negative = imaginary.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    lam = np.hypot(params.b - z, r)
    if np.any(lam == 0.0):
        raise DomainError("degenerate gap: omega undefined at r = 0, z = b")
    w2 = _omega_sq(params, r, lam, np.tanh(0.5 * params.beta * lam))
    return w2 if w2.ndim else float(w2)


def _omega_sq(params: ModelParams, r, lam, t):
    """omega^2 from r, lam = |(r, b - z)| and t = tanh(beta lam / 2)."""
    v = params.v
    return (lam - v * t) * (lam - v * (1.0 - params.gamma * r * r / (lam * lam)) * t)


def rpa_frequency(params: ModelParams, r: float, z: float = 0.0) -> complex:
    """The collective RPA energy: real >= 0, or positive imaginary."""
    w2 = omega_squared(params, r, z)
    return complex(sqrt(w2)) if w2 >= 0 else complex(0.0, sqrt(-w2))


def _log_crpa_terms(params: ModelParams, lam, w2):
    """ln C_RPA(lam, omega) continued through omega^2 <= 0, vectorized.

    Returns NaN where beta|omega|/2 >= pi (outside the validity window).
    """
    beta = params.beta
    u = 0.5 * beta * lam
    # ln[sinh(u)/u], stable for large u
    ln_g_lam = np.where(u > 20.0, u - np.log(2.0 * u) + np.log1p(-np.exp(-2.0 * u)),
                        np.log(np.sinh(np.minimum(u, 25.0)) / u))
    x2 = 0.25 * beta * beta * w2
    out = np.empty_like(np.asarray(x2, dtype=float))
    small = np.abs(x2) < 1e-10
    pos = (x2 > 0) & ~small
    neg = (x2 < 0) & ~small
    out[small] = -(x2[small] / 6.0 - x2[small] ** 2 / 180.0)
    xs = np.sqrt(x2[pos])
    out[pos] = -np.where(xs > 20.0,
                         xs - np.log(2.0 * xs) + np.log1p(-np.exp(-2.0 * xs)),
                         np.log(np.sinh(np.minimum(xs, 25.0)) / xs))
    ys = np.sqrt(-x2[neg])
    bad = ys >= pi
    ratio = np.empty_like(ys)
    ratio[~bad] = np.sin(ys[~bad]) / ys[~bad]
    ok = ~bad & (ratio > 0)
    vals = np.full_like(ys, np.nan)
    vals[ok] = -np.log(ratio[ok])
    out[neg] = vals
    return ln_g_lam + out


def _log_integrand(params: ModelParams, r, z, mode: str):
    """ln[ Z(lam) C_RPA ] - beta E0 + Gaussian exponent, without the r Jacobian."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    n, v, beta = params.n, params.v, params.beta
    lam = np.hypot(params.b - z, r)
    gauss = -(n * beta / (4.0 * v)) * (r * r)
    if params.gamma < 1.0:
        gauss = gauss - (n * beta / (4.0 * v)) * z * z / (1.0 - params.gamma)
    u = 0.5 * beta * lam
    ln_cosh = np.where(u > 20.0, u - log(2.0), np.log(np.cosh(np.minimum(u, 25.0))))
    out = gauss + n * (log(2.0) + ln_cosh) - beta * params.E0
    if mode == "cspa":
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = _omega_sq(params, r, lam, np.tanh(u))
        out = out + _log_crpa_terms(params, lam, w2)
    return out


@dataclass(frozen=True)
class CspaEvaluation:
    """ln Z_CSPA (or ln Z_SPA) with its relative quadrature error estimate."""

    logZ: float
    mode: str
    quadrature_error: float


def _scan_validity(params: ModelParams):
    """Worst -omega^2 over the static domain (validity needs it < 4 pi^2 T^2).

    omega^2 < 0 can only happen for lam < v, so the scan box r in (0, 1.1 v],
    |b - z| <= 1.1 v covers every possible violation regardless of n.
    """
    v = params.v
    r = np.linspace(v / _SCAN_R, 1.1 * v, _SCAN_R)
    if params.gamma < 1.0:
        z = params.b + np.linspace(-1.1 * v, 1.1 * v, _SCAN_Z)
        rr, zz = np.meshgrid(r, z, indexing="ij")
        w2 = omega_squared(params, rr, zz)
        i = np.unravel_index(np.argmin(w2), w2.shape)
        return float(-w2[i]), (float(rr[i]), float(zz[i]))
    w2 = omega_squared(params, r, 0.0)
    i = int(np.argmin(w2))
    return float(-w2[i]), (float(r[i]), 0.0)


def breakdown_temperature(params: ModelParams, tol: float = 1e-6) -> float:
    """Estimated T*: the largest T at which some static point violates
    beta|omega|/2 < pi. Returns 0 when the CSPA is valid at every T > 0."""

    def excess(T):
        p = params.replace(T=T)
        worst, _ = _scan_validity(p)
        return worst - (2.0 * pi * T) ** 2

    t_hi = 0.5 * params.v
    if excess(t_hi) >= 0:      # should not happen for the attractive XXZ
        return t_hi
    t_lo = 1e-6 * params.v
    if excess(t_lo) <= 0:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        if excess(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo < tol * params.v:
            break
    return 0.5 * (t_lo + t_hi)


def _radial_peaks(params: ModelParams, zs, mode: str):
    """(r_peak, l_peak), the maximum of ln[r e^{L(r, z)}] over r, per z of
    ``zs`` (any shape): a 512-point grid on (0, 1.5 v + |b - z|] per z, all
    in one array call."""
    zs = np.asarray(zs, dtype=float)
    r_hi = 1.5 * params.v + np.abs(params.b - zs)
    grid = np.linspace(r_hi / 512.0, r_hi, 512, axis=-1)
    L = _log_integrand(params, grid, zs[..., None], mode) + np.log(grid)
    k = np.nanargmax(L, axis=-1)[..., None]
    return (np.take_along_axis(grid, k, -1)[..., 0],
            np.take_along_axis(L, k, -1)[..., 0])


def _radial_width(params: ModelParams):
    """(width, sigma): the kept radial half-window past the peak and the
    Gaussian width it spans, _TAIL_LOG_UNITS + ln n log-units."""
    units = _TAIL_LOG_UNITS + log(params.n)
    width = sqrt(4.0 * params.v * units / (params.n * params.beta))
    return width, width / sqrt(2.0 * units)


def _radial_cut(params: ModelParams, zs, peaks, mode: str):
    """Truncation radius per z: r_peak + width, moved out by factors of 1.5
    (at most 8 times) while ln[r e^L] there is within _TAIL_LOG_UNITS of the
    peak, since the radial profile can be wider than the bare Gaussian."""
    r_peak, l_peak = peaks
    r_max = r_peak + _radial_width(params)[0]
    for _ in range(8):
        tail = _log_integrand(params, r_max, zs, mode) + np.log(r_max)
        wide = np.isfinite(tail) & (tail >= l_peak - _TAIL_LOG_UNITS)
        if not np.any(wide):
            break
        r_max = np.where(wide, 1.5 * r_max, r_max)
    return r_max


def _radial_log_integral(params: ModelParams, z: float, peak, mode: str,
                         epsrel: float):
    """ln Int_0^{rmax} r e^{L(r, z)} dr, with ``peak`` = (r_peak, l_peak) of
    _radial_peaks at this z seeded into the panels."""
    r_peak, l_peak = peak
    sigma = _radial_width(params)[1]
    r_max = float(_radial_cut(params, z, peak, mode))

    def f(r):
        out = np.exp(_log_integrand(params, r, z, mode) - l_peak
                     + np.log(np.maximum(r, 1e-300)))
        return np.where(r <= 0, 0.0, out)

    seeds = sorted({r_peak + k * sigma for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)}
                   | {0.25 * r_max, 0.5 * r_max, 0.75 * r_max})
    res = quad_gk(f, 0.0, r_max, epsabs=1e-300, epsrel=epsrel,
                  initial_points=seeds, max_panels=4000)
    if res.value <= 0:
        raise QuadratureError("radial CSPA integral collapsed to zero")
    return l_peak + log(res.value), res.error / res.value, res.neval


# fixed panel edges (units of sigma, stretched with the cut) of the batched
# inner integral; the integrand is smooth, so they resolve it to ~1e-10
_BATCH_EDGES = np.array([-40.0, -16.0, -8.0, -5.0, -3.0, -2.0, -1.4, -0.9,
                         -0.5, -0.2, 0.0, 0.2, 0.5, 0.9, 1.4, 2.0, 3.0, 5.0,
                         8.0, 16.0, 40.0])


def _radial_log_integral_batch(params: ModelParams, zs, peaks, mode: str,
                               epsrel: float):
    """Vectorized ln inner integrals for a whole batch of z values.

    One fixed Gauss-Kronrod panel layout per z, centred on its r_peak (from
    ``peaks``, as in _radial_peaks) and cut where the adaptive path cuts, in
    a single array call; rows whose K15-G7 error estimate misses the budget
    fall back to the adaptive path with the same peak.
    """
    nz = zs.size
    r_peak, l_peak = peaks
    width, sigma = _radial_width(params)
    r_max = _radial_cut(params, zs, peaks, mode)
    # a cut moved out means a profile wider than the bare Gaussian
    sigma = sigma * np.where(r_max > r_peak + width, (r_max - r_peak) / width,
                             1.0)
    edges = np.clip(r_peak[:, None] + sigma[:, None] * _BATCH_EDGES[None, :],
                    0.0, r_max[:, None])
    edges = np.concatenate([np.zeros((nz, 1)), edges, r_max[:, None]], axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    # clipping collapses the panels beyond [0, r_max]: evaluate only the
    # live ones, flattened, and sum them back per row
    row, pan = np.nonzero(hi > lo)
    lo, hi = lo[row, pan], hi[row, pan]
    half = 0.5 * (hi - lo)                              # (npanels,)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES   # (npanels, 15)
    y = np.exp(_log_integrand(params, x, zs[row, None], mode)
               - l_peak[row, None] + np.log(np.maximum(x, 1e-300)))
    y[x <= 0] = 0.0
    k15 = (y @ _WK) * half
    g7 = (y @ _WGFULL) * half
    val = np.bincount(row, k15, minlength=nz)
    err = np.bincount(row, np.abs(k15 - g7), minlength=nz)
    out = np.empty(nz)
    rel_err = np.empty(nz)
    for i in range(nz):
        if val[i] > 0 and err[i] <= epsrel * val[i]:
            out[i] = l_peak[i] + log(val[i])
            rel_err[i] = err[i] / val[i]
        else:
            out[i], rel_err[i], _ = _radial_log_integral(
                params, float(zs[i]), (r_peak[i], l_peak[i]), mode, epsrel)
    return out, rel_err


def cspa_logZ(params: ModelParams, mode: str = "cspa",
              epsrel: float = 1e-10) -> CspaEvaluation:
    """ln Z of the static-path integral; mode "spa" drops the RPA factor.

    In cspa mode the validity scan runs first and a BreakdownError (with the
    offending static point and the estimated T*) is raised for T <= T*.
    """
    if mode not in ("cspa", "spa"):
        raise DomainError(f"unknown mode {mode!r}")
    if params.T <= 0:
        raise DomainError("cspa_logZ requires T > 0")
    if mode == "cspa":
        worst, where = _scan_validity(params)
        if worst >= (2.0 * pi * params.T) ** 2:
            t_star = breakdown_temperature(params)
            raise BreakdownError(
                f"CSPA breakdown: beta|omega|/2 >= pi at (r, z) = {where} "
                f"(T = {params.T:.6g} <= T* ~ {t_star:.6g})",
                where=where, t_star=t_star)

    n, v, beta = params.n, params.v, params.beta
    if params.gamma == 1.0:
        lv, rel, _ = _radial_log_integral(
            params, 0.0, _radial_peaks(params, 0.0, mode), mode, epsrel)
        logZ = log(n * beta / (2.0 * v)) + lv
        return CspaEvaluation(logZ=logZ, mode=mode, quadrature_error=rel)

    # gamma < 1: outer adaptive integral over z of the inner radial integral
    sigma_z = sqrt(2.0 * v * (1.0 - params.gamma) / (n * beta))
    width_z = sigma_z * sqrt(2.0 * (_TAIL_LOG_UNITS + log(n)))
    z_lo = -abs(params.b) - width_z - 1.5 * v
    z_hi = abs(params.b) + width_z + 1.5 * v
    z_peak, shift = _refine_z_peak(params, z_lo, z_hi, sigma_z, mode)
    errs = []

    def g(zs):
        out = np.zeros_like(zs)
        r_peak, l_peak = _radial_peaks(params, zs, mode)
        # z deep in the Gaussian tail contributes nothing, and the log
        # integrand there sits below float resolution anyway
        live = l_peak - shift > -200.0
        if np.any(live):
            lv, rel = _radial_log_integral_batch(
                params, zs[live], (r_peak[live], l_peak[live]), mode, epsrel)
            errs.extend(rel)
            out[live] = np.exp(np.minimum(lv - shift, 700.0))
        return out

    seeds = sorted({z_peak + k * sigma_z for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)})
    res = quad_gk(g, z_lo, z_hi, epsabs=1e-300, epsrel=epsrel,
                  initial_points=seeds, max_panels=800)
    if res.value <= 0:
        raise QuadratureError("z integral collapsed to zero")
    pref = 0.25 * sqrt(n ** 3 * beta ** 3 / (pi * v ** 3 * (1.0 - params.gamma)))
    logZ = log(pref) + shift + log(res.value)
    rel = res.error / res.value + (max(errs) if errs else 0.0)
    return CspaEvaluation(logZ=logZ, mode=mode, quadrature_error=rel)


def _refine_z_peak(params: ModelParams, z_lo: float, z_hi: float,
                   sigma_z: float, mode: str):
    """(z_peak, l_peak there): the z of the highest radial peak l_peak, a
    cheap proxy for the inner integral, found by shrinking grid scans (the z
    Gaussian can be arbitrarily narrow as gamma -> 1)."""
    lo, hi = z_lo, z_hi
    for _ in range(48):
        zs = np.linspace(lo, hi, 48)
        l_peak = _radial_peaks(params, zs, mode)[1]
        k = int(np.argmax(l_peak))
        span = hi - lo
        if span < 0.25 * sigma_z:
            break
        lo = max(z_lo, zs[k] - 2.0 * span / 47.0)
        hi = min(z_hi, zs[k] + 2.0 * span / 47.0)
    return float(zs[k]), float(l_peak[k])


def _richardson_first(f, x0, h):
    d1 = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    d2 = (f(x0 + 0.5 * h) - f(x0 - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def _richardson_second(f, f0, x0, h):
    d1 = (f(x0 + h) - 2.0 * f0 + f(x0 - h)) / (h * h)
    d2 = (f(x0 + 0.5 * h) - 2.0 * f0 + f(x0 - 0.5 * h)) / (0.25 * h * h)
    return (4.0 * d2 - d1) / 3.0


def cspa_moments(params: ModelParams, mode: str = "cspa",
                 epsrel: float = 1e-11) -> CollectiveMoments:
    """Collective moments by finite differences of the CSPA/SPA ln Z.

    Central stencils with one Richardson level; steps 1e-4 max(v, |b|) for
    first derivatives and 1e-3 for the second. Any stencil point crossing the
    breakdown boundary aborts with a hint to shrink the step or fall back to
    the SPA mode.
    """
    cache = {}

    def lz(b=None, v=None):
        key = (params.b if b is None else b, params.v if v is None else v)
        if key not in cache:
            p = params.replace(b=key[0], v=key[1])
            try:
                cache[key] = cspa_logZ(p, mode, epsrel=epsrel).logZ
            except BreakdownError as err:
                raise BreakdownError(
                    f"breakdown inside the finite-difference stencil at "
                    f"(b, v) = {key}: shrink the step or use mode='spa' "
                    f"({err})", where=err.where, t_star=err.t_star) from err
        return cache[key]

    T = params.T
    f0 = lz()
    hb1 = 1e-4 * max(params.v, abs(params.b))
    hb2 = 1e-3 * max(params.v, abs(params.b))
    hv = 1e-4 * params.v
    sz = -T * _richardson_first(lambda b: lz(b=b), params.b, hb1)
    d2 = _richardson_second(lambda b: lz(b=b), f0, params.b, hb2)
    sz2 = T * T * d2 + sz * sz
    dv = _richardson_first(lambda v: lz(v=v), params.v, hv)
    s2 = params.n * T * dv + params.gamma * sz2 + params.n * (3.0 - params.gamma) / 4.0
    return CollectiveMoments(sz=sz, sz2=sz2, s2=s2, logZ=f0)
