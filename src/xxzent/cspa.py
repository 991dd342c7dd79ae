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
r_peak so the quadrature cannot miss a sharp large-n saddle: one fixed
panel layout per radial integral, batched over z (a single row at
gamma = 1); a row that misses the error budget is refined adaptively over
the same cut, in the same function. For gamma < 1 the z with the highest
l_peak seeds the outer z panels and shifts the outer integral; z nodes more
than 200 log-units below it are skipped.

Setting C_RPA = 1 gives the plain SPA (mode="spa"): never breaks down,
never entangled.

Moments come from the same single pass. Writing Z = pref Int w, with w the
integrand and L = ln w, the pass also integrates w times the derivatives of
L at every node, so that with <.> the w-weighted mean

    d lnZ / d b     = <d_b L>
    d^2 lnZ / d b^2 = <d_b^2 L> + Var(d_b L)
    d lnZ / d v     = <d_v L> + d_v ln(pref),

and the thermodynamic relations

    <S_z>   = -T d lnZ / d b
    <S_z^2> = T^2 d^2 lnZ / d b^2 + <S_z>^2
    <S^2>   = n T d lnZ / d v + gamma <S_z^2> + n (3-gamma)/4

give the moments, with no finite-difference step anywhere. At every gamma
the b derivatives are taken at fixed (r, z), where b enters only through
lam = hypot(b - z, r): they are d/dlam derivatives times d lam/d b =
(b - z)/lam. Var(d_b L) is accumulated around d_b L at the radial peak of
the z peak (z = 0 at gamma = 1), so it never cancels, however narrow the z
Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, pi, sqrt

import numpy as np

from .errors import BreakdownError, DomainError, QuadratureError
from .exact import CollectiveMoments
from .model import ModelParams
from .quadrature import _NODES, _WGFULL, _WK, bisect, quad_gk

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


# Taylor coefficients of G'(X), G(X) = ln[sinh(sqrt X)/sqrt X]: the j-th is
# (-1)^j zeta(2j+2) / pi^(2j+2); the series converges for |X| < pi^2
_G1_SERIES = np.array([
    0.16666666666666666, -0.011111111111111112, 0.0010582010582010583,
    -0.00010582010582010582, 1.0688899577788467e-05, -1.0822021404031986e-06,
    1.0962973925936889e-07, -1.1107304394989839e-08, 1.1253923258404497e-09,
    -1.1402575602296092e-10, 1.1553216299501312e-11, -1.1705853409912441e-12,
    1.1860508700116827e-13, -1.2017207666653852e-14])
_G_SERIES_MAX = 0.5        # |X| below which the series beats the closed forms


def _g_series(x):
    g1 = np.full_like(x, _G1_SERIES[-1])
    g2 = np.zeros_like(x)
    for c in _G1_SERIES[-2::-1]:           # Horner, with the derivative
        g2 = g2 * x + g1
        g1 = g1 * x + c
    return g1, g2


def _g_sinh(x):
    s = np.sqrt(x)
    e = np.exp(-2.0 * s)                   # underflows to 0, never overflows
    coth = (1.0 + e) / -np.expm1(-2.0 * s)
    s_csch2 = 4.0 * s * e / np.expm1(-2.0 * s) ** 2
    return ((coth - 1.0 / s) / (2.0 * s),
            (2.0 / s - s_csch2 - coth) / (4.0 * s ** 3))


def _g_sin(x):
    y = np.sqrt(-x)
    cot = 1.0 / np.tan(y)
    return ((1.0 / y - cot) / (2.0 * y),
            (2.0 / y - y / np.sin(y) ** 2 - cot) / (4.0 * y ** 3))


def _g_derivatives(x):
    """(G'(X), G''(X)) of the entire function G(X) = ln[sinh(s)/s], s^2 = X,
    continued to X < 0 as ln[sin(y)/y], y^2 = -X; NaN for X <= -pi^2."""
    x = np.asarray(x, dtype=float)
    g1 = np.full(x.shape, np.nan)
    g2 = np.full(x.shape, np.nan)
    small = np.abs(x) < _G_SERIES_MAX
    for mask, branch in ((small, _g_series), (x >= _G_SERIES_MAX, _g_sinh),
                         (~small & (x < 0) & (x > -pi * pi), _g_sin)):
        if mask.any():
            g1[mask], g2[mask] = branch(x[mask])
    return g1, g2


def _log_integrand(params: ModelParams, r, z, mode: str, derivs: bool = False):
    """ln[ Z(lam) C_RPA ] - beta E0 + Gaussian exponent, without the r Jacobian.

    With ``derivs`` also returns the stacked node derivatives of it that the
    moments need, [d_b L, d_b^2 L, d_v L] (see the module docstring).
    """
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
    t = np.tanh(u)
    w2 = None
    if mode == "cspa":
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = _omega_sq(params, r, lam, t)
        out = out + _log_crpa_terms(params, lam, w2)
    if not derivs:
        return out
    return out, _node_derivatives(params, r, z, lam, u, t, w2, gauss)


def _omega_sq_derivatives(params: ModelParams, r, lam, t, sech2):
    """(d_v, d_lam, d_lam^2) of omega^2 = a c, a = lam - v t,
    c = lam - v q t, q = 1 - gamma r^2/lam^2, at fixed r (and at fixed t
    for d_v); t = tanh(beta lam / 2) and sech2 = 1 - t^2."""
    v, beta, gamma = params.v, params.beta, params.gamma
    q = 1.0 - gamma * r * r / (lam * lam)
    a, c = lam - v * t, lam - v * q * t
    t1 = 0.5 * beta * sech2
    t2 = -beta * t * t1
    q1 = 2.0 * gamma * r * r / lam ** 3
    q2 = -3.0 * q1 / lam
    a1, a2 = 1.0 - v * t1, -v * t2
    c1 = 1.0 - v * (q1 * t + q * t1)
    c2 = -v * (q2 * t + 2.0 * q1 * t1 + q * t2)
    return -t * (c + q * a), a1 * c + a * c1, a2 * c + 2.0 * a1 * c1 + a * c2


def _node_derivatives(params: ModelParams, r, z, lam, u, t, w2, gauss):
    """The derivatives of L listed in _log_integrand, from its intermediates
    (w2 is None in spa mode). L depends on v through the Gaussian, E0 and
    omega^2 at fixed t, and at fixed (r, z) on b through lam alone; dw, d2w
    are the first and second lam derivatives of L."""
    n, v, beta, gamma = params.n, params.v, params.beta, params.gamma
    k = 0.25 * beta * beta                 # X = k omega^2 in -G(X)
    e = np.exp(-2.0 * u)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    dv = -gauss / v - 0.25 * beta * (3.0 - gamma)
    if w2 is not None:
        w2_v, w2_1, w2_2 = _omega_sq_derivatives(params, r, lam, t, sech2)
        g1, g2 = _g_derivatives(k * w2)
        dv = dv - g1 * k * w2_v
    dw = 0.5 * n * beta * t                # n ln cosh(u)
    d2w = 0.25 * n * beta * beta * sech2
    if w2 is not None:
        s1, s2 = _g_derivatives(u * u)     # ln[sinh(u)/u] = G(u^2)
        dw = dw + beta * u * s1 - g1 * k * w2_1
        d2w = (d2w + k * (2.0 * s1 + 4.0 * u * u * s2)
               - g2 * (k * w2_1) ** 2 - g1 * k * w2_2)
    cos = (params.b - z) / lam             # d lam / d b
    db = dw * cos
    db2 = d2w * cos * cos + dw * r * r / lam ** 3
    return np.stack(np.broadcast_arrays(db, db2, dv))


@dataclass(frozen=True)
class CspaEvaluation:
    """ln Z_CSPA (or ln Z_SPA) with its relative quadrature error estimate
    and its first b and v derivatives and second b derivative."""

    logZ: float
    mode: str
    quadrature_error: float
    dlnZ_db: float
    d2lnZ_db2: float
    dlnZ_dv: float


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
    return bisect(lambda T: excess(T) > 0, t_lo, t_hi, tol * params.v)


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


def _weighted_factors(params: ModelParams, r, z, mode: str, l_peak, center):
    """r e^{L - l_peak} times the node factors whose w-weighted integrals
    give ln Z and its derivatives, stacked on axis 0:
    [1, d, d^2, d_b^2 L, d_v L] with d = d_b L - ``center``."""
    L, terms = _log_integrand(params, r, z, mode, derivs=True)
    w = np.exp(L - l_peak + np.log(np.maximum(r, 1e-300)))
    d = terms[0] - center
    return w * np.stack([np.ones_like(w), d, d * d, terms[1], terms[2]])


# fixed panel edges (units of sigma, stretched with the cut) of the batched
# inner integral; the integrand is smooth, so they resolve it to ~1e-10
_BATCH_EDGES = np.array([-40.0, -16.0, -8.0, -5.0, -3.0, -2.0, -1.4, -0.9,
                         -0.5, -0.2, 0.0, 0.2, 0.5, 0.9, 1.4, 2.0, 3.0, 5.0,
                         8.0, 16.0, 40.0])


def _radial_log_integral_batch(params: ModelParams, zs, peaks, mode: str,
                               epsrel: float, center: float = 0.0):
    """(ln I_0, rel. error, I_k / I_0 with one column per z), I_k the
    integrals over (0, r_max) of the rows of _weighted_factors, for a whole
    batch of z values, vectorized.

    One fixed Gauss-Kronrod panel layout per z, centred on its r_peak (from
    ``peaks``, as in _radial_peaks) and cut at _radial_cut, in a single array
    call; a row whose K15-G7 error estimate of I_0 misses the budget is
    refined adaptively over the same cut, with panels seeded across its peak.
    Refinement follows I_0.
    """
    nz = zs.size
    r_peak, l_peak = peaks
    width, sigma = _radial_width(params)
    r_max = _radial_cut(params, zs, peaks, mode)
    # the adaptive refinement seeds its panels at r_peak + k bare sigmas
    offsets = np.array([-8, -4, -2, -1, 0, 1, 2, 4, 8]) * sigma
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
    y = _weighted_factors(params, x, zs[row, None], mode, l_peak[row, None],
                          center)
    k15 = (y @ _WK) * half                              # (m, npanels)
    err = np.bincount(row, np.abs(k15[0] - (y[0] @ _WGFULL) * half),
                      minlength=nz)
    val = np.stack([np.bincount(row, k, minlength=nz) for k in k15])
    for i in np.flatnonzero(~((val[0] > 0) & (err <= epsrel * val[0]))):
        def f(r):
            y = _weighted_factors(params, r, zs[i], mode, l_peak[i], center)
            return np.where(r <= 0, 0.0, y)

        cut = r_max[i]
        res = quad_gk(f, 0.0, cut, epsabs=1e-300, epsrel=epsrel,
                      initial_points=[*(r_peak[i] + offsets), 0.25 * cut,
                                      0.5 * cut, 0.75 * cut],
                      max_panels=4000)
        if res.value[0] <= 0:
            raise QuadratureError("radial CSPA integral collapsed to zero")
        val[:, i], err[i] = res.value, res.error
    # math.log, not np.log: numpy's SIMD log differs from it in the last bit
    # on some inputs, and ln I_0 feeds every output of cspa_logZ
    return (l_peak + np.fromiter(map(log, val[0]), float, nz), err / val[0],
            val[1:] / val[0])


def cspa_logZ(params: ModelParams, mode: str = "cspa",
              epsrel: float = 1e-10) -> CspaEvaluation:
    """ln Z of the static-path integral and its derivatives in b and v, from
    one quadrature pass; mode "spa" drops the RPA factor.

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
                f"(T = {params.T:.6g} <= T* ~ {t_star:.6g}); mode='spa' "
                f"drops the RPA factor and never breaks down",
                where=where, t_star=t_star)

    n, v, beta = params.n, params.v, params.beta
    if params.gamma == 1.0:
        zs = np.zeros(1)
        peaks = _radial_peaks(params, zs, mode)
        center = _peak_slope(params, zs, peaks, mode)
        lv, rel, means = _radial_log_integral_batch(params, zs, peaks, mode,
                                                    epsrel, center)
        logZ = log(n * beta / (2.0 * v)) + float(lv[0])
        error, means, c = float(rel[0]), means[:, 0], 1.0
    else:
        # outer adaptive integral over z of the inner radial integral,
        # stacked with its means
        sigma_z = sqrt(2.0 * v * (1.0 - params.gamma) / (n * beta))
        width_z = sigma_z * sqrt(2.0 * (_TAIL_LOG_UNITS + log(n)))
        z_lo = -abs(params.b) - width_z - 1.5 * v
        z_hi = abs(params.b) + width_z + 1.5 * v
        z_peak, peak = _refine_z_peak(params, z_lo, z_hi, sigma_z, mode)
        shift = float(peak[1][0])
        center = _peak_slope(params, z_peak, peak, mode)
        errs = []

        def g(zs):
            out = np.zeros((5, zs.size))
            r_peak, l_peak = _radial_peaks(params, zs, mode)
            # z deep in the Gaussian tail contributes nothing, and the log
            # integrand there sits below float resolution anyway
            live = l_peak - shift > -200.0
            if np.any(live):
                lv, rel, means = _radial_log_integral_batch(
                    params, zs[live], (r_peak[live], l_peak[live]), mode,
                    epsrel, center)
                errs.extend(rel)
                w = np.exp(np.minimum(lv - shift, 700.0))
                out[:, live] = w * np.vstack([np.ones_like(lv), means])
            return out

        seeds = sorted({z_peak[0] + k * sigma_z
                        for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)})
        res = quad_gk(g, z_lo, z_hi, epsabs=1e-300, epsrel=epsrel,
                      initial_points=seeds, max_panels=800)
        total = res.value[0]
        if total <= 0:
            raise QuadratureError("z integral collapsed to zero")
        pref = 0.25 * sqrt(n ** 3 * beta ** 3
                           / (pi * v ** 3 * (1.0 - params.gamma)))
        logZ = log(pref) + shift + log(total)
        error = float(res.error / total + (max(errs) if errs else 0.0))
        means, c = res.value[1:] / total, 1.5
    d, d2, db2, dv = means
    return CspaEvaluation(
        logZ=logZ, mode=mode, quadrature_error=error,
        dlnZ_db=center + float(d), d2lnZ_db2=float(db2 + (d2 - d * d)),
        dlnZ_dv=float(dv) - c / v)


def _peak_slope(params: ModelParams, zs, peaks, mode: str) -> float:
    """d_b L at the radial peak of the one z in ``zs``: the centre of the
    accumulated deviations d = d_b L - centre, so that
    Var(d_b L) = <d^2> - <d>^2 does not cancel."""
    return float(_log_integrand(params, peaks[0], zs, mode,
                                derivs=True)[1][0, 0])


def _refine_z_peak(params: ModelParams, z_lo: float, z_hi: float,
                   sigma_z: float, mode: str):
    """(z_peak, (r_peak, l_peak) there), each as a one-element array: the z
    of the highest radial peak l_peak, a cheap proxy for the inner integral,
    found by shrinking grid scans (the z Gaussian can be arbitrarily narrow
    as gamma -> 1)."""
    lo, hi = z_lo, z_hi
    for _ in range(48):
        zs = np.linspace(lo, hi, 48)
        r_peak, l_peak = _radial_peaks(params, zs, mode)
        k = int(np.argmax(l_peak))
        span = hi - lo
        if span < 0.25 * sigma_z:
            break
        lo = max(z_lo, zs[k] - 2.0 * span / 47.0)
        hi = min(z_hi, zs[k] + 2.0 * span / 47.0)
    return zs[k:k + 1], (r_peak[k:k + 1], l_peak[k:k + 1])


def cspa_moments(params: ModelParams, mode: str = "cspa",
                 epsrel: float = 1e-11) -> CollectiveMoments:
    """Collective moments of the CSPA/SPA from the derivatives of ln Z that
    one cspa_logZ pass returns, through the thermodynamic relations of the
    module docstring. Below T* it raises the BreakdownError of cspa_logZ,
    which names mode="spa" as the fallback."""
    ev = cspa_logZ(params, mode, epsrel=epsrel)
    T = params.T
    sz = -T * ev.dlnZ_db
    sz2 = T * T * ev.d2lnZ_db2 + sz * sz
    s2 = params.n * T * ev.dlnZ_dv + params.gamma * sz2 + params.n * (3.0 - params.gamma) / 4.0
    return CollectiveMoments(sz=sz, sz2=sz2, s2=s2, logZ=ev.logZ)
