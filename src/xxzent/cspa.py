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
                  = exp[G(u^2) - G(beta^2 omega^2 / 4)],   u = beta lam / 2,
    G(X)          = ln[sinh(sqrt X) / sqrt X],
    omega^2(r, z) = (lam - v t)(lam - v (1 - gamma r^2/lam^2) t),
                    t = tanh(beta lam / 2).

sinh(sqrt X)/sqrt X is entire in X, so omega^2 < 0 (imaginary collective
mode) is fine as long as beta|omega|/2 < pi, where G(-y^2) = ln[sin(y)/y] is
finite; past that C_RPA is not positive, the integrand diverges, the
temperature is below the breakdown temperature T*, and the evaluation
refuses with a BreakdownError. The validity scan runs before any
integration (fail fast with a diagnostic), along the one line in r on which
the worst omega^2 lies. One function, _g, evaluates G and, for the moments,
G' and G''.

A batch of points has two stages. First each point is refused or kept,
before any integral: T <= 0, then in cspa mode a (v, gamma, b) whose scan
would overflow (a DomainError), then the validity scan, one scan of the
whole batch (a BreakdownError). A refusal is that point's outcome.
Then the kept points share one quadrature pass, and an exception inside that
pass raises for the whole batch; the sweep layer re-evaluates such a batch
point by point.

Everything is evaluated in log space around one radial peak scan, the
maximum (r_peak, l_peak) of ln[r e^L(r, z)] over a 512-point r grid,
vectorized over z, in two levels: every 16th grid point, then the 33 grid
points around the best of them (the whole grid's maximum for a profile with
one maximum). The same scan gives the radial width at the peak, sigma_r =
1/sqrt(kappa), kappa the curvature of ln[r e^L] across the maximum's two
grid neighbours, with no integrand call of its own; it is never below the
bare Gaussian width sqrt(2 v / (n beta)), which it is where kappa is not
positive and finite or the maximum lies at an end of the grid. Each radial
integral is shifted by its l_peak and cut at r_peak + sigma_r sqrt(2 (40 +
ln n)), that distance grown by factors of 1.5 while ln[r e^L] there is
within 40 log-units of the peak (a QuadratureError after 8 moves), with
panels placed across r_peak so the quadrature cannot miss a sharp large-n
saddle. A batch of radial integrals is one quad_gk call, one row each: every
row starts on the same layout in units of its own sigma_r, and a row that
misses the error budget is refined on those panels in the same call. At
gamma = 1 a batch of points at one (n, v, gamma), a batch of one included,
is one array pass with one row per point (z = 0); a row's bits do not depend
on the other rows of its pass. For gamma < 1 each point has its own outer z
integral, a quad_gk call of one row whose z nodes are the radial rows, on
|z| up to |b| + 1.5 v max(1, 1 - gamma) plus the Gaussian width. Each of its
rounds is one peak scan of all its z nodes and radial batches of at most 45
of them. The mean-field saddle z0 (the first of cmfa.mean_field_z: b - z0 =
b/gamma in the deformed phase, the stable normal-phase root otherwise) seeds
the outer z panels, and its l_peak shifts the outer integral. In the normal
phase mean_field_z also gives the ordered root from the other aligned end;
where it lies more than sigma_z away and within 200 log-units it is a second
saddle (at small |b| and T < (1 - gamma) v/2): it is seeded too, and the
higher one sets the shift. The panels around a saddle are laid out in units
of the z width measured there, 1/sqrt(kappa) with kappa the curvature of
-ln(inner integral) from one radial batch at the saddle and at +-sigma_z,
sigma_z = sqrt(2 v (1 - gamma)/(n beta)) the bare Gaussian width (sigma_z
itself where kappa is not positive and finite): the inner integral makes the
z profile wider than sigma_z. z nodes more than 200 log-units below the
shift are skipped, and an inner integral more than 700 log-units above it is
a QuadratureError, not a clipped sum.

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
from functools import lru_cache
from math import factorial, inf, isfinite, log, pi, sqrt

import numpy as np

from .cmfa import mean_field_z
from .errors import BreakdownError, DomainError, QuadratureError
from .exact import CollectiveMoments, _one
from .model import ModelParams
from .quadrature import bracket_root, quad_gk

__all__ = [
    "CspaEvaluation",
    "omega_squared",
    "cspa_logZ",
    "cspa_moments",
    "cspa_moments_batch",
    "breakdown_temperature",
]

_TAIL_LOG_UNITS = 40.0     # log-units of Gaussian tail kept beyond the peak


class _Rows:
    """Points at one (n, v, gamma) as the radial rows of one array pass,
    read through the attribute names of ModelParams: n, v, gamma and E0
    shared, b and beta one per row as column arrays, so that they broadcast
    over the nodes of a (rows, nodes) array. A single point is one row of
    the same arrays, which round as its float b and beta do."""

    def __init__(self, n, v, gamma, b, beta):
        self.n, self.v, self.gamma, self.b, self.beta = n, v, gamma, b, beta
        self.E0 = v * (3.0 - gamma) / 4.0          # as ModelParams.E0

    @staticmethod
    def of(points):
        """The points as rows, one per point, a single point included."""
        p = points[0]
        return _Rows(p.n, p.v, p.gamma, np.array([[q.b] for q in points]),
                     np.array([[q.beta] for q in points]))

    def __getitem__(self, rows):
        return _Rows(self.n, self.v, self.gamma, self.b[rows], self.beta[rows])


def _at(x, rows):
    """``x`` on the given rows (an index or an index array): a _Rows or an
    array of one value per row is indexed, while a ModelParams or a scalar
    is the same on every row."""
    if isinstance(x, _Rows) or (isinstance(x, np.ndarray) and x.ndim):
        return x[rows]
    return x


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
    _, a, c = _omega_factors(params, r, lam, np.tanh(0.5 * params.beta * lam))
    w2 = a * c
    return w2 if w2.ndim else float(w2)


def _omega_factors(params: ModelParams, r, lam, t):
    """(q, a, c) with omega^2 = a c, a = lam - v t, c = lam - v q t and
    q = 1 - gamma r^2/lam^2, from r, lam = |(r, b - z)| and
    t = tanh(beta lam / 2)."""
    q = 1.0 - params.gamma * r * r / (lam * lam)
    return q, lam - params.v * t, lam - params.v * q * t


# sinh(s)/s = 1 + X sum_j X^(j-1) / (2j+1)!, s^2 = X: row k of the Horner
# table holds the coefficients of X^k in that sum and in the first two X
# derivatives of sinh(s)/s (the last rows are below 1e-18 for |X| < 0.5)
_F = np.array([1.0 / factorial(2 * j + 1) for j in range(1, 12)])
_J = np.arange(1, 11)
_S_SERIES = np.stack([_F[:10], _J * _F[:10], _J * (_J + 1) * _F[1:]],
                     axis=1)[:, :, None]
_G_SERIES_MAX = 0.5        # |X| below which the series beats the closed forms
_PI2_LO = 6.265295508739711e-16    # pi^2 - (pi * pi), the rounding of pi^2


def _g_series(x, derivs):
    # Horner on every row at once; the value alone runs row 0 only, with the
    # same operations, so G has the same bits either way
    coefs = _S_SERIES if derivs else _S_SERIES[:, 0, 0]
    p = coefs[-1] * np.ones_like(x)
    for c in coefs[-2::-1]:
        p *= x
        p += c
    y = x * (p[0] if derivs else p)            # sinh(s)/s - 1
    g = np.log1p(y)
    if not derivs:
        return g
    g1 = p[1] / (1.0 + y)
    return np.stack([g, g1, p[2] / (1.0 + y) - g1 * g1])


def _g_sinh(x, derivs):
    # in place where it can be
    s = np.maximum(x, _G_SERIES_MAX)       # X clipped into the domain
    np.sqrt(s, out=s)
    sc = np.minimum(s, 20.0)
    sh = np.sinh(sc)
    if derivs:
        # past s = 20, coth(s) = 1 to double precision and s csch^2(s) <
        # 4e-16: both are read at s = 20
        coth = np.cosh(sc) / sh
        g1 = (coth - 1.0 / s) / (2.0 * s)
        g2 = (2.0 / s - sc / (sh * sh) - coth) / (4.0 * s ** 3)
    g = np.divide(sh, s, out=sh)
    np.log(g, out=g)
    sc -= s
    g -= sc                    # sinh(s) = e^(s - 20) sinh(20) past s = 20
    return np.stack([g, g1, g2]) if derivs else g


def _g_sin(x, derivs):
    y = np.sqrt(-x)
    # sin(y) = sin(d), d = pi - y = (pi^2 - y^2)/(pi + y) from x itself: the
    # rounding of y would cost digits of sin(y) near y = pi
    d = np.where(x > -pi * pi, (x + pi * pi + _PI2_LO) / (pi + y), np.nan)
    sin_d = np.sin(d)
    g = np.log(sin_d / y)
    if not derivs:
        return g
    cot_d = 1.0 / np.tan(d)                # -cot(y)
    return np.stack([g, (1.0 / y + cot_d) / (2.0 * y),
                     (2.0 / y - y / sin_d ** 2 + cot_d) / (4.0 * y ** 3)])


def _g(x, derivs: bool = False):
    """G(X) = ln[sinh(s)/s], s^2 = X, continued to X < 0 as ln[sin(y)/y],
    y^2 = -X; NaN for X <= -pi^2, where sin(y)/y <= 0. Vectorized, 0-d
    included; with ``derivs``, [G, G', G''] stacked on a new axis 0.

    One branch per X: the series for |X| < 0.5, the sinh form above and the
    sin form below it."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    # the sinh form everywhere, on X clipped into its domain (most X are
    # there: no gather), then the series and the sin form over their X
    out = _g_sinh(flat, derivs)
    for mask, branch in (((flat < _G_SERIES_MAX) & (flat > -_G_SERIES_MAX),
                          _g_series), (flat <= -_G_SERIES_MAX, _g_sin)):
        if mask.any():
            out[..., mask] = branch(flat[mask], derivs)
    return out.reshape(out.shape[:-1] + x.shape)


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
    # n ln[2 cosh(u)] + gauss - beta E0
    out = n * (np.where(u > 20.0, u - log(2.0),
                        np.log(np.cosh(np.minimum(u, 25.0)))) + log(2.0)) \
        + gauss - beta * params.E0
    t = np.tanh(u)
    rpa = None
    if mode == "cspa":
        with np.errstate(divide="ignore", invalid="ignore"):
            q, a, c = _omega_factors(params, r, lam, t)
        # ln C_RPA = G(u^2) - G(beta^2 omega^2 / 4)
        g_lam = _g(u * u, derivs)
        g_w = _g(0.25 * beta * beta * (a * c), derivs)
        out = out + (g_lam[0] - g_w[0] if derivs else g_lam - g_w)
        rpa = (q, a, c, g_lam, g_w)
    if not derivs:
        return out
    return out, _node_derivatives(params, r, z, lam, u, t, gauss, rpa)


def _omega_sq_derivatives(params: ModelParams, r, lam, t, sech2, q, a, c):
    """(d_v, d_lam, d_lam^2) of omega^2 = a c at fixed r (and at fixed t for
    d_v), from the factors (q, a, c) of _omega_factors, t = tanh(beta lam / 2)
    and sech2 = 1 - t^2."""
    v, beta, gamma = params.v, params.beta, params.gamma
    t1 = 0.5 * beta * sech2
    t2 = -beta * t * t1
    q1 = 2.0 * gamma * r * r / lam ** 3
    q2 = -3.0 * q1 / lam
    a1, a2 = 1.0 - v * t1, -v * t2
    c1 = 1.0 - v * (q1 * t + q * t1)
    c2 = -v * (q2 * t + 2.0 * q1 * t1 + q * t2)
    return -t * (c + q * a), a1 * c + a * c1, a2 * c + 2.0 * a1 * c1 + a * c2


def _node_derivatives(params: ModelParams, r, z, lam, u, t, gauss, rpa):
    """The derivatives of L listed in _log_integrand, from its intermediates;
    ``rpa`` is None in spa mode, else (q, a, c, G(u^2), G(k omega^2)), each G
    stacked with G' and G''. L depends on v through the Gaussian, E0 and
    omega^2 at fixed t, and at fixed (r, z) on b through lam alone; dw, d2w
    are the first and second lam derivatives of L."""
    n, v, beta, gamma = params.n, params.v, params.beta, params.gamma
    e = np.exp(-2.0 * u)
    sech2 = 4.0 * e / (1.0 + e) ** 2
    dv = -gauss / v - 0.25 * beta * (3.0 - gamma)
    dw = 0.5 * n * beta * t                # n ln cosh(u)
    d2w = 0.25 * n * beta * beta * sech2
    if rpa is not None:
        q, a, c, (_, s1, s2), (_, g1, g2) = rpa
        k = 0.25 * beta * beta             # X = k omega^2 in -G(X)
        w2_v, w2_1, w2_2 = _omega_sq_derivatives(params, r, lam, t, sech2,
                                                 q, a, c)
        dv = dv - g1 * k * w2_v
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


def _line_offset(gamma: float, b):
    """b - z on the line of the validity scan: 0 (z = b) at gamma < 1, b
    (z = 0) at gamma = 1. omega^2 reads b and z only through b - z, so the
    scan, and T*, read b only through this offset."""
    return b if gamma >= 1.0 else 0.0


def _scan_validity(params):
    """(worst, (r, z)): the worst -omega^2 over the static domain and where
    it is (validity needs worst < 4 pi^2 T^2), one per row of a _Rows.

    omega^2 = a c with a = lam - v t, c = lam - v q t and q = 1 - gamma
    r^2/lam^2 between 1 - gamma (at z = b) and 1 (at r = 0). At gamma >= 0,
    c >= a: omega^2 < 0 needs a < 0 < c, so lam < v, and at fixed lam the
    worst point has the smallest q. At gamma < 0, c <= a: omega^2 < 0
    needs c < 0 < a, so lam < v q t <= v (1 - gamma), and the worst point
    has the largest q. Either way it lies on one line, z = b at gamma < 1
    and z = 0 at gamma = 1 (_line_offset), and the scan is 1-D in r on
    (0, 1.1 v max(1, 1 - gamma)], in three array calls: 64 points, 65
    across the two steps around the best of them, and the vertex of the
    parabola through the best three.
    """
    z = params.b - _line_offset(params.gamma, params.b)
    h = 1.1 * params.v * max(1.0, 1.0 - params.gamma) / 64
    r = h * np.arange(1.0, 65.0)
    k = np.argmin(omega_squared(params, r, z), axis=-1, keepdims=True)
    # r > 0, where lam = 0 would leave omega undefined at gamma < 1
    r = np.maximum(r[k] + (h / 32) * np.arange(-32, 33), h / 64)
    w2 = omega_squared(params, r, z)
    j = np.argmin(w2, axis=-1, keepdims=True).clip(1, 63)
    f0, f1, f2 = np.moveaxis(np.take_along_axis(w2, j + np.arange(-1, 2), -1),
                             -1, 0)[..., None]
    curv = f0 - 2.0 * f1 + f2
    shift = 0.5 * (f0 - f2) / np.where(curv > 0, curv, inf)  # 0 if not convex
    rv = np.take_along_axis(r, j, -1) + (h / 32) * shift.clip(-1.0, 1.0)
    r = np.concatenate([r, rv], axis=-1)
    w2 = np.concatenate([w2, omega_squared(params, rv, z)], axis=-1)
    i = np.argmin(w2, axis=-1, keepdims=True)
    r = np.take_along_axis(r, i, -1)
    return -np.take_along_axis(w2, i, -1), (r, np.full_like(r, z))


def _scan_overflow(v: float, gamma: float, b: float):
    """The DomainError that refuses the validity scan at (v, gamma, b), or
    None. The scan's largest r is r_top = (65/64) 1.1 v max(1, 1 - gamma),
    and its line lies at b - z = _line_offset(gamma, b). Where
    max(1, |gamma|) r_top^2 + (b - z)^2 is not finite its products r^2,
    gamma r^2 and lam^2 overflow and it reads NaN: at v = 1 from
    gamma ~ -5.25e102, and at gamma = 1 from |b| ~ 1.34e154."""
    r_top = 65.0 / 64.0 * 1.1 * v * max(1.0, 1.0 - gamma)
    r2 = max(1.0, abs(gamma)) * r_top * r_top
    offset = _line_offset(gamma, b)
    if not isfinite(r2):
        bound = f"max(1, |gamma|) r_top^2 is not finite (r_top = {r_top:.6g})"
    elif not isfinite(r2 + offset * offset):
        bound = f"r_top^2 + b^2 is not finite (b = {b:.6g})"
    else:
        return None
    return DomainError(f"CSPA validity scan overflows at gamma = {gamma:.6g}, "
                       f"v = {v:.6g}: {bound}")


def _breakdown(params: ModelParams, worst, r, z):
    """The BreakdownError of a point whose validity scan found ``worst`` at
    (r, z), or None when the point is valid."""
    if worst < (2.0 * pi * params.T) ** 2:
        return None
    where = (float(r), float(z))
    t_star = breakdown_temperature(params)
    return BreakdownError(
        f"CSPA breakdown: beta|omega|/2 >= pi at (r, z) = {where} "
        f"(T = {params.T:.6g} <= T* ~ {t_star:.6g}); mode='spa' "
        f"drops the RPA factor and never breaks down",
        where=where, t_star=t_star)


def breakdown_temperature(params: ModelParams, tol: float = 1e-6) -> float:
    """Estimated T*: the largest T at which some static point violates
    beta|omega|/2 < pi. Returns 0 when the CSPA is valid at every T > 0.

    The validity scan reads v and gamma, and b at gamma = 1 only, so T* is
    computed once per field and shared by every n and T. A (v, gamma, b)
    whose scan would overflow is refused (_scan_overflow)."""
    refused = _scan_overflow(params.v, params.gamma, params.b)
    if refused is not None:
        raise refused
    return _t_star(params.v, params.gamma,
                   _line_offset(params.gamma, params.b), tol)


@lru_cache(maxsize=256)
def _t_star(v: float, gamma: float, offset: float, tol: float) -> float:
    def excess(T):
        # one row, at field b = offset (the scan line's own offset) and
        # temperature T: the validity scan reads no n
        worst, _ = _scan_validity(_Rows(None, v, gamma, offset, 1.0 / T))
        return float(worst[0]) - (2.0 * pi * T) ** 2

    # -omega^2 <= (v max(1, |gamma|) / 2)^2 (t <= 1), so every T above
    # v max(1, |gamma|) / (4 pi) is valid: T* passes v/2 only at gamma <
    # -2 pi, and there the top end doubles until it is valid
    t_lo, t_hi = 1e-6 * v, 0.5 * v
    while excess(t_hi) >= 0:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    if t_hi == 0.5 * v and excess(t_lo) <= 0:
        return 0.0
    # the side of the root only: plain bisection steps, so that T* does not
    # depend on the root finder's interpolation
    return bracket_root(lambda T: inf if excess(T) > 0 else -inf,
                        t_lo, inf, t_hi, -inf, tol * v)


def _radial_peaks(params, zs, mode: str):
    """(r_peak, l_peak, sigma_r): the maximum of ln[r e^{L(r, z)}] over r and
    the radial width there, per z of ``zs`` (any shape; one per row of a
    _Rows), on a 512-point grid on (0, 1.5 v + |b - z|] per z. Two array
    calls scan it: every 16th grid point, then the 33 grid points from the
    coarse neighbour below the best of those to the one above. For a
    profile with one maximum on the grid that is, bit for bit, the maximum
    of the whole grid; a second, narrow maximum (an RPA spike a hair above
    T*) can be stepped over.

    sigma_r is _peak_width's, from the maximum and its two neighbours on
    the fine window: no integrand call of its own."""
    zs = np.asarray(zs, dtype=float)[..., None]
    r_hi = 1.5 * params.v + np.abs(params.b - zs)
    # the whole grid, though the scan reads 65 of its points: computing
    # those alone (the same bits) made figure 5 7% slower under glibc
    # malloc, which then trims the heap after each radial batch and faults
    # it in again (201k minor faults instead of 23k; numpy 2.4, one core)
    grid = np.linspace(r_hi[..., 0] / 512.0, r_hi[..., 0], 512, axis=-1)
    r = grid[..., 15::16]
    L = _log_integrand(params, r, zs, mode) + np.log(r)
    k = 16 * np.nanargmax(L, axis=-1)[..., None] + 15
    r = np.take_along_axis(grid, np.clip(k + np.arange(-16, 17), 0, 511), -1)
    L = _log_integrand(params, r, zs, mode) + np.log(r)
    k = np.nanargmax(L, axis=-1)[..., None]
    # (below, at, above) the maximum; the window repeats its end points
    k = np.clip(k + np.arange(-1, 2), 0, 32)
    r, f = (np.moveaxis(np.take_along_axis(a, k, -1), -1, 0)[..., None]
            for a in (r, L))
    sigma = _peak_width(params, r, f, r_hi / 512.0)
    return r[1][..., 0], f[1][..., 0], sigma[..., 0]


def _peak_width(params, r, f, h):
    """The radial width sigma_r = 1/sqrt(kappa) at a maximum of ln[r e^L],
    kappa = -(f[0] - 2 f[1] + f[2])/h^2 its curvature from the values ``f``
    of ln[r e^L] at the grid points ``r`` = (below, at, above) the maximum,
    h the grid step. It is never below the bare Gaussian width
    sqrt(2 v / (n beta)), which it is where kappa is not positive and finite
    or where the maximum has no grid neighbour on one side (r[0] == r[1] or
    r[1] == r[2])."""
    with np.errstate(invalid="ignore"):
        kappa = -(f[0] - 2.0 * f[1] + f[2]) / (h * h)
    ok = (r[0] < r[1]) & (r[1] < r[2]) & (kappa > 0.0) & (kappa < inf)
    return np.maximum(1.0 / np.sqrt(np.where(ok, kappa, inf)),
                      np.sqrt(2.0 * params.v / (params.n * params.beta)))


def _radial_cut(params, zs, peaks, mode: str, slope: bool = False):
    """Truncation radius per z: r_peak + sigma_r sqrt(2 (_TAIL_LOG_UNITS +
    ln n)), where a Gaussian of the width sigma_r measured at the peak has
    fallen by _TAIL_LOG_UNITS + ln n. While ln[r e^L] there is within
    _TAIL_LOG_UNITS of the peak, which checks that width, its distance from
    r_peak grows by factors of 1.5: in units of sigma_r, so that the tail
    panel past 8 sigma_r stays a few widths wide however far r_peak is from
    0. A row still that close after 8 moves is a QuadratureError. With
    ``slope``, (cut, d_b L at each r_peak): :func:`_peak_slope`'s, from the
    same integrand call as the first cut."""
    # one column per z, which a _Rows' b and beta line up with
    r_peak, l_peak, sigma, zs = (np.asarray(a)[..., None]
                                 for a in (*peaks, zs))
    r_max = r_peak + sigma * sqrt(2.0 * (_TAIL_LOG_UNITS + log(params.n)))
    center = None
    if slope:
        L, terms = _log_integrand(params, np.concatenate([r_peak, r_max], -1),
                                  zs, mode, derivs=True)
        L, center = L[..., 1:], terms[0, ..., 0]
    for moves in range(9):
        if moves or center is None:
            L = _log_integrand(params, r_max, zs, mode)
        tail = L + np.log(r_max)
        wide = np.isfinite(tail) & (tail >= l_peak - _TAIL_LOG_UNITS)
        if not np.any(wide):
            break
        if moves == 8:
            at = tuple(np.argwhere(wide)[0].tolist())
            b, beta = (np.broadcast_to(x, wide.shape)[at]
                       for x in (params.b, params.beta))
            raise QuadratureError(
                f"radial CSPA row {at[:-1]} (b = {b:.6g}, T = {1.0 / beta:.6g}"
                f", z = {zs[at]:.6g}): ln[r e^L] still within "
                f"{_TAIL_LOG_UNITS:g} log-units of its peak at the cut r = "
                f"{r_max[at]:.6g} after 8 moves")
        r_max = np.where(wide, r_peak + 1.5 * (r_max - r_peak), r_max)
    return r_max[..., 0] if center is None else (r_max[..., 0], center)


def _weighted_factors(params: ModelParams, r, z, mode: str, l_peak, center):
    """r e^{L - l_peak} times the node factors whose w-weighted integrals
    give ln Z and its derivatives, stacked on axis 0:
    [1, d, d^2, d_b^2 L, d_v L] with d = d_b L - ``center``."""
    L, terms = _log_integrand(params, r, z, mode, derivs=True)
    w = np.exp(L - l_peak + np.log(np.maximum(r, 1e-300)))
    d = terms[0] - center
    return w * np.stack([np.ones_like(w), d, d * d, terms[1], terms[2]])


# initial panel edges of every radial row, in units of the width sigma_r
# measured at its peak, plus 0 and the cut, at least sqrt(2 (_TAIL_LOG_UNITS
# + ln n)) > 8.9 sigma_r past r_peak. The integrand is smooth on that
# scale, so they resolve it to ~1e-10, and quad_gk refines the rows that
# need more; the tail past 8 sigma_r is one panel, moved cut or not
_BATCH_EDGES = np.array([-16.0, -8.0, -5.0, -3.0, -1.5, 0.0, 1.5, 3.0, 5.0,
                         8.0])


# radial rows per batch of the outer z integral: a round's live z nodes go
# through the radial integral this many at a time, the nodes of three z
# panels, which bounds the temporaries of a batch whatever the number of
# panels. The two n = 100 benchmark points take 0.019 s in batches of 45,
# 0.020 s in batches of 30 or 60 and 0.025 s in batches of 15 (best of 20,
# one Xeon core); at 60 a pass faults in about 700 fresh pages
_Z_BATCH = 45


def _radial_log_integral_batch(params, zs, peaks, mode: str, epsrel: float,
                               center, r_max=None):
    """(ln I_0, rel. error, I_k / I_0 with one column per row), I_k the
    integrals over (0, r_max) of the rows of _weighted_factors, for a whole
    batch of rows: the z values of one ModelParams, or the points of a
    _Rows (zs = 0). ``center`` is one value or one per row.

    One quad_gk call: each row starts on the panels _BATCH_EDGES around its
    r_peak (from ``peaks``, as in _radial_peaks), cut at ``r_max`` where
    given and else at _radial_cut, and a row whose error estimate of I_0
    misses the budget is refined on those panels in the same call. A
    QuadratureError raises for the whole batch.
    """
    nz = zs.size
    r_peak, l_peak, sigma = peaks
    if r_max is None:
        r_max = _radial_cut(params, zs, peaks, mode)
    # clipping collapses the panels beyond [0, r_max], which quad_gk skips
    edges = np.clip(r_peak[:, None] + sigma[:, None] * _BATCH_EDGES[None, :],
                    0.0, r_max[:, None])
    edges = np.concatenate([np.zeros((nz, 1)), edges, r_max[:, None]], axis=1)

    def f(row, x):
        return _weighted_factors(_at(params, row), x, zs[row, None], mode,
                                 l_peak[row, None],
                                 np.reshape(_at(center, row), (-1, 1)))

    res = quad_gk(f, edges, epsrel=epsrel, max_panels=4000)
    val = res.value
    if np.any(val[0] <= 0):
        raise QuadratureError("radial CSPA integral collapsed to zero")
    # math.log, not np.log: numpy's SIMD log differs from it in the last bit
    # on some inputs, and ln I_0 feeds every output of cspa_logZ
    return (l_peak + np.fromiter(map(log, val[0]), float, nz),
            res.error / val[0], val[1:] / val[0])


def cspa_logZ(params: ModelParams, mode: str = "cspa",
              epsrel: float = 1e-10) -> CspaEvaluation:
    """ln Z of the static-path integral and its derivatives in b and v, from
    one quadrature pass; mode "spa" drops the RPA factor.

    In cspa mode the validity scan runs first and a BreakdownError (with the
    offending static point and the estimated T*) is raised for T <= T*.
    """
    return _one(_logZ_batch([params], mode, epsrel))


def _logZ_batch(points, mode: str, epsrel: float) -> list:
    """cspa_logZ at each of ``points``, which share n, v and gamma: one
    outcome per point, its CspaEvaluation or the exception that refuses it.

    Every refusal (T <= 0, then in cspa mode _scan_overflow and the
    validity scan) is decided before any integral, by one scan of all the
    points. The valid points then share one pass, one radial row per point
    at gamma = 1 and one z integral per point at gamma < 1, and whatever
    that pass raises, it raises for the whole batch.
    """
    if mode not in ("cspa", "spa"):
        raise DomainError(f"unknown mode {mode!r}")
    out = [DomainError("cspa_logZ requires T > 0") if p.T <= 0
           else _scan_overflow(p.v, p.gamma, p.b) if mode == "cspa" else None
           for p in points]
    live = [k for k, o in enumerate(out) if o is None]
    if mode == "cspa" and live:
        worst, where = _scan_validity(_Rows.of([points[k] for k in live]))
        for k, *scan in zip(live, *map(np.ravel, (worst, *where))):
            out[k] = _breakdown(points[k], *scan)
        live = [k for k in live if out[k] is None]
    if live:
        valid = [points[k] for k in live]
        evs = ([_logZ_z(p, mode, epsrel) for p in valid]
               if valid[0].gamma < 1.0 else _logZ_rows(valid, mode, epsrel))
        for k, ev in zip(live, evs):
            out[k] = ev
    return out


def _logZ_rows(points, mode: str, epsrel: float) -> list:
    """The gamma = 1 integrals of valid points, one radial row per point."""
    rows = _Rows.of(points)
    zs = np.zeros(len(points))
    peaks = _radial_peaks(rows, zs, mode)
    r_max, center = _radial_cut(rows, zs, peaks, mode, slope=True)
    lv, rel, means = _radial_log_integral_batch(rows, zs, peaks, mode, epsrel,
                                                center, r_max)
    return [_evaluation(p, mode, log(p.n * p.beta / (2.0 * p.v))
                        + float(lv[i]), float(rel[i]), center[i], means[:, i],
                        1.0)
            for i, p in enumerate(points)]


def _logZ_z(params: ModelParams, mode: str, epsrel: float) -> CspaEvaluation:
    """ln Z at gamma < 1: the outer adaptive integral over z of the inner
    radial integral, stacked with its means, at a valid point. Its panels
    sit at z0 + width {0, +-1, +-2, +-4, +-8} around each seeded saddle
    z0, width the z width measured there (see the module docstring), and
    each round of it is one peak scan of its z nodes."""
    n, v, beta = params.n, params.v, params.beta
    sigma_z = sqrt(2.0 * v * (1.0 - params.gamma) / (n * beta))
    width_z = sigma_z * sqrt(2.0 * (_TAIL_LOG_UNITS + log(n)))
    # the normal-phase saddle reaches |z| -> (1 - gamma) v
    z_hi = abs(params.b) + width_z + 1.5 * v * max(1.0, 1.0 - params.gamma)
    z_lo = -z_hi
    # the mean-field saddles are the z peaks at large n, and close to them
    # at any n: they seed the z panels, and their radial peaks set the
    # shift. The stable one comes first; a normal-phase point can have a
    # second, ordered saddle on the other side (the pair +-z0 at b = 0 and
    # T < (1 - gamma) v/2), kept where it lies apart and within 200
    # log-units, as the z-node filter below. The higher sets shift and centre
    first, *others = mean_field_z(params)
    z_peak = np.array([first] + [z for z in others if abs(z - first) > sigma_z])
    # each saddle with its neighbours at +-sigma_z, all in one peak scan
    z_nbr = z_peak[:, None] + sigma_z * np.array([-1.0, 0.0, 1.0])
    nbr = _radial_peaks(params, z_nbr, mode)
    seeded = nbr[1][:, 1] > nbr[1][0, 1] - 200.0
    z_nbr, nbr = z_nbr[seeded], tuple(a[seeded] for a in nbr)
    z_peak, peak = z_nbr[:, 1], tuple(a[:, 1] for a in nbr)
    top = int(np.argmax(peak[1]))
    shift = float(peak[1][top])
    center = _peak_slope(params, z_peak, peak, mode)[top]
    # the z profile is wider than sigma_z, the inner integral broadens it:
    # its width at each saddle is 1/sqrt(kappa), kappa the curvature of
    # -ln I_0 across the saddle's neighbours (sigma_z where kappa is not
    # positive and finite), from one radial batch
    l_nbr = _radial_log_integral_batch(
        params, z_nbr.ravel(), tuple(map(np.ravel, nbr)), mode, epsrel,
        center)[0].reshape(z_nbr.shape)
    kappa = -(l_nbr[:, 2] - 2.0 * l_nbr[:, 1] + l_nbr[:, 0]) / sigma_z ** 2
    width = np.array([1.0 / sqrt(k) if 0.0 < k < inf else sigma_z
                      for k in kappa])
    errs = []

    def g(row, zs):
        """The stacked inner integrals at the z nodes of a round's panels:
        one peak scan of them all, then radial batches of _Z_BATCH rows."""
        shape, zs = zs.shape, zs.ravel()
        out = np.zeros((5, zs.size))
        peaks = _radial_peaks(params, zs, mode)
        # z deep in the Gaussian tail contributes nothing, and the log
        # integrand there sits below float resolution anyway
        live = np.flatnonzero(peaks[1] - shift > -200.0)
        for k in range(0, live.size, _Z_BATCH):
            i = live[k:k + _Z_BATCH]
            lv, rel, means = _radial_log_integral_batch(
                params, zs[i], tuple(a[i] for a in peaks), mode, epsrel,
                center)
            errs.extend(rel)
            if np.any(lv - shift > 700.0):
                raise QuadratureError(
                    "z integral: an inner integral e^700 above the one at "
                    "the mean-field saddle")
            w = np.exp(lv - shift)
            out[:, i] = w * np.vstack([np.ones_like(lv), means])
        return out.reshape(5, *shape)

    # the seeds are the edges of the one row: those outside [z_lo, z_hi]
    # clip to zero-width panels, which quad_gk skips
    seeds = np.sort(z_peak[:, None] + width[:, None] * np.array(
        [-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0]), axis=None)
    edges = np.clip(np.concatenate([[z_lo], seeds, [z_hi]]), z_lo, z_hi)
    res = quad_gk(g, edges[None], epsrel=epsrel, max_panels=800)
    value = res.value[:, 0]
    total = value[0]
    if total <= 0:
        raise QuadratureError("z integral collapsed to zero")
    pref = 0.25 * sqrt(n ** 3 * beta ** 3
                       / (pi * v ** 3 * (1.0 - params.gamma)))
    logZ = log(pref) + shift + log(total)
    error = float(res.error[0] / total + (max(errs) if errs else 0.0))
    return _evaluation(params, mode, logZ, error, center,
                       value[1:] / total, 1.5)


def _evaluation(params: ModelParams, mode: str, logZ: float, error: float,
                center, means, c: float) -> CspaEvaluation:
    """The CspaEvaluation of one point from the means of its pass, around
    ``center``, and the v-derivative ``c`` / v of ln(1 / pref)."""
    d, d2, db2, dv = means
    return CspaEvaluation(
        logZ=logZ, mode=mode, quadrature_error=error,
        dlnZ_db=float(center) + float(d), d2lnZ_db2=float(db2 + (d2 - d * d)),
        dlnZ_dv=float(dv) - c / params.v)


def _peak_slope(params, zs, peaks, mode: str):
    """d_b L at the radial peak of each z in ``zs`` (each row of a _Rows):
    the centre of the accumulated deviations d = d_b L - centre, so that
    Var(d_b L) = <d^2> - <d>^2 does not cancel. At gamma = 1 _radial_cut
    takes it with its first cut."""
    r_peak, zs = np.asarray(peaks[0])[..., None], np.asarray(zs)[..., None]
    return _log_integrand(params, r_peak, zs, mode, derivs=True)[1][0, ..., 0]


def cspa_moments(params: ModelParams, mode: str = "cspa",
                 epsrel: float = 1e-11) -> CollectiveMoments:
    """Collective moments of the CSPA/SPA from the derivatives of ln Z that
    one cspa_logZ pass returns, through the thermodynamic relations of the
    module docstring. Below T* it raises the BreakdownError of cspa_logZ,
    which names mode="spa" as the fallback."""
    return _one(cspa_moments_batch([params], mode, epsrel))


def cspa_moments_batch(points, mode: str = "cspa",
                       epsrel: float = 1e-11) -> list:
    """cspa_moments at each of ``points``, which share n, v and gamma, from
    one pass (see _logZ_batch): one outcome per point, its CollectiveMoments
    or its refusal (T <= 0, or a BreakdownError below T*). An exception
    inside the shared pass raises for the whole batch."""
    return [ev if isinstance(ev, Exception) else _moments(p, ev)
            for p, ev in zip(points, _logZ_batch(points, mode, epsrel))]


def _moments(params: ModelParams, ev: CspaEvaluation) -> CollectiveMoments:
    T = params.T
    sz = -T * ev.dlnZ_db
    sz2 = T * T * ev.d2lnZ_db2 + sz * sz
    s2 = params.n * T * ev.dlnZ_dv + params.gamma * sz2 + params.n * (3.0 - params.gamma) / 4.0
    return CollectiveMoments(sz=sz, sz2=sz2, s2=s2, logZ=ev.logZ)
