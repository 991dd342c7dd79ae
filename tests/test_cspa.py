from math import exp, log, pi, sqrt, tanh

import numpy as np
import pytest

from xxzent.cspa import (breakdown_temperature, cspa_logZ, cspa_moments,
                         omega_squared, rpa_frequency)
from xxzent.errors import BreakdownError, DomainError
from xxzent.exact import (concurrence, exact_moments, exact_pair_state,
                          pair_state)
from xxzent.model import ModelParams
from xxzent.quadrature import quad_gk


# ----------------------------------------------------------------- quadrature

def test_quad_gk_against_scipy():
    from scipy.integrate import quad as scipy_quad
    cases = [
        (lambda x: np.exp(-x * x), 0.0, 8.0),
        (lambda x: np.sin(40 * x) * np.exp(-x), 0.0, 5.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
    ]
    for f, a, b in cases:
        mine = quad_gk(f, a, b, epsrel=1e-12)
        ref, _ = scipy_quad(lambda t: float(f(np.array([t]))[0]), a, b,
                            epsabs=1e-14, epsrel=1e-14, limit=300)
        assert mine.value == pytest.approx(ref, rel=1e-11)


def test_quad_gk_narrow_spike_with_seeds():
    f = lambda x: np.exp(-1e6 * (x - 0.3123) ** 2)
    res = quad_gk(f, 0.0, 1.0, epsrel=1e-11, initial_points=[0.3123, 0.3135])
    assert res.value == pytest.approx(sqrt(pi / 1e6), rel=1e-10)


# -------------------------------------------------------------- rpa_frequency

def test_rpa_frequency_normal_limit_r0():
    # r -> 0: omega -> |lam - v tanh(beta lam / 2)| with lam = |b - z|
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.8, T=0.3)
    w = rpa_frequency(p, r=1e-12, z=0.0)
    lam = 0.8
    expected = abs(lam - tanh(lam / 0.6))
    assert abs(w) == pytest.approx(expected, rel=1e-6)


def test_rpa_frequency_imaginary_near_half_v():
    # b = 0, r ~ v/2, low T: omega ~ i v/2
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.02)
    w = rpa_frequency(p, r=0.5)
    assert w.real == 0.0
    assert w.imag == pytest.approx(0.5, abs=0.01)


def test_rpa_frequency_vanishes_at_deformed_point():
    T = 0.3
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - tanh(mid / (2 * T)) < 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    b = 0.4
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=T)
    w = rpa_frequency(p, r=sqrt(lam * lam - b * b))
    assert abs(w) < 1e-6


def test_rpa_frequency_degenerate_gap_error():
    p = ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.2)
    with pytest.raises(DomainError):
        rpa_frequency(p, r=0.0, z=0.3)


def test_omega_squared_gamma1_reduces_to_b_over_lambda_form():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.6, T=0.25)
    for r in (0.2, 0.7, 1.3):
        lam = sqrt(p.b ** 2 + r * r)
        t = tanh(lam / (2 * p.T))
        ref = (lam - t) * (lam - (p.b ** 2 / lam ** 2) * t)
        assert omega_squared(p, r) == pytest.approx(ref, rel=1e-13)


# ----------------------------------------------------------------- breakdown

def test_breakdown_temperature_b0():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.1)
    t_star = breakdown_temperature(p)
    assert t_star == pytest.approx(1.0 / (4 * pi), rel=0.02)


def test_breakdown_temperature_zero_beyond_v():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=1.2, T=0.1)
    assert breakdown_temperature(p) == 0.0


def test_cspa_breakdown_raises_below_t_star():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.05)
    with pytest.raises(BreakdownError) as err:
        cspa_logZ(p)
    assert err.value.t_star == pytest.approx(1.0 / (4 * pi), rel=0.02)


def test_cspa_valid_above_t_star():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.09)
    ev = cspa_logZ(p)
    assert np.isfinite(ev.logZ)
    assert ev.quadrature_error < 1e-8


def test_successful_logZ_never_estimates_t_star(monkeypatch):
    # T* is only computed for the BreakdownError of a failing point
    import xxzent.cspa as cspa

    def fail(*args, **kwargs):
        raise AssertionError("breakdown_temperature called on success")

    monkeypatch.setattr(cspa, "breakdown_temperature", fail)
    ev = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1.0, b=0.3, T=0.3))
    assert np.isfinite(ev.logZ)


def test_spa_never_breaks_down():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.02)
    ev = cspa_logZ(p, mode="spa")
    assert ev.mode == "spa"
    assert np.isfinite(ev.logZ)


# --------------------------------------------------------------------- logZ

def test_cspa_logZ_approaches_exact_at_high_T():
    # saddle treatment is asymptotically valid well above T_c
    for n in (20, 100):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=0.4, T=2.0)
        ev = cspa_logZ(p)
        ex = exact_moments(p).logZ
        assert abs(ev.logZ - ex) < 1e-3 * n


def test_cspa_radial_vs_cartesian_2d():
    # phi independence: the 1D radial form equals a brute 2D (x, y) integral
    from scipy.integrate import dblquad
    p = ModelParams(n=6, v=1.0, gamma=1.0, b=0.5, T=0.4)
    n, beta, v = p.n, 1 / p.T, p.v

    def integrand(y, x):
        from xxzent.cspa import _log_integrand
        r = np.hypot(x, y)
        return float(np.exp(_log_integrand(p, np.array([r]), 0.0, "cspa")[0]))

    val, err = dblquad(integrand, -4, 4, lambda x: -4, lambda x: 4,
                       epsabs=1e-12, epsrel=1e-10)
    lnz_2d = log(val * n * beta / (4 * pi * v))
    lnz_1d = cspa_logZ(p).logZ
    assert lnz_2d == pytest.approx(lnz_1d, abs=1e-8)


def _log_static_path_integrand(p, r, z, mode="cspa"):
    """ln of Z(lam) C_RPA e^{-(n beta/4v)(r^2 + z^2/(1-gamma))}, vectorized,
    written out from the formulas of the module docstring (C_RPA = 1 for
    the SPA)."""
    n, v, g, beta = p.n, p.v, p.gamma, 1.0 / p.T
    lam = np.hypot(p.b - z, r)
    u = 0.5 * beta * lam
    out = (-beta * p.E0 + n * np.logaddexp(u, -u)
           - (n * beta / (4.0 * v)) * (r * r + z * z / (1.0 - g)))
    if mode == "spa":
        return out
    t = np.tanh(u)
    w2 = (lam - v * t) * (lam - v * (1.0 - g * r * r / (lam * lam)) * t)
    x = 0.5 * beta * np.sqrt(np.abs(w2))
    xs = np.where(x > 0, x, 1.0)
    # sinh(x)/x for a real mode, sin(x)/x for an imaginary one (x < pi here)
    shape = np.where(x > 0, np.where(w2 > 0, np.sinh(xs), np.sin(xs)) / xs, 1.0)
    return out + np.log(np.sinh(u) / u) - np.log(shape)


def _log_prefactor_2d(p):
    n, v, beta = p.n, p.v, 1.0 / p.T
    return log(0.25 * sqrt(n ** 3 * beta ** 3 / (pi * v ** 3 * (1.0 - p.gamma))))


@pytest.mark.parametrize("gamma", [0.5, -0.5])
def test_cspa_2d_against_dblquad(gamma):
    # the peak scans, batched inner panels and outer z integral of the
    # gamma < 1 path against a plain 2D adaptive quadrature of the formula
    from scipy.integrate import dblquad
    p = ModelParams(n=6, v=1.0, gamma=gamma, b=0.4, T=0.4)

    def f(r, z):
        return r * exp(float(_log_static_path_integrand(p, r, z)))

    val, _ = dblquad(f, -6.0, 6.0, 0.0, 6.0, epsabs=0.0, epsrel=1e-12)
    ref = _log_prefactor_2d(p) + log(val)
    assert cspa_logZ(p).logZ == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("mode", ["cspa", "spa"])
def test_cspa_2d_n100_against_tensor_grid(mode):
    # n = 100: the radial profile is wider than the bare Gaussian at the
    # dominant z, so a cut at r_peak + width alone loses ~2e-8 of ln Z.
    # Reference: composite 16-point Gauss-Legendre in r and z.
    p = ModelParams(n=100, v=1.0, gamma=0.5, b=0.5, T=0.25)
    x, w = np.polynomial.legendre.leggauss(16)

    def nodes(a, b, panels):
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        return ((edges[:-1, None] + half + half * x).ravel(),
                (half * w).ravel())

    r, wr = nodes(0.0, 3.0, 160)
    z, wz = nodes(p.b - 2.5, p.b + 2.5, 160)
    L = (_log_static_path_integrand(p, r[None, :], z[:, None], mode)
         + np.log(r * wr)[None, :] + np.log(wz)[:, None])
    top = L.max()
    ref = _log_prefactor_2d(p) + top + log(np.exp(L - top).sum())
    assert cspa_logZ(p, mode).logZ == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("mode", ["cspa", "spa"])
def test_batched_inner_integral_matches_adaptive(monkeypatch, mode):
    # the fixed-panel batch and the adaptive radial integral agree to the
    # quadrature budget, given the same peaks; at n = 100 the radial profile
    # is wider than the bare Gaussian at some z, so the cut moves out
    import xxzent.cspa as cspa
    adaptive_integral = cspa._radial_log_integral
    fallbacks = []

    def counted(p, z, *args):
        fallbacks.append(z)
        return adaptive_integral(p, z, *args)

    monkeypatch.setattr(cspa, "_radial_log_integral", counted)
    epsrel = 1e-10
    zs = np.linspace(-0.4, 1.0, 8)      # z = b would put lam = 0 on a node
    for p in (ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3),
              ModelParams(n=100, v=1.0, gamma=-0.5, b=0.5, T=0.25),
              ModelParams(n=100, v=1.0, gamma=0.5, b=0.5, T=0.25)):
        peaks = cspa._radial_peaks(p, zs, mode)
        fallbacks.clear()
        batch, rel = cspa._radial_log_integral_batch(p, zs, peaks, mode,
                                                     epsrel)
        assert fallbacks == []       # the fixed panels alone meet the budget
        adaptive = [adaptive_integral(p, z, (r0, l0), mode, epsrel)[0]
                    for z, r0, l0 in zip(zs, *peaks)]
        assert np.all(rel <= epsrel)
        np.testing.assert_allclose(batch, adaptive, rtol=0, atol=4 * epsrel)


def test_radial_peaks_match_a_per_z_scan():
    # the vectorized scan returns, bit for bit, what a plain 512-point scan
    # of each z on its own grid (0, 1.5 v + |b - z|] finds
    import xxzent.cspa as cspa
    p = ModelParams(n=50, v=1.0, gamma=0.5, b=0.3, T=0.3)
    zs = np.array([[-1.0, 0.0], [0.31, 2.5]])
    r_peak, l_peak = cspa._radial_peaks(p, zs, "cspa")
    assert r_peak.shape == l_peak.shape == zs.shape
    for idx in np.ndindex(zs.shape):
        r_hi = 1.5 * p.v + abs(p.b - zs[idx])
        grid = np.linspace(r_hi / 512.0, r_hi, 512)
        L = cspa._log_integrand(p, grid, zs[idx], "cspa") + np.log(grid)
        k = int(np.nanargmax(L))
        assert (r_peak[idx], l_peak[idx]) == (grid[k], L[k])


def test_2d_logZ_integrates_radially_only_in_batches(monkeypatch):
    # the outer shift comes from the peak scan, not from an extra adaptive
    # radial integral at the z peak
    import xxzent.cspa as cspa
    monkeypatch.setattr(cspa, "_radial_log_integral", None)
    ev = cspa_logZ(ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3))
    assert np.isfinite(ev.logZ)


def test_cspa_gamma_collapse_to_xx():
    # the z Gaussian collapses as gamma -> 1^-: the difference from the
    # gamma = 1 radial result is O(1 - gamma), checked at two scales, and
    # under 1e-6 once 1 - gamma = 1e-7
    base = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1.0, b=0.5, T=0.3)).logZ
    d3 = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1 - 1e-3, b=0.5, T=0.3)).logZ - base
    d5 = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1 - 1e-5, b=0.5, T=0.3)).logZ - base
    d7 = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1 - 1e-7, b=0.5, T=0.3)).logZ - base
    assert abs(d5) == pytest.approx(abs(d3) * 1e-2, rel=0.05)   # linear in 1-gamma
    assert abs(d7) < 1e-6


def test_cspa_2d_matches_exact_trend():
    p = ModelParams(n=100, v=1.0, gamma=0.5, b=0.3, T=0.25)
    ev = cspa_logZ(p)
    ex = exact_moments(p).logZ
    assert abs(ev.logZ - ex) < 0.05    # O(1/n) saddle corrections


# ------------------------------------------------------------------- moments

def test_cspa_moments_sz_zero_at_b0():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.2)
    m = cspa_moments(p)
    assert m.sz == pytest.approx(0.0, abs=1e-8)


def test_cspa_concurrence_close_to_exact_n100():
    p = ModelParams(n=100, v=1.0, gamma=1.0, b=0.5, T=0.2)
    m = cspa_moments(p)
    c = concurrence(pair_state(m, 100, tol=1e-6, clamp=True), 100).concurrence
    ce = concurrence(exact_pair_state(p), 100).concurrence
    assert c == pytest.approx(ce, rel=0.02)


def test_cspa_moments_breakdown_mentions_spa_fallback():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.05)
    with pytest.raises(BreakdownError, match="spa"):
        cspa_moments(p)


def test_spa_tier_never_entangled():
    # the plain static path is a positive mixture of product thermal states:
    # the tier reports C = 0 identically
    from xxzent.sweep import evaluate_point
    for (n, b, T) in ((20, 0.0, 0.05), (20, 0.5, 0.15), (20, 0.9, 0.1),
                      (50, 0.3, 0.4), (20, 1.1, 0.08)):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=T)
        pt = evaluate_point("spa", p)
        assert pt.status == "ok"
        assert pt.result.concurrence == 0.0
        assert not pt.result.entangled


def test_spa_moment_route_separable_where_physical():
    # on PSD-consistent grids the concurrence formula applied to the SPA
    # moments lands on zero up to finite-difference noise
    for (n, b, T) in ((20, 0.0, 0.05), (20, 0.5, 0.15), (20, 0.9, 0.1),
                      (50, 0.3, 0.4)):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=T)
        m = cspa_moments(p, mode="spa")
        c = concurrence(pair_state(m, n, tol=1e-6, clamp=True), n).concurrence
        assert c < 1e-10


def test_cspa_beats_cmfa_near_critical_field():
    # n = 20, T = 0.15 v, fields around gamma v (Fig.-2-style window): where
    # entanglement actually survives the static-path tier tracks the exact
    # concurrence better than the saddle-point tier, and it wins on the
    # worst-case error over the whole window
    from xxzent.sweep import evaluate_point
    errs_cspa, errs_cmfa = [], []
    for b in (0.85, 0.9, 0.95, 1.0, 1.05, 1.1):
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=0.15)
        ce = concurrence(exact_pair_state(p), 20).concurrence
        cs = evaluate_point("cspa", p)
        cm = evaluate_point("cmfa", p)
        assert cs.status == "ok"
        err_cspa = abs(cs.result.concurrence - ce)
        c_cmfa = cm.result.concurrence if cm.status == "ok" else 0.0
        err_cmfa = abs(c_cmfa - ce)
        errs_cspa.append(err_cspa)
        errs_cmfa.append(err_cmfa)
        if ce > 1e-4:
            assert err_cspa <= err_cmfa + 1e-12
    assert max(errs_cspa) < max(errs_cmfa)
