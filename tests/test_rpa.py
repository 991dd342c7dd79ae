from math import log, pi, sinh, sqrt, tanh

import numpy as np
import pytest

from xxzent.errors import BreakdownError, DomainError, NotApplicableError
from xxzent.model import ModelParams

from oracles.rpa import (LocalSite, c0_factor, c_rpa, free_energy,
                         hartree_solve, linearize, log_c_rpa, response_matrix,
                         rpa_energies, xxz_sites)

SX = np.array([[0.0, 0.5], [0.5, 0.0]])
SY = np.array([[0.0, -0.5j], [0.5j, 0.0]])
SZ = np.array([[0.5, 0.0], [0.0, -0.5]])


def xx_config(n, v, b, r, T):
    p = ModelParams(n=n, v=v, gamma=1.0, b=b, T=T)
    sites, coup = xxz_sites(p)
    return linearize(sites, [r, 0.0], T), coup


def omega33_sq(v, b, r, T):
    lam = sqrt(b * b + r * r)
    t = tanh(lam / (2 * T))
    return (lam - v * t) * (lam - v * (b * b / lam ** 2) * t)


def gap_root(v, T):
    lo, hi = 1e-12 * v, v
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - v * tanh(mid / (2 * T)) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------- linearize

def test_linearize_single_spin_gap():
    site = LocalSite(h0=0.7 * SZ, q_ops=(SX, SY))
    for x, y in ((0.0, 0.0), (0.4, 0.0), (0.3, -0.5)):
        cfg = linearize([site], [x, y], T=0.25)
        lam = cfg.eps[0][1] - cfg.eps[0][0]
        assert lam == pytest.approx(sqrt(0.49 + x * x + y * y), rel=1e-12)


def test_linearize_x0_gives_bare_spectrum():
    site = LocalSite(h0=0.7 * SZ, q_ops=(SX,))
    cfg = linearize([site], [0.0], T=0.3)
    assert cfg.eps[0] == pytest.approx([-0.35, 0.35])


def test_linearize_degenerate_uniform_occupations():
    site = LocalSite(h0=np.zeros((2, 2)), q_ops=(SX,))
    cfg = linearize([site], [0.0], T=0.3)
    assert cfg.occ[0] == pytest.approx([0.5, 0.5])


def test_linearize_rejects_nonhermitian_inputs():
    with pytest.raises(DomainError):
        LocalSite(h0=np.array([[0.0, 1.0], [0.0, 0.0]]), q_ops=(SX,))
    with pytest.raises(DomainError):
        LocalSite(h0=SZ, q_ops=(np.array([[0.0, 1.0], [0.0, 0.0]]),))


# ------------------------------------------------------------------ response

def test_response_vanishes_at_infinite_temperature():
    cfg, _ = xx_config(4, 1.0, 0.6, 0.3, 1e8)
    R = response_matrix(cfg, 0.1)
    assert np.abs(R).max() < 1e-7


def test_response_decays_at_large_omega():
    cfg, _ = xx_config(4, 1.0, 0.6, 0.3, 0.2)
    R = response_matrix(cfg, 1e9)
    assert np.abs(R).max() < 1e-8


def test_response_pole_guard():
    cfg, _ = xx_config(4, 1.0, 0.6, 0.3, 0.2)
    lam = sqrt(0.36 + 0.09)
    with pytest.raises(DomainError):
        response_matrix(cfg, lam)


# -------------------------------------------------------------- rpa_energies

def test_uncoupled_limit_omega_equals_lambda():
    cfg, _ = xx_config(5, 1.0, 0.6, 0.3, 0.2)
    spec = rpa_energies(cfg, [0.0, 0.0])
    lam = sqrt(0.36 + 0.09)
    assert np.allclose(np.sort(np.abs(spec.omegas)), lam, atol=1e-12)


def test_pairing_of_rpa_energies():
    cfg, coup = xx_config(6, 1.0, 0.4, 0.5, 0.15)
    spec = rpa_energies(cfg, coup)
    vals = np.sort_complex(spec.omegas)
    neg = np.sort_complex(-spec.omegas)
    assert np.allclose(vals, neg, atol=1e-10)


def test_collective_mode_matches_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        b, r, T = rng.uniform(0.05, 1.2), rng.uniform(0.05, 1.2), \
            rng.uniform(0.05, 0.6)
        cfg, coup = xx_config(8, 1.0, b, r, T)
        spec = rpa_energies(cfg, coup)
        lam = sqrt(b * b + r * r)
        ev = list(spec.omegas)
        for s in (1, -1):
            for _ in range(7):
                ev.pop(int(np.argmin([abs(x - s * lam) for x in ev])))
        w2 = omega33_sq(1.0, b, r, T)
        for w in ev:
            assert (w * w).real == pytest.approx(w2, rel=1e-8)
        assert spec.det_residual < 1e-8


def test_goldstone_mode_at_hartree_point():
    # the zero mode scales like sqrt of the gap-equation residual, so the
    # bisection-limited root gives |omega_min| ~ 1e-8; 1e-6 is the contract
    v, b, T = 1.0, 0.4, 0.25
    lam = gap_root(v, T)
    r = sqrt(lam * lam - b * b)
    cfg, coup = xx_config(10, v, b, r, T)
    spec = rpa_energies(cfg, coup)
    assert np.abs(spec.omegas).min() < 1e-6


def test_imaginary_mode_below_stationary_point():
    # T < T_c, r below the deformed solution: omega^2 < 0
    cfg, coup = xx_config(6, 1.0, 0.0, 0.5, 0.05)
    spec = rpa_energies(cfg, coup)
    ims = spec.omegas[np.abs(spec.omegas.real) < 1e-9]
    assert len(ims) >= 2 and np.abs(ims.imag).max() > 0.1
    assert omega33_sq(1.0, 1e-12, 0.5, 0.05) < 0


# --------------------------------------------------------------------- c_rpa

def test_c_rpa_uncoupled_is_one():
    cfg, _ = xx_config(5, 1.0, 0.6, 0.3, 0.2)
    spec = rpa_energies(cfg, [0.0, 0.0])
    assert c_rpa(spec) == pytest.approx(1.0, abs=1e-12)


def test_c_rpa_goldstone_limit_value():
    # at the deformed Hartree point: C_RPA -> sinh(beta lam/2)/(beta lam/2)
    v, b, T = 1.0, 0.3, 0.3
    lam = gap_root(v, T)
    r = sqrt(lam * lam - b * b)
    cfg, coup = xx_config(12, v, b, r, T)
    spec = rpa_energies(cfg, coup)
    beta = 1.0 / T
    expected = sinh(0.5 * beta * lam) / (0.5 * beta * lam)
    assert c_rpa(spec) == pytest.approx(expected, rel=1e-6)


def test_c_rpa_continuous_across_zero_mode():
    # approach the Hartree point from both sides: C_RPA limits agree
    v, b, T = 1.0, 0.3, 0.3
    lam = gap_root(v, T)
    r0 = sqrt(lam * lam - b * b)
    vals = []
    for eps in (-1e-5, 1e-5):
        cfg, coup = xx_config(8, v, b, r0 * (1 + eps), T)
        vals.append(c_rpa(rpa_energies(cfg, coup)))
    assert vals[0] == pytest.approx(vals[1], rel=1e-3)


def test_c_rpa_closed_form_match_generic_r():
    # multiset product vs the single-mode closed form
    for (b, r, T) in ((0.5, 0.9, 0.3), (0.2, 1.1, 0.15), (0.9, 0.4, 0.5)):
        cfg, coup = xx_config(9, 1.0, b, r, T)
        spec = rpa_energies(cfg, coup)
        lam = sqrt(b * b + r * r)
        w2 = omega33_sq(1.0, b, r, T)
        beta = 1.0 / T
        if w2 > 0:
            w = sqrt(w2)
            expected = w * sinh(0.5 * beta * lam) / (lam * sinh(0.5 * beta * w))
        else:
            w = sqrt(-w2)
            expected = w * sinh(0.5 * beta * lam) / (lam * np.sin(0.5 * beta * w))
        assert c_rpa(spec) == pytest.approx(expected, rel=1e-8)


def test_c_rpa_breakdown_outside_window():
    # b = 0, r ~ v/2, very low T: |omega| ~ v/2 and beta|omega|/2 >= pi
    cfg, coup = xx_config(6, 1.0, 0.0, 0.5, 0.05)
    spec = rpa_energies(cfg, coup)
    assert not spec.valid
    with pytest.raises(BreakdownError):
        log_c_rpa(spec)


# ------------------------------------------------------------------- hartree

def test_hartree_normal_solution_above_tc():
    p = ModelParams(n=8, v=1.0, gamma=1.0, b=0.2, T=0.6)
    sites, coup = xxz_sites(p)
    sol = hartree_solve(sites, coup, 0.6, x0=[0.5, 0.0])
    assert np.abs(sol.x).max() < 1e-9


def test_hartree_deformed_b_independent_gap():
    T = 0.25
    lam_ref = gap_root(1.0, T)
    for b in (0.0, 0.2, 0.5, 0.8):
        p = ModelParams(n=8, v=1.0, gamma=1.0, b=b, T=T)
        sites, coup = xxz_sites(p)
        sol = hartree_solve(sites, coup, T, x0=[0.7, 0.0])
        lam = sqrt(b * b + sol.x[0] ** 2)
        assert lam == pytest.approx(lam_ref, abs=1e-10)


def test_hartree_low_T_gap_approaches_v():
    p = ModelParams(n=6, v=1.0, gamma=1.0, b=0.0, T=0.04)
    sites, coup = xxz_sites(p)
    sol = hartree_solve(sites, coup, 0.04, x0=[0.9, 0.0])
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)   # lam -> v, r -> v at b=0


def test_hartree_picks_free_energy_minimum():
    # below T_c the deformed solution must beat the normal one
    p = ModelParams(n=8, v=1.0, gamma=1.0, b=0.2, T=0.2)
    sites, coup = xxz_sites(p)
    sol = hartree_solve(sites, coup, 0.2, x0=[0.6, 0.0])
    f_normal = free_energy(sites, coup, [0.0, 0.0], 0.2)
    assert sol.x[0] > 0.1
    assert sol.free_energy < f_normal


# ----------------------------------------------------------------- c0 factor

def test_c0_uncoupled_is_one():
    cfg, _ = xx_config(5, 1.0, 0.6, 0.3, 0.2)
    assert c0_factor(cfg, [0.0, 0.0]) == pytest.approx(1.0)


def test_c0_normal_phase_closed_form():
    # r = 0 normal phase: C_0 = b / omega with omega = b - v tanh(beta b/2)
    v, b, T = 1.0, 0.4, 0.6
    p = ModelParams(n=9, v=v, gamma=1.0, b=b, T=T)
    sites, coup = xxz_sites(p)
    cfg = linearize(sites, [0.0, 0.0], T)
    w = b - v * tanh(b / (2 * T))
    assert c0_factor(cfg, coup) == pytest.approx(b / w, rel=1e-10)


def test_c0_deformed_radial_closed_form():
    # intrinsic (radial) direction only: C_0 = (lam/r)/sqrt(1 - chi)
    v, b, T = 1.0, 0.3, 0.25
    lam = gap_root(v, T)
    r = sqrt(lam * lam - b * b)
    p = ModelParams(n=11, v=v, gamma=1.0, b=b, T=T)
    sites, coup = xxz_sites(p)
    cfg = linearize(sites, [r, 0.0], T)
    beta = 1.0 / T
    chi = 0.5 * beta * v * (1 - lam * lam / (v * v))
    assert c0_factor(cfg, coup) == pytest.approx((lam / r) / sqrt(1 - chi),
                                                 rel=1e-6)


def test_c0_matches_numerical_hessian():
    # independent oracle: second differences of F(x) along a generic point
    v, b, T = 1.0, 0.7, 0.5
    p = ModelParams(n=7, v=v, gamma=1.0, b=b, T=T)
    sites, coup = xxz_sites(p)
    x0 = np.array([0.0, 0.0])
    h = 1e-4
    H = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            xpp = x0.copy(); xpp[i] += h; xpp[j] += h
            xpm = x0.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x0.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x0.copy(); xmm[i] -= h; xmm[j] -= h
            H[i, j] = (free_energy(sites, coup, xpp, T)
                       - free_energy(sites, coup, xpm, T)
                       - free_energy(sites, coup, xmp, T)
                       + free_energy(sites, coup, xmm, T)) / (4 * h * h)
    det = np.linalg.det(np.diag(coup) @ H)
    cfg = linearize(sites, x0, T)
    assert c0_factor(cfg, coup) == pytest.approx(det ** -0.5, rel=1e-5)


def test_c0_saddle_raises():
    # below T_c the x = 0 point is a maximum of F: c0 must refuse
    p = ModelParams(n=8, v=1.0, gamma=1.0, b=0.1, T=0.2)
    sites, coup = xxz_sites(p)
    cfg = linearize(sites, [0.0, 0.0], 0.2)
    with pytest.raises(NotApplicableError, match=r"^saddle point: fluctuation "
                       r"Hessian has negative eigenvalue -1\.449e\+00; "
                       r"C_0 is defined at free-energy minima only$"):
        c0_factor(cfg, coup)


def test_c0_near_critical_warns():
    # chi -> 1 at the b = 0 critical point T -> v/2: radial mode softens
    v, T = 1.0, 0.5 * (1 - 1e-5)
    lam = gap_root(v, T)
    p = ModelParams(n=9, v=v, gamma=1.0, b=0.0, T=T)
    sites, coup = xxz_sites(p)
    cfg = linearize(sites, [lam, 0.0], T)
    with pytest.warns(RuntimeWarning):
        c0_factor(cfg, coup)


# ------------------------------------------------------- engine consistency

def test_engine_chain_reproduces_both_closed_form_partition_functions():
    # -beta F + ln C_0 + ln C_RPA against the deformed/normal closed forms;
    # the broken O(2) direction contributes its orbit volume on top of the
    # intrinsic C_0: 2 pi r0 under the sqrt(beta/(2 pi 2V)) measure, i.e.
    # a factor r0 sqrt(pi n beta / v)
    from xxzent.cmfa import cmfa_logZ
    n = 14
    for (b, T, phase) in ((0.4, 0.3, "deformed"), (0.4, 0.6, "normal"),
                          (1.3, 0.2, "normal")):
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=T)
        sites, coup = xxz_sites(p)
        sol = hartree_solve(sites, coup, T, x0=[0.7, 0.0])
        spec = rpa_energies(sol.config, coup)
        lnz = -sol.free_energy / T + log(c0_factor(sol.config, coup)) \
            + log_c_rpa(spec)
        r0 = float(np.linalg.norm(sol.x))
        if phase == "deformed":
            lnz += log(r0 * sqrt(pi * n / (T * p.v)))
            assert r0 > 0.1
        else:
            assert r0 < 1e-8
        assert lnz == pytest.approx(cmfa_logZ(p), rel=1e-6)
