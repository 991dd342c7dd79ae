from math import exp, log, sqrt, tanh

import numpy as np
import pytest

from xxzent.cmfa import (cmfa_logZ, cmfa_moments, critical_temperature,
                         gap_solve, mean_field_z, mfa_product_moments)
from xxzent.errors import DomainError, NotApplicableError, PhaseError
from xxzent.exact import (concurrence, exact_moments, pair_state,
                          thermal_observables)
from xxzent.model import ModelParams

from oracles.closed_forms import (cmfa_asymptotics, tc_discontinuity,
                                  zero_T_concurrence_approx)


# ------------------------------------------------------------------ gap + Tc

def test_gap_value_against_brentq_oracle():
    from scipy.optimize import brentq
    for T in (0.1, 0.3, 0.45):
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.1, T=T)
        lam_ref = brentq(lambda x: x - tanh(x / (2 * T)), 1e-6, 1.0,
                         xtol=1e-15)
        assert gap_solve(p).lam == pytest.approx(lam_ref, abs=1e-12)
    # fixed-point anchor: lambda(T = 0.3 v) = 0.90733... v
    assert gap_solve(ModelParams(n=20, v=1.0, gamma=1.0, b=0.1,
                                 T=0.3)).lam == pytest.approx(0.90733, abs=1e-5)


def test_tc_limits():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.1)
    assert critical_temperature(p) == pytest.approx(0.5)
    assert critical_temperature(p.replace(b=0.9999)) < 0.2
    assert critical_temperature(p.replace(b=1.0)) == 0.0
    # gamma rescaling of the phase boundary
    assert critical_temperature(p.replace(gamma=0.5, b=0.3)) == pytest.approx(
        critical_temperature(p.replace(gamma=1.0, b=0.6)))


def test_tc_consistent_with_gap_crossing():
    # at T = T_c(b) the b-independent gap equals the rescaled field
    for b, g in ((0.4, 1.0), (0.3, 0.6)):
        p = ModelParams(n=20, v=1.0, gamma=g, b=b, T=0.1)
        tc = critical_temperature(p)
        lam = gap_solve(p.replace(T=tc * (1 - 1e-10))).lam
        assert lam == pytest.approx(b / g, rel=1e-6)


def test_gap_independent_of_b_and_gamma():
    T = 0.2
    lams = set()
    for b in (0.0, 0.2, 0.5):
        for g in (0.7, 1.0):
            sol = gap_solve(ModelParams(n=20, v=1.0, gamma=g, b=b, T=T))
            if sol.phase == "deformed":
                lams.add(round(sol.lam, 12))
    assert len(lams) == 1


def test_chi_two_forms_agree_on_gap_manifold():
    for T in (0.1, 0.25, 0.4):
        sol = gap_solve(ModelParams(n=20, v=1.0, gamma=1.0, b=0.1, T=T))
        lam, beta = sol.lam, 1.0 / T
        assert sol.chi == pytest.approx(0.5 * beta * (1 - lam * lam),
                                        rel=1e-10)


# --------------------------------------------------------------------- logZ

def test_rescaling_identity_exact():
    worst = 0.0
    for g in np.linspace(0.1, 1.0, 10):
        for b in np.linspace(0.0, 1.2, 10):
            for T in np.linspace(0.05, 1.0, 10):
                p = ModelParams(n=50, v=1.0, gamma=float(g), b=float(b),
                                T=float(T))
                lhs = cmfa_logZ(p)
                rhs = cmfa_logZ(p.replace(gamma=1.0, b=p.b / p.gamma)) \
                    - 0.5 * log(p.gamma)
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_logZ_free_spin_limit():
    p = ModelParams(n=10, v=1e-9, gamma=1.0, b=0.8, T=0.4)
    free = 10 * log(2 * np.cosh(0.8 / 0.8)) - (0.5e-9) / 0.4
    assert cmfa_logZ(p) == pytest.approx(free, rel=1e-7)


def test_logZ_low_T_against_exact_additive_log_n():
    # b = 0, T = 0.05 v, n = 1000: ln Z agrees with the exact tier up to an
    # O(ln n) additive fluctuation-entropy term
    p = ModelParams(n=1000, v=1.0, gamma=1.0, b=0.0, T=0.05)
    diff = cmfa_logZ(p) - exact_moments(p).logZ
    assert abs(diff) < 3 * log(1000)


def test_logZ_rejects_nonpositive_gamma_and_T():
    p = ModelParams(n=10, v=1.0, gamma=0.0, b=0.1, T=0.2)
    with pytest.raises(DomainError):
        cmfa_logZ(p)
    with pytest.raises(DomainError):
        cmfa_logZ(p.replace(gamma=1.0, T=0.0))


def test_tc_discontinuity_is_measured():
    jump = tc_discontinuity(ModelParams(n=20, v=1.0, gamma=1.0, b=0.3, T=0.1),
                            rel_step=1e-6)
    assert np.isfinite(jump)
    assert abs(jump) > 1.0   # the deformed branch diverges at T_c: no smoothing


# ------------------------------------------------------------------- moments

def test_moment_identities_against_logZ_derivatives_gamma1():
    # thermodynamic derivative identities at gamma = 1 (the ln Z rescaling
    # contract and the gamma-direct moments differ at gamma < 1; see the
    # cmfa_moments docstring)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 25:
        n = int(rng.integers(10, 200))
        b = float(rng.uniform(-0.75, 0.75))
        p0 = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.1)
        sol = gap_solve(p0.replace(T=0.1))
        T = float(rng.uniform(2 * sol.t_tilde, 0.8 * critical_temperature(p0)))
        p = p0.replace(T=T)
        if gap_solve(p).phase != "deformed" or not gap_solve(p).applicable:
            continue
        m = cmfa_moments(p)
        h = 1e-5
        dz = (cmfa_logZ(p.replace(b=p.b + h))
              - cmfa_logZ(p.replace(b=p.b - h))) / (2 * h)
        d2z = (cmfa_logZ(p.replace(b=p.b + h)) - 2 * cmfa_logZ(p)
               + cmfa_logZ(p.replace(b=p.b - h))) / h ** 2
        dzv = (cmfa_logZ(p.replace(v=1.0 + h))
               - cmfa_logZ(p.replace(v=1.0 - h))) / (2 * h)
        assert m.sz == pytest.approx(-T * dz, abs=1e-6)
        assert m.sz2 == pytest.approx(T * T * d2z + m.sz ** 2, abs=1e-4)
        assert m.s2 == pytest.approx(n * T * dzv + m.sz2 + n / 2, abs=1e-5 * n)
        checked += 1


def test_moments_s2_sharp_at_low_T():
    p = ModelParams(n=40, v=1.0, gamma=1.0, b=0.2, T=0.01)
    m = cmfa_moments(p)
    assert m.s2 == pytest.approx(20 * 21, rel=1e-6)


def test_constant_concurrence_at_t_tilde():
    n = 20
    p0 = ModelParams(n=n, v=1.0, gamma=1.0, b=0.0, T=1.0 / (2 * n))
    for b in np.linspace(0.0, 0.94, 12):
        m = cmfa_moments(p0.replace(b=float(b)))
        c = concurrence(pair_state(m, n)).concurrence
        assert n * c == pytest.approx(1.0, abs=1e-9)


def test_b_star_boundary_and_maximum():
    n = 20
    t_tilde = 1.0 / (2 * n)
    T = 0.5 * t_tilde
    sol = gap_solve(ModelParams(n=n, v=1.0, gamma=1.0, b=0.0, T=T))
    assert sol.b_star is not None
    # at b = b*: C = (1 + sqrt(1 - T/Ttilde))/n
    m = cmfa_moments(ModelParams(n=n, v=1.0, gamma=1.0, b=sol.b_star, T=T))
    c = concurrence(pair_state(m, n, tol=1e-6)).concurrence
    assert c == pytest.approx((1 + sqrt(1 - T / t_tilde)) / n, rel=1e-3)
    with pytest.raises(NotApplicableError):
        cmfa_moments(ModelParams(n=n, v=1.0, gamma=1.0,
                                 b=sol.b_star * 1.001, T=T))


def test_normal_phase_raises_phase_error():
    with pytest.raises(PhaseError):
        cmfa_moments(ModelParams(n=20, v=1.0, gamma=1.0, b=1.2, T=0.1))
    with pytest.raises(PhaseError):
        cmfa_moments(ModelParams(n=20, v=1.0, gamma=1.0, b=0.3, T=0.6))


def test_cmfa_t0_limit_matches_stepwise_expansion():
    # CMFA at T -> 0+ is the exact result with M -> continuous n b/(2 gamma v)
    n = 1000
    p = ModelParams(n=n, v=1.0, gamma=1.0, b=0.5, T=1e-6)
    m = cmfa_moments(p)
    c = concurrence(pair_state(m, n, tol=1e-6)).concurrence
    assert c == pytest.approx(zero_T_concurrence_approx(n, 0.25), abs=1e-4)


def test_cmfa_close_to_exact_mid_regime():
    # n >= 100, Ttilde << T << T_c, |b| <= 0.8 gamma v: 2 percent of 1/n,
    # including gamma < 1 (the gamma-direct moment forms)
    for (n, g, b, T) in ((100, 1.0, 0.5, 0.1), (100, 1.0, 0.0, 0.2),
                         (200, 0.5, 0.25, 0.06), (100, 0.7, -0.4, 0.12)):
        p = ModelParams(n=n, v=1.0, gamma=g, b=b, T=T)
        m = cmfa_moments(p)
        c = concurrence(pair_state(m, n, tol=1e-8)).concurrence
        ce = concurrence(thermal_observables(p)[1]).concurrence
        assert abs(c - ce) <= 0.02 / n


def test_mfa_separable_product_moments():
    # product state: <S_z^2> = n/4 + n(n-1) mz^2 and purity caps the
    # transverse part, so the pair state can never be entangled
    for (g, b, T) in ((1.0, 0.4, 0.2), (0.5, 0.7, 0.3), (1.0, 1.4, 0.1),
                      (-0.5, 0.3, 0.2)):
        p = ModelParams(n=20, v=1.0, gamma=g, b=b, T=T)
        m = mfa_product_moments(p)
        ps = pair_state(m, 20, tol=1e-9)
        assert concurrence(ps).concurrence == 0.0


@pytest.mark.parametrize("gamma", [-0.5, 0.0])
def test_mfa_at_zero_field_is_the_zero_field_limit(gamma):
    # at gamma <= 0, b = 0, z = 0 is an unstable fixed point of the
    # normal-phase shift; the MFA takes the ordered root, as at b -> 0
    p = ModelParams(n=100, v=1.0, gamma=gamma, b=0.0, T=0.1)
    at0 = mfa_product_moments(p)
    near = mfa_product_moments(p.replace(b=1e-9))
    assert at0.logZ == pytest.approx(near.logZ, rel=1e-8)
    assert at0.sz2 == pytest.approx(near.sz2, rel=1e-8)


@pytest.mark.parametrize("gamma, b, T", [
    (0.5, 0.3, 0.1), (0.5, -0.3, 0.1), (0.25, 0.0, 0.2),   # deformed
    (0.5, 0.8, 0.1), (0.9, 0.95, 0.05), (-0.5, 0.0, 0.1), (0.0, 1e-9, 0.1),
    (0.0, -0.4, 0.3), (0.25, 0.0, 0.5),
    # just above the b = 0 ordering temperature (1 - gamma) v / 2: the
    # only root is z = 0, reached from the aligned end
    (0.0, 0.0, 0.51), (-0.5, 0.0, 0.76)])
def test_mean_field_z_is_the_stable_saddle(gamma, b, T):
    # b - z = b/gamma in the deformed phase; in the normal phase a root of
    # f(z) = z - (gamma - 1) v tanh(beta (b - z)/2) with f' > 0 (stable),
    # on the side of b that the field favours
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
    z = mean_field_z(p)[0]
    if gap_solve(p).phase == "deformed":
        assert len(mean_field_z(p)) == 1
        assert b - z == pytest.approx(b / gamma, rel=1e-14, abs=1e-15)
        return
    t = tanh((b - z) / (2.0 * T))
    assert abs(z - (gamma - 1.0) * t) < 1e-13
    assert 1.0 - (1.0 - gamma) * (1.0 - t * t) / (2.0 * T) > 0.0
    assert (1.0 - gamma) * z * (1.0 if b >= 0 else -1.0) < 1e-12
    if T > (1.0 - gamma) / 2.0 and b == 0.0:
        assert abs(z) < 1e-12


@pytest.mark.parametrize("gamma, b, T, ordered", [
    (-1.0, 0.0, 0.2, True), (-1.0, 0.001, 0.2, True), (-0.5, -0.1, 0.2, True),
    (0.0, 1.0, 0.1, False), (0.5, 0.6, 0.233, False), (-0.5, -0.3, 0.6, False)])
def test_normal_z_shift_from_the_other_end(gamma, b, T, ordered):
    # from the end the field disfavours the Newton steps reach the stable
    # ordered root on that side where f has one (|b| small, beta (1 - gamma)
    # v / 2 > 1), and NaN where they meet f' <= 0 because it has none; it
    # is the normal phase's second saddle
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
    assert gap_solve(p).phase == "normal"
    _, z = mean_field_z(p)
    if not ordered:
        assert np.isnan(z)
        return
    t = tanh((b - z) / (2.0 * T))
    assert abs(z - (gamma - 1.0) * t) < 1e-13
    assert 1.0 - (1.0 - gamma) * (1.0 - t * t) / (2.0 * T) > 0.0
    assert z * (1.0 if b >= 0 else -1.0) > 0.5


@pytest.mark.parametrize("gamma, b, T", [(-0.5, 0.0, 0.75), (0.0, 0.0, 0.5),
                                         (0.5, 1e-300, 0.25)])
def test_mean_field_z_at_the_ordering_temperature_and_tiny_field(gamma, b, T):
    # at T = (1 - gamma) v / 2, b = 0, f'(0) = 0 and z = 0 is a triple root,
    # found to about cbrt(eps); a field so small that (1 + x)/(1 - x)
    # rounds to 1 has T_c = v/2, not a division by zero
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
    assert abs(mean_field_z(p)[0]) < 1e-7
    if gamma > 0:
        assert critical_temperature(p) == 0.5


# --------------------------------------------------------------- asymptotics

def test_asymptotics_disappearance_threshold():
    a = cmfa_asymptotics(ModelParams(n=100, v=1.0, gamma=1.0, b=0.0, T=0.1))
    assert a.n_disappear == pytest.approx(0.4 * exp(10.0), rel=1e-12)
    assert a.n_disappear == pytest.approx(8810.6, abs=0.1)


def test_asymptotics_b0_linear_in_T():
    # once 2n e^{-beta v} is negligible, C -> (1/n)(1 - 2T/v): linear in T
    n = 50
    for T in (0.02, 0.04, 0.05):
        a = cmfa_asymptotics(ModelParams(n=n, v=1.0, gamma=1.0, b=0.0, T=T))
        assert a.c_large_n == pytest.approx((1 - 2 * T) / n, abs=1e-5)


def test_asymptotic_limit_field_matches_root():
    from xxzent.sweep import limit_field
    p = ModelParams(n=1000, v=1.0, gamma=1.0, b=0.0, T=0.1)
    a = cmfa_asymptotics(p)
    res = limit_field("cmfa", p, b_max=1.2, probes=40)
    assert res.limit == pytest.approx(a.b_l, rel=0.01)


def test_asymptotic_tl_regimes():
    # narrow window just below gamma v: T_L ~ v - |b|
    a = cmfa_asymptotics(ModelParams(n=10 ** 6, v=1.0, gamma=1.0, b=0.97,
                                     T=1e-3))
    assert a.t_l_low_t == pytest.approx(1.0 - 0.97, rel=0.02)
    # very large n: T_L ~ v / ln 2n, b-independent
    a1 = cmfa_asymptotics(ModelParams(n=10 ** 9, v=1.0, gamma=1.0, b=0.0,
                                      T=0.01))
    a2 = cmfa_asymptotics(ModelParams(n=10 ** 9, v=1.0, gamma=1.0, b=0.3,
                                      T=0.01))
    assert a1.t_l_large_n == pytest.approx(1.0 / log(2e9), rel=0.05)
    assert a1.t_l_large_n == pytest.approx(a2.t_l_large_n, rel=0.02)


def test_asymptotics_gamma_rescale():
    # large-n bracket: gamma enters through gamma*v only
    a = cmfa_asymptotics(ModelParams(n=200, v=1.0, gamma=0.5, b=0.2, T=0.05))
    expect = (1 - 2 * 200 * exp(-20.0)
              - (2 * 0.05 / 0.5) / (1 - (0.2 / 0.5) ** 2)) / 200
    assert a.c_large_n == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("gamma, b, T", [(1.0, 0.3, 0.1), (0.5, 0.2, 0.1),
                                         (1.0, 1.3, 0.1), (0.5, 0.2, 0.9)])
def test_one_gap_solve_per_point(monkeypatch, gamma, b, T):
    # the cmfa tier hands its gap solution to cmfa_moments (deformed phase)
    # or cmfa_logZ (normal phase), which then give what they give when they
    # solve the gap themselves
    from xxzent import cmfa
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
    sol = gap_solve(p)
    deformed = sol.phase == "deformed"
    assert deformed == (b < gamma and T < 0.5)
    if deformed:
        alone = cmfa_moments(p)
        assert cmfa_moments(p, sol) == alone
    else:
        alone = cmfa_logZ(p)
        assert cmfa_logZ(p, sol) == alone
    calls = []
    monkeypatch.setattr(cmfa, "gap_solve",
                        lambda params: calls.append(params) or gap_solve(params))
    pt = evaluate_point("cmfa", p)
    assert pt.status == "ok"
    assert (pt.moments if deformed else pt.logZ) == alone
    assert calls == [p]


def test_cached_gap_root_is_the_solve_bit_for_bit():
    # the cache hands back, bit for bit, what the solve itself gives: above
    # and at v/2 (no gap), just below v/2 (a gap near 0), down to
    # T = 1e-4 v (a gap at v); np.float64 keys share the entries of equal
    # float keys, whichever comes first
    from xxzent import cmfa
    solve, keys = cmfa._gap_root.__wrapped__, set()
    for v in (0.5, 1.0, 2.0, 3.7):
        for T in (0.75 * v, 0.5 * v, float(np.nextafter(0.5 * v, 0.0)),
                  0.49 * v, 0.3 * v, 0.1 * v, 0.01 * v, 1e-4 * v):
            keys.add((v, T))
            for key in ((np.float64(v), np.float64(T)), (v, T),
                        (v, np.float64(T))):
                assert float.hex(cmfa._gap_root(*key)) == \
                    float.hex(solve(*key)) == float.hex(solve(v, T)), key
    info = cmfa._gap_root.cache_info()
    assert (info.misses, info.hits, info.currsize) == \
        (len(keys), 2 * len(keys), len(keys))
    assert cmfa._gap_root(1.0, 0.5) == 0.0
    assert 0.0 < cmfa._gap_root(1.0, float(np.nextafter(0.5, 0.0))) < 1e-6
    assert cmfa._gap_root(1.0, 1e-4) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("gamma, b, T", [(0.5, 0.3, 0.1), (1.0, 0.0, 0.2),
                                         (0.25, -0.2, 0.05)])
def test_mean_field_z_solves_no_gap(monkeypatch, gamma, b, T):
    # the deformed phase's z shift is b - b/gamma whatever the gap: the
    # phase is gap_solve's, decided without a (v, T) root
    from xxzent import cmfa
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
    assert gap_solve(p).phase == "deformed"
    calls, root = [], cmfa._gap_root
    monkeypatch.setattr(cmfa, "_gap_root",
                        lambda v, T: calls.append((v, T)) or root(v, T))
    assert mean_field_z(p) == (b - b / gamma,)
    assert calls == []
    with pytest.raises(DomainError):
        mean_field_z(p.replace(T=0.0))
