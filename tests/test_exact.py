from dataclasses import fields
from math import ceil, copysign, exp, fsum, inf, log, sqrt

import numpy as np
import pytest

from xxzent import exact
from xxzent.errors import DomainError, InconsistentMomentsError
from xxzent.exact import (CollectiveMoments, brute_force_moments,
                          brute_force_observables,
                          brute_force_pair_density, concurrence,
                          eof_from_concurrence, exact_moments,
                          exact_pair_state, far_field_limit_temperature,
                          ground_state_moments, ground_state_pair_state,
                          large_field_expansion, pair_state,
                          thermal_observables, wootters_concurrence,
                          zero_T_concurrence_approx)
from xxzent.model import (ModelParams, crossing_fields, log_multiplicity,
                          spectrum_table, two_s_range)


def random_params(rng, n_max=8):
    return ModelParams(n=int(rng.integers(2, n_max + 1)), v=1.0,
                       gamma=float(rng.uniform(0.0, 1.0)),
                       b=float(rng.uniform(-1.5, 1.5)),
                       T=float(rng.uniform(0.05, 2.0)))


# ---------------------------------------------------------------- exact sums

def test_infinite_temperature_limit_n2():
    p = ModelParams(n=2, v=1.0, gamma=1.0, b=0.0, T=1e7)
    m = exact_moments(p)
    assert m.sz == pytest.approx(0.0, abs=1e-6)
    assert m.sz2 == pytest.approx(0.5, abs=1e-6)
    assert m.s2 == pytest.approx(1.5, abs=1e-6)


def test_sz_vanishes_at_zero_field():
    for n, T in ((5, 0.3), (30, 0.08), (101, 1.0)):
        m = exact_moments(ModelParams(n=n, v=1.0, gamma=0.7, b=0.0, T=T))
        assert m.sz == pytest.approx(0.0, abs=1e-10)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_params(rng)
        a = exact_moments(p)
        b = brute_force_moments(p)
        for x, y in ((a.logZ, b.logZ), (a.sz, b.sz), (a.sz2, b.sz2),
                     (a.s2, b.s2)):
            assert x == pytest.approx(y, rel=1e-11, abs=1e-12)


def test_derivative_identities_against_finite_differences():
    # <S_z> = -T dlnZ/db ; <S_z^2> = T^2 d2lnZ/db2 + <S_z>^2 ;
    # <S^2> = n T dlnZ/dv + gamma <S_z^2> + n(3-gamma)/4 ;
    # and with E0 kept, <S_z^2> = n/4 - (n T / v) dlnZ/dgamma.
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = ModelParams(n=int(rng.integers(2, 30)), v=1.0,
                        gamma=float(rng.uniform(0.0, 0.95)),
                        b=float(rng.uniform(-1.2, 1.2)),
                        T=float(rng.uniform(0.1, 2.0)))
        m = exact_moments(p)
        h = 1e-5 * max(1.0, abs(p.b))
        dz_db = (exact_moments(p.replace(b=p.b + h)).logZ
                 - exact_moments(p.replace(b=p.b - h)).logZ) / (2 * h)
        d2z = (exact_moments(p.replace(b=p.b + h)).logZ - 2 * m.logZ
               + exact_moments(p.replace(b=p.b - h)).logZ) / h ** 2
        hv = 1e-5
        dz_dv = (exact_moments(p.replace(v=1.0 + hv)).logZ
                 - exact_moments(p.replace(v=1.0 - hv)).logZ) / (2 * hv)
        hg = 1e-5
        dz_dg = (exact_moments(p.replace(gamma=p.gamma + hg)).logZ
                 - exact_moments(p.replace(gamma=p.gamma - hg)).logZ) / (2 * hg)
        assert m.sz == pytest.approx(-p.T * dz_db, abs=1e-6)
        assert m.sz2 == pytest.approx(p.T ** 2 * d2z + m.sz ** 2, abs=1e-4)
        assert m.s2 == pytest.approx(
            p.n * p.T * dz_dv + p.gamma * m.sz2 + p.n * (3 - p.gamma) / 4,
            abs=1e-5 * p.n)
        assert m.sz2 == pytest.approx(
            p.n / 4 - (p.n * p.T / p.v) * dz_dg, abs=1e-5 * p.n)


def _reference_sums(n, rows):
    """Seven spectral sums from (S, M, weight) rows, in the order
    Z, M, M^2, S(S+1), p+ n(n-1), p- n(n-1), alpha n(n-1)."""
    half = n / 2
    cols = ([], [], [], [], [], [], [])
    for S, M, w in rows:
        for col, x in zip(cols, (1.0, M, M * M, S * (S + 1), (M + half) * (M + half - 1),
                                 (half - M) * (half - M - 1), S * (S + 1) - M * M - half)):
            col.append(w * x)
    return [fsum(c) for c in cols]


def _assert_matches_reference(p, logZ, sums):
    moments, pair = thermal_observables(p)
    Z = sums[0]
    den = p.n * (p.n - 1) * Z
    ref = {"logZ": logZ + log(Z), "sz": sums[1] / Z, "sz2": sums[2] / Z,
           "s2": sums[3] / Z, "p_plus": sums[4] / den, "p_minus": sums[5] / den,
           "alpha": sums[6] / den}
    got = {"logZ": moments.logZ, "sz": moments.sz, "sz2": moments.sz2,
           "s2": moments.s2, "p_plus": pair.p_plus, "p_minus": pair.p_minus,
           "alpha": pair.alpha}
    for k, y in ref.items():
        assert abs(got[k] - y) <= 1e-13 * abs(y) + 1e-12, (p, k, got[k], y)
    c_ref = 2 * max(abs(ref["alpha"]) - np.sqrt(ref["p_plus"] * ref["p_minus"]), 0)
    assert abs(concurrence(pair).concurrence - c_ref) <= 1e-12, p


def test_windowed_sum_matches_spectrum_table():
    # reference: every level of the spectrum with its exact integer Y(S);
    # b = 3 puts p+ near 1e-26 (far field), T = 5 prunes nothing
    for n in (2, 3, 4, 7, 12, 25, 40):
        for gamma in (1.0, 0.5, 0.0, -0.5):
            p0 = ModelParams(n=n, v=1.0, gamma=gamma)
            for b in (0.0, 0.5, -0.5, p0.b_c, 3.0):
                table = spectrum_table(p0.replace(b=b))
                emin = min(r.energy for r in table)
                for T in (0.005, 0.03, 0.1, 0.6, 5.0):
                    p = p0.replace(b=b, T=T)
                    rows = [(r.S, r.M, r.multiplicity * exp(-(r.energy - emin) / T))
                            for r in table]
                    _assert_matches_reference(p, -emin / T, _reference_sums(n, rows))


@pytest.mark.parametrize("T", [0.01, 0.1, 0.6])
def test_windowed_sum_matches_full_sum_large_n(T):
    # reference: the plain sum over all ~n^2/4 levels, sector by sector
    p = ModelParams(n=8810, v=1.0, gamma=1.0, b=0.5, T=T)
    half, V = p.n / 2, p.V
    sectors = []
    for two_S in range(0, p.n + 1, 2):
        S = two_S / 2
        M = np.arange(-two_S, two_S + 1, 2) / 2
        E = p.b * M - V * (S * (S + 1) - p.gamma * M * M) + p.E0
        sectors.append((S, M, log_multiplicity(p.n, two_S) - E / T))
    shift = max(w.max() for _, _, w in sectors)
    sums = np.zeros(7)
    for S, M, w in sectors:
        e = np.exp(w - shift)
        ssp1 = S * (S + 1)
        sums += [e.sum(), (M * e).sum(), (M * M * e).sum(), ssp1 * e.sum(),
                 ((M + half) * (M + half - 1) * e).sum(),
                 ((half - M) * (half - M - 1) * e).sum(),
                 ((ssp1 - M * M - half) * e).sum()]
    _assert_matches_reference(p, shift, sums)


def test_windowed_sum_work_is_a_few_sectors():
    # the full sum visits all 19.4M levels; the weight sits in 25 of 4406 sectors
    p = ModelParams(n=8810, v=1.0, gamma=1.0, b=0.0, T=0.1)
    _, (_, _, lo, hi) = exact._summation_window(p)
    levels = int(((hi - lo) // 2 + 1).sum())
    assert 0 < levels <= 2e4


# Reference for the window: the per-sector scalar rule, one sector at a time.
# ``branches`` records which cases of the rule a run has exercised.

def _scalar_lattice_down(x, two_S):
    x = min(max(x, -two_S - 4.0), two_S + 4.0)
    return two_S - 2 * ceil((two_S - x) / 2.0)


def _scalar_lattice_up(x, two_S):
    return -_scalar_lattice_down(-x, two_S)


def _scalar_roots(a, b, R):
    s = sqrt(max(b * b + 4.0 * a * R, 0.0))
    q = -0.5 * (b + copysign(s, b))
    if q == 0.0:
        return 0.0, 0.0
    r1, r2 = q / a, -R / q
    return min(r1, r2), max(r1, r2)


def _scalar_sector_segments(a, b, R, two_S, branches):
    if a > 0:
        branches.add("a > 0")
        r1, r2 = _scalar_roots(a, b, R)
        lo = max(_scalar_lattice_up(2.0 * r1, two_S) - 2, -two_S)
        hi = min(_scalar_lattice_down(2.0 * r2, two_S) + 2, two_S)
        return [(lo, hi)] if lo <= hi else []
    if a < 0 and b * b + 4.0 * a * R > 0.0:
        x1, x2 = _scalar_roots(a, b, R)
    elif a == 0 and b != 0:
        branches.add("a = 0, infinite root")
        x1, x2 = (R / b, inf) if b > 0 else (-inf, R / b)
    else:
        branches.add("a < 0, negative discriminant" if a < 0 else "a = 0 = b")
        return [(-two_S, two_S)]
    left_hi = min(_scalar_lattice_down(2.0 * x1, two_S) + 2, two_S)
    right_lo = max(_scalar_lattice_up(2.0 * x2, two_S) - 2, -two_S)
    if left_hi + 2 >= right_lo:
        branches.add("a <= 0, gap narrower than a step")
        return [(-two_S, two_S)]
    branches.add("a <= 0, two end segments")
    return [(lo, hi) for lo, hi in ((-two_S, left_hi), (right_lo, two_S))
            if lo <= hi]


def _scalar_window(p, branches):
    n, beta = p.n, p.beta
    a, b = p.V * p.gamma, p.b
    two_S = np.array(two_s_range(n))
    lnY = np.array([log_multiplicity(n, int(t)) for t in two_S])
    S = two_S / 2.0
    const = lnY + beta * (p.V * S * (S + 1.0) - p.E0)
    cands = [-two_S, two_S]
    if a > 0:
        vertex = np.clip(-b / a, -two_S, two_S)
        below = two_S - 2.0 * np.ceil((two_S - vertex) / 2.0)
        cands += [below, np.minimum(below + 2.0, two_S)]
    best = np.max([-beta * (b * (c / 2.0) + a * (c / 2.0) ** 2) for c in cands],
                  axis=0)
    sector_max = const + best
    peak = float(sector_max.max())
    cut = peak - exact.CUT_NATS - 2.0 * log(n + 1.0)
    segments = []
    for k in np.flatnonzero(sector_max >= cut):
        ts = int(two_S[k])
        R = (const[k] - cut) / beta
        segments += [(ts, float(lnY[k]), lo, hi)
                     for lo, hi in _scalar_sector_segments(a, b, R, ts, branches)]
    return peak, sorted(segments)


def _window_cases():
    rng = np.random.default_rng(8)
    # edge cases first: a = 0 with b = 0, a < 0 with a negative discriminant
    # (whole sectors), a = 0 with b != 0 (one infinite root), odd and even n
    yield from [(20, 0.0, 0.0, 0.1), (21, 0.0, 0.0, 2.0), (300, -1.0, 0.0, 0.5),
                (301, -0.5, 0.0, 0.001), (40, 0.0, 0.5, 0.1),
                (41, 0.0, -3.0, 1.0), (1000, 0.0, 0.5, 5.0),
                (999, -1.0, 3.0, 0.01), (2, 1.0, 0.0, 0.001), (3, -1.0, 0.5, 5.0)]
    for _ in range(300):
        gamma = rng.choice([1.0, 0.5, 0.0, -0.5, -1.0, rng.uniform(-2.0, 1.0)])
        b = rng.choice([0.0, 0.5, -0.5, 3.0, -3.0, rng.uniform(-4.0, 4.0)])
        T = np.exp(rng.uniform(log(0.001), log(5.0)))
        yield int(rng.integers(2, 1001)), float(gamma), float(b), float(T)


def test_vectorized_window_matches_scalar_rule():
    # RuntimeWarnings are errors under the test settings, so a guarded
    # division that warned (e.g. -R/q at q = 0) would fail here
    branches = set()
    for n, gamma, b, T in _window_cases():
        p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
        peak, (two_S, lnY, lo, hi) = exact._summation_window(p)
        ref_peak, ref = _scalar_window(p, branches)
        assert peak == ref_peak, p
        got = sorted(zip(two_S.tolist(), lnY.tolist(), lo.tolist(), hi.tolist()))
        assert got == ref, p
    assert branches == {"a > 0", "a = 0 = b", "a = 0, infinite root",
                        "a < 0, negative discriminant",
                        "a <= 0, gap narrower than a step",
                        "a <= 0, two end segments"}


@pytest.mark.parametrize("gamma, b, T", [(1.0, 0.3, 0.1), (-0.5, 0.5, 0.2),
                                         (0.0, 0.5, 0.05)])
def test_chunked_sum_matches_default(monkeypatch, gamma, b, T):
    p = ModelParams(n=1000, v=1.0, gamma=gamma, b=b, T=T)
    _, (_, _, lo, hi) = exact._summation_window(p)
    end = np.cumsum((hi - lo) // 2 + 1)
    assert np.any(end % 5 != 0)          # some segment ends inside a chunk
    ref = thermal_observables(p)
    monkeypatch.setattr(exact, "CHUNK_LEVELS", 5)
    got = thermal_observables(p)
    for r, g in zip(ref, got):
        for f in fields(r):
            x, y = getattr(r, f.name), getattr(g, f.name)
            # p = (1 - p+ - p-)/2 is a difference of sums, so it is held to
            # 1e-14 of the trace; everything else is a sum held to 1e-14 of
            # itself
            tol = dict(abs=1e-14) if f.name == "p" else dict(rel=1e-14, abs=0.0)
            assert y == pytest.approx(x, **tol), (p, f.name)


@pytest.mark.parametrize("n, b", [(1000, 0.3), (8810, 0.0)])
def test_level_weights_called_once_per_chunk(monkeypatch, n, b):
    p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.1)
    _, (_, _, lo, hi) = exact._summation_window(p)
    levels = int(((hi - lo) // 2 + 1).sum())
    calls = []
    level_weights = exact._level_weights
    monkeypatch.setattr(exact, "_level_weights",
                        lambda *a: calls.append(1) or level_weights(*a))
    thermal_observables(p)
    assert len(calls) == ceil(levels / exact.CHUNK_LEVELS) < lo.size


def test_exact_tier_reaches_n_1e5():
    p = ModelParams(n=100_000, v=1.0, gamma=1.0, b=0.5, T=0.1)
    m = exact_moments(p)
    m.check(p.n)
    assert np.isfinite(m.logZ)
    assert m.sz == pytest.approx(-p.b * p.n / (2 * p.gamma * p.v), rel=1e-3)


# ------------------------------------------------------------- pair state

def test_pair_state_aligned():
    # fully aligned M = -n/2: p- = 1, everything else 0, separable
    n = 12
    m = CollectiveMoments(sz=-6.0, sz2=36.0, s2=6.0 * 7.0)
    ps = pair_state(m, n)
    assert ps.p_minus == pytest.approx(1.0, abs=1e-12)
    assert ps.p_plus == pytest.approx(0.0, abs=1e-12)
    assert ps.p == pytest.approx(0.0, abs=1e-12)
    assert ps.alpha == pytest.approx(0.0, abs=1e-12)
    assert concurrence(ps).concurrence == 0.0


def test_pair_state_singlet():
    # n = 2 singlet: alpha = -1/2, p = 1/2, p+- = 0 (explicit density oracle)
    m = CollectiveMoments(sz=0.0, sz2=0.0, s2=0.0)
    ps = pair_state(m, 2)
    assert ps.alpha == pytest.approx(-0.5, abs=1e-15)
    assert ps.p == pytest.approx(0.5, abs=1e-15)
    assert ps.p_plus == pytest.approx(0.0, abs=1e-15)
    assert ps.p_minus == pytest.approx(0.0, abs=1e-15)


def test_pair_state_w_state_alpha():
    # sharp S = n/2, M = n/2 - 1 gives alpha = 1/n exactly
    for n in (4, 9, 30):
        half = n / 2
        m = CollectiveMoments(sz=half - 1, sz2=(half - 1) ** 2,
                              s2=half * (half + 1))
        assert pair_state(m, n).alpha == pytest.approx(1.0 / n, rel=1e-12)


def test_pair_state_psd_guard():
    bad = CollectiveMoments(sz=0.0, sz2=3.0, s2=1.0)   # alpha << -p
    with pytest.raises(InconsistentMomentsError):
        pair_state(bad, 4)


def test_pair_state_clips_populations_inside_the_tolerance():
    # aligned M = -n/2 with <S_z^2> low by 6e-12: p+ ~ -5e-13 passes the
    # PSD check at the default tol and is clipped to zero
    m = CollectiveMoments(sz=-2.0, sz2=4.0 - 6e-12, s2=6.0)
    common = (m.sz2 - 1.0) / 12.0 + 0.25
    assert -1e-12 < common + m.sz / 4.0 < 0.0
    ps = pair_state(m, 4)
    assert ps.p_plus == 0.0
    assert ps.p_minus == pytest.approx(1.0, abs=1e-12)


def test_concurrence_bounds_and_eof():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_params(rng)
        res = concurrence(exact_pair_state(p))
        assert 0.0 <= res.concurrence <= 2.0 / p.n + 1e-12
        assert res.eof >= 0.0
        assert (res.eof == 0.0) == (res.concurrence == 0.0)
    # EoF monotone in C
    cs = np.linspace(0, 1, 50)
    es = [eof_from_concurrence(c) for c in cs]
    assert all(b >= a - 1e-15 for a, b in zip(es, es[1:]))


def test_w_state_concurrence_is_two_over_n():
    for n in (4, 10, 21):
        half = n / 2
        m = CollectiveMoments(sz=half - 1, sz2=(half - 1) ** 2,
                              s2=half * (half + 1))
        res = concurrence(pair_state(m, n))
        assert res.concurrence == pytest.approx(2.0 / n, rel=1e-12)


def test_ground_sector_concurrence_near_inverse_n():
    # S = n/2, M = 0 sharp state: C = 1/(n-1) + O((n-1)^-2)
    for n in (10, 40, 200):
        half = n / 2
        m = CollectiveMoments(sz=0.0, sz2=0.0, s2=half * (half + 1))
        res = concurrence(pair_state(m, n))
        assert res.concurrence == pytest.approx(1.0 / (n - 1),
                                                abs=2.0 / (n - 1) ** 2)


# ---------------------------------------------------------------- T = 0 path

def test_ground_state_moments_b0_even_n():
    m = ground_state_moments(ModelParams(n=8, v=1.0, gamma=1.0, b=0.0))
    assert m.sz == pytest.approx(0.0)
    assert m.s2 == pytest.approx(4 * 5)


def test_ground_state_aligned_beyond_bc():
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=1.0)   # b > b_c = 0.95
    m = ground_state_moments(p)
    assert m.sz == pytest.approx(-10.0)
    assert m.sz2 == pytest.approx(100.0)
    res = concurrence(ground_state_pair_state(p))
    assert res.concurrence == 0.0


def test_crossing_field_fluctuation_and_dip():
    cf = crossing_fields(ModelParams(n=20, v=1.0, gamma=1.0))
    for b in [x for x in cf.fields if x > 0]:
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=b)
        m = ground_state_moments(p)
        assert m.sz2 - m.sz ** 2 == pytest.approx(0.25, abs=1e-10)
        res = concurrence(ground_state_pair_state(p))
        assert 20 * res.concurrence == pytest.approx(1.0, abs=1e-12)


def test_ground_levels_match_full_spectrum_scan():
    # reference: every (S, M) level of the collective spectrum within the
    # degeneracy tolerance of the global minimum, crossing fields included
    from xxzent.exact import _ground_levels
    from xxzent.model import spectrum_table
    rng = np.random.default_rng(5)
    for n in list(range(2, 17)) + [31]:
        for gamma in (1.0, 0.5, 0.0, -0.7):
            p0 = ModelParams(n=n, v=1.0, gamma=gamma)
            fields = list(rng.uniform(-1.5, 1.5, 3)) + \
                list(crossing_fields(p0).fields[-3:])
            for b in fields:
                p = p0.replace(b=float(b))
                rows = spectrum_table(p)
                emin = min(r.energy for r in rows)
                cut = emin + 1e-12 * max(1.0, abs(p.b))
                ref = sorted((round(2 * r.S), round(2 * r.M), r.multiplicity)
                             for r in rows if r.energy <= cut)
                assert sorted(_ground_levels(p)) == ref, p


def test_gamma_nonpositive_no_entanglement_at_t0():
    for gamma in (-0.5, 0.0):
        for b in (0.3, 1.0, 2.5):
            p = ModelParams(n=10, v=1.0, gamma=gamma, b=b)
            res = concurrence(ground_state_pair_state(p))
            assert res.concurrence == 0.0


# --------------------------------------------------------------- brute force

def test_brute_force_caps_n():
    with pytest.raises(DomainError):
        brute_force_moments(ModelParams(n=15, v=1.0, T=0.5))


def test_brute_force_pair_density_structure():
    # symmetry of H zeroes all elements outside the symmetric-pair pattern
    p = ModelParams(n=6, v=1.0, gamma=0.8, b=0.0, T=0.4)
    rho2 = brute_force_pair_density(p)
    pattern = np.array([
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ], dtype=bool)
    assert np.abs(rho2[~pattern]).max() < 1e-12
    assert rho2[1, 1] == pytest.approx(rho2[2, 2], abs=1e-12)
    assert np.trace(rho2) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_concurrence_routes_agree():
    # Wootters on the partial-trace rho2 vs the closed pair-state formula
    rng = np.random.default_rng(23)
    for _ in range(15):
        p = random_params(rng, n_max=7)
        c_wootters = wootters_concurrence(brute_force_pair_density(p))
        c_formula = concurrence(exact_pair_state(p)).concurrence
        assert c_wootters == pytest.approx(c_formula, abs=1e-10)


def _kron_thermal_reference(p):
    """ln Z, (<S_z>, <S_z^2>, <S^2>) and rho_2 of sites (0, 1) from the dense
    2^n collective Hamiltonian b S_z - V [S^2 - gamma S_z^2] + E0, built with
    np.kron from the 2x2 spin matrices (site 0 the leading factor, |0> = up)."""
    n = p.n
    spin = [np.array([[0, 0.5], [0.5, 0]]),
            np.array([[0, -0.5j], [0.5j, 0]]),
            np.array([[0.5, 0], [0, -0.5]])]

    def total(s):
        out = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for k in range(n):
            out += np.kron(np.kron(np.eye(2 ** k), s), np.eye(2 ** (n - k - 1)))
        return out

    Sx, Sy, Sz = (total(s) for s in spin)
    S2 = Sx @ Sx + Sy @ Sy + Sz @ Sz
    H = p.b * Sz - p.V * (S2 - p.gamma * Sz @ Sz) + p.E0 * np.eye(2 ** n)
    w, U = np.linalg.eigh(H)
    lw = -w / p.T
    weights = np.exp(lw - lw.max())
    logZ = lw.max() + log(weights.sum())
    rho = (U * (weights / weights.sum())) @ U.conj().T
    moments = [np.trace(rho @ A).real for A in (Sz, Sz @ Sz, S2)]
    rest = 2 ** (n - 2)
    rho2 = np.einsum("arbr->ab", rho.reshape(4, rest, 4, rest))
    assert np.abs(rho2.imag).max() < 1e-14
    return logZ, moments, rho2.real


def test_brute_force_matches_a_kron_reference():
    # an oracle-independent dense reference: every entry of rho_2, the zeros
    # outside the symmetric-pair pattern included, shows that assembling the
    # partial trace from the S_z blocks drops nothing
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for _ in range(3):
            p = ModelParams(n=n, v=1.0, gamma=float(rng.uniform(-1.0, 1.0)),
                            b=float(rng.uniform(-1.5, 1.5)),
                            T=float(rng.uniform(0.05, 2.0)))
            logZ, moments, rho2 = _kron_thermal_reference(p)
            bf, bf_rho2 = brute_force_observables(p)
            np.testing.assert_allclose([bf.logZ, bf.sz, bf.sz2, bf.s2],
                                       [logZ, *moments], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bf_rho2, rho2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, gamma, b, T", [(12, 1.0, 0.5, 0.1),
                                            (13, 0.6, -0.3, 0.15)])
def test_brute_force_matches_exact_beyond_n10(n, gamma, b, T):
    # criterion 1's tolerances past its n = 2..10 range, at entangled points
    p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
    ex, pair = thermal_observables(p)
    bf, rho2 = brute_force_observables(p)
    for a, b_ in ((ex.logZ, bf.logZ), (ex.sz, bf.sz), (ex.sz2, bf.sz2),
                  (ex.s2, bf.s2)):
        assert abs(a - b_) <= 1e-10 * max(abs(a), abs(b_)) + 1e-12
    c_exact = concurrence(pair).concurrence
    assert c_exact > 1e-3
    assert abs(c_exact - wootters_concurrence(rho2)) < 1e-10


@pytest.mark.parametrize("T", [0.02, 0.05])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("n", [4, 6, 9, 10])
def test_brute_force_concurrence_matches_exact_at_low_T(n, gamma, T):
    # at low T the small Wootters l are tiny; taken as square roots of the
    # eigenvalues of rho (y x y) rho* (y x y) they missed exact by up to 6e-9
    points = [ModelParams(n=n, v=1.0, gamma=gamma, b=float(b), T=T)
              for b in np.linspace(0.0, 2.0, 17)]
    for p, (_, rho2) in zip(points,
                            exact.brute_force_observables_batch(points)):
        c_exact = concurrence(thermal_observables(p)[1]).concurrence
        assert abs(wootters_concurrence(rho2) - c_exact) < 1e-12, p


def test_brute_force_batch_refuses_points_before_the_pass():
    points = [ModelParams(n=4, v=1.0, T=0.3), ModelParams(n=4, v=1.0, T=0.0)]
    ok, refused = exact.brute_force_observables_batch(points)
    assert ok[0] == brute_force_moments(points[0])
    assert isinstance(refused, DomainError)
    capped = exact.brute_force_observables_batch(
        [ModelParams(n=15, v=1.0, T=0.5)])
    assert isinstance(capped[0], DomainError)
    with pytest.raises(DomainError):
        exact.brute_force_observables_batch(points[:1] + [
            ModelParams(n=5, v=1.0, T=0.3)])


def test_wootters_margin_on_general_two_qubit_states():
    # Bell states: C = 1; Werner states: C = [(3 p - 1)/2]_+; random complex
    # full-rank states: the eigenvalues of rho (y x y) rho* (y x y), which
    # are well conditioned there
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    bell = np.array([0.0, 1.0, -1.0j, 0.0]) / sqrt(2.0)
    assert exact.wootters_margin(np.outer(bell, bell.conj())) == \
        pytest.approx(1.0, abs=1e-14)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)
    for p in (0.1, 0.3, 0.6, 0.95):
        werner = p * np.outer(singlet, singlet) + (1 - p) / 4 * np.eye(4)
        assert wootters_concurrence(werner) == pytest.approx(
            max((3 * p - 1) / 2, 0.0), abs=1e-14)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
        lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
        assert exact.wootters_margin(rho) == pytest.approx(
            lam[0] - lam[1] - lam[2] - lam[3], abs=1e-12)


def test_direct_pair_state_matches_moment_route():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng, n_max=10)
        moments, direct = thermal_observables(p)
        via_moments = pair_state(moments, p.n)
        assert direct.p_plus == pytest.approx(via_moments.p_plus, abs=1e-12)
        assert direct.p_minus == pytest.approx(via_moments.p_minus, abs=1e-12)
        assert direct.alpha == pytest.approx(via_moments.alpha, abs=1e-12)


# --------------------------------------------------------------- asymptotics

def test_far_field_limit_temperature_value():
    assert far_field_limit_temperature(20, 1.0, 1.0) == pytest.approx(
        2.0 / (20 * np.log(40 / 19)), rel=1e-14)
    assert far_field_limit_temperature(20, 1.0, 1.0) == pytest.approx(
        0.134, abs=5e-4)


def test_large_field_expansion_positive_at_low_T():
    res = large_field_expansion(ModelParams(n=20, v=1.0, gamma=1.0, b=2.0,
                                            T=0.02))
    assert res.status == "ok"
    assert res.concurrence > 0.0


def test_large_field_expansion_precondition():
    res = large_field_expansion(ModelParams(n=20, v=1.0, gamma=1.0, b=1.0,
                                            T=0.2))
    assert res.status == "not-applicable"


def test_large_field_expansion_tracks_exact():
    # deep in the aligned region the expansion should be a few-percent match
    for T in (0.05, 0.1):
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=2.0, T=T)
        approx = large_field_expansion(p).concurrence
        ex = concurrence(exact_pair_state(p)).concurrence
        assert approx == pytest.approx(ex, rel=0.1)


def test_zero_T_concurrence_approx_values():
    assert zero_T_concurrence_approx(17, 0.0) == pytest.approx(1.0 / 16)
    # n=20, m=1/4: 1/19 + (0.25/0.75)/361
    assert zero_T_concurrence_approx(20, 0.25) == pytest.approx(
        1 / 19 + (1 / 3) / 361, rel=1e-12)
    assert zero_T_concurrence_approx(20, 0.25) == pytest.approx(0.05356,
                                                                abs=5e-5)
    with pytest.raises(DomainError):
        zero_T_concurrence_approx(20, 0.46)


def test_zero_T_approx_matches_ground_state_chain():
    # mid-plateau ground state at M = -n/4 vs the stepwise expansion
    n = 40
    half = n / 2
    M = -n // 4
    m = CollectiveMoments(sz=float(M), sz2=float(M * M), s2=half * (half + 1))
    chain = concurrence(pair_state(m, n)).concurrence
    approx = zero_T_concurrence_approx(n, M / n)
    assert chain == pytest.approx(approx, abs=5.0 / (n - 1) ** 2)


def test_field_symmetry_of_concurrence():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_params(rng, n_max=12)
        cp = concurrence(exact_pair_state(p)).concurrence
        cm = concurrence(exact_pair_state(p.replace(b=-p.b))).concurrence
        assert cp == pytest.approx(cm, abs=1e-12)
