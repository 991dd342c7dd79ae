import tracemalloc
from math import comb, exp, fsum, log, sqrt

import numpy as np
import pytest

from xxzent import exact
from xxzent.errors import DomainError, InconsistentMomentsError
from xxzent.exact import (CollectiveMoments, brute_force_observables,
                          brute_force_pair_density, concurrence,
                          eof_from_concurrence, exact_moments,
                          ground_state_moments, ground_state_pair_state,
                          pair_state, thermal_observables)
from xxzent.model import (ModelParams, crossing_fields, log_multiplicity,
                          two_s_range)

from oracles.closed_forms import (far_field_limit_temperature,
                                  large_field_expansion, log_multiplicities,
                                  spectrum_table, zero_T_concurrence_approx)
from oracles.pair_sectors import sector_rows


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
        b = brute_force_observables(p)[0]
        for x, y in ((a.logZ, b.logZ), (a.sz, b.sz), (a.sz2, b.sz2),
                     (a.s2, b.s2)):
            assert x == pytest.approx(y, rel=1e-11, abs=1e-12)


def test_derivative_identities_against_finite_differences():
    # <S_z> = -T dlnZ/db ; Var(S_z) = T^2 d2lnZ/db2 = -T d<S_z>/db ;
    # <S^2> = n T dlnZ/dv + gamma <S_z^2> + n(3-gamma)/4 ;
    # and with E0 kept, <S_z^2> = n/4 - (n T / v) dlnZ/dgamma.
    # Var(S_z) is checked against the first difference of <S_z>: a second
    # difference of ln Z at this h carries ~4 eps |ln Z| T^2 / h^2 ~ 1e-4 of
    # rounding, the size of any bound it could be held to
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = ModelParams(n=int(rng.integers(2, 30)), v=1.0,
                        gamma=float(rng.uniform(0.0, 0.95)),
                        b=float(rng.uniform(-1.2, 1.2)),
                        T=float(rng.uniform(0.1, 2.0)))
        m = exact_moments(p)
        h = 1e-5 * max(1.0, abs(p.b))
        up = exact_moments(p.replace(b=p.b + h))
        down = exact_moments(p.replace(b=p.b - h))
        dz_db = (up.logZ - down.logZ) / (2 * h)
        dsz_db = (up.sz - down.sz) / (2 * h)
        hv = 1e-5
        dz_dv = (exact_moments(p.replace(v=1.0 + hv)).logZ
                 - exact_moments(p.replace(v=1.0 - hv)).logZ) / (2 * hv)
        hg = 1e-5
        dz_dg = (exact_moments(p.replace(gamma=p.gamma + hg)).logZ
                 - exact_moments(p.replace(gamma=p.gamma - hg)).logZ) / (2 * hg)
        assert m.sz == pytest.approx(-p.T * dz_db, abs=1e-6)
        assert m.sz2 - m.sz ** 2 == pytest.approx(-p.T * dsz_db, abs=1e-8)
        assert m.s2 == pytest.approx(
            p.n * p.T * dz_dv + p.gamma * m.sz2 + p.n * (3 - p.gamma) / 4,
            abs=1e-5 * p.n)
        assert m.sz2 == pytest.approx(
            p.n / 4 - (p.n * p.T / p.v) * dz_dg, abs=1e-5 * p.n)


def _level_values(n, S, M):
    """A level's values in the seven spectral sums, in the order
    Z, M, M^2, S(S+1), p+ n(n-1), p- n(n-1), alpha n(n-1)."""
    half = n / 2
    return (1.0, M, M * M, S * (S + 1), (M + half) * (M + half - 1),
            (half - M) * (half - M - 1), S * (S + 1) - M * M - half)


def _reference_sums(n, rows):
    """Seven spectral sums from (S, M, weight) rows."""
    cols = ([], [], [], [], [], [], [])
    for S, M, w in rows:
        for col, x in zip(cols, _level_values(n, S, M)):
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


def _assert_matches_full_sum(p):
    # reference: the plain sum over all ~n^2/4 levels, sector by sector
    half, V = p.n / 2, p.V
    sectors = []
    for two_S in two_s_range(p.n):
        S = two_S / 2
        M = np.arange(-two_S, two_S + 1, 2) / 2
        E = p.b * M - V * (S * (S + 1) - p.gamma * M * M) + p.E0
        sectors.append((S, M, log_multiplicity(p.n, two_S) - E / p.T))
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


@pytest.mark.parametrize("T", [0.01, 0.1, 0.6])
def test_windowed_sum_matches_full_sum_large_n(T):
    _assert_matches_full_sum(ModelParams(n=8810, v=1.0, gamma=1.0, b=0.5, T=T))


@pytest.mark.parametrize("T", [0.01, 0.1, 0.6])
def test_windowed_sum_matches_full_sum_odd_n(T):
    # odd n has no M = 0 column; gamma < 0 puts the weight at the ends
    # M = +-S of each sector, and b = 3 puts p+ deep in the far field
    _assert_matches_full_sum(ModelParams(n=2001, v=1.0, gamma=-0.5, b=3.0, T=T))


def _window(p):
    """One point's bracket as the tier computes it in a run of one: its
    first sector L, its sector constants c over L.., its live sector
    indices (into two_s_range(n)) and its peak."""
    sectors = exact._live_sectors([p])
    live = sectors.L + np.flatnonzero(sectors.live[0])
    return sectors.L, sectors.c[0], live, float(sectors.peak[0])


def _kept_columns(p):
    """One point's kept columns as the tier contracts them with their
    weights: (M, ssp1, excess, w)."""
    return exact._columns(p.n, exact._live_sectors([p]))[:4]


def test_column_sums_match_per_column_fsum():
    # each column M carries the seven sums over its levels S >= |M| of the
    # live-sector hull; the reference takes every level with math.fsum, and
    # both sides are normalized by their total Z
    rng = np.random.default_rng(12)
    cases = [(2, 1.0, 0.0, 1.0), (3, 0.0, 0.5, 0.5), (16, -0.5, 1.0, 0.3),
             (15, -2.0, -1.0, 2.0)]
    cases += [(int(rng.integers(2, 17)),
               float(rng.choice([1.0, 0.5, 0.0, -0.5, rng.uniform(-2.0, 1.0)])),
               float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.3, 3.0)))
              for _ in range(100)]
    assert {n % 2 for n, *_ in cases} == {0, 1}
    assert any(gamma < 0 for _, gamma, *_ in cases)
    for n, gamma, b, T in cases:
        p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
        M, ssp1, excess, w = _kept_columns(p)
        L, c, live, _ = _window(p)
        S = L + np.arange(c.size) + (n % 2) / 2
        hull = np.arange(live[0], live[-1] + 1) - L
        top = c[hull].max()
        got, ref = [], []
        for m, q3, q6, wm in zip(M, ssp1, excess, w):
            # the column's levels S >= |m| with weight e^(c_S - top + f(m))
            levels = [(_level_values(n, S[k], m),
                       exp(c[k] - top - p.beta * (b * m + p.V * gamma * m * m)))
                      for k in hull if S[k] >= abs(m)]
            ref.append([(fsum(v[i] * x for v, x in levels),
                         fsum(abs(v[i]) * x for v, x in levels)) for i in range(7)])
            # the code's column: weight w times its per-column factors, with
            # the folded S(S+1) and alpha rows passed as they are
            v = _level_values(n, 0.0, m)
            got.append([wm * x for x in v[:3] + (q3,) + v[4:6] + (q6,)])
        Zg, Zr = fsum(g[0] for g in got), fsum(r[0][0] for r in ref)
        for g_col, r_col in zip(got, ref):
            for x, (y, scale) in zip(g_col, r_col):
                assert abs(x / Zg - y / Zr) <= 1e-14 * scale / Zr, p


def test_windowed_sum_work_is_a_few_sectors():
    # the work per point is one suffix sum over the hull of the live
    # sectors and one over the columns M = +-s of the sector grid, each at
    # most n/2 + 1 long; the full sum has ~n^2/4 levels
    # (n, b, T): sectors accumulated, columns summed; the level-by-level
    # sum of earlier versions summed 286,675 levels at (8810, 0.5, 0.6) and
    # 103,250 at (1000, 0.3, 0.4125), and ~10^4 at (8810, 0.0, 0.1)
    for (n, b, T), work in {(8810, 0.5, 0.6): (1080, 1076),
                            (1000, 0.3, 0.4125): (470, 349),
                            (8810, 0.0, 0.1): (25, 525)}.items():
        p = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=T)
        live = _window(p)[2]
        M = _kept_columns(p)[0]
        assert (live[-1] - live[0] + 1, M.size) == work, p
        assert max(work) <= n // 2 + 1


# References for the live sectors. The first takes each sector's largest
# level over every M = -S..S, one sector at a time, with the tier's own
# column expression f(M) = -beta (b M + V gamma M^2); the second is the
# closed-form rule: f at the ends of each sector and, for gamma > 0, at the
# lattice points around the vertex of f.

def _live_set(n, sector_max):
    peak = max(sector_max)
    cut = peak - exact.CUT_NATS - 2.0 * log(n + 1.0)
    return peak, [k for k, x in enumerate(sector_max) if x >= cut]


def _scalar_live_sectors(p):
    n, beta = p.n, p.beta
    c, sector_max = [], []
    for two_S in two_s_range(n):
        S = two_S / 2.0
        cs = log_multiplicity(n, two_S) + beta * (p.V * S * (S + 1.0) - p.E0)
        M = np.arange(-two_S, two_S + 1, 2) / 2.0
        c.append(cs)
        sector_max.append(float(np.max(
            cs - beta * (p.b * M + p.V * p.gamma * M * M))))
    peak, live = _live_set(n, sector_max)
    return peak, c, live


def _closed_form_live_sectors(p):
    # the full scan: ln Y(S) of every sector from the oracle's table
    n, beta = p.n, p.beta
    a, b = p.V * p.gamma, p.b
    two_S = np.arange(n % 2, n + 1, 2)
    S = two_S / 2.0
    cands = [-two_S, two_S]
    if a > 0:
        vertex = np.clip(-b / a, -two_S, two_S)        # 2 M* = -b / (V gamma)
        below = two_S - 2.0 * np.ceil((two_S - vertex) / 2.0)
        cands += [below, np.minimum(below + 2.0, two_S)]
    c = log_multiplicities(n) + beta * (p.V * S * (S + 1.0) - p.E0)
    f = [-beta * (b * M + p.V * p.gamma * M * M) for M in np.divide(cands, 2.0)]
    peak, live = _live_set(n, (c + np.max(f, axis=0)).tolist())
    return peak, c, live


def _window_cases():
    rng = np.random.default_rng(8)
    # edge cases first: gamma = 0 with b = 0 and b != 0, gamma < 0 (the
    # ends of each sector), odd and even n
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
    # the sector maxima of the bracket, one prefix max over the columns: the
    # same peak, sector constants c_S and live sectors as the per-sector
    # maximum over every level of every sector, and as the closed-form
    # rule; RuntimeWarnings are errors under the test settings
    for n, gamma, b, T in _window_cases():
        p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
        L, c, live, peak = _window(p)
        ref_peak, ref_c, ref_live = _scalar_live_sectors(p)
        assert peak == ref_peak, p
        assert c.tolist() == ref_c[L:L + c.size], p
        assert live.tolist() == ref_live, p
        cf_peak, cf_c, cf_live = _closed_form_live_sectors(p)
        assert peak == cf_peak, p
        assert c.tolist() == cf_c[L:L + c.size].tolist(), p
        assert live.tolist() == cf_live, p


def test_bracket_matches_closed_form_rule_on_840_points(monkeypatch):
    # 840 points: n x 4 gamma in [-1, 1] x 5 b x 7 T in [1e-3, 2]; the
    # bracket's first and last live sector and its peak are the full
    # scan's, and its ends are certified without growing: ln Y is mapped
    # once, over a bracket that overshoots the hull by a few sectors
    calls, spans = [], []
    real = exact.log_multiplicity_span
    monkeypatch.setattr(exact, "log_multiplicity_span",
                        lambda *args: calls.append(args) or real(*args))
    for n in (7, 20, 101, 1000, 8810, 100_001):
        for gamma in (-1.0, 0.0, 0.5, 1.0):
            for b in (0.0, 0.3, 0.9, -1.15, 3.0):
                for T in (1e-3, 0.01, 0.05, 0.1, 0.4, 1.0, 2.0):
                    p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
                    calls.clear()
                    L, c, live, peak = _window(p)
                    cf_peak, _, cf_live = _closed_form_live_sectors(p)
                    assert (live[0], live[-1]) == (cf_live[0], cf_live[-1]), p
                    assert peak == cf_peak, p
                    assert len(calls) == 1, p
                    spans.append(c.size - (live[-1] - live[0] + 1))
    assert len(spans) == 840
    assert max(spans) <= 72 and sorted(spans)[420] <= 4


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
        res = concurrence(thermal_observables(p)[1])
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
                assert [(n, int(m), 1) for m in _ground_levels(p)] == ref, p


def test_gamma_nonpositive_no_entanglement_at_t0():
    for gamma in (-0.5, 0.0):
        for b in (0.3, 1.0, 2.5):
            p = ModelParams(n=10, v=1.0, gamma=gamma, b=b)
            res = concurrence(ground_state_pair_state(p))
            assert res.concurrence == 0.0


# --------------------------------------------------------------- brute force

def test_brute_force_caps_n():
    # the cap bounds the 2^n-state table, not an S_z block
    with pytest.raises(DomainError, match=r"capped at n = 14: it tabulates "
                       r"all 2\^n = 32768 basis states"):
        brute_force_observables(ModelParams(n=15, v=1.0, T=0.5))


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
        c_wootters = max(exact.wootters_margin(brute_force_pair_density(p)),
                         0.0)
        c_formula = concurrence(thermal_observables(p)[1]).concurrence
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
    # partial trace from the S_z blocks drops nothing; n = 7 and 8 put many
    # states in the blocks the spin flip derives, at both parities
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(3):
            p = ModelParams(n=n, v=1.0, gamma=float(rng.uniform(-1.0, 1.0)),
                            b=float(rng.uniform(-1.5, 1.5)),
                            T=float(rng.uniform(0.05, 2.0)))
            logZ, moments, rho2 = _kron_thermal_reference(p)
            bf, bf_rho2 = brute_force_observables(p)
            np.testing.assert_allclose([bf.logZ, bf.sz, bf.sz2, bf.s2],
                                       [logZ, *moments], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bf_rho2, rho2, rtol=0, atol=1e-12)


def _block_reference(p):
    """ln Z, (<S_z>, <S_z^2>, <S^2>) and rho_2 of sites (0, 1) from one dense
    eigh of the flip-flop sum F per whole S_z block, F built from its
    flips (bit k set: site k down); H = b S_z - V [F + (1 - gamma) zz]."""
    n = p.n
    idx = np.arange(2 ** n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    q, pos = 2 * bits[:, 0] + bits[:, 1], np.empty_like(idx)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    E, rows = [], []
    for k in range(n + 1):
        states = np.flatnonzero(bits.sum(axis=1) == k)
        pos[states] = np.arange(states.size)
        src, ij = np.nonzero(bits[states][:, i] != bits[states][:, j])
        F = np.zeros((states.size, states.size))
        np.add.at(F, (pos[states[src] ^ (1 << i[ij]) ^ (1 << j[ij])], src), 0.5)
        f, U = np.linalg.eigh(F)
        sz = n / 2.0 - k
        E.append(p.b * sz - p.V * (f + (1.0 - p.gamma) * (sz * sz - n / 4.0)))
        swap = states[q[states] == 1]
        rows.append([np.full_like(f, sz), np.full_like(f, sz * sz),
                     f + sz * sz + n / 2.0,
                     *((U[q[states] == c] ** 2).sum(axis=0) for c in range(4)),
                     np.einsum("ia,ia->a", U[pos[swap]], U[pos[swap ^ 3]])])
    lw = -np.concatenate(E) / p.T
    w = np.exp(lw - lw.max())
    sz, sz2, s2, *pops, coh = np.concatenate(rows, axis=1) @ (w / w.sum())
    rho2 = np.diag(pops)
    rho2[1, 2] = rho2[2, 1] = coh
    return lw.max() + log(w.sum()), [sz, sz2, s2], rho2


def test_brute_force_matches_a_block_reference():
    # the pair-swap sectors against one dense eigh per whole S_z block: the
    # sectors drop no state and mix no two, at both parities of n
    rng = np.random.default_rng(19)
    for n in range(2, 13):
        for _ in range(2):
            p = ModelParams(n=n, v=1.0, gamma=float(rng.uniform(-1.0, 1.0)),
                            b=float(rng.uniform(-1.5, 1.5)),
                            T=float(rng.uniform(0.05, 2.0)))
            logZ, moments, rho2 = _block_reference(p)
            bf, bf_rho2 = brute_force_observables(p)
            np.testing.assert_allclose([bf.logZ, bf.sz, bf.sz2, bf.s2],
                                       [logZ, *moments], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bf_rho2, rho2, rtol=0, atol=1e-12)


def test_spin_flip_maps_block_k_onto_block_n_minus_k():
    # the oracle builds only the blocks with k <= n // 2 and takes block
    # n - k from block k; a direct sector build of block n - k must give the
    # same eigenvalues, column for column, S_z and sum_{i != j} s^z_i s^z_j,
    # and the same rows summed over each eigenspace (F's eigenvalues are
    # multiples of 1/4), whatever basis eigh picks inside one; a block's
    # columns are those of its canonical sectors, found by their S_z
    for n in range(2, 10):
        ones = np.array([bin(s).count("1") for s in range(2 ** n)])
        table = exact._flip_flop_rows(n)
        for k in range(n // 2 + 1, n + 1):
            derived = table[:, table[1] == n / 2.0 - k]
            direct = exact._block_rows(n, k, ones)
            assert derived.shape == direct.shape, (n, k)
            np.testing.assert_allclose(derived[0], direct[0], atol=1e-12)
            assert np.array_equal(derived[1:3], direct[1:3]), (n, k)
            assert set(direct[1]) == {n / 2.0 - k}, (n, k)
            for rows in (derived, direct):
                groups = np.rint(4.0 * rows[0])
                assert np.abs(4.0 * rows[0] - groups).max() < 1e-12
            keys, where = np.unique(np.rint(4.0 * direct[0]),
                                    return_inverse=True)
            for g in range(keys.size):
                np.testing.assert_allclose(
                    derived[3:, np.rint(4.0 * derived[0]) == keys[g]].sum(1),
                    direct[3:, where == g].sum(1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, gamma, b, T", [(12, 1.0, 0.5, 0.1),
                                            (13, 0.6, -0.3, 0.15),
                                            (14, 1.0, 0.5, 0.1)])
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
    assert abs(c_exact - max(exact.wootters_margin(rho2), 0.0)) < 1e-10


def test_brute_force_table_at_n14_stays_small(monkeypatch):
    # the largest sector at n = 14 is 393 x 393, against the 3432 x 3432
    # middle S_z block: tracemalloc sees a peak of about 7 MB
    calls = _count_eigh(monkeypatch)
    tracemalloc.start()
    try:
        exact._flip_flop_rows(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert max(calls) == (393, 393)


def _pair0_sums(rows):
    """The rho_2 rows (populations and coherence) summed over each
    eigenspace of F, keyed by 4 f (F's eigenvalues are multiples of 1/4),
    whatever basis eigh picks inside one."""
    keys = np.rint(4.0 * rows[0])
    assert np.abs(4.0 * rows[0] - keys).max() < 1e-12
    return {key: rows[4:9, keys == key].sum(axis=1)
            for key in np.unique(keys)}


@pytest.mark.parametrize("n", range(2, 11))
def test_every_sector_of_a_class_matches_its_canonical_sector(n):
    # a permutation of the pairs that fixes pair (0, 1) maps sector sigma
    # onto pi(sigma), so each class (|sigma|, pair 0 odd or not) has
    # C(P - 1, |sigma| - 1) or C(P - 1, |sigma|) sectors with one spectrum
    # and one rho_2 of sites (0, 1). Every sector of the all-sector
    # reference must match the class's canonical columns, which the tier
    # builds in the order |sigma|, then pair 0 odd before even
    ones = np.array([bin(s).count("1") for s in range(2 ** n)])
    for k in range(n + 1):
        ref, sigma = sector_rows(n, k)
        built = exact._block_rows(n, k, ones)
        assert np.array_equal(built[1:3], ref[1:3, :built.shape[1]])
        odd = sigma & 1
        start = 0
        for js, o in sorted({(ones[s], o) for s, o in zip(sigma, odd)},
                            key=lambda c: (c[0], -c[1])):
            members = np.unique(sigma[(ones[sigma] == js) & (odd == o)])
            mult = comb(n // 2 - 1, int(js) - int(o))
            assert members.size == mult, (n, k, js, o)
            m = int((sigma == members[0]).sum())
            canonical = built[:, start:start + m]
            start += m
            assert np.all(canonical[9] == mult), (n, k, js, o)
            sums = _pair0_sums(canonical)
            for s in members:
                cols = ref[:, sigma == s]
                np.testing.assert_allclose(np.sort(cols[0]),
                                           np.sort(canonical[0]),
                                           rtol=0, atol=1e-12)
                got = _pair0_sums(cols)
                assert got.keys() == sums.keys(), (n, k, s)
                for key in got:
                    np.testing.assert_allclose(got[key], sums[key],
                                               rtol=0, atol=1e-12)
        assert start == built.shape[1], (n, k)


def test_multiplicities_count_every_state():
    # the class sizes of an S_z block add up to its C(n, k) states, and the
    # whole table's to 2^n
    for n in range(2, 15):
        table = exact._flip_flop_rows(n)
        assert table[9].sum() == 2 ** n
        for k in range(n + 1):
            assert table[9, table[1] == n / 2.0 - k].sum() == comb(n, k)


def _count_eigh(monkeypatch):
    """The shapes np.linalg.eigh is called on, in call order."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(a.shape)
                        or eigh(a, *args, **kw))
    return calls


@pytest.mark.parametrize("n, matrices, columns, every_sector",
                         [(10, 35, 484, 112), (11, 35, 968, 112),
                          (14, 63, 4372, 576)])
def test_brute_force_table_diagonalizes_one_sector_per_class(
        monkeypatch, n, matrices, columns, every_sector):
    # one canonical sector per class against every sector of the blocks
    # with k <= n // 2, and a column per class eigenvector against one per
    # basis state; each eigh takes one sector matrix, where the reference
    # stacks the equal sectors of one |sigma|
    calls = _count_eigh(monkeypatch)
    table = exact._flip_flop_rows(n)
    assert len(calls) == matrices
    assert all(len(shape) == 2 for shape in calls)
    assert table.shape == (10, columns)
    calls.clear()
    for k in range(n // 2 + 1):
        sector_rows(n, k)
    assert sum(shape[0] for shape in calls) == every_sector


@pytest.mark.parametrize("db, T", [(0.0, 1e-4), (1e-4, 1e-4), (-3e-3, 1e-3)])
def test_brute_force_matches_exact_near_a_crossing_at_n14(db, T):
    # at and next to the crossing field b_M, M = -3 (b = 1/2), where exact
    # keeps two columns: the equal mixture at the field, the thermal two
    # levels beside it; criterion 1's tolerances
    p = ModelParams(n=14, v=1.0, gamma=1.0, b=0.5 + db, T=T)
    ex, pair = thermal_observables(p)
    bf, rho2 = brute_force_observables(p)
    for a, b_ in ((ex.logZ, bf.logZ), (ex.sz, bf.sz), (ex.sz2, bf.sz2),
                  (ex.s2, bf.s2)):
        assert abs(a - b_) <= 1e-10 * max(abs(a), abs(b_)) + 1e-12
    assert abs(concurrence(pair).concurrence
               - max(exact.wootters_margin(rho2), 0.0)) < 1e-10


@pytest.mark.parametrize("T", [0.02, 0.05])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("n", [4, 6, 9, 10])
def test_brute_force_concurrence_matches_exact_at_low_T(n, gamma, T):
    # at low T the small Wootters l are tiny; taken as square roots of the
    # eigenvalues of rho (y x y) rho* (y x y) they missed exact by up to 6e-9
    for b in np.linspace(0.0, 2.0, 17):
        p = ModelParams(n=n, v=1.0, gamma=gamma, b=float(b), T=T)
        _, rho2 = brute_force_observables(p)
        c_exact = concurrence(thermal_observables(p)[1]).concurrence
        c_wootters = max(exact.wootters_margin(rho2), 0.0)
        assert abs(c_wootters - c_exact) < 1e-12, p


def test_brute_force_refuses_points_before_any_eigh(monkeypatch):
    # T <= 0 and n past the cap are refused before a block is built
    calls = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda *a, **k: calls.append(1) or None)
    for p in (ModelParams(n=4, v=1.0, T=0.0), ModelParams(n=15, v=1.0, T=0.5)):
        with pytest.raises(DomainError):
            brute_force_observables(p)
    assert calls == []


def test_per_n_tables_are_read_only():
    # the memoized eigen-rows are shared by every later point at their n
    p = ModelParams(n=6, v=1.0, b=0.3, T=0.2)
    ref = brute_force_observables(p)
    table = exact._flip_flop_rows(p.n)
    with pytest.raises(ValueError):
        table[0] = 0.0
    with pytest.raises(ValueError):
        table.flat[-1] *= 2.0
    again = brute_force_observables(p)
    assert again[0] == ref[0] and np.array_equal(again[1], ref[1])


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
        assert max(exact.wootters_margin(werner), 0.0) == pytest.approx(
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
    assert res is not None
    assert res.concurrence > 0.0


def test_large_field_expansion_precondition():
    res = large_field_expansion(ModelParams(n=20, v=1.0, gamma=1.0, b=1.0,
                                            T=0.2))
    assert res is None


def test_large_field_expansion_tracks_exact():
    # deep in the aligned region the expansion should be a few-percent match
    for T in (0.05, 0.1):
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=2.0, T=T)
        approx = large_field_expansion(p).concurrence
        ex = concurrence(thermal_observables(p)[1]).concurrence
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
        cp = concurrence(thermal_observables(p)[1]).concurrence
        cm = concurrence(thermal_observables(p.replace(b=-p.b))[1]).concurrence
        assert cp == pytest.approx(cm, abs=1e-12)
