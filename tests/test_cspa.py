import itertools
from math import atan, ceil, exp, inf, log, log2, pi, sin, sqrt, tanh

import numpy as np
import pytest

from xxzent.cspa import (breakdown_temperature, cspa_logZ, cspa_moments,
                         omega_squared)
from xxzent.errors import (BreakdownError, DomainError,
                           InconsistentMomentsError, QuadratureError)
from xxzent.exact import (concurrence, exact_moments, pair_state,
                          thermal_observables)
from xxzent.model import ModelParams
from xxzent.quadrature import bracket_root, bracket_roots, quad_gk

from oracles.closed_forms import rpa_frequency


# ----------------------------------------------------------------- quadrature

def test_quad_gk_against_scipy():
    from scipy.integrate import quad as scipy_quad
    cases = [
        (lambda x: np.exp(-x * x), 0.0, 8.0),
        (lambda x: np.sin(40 * x) * np.exp(-x), 0.0, 5.0),
    ]
    for f, a, b in cases:
        mine = quad_gk(lambda row, x: f(x)[None], [[a, b]], epsrel=1e-12)
        ref, _ = scipy_quad(lambda t: float(f(np.array([t]))[0]), a, b,
                            epsabs=1e-14, epsrel=1e-14, limit=300)
        assert mine.value[0, 0] == pytest.approx(ref, rel=1e-11)
    # closed form: a 1e-14 quad of this one hits its roundoff floor
    mine = quad_gk(lambda row, x: (1.0 / (1.0 + x * x))[None], [[-4.0, 4.0]],
                   epsrel=1e-12)
    assert mine.value[0, 0] == pytest.approx(2.0 * atan(4.0), rel=1e-11)


def test_quad_gk_narrow_spike_with_seeds():
    f = lambda row, x: np.exp(-1e6 * (x - 0.3123) ** 2)[None]
    res = quad_gk(f, [[0.0, 0.3123, 0.3135, 1.0]], epsrel=1e-11)
    assert res.value[0, 0] == pytest.approx(sqrt(pi / 1e6), rel=1e-10)


def test_quad_gk_rows_are_integrated_independently():
    # rows with different integrands, layouts and numbers of refinement
    # rounds, two panels of zero width among them: each row's value and
    # error are, bit for bit, those of the row integrated alone
    centres = np.array([0.1, 0.45, 0.5, 0.3])
    widths = np.array([1e-3, 3e-2, 8e-2, 1e-2])

    def f(row, x):
        y = np.exp(-((x - centres[row, None]) / widths[row, None]) ** 2)
        return np.stack([y, x * y])

    edges = np.array([[0.0, 0.1, 0.1, 0.5, 1.0],
                      [0.0, 0.25, 0.5, 0.75, 1.0],
                      [0.0, 0.0, 0.3, 0.6, 1.0],
                      [0.0, 0.2, 0.4, 0.8, 1.0]])
    res = quad_gk(f, edges, epsrel=1e-12)
    assert res.value.shape == (2, 4) and res.error.shape == (4,)
    alone = [quad_gk(lambda row, x, i=i: f(np.full_like(row, i), x),
                     edges[i:i + 1], epsrel=1e-12) for i in range(4)]
    assert len({a.neval for a in alone}) > 1       # the rows refine unequally
    assert res.neval == sum(a.neval for a in alone)
    for i, a in enumerate(alone):
        assert a.value.shape == (2, 1)
        assert (res.value[0, i] == a.value[0, 0]
                and res.value[1, i] == a.value[1, 0])
        assert res.error[i] == a.error[0]
        assert a.value[0, 0] == pytest.approx(sqrt(pi) * widths[i], rel=1e-12)


def test_quad_gk_panel_budget_exit():
    # 1/sqrt(x) is singular at 0: each halving of the panel there gains a
    # factor sqrt(2) only, so 40 panels cannot reach 1e-12
    f = lambda row, x: (1.0 / np.sqrt(x))[None]
    with pytest.raises(QuadratureError, match="no convergence after 40"):
        quad_gk(f, [[0.0, 1.0]], epsrel=1e-12, max_panels=40)
    assert quad_gk(f, [[0.0, 1.0]], epsrel=1e-6,
                   max_panels=40).value[0, 0] == pytest.approx(2.0, rel=1e-6)


def test_quad_gk_float_resolution_exit():
    # a panel one ulp wide cannot be halved: its nodes round to its ends,
    # so a step there leaves an error that no split can remove, in a row
    # that misses its budget
    lo = 1.0
    hi = float(np.nextafter(lo, 2.0))
    step = lambda row, x: np.where(x >= lo, 1.0, 0.0)[None]
    with pytest.raises(QuadratureError, match="float resolution"):
        quad_gk(step, [[lo, hi]], epsrel=1e-10)
    # next to a wide panel that converges, the same row fails as a whole
    with pytest.raises(QuadratureError, match="float resolution"):
        quad_gk(step, [[0.0, lo, hi]], epsrel=1e-10)


def test_quad_gk_non_finite_sum_raises():
    # a NaN row has a NaN error, which is never above its budget: it used
    # to be returned as converged
    def nan_row(row, x):
        return np.where(row[:, None] == 1, np.nan, np.cos(x))[None]

    edges = [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]
    with pytest.raises(QuadratureError, match="non-finite"):
        quad_gk(nan_row, edges)
    # a non-finite stacked component raises too, though component 0, which
    # steers the refinement, is finite
    def stacked(row, x):
        return np.stack([np.cos(x), np.where(x > 0.9, np.inf, x)])

    with pytest.raises(QuadratureError, match="non-finite"):
        quad_gk(stacked, edges)
    # the same components, finite, integrate
    res = quad_gk(lambda row, x: np.stack([np.cos(x), x]), edges)
    np.testing.assert_allclose(res.value, [[np.sin(1.0)] * 2, [0.5] * 2])


def _bisect(moves_lo, lo, hi, tol):
    """The halving loop that bracket_root replaced, as the reference."""
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if moves_lo(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _counted(g):
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)
    return wrapped, calls


def test_bracket_root_side_only_is_bisection():
    rng = np.random.default_rng(7)
    for _ in range(400):
        lo = float(rng.uniform(-10.0, 10.0))
        hi = lo + float(10.0 ** rng.uniform(-8.0, 2.0))
        root = float(rng.uniform(lo, hi))
        tol = (hi - lo) * float(10.0 ** rng.uniform(-18.0, 0.5))
        up = bool(rng.integers(2))        # g > 0 on the lo side, or the hi
        g = (lambda x: (inf if x < root else -inf) if up
             else (-inf if x < root else inf))
        mine = bracket_root(g, lo, g(lo), hi, g(hi), tol)
        ref = _bisect(lambda x: x < root, lo, hi, tol)
        assert type(mine) is float
        assert mine.hex() == ref.hex(), (lo, hi, root, tol)


SMOOTH = [
    (lambda x: tanh(3.0 * (x - 0.37)), 0.0, 1.0, 0.37),
    (lambda x: exp(x) - 2.0, 0.0, 2.0, log(2.0)),
    (lambda x: x ** 3 - 0.3, 0.0, 1.0, 0.3 ** (1.0 / 3.0)),
    (lambda x: 0.2 - sqrt(x), 0.01, 0.5, 0.04),
    # the flag edge of a margin that is noisy at the 1e-14 level
    (lambda x: 1e-3 * (0.4 - x) + 1e-14 * sin(1e7 * x) - 1e-14,
     0.3, 0.5, 0.4),
]


@pytest.mark.parametrize("g, lo, hi, root", SMOOTH)
def test_bracket_root_smooth_within_tol_and_few_steps(g, lo, hi, root):
    for ratio in (2.0 ** 15, 1e3, 123456.7):
        tol = (hi - lo) / ratio
        f, calls = _counted(g)
        x = bracket_root(f, lo, g(lo), hi, g(hi), tol)
        assert abs(x - root) <= 0.5 * tol + 1e-11
        assert len(calls) <= ceil(log2(ratio)) + 1
        if ratio == 2.0 ** 15:
            assert len(calls) <= 8, len(calls)


def test_bracket_root_infinite_values_still_converge():
    root, tol = 0.55, 1e-9

    def g(x):
        # side only below 0.2 and on a patch holding the first midpoint
        if x < 0.2:
            return inf
        if 0.45 <= x < 0.52:
            return inf
        return root - x
    for lo, g_lo, hi, g_hi in ((0.0, inf, 1.0, g(1.0)),
                               (0.3, g(0.3), 1.0, -inf),
                               (0.0, inf, 1.0, -inf)):
        f, calls = _counted(g)
        x = bracket_root(f, lo, g_lo, hi, g_hi, tol)
        assert abs(x - root) <= 0.5 * tol
        assert len(calls) <= ceil(log2((hi - lo) / tol)) + 1


def _side_only(root, up):
    return ((lambda x: inf if x < root else -inf) if up
            else (lambda x: -inf if x < root else inf))


def _never(x):
    raise AssertionError(f"evaluated at {x!r}")


def _bracket_cases():
    """(g, lo, g_lo, hi, g_hi, tol) of every case of the three bracket_root
    tests above, then brackets narrower than their tol."""
    cases = []
    rng = np.random.default_rng(7)
    for _ in range(400):
        lo = float(rng.uniform(-10.0, 10.0))
        hi = lo + float(10.0 ** rng.uniform(-8.0, 2.0))
        root = float(rng.uniform(lo, hi))
        tol = (hi - lo) * float(10.0 ** rng.uniform(-18.0, 0.5))
        g = _side_only(root, bool(rng.integers(2)))
        cases.append((g, lo, g(lo), hi, g(hi), tol))
    for g, lo, hi, _ in SMOOTH:
        for ratio in (2.0 ** 15, 1e3, 123456.7):
            cases.append((g, lo, g(lo), hi, g(hi), (hi - lo) / ratio))

    def patchy(x):
        if x < 0.2 or 0.45 <= x < 0.52:
            return inf
        return 0.55 - x
    cases += [(patchy, 0.0, inf, 1.0, patchy(1.0), 1e-9),
              (patchy, 0.3, patchy(0.3), 1.0, -inf, 1e-9),
              (patchy, 0.0, inf, 1.0, -inf, 1e-9)]
    cases += [(_never, 0.3, 1.0, 0.3 + 1e-9, -1.0, 1e-6),
              (_never, 2.0, inf, 2.0, -inf, 1e-12),
              (_never, -1.0, -inf, 1.0, inf, 4.0)]
    return cases


def test_bracket_roots_is_bracket_root_in_lockstep():
    cases = _bracket_cases()
    alone, steps = [], []
    for g, *args in cases:
        f, calls = _counted(g)
        alone.append(bracket_root(f, *args))
        steps.append(calls)
    seen = [[] for _ in cases]
    rounds = []

    def g_many(which, xs):
        rounds.append(list(which))
        for i, x in zip(which, xs):
            seen[i].append(x)
        return [cases[i][0](x) for i, x in zip(which, xs)]

    roots = bracket_roots(g_many, [args for _, *args in cases])
    assert all(type(x) is float for x in roots)
    assert [x.hex() for x in roots] == [x.hex() for x in alone]
    # each bracket is sent the points it is sent alone, one a round while
    # it is open, in bracket order; a narrow one is sent none
    assert [[float(x).hex() for x in xs] for xs in seen] == \
        [[float(x).hex() for x in xs] for xs in steps]
    assert rounds == [[i for i, xs in enumerate(steps) if len(xs) > k]
                      for k in range(max(map(len, steps)))]
    assert all(not xs for xs in steps[-3:])
    assert bracket_roots(g_many, []) == []


def test_zero_width_bracket_is_its_end_whatever_its_tol():
    # the limit scans pass an edge that stays on its probe as a zero-width
    # bracket; tol = 1e-6 v is 0 for v below about 2.5e-318
    def g_many(which, xs):
        raise AssertionError("a zero-width bracket evaluates nothing")

    for tol in (0.0, 5e-324, 1e-6, inf):
        for x, g_x in ((0.5, 1.0), (-3.25, -inf), (1e-310, 0.0)):
            (root,) = bracket_roots(g_many, [(x, g_x, x, g_x, tol)])
            assert type(root) is float and root.hex() == x.hex()
            assert bracket_root(_never, x, g_x, x, g_x, tol) == x


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


@pytest.mark.parametrize("gamma", [-10.0, -100.0])
def test_breakdown_temperature_above_v_over_2(gamma):
    # at gamma < -2 pi the scan reaches invalid points above T = v/2 (its
    # sign change lies near 0.795 v at gamma = -10 and 7.93 v at -100):
    # T* brackets that change, and every breakdown message there reads
    # T <= T*, where T* used to read 0.5
    import re
    import xxzent.cspa as cspa
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=0.0, T=1.0)
    t_star = breakdown_temperature(p)
    assert t_star > 0.75 * max(1.0, -gamma) / (4 * pi)

    def excess(T):
        worst, _ = cspa._scan_validity(cspa._Rows.of([p.replace(T=T)]))
        return float(worst[0, 0]) - (2.0 * pi * T) ** 2

    assert excess(t_star - 1e-5) >= 0 > excess(t_star + 1e-5)
    for T in t_star * np.array([0.1, 0.5, 0.9, 0.999, 1.001, 1.5]):
        pt = evaluate_point("cspa", p.replace(T=float(T)))
        assert (pt.status == "breakdown") == (T < t_star)
        if pt.status == "breakdown":
            shown = re.search(r"\(T = (\S+) <= T\* ~ (\S+)\)", pt.message)
            assert float(shown[1]) <= float(shown[2])


@pytest.mark.parametrize("gamma", [-1e103, -1e150, -1e200])
def test_validity_scan_refuses_a_gamma_that_overflows_it(gamma):
    # the scan reaches r ~ 1.1 v (1 - gamma), where gamma r^2 overflows from
    # gamma ~ -5e102 on: such a point is refused before the scan, with the
    # bound named, where it used to read T* ~ 1.48e-06 at an r of NaN
    import re
    import warnings
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=20, v=1.0, gamma=gamma, b=0.3, T=1.0)
    bound = (r"^CSPA validity scan overflows at gamma = "
             + re.escape(f"{gamma:.6g}") + r", v = 1: "
             r"max\(1, \|gamma\|\) r_top\^2 is not finite \(r_top = "
             r"1\.11719e\+\d+\)$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=bound):
            breakdown_temperature(p)
        with pytest.raises(DomainError, match=bound):
            cspa_logZ(p)
        pt = evaluate_point("cspa", p)
    assert pt.status == "error"
    assert re.match(bound, pt.message)


@pytest.mark.parametrize("b", [1.4e154, -1e200])
def test_validity_scan_refuses_a_field_that_overflows_it(b):
    # at gamma = 1 the scan line lies at b - z = b, where lam^2 = b^2 + r^2
    # overflows from |b| ~ 1.34e154 on: such a point is refused before the
    # scan, alone in its run, with the bound named, where b = 1.4e154 used
    # to read breakdown at an r of NaN with 132 RuntimeWarnings
    import re
    import warnings
    from xxzent.sweep import evaluate_run
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=1.0)
    message = ("CSPA validity scan overflows at gamma = 1, v = 1: "
               f"r_top^2 + b^2 is not finite (b = {b:.6g})")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            breakdown_temperature(p)
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
            cspa_logZ(p)
        pts = evaluate_run("cspa", [p.replace(b=0.3), p])
    assert [(pt.status, pt.message) for pt in pts] == [("ok", ""),
                                                       ("error", message)]


def test_validity_scan_keeps_t_star_below_the_overflow():
    # gamma = -1e102 scans up to r ~ 1.1e102: finite, and T* keeps its bits
    import warnings
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=20, v=1.0, gamma=-1e102, b=0.3, T=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert breakdown_temperature(p).hex() == "0x1.220baacb6fc82p+335"
        pt = evaluate_point("cspa", p)
    assert pt.status == "breakdown"
    assert "T* ~ 7.93003e+100" in pt.message


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


def test_t_star_once_per_field(monkeypatch):
    # the validity scan reads v and gamma, and b at gamma = 1 only: one T*
    # per field, shared by every n and T, and at gamma < 1 by every b
    import xxzent.cspa as cspa
    scan, calls = _counted(cspa._scan_validity)
    monkeypatch.setattr(cspa, "_scan_validity", scan)
    try:
        hexes = set()
        for n in (5, 20, 1000):
            cspa._t_star.cache_clear()
            p = ModelParams(n=n, v=1.0, gamma=0.5, b=0.3, T=0.05)
            hexes.add(breakdown_temperature(p).hex())
        assert len(hexes) == 1
        before = len(calls)
        for b in (0.3, 0.0, 0.5):
            p = ModelParams(n=7, v=1.0, gamma=0.5, b=b, T=0.2)
            assert breakdown_temperature(p).hex() in hexes
        assert len(calls) == before
        # at gamma = 1 the field b sets T*
        t1 = {breakdown_temperature(ModelParams(n=7, b=b, T=0.2))
              for b in (0.0, 0.5)}
        assert len(t1) == 2 and len(calls) > before
    finally:
        cspa._t_star.cache_clear()


def _scan_reach(p):
    """The r (and |b - z|) reach of the check grids: 1.1 v, or
    1.1 v (1 - gamma) at gamma < 0, where omega^2 < 0 reaches out to
    lam = v (1 - gamma)."""
    return 1.1 * p.v * max(1.0, 1.0 - p.gamma)


def _grid_worst(p):
    """The worst -omega^2 on a dense 2-D (r, z) check grid over the box
    r in (0, reach], |b - z| <= reach, denser than the old 256 x 64 scan
    (z = 0 alone at gamma = 1)."""
    reach = _scan_reach(p)
    r = np.linspace(reach / 1024, reach, 1024)
    z = (p.b + np.linspace(-reach, reach, 257) if p.gamma < 1.0
         else np.zeros(1))
    rr, zz = np.meshgrid(r, z, indexing="ij")
    return -float(np.min(omega_squared(p, rr, zz)))


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0])
def test_validity_scan_finds_the_worst_point(gamma):
    # the 1-D line scan is at least every value of a dense 2-D grid and
    # within 1e-10 of a dense 1-D reference on its line (z = b at gamma < 1,
    # z = 0 at gamma = 1), where the worst point lies; at gamma = 0,
    # omega^2 = a^2 >= 0 and the worst value is a zero of a, so the
    # comparison is absolute there
    import xxzent.cspa as cspa
    for b in (0.0, 0.3, 0.9):
        for T in (0.005, 0.02, 0.05, 0.08):
            p = ModelParams(n=20, v=1.0, gamma=gamma, b=b, T=T)
            worst, (r, z) = cspa._scan_validity(p)
            worst = float(worst[0])
            line = b if gamma < 1.0 else 0.0
            reach = _scan_reach(p)
            ref = -float(np.min(omega_squared(
                p, np.linspace(reach / 2 ** 20, reach, 2 ** 20), line)))
            assert worst >= _grid_worst(p), (b, T)
            assert worst == pytest.approx(ref, rel=1e-10, abs=1e-12), (b, T)
            assert float(z[0]) == line
            assert -omega_squared(p, float(r[0]), line) == worst


def test_validity_scan_is_130_omega_evaluations_per_row(monkeypatch):
    # three omega^2 array calls per run at every gamma: 64 coarse points,
    # 65 fine ones and a vertex, per row whatever the number of rows
    import xxzent.cspa as cspa
    from xxzent import sweep
    sizes = []
    real = cspa.omega_squared

    def counted(params, r, z=0.0):
        w2 = real(params, r, z)
        sizes.append(np.size(w2))
        return w2

    monkeypatch.setattr(cspa, "omega_squared", counted)
    for gamma in (0.5, 1.0):
        for k in (1, 8):
            sizes.clear()
            points = [ModelParams(n=20, gamma=gamma, b=b, T=0.3)
                      for b in np.linspace(0.0, 1.2, k)]
            cspa.cspa_moments_batch(points, epsrel=1e-8)
            assert sizes == [64 * k, 65 * k, k], (gamma, k)
    # a sweep of RUN_POINTS + 8 points is two runs, of 40 and of 8: two
    # scans
    run = sweep.RUN_POINTS
    assert run == 40
    sizes.clear()
    sweep.evaluate_points("cspa", [ModelParams(n=20, gamma=0.5, b=0.3, T=T)
                                   for T in np.linspace(0.1, 0.4, run + 8)],
                          1e-8)
    assert sizes == [64 * run, 65 * run, run, 64 * 8, 65 * 8, 8]


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


def _radial_reference(cspa, p, z, peak, mode):
    """(ln I_0, [I_k / I_0 for k >= 1]) of the rows of _weighted_factors over
    (0, _radial_cut), each row integrated on its own by scipy's adaptive
    quadrature, which shares nothing with quad_gk."""
    from scipy.integrate import quad as scipy_quad
    r_peak, l_peak, _ = peak
    cut = float(cspa._radial_cut(p, z, peak, mode))
    rows = {}

    def row(k):
        def f(r):
            if r not in rows:
                rows[r] = cspa._weighted_factors(p, np.array([r]), z, mode,
                                                 l_peak, 0.0)[:, 0]
            return rows[r][k]
        return scipy_quad(f, 0.0, cut, points=[r_peak], epsabs=0.0,
                          epsrel=1e-13, limit=400)[0]

    integrals = np.array([row(k) for k in range(5)])
    return l_peak + log(integrals[0]), integrals[1:] / integrals[0]


def _count_quad_gk(monkeypatch, cspa):
    """Record every quad_gk call made by cspa, in the order the calls start:
    [edges, integrand calls, panels evaluated, keyword arguments], the
    integrand called once and then once per refinement round. The outer z
    integral is the call with max_panels=800, the radial batches those with
    4000."""
    calls = []

    def counted(f, edges, **kwargs):
        call = [np.asarray(edges), 0, 0, kwargs]
        calls.append(call)

        def g(row, x):
            call[1] += 1
            call[2] += len(x)
            return f(row, x)
        return quad_gk(g, edges, **kwargs)

    monkeypatch.setattr(cspa, "quad_gk", counted)
    return calls


@pytest.mark.parametrize("mode", ["cspa", "spa"])
def test_batched_inner_integral_matches_adaptive(monkeypatch, mode):
    # the fixed-panel batch and an adaptive radial integral agree to the
    # quadrature budget, given the same peaks; at n = 100 the radial profile
    # is wider than the bare Gaussian at some z, so the cut moves out. At
    # z == b, lam = 0 at r = 0: the batch evaluates only panels of nonzero
    # width, whose nodes all lie at r > 0, so it takes no log(0)
    # (RuntimeWarnings are errors under pytest)
    import xxzent.cspa as cspa
    calls = _count_quad_gk(monkeypatch, cspa)
    epsrel = 1e-10
    for p in (ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3),
              ModelParams(n=100, v=1.0, gamma=-0.5, b=0.5, T=0.25),
              ModelParams(n=100, v=1.0, gamma=0.5, b=0.5, T=0.25)):
        zs = np.append(np.linspace(-0.4, 1.0, 8), p.b)
        peaks = cspa._radial_peaks(p, zs, mode)
        calls.clear()
        batch, rel, means = cspa._radial_log_integral_batch(p, zs, peaks,
                                                            mode, epsrel, 0.0)
        # one call and no refinement round: the initial panels alone meet
        # the budget
        assert [rounds for _, rounds, *_ in calls] == [1]
        adaptive = [_radial_reference(cspa, p, z, peak, mode)
                    for z, *peak in zip(zs, *peaks)]
        assert np.all(rel <= epsrel)
        np.testing.assert_allclose(batch, [a[0] for a in adaptive], rtol=0,
                                   atol=4 * epsrel)
        # the derivative means that ride along on the same nodes
        np.testing.assert_allclose(means, np.array([a[1] for a in adaptive]).T,
                                   rtol=1e-10)


def _plain_peak(p, z, mode):
    """(r_peak, l_peak) of a plain scan of all 512 points of one z's grid
    (0, 1.5 v + |b - z|]."""
    import xxzent.cspa as cspa
    r_hi = 1.5 * p.v + abs(p.b - z)
    grid = np.linspace(r_hi / 512.0, r_hi, 512)
    L = cspa._log_integrand(p, grid, z, mode) + np.log(grid)
    k = int(np.nanargmax(L))
    return grid[k], L[k]


def test_radial_peaks_match_a_per_z_scan():
    # the two-level scan (every 16th grid point, then the 33 around the best
    # of them) returns, bit for bit, what a plain scan of each z finds, in
    # both modes, in batches of 1, 8 and 150 rows and of 2 x 2, at T from
    # 1.01 T* up: at gamma < 1 the rows are z values of one point, at
    # gamma = 1 they are points (z = 0), 15 fields by 10 temperatures
    import xxzent.cspa as cspa
    for mode, n in itertools.product(("cspa", "spa"), (2, 20, 1000, 100000)):
        batches = []
        for gamma in (-1.0, 0.5):
            for b in (0.0, 0.3):
                q = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=0.5)
                for T in (max(1.01 * breakdown_temperature(q), 0.02), 0.5):
                    zs = np.linspace(-1.5, 1.5, 150) + 0.01 * b
                    p = q.replace(T=T)
                    batches.append((p, [p] * 150, zs))
        points = []
        for b in np.linspace(0.0, 1.3, 15):
            q = ModelParams(n=n, v=1.0, gamma=1.0, b=b, T=0.5)
            t_lo = max(1.01 * breakdown_temperature(q), 0.02)
            points += [q.replace(T=T) for T in np.geomspace(t_lo, 0.5, 10)]
        batches.append((cspa._Rows.of(points), points, np.zeros(150)))
        for params, rows, zs in batches:
            r_peak, l_peak, sigma = cspa._radial_peaks(params, zs, mode)
            for k in (1, 8):
                head = cspa._radial_peaks(cspa._at(params, slice(k)), zs[:k],
                                          mode)
                for a, whole in zip(head, (r_peak, l_peak, sigma)):
                    assert np.array_equal(a, whole[:k])
            for p, z, r0, l0 in zip(rows, zs, r_peak, l_peak):
                assert (r0, l0) == _plain_peak(p, z, mode), (p, z)
    p = ModelParams(n=50, v=1.0, gamma=0.5, b=0.3, T=0.3)
    zs = np.array([[-1.0, 0.0], [0.31, 2.5]])
    r_peak, l_peak, sigma = cspa._radial_peaks(p, zs, "cspa")
    assert r_peak.shape == l_peak.shape == sigma.shape == zs.shape
    for idx in np.ndindex(zs.shape):
        assert (r_peak[idx], l_peak[idx]) == _plain_peak(p, zs[idx], "cspa")


@pytest.mark.parametrize("n", [20, 100, 1000])
@pytest.mark.parametrize("gamma", [1.0, 0.5, -0.5])
@pytest.mark.parametrize("b", [0.3, 0.9])
def test_radial_width_is_the_curvature_at_the_peak(n, gamma, b):
    # sigma_r = 1/sqrt(kappa), kappa the curvature of ln[r e^L] at r_peak
    # from the peak scan's own grid neighbours, against a central difference
    # with a step of 1/100 of the bare width, at the z saddle: within 1%
    # (the grid step r_hi/512 is up to a third of the width at n = 1000,
    # and r_peak sits on the grid, not at the maximum), and never below the
    # bare Gaussian width, which it is at gamma = -0.5, b = 0.9
    import xxzent.cspa as cspa
    from xxzent.cmfa import mean_field_z
    p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=0.25)
    z = mean_field_z(p)[0] if gamma < 1.0 else 0.0
    (r0,), _, (sigma,) = cspa._radial_peaks(p, np.array([z]), "cspa")
    bare = sqrt(2.0 / (n * 4.0))
    h = bare / 100.0
    r = r0 + h * np.array([-1.0, 0.0, 1.0])
    f = cspa._log_integrand(p, r, z, "cspa") + np.log(r)
    width = 1.0 / sqrt(-(f[0] - 2.0 * f[1] + f[2]) / (h * h))
    if gamma == -0.5 and b == 0.9:
        assert width < 0.95 * bare and sigma == bare
    else:
        assert width > 1.01 * bare
        assert sigma == pytest.approx(width, rel=1e-2)


def test_radial_width_falls_back_to_the_bare_width(monkeypatch):
    # where the curvature at the maximum is not positive and finite, or the
    # maximum has no grid neighbour on one side (an end of the grid, where
    # the fine window repeats its end point), sigma_r is the bare Gaussian
    # width sqrt(2 v / (n beta))
    import xxzent.cspa as cspa
    p = ModelParams(n=100, v=1.0, gamma=0.5, b=0.3, T=0.25)
    bare = sqrt(2.0 / (100 * 4.0))
    r = (0.4, 0.5, 0.6)
    # kappa < 0, = 0 (twice), NaN, +inf and all NaN
    for f in ((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 0.0, 0.0),
              (-1.0, 0.0, np.nan), (-inf, 0.0, -1.0), (np.nan,) * 3):
        assert cspa._peak_width(p, r, f, 0.1) == bare, f
    for ends in ((0.5, 0.5, 0.6), (0.4, 0.5, 0.5)):
        assert cspa._peak_width(p, ends, (-1e-4, 0.0, -1e-4), 0.1) == bare
    # a curvature of 2 at h = 0.1, and a sharp one the bare width covers
    assert cspa._peak_width(p, r, (-0.01, 0.0, -0.01), 0.1) == sqrt(0.5)
    assert cspa._peak_width(p, r, (-2.0, 0.0, -2.0), 0.1) == bare
    # the same through the peak scan, on profiles ln[r e^L] = prof(r): the
    # maximum at either end of the grid (0, r_hi], and one whose neighbour
    # above the maximum is NaN
    r_hi = 1.5 + 0.3
    for prof, r_peak in ((lambda r: r, r_hi), (lambda r: -r, r_hi / 512.0),
                         (lambda r: np.where(r > 0.7, np.nan,
                                             -(r - 0.7) ** 2), None)):
        monkeypatch.setattr(cspa, "_log_integrand",
                            lambda params, r, z, mode: prof(r) - np.log(r))
        (r0,), _, (sigma,) = cspa._radial_peaks(p, np.array([0.0]), "cspa")
        assert sigma == bare
        assert r0 == pytest.approx(r_peak or 0.7, abs=r_hi / 512.0)


def test_radial_cut_raises_on_a_heavy_tail(monkeypatch):
    # a row whose ln[r e^L] is still within _TAIL_LOG_UNITS of its peak at
    # the cut after 8 moves is a QuadratureError that names the row, not a
    # silently truncated integral; in a sweep it fails that point alone
    import xxzent.cspa as cspa
    from xxzent.sweep import evaluate_points
    points = [ModelParams(n=20, v=1.0, b=b, T=0.25) for b in (0.3, 0.9, 1.2)]
    (_, (l_peak,), _) = cspa._radial_peaks(points[1], np.zeros(1), "cspa")
    real = cspa._log_integrand

    def heavy(params, r, z, mode, derivs=False):
        # the value of every call, the one that takes the peak slope with
        # the first cut included, gets a tail 30 log-units below the peak
        # that falls like 1/r
        out = real(params, r, z, mode, derivs)
        L = out[0] if derivs else out
        L = np.where(np.asarray(params.b) == 0.9,
                     np.logaddexp(L, l_peak - 30.0 - np.log1p(r * r)), L)
        return (L, out[1]) if derivs else L

    monkeypatch.setattr(cspa, "_log_integrand", heavy)
    with pytest.raises(QuadratureError, match=r"radial CSPA row \(1,\) "
                       r"\(b = 0\.9, T = 0\.25, z = 0\): .* still within "
                       r"40 log-units .* after 8 moves"):
        cspa._logZ_batch(points, "cspa", 1e-10)
    pts = evaluate_points("cspa", points)
    assert [pt.status for pt in pts] == ["ok", "error", "ok"]
    assert "still within 40 log-units" in pts[1].message


def test_coarse_scan_misses_a_spike_near_t_star_to_the_same_status():
    # a hair above T* the radial profile can grow a second, RPA-driven spike
    # that the coarse pass steps over: l_peak reads below the plain scan's.
    # The point reads error (rho_2 not PSD) with the same minimum
    # eigenvalue as with the plain scan
    import xxzent.cspa as cspa
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.3, T=0.1)
    p = p.replace(T=breakdown_temperature(p) * (1.0 + 1e-6))
    _, l_peak, _ = cspa._radial_peaks(p, np.zeros(1), "cspa")
    assert l_peak[0] < _plain_peak(p, 0.0, "cspa")[1] - 1.0
    pt = evaluate_point("cspa", p)
    assert (pt.status, pt.message) == (
        "error", "rho_2 not PSD: min eigenvalue -2.024e+05 < -1e-06 (moments "
        "inconsistent with a physical symmetric pair state)")


def test_2d_logZ_integrates_radially_only_in_batches(monkeypatch):
    # the outer shift comes from the peak scan, not from an extra radial
    # integral at the z peak. The first quad_gk call is the width batch, one
    # radial row at the saddle and one at each of its neighbours; the
    # second is the outer z integral, one row; every other is a radial
    # batch of at most _Z_BATCH of its z nodes. Each radial batch is one
    # call of its integrand with no refinement round: every inner row meets
    # the budget on its initial panels. The outer integral takes three
    # rounds, of 10, 2 and 2 panels of 15 nodes: 147, 30 and 30 live z
    # nodes, cut into batches of 45 (three panels), six in all
    import xxzent.cspa as cspa
    calls = _count_quad_gk(monkeypatch, cspa)
    ev = cspa_logZ(ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3))
    assert np.isfinite(ev.logZ)
    ((w_edges, w_rounds, _, w_kw), (z_edges, z_rounds, z_panels, z_kw),
     *radial) = calls
    assert w_edges.ndim == 2 and len(w_edges) == 3 and w_rounds == 1
    assert w_kw["max_panels"] == 4000
    assert z_kw["max_panels"] == 800 and z_edges.shape[0] == 1
    assert z_edges[0, 0] < 0.0 < z_edges[0, -1]
    assert (z_rounds, z_panels) == (3, 14)
    batch = cspa._Z_BATCH
    assert batch == 45
    assert all(edges.ndim == 2 and rounds == 1 and kw["max_panels"] == 4000
               for edges, rounds, _, kw in radial)
    assert [len(edges) for edges, *_ in radial] == [
        min(batch, live - k) for live in (147, 30, 30)
        for k in range(0, live, batch)]
    assert sum(len(edges) for edges, *_ in radial) <= 15 * z_panels


def test_2d_log_integrand_nodes_per_point(monkeypatch):
    # the z peak is the mean-field saddle, with one two-level radial peak
    # scan per outer round, and each radial row is laid out in units of
    # the width measured at its peak: under 33,000 log-integrand nodes per
    # point on this set (about 28,850; 44,200 with the radial rows in units
    # of the bare Gaussian width, 137,500 with a full 512-point scan per z
    # and the outer panels in units of the bare width)
    import xxzent.cspa as cspa
    real = cspa._log_integrand
    nodes = [0]

    def counted(params, r, z, *args, **kwargs):
        nodes[0] += int(np.prod(np.broadcast_shapes(np.shape(r),
                                                    np.shape(z))))
        return real(params, r, z, *args, **kwargs)

    monkeypatch.setattr(cspa, "_log_integrand", counted)
    points = [ModelParams(n=100, v=1.0, gamma=g, b=b, T=T)
              for g in (0.25, 0.5, 0.75) for b in (0.0, 0.2, 0.5)
              for T in (0.1, 0.25)]
    for p in points:
        assert np.isfinite(cspa_moments(p, epsrel=1e-8).s2)
    assert nodes[0] / len(points) < 33_000


# the benchmark's 2D points at epsrel = 1e-10: (b, (Sz, Sz2, S2, ln Z)) as
# the outer z panels in units of the bare Gaussian width computed them
_Z_LAYOUT_POINTS = (
    (0.05, (-4.999967124394686, 49.99951416204502, 2343.5438269454344,
            104.48344681935102)),
    (0.5, (-45.20065895277509, 2051.918121377866, 2387.0329344675692,
           153.01591941371802)))


@pytest.mark.parametrize("b, before", _Z_LAYOUT_POINTS)
def test_z_panels_in_units_of_the_measured_width(monkeypatch, b, before):
    # the outer z panels are laid out in units of the z width measured from
    # the inner integrals at the saddle and its neighbours: at most 2
    # refinement rounds of the outer integral at these points (7 and 5 with
    # the bare Gaussian width), and the same moments to 1e-12. At epsrel =
    # 1e-11 the b = 0.5 point still takes 6 rounds, as it did before; that
    # case is not pinned here
    import xxzent.cspa as cspa
    calls = _count_quad_gk(monkeypatch, cspa)
    m = cspa_moments(ModelParams(n=100, v=1.0, gamma=0.5, b=b, T=0.25),
                     epsrel=1e-10)
    ((edges, outer),) = [(e[0], rounds) for e, rounds, _, kw in calls
                         if kw["max_panels"] == 800]
    assert outer - 1 <= 2      # the first call is no refinement round
    # the panel below the saddle is one width wide, wider than sigma_z
    # (0.071 and 0.056 against 0.05)
    assert np.diff(edges)[4] > 1.1 * sqrt(2.0 * 0.5 / (100 * 4.0))
    np.testing.assert_allclose([m.sz, m.sz2, m.s2, m.logZ], before,
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("l_nbr", [(0.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                                   (0.0, np.nan, 0.0)])
def test_z_width_falls_back_to_the_gaussian_width(monkeypatch, l_nbr):
    # where the curvature of ln I_0 across the saddle's neighbours is not
    # positive and finite (forced here on the width batch, the first radial
    # batch of the point), the panels are laid out in units of the bare
    # Gaussian width sigma_z: the point is still ok, with the same moments
    import xxzent.cspa as cspa
    from xxzent.sweep import evaluate_point
    real, calls = cspa._radial_log_integral_batch, []

    def forced(*args):
        lv, rel, means = real(*args)
        if not calls:
            lv = np.array(l_nbr)
        calls.append(len(lv))
        return lv, rel, means

    monkeypatch.setattr(cspa, "_radial_log_integral_batch", forced)
    quad_calls = _count_quad_gk(monkeypatch, cspa)
    b, before = _Z_LAYOUT_POINTS[0]
    pt = evaluate_point("cspa", ModelParams(n=100, v=1.0, gamma=0.5, b=b,
                                            T=0.25), epsrel=1e-10)
    assert pt.status == "ok" and calls[0] == 3
    (edges,) = [e[0] for e, _, _, kw in quad_calls
                if kw["max_panels"] == 800]
    sigma_z = sqrt(2.0 * 0.5 / (100 * 4.0))
    assert np.diff(edges)[4] == pytest.approx(sigma_z, rel=1e-12)
    m = pt.moments
    np.testing.assert_allclose([m.sz, m.sz2, m.s2, m.logZ], before,
                               rtol=1e-12, atol=0)


def test_seed_far_from_the_z_peak_is_an_error(monkeypatch):
    # the outer integral is shifted by the radial peak at the seed; an
    # inner integral e^700 above it fails the point instead of being
    # clipped into an ok value
    import xxzent.cspa as cspa
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=100, v=1.0, gamma=0.5, b=0.3, T=0.1)
    assert evaluate_point("cspa", p).status == "ok"
    real = cspa.mean_field_z
    monkeypatch.setattr(cspa, "mean_field_z",
                        lambda q: tuple(z + 2.0 for z in real(q)))
    with pytest.raises(QuadratureError, match="mean-field saddle"):
        cspa_logZ(p)
    assert evaluate_point("cspa", p).status == "error"


@pytest.mark.parametrize("gamma, b", [(0.5, 0.3), (0.5, 0.8), (-1.0, 0.0),
                                      (0.0, 0.001)])
def test_one_gap_solve_per_z_integral(monkeypatch, gamma, b):
    # cmfa.mean_field_z solves the point's saddles, both of them where the
    # normal phase has two (gamma = -1, b = 0): the z integral takes them
    # from that one call and solves no gap of its own, and mean_field_z
    # decides the phase as gap_solve does without solving the gap, so not
    # one gap is solved. Every module's name for gap_solve is counted, not
    # only cmfa's, and the (v, T) root beneath it too.
    import sys
    from xxzent import cmfa
    from xxzent.sweep import evaluate_point
    real, calls = cmfa.gap_solve, []

    def counted(params):
        calls.append(params)
        return real(params)
    for name, module in list(sys.modules.items()):
        if name.startswith("xxzent") and getattr(module, "gap_solve",
                                                 None) is real:
            monkeypatch.setattr(module, "gap_solve", counted)
    root = cmfa._gap_root
    monkeypatch.setattr(cmfa, "_gap_root",
                        lambda v, T: calls.append((v, T)) or root(v, T))
    p = ModelParams(n=100, v=1.0, gamma=gamma, b=b, T=0.2)
    assert evaluate_point("cspa", p).status == "ok"
    assert calls == []
    deformed = gamma == 0.5 and b < 0.5
    assert len(cmfa.mean_field_z(p)) == (1 if deformed else 2)


@pytest.mark.parametrize("b", [0.0, 0.001])
def test_ordered_z_saddles_at_negative_gamma(b):
    # at gamma = -1, T = 0.2 the normal-phase z integrand has two ordered
    # saddles near z = -+2 v, past the old 1.5 v reach of the z range and
    # of equal height at b = 0: missing one reads ln Z low by ln 2 and
    # |Sz| near n/2. Sz matches exact to 1e-3 of max(|Sz|, 1); ln Z/n to
    # 1e-5 (3.3e-7 measured; a missed saddle is ln 2/n = 6.9e-4)
    from xxzent.sweep import evaluate_point
    p = ModelParams(n=1000, v=1.0, gamma=-1.0, b=b, T=0.2)
    cs, ex = evaluate_point("cspa", p), evaluate_point("exact", p)
    assert cs.status == "ok", cs.message
    assert abs(cs.moments.sz - ex.moments.sz) <= 1e-3 * max(
        abs(ex.moments.sz), 1.0)
    assert abs(cs.moments.logZ - ex.moments.logZ) / p.n < 1e-5


def test_cspa_gamma_collapse_to_xx():
    # the z Gaussian collapses as gamma -> 1^-: the difference from the
    # gamma = 1 radial result is O(1 - gamma), checked at two scales, and
    # under 1e-6 once 1 - gamma = 1e-7; the error estimate is a Python
    # float on both branches
    xx = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1.0, b=0.5, T=0.3))
    ev3 = cspa_logZ(ModelParams(n=20, v=1.0, gamma=1 - 1e-3, b=0.5, T=0.3))
    assert type(xx.quadrature_error) is float
    assert type(ev3.quadrature_error) is float
    base = xx.logZ
    d3 = ev3.logZ - base
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
    c = concurrence(pair_state(m, 100, tol=1e-6)).concurrence
    ce = concurrence(thermal_observables(p)[1]).concurrence
    assert c == pytest.approx(ce, rel=0.02)


def test_cspa_logZ_refuses_an_unknown_mode():
    with pytest.raises(DomainError, match=r"^unknown mode 'x'$"):
        cspa_logZ(ModelParams(n=4, T=0.1), mode="x")


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
        c = concurrence(pair_state(m, n, tol=1e-6)).concurrence
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
        ce = concurrence(thermal_observables(p)[1]).concurrence
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


# ------------------------------------------------- one-pass ln Z derivatives

def _richardson_moments(p, mode, epsrel=1e-11):
    """Reference: the moments by Richardson-extrapolated central differences
    of ln Z in b and v (steps 1e-4 max(v, |b|) for first derivatives and
    1e-3 max(v, |b|) for the second)."""
    def lz(b=p.b, v=p.v):
        return cspa_logZ(p.replace(b=b, v=v), mode, epsrel=epsrel).logZ

    def first(f, x0, h):
        return (4.0 * (f(x0 + 0.5 * h) - f(x0 - 0.5 * h)) / h
                - (f(x0 + h) - f(x0 - h)) / (2.0 * h)) / 3.0

    def second(f, f0, x0, h):
        d1 = (f(x0 + h) - 2.0 * f0 + f(x0 - h)) / (h * h)
        d2 = (f(x0 + 0.5 * h) - 2.0 * f0 + f(x0 - 0.5 * h)) / (0.25 * h * h)
        return (4.0 * d2 - d1) / 3.0

    T, f0, hb = p.T, lz(), max(p.v, abs(p.b))
    sz = -T * first(lambda b: lz(b=b), p.b, 1e-4 * hb)
    sz2 = T * T * second(lambda b: lz(b=b), f0, p.b, 1e-3 * hb) + sz * sz
    dv = first(lambda v: lz(v=v), p.v, 1e-4 * p.v)
    s2 = p.n * T * dv + p.gamma * sz2 + p.n * (3.0 - p.gamma) / 4.0
    return np.array([sz, sz2, s2])


@pytest.mark.parametrize("mode", ["cspa", "spa"])
@pytest.mark.parametrize("n, gamma, b, T", [
    (20, 1.0, 0.9, 0.15), (20, 1.0, 0.3, 0.3), (100, 1.0, 0.5, 0.2),
    (100, 1.0, 1.2, 0.1), (20, 0.5, 0.3, 0.3), (20, -0.5, 0.8, 0.2),
    (100, 0.5, 0.3, 0.25)])
def test_moments_match_richardson_differences(n, gamma, b, T, mode):
    # the one-pass moments against finite differences of ln Z; on these
    # points the reference with all steps tripled moves by up to 6.6e-11
    # relative (Sz2) and the one-pass moments sit within 7.2e-11 of it
    p = ModelParams(n=n, v=1.0, gamma=gamma, b=b, T=T)
    m = cspa_moments(p, mode)
    ref = _richardson_moments(p, mode)
    np.testing.assert_allclose([m.sz, m.sz2, m.s2], ref, rtol=5e-10)
    if mode == "cspa":
        try:
            c = concurrence(pair_state(m, n, tol=1e-6))
        except InconsistentMomentsError:
            # moments outside the physical domain: so are the reference's
            with pytest.raises(InconsistentMomentsError):
                pair_state(type(m)(*ref, m.logZ), n, tol=1e-6)
            return
        c_ref = concurrence(pair_state(type(m)(*ref, m.logZ), n, tol=1e-6))
        assert c.concurrence == pytest.approx(c_ref.concurrence, abs=1e-9)


@pytest.mark.parametrize("mode", ["cspa", "spa"])
def test_moments_continuous_as_gamma_approaches_one(mode):
    # the gamma < 1 moments join the gamma = 1 radial route: just below
    # gamma = 1 they lie on the straight line through gamma = 1 and
    # 1 - 1e-5 (the quadratic term contributes ~1e-11 at 1 - gamma = 1e-6)
    def moments(gamma):
        p = ModelParams(n=20, v=1.0, gamma=gamma, b=0.5, T=0.3)
        m = cspa_moments(p, mode)
        return np.array([m.sz, m.sz2, m.s2])

    at_one, at_5 = moments(1.0), moments(1.0 - 1e-5)
    for eps in (1e-6, 1e-7, 1e-8):
        line = at_one + (at_5 - at_one) * (eps / 1e-5)
        np.testing.assert_allclose(moments(1.0 - eps), line, rtol=1e-9,
                                   atol=0)


def test_quad_gk_stacked_components_match_scalar():
    # a stacked integrand shares the panels of component 0, which alone
    # drives refinement
    def f(row, x):
        return np.exp(-3.0 * x * x) * np.cos(2.0 * x)

    comps = (f, lambda row, x: x * x * f(row, x),
             lambda row, x: np.exp(x) * f(row, x))

    def stacked(row, x):
        return np.stack([c(row, x) for c in comps])

    def alone(c):
        return lambda row, x: c(row, x)[None]

    edges = [[-2.0, 0.3, 1.1, 3.0]]
    res = quad_gk(stacked, edges, epsrel=1e-11)
    ref = quad_gk(alone(f), edges, epsrel=1e-11)
    assert res.value.shape == (3, 1)
    assert res.neval == ref.neval
    assert res.value[0, 0] == pytest.approx(ref.value[0, 0], rel=1e-15)
    # (K15 - G7 differences: the last bits of the rule sums matter)
    assert res.error[0] == pytest.approx(ref.error[0], rel=1e-3)
    # on the seeded panels alone, every component is its own one-component
    # rule
    coarse = quad_gk(stacked, edges, epsrel=1.0)
    for k, c in enumerate(comps):
        one = quad_gk(alone(c), edges, epsrel=1.0)
        assert coarse.value[k, 0] == pytest.approx(one.value[0, 0],
                                                   rel=1e-14)
    # and refined, every component converges with component 0's panels
    from scipy.integrate import quad as scipy_quad
    for k, c in enumerate(comps):
        exact, _ = scipy_quad(lambda t: float(c(0, np.array([t]))[0]),
                              -2.0, 3.0, epsabs=1e-14, epsrel=1e-13)
        assert res.value[k, 0] == pytest.approx(exact, rel=1e-10)


def test_g_derivatives_against_mpmath():
    # G(X) = ln[sinh(sqrt X)/sqrt X] across the series / sinh / sin branches
    import xxzent.cspa as cspa
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def G(X):
        s = mpmath.sqrt(X)
        return mpmath.log(mpmath.sinh(s) / s)

    xs = [-9.8, -9.0, -5.0, -1.9, -1.0, -0.50001, -0.49999, -0.1, -1e-3, 1e-8,
          0.2, 0.49999, 0.50001, 0.7, 1.9, 3.0, 40.0, 1e3, 1e6]
    _, g1, g2 = cspa._g(np.array(xs), True)
    for x, a, b in zip(xs, g1, g2):
        with mpmath.workdps(40):
            ref1 = float(mpmath.re(mpmath.diff(G, mpmath.mpf(x), 1)))
            ref2 = float(mpmath.re(mpmath.diff(G, mpmath.mpf(x), 2)))
        assert a == pytest.approx(ref1, rel=1e-12), x
        assert b == pytest.approx(ref2, rel=1e-12), x
    _, g1, g2 = cspa._g(np.zeros(1), True)
    assert (g1[0], g2[0]) == pytest.approx((1.0 / 6.0, -1.0 / 90.0), rel=1e-15)


def test_g_against_mpmath():
    # G itself on both sides of every branch switch, up to the breakdown
    # edge X -> -pi^2 and out to X = 1e6, and 0-d input as _radial_cut
    # passes it; an absolute 1e-15 is below one ulp of G past |G| ~ 4, so
    # the bound there is 1e-15 relative
    import xxzent.cspa as cspa
    mpmath = pytest.importorskip("mpmath")

    def G(X):
        s = mpmath.sqrt(X)
        return mpmath.log(mpmath.sinh(s) / s)

    xs = [-pi * pi + 1e-9, -9.8696, -9.869, -9.8, -9.0, -5.0, -1.0, -0.50001,
          -0.5, -0.49999, -1e-3, 0.0, 1e-8, 0.49999, 0.5, 0.50001, 3.0,
          399.9, 400.1, 1e3, 1e6]
    with mpmath.workdps(40):
        refs = [[float(mpmath.re(mpmath.diff(G, mpmath.mpf(x), k)))
                 for k in range(3)] if x else [0.0, 1.0 / 6.0, -1.0 / 90.0]
                for x in xs]
    stacked = cspa._g(np.array(xs), True)
    np.testing.assert_array_equal(stacked[0], cspa._g(np.array(xs)))
    for x, ref in zip(xs, refs):
        for got in (stacked[:, xs.index(x)], cspa._g(np.float64(x), True)):
            assert got[0] == pytest.approx(ref[0], rel=1e-15, abs=1e-15), x
            np.testing.assert_allclose(got[1:], ref[1:], rtol=1e-12,
                                       err_msg=str(x))
        zero_d = cspa._g(np.array(x))
        assert zero_d.shape == () and zero_d == stacked[0, xs.index(x)]
    assert cspa._g(np.array(-pi * pi)).shape == ()
    assert np.isnan(cspa._g(np.array(-pi * pi)))


def test_log_integrand_value_path_is_the_derivs_path():
    # ln[Z(lam) C_RPA] is the same number whether or not the node
    # derivatives ride along; the grids reach every branch of _g
    import xxzent.cspa as cspa
    reached = np.zeros(3, dtype=bool)
    for p, r, z in [
            (ModelParams(n=20, v=1.0, gamma=1.0, b=0.2, T=0.1),
             np.linspace(1e-6, 2.0, 400), 0.0),
            (ModelParams(n=20, v=1.0, gamma=1.0, b=1.1, T=0.9),
             np.linspace(1e-6, 3.0, 400), 0.0),
            (ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.12),
             np.linspace(1e-6, 2.0, 60)[:, None],
             np.linspace(-1.5, 1.5, 41)[None, :])]:
        # the arguments of _g on the grid: beta^2 omega^2 / 4 and u^2
        for x in (0.25 * p.beta ** 2 * omega_squared(p, r + 0 * z, z + 0 * r),
                  (0.5 * p.beta * np.hypot(p.b - z, r)) ** 2):
            reached |= [np.any(np.abs(x) < 0.5), np.any(x >= 0.5),
                        np.any((x <= -0.5) & (x > -pi * pi))]
        for mode in ("cspa", "spa"):
            L, _ = cspa._log_integrand(p, r, z, mode, derivs=True)
            np.testing.assert_array_equal(
                cspa._log_integrand(p, r, z, mode), L)
    assert reached.all()        # series, sinh and sin branches


@pytest.mark.parametrize("mode, per_call", [("cspa", 2), ("spa", 0)])
def test_g_runs_twice_per_log_integrand(monkeypatch, mode, per_call):
    # once at u^2 and once at beta^2 omega^2 / 4, value and derivatives
    # together; never without the RPA factor
    import xxzent.cspa as cspa
    calls = []
    g = cspa._g
    monkeypatch.setattr(cspa, "_g",
                        lambda x, derivs=False: calls.append(derivs) or
                        g(x, derivs))
    p = ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3)
    for derivs in (False, True):
        calls.clear()
        cspa._log_integrand(p, np.linspace(0.1, 2.0, 7), 0.2, mode, derivs)
        assert calls == [derivs] * per_call
    n_calls = []
    real = cspa._log_integrand

    def counted(*args, **kwargs):
        n_calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cspa, "_log_integrand", counted)
    calls.clear()
    cspa_logZ(ModelParams(n=20, v=1.0, gamma=1.0, b=0.5, T=0.3), mode)
    assert len(calls) == per_call * len(n_calls) and n_calls


def test_derivative_helpers_finite_in_extreme_regimes():
    # no overflow, 0/0 or log(0) anywhere the integrand is defined
    # (RuntimeWarnings are errors under pytest)
    import xxzent.cspa as cspa
    x = np.concatenate([-pi * pi + np.geomspace(1e-12, 1.0, 30),
                        np.linspace(-1.0, 1.0, 41), np.geomspace(1.0, 1e9, 30)[1:]])
    _, g1, g2 = cspa._g(x, True)
    # G' = sum_k 1/(k^2 pi^2 + X) > 0 decreasing, G'' = -sum_k (...)^-2 < 0
    assert np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))
    assert np.all(g1 > 0) and np.all(g2 < 0) and np.all(np.diff(g1) < 0)
    assert np.all(np.isnan(cspa._g(np.array([-pi * pi, -20.0]), True)[1:]))
    # beta lam / 2 up to 1e4, and lam -> 0 at b = 0 (and at z = b)
    cases = [(ModelParams(n=8810, v=1.0, gamma=1.0, b=2.0, T=0.02),
              np.geomspace(1e-9, 400.0, 200), 0.0),
             (ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.3),
              np.geomspace(1e-12, 3.0, 200), 0.0),
             (ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3),
              np.geomspace(1e-12, 3.0, 200), 0.3)]
    for p, r, z in cases:
        for mode in ("cspa", "spa"):
            L, terms = cspa._log_integrand(p, r, z, mode, derivs=True)
            assert np.all(np.isfinite(L)) and np.all(np.isfinite(terms))


def _generic_rpa_route(p, r, z):
    """(ln C_RPA, omega^2 of the collective mode) from the generic RPA
    engine at the static field x = (r, 0[, z])."""
    from oracles.rpa import linearize, log_c_rpa, rpa_energies, xxz_sites
    sites, couplings = xxz_sites(p)
    x = np.array([r, 0.0] + ([z] if p.gamma < 1.0 else []))
    spectrum = rpa_energies(linearize(sites, x, p.T), couplings,
                            check_roots=False)
    w = spectrum.omegas
    w2 = np.where(np.abs(w.imag) > np.abs(w.real), -w.imag ** 2, w.real ** 2)
    lam2 = spectrum.lambdas.max() ** 2
    return np.array([log_c_rpa(spectrum), w2[np.argmax(np.abs(w2 - lam2))]])


def _deformed_r(b, T):
    # r at which omega^2 = 0 for gamma = 1: lam = v tanh(lam / 2T)
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid - tanh(mid / (2 * T)) < 0 else (lo, mid)
    return sqrt((0.5 * (lo + hi)) ** 2 - b * b)


@pytest.mark.parametrize("gamma, b, T, r, z", [
    (1.0, 0.6, 0.3, 1.5, 0.0),                          # real mode
    (1.0, 0.2, 0.1, 0.5, 0.0),                          # imaginary mode
    (1.0, 0.4, 0.3, _deformed_r(0.4, 0.3) + 1e-4, 0.0),  # omega^2 ~ +5e-5
    (1.0, 0.4, 0.3, _deformed_r(0.4, 0.3) - 1e-4, 0.0),  # omega^2 ~ -5e-5
    (0.5, 0.3, 0.3, 1.4, -0.2),
    (0.5, 0.3, 0.3, 0.4, 0.2)])
def test_node_derivatives_against_generic_rpa_engine(gamma, b, T, r, z):
    # d_b, d_b^2 and d_v of ln C_RPA and of omega^2 at fixed (r, z) against
    # central differences of the rpa.py frequencies, which share no code
    # with cspa.py (cspa minus spa isolates the ln C_RPA part of L)
    import xxzent.cspa as cspa
    p = ModelParams(n=6, v=1.0, gamma=gamma, b=b, T=T)

    def first(f, x0, h):
        return (4.0 * (f(x0 + 0.5 * h) - f(x0 - 0.5 * h)) / h
                - (f(x0 + h) - f(x0 - h)) / (2.0 * h)) / 3.0

    def second(f, x0, h):
        f0 = f(x0)
        return (16.0 * (f(x0 + 0.5 * h) - 2.0 * f0 + f(x0 - 0.5 * h))
                - (f(x0 + h) - 2.0 * f0 + f(x0 - h))) / (3.0 * h * h)

    crpa = (cspa._log_integrand(p, r, z, "cspa", derivs=True)[1]
            - cspa._log_integrand(p, r, z, "spa", derivs=True)[1])
    lam = np.hypot(b - z, r)
    t = np.tanh(0.5 * lam / T)
    w2_v, w2_1, w2_2 = cspa._omega_sq_derivatives(
        p, r, lam, t, 1.0 - t * t, *cspa._omega_factors(p, r, lam, t))
    ref0 = _generic_rpa_route(p, r, z)
    assert ref0[1] == pytest.approx(float(cspa.omega_squared(p, r, z)),
                                    rel=1e-9, abs=1e-14)
    dv = first(lambda v: _generic_rpa_route(p.replace(v=v), r, z), 1.0, 1e-4)
    np.testing.assert_allclose([crpa[-1], w2_v], dv, rtol=1e-7, atol=1e-10)
    db = first(lambda x: _generic_rpa_route(p.replace(b=x), r, z), b, 1e-4)
    db2 = second(lambda x: _generic_rpa_route(p.replace(b=x), r, z), b, 1e-3)
    cos = (b - z) / lam
    np.testing.assert_allclose([crpa[0], w2_1 * cos], db, rtol=1e-7)
    np.testing.assert_allclose(
        [crpa[1], w2_2 * cos * cos + w2_1 * r * r / lam ** 3], db2, rtol=1e-6)


@pytest.mark.parametrize("mode", ["cspa", "spa"])
def test_fallback_returns_the_fixed_layout_moments(monkeypatch, mode):
    # at epsrel = 1e-11 the initial panels miss the budget on these
    # gamma = 1 rows, so refinement rounds of the same quad_gk call split
    # them over the same cut (0, r_max); at 1e-8 there is no round, and the
    # two agree (b = 0.8 meets 1e-11 on the panels in units of the measured
    # width; b = 0.9 and 0.9333 still refine in both modes)
    import xxzent.cspa as cspa
    calls = _count_quad_gk(monkeypatch, cspa)
    for b in (0.9, 0.9333):
        p = ModelParams(n=20, v=1.0, gamma=1.0, b=b, T=0.1)
        calls.clear()
        fixed = cspa_logZ(p, mode, epsrel=1e-8)
        assert [rounds for _, rounds, *_ in calls] == [1]
        calls.clear()
        refined = cspa_logZ(p, mode, epsrel=1e-11)
        zs = np.zeros(1)
        r_max = cspa._radial_cut(p, zs, cspa._radial_peaks(p, zs, mode), mode)
        ((edges, rounds, *_),) = calls
        assert rounds > 1
        assert (edges[0, 0], edges[0, -1]) == (0.0, r_max[0])
        for name in ("logZ", "dlnZ_db", "d2lnZ_db2", "dlnZ_dv"):
            assert getattr(refined, name) == pytest.approx(
                getattr(fixed, name), rel=1e-9), name
    # one gamma < 1 inner row: the batch against an adaptive reference
    p = ModelParams(n=20, v=1.0, gamma=0.5, b=0.3, T=0.3)
    zs = np.array([0.2])
    peaks = cspa._radial_peaks(p, zs, mode)
    calls.clear()
    lv, _, means = cspa._radial_log_integral_batch(p, zs, peaks, mode, 1e-8,
                                                   0.0)
    assert [rounds for _, rounds, *_ in calls] == [1]
    ln_i0, ad_means = _radial_reference(cspa, p, 0.2,
                                        [a[0] for a in peaks], mode)
    assert ln_i0 == pytest.approx(lv[0], rel=1e-9)
    np.testing.assert_allclose(ad_means, means[:, 0], rtol=1e-9)


def test_no_breakdown_from_a_neighbouring_stencil_point():
    # a point just above its own T* is evaluated; finite differences in v
    # used to step across T* ~ v and report it as a breakdown
    p = ModelParams(n=20, v=1.0, gamma=1.0, b=0.0, T=0.1)
    t_star = breakdown_temperature(p, tol=1e-12)
    p = p.replace(T=t_star * (1.0 + 3e-5))
    with pytest.raises(BreakdownError):
        cspa_logZ(p.replace(v=1.0 + 1e-4))
    m = cspa_moments(p)
    assert np.isfinite(m.sz2) and m.sz == pytest.approx(0.0, abs=1e-8)


def test_log_integrand_calls_grow_with_runs_not_points(monkeypatch):
    # a run of points at gamma = 1 is one radial pass: a validity scan, then
    # _log_integrand for the two levels of the peak scan, the peak slopes
    # with the first step of the cut, each later step of the cut and the
    # panels, whatever the number of points in the run (at most RUN_POINTS)
    import xxzent.cspa as cspa
    from xxzent import figures, sweep
    calls, derivative_nodes = [], [0]
    real = cspa._log_integrand

    def counted(params, r, z, mode, derivs=False):
        calls.append(1)
        if derivs:
            derivative_nodes[0] += int(np.prod(np.broadcast_shapes(
                np.shape(r), np.shape(z))))
        return real(params, r, z, mode, derivs)

    monkeypatch.setattr(cspa, "_log_integrand", counted)
    for curve in figures._figure_2()[2]:
        sweep.evaluate_points("cspa", [curve.fixed.replace(**{curve.axis: x})
                                       for x in curve.values],
                              figures.POINT_EPSREL)
    # each row of figure 2 is one run, 6 runs of 4 calls each, and the cut
    # moves 4 times, in the three T-rows (twice in the first): the width
    # measured at the peak leaves it where it starts in the three b-rows
    assert sweep.RUN_POINTS == 40
    assert len(calls) == 28
    # the panels in units of that width, and the peak slopes of the 203
    # points past the validity scan, each with its first cut (45,413 on 19
    # edges in units of the bare width)
    assert derivative_nodes[0] == 23_528 + 203
    run = sweep.RUN_POINTS
    points = [ModelParams(n=20, v=1.0, b=b, T=0.25)
              for b in np.linspace(0.0, 1.3, 2 * run)]
    for k in (1, 5, run, run + 1, 2 * run):
        for mode in ("cspa", "spa"):
            calls.clear()
            sweep.evaluate_points(mode, points[:k], figures.POINT_EPSREL)
            # at most one more step of the cut per run
            runs = ceil(k / run)
            assert 4 * runs <= len(calls) <= 5 * runs, (k, mode)
