"""Adaptive Gauss-Kronrod quadrature of many rows at once.

quad_gk integrates the m components of an integrand over a batch of rows,
each row over its own panel edges, with a (7, 15)-point Gauss-Kronrod pair
on each panel and an error estimate per panel from |K15 - G7| of component
0. It has one call form: edges of shape (rows, k), an integrand that
returns shape (m, panels, 15), a value of shape (m, rows) and a relative
error budget per row. The integrand gets every panel that a step needs, of
every row, in one vectorized call, which is what keeps the CSPA integrals
cheap enough for root finding on top of them. Refinement goes in rounds:
each round halves the worst panel of every row still above its budget, so a
row is refined on the panels it started from, and its splits and sums do not
depend on the other rows. All m components share the panels, and refinement
follows the error of component 0 alone.

bracket_root is the bracketing root finder (ITP) shared by the CMFA gap
and the CSPA breakdown temperature; bracket_roots runs the same steps on
many brackets in lockstep, one call of the function a round for every
bracket still open, which is how the limit scans refine their band edges
in shared runs. Both step one coroutine, _itp, so a root's bits do not
depend on which of them steps it. The RPA engine that the tests check the
tiers against keeps its own root finder, so that it stays an independent
check.

Node and weight constants are the standard QUADPACK dqk15 values.
"""

from __future__ import annotations

from math import ceil, isfinite, log2

import numpy as np

from .errors import QuadratureError

__all__ = ["quad_gk", "QuadResult", "bracket_root", "bracket_roots"]

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights below.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-point node vector in [-1, 1] and matching weight vectors
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])          # ascending, 15 nodes
_WK = np.concatenate([_WGK[:7], _WGK[::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:3], _WG[::-1]])    # Gauss nodes sit at odd slots


class QuadResult:
    """Integral value, error estimate and evaluation count."""

    __slots__ = ("value", "error", "neval")

    def __init__(self, value, error, neval):
        self.value = value
        self.error = error
        self.neval = neval


def _rule(f, row, lo, hi):
    """(K15 sums, one row per component, and |K15 - G7| of component 0) of f
    on the panels [lo, hi] of rows ``row``."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo)[:, None] + half[:, None] * _NODES     # (panels, 15)
    y = np.asarray(f(row, x), dtype=float)
    # one einsum per panel: a BLAS matrix-vector product would round a
    # panel's sum differently depending on how many panels it is given
    k = np.einsum("...k,k->...", y, _WK) * half
    return k, np.abs(k[0] - np.einsum("...k,k->...", y[0], _WGFULL) * half)


def quad_gk(f, edges, *, epsrel=1e-10, max_panels=2000):
    """Integrate the m components of f over each row of panel ``edges``, all
    rows at once.

    ``edges`` has shape (rows, k), ascending along a row; zero-width panels
    are skipped. f(row, x) gets the row index of each panel, shape
    (panels,), and its nodes, shape (panels, 15), and returns values of
    shape (m, panels, 15). Place edges at the known location of a sharp peak
    so that the first call cannot step over it.

    The first call evaluates every initial panel. Each refinement round is
    one more call: in every row whose error of component 0 is above epsrel
    |I_0|, I_0 that row's integral of component 0, it halves the splittable
    panel with the largest error. A row's splits and sums depend on that row
    alone. A QuadratureError is raised when a sum of any component, or an
    error estimate, is not finite, when a row above its budget already has
    ``max_panels`` panels, or when its panels at float resolution alone hold
    more error than its budget.

    value has shape (m, rows) and error shape (rows,).
    """
    edges = np.asarray(edges, dtype=float)
    rows = len(edges)
    row, pan = np.nonzero(edges[:, 1:] > edges[:, :-1])
    lo, hi = edges[row, pan], edges[row, pan + 1]
    k, err = _rule(f, row, lo, hi)
    neval = 15 * lo.size
    while True:
        # per row, in panel order: a row's sums do not see the other rows
        val = np.stack([np.bincount(row, c, minlength=rows) for c in k])
        toterr = np.bincount(row, err, minlength=rows)
        if not (np.isfinite(val).all() and np.isfinite(toterr).all()):
            raise QuadratureError("non-finite integral or error estimate")
        budget = epsrel * np.abs(val[0])
        need = toterr > budget
        if not need.any():
            break
        mid = 0.5 * (lo + hi)
        split = (lo < mid) & (mid < hi)
        if np.any(need & (np.bincount(row, minlength=rows) >= max_panels)):
            raise QuadratureError(
                f"no convergence after {max_panels} panels: error "
                f"{toterr[need].max():.2e} vs target {budget[need].min():.2e}")
        locked = np.bincount(row, np.where(split, 0.0, err), minlength=rows)
        if np.any(need & (locked > budget)):
            raise QuadratureError(
                "panel at float resolution still above the error budget")
        # the worst splittable panel of each row that needs one: its left
        # half takes the panel's place, its right half goes last
        c = np.flatnonzero(split & need[row])
        c = c[np.lexsort((-err[c], row[c]))]
        worst = c[np.r_[True, row[c][1:] != row[c][:-1]]]
        halves = np.concatenate([row[worst], row[worst]])
        k2, e2 = _rule(f, halves, np.concatenate([lo[worst], mid[worst]]),
                       np.concatenate([mid[worst], hi[worst]]))
        neval += 15 * halves.size
        n = worst.size
        lo, hi = np.append(lo, mid[worst]), np.append(hi, hi[worst])
        hi[worst] = mid[worst]
        row = np.append(row, row[worst])
        k = np.concatenate([k, k2[:, n:]], axis=1)
        k[:, worst] = k2[:, :n]
        err = np.append(err, e2[n:])
        err[worst] = e2[:n]
    return QuadResult(val, toterr, neval)


def _itp(lo, g_lo, hi, g_hi, tol):
    """ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) as a coroutine: it
    yields each x at which it needs g, is sent g(x), and returns the
    midpoint of the final bracket as a float. bracket_root documents the
    step. A bracket of zero width returns its end whatever its tol."""
    if hi == lo or not hi - lo >= tol:
        return float(0.5 * (lo + hi))
    n_max = ceil(log2((hi - lo) / tol)) + 1 if tol > 0 else 200
    k1 = 0.2 / (hi - lo)
    for j in range(min(n_max, 200)):
        width = hi - lo
        if width < tol:
            break
        x = mid = 0.5 * (lo + hi)
        if isfinite(g_lo) and isfinite(g_hi):
            r = max(0.5 * tol * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
            delta = k1 * width * width
            xf = lo + width * g_lo / (g_lo - g_hi)
            sigma = 1.0 if mid >= xf else -1.0
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            x = xt if abs(xt - mid) <= r else mid - sigma * r
        y = float((yield x))
        if (y > 0) == (g_lo > 0):
            lo, g_lo = x, y
        else:
            hi, g_hi = x, y
    return float(0.5 * (lo + hi))


def bracket_root(g, lo, g_lo, hi, g_hi, tol):
    """Root of g in [lo, hi] by ITP (Oliveira & Takahashi, ACM TOMS 47(1),
    2020); returns the midpoint of the final bracket as a float.

    g_lo = g(lo) and g_hi = g(hi) lie on opposite sides: g > 0 is one side
    of the root and g <= 0 the other. A value of +-inf gives the side only,
    and while an end of the bracket has no finite value the step is the
    plain midpoint, so a g that only ever returns +-inf is bisection.
    Otherwise the regula falsi point is truncated toward the midpoint and
    projected into the ITP minmax disc, with the paper's constants
    k1 = 0.2/(hi - lo), k2 = 2 and n0 = 1.

    The bracket shrinks while hi - lo >= tol, for at most
    ceil(log2((hi - lo)/tol)) + 1 evaluations of g and never more than 200:
    at most one more than bisection, and far fewer on a smooth g.
    """
    # next / send straight on the coroutine, which builds nothing per step:
    # as a one-bracket bracket_roots, 300 cold CMFA gap roots (about 47 steps
    # each, once per (v, T)) took 20 ms instead of 5 ms on one Xeon core,
    # about +13 ms on figure 4's 269 distinct (v, T)
    steps = _itp(lo, g_lo, hi, g_hi, tol)
    try:
        x = next(steps)
        while True:
            x = steps.send(g(x))
    except StopIteration as done:
        return done.value


def bracket_roots(g, brackets):
    """The roots bracket_root finds for each argument tuple (lo, g_lo, hi,
    g_hi, tol) of ``brackets``, bit for bit, with the brackets stepped in
    lockstep.

    Each round calls g once, as g(which, xs), with the next x of every
    bracket still open, in bracket order, and ``which`` their indices into
    ``brackets``; it returns one value per x. A bracket narrower than its
    tol, or of zero width (lo == hi, whatever its tol), evaluates nothing
    and has the midpoint of its ends as its root: the limit scans pass a
    band edge that stays on its probe as such a bracket. The rounds end
    when every bracket has its root.
    """
    roots = [None] * len(brackets)
    live = {}                        # bracket index -> (coroutine, next x)
    for i, bracket in enumerate(brackets):
        steps = _itp(*bracket)
        try:
            live[i] = steps, next(steps)
        except StopIteration as done:
            roots[i] = done.value
    while live:
        which = list(live)
        ys = g(which, [live[i][1] for i in which])
        for i, y in zip(which, ys):
            steps = live[i][0]
            try:
                live[i] = steps, steps.send(y)
            except StopIteration as done:
                roots[i] = done.value
                del live[i]
    return roots
