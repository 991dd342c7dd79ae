"""Adaptive Gauss-Kronrod quadrature with vectorized integrands.

A (7, 15)-point Gauss-Kronrod pair on each panel, worst-panel-first interval
bisection, and an error estimate per panel from |K15 - G7|. The integrand is
called with a numpy array of abscissae and must return an array of values, so
panels cost one vectorized call each; this is what keeps the CSPA integrals
cheap enough for root finding on top of them. A stacked integrand returns
shape (m, len(x)): all m components share the panels, and refinement follows
the error of component 0 alone.

bisect is the bracketing root finder shared by the CMFA gap, the CSPA
breakdown temperature and the limit-scan band edges; the rpa engine keeps
its own so that it stays an independent check.

Node and weight constants are the standard QUADPACK dqk15 values.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureError

__all__ = ["quad_gk", "QuadResult", "bisect"]

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


def _panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = np.asarray(f(x), dtype=float)
    k = half * (y @ _WK)
    g = half * (y @ _WGFULL)
    if y.ndim == 1:
        return float(k), abs(float(k) - float(g))
    return k, abs(float(k[0]) - float(g[0]))


def quad_gk(f, a, b, *, epsabs=1e-12, epsrel=1e-10, initial_points=None,
            max_panels=2000):
    """Integrate a vectorized callable f over [a, b].

    A stacked f (see the module docstring) gives an array value; its error
    and the error budget refer to component 0.

    ``initial_points`` seeds the panel boundaries (pass the known location of
    a sharp peak so the first pass cannot step over it). Refinement always
    splits the panel with the largest error estimate; a QuadratureError is
    raised when the budget is still missed after ``max_panels`` panels.
    """
    pts = [a, b] if not initial_points else sorted({a, b, *(
        p for p in initial_points if a < p < b)})
    heap = []          # splittable panels, worst first
    done_err = 0.0     # error locked in panels at float resolution
    total = 0.0
    toterr = 0.0
    neval = 0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = _panel(f, lo, hi)
        neval += 15
        total += val
        toterr += err
        heapq.heappush(heap, (-err, lo, hi, val))
    npanels = len(heap)

    def budget():
        return max(epsabs, epsrel * abs(float(np.ravel(total)[0])))

    while toterr > budget() and heap:
        if npanels >= max_panels:
            raise QuadratureError(
                f"no convergence after {npanels} panels: error {toterr:.2e} "
                f"vs target {budget():.2e}")
        negerr, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution: stop splitting it, keep its error
            done_err += -negerr
            if done_err > budget():
                raise QuadratureError(
                    "panel at float resolution still above the error budget")
            continue
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        neval += 30
        total += v1 + v2 - val
        toterr += e1 + e2 + negerr           # negerr is -err of the parent
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        npanels += 1
    return QuadResult(total, toterr, neval)


def bisect(moves_lo, lo, hi, tol):
    """Halve [lo, hi] while hi - lo >= tol, at most 200 times; return the
    final midpoint.

    A midpoint replaces lo where ``moves_lo(mid)`` is true and hi otherwise,
    so ``moves_lo`` is true on the lo side of the root sought.
    """
    for _ in range(200):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if moves_lo(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
