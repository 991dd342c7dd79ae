"""Finite-temperature RPA machinery for separable quadratic Hamiltonians.

Applies to any Hamiltonian of the shape

    H = sum_i H0_i - (1/2) sum_nu v_nu (Q^nu)^2,     Q^nu = sum_i Q^nu_i,

with v_nu > 0 and local operators Q^nu_i. Everything is built from the
linearized local problems

    h_i(x) = H0_i - sum_nu x_nu Q^nu_i,

their eigensystems eps_k, |k_i> and occupations p_k = e^{-beta eps_k}/tr.

The chain provided here:

  * response matrix  R_nunu'(x, w) over local excitation pairs,
  * RPA energies as eigenvalues of the non-symmetric pair-space matrix
        A_aa' = lambda_a delta_aa' + p_a sum_nu v_nu Q^nu_{-a} Q^nu_{a'},
    cross-checked against the roots of Det[delta + v R(w)] = 0,
  * the thermal correction factor
        C_RPA = prod_{a>0} [w_a sinh(beta lam_a/2)] / [lam_a sinh(beta w_a/2)],
    evaluated as a ratio of products of g(u) = sinh(beta u/2)/(beta u/2) over
    the positive pole and root multisets, which needs no pairing of
    individual modes and stays finite for w -> 0.  Imaginary modes are
    continued with w/sinh(beta w/2) -> |w|/sin(beta |w|/2), valid exactly
    while beta|w|/2 < pi, i.e. while w^2 + (2 pi T)^2 > 0; beyond that the
    factor is not positive and a BreakdownError carries the mode out.
  * self-consistent Hartree fixed point x_nu = v_nu <Q^nu>_x with the static
    free energy F(x) = sum x^2/2v - T ln Z(x),
  * the static Gaussian factor C_0 = Det[v_nu d2F/dx dx']^{-1/2} over the
    non-degenerate (intrinsic) directions, with Goldstone directions detected
    by near-zero Hessian eigenvalues and excluded.

Identical sites are detected and diagonalized once.

This is a test oracle for the cspa and cmfa tiers: it imports nothing from
xxzent but the error types, so it shares no code with what it checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import log, pi, sinh, sqrt

import numpy as np

from xxzent.errors import BreakdownError, DomainError, NotApplicableError

__all__ = [
    "LocalSite",
    "StaticConfiguration",
    "RpaSpectrum",
    "HartreeResult",
    "linearize",
    "response_matrix",
    "rpa_energies",
    "c_rpa",
    "log_c_rpa",
    "hartree_solve",
    "c0_factor",
    "free_energy",
    "xxz_sites",
]

DEGENERATE_PAIR_TOL = 1e-12


class ConvergenceError(Exception):
    """The Hartree iteration did not converge from a seed."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LocalSite:
    """One subsystem: local Hamiltonian h0 (d x d) and coupling operators."""

    h0: np.ndarray
    q_ops: tuple

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        d = h0.shape[0]
        if h0.shape != (d, d) or not np.allclose(h0, h0.conj().T, atol=1e-12):
            raise DomainError("h0 must be a hermitian square matrix")
        qs = tuple(np.asarray(q, dtype=complex) for q in self.q_ops)
        for q in qs:
            if q.shape != (d, d):
                raise DomainError("coupling operators must match the h0 dimension")
            if not np.allclose(q, q.conj().T, atol=1e-12):
                raise DomainError("coupling operators must be hermitian "
                                  "(use the i*Q trick for the v_nu > 0 convention)")
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "q_ops", qs)

    @property
    def dim(self):
        return self.h0.shape[0]

    @property
    def n_ops(self):
        return len(self.q_ops)


@dataclass
class StaticConfiguration:
    """Per-site eigensystems of the linearized h_i(x) at one static point."""

    sites: tuple
    x: np.ndarray
    T: float
    eps: list          # per site, eigenvalues ascending
    occ: list          # per site, thermal occupations
    q_eig: list        # per site, coupling operators in the eigenbasis

    @property
    def beta(self):
        return 1.0 / self.T

    def log_z(self) -> float:
        """ln Z(x) = sum_i ln tr exp(-beta h_i(x))."""
        out = 0.0
        for e in self.eps:
            m = (-self.beta * e).max()
            out += m + log(np.exp(-self.beta * e - m).sum())
        return out


@dataclass
class RpaSpectrum:
    """RPA energies around one static configuration.

    ``omegas`` holds all eigenvalues of the pair-space matrix (they come in
    +- pairs); ``lambdas`` the unperturbed local gaps entering the C_RPA
    product with the same multiplicity. ``valid`` is the positivity condition
    of the RPA factor, Re(w^2) + (2 pi T)^2 > 0 for every mode.
    """

    omegas: np.ndarray
    lambdas: np.ndarray
    valid: bool
    T: float
    excluded_pairs: int = 0
    det_residual: float = 0.0
    c_rpa: float | None = None
    c0: float | None = None


def _identical_sites(sites) -> bool:
    first = sites[0]
    for s in sites[1:]:
        if s is first:
            continue
        if s.dim != first.dim or s.n_ops != first.n_ops:
            return False
        if not np.array_equal(s.h0, first.h0):
            return False
        if any(not np.array_equal(a, b) for a, b in zip(s.q_ops, first.q_ops)):
            return False
    return True


def linearize(sites, x, T: float) -> StaticConfiguration:
    """Diagonalize h_i(x) = H0_i - sum_nu x_nu Q^nu_i on every site.

    All sites identical is the fast path: one diagonalization reused n times.
    """
    if T <= 0:
        raise DomainError("linearize requires T > 0")
    sites = tuple(sites)
    x = np.asarray(x, dtype=float)
    n_ops = sites[0].n_ops
    if x.shape != (n_ops,):
        raise DomainError(f"x must have one entry per coupling operator ({n_ops})")
    beta = 1.0 / T

    def solve(site):
        h = site.h0 - sum(xv * q for xv, q in zip(x, site.q_ops))
        if not np.allclose(h, h.conj().T, atol=1e-12):
            raise DomainError("linearized local Hamiltonian is not hermitian")
        eps, U = np.linalg.eigh(h)
        w = np.exp(-beta * (eps - eps.min()))
        occ = w / w.sum()
        q_eig = [U.conj().T @ q @ U for q in site.q_ops]
        return eps, occ, q_eig

    if _identical_sites(sites):
        eps, occ, q_eig = solve(sites[0])
        return StaticConfiguration(sites=sites, x=x, T=T,
                                   eps=[eps] * len(sites),
                                   occ=[occ] * len(sites),
                                   q_eig=[q_eig] * len(sites))
    out = [solve(s) for s in sites]
    return StaticConfiguration(sites=sites, x=x, T=T,
                               eps=[o[0] for o in out],
                               occ=[o[1] for o in out],
                               q_eig=[o[2] for o in out])


def _pair_data(config: StaticConfiguration):
    """Flattened local-excitation pairs (k != k'), degenerate pairs excluded.

    Returns (lam, pocc, qmat, n_excluded): energies lam_a, occupation
    differences p_a, and the matrix elements Q^nu_a = <k|Q^nu|k'> stacked as
    (n_ops, n_pairs). Exact local degeneracies |lam| < tol*scale cannot be
    oriented by the response denominators and are dropped (they decouple from
    the pair-space matrix and contribute a factor 1 to C_RPA).
    """
    lam, pocc, qcols = [], [], []
    scale = 0.0
    for e in config.eps:
        if e.size:
            scale = max(scale, float(np.abs(e).max()), float(e.max() - e.min()))
    tol = DEGENERATE_PAIR_TOL * max(scale, 1.0)
    excluded = 0
    for eps, occ, q_eig in zip(config.eps, config.occ, config.q_eig):
        d = eps.size
        for k in range(d):
            for kp in range(d):
                if k == kp:
                    continue
                dl = eps[k] - eps[kp]
                if abs(dl) < tol:
                    excluded += 1
                    continue
                lam.append(dl)
                pocc.append(occ[k] - occ[kp])
                qcols.append([q[k, kp] for q in q_eig])
    lam = np.array(lam)
    pocc = np.array(pocc)
    qmat = np.array(qcols, dtype=complex).T if qcols else np.zeros((0, 0))
    return lam, pocc, qmat, excluded


def response_matrix(config: StaticConfiguration, omega) -> np.ndarray:
    """Generalized response R_nunu'(x, w), summed over sites and local pairs:

        R_nunu' = sum_{i, k != k'} <k|Q^nu|k'><k'|Q^nu'|k> (p_k - p_k')
                                   / (eps_k - eps_k' + w)

    ``omega`` may be complex (use i*omega_n for Matsubara arguments); a real
    omega sitting on a local gap is a pole and raises DomainError.
    """
    lam, pocc, qmat, _ = _pair_data(config)
    if lam.size == 0:
        return np.zeros((config.sites[0].n_ops,) * 2, dtype=complex)
    den = lam + omega
    scale = float(np.abs(lam).max())
    if np.any(np.abs(den) < 1e-12 * max(scale, 1.0)):
        raise DomainError(f"response matrix evaluated at a pole: omega = {omega}")
    w = pocc / den
    return (qmat * w) @ qmat.conj().T * 1.0  # (nu, a) x (a, nu')


def _pair_matrix(config: StaticConfiguration, couplings):
    lam, pocc, qmat, excluded = _pair_data(config)
    v = np.asarray(couplings, dtype=float)
    if np.any(v < 0):
        raise DomainError("couplings v_nu must be >= 0 in the diagonal form")
    if lam.size == 0:
        return np.zeros((0, 0)), lam, excluded
    # A_aa' = lam_a delta + p_a sum_nu v_nu Q^nu_{-a} Q^nu_{a'};
    # Q^nu_{-a} = <k'|Q^nu|k> = conj(Q^nu_a) for hermitian Q
    A = np.diag(lam).astype(complex)
    A += (pocc[:, None] * qmat.conj().T) @ (v[:, None] * qmat)
    return A, lam, excluded


def rpa_energies(config: StaticConfiguration, couplings,
                 check_roots: bool = True) -> RpaSpectrum:
    """RPA energies as the eigenvalue multiset of the pair-space matrix.

    Real eigenvalues away from the unperturbed gaps are verified to zero the
    response determinant (the root-condition route) to 1e-8; the worst normalized
    residual is reported on the spectrum.
    """
    A, lam, excluded = _pair_matrix(config, couplings)
    if A.shape[0] == 0:
        omegas = np.zeros(0, dtype=complex)
        return RpaSpectrum(omegas=omegas, lambdas=lam, valid=True, T=config.T,
                           excluded_pairs=excluded)
    omegas = np.linalg.eigvals(A)
    scale = max(float(np.abs(lam).max()), 1e-300)
    # classify: real / imaginary / genuinely complex
    re, im = omegas.real, omegas.imag
    is_real = np.abs(im) < 1e-9 * scale
    is_imag = ~is_real & (np.abs(re) < 1e-9 * scale)
    complex_modes = np.any(~is_real & ~is_imag)
    omega1_sq = (2.0 * pi * config.T) ** 2
    w2 = np.where(is_real, re ** 2, np.where(is_imag, -(im ** 2), np.nan))
    valid = (not complex_modes) and bool(np.all(w2[np.isfinite(w2)] + omega1_sq > 0))

    det_residual = 0.0
    if check_roots:
        v = np.asarray(couplings, dtype=float)
        nops = config.sites[0].n_ops
        for w in omegas[is_real & (re > 1e-9 * scale)]:
            if np.min(np.abs(lam - w.real)) < 1e-6 * scale:
                continue  # mode glued to a pole: determinant form is singular
            R = response_matrix(config, w.real)
            det = np.linalg.det(np.eye(nops) + v[:, None] * R)
            det_residual = max(det_residual, abs(det))
    return RpaSpectrum(omegas=omegas, lambdas=lam, valid=valid, T=config.T,
                       excluded_pairs=excluded, det_residual=float(det_residual))


def _log_g_even(w2: float, beta: float):
    """ln[sinh(x)/x] as an even function of the mode energy, x^2 = beta^2 w2 / 4.

    Continued to negative w2 (imaginary modes) as ln[sin(y)/y], valid for
    y < pi only; returns None past the window (the C_RPA > 0 breakdown).
    """
    x2 = 0.25 * beta * beta * w2
    if abs(x2) < 1e-10:
        return x2 / 6.0 - x2 * x2 / 180.0
    if x2 > 0:
        x = sqrt(x2)
        if x > 20.0:
            return x - log(x) - log(2.0) + np.log1p(-np.exp(-2.0 * x))
        return log(sinh(x) / x)
    y = sqrt(-x2)
    if y >= pi:
        return None
    return log(np.sin(y) / y)


def log_c_rpa(spectrum: RpaSpectrum) -> float:
    """ln C_RPA = sum_{a>0} { ln g(lam_a) - ln g(w_a) }, g(u) = sinh(bu/2)/(bu/2).

    Uses the positive halves of the pole and root multisets; modes with
    w_a = lam_a (the generic non-collective ones) cancel exactly.
    """
    beta = 1.0 / spectrum.T
    scale = max(float(np.abs(spectrum.lambdas).max()) if spectrum.lambdas.size else 0.0,
                1e-300)
    re, im = spectrum.omegas.real, spectrum.omegas.imag
    is_real = np.abs(im) < 1e-9 * scale
    is_imag = ~is_real & (np.abs(re) < 1e-9 * scale)
    if np.any(~is_real & ~is_imag):
        bad = spectrum.omegas[~is_real & ~is_imag][0]
        raise BreakdownError(f"complex RPA energy {bad}: beyond the real/imaginary "
                             "classification this treatment supports", where=bad)
    out = 0.0
    for lam in spectrum.lambdas[spectrum.lambdas > 0]:
        out += _log_g_even(lam * lam, beta)
    # positive half of the root multiset: Re > 0, or purely imaginary with Im > 0
    pos = (is_real & (re > 0)) | (is_imag & (im > 0))
    for w in spectrum.omegas[pos]:
        w2 = w.real ** 2 if abs(w.imag) < 1e-9 * scale else -(w.imag ** 2)
        g = _log_g_even(w2, beta)
        if g is None:
            raise BreakdownError(
                f"imaginary RPA energy {w:.6g} outside the Matsubara window "
                f"(beta |w|/2 >= pi): C_RPA not positive", where=w,
                t_star=abs(w.imag) / (2.0 * pi))
        out -= g
    return out


def c_rpa(spectrum: RpaSpectrum, T: float | None = None) -> float:
    """The RPA correction factor itself (see log_c_rpa)."""
    if T is not None and abs(T - spectrum.T) > 1e-15 * max(T, spectrum.T):
        raise DomainError("temperature does not match the spectrum")
    val = float(np.exp(log_c_rpa(spectrum)))
    spectrum.c_rpa = val
    return val


def free_energy(sites, couplings, x, T: float) -> float:
    """Static free energy F(x) = sum_nu x_nu^2/(2 v_nu) - T ln Z(x)."""
    v = np.asarray(couplings, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any((v <= 0) & (x != 0)):
        raise DomainError("nonzero static field along a zero coupling")
    quad = 0.5 * float((x[v > 0] ** 2 / v[v > 0]).sum())
    return quad - T * linearize(sites, x, T).log_z()


@dataclass
class HartreeResult:
    config: StaticConfiguration
    x: np.ndarray
    free_energy: float
    iterations: int
    residual: float


def _mean_fields(config: StaticConfiguration) -> np.ndarray:
    """<Q^nu>_x = sum_{i,k} p_k <k|Q^nu|k> (real for hermitian Q)."""
    out = np.zeros(config.sites[0].n_ops)
    for occ, q_eig in zip(config.occ, config.q_eig):
        for nu, q in enumerate(q_eig):
            out[nu] += float((occ * np.diag(q).real).sum())
    return out


def _fixed_point(sites, couplings, T, x0, damping, tol, max_iter):
    v = np.asarray(couplings, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    scale = max(float(np.abs(v).max()), 1e-12)
    history = []
    for it in range(1, max_iter + 1):
        config = linearize(sites, x, T)
        target = v * _mean_fields(config)
        res = float(np.abs(target - x).max())
        if res < tol * scale:
            return x, it, res
        history.append(x.copy())
        x = (1.0 - damping) * x + damping * target
        # stalled but direction-stable iterations switch to radial bisection
        if it % 500 == 0 and len(history) > 10:
            u_now = x / max(np.linalg.norm(x), 1e-300)
            u_then = history[-10] / max(np.linalg.norm(history[-10]), 1e-300)
            if np.linalg.norm(u_now - u_then) < 1e-10 and np.linalg.norm(x) > 0:
                xr = _radial_bisect(sites, couplings, T, u_now,
                                    hi=2.0 * max(np.linalg.norm(x), scale), tol=tol)
                if xr is not None:
                    config = linearize(sites, xr, T)
                    res = float(np.abs(v * _mean_fields(config) - xr).max())
                    return xr, it, res
    raise ConvergenceError(
        f"Hartree iteration stalled after {max_iter} iterations", residual=res)


def _radial_bisect(sites, couplings, T, u, hi, tol, iters=200):
    """Scalar reduction along the fixed direction u: solve s = u . v<Q>(s u)."""
    v = np.asarray(couplings, dtype=float)

    def g(s):
        cfg = linearize(sites, s * u, T)
        return float(u @ (v * _mean_fields(cfg))) - s

    lo = 1e-12 * hi
    if g(lo) <= 0:
        return None
    shi = hi
    for _ in range(60):
        if g(shi) < 0:
            break
        shi *= 2.0
    else:
        return None
    slo = lo
    for _ in range(iters):
        mid = 0.5 * (slo + shi)
        if g(mid) > 0:
            slo = mid
        else:
            shi = mid
        if shi - slo < tol * max(1.0, shi):
            break
    return 0.5 * (slo + shi) * u


def hartree_solve(sites, couplings, T: float, x0, damping: float = 0.5,
                  tol: float = 1e-12, max_iter: int = 10000) -> HartreeResult:
    """Damped fixed-point solution of x_nu = v_nu <Q^nu>_x.

    Seeds the iteration from x0, from the origin, and from a rescaled x0, and
    returns the solution of lowest static free energy F(x) among those found
    (the origin is always a fixed point of symmetric problems, so symmetry
    breaking needs a nonzero seed).
    """
    sites = tuple(sites)
    x0 = np.asarray(x0, dtype=float)
    seeds = [x0]
    if np.linalg.norm(x0) > 0:
        seeds.append(0.5 * x0)
    seeds.append(np.zeros_like(x0))
    solutions = []
    last_err = None
    for seed in seeds:
        try:
            x, it, res = _fixed_point(sites, couplings, T, seed, damping, tol,
                                      max_iter)
        except ConvergenceError as err:
            last_err = err
            continue
        if not any(np.allclose(x, xs, atol=1e-8) for xs, _, _ in solutions):
            solutions.append((x, it, res))
    if not solutions:
        raise last_err
    best = min(solutions, key=lambda s: free_energy(sites, couplings, s[0], T))
    x, it, res = best
    return HartreeResult(config=linearize(sites, x, T), x=x,
                         free_energy=free_energy(sites, couplings, x, T),
                         iterations=it, residual=res)


def _curie_matrix(config: StaticConfiguration) -> np.ndarray:
    """sum_{i,k} <k|Q^nu|k> dp_k/dx_nu' =
       beta sum_i [ <Q^nu Q^nu'>_diag - <Q^nu><Q^nu'> ]_i  (per-site covariance)."""
    nops = config.sites[0].n_ops
    out = np.zeros((nops, nops))
    beta = config.beta
    for occ, q_eig in zip(config.occ, config.q_eig):
        d = np.array([np.diag(q).real for q in q_eig])   # (nu, k)
        mean = d @ occ
        cov = (d * occ) @ d.T - np.outer(mean, mean)
        out += beta * cov
    return out


def c0_factor(config: StaticConfiguration, couplings,
              goldstone_tol: float = 1e-8) -> float:
    """Static Gaussian fluctuation factor C_0 = Det[v dF2]^{-1/2}.

    The matrix v_nu d^2F/dx_nu dx_nu' equals delta + v_nu (R_nunu'(x,0)
    - Curie term); its spectrum is computed through the symmetrized form
    sqrt(v) H sqrt(v), which is dimensionless and O(1) away from critical
    points. Eigenvalues below ``goldstone_tol`` (times the spectral scale,
    floored at 1) are treated as Goldstone directions and excluded per the
    intrinsic-variable prescription; a negative retained eigenvalue means the
    configuration is a saddle, which is an error here.

    Note: for a broken continuous symmetry the full saddle-point partition
    function also carries the orbit volume of the degenerate directions
    (e.g. 2 pi r0 times the Gaussian measure normalization for one broken
    O(2) direction); that bookkeeping is the caller's, this factor covers the
    intrinsic fluctuations only.
    """
    v = np.asarray(couplings, dtype=float)
    live = np.where(v > 0)[0]
    if live.size == 0:
        return 1.0
    R0 = response_matrix(config, 0.0)
    if np.abs(R0.imag).max() > 1e-10 * max(np.abs(R0).max(), 1.0):
        raise DomainError("static response unexpectedly complex")
    H = (R0.real - _curie_matrix(config))[np.ix_(live, live)]
    H += np.diag(1.0 / v[live])
    rv = np.sqrt(v[live])
    S = rv[:, None] * H * rv[None, :]
    S = 0.5 * (S + S.T)
    evals = np.linalg.eigvalsh(S)
    scale = max(float(np.abs(evals).max()), 1.0)
    kept = evals[np.abs(evals) > goldstone_tol * scale]
    if np.any(kept < 0):
        raise NotApplicableError(
            f"saddle point: fluctuation Hessian has negative eigenvalue "
            f"{kept.min():.3e}; C_0 is defined at free-energy minima only")
    if kept.size and kept.min() < 1e-4:
        warnings.warn("near-critical static fluctuations: C_0 is diverging "
                      "(soft Hessian direction)", RuntimeWarning, stacklevel=2)
    val = float(np.prod(kept ** -0.5)) if kept.size else 1.0
    return val


def xxz_sites(params) -> tuple:
    """(sites, couplings) of the fully connected XXZ model in diagonal form.

    H = b S_z + E0 - (1/2)[ 2V S_x^2 + 2V S_y^2 + 2V(1-gamma) S_z^2 ] with
    V = v/n; the S_z^2 channel drops out at gamma = 1. E0 is spread evenly
    over the local h0 so ln Z(x) matches the other tiers' conventions.
    """
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.array([[0.5, 0.0], [0.0, -0.5]])
    h0 = params.b * sz + (params.E0 / params.n) * np.eye(2)
    two_v = 2.0 * params.V
    qs = [sx, sy]
    vs = [two_v, two_v]
    if params.gamma < 1.0:
        qs.append(sz)
        vs.append(two_v * (1.0 - params.gamma))
    site = LocalSite(h0=h0, q_ops=tuple(qs))
    return (site,) * params.n, np.array(vs)
