"""Fully connected XXZ model: parameters, collective spectrum, degeneracies.

Conventions (attractive coupling, k = 1 throughout):

    H = b S_z - V [S_x^2 + S_y^2 + (1-gamma) S_z^2] + E0
      = b S_z - V [S^2 - gamma S_z^2] + E0,      V = v/n,  E0 = v(3-gamma)/4

so that every intensive energy E_SM/n stays finite for n -> infinity. The
additive constant E0 is always kept: partition functions are then comparable
bit-for-bit across the exact/CSPA/CMFA tiers.

Eigenvalues are labelled by total spin S and projection M,

    E_SM = b M - V [S(S+1) - gamma M^2] + E0,

with S = delta, ..., n/2 (delta = 0 for even n, 1/2 for odd n), M = -S..S, and
each (S, M) level carrying the multiplicity Y(S) of spin-S multiplets.

Half-integer spins are carried as doubled integers (2S, 2M) internally, which
removes any floating-point parity ambiguity for odd n.

ln Y(S) comes from lgamma (:func:`log_multiplicity`, and
:func:`log_multiplicity_span` for a run of sectors, bit for bit the same),
whose terms grow like n ln n: against mpmath its absolute error reaches
2.6e-11 at n = 10^4, 2.2e-9 at 10^6, 4.2e-8 at 10^7, 4.4e-7 at 10^8 and
5.7e-6 at 10^9 (the largest over about 100 sectors each, spread over the
domain and its top). Nothing is tabulated or kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isfinite, lgamma, log1p

import numpy as np

from .errors import DomainError

__all__ = [
    "ModelParams",
    "CrossingFields",
    "level_energy",
    "multiplicity",
    "log_multiplicity",
    "log_multiplicity_span",
    "two_s_range",
    "crossing_fields",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameter tuple (n, v, gamma, b, T).

    Energies (v, b, T) share one unit; v > 0 is the attractive coupling
    strength, gamma <= 1 the anisotropy, b the transverse field and T the
    temperature (T = 0 selects the ground-state code paths). All four must
    be finite, and so must beta = 1/T at T > 0.
    """

    n: int
    v: float = 1.0
    gamma: float = 1.0
    b: float = 0.0
    T: float = 0.0

    def __post_init__(self):
        try:
            whole = int(self.n) == self.n >= 2
        except (TypeError, ValueError, OverflowError):   # None, nan, inf
            whole = False
        if not whole:
            raise DomainError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not self.v > 0:
            raise DomainError(f"attractive case only: v must be > 0, got {self.v}")
        if self.gamma > 1:
            raise DomainError(f"gamma must be <= 1, got {self.gamma}")
        if self.T < 0:
            raise DomainError(f"T must be >= 0, got {self.T}")
        for name in ("v", "gamma", "b", "T"):
            x = getattr(self, name)
            if not isfinite(x):
                raise DomainError(f"{name} must be finite, got {x}")
        if self.T > 0 and not isfinite(1.0 / self.T):
            raise DomainError(f"beta = 1/T overflows at T = {self.T}")

    @property
    def V(self) -> float:
        """Intensive coupling V = v/n."""
        return self.v / self.n

    @property
    def E0(self) -> float:
        """Additive constant E0 = v(3-gamma)/4."""
        return self.v * (3.0 - self.gamma) / 4.0

    @property
    def beta(self) -> float:
        if self.T <= 0:
            raise DomainError("beta undefined at T = 0")
        return 1.0 / self.T

    @property
    def b_c(self) -> float:
        """T = 0 limit field gamma*v*(1 - 1/n); 0 for gamma <= 0."""
        if self.gamma <= 0:
            return 0.0
        return self.gamma * self.v * (1.0 - 1.0 / self.n)

    def replace(self, **kw) -> "ModelParams":
        # as dataclasses.replace, __post_init__ included, at less cost per
        # call: sweeps and limit scans build every point through it
        return ModelParams(**{**self.__dict__, **kw})


@dataclass(frozen=True)
class CrossingFields:
    """Ground-state level-crossing fields.

    ``fields`` lists the n crossing fields b_M = gamma*v*(1-2M)/n (transitions
    M -> M-1 within S = n/2), ascending; ``b_c`` is the largest one,
    gamma*v*(1-1/n), beyond which the ground state is fully aligned. For
    gamma <= 0 the list is empty and ``aligned`` is set: the ground state is
    aligned for every b != 0 and never pair-entangled.
    """

    fields: tuple
    b_c: float
    aligned: bool


def _check_s(n: int, two_S: int):
    if two_S < (n % 2) or two_S > n or (two_S - n) % 2 != 0:
        raise DomainError(f"S = {two_S/2} invalid for n = {n}")


def _check_sm(n: int, two_S: int, two_M: int):
    _check_s(n, two_S)
    if abs(two_M) > two_S or (two_M - two_S) % 2 != 0:
        raise DomainError(f"M = {two_M/2} invalid for S = {two_S/2}")


def _doubled(x, name: str) -> int:
    two_x = 2.0 * x
    if abs(two_x - round(two_x)) > 1e-9:
        raise DomainError(f"{name} = {x} is not integer or half-integer")
    return int(round(two_x))


def level_energy(params: ModelParams, S, M) -> float:
    """Energy E_SM = b M - (v/n)[S(S+1) - gamma M^2] + E0 of a collective level.

    S and M may be integers or half-integers, consistent with n parity.
    """
    two_S = _doubled(S, "S")
    two_M = _doubled(M, "M")
    _check_sm(params.n, two_S, two_M)
    return _level_energy_2(params, two_S, two_M)


def _level_energy_2(params: ModelParams, two_S, two_M):
    """Level energy from doubled quantum numbers (array-friendly)."""
    S = np.asarray(two_S, dtype=float) / 2.0
    M = np.asarray(two_M, dtype=float) / 2.0
    E = params.b * M - params.V * (S * (S + 1.0) - params.gamma * M * M) + params.E0
    return float(E) if E.ndim == 0 else E


def multiplicity(n: int, S) -> int:
    """Multiplicity Y(S) = C(n, n/2-S) - C(n, n/2-S-1) of spin-S multiplets.

    Exact integer arithmetic: never overflows and the sum rule
    sum_S Y(S)(2S+1) = 2^n holds exactly for any n.
    """
    two_S = _doubled(S, "S")
    _check_s(n, two_S)
    k = (n - two_S) // 2
    lower = comb(n, k - 1) if k >= 1 else 0
    return comb(n, k) - lower


def log_multiplicity(n: int, two_S: int) -> float:
    """ln Y(S) from doubled 2S, via log-gamma; no overflow at any n."""
    _check_s(n, two_S)
    k = (n - two_S) // 2
    lc = lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
    if k == 0:
        return lc
    # C(n,k-1)/C(n,k) = k/(n-k+1) < 1 for k <= n/2
    return lc + log1p(-k / (n - k + 1.0))


def log_multiplicity_span(n: int, start: int, stop: int) -> np.ndarray:
    """ln Y(S) for the sectors two_s_range(n)[start:stop], 2S ascending.

    Bit-identical to :func:`log_multiplicity` element by element: the same
    terms, combined in the same order, with lgamma and log1p from ``math``.
    It takes 2 (stop - start) + 1 lgamma calls, whatever n.
    """
    h = n // 2
    k = np.arange(h - start, h - stop, -1.0)        # k = (n - 2S) / 2
    lk = np.fromiter(map(lgamma, range(h - start + 1, h - stop + 1, -1)),
                     float, k.size)                 # lgamma(k + 1)
    lnk = np.fromiter(map(lgamma, range(n - h + start + 1, n - h + stop + 1)),
                      float, k.size)                # lgamma(n - k + 1)
    lc = lgamma(n + 1) - lk - lnk
    x = -k / (n - k + 1.0)
    return lc + np.fromiter(map(log1p, x.tolist()), float, k.size)


def two_s_range(n: int):
    """Doubled total-spin values 2S = n mod 2, ..., n (ascending)."""
    return range(n % 2, n + 1, 2)


def crossing_fields(params: ModelParams) -> CrossingFields:
    """Ground-state crossing fields b_M and the T = 0 limit field b_c.

    The n transitions M -> M-1 of the S = n/2 ground state happen at
    b_M = gamma*v*(1-2M)/n for M = -n/2+1, ..., n/2; for b > 0 the relevant
    crossings are those with b_M > 0, the last being b_c = gamma*v*(1-1/n).
    """
    if params.gamma <= 0:
        return CrossingFields(fields=(), b_c=0.0, aligned=True)
    n, g, v = params.n, params.gamma, params.v
    fields = sorted(g * v * (1.0 - two_M) / n for two_M in range(-n + 2, n + 1, 2))
    return CrossingFields(fields=tuple(fields), b_c=params.b_c, aligned=False)
