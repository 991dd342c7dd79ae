"""Exceptions shared across the package.

Each of the three failure statuses of a sweep point has one class:
BreakdownError is ``breakdown``, NotApplicableError ``not-applicable``, and
any other XxzentError (DomainError, QuadratureError,
InconsistentMomentsError) ``error``.
"""


class XxzentError(Exception):
    """Base class for all package-specific failures."""


class DomainError(XxzentError, ValueError):
    """Arguments outside the validity domain of an operation."""


class BreakdownError(XxzentError):
    """RPA correction factor not positive: an imaginary collective mode left
    the Matsubara validity window (beta*|omega|/2 >= pi)."""

    def __init__(self, message, where=None, t_star=None):
        super().__init__(message)
        self.where = where          # offending (r, z) or mode index
        self.t_star = t_star        # estimated breakdown temperature, if known


class QuadratureError(XxzentError):
    """Adaptive integration failed to reach the requested error budget."""


class NotApplicableError(XxzentError):
    """Approximation formally defined but outside its applicability window:
    the CMFA in the normal phase, where it has no deformed saddle, at
    chi >= 1 or with a non-positive normal-phase RPA mode, and its
    concurrence for b > b* at T <= Ttilde, where it turns complex."""


class InconsistentMomentsError(XxzentError):
    """Collective moments produce a two-qubit density that is not positive
    semidefinite beyond tolerance."""
