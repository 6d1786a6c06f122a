"""Exception taxonomy.

Two families matter to callers: ``DomainError`` for bad inputs (the CLI maps
these to exit code 1) and ``NumericalError`` for computations that ran but
could not meet their accuracy or certification contract (exit code 2).
"""

from __future__ import annotations


class UnityRootError(Exception):
    """Base class for every error raised by this package."""


class DomainError(UnityRootError):
    """The request itself is invalid (bad argument, empty domain)."""


class NumericalError(UnityRootError):
    """The computation ran but failed a numerical contract."""


class DivisionByZero(DomainError):
    """Division by an exact zero."""


class NegativeSqrt(DomainError):
    """Square root of a negative value."""


class InvalidN(DomainError):
    """The index n is outside the operation's domain."""


class InvalidM(DomainError, ValueError):
    """The power m is outside 1 <= m <= n."""


class InvalidPrecision(DomainError, ValueError):
    """The working precision is below hpreal.MIN_PRECISION bits."""


class ZeroTarget(DomainError):
    """z^n = c was requested with c = 0."""


class DomainViolation(DomainError):
    """Argument outside a map's domain by more than the clamping tolerance."""


class NotPrime(DomainError):
    """A prime n was required."""


class NotARoot(DomainError):
    """The value is not an n-th root of unity within tolerance."""


class NoConvergence(NumericalError):
    """Iteration cap reached, or the solution set failed a sanity bound."""


class NonDescent(NumericalError):
    """The descent sequence failed to decrease strictly."""


class StepLimit(NumericalError):
    """The descent sequence did not terminate within the step budget."""


class CertificateFailure(NumericalError):
    """One or more certificate checks failed.

    Attributes:
        certificate: the completed certificate with per-check results.
        failed: names of the failed checks, in schema order.
    """

    def __init__(self, certificate, failed):
        self.certificate = certificate
        self.failed = list(failed)
        super().__init__("certificate checks failed: " + ", ".join(self.failed))
