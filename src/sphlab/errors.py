"""Exception types shared across the package."""


class SphlabError(Exception):
    """Base class for all package errors."""


class DomainError(SphlabError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptySphere(SphlabError):
    """The requested lattice sphere contains no points."""


class CapExceeded(SphlabError):
    """Sphere enumeration would exceed the caller-supplied point cap."""


class RegimeViolation(SphlabError):
    """A (dimension, squared-radius) pair violates a survey regime precondition."""


class RangeError(SphlabError):
    """An index parameter lies outside its admissible range."""


class InfeasibleScale(SphlabError):
    """A cost estimate exceeds the configured computational budget."""


class NonHermitianInput(SphlabError):
    """A matrix field flagged Hermitian fails the Hermitian check or has a non-finite entry."""
