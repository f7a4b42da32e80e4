"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`FinslerError`, so callers can catch one base type at the CLI
boundary and map it to an exit code.
"""

from __future__ import annotations


class FinslerError(Exception):
    """Base class for all package errors."""


class DomainError(FinslerError):
    """A phase point lies outside the metric's domain (guard violated), or
    a value computed there leaves the float range."""


class PoleError(FinslerError):
    """Division by a quantity whose value part is zero."""


class BranchError(FinslerError):
    """sqrt/ln/fractional power applied at a non-positive value part."""


class OrderError(FinslerError):
    """A derivative of higher order than the jet carries was requested."""


class SignatureError(FinslerError):
    """Two jets with different (dimension, order) signatures were combined."""


class HomogeneityError(FinslerError):
    """A candidate metric function is not positively 2-homogeneous in y."""


class DimensionError(FinslerError):
    """A variable index exceeds the declared dimension, or a vector has
    the wrong length."""


class FamilyError(FinslerError):
    """Unknown metric family, or an operation restricted to one family
    was applied to another."""


class SingularMetricError(FinslerError):
    """The fundamental tensor is numerically singular at the point."""


class ExpressionSyntaxError(FinslerError):
    """Malformed expression text.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(FinslerError):
    """Malformed metric description: missing keys, asymmetric component
    matrix, non-positive reference density, and similar defects."""


class StepFailure(FinslerError):
    """The adaptive integrator could not continue (step size underflow).

    The partial trajectory computed so far is attached as ``trajectory``.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class UnknownFieldError(FinslerError):
    """A scalar-field identifier is not registered for the metric."""
