"""Exception hierarchy shared across the package.

Validation failures (bad arguments, malformed files, contract violations)
raise :class:`ValidationError`; numeric failures that occur on valid input
(quadrature that will not converge, an eigensolver that does not converge)
raise :class:`NumericError` subclasses.  The CLI maps the former to exit
code 1 and the latter to exit code 2.  require_integer is the one check of an
integer argument (a count, a size, a level or a seed), require_real of a real one.
"""

import numpy as np


class HeicError(Exception):
    """Base class for all package errors."""


class ValidationError(HeicError, ValueError):
    """Input violates a documented precondition."""


class NumericError(HeicError):
    """A numeric procedure failed on otherwise valid input."""


class QuadratureError(NumericError):
    """Adaptive quadrature exceeded its panel budget.

    Carries the best available estimate so callers can inspect how far the
    integration got before giving up.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = float(best_estimate)
        self.error_estimate = float(error_estimate)


class EigenSolverError(NumericError):
    """A symmetric eigensolver did not converge, or its certificate failed.

    The certificate is the bound a two-stage reduction's window eigenvectors
    must meet (spectral.Banded.window_vectors).
    """


def require_integer(value, name: str, minimum: int) -> int:
    """value as an int, when it is an int or a numpy integer, not a bool, of at least minimum.

    Otherwise raises ValidationError, with a message that starts with name.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_real(value, name: str) -> float:
    """value as a float, if an int, a float or a numpy real but not a bool; NaN is left to the range check."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)
