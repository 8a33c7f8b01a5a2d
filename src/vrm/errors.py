"""Exception types shared across the library, and the finiteness check
hyperparameter records run before their range checks."""

import math


class ParameterError(ValueError):
    """A hyperparameter or configuration value is out of its legal range."""


class InputError(ValueError):
    """Input data violates an operation's preconditions."""


class UsageError(RuntimeError):
    """The API was called in a way its contract forbids."""


class NumericError(ArithmeticError):
    """An operation produced non-finite values (overflow / divergence)."""


class TrainingError(RuntimeError):
    """Training diverged.  Carries the epoch index where it happened."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


def require_finite(record, names):
    """Raise :class:`ParameterError` for the first of the attributes
    ``names`` of ``record`` that is NaN or infinite.  Range checks such as
    ``lr <= 0`` let NaN through, since every comparison with it is false."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
