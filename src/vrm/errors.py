"""Exception types shared across the library, and the rule-table check
every hyperparameter record runs when it is built."""


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


def check_fields(values, rules):
    """Raise :class:`ParameterError` ``"<field> <rule>, got <value>"`` for
    the first ``(field, ok, rule)`` row of ``rules`` whose ``ok`` is false;
    ``values`` maps each field to its value.  The message starts with the
    field, so a caller can name whatever set it instead.  Write a range as
    a comparison, such as ``0 < tau < math.inf``: NaN fails every
    comparison, and the bounds shut out both infinities."""
    for field, ok, rule in rules:
        if not ok:
            raise ParameterError(f"{field} {rule}, got {values[field]!r}")
