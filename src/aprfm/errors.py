"""Exception types shared across the package.

Every class carries a short machine-readable ``code`` that the CLI prints
to stderr, so callers can match on error kind without parsing messages.
"""


class AprfmError(Exception):
    """Base class for package errors."""

    code = "error"


class DegenerateCoverError(AprfmError, ValueError):
    """An evaluation point lies outside the boxes of a feature model."""

    code = "degenerate-cover"


class DegenerateRowError(AprfmError, ValueError):
    """A system row is identically zero and cannot be rescaled."""

    code = "degenerate-row"

    def __init__(self, row_index, row_kind):
        self.row_index = int(row_index)
        self.row_kind = str(row_kind)
        super().__init__(f"row {self.row_index} ({self.row_kind}) is all zero")


class NonFiniteInputError(AprfmError, ValueError):
    """Matrix or right-hand side contains NaN or infinity."""

    code = "invalid-input"


class NoConvergenceError(AprfmError, RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    code = "no-convergence"

    def __init__(self, message, last_change):
        self.last_change = float(last_change)
        super().__init__(f"{message} (last change {self.last_change:.3e})")


class UnsupportedProblemError(AprfmError, ValueError):
    """Operation does not support this problem (e.g. no exact solution)."""

    code = "unsupported-problem"


class UndefinedMetricError(AprfmError, ValueError):
    """Relative error is undefined because the reference is identically zero."""

    code = "undefined-metric"
