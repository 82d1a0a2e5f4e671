"""Exception hierarchy shared across the package."""


class QtoricError(Exception):
    """Base class for all package errors."""


class StructureError(QtoricError):
    """Structurally malformed input (bad shapes, out-of-range indices, duplicates)."""


class ValidationError(QtoricError):
    """A combinatorial invariant failed; carries the offending report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class HypothesisUnmetError(QtoricError):
    """A theorem's hypothesis is not satisfied by the given data."""


class BudgetExceededError(QtoricError):
    """A search exceeded its node budget; the answer is inconclusive, never wrong."""


class InternalConsistencyError(QtoricError):
    """Two independent internal computations disagreed; signals a bug, never returned as data."""


class OracleUnavailableError(QtoricError):
    """The secondary (cross-check) oracle is not available at this problem size."""
