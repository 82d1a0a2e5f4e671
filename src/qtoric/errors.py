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
    """A computation exceeded its work budget: the colouring search's nodes,
    a pairing's steps, the admissible splits' entries, a validation's work
    or the alpha table's rank.  It is refused instead of running on; the
    answer is inconclusive, never wrong."""


class InternalConsistencyError(QtoricError):
    """Two independent internal computations disagreed; signals a bug, never returned as data."""


class OracleUnavailableError(QtoricError):
    """The secondary (cross-check) oracle's presentation is priced past `facering.PRICE`."""
