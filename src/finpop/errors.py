"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FinpopError",
    "ValidationError",
    "DegenerateInputError",
    "TieError",
    "SingularMatrixError",
    "EnumerationCapError",
    "InternalCheckError",
]


class FinpopError(Exception):
    """Base class for all package errors."""


class ValidationError(FinpopError):
    """Malformed input: bad arguments, shapes, labels, or file contents."""


class DegenerateInputError(FinpopError):
    """Input is structurally valid but degenerate for the requested quantity
    (constant population, zero pooled variance, and the like)."""


class TieError(FinpopError):
    """Tied values under the strict (no-ties) rank policy."""

    def __init__(self, tied_values):
        self.tied_values = list(tied_values)
        super().__init__(f"tied values under strict rank policy: {self.tied_values}")


class SingularMatrixError(FinpopError):
    """A matrix that must be inverted (or square-rooted) is numerically singular."""


class EnumerationCapError(FinpopError):
    """The exhaustive-enumeration request exceeds the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"enumeration would produce {count} assignments, above the cap of {cap}"
        )


class InternalCheckError(FinpopError):
    """Two algebraically equivalent forms of the same statistic disagreed.

    This always indicates a bug in this package, never bad user input.
    """
