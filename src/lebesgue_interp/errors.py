"""Exception types shared across the package.

Everything subclasses ValueError so callers can catch broadly; the CLI maps
these to exit code 1 (validation) while OSError stays exit code 2 (I/O).
"""

from __future__ import annotations


class InvalidInputError(ValueError):
    """An argument violates an operation's precondition."""


class ShapeError(ValueError):
    """Lengths or dimensions do not line up (e.g. sampled indices and values)."""


class ParseError(ValueError):
    """A text field could not be parsed; carries row/column context."""

    def __init__(self, message: str, *, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class InfeasibleBudgetError(ValueError):
    """No candidate threshold can meet the requested sample budget."""

    def __init__(self, message: str, *, min_achievable_fraction: float):
        super().__init__(message)
        self.min_achievable_fraction = min_achievable_fraction
