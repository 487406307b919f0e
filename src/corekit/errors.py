"""Exception hierarchy shared by all corekit modules."""

from __future__ import annotations

__all__ = [
    "CorekitError",
    "ParseError",
    "OwnershipError",
    "DomainError",
    "NotUnicyclicError",
    "PreconditionError",
    "BudgetExceededError",
]


class CorekitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CorekitError):
    """Raised for malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class OwnershipError(CorekitError):
    """Raised when vertex sets from different graphs are mixed."""


class DomainError(CorekitError):
    """Raised when an argument refers to a vertex or edge the graph does not have,
    or when a structural precondition (e.g. unicyclic input) is violated."""


class NotUnicyclicError(DomainError):
    """Raised when an operation requiring a unicyclic graph gets something else."""


class PreconditionError(DomainError):
    """Raised when an operation's theorem-scope precondition fails
    (e.g. a structural decomposition asked for on a Koenig-Egervary graph)."""


class BudgetExceededError(CorekitError):
    """Raised when an exact computation would exceed the configured size budget."""
