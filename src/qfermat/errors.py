"""Shared exception types for the toolkit; `kind` names the failure kind."""

__all__ = ["ToolkitError", "PreconditionError", "BudgetExceededError"]


class ToolkitError(Exception):
    """Base class for errors raised by this package; raised as such, it
    reports a broken internal invariant."""

    kind = "internal"


class PreconditionError(ToolkitError, ValueError):
    """An operation was called on input violating its stated contract.

    Subclasses ValueError so callers can catch it with either type.
    """

    kind = "precondition"


class BudgetExceededError(ToolkitError, RuntimeError):
    """A bounded-runtime computation ran past its allotted budget."""

    kind = "budget"
