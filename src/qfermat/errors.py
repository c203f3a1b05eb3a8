"""Shared exception types for the toolkit, `kind` naming the failure kind,
and the one rule for integer and for rational arguments."""

import operator
from fractions import Fraction

__all__ = ["ToolkitError", "PreconditionError", "BudgetExceededError", "as_integer",
           "as_rational"]


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


def as_integer(x, what: str) -> int:
    """x as an int if it is a Python or numpy integer; a bool, a float or a
    str is a ValueError naming `what` (a plural noun), not a truncated value.

    operator.index reads any type with __index__, numpy's integers among
    them, and refuses floats, strs and numpy's bool; Python's bool is an int,
    so it is refused here by name."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError("%s must be integers, got %r" % (what, x))


def as_rational(x, what: str) -> Fraction:
    """x as a Fraction if it is a Fraction, an integer by as_integer's rule,
    or a str that Fraction reads exactly ("1/2", "-3", "1.5"); anything else,
    a bool, a float or "1/0" among them, is a ValueError naming `what`."""
    if type(x) is Fraction:  # all that CycNum arithmetic hands its constructor
        return x
    try:
        return Fraction(x) if isinstance(x, str) else Fraction(as_integer(x, what))
    except (ValueError, ZeroDivisionError):
        raise ValueError("%s must be exact rationals, got %r" % (what, x)) from None
