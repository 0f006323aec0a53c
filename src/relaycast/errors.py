"""Semantic exception hierarchy, and the rules every entry point checks
the numbers it is given by.

Every error the library raises deliberately derives from RelaycastError and
carries a stable ``code`` string (the class name) so the CLI can surface
machine-readable error codes.  The rules, :func:`whole_number`,
:func:`real_number` and :func:`finite_number`, raise :class:`SchemaError`.
"""

from __future__ import annotations

import math
import numbers
from typing import Any


class RelaycastError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- probability-mass / pmf errors -----------------------------------------

class NegativeMass(RelaycastError):
    """A probability entry is below -1e-12."""


class NotNormalized(RelaycastError):
    """Probability mass does not sum to 1 within tolerance."""


class ShapeMismatch(RelaycastError):
    """Tensor shape disagrees with the declared alphabet sizes."""


class UnknownVariable(RelaycastError):
    """A referenced variable label is not part of the pmf."""


class OverlappingSets(RelaycastError):
    """Variable sets that must be disjoint overlap."""


class ChainTooShort(RelaycastError):
    """A Markov-chain test needs at least three variables."""


# --- network model errors ---------------------------------------------------

class AlphabetMismatch(RelaycastError):
    """Input pmf variables/sizes do not match the channel's declaration."""


class MultipleDestinations(RelaycastError):
    """Operation is defined only for single-destination networks."""


class ParseError(RelaycastError):
    """Network document is not valid JSON."""


class SchemaError(RelaycastError):
    """Network document is missing fields or has wrong field types."""


# --- rate engine errors ------------------------------------------------------

class InvalidPlan(RelaycastError):
    """Cooperation plan violates the mode's structural constraints."""


class TooManyPlans(RelaycastError):
    """Plan enumeration would exceed the configured cap."""


class NotDegraded(RelaycastError):
    """Network fails a required degradedness predicate."""


class NotBroadcastShape(RelaycastError):
    """Network is not a pure broadcast shape (K=0, silent destinations)."""


class NotLemmaShape(RelaycastError):
    """Network is not the single-transmitting-destination broadcast shape."""


# --- simulation errors -------------------------------------------------------

class TooLarge(RelaycastError):
    """Requested enumeration or codebook exceeds the desk-scale cap."""


class DegenerateTypicalSet(RelaycastError):
    """The typical set for the requested (m, epsilon) is empty."""


class PlanMismatch(RelaycastError):
    """Plan or scheme is incompatible with the network shape."""


class BTooSmall(RelaycastError):
    """Too few channel blocks for the plan's decoding depth."""


class UnsupportedK(RelaycastError):
    """Backward decoding is implemented for K <= 2 only."""


class LengthMismatch(RelaycastError):
    """Sequences in a typicality check have different lengths."""


# --- input-value rules -------------------------------------------------------

def whole_number(value: Any, what: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``.  Booleans, numbers with a
    fractional part, which ``int()`` would silently truncate, and anything
    ``int()`` cannot read raise :class:`SchemaError`."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be a whole number, got {value!r}"
                          ) from exc
    if isinstance(value, bool) or (isinstance(value, numbers.Real)
                                   and number != value):
        raise SchemaError(f"{what} must be a whole number, got {value!r}")
    return _at_least(number, least, what, value)


def real_number(value: Any, what: str) -> float:
    """``value`` as a float, the infinities included.  Booleans, strings
    and other non-numbers and NaN raise :class:`SchemaError`."""
    try:
        number = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        number = math.inf
    if isinstance(value, bool) or math.isnan(number):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    return number


def finite_number(value: Any, what: str, least: float | None = None
                  ) -> float:
    """``value`` as a float of at least ``least``: :func:`real_number`
    without the infinities."""
    number = real_number(value, what)
    if not math.isfinite(number):
        raise SchemaError(f"{what} must be a finite number, got {value!r}")
    return _at_least(number, least, what, value)


def _at_least(number, least, what: str, value: Any):
    if least is not None and number < least:
        raise SchemaError(f"{what} must be >= {least}, got {value!r}")
    return number


# ``from .errors import *`` exports the error classes alone, not the rules
# or the modules they import
__all__ = [name for name, value in list(globals().items())
           if isinstance(value, type) and issubclass(value, RelaycastError)]
