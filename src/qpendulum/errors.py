"""Exception types shared across the package, and every argument check:
none takes a bool for a number or prints an int too long for Python."""

import math
import numbers
from collections.abc import Iterable, Iterator

import numpy as np


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """Adaptive truncation hit its cap before the requested accuracy.

    Carries the last two iterates so the caller can judge how far off
    the result was.
    """

    def __init__(self, message, last_iterates=None):
        super().__init__(message)
        self.last_iterates = last_iterates


class BoundaryNotFoundError(RuntimeError):
    """No threshold crossing was found inside the search range."""


class AmbiguityError(RuntimeError):
    """A degeneracy test produced contradictory answers."""


class SeparatrixError(DomainError):
    """Classical parameters sit exactly on the separatrix (E = U)."""


def _shown(value) -> str:
    """repr of ``value``; Python refuses to print an int of over 4,300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def check_type(value, kind: type, name: str):
    """``value`` itself if it is a ``kind`` and not a bool; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {_shown(value)}")
    return value


def check_real(value, name: str, low: float, strict: bool) -> float:
    """``value`` as a float; DomainError unless it is a real number (float
    first: the ABC test is slow), not a bool, finite and >= ``low`` (>
    ``low`` if ``strict``). An int too large for a float counts as infinite."""
    number = math.nan
    if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not (math.isfinite(number) and (number > low if strict else number >= low)):
        bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""
        raise DomainError(f"{name} must be a finite real{bound}, got {_shown(value)}")
    return number


def check_count(n, lowest: int, name: str) -> None:
    """Raise DomainError unless n is an integer (not a bool) >= lowest."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < lowest:
        raise DomainError(f"{name} must be an integer >= {lowest}, got {_shown(n)}")


def check_levels(levels) -> list[int]:
    """``levels`` as a list of ints: an iterable, nonempty, each >= 1."""
    if not isinstance(levels, Iterable):
        raise DomainError(f"levels must be an iterable, got {_shown(levels)}")
    levels = list(levels)
    if not levels:
        raise DomainError("at least one level is required")
    for n in levels:
        check_count(n, 1, "level")
    return [int(n) for n in levels]


def real_array(values, name: str) -> np.ndarray:
    """``values`` (an iterator too) as a float array; DomainError unless every
    entry is a finite real number, not None, a bool or a numeric string."""
    try:
        array = np.asarray(list(values) if isinstance(values, Iterator) else values)
        real = array.dtype.kind in "iuf" or (array.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in array.flat))
        if real:
            array = array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        real = False
    if not (real and np.isfinite(array).all()):
        raise DomainError(f"{name} must be finite real numbers, got {_shown(values)}")
    return array


def real_grid(values, name: str) -> np.ndarray:
    """:func:`real_array` of ``values``, which must be 1-D."""
    array = real_array(values, name)
    if array.ndim != 1:
        raise DomainError(f"{name} must be a 1-D grid, got {_shown(values)}")
    return array
