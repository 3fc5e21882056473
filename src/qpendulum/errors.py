"""Exception types shared across the package, and two argument type checks."""

import numbers
from collections.abc import Iterator

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
    """A degeneracy test produced contradictory answers.

    Carries the offending samples for inspection.
    """

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = samples


class SeparatrixError(DomainError):
    """Classical parameters sit exactly on the separatrix (E = U)."""


def check_type(value, kind: type, name: str):
    """``value`` itself if it is a ``kind`` and not a bool; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def real_array(values, name: str) -> np.ndarray:
    """``values`` (an iterator too) as a float array; DomainError unless
    every entry is a real number: None and numeric strings are not."""
    try:
        array = np.asarray(list(values) if isinstance(values, Iterator) else values)
        real = array.dtype.kind in "biuf" or (array.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) for v in array.flat))
    except (TypeError, ValueError):
        real = False
    if not real:
        raise DomainError(f"{name} must be real numbers, got {values!r}")
    return array.astype(float, copy=False)
