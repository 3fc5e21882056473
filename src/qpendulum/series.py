"""Truncated trigonometric series on [0, 2pi) in the plane-wave basis.

The basis is e^{ik phi}/sqrt(2 pi), k = -K..K, which is orthonormal for
the plain L2 inner product on one period. Every operator is exact on the
coefficient vector: d/dphi multiplies c_k by ik, and cos(phi) and
sin(phi) combine the two one-slot shifts k -> k +- 1. Nothing here
samples the angle except :func:`eval_series`.

Coefficients are complex, so superposition states with relative phase i
are first-class citizens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainError


@dataclass(frozen=True)
class TrigSeries:
    """Immutable coefficients c_{-K}..c_K of e^{ik phi}/sqrt(2 pi).

    ``coeffs`` has odd length 2K + 1, with c_0 in the middle.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or len(arr) % 2 == 0:
            raise DomainError(
                f"coefficients must be 1-D of odd length, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_harmonics(self) -> int:
        return len(self.coeffs) // 2

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        n = max(self.n_harmonics, other.n_harmonics)
        return TrigSeries(_pad(self.coeffs, n) + _pad(other.coeffs, n))

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "TrigSeries":
        return TrigSeries(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).real))


def _pad(coeffs: np.ndarray, n: int) -> np.ndarray:
    """``coeffs`` zero-padded on both sides to harmonics -n..n."""
    extra = n - len(coeffs) // 2
    return np.pad(coeffs, extra) if extra else coeffs


def inner_product(s1: TrigSeries, s2: TrigSeries) -> complex:
    """<s1|s2> on [0, 2pi); conjugate-linear in the first argument.

    By orthonormality this is an exact finite sum, not a quadrature.
    """
    n = max(s1.n_harmonics, s2.n_harmonics)
    return complex(np.vdot(_pad(s1.coeffs, n), _pad(s2.coeffs, n)))


def series_derivative(s: TrigSeries) -> TrigSeries:
    """d/dphi in coefficient space: c_k -> i k c_k."""
    k = np.arange(-s.n_harmonics, s.n_harmonics + 1)
    return TrigSeries(1j * k * s.coeffs)


def _shifts(s: TrigSeries) -> tuple[np.ndarray, np.ndarray]:
    """e^{i phi} s and e^{-i phi} s, both on harmonics -(K+1)..K+1."""
    zero = np.zeros(2, dtype=np.complex128)
    return np.concatenate((zero, s.coeffs)), np.concatenate((s.coeffs, zero))


def multiply_by_cos(s: TrigSeries) -> TrigSeries:
    """Exact product cos(phi) * s; truncation grows by one harmonic."""
    up, down = _shifts(s)
    return TrigSeries(0.5 * (up + down))


def multiply_by_sin(s: TrigSeries) -> TrigSeries:
    """Exact product sin(phi) * s; truncation grows by one harmonic."""
    up, down = _shifts(s)
    return TrigSeries(-0.5j * (up - down))


def multiply_by_cos2phi(s: TrigSeries) -> TrigSeries:
    """cos(2 phi) * s, composed as 2 cos * cos - identity."""
    return multiply_by_cos(multiply_by_cos(s)) * 2.0 - s


def eval_series(s: TrigSeries, phi) -> complex | np.ndarray:
    """Pointwise value of the series: Horner's rule in z = e^{i phi}."""
    z = np.exp(1j * np.asarray(phi, dtype=float))
    out = polyval(z, s.coeffs) * z ** -s.n_harmonics / np.sqrt(2.0 * np.pi)
    return complex(out) if np.ndim(out) == 0 else out
