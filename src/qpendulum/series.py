"""Truncated trigonometric series on [0, 2pi) in the plane-wave basis.

The basis is e^{ik phi}/sqrt(2 pi), k = -K..K, which is orthonormal for
the plain L2 inner product on one period. In it L_z = -i d/dphi is k on
slot k, cos(phi) and sin(phi) shift by one slot and cos(2 phi) by two,
so :func:`moments` reads every angular expectation value off |c_k|^2 and
the lag-1 and lag-2 products of the coefficient vector. Nothing here
samples the angle except :func:`eval_series`.

Coefficients are complex, so superposition states with relative phase i
are first-class citizens.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainError, _shown, check_type, numeric_array, real_array


@dataclass(frozen=True)
class TrigSeries:
    """Immutable coefficients c_{-K}..c_K of e^{ik phi}/sqrt(2 pi).

    ``coeffs`` has odd length 2K + 1, with c_0 in the middle.
    """

    coeffs: np.ndarray
    __array_ufunc__ = None  # numpy operands defer to the methods below

    def __post_init__(self):
        arr = numeric_array(self.coeffs, True, True)  # a copy: the series owns it
        if arr is None:
            raise DomainError(f"non-numeric coefficients {_shown(self.coeffs)}")
        if arr.ndim != 1 or len(arr) % 2 == 0:
            raise DomainError(
                f"coefficients must be 1-D of odd length, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_harmonics(self) -> int:
        return len(self.coeffs) // 2

    def __add__(self, other: "TrigSeries") -> "TrigSeries":
        if not isinstance(other, TrigSeries):
            raise DomainError(f"a series adds only to a series, got {_shown(other)}")
        n = max(self.n_harmonics, other.n_harmonics)
        a, b = _pad(self.coeffs, n), _pad(other.coeffs, n)
        # as in _scaled: no part exceeds ||a|| + ||b||, squared <= 2 (||a||^2 + ||b||^2)
        if not 2.0 * float(np.vdot(a, a).real + np.vdot(b, b).real) < 1e300:
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(a + b).all():
                    raise DomainError("a coefficient of the sum is not finite")
        return TrigSeries(a + b)

    __radd__ = __add__

    def __sub__(self, other: "TrigSeries") -> "TrigSeries":
        return self + (other * (-1.0) if isinstance(other, TrigSeries) else other)

    def __rsub__(self, other) -> "TrigSeries":
        return self * (-1.0) + other

    def __mul__(self, scalar) -> "TrigSeries":
        try:
            if not isinstance(scalar, bool) and isinstance(scalar, numbers.Number):
                return _scaled(self.coeffs, complex(scalar))
        except OverflowError:  # an int too large for a float
            pass
        raise DomainError(f"a series scales by a number, got {_shown(scalar)}")

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).real))


def _scaled(coeffs: np.ndarray, z: complex) -> TrigSeries:
    """``coeffs`` times ``z``; DomainError where a product is not finite.
    No part of one exceeds the 2-norm (whose squares BLAS sums without a
    warning) times |Re z| + |Im z|; only where the square of that bound
    reaches 1e300, or is NaN, are the products checked."""
    scale = abs(z.real) + abs(z.imag)  # Python floats: inf, not an error, on overflow
    if not float(np.vdot(coeffs, coeffs).real) * scale * scale < 1e300:
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(coeffs * z).all():
                raise DomainError(f"a coefficient scaled by {z} is not finite")
    return TrigSeries(coeffs * z)


def _pad(coeffs: np.ndarray, n: int) -> np.ndarray:
    """``coeffs`` zero-padded on both sides to harmonics -n..n."""
    extra = n - len(coeffs) // 2
    return np.pad(coeffs, extra) if extra else coeffs


def inner_product(s1: TrigSeries, s2: TrigSeries) -> complex:
    """<s1|s2> on [0, 2pi); conjugate-linear in the first argument.

    By orthonormality this is an exact finite sum, not a quadrature.
    """
    n = max(check_type(s1, TrigSeries, "s1").n_harmonics,
            check_type(s2, TrigSeries, "s2").n_harmonics)
    return complex(np.vdot(_pad(s1.coeffs, n), _pad(s2.coeffs, n)))


class Moments(NamedTuple):
    """<L_z>, <L_z^2>, <cos phi>, <sin phi>, <cos^2 phi>, <sin^2 phi>."""

    Lz: float
    Lz2: float
    cos: float
    sin: float
    cos2: float
    sin2: float


@np.errstate(over="ignore", invalid="ignore")
def moments(s: TrigSeries) -> Moments:
    """Every angular moment of ``s``, straight from its coefficients.

    With w_k = |c_k|^2 and S_j = sum conj(c_k) c_{k+j}: <L_z^p> is
    sum k^p w_k, <cos phi> = Re S_1, <sin phi> = -Im S_1, and
    cos^2 phi = (1 + cos 2 phi)/2 gives (sum w +- Re S_2)/2 for
    <cos^2 phi> and <sin^2 phi>. Unnormalised series give sum w times
    the normalised moments; one whose squares overflow, infinite or NaN ones.
    """
    c = check_type(s, TrigSeries, "series").coeffs
    k = np.arange(-s.n_harmonics, s.n_harmonics + 1)
    w = c.real ** 2 + c.imag ** 2
    kw = k * w
    total = float(w.sum())
    s1 = complex(np.vdot(c[:-1], c[1:]))
    re_s2 = complex(np.vdot(c[:-2], c[2:])).real
    return Moments(float(kw.sum()), float(k @ kw), s1.real, -s1.imag,
                   0.5 * (total + re_s2), 0.5 * (total - re_s2))


@np.errstate(over="ignore", invalid="ignore")
def eval_series(s: TrigSeries, phi) -> complex | np.ndarray:
    """Pointwise value of the series: Horner's rule in z = e^{i phi}.
    DomainError where a value is not finite, as when a sum overflows."""
    check_type(s, TrigSeries, "series")
    z = np.exp(1j * real_array(phi, "angles"))
    out = polyval(z, s.coeffs) * z ** -s.n_harmonics / np.sqrt(2.0 * np.pi)
    if not np.isfinite(out).all():
        raise DomainError("series value not finite: its sum overflows")
    return complex(out) if np.ndim(out) == 0 else out
