"""Mathieu eigenproblem on [0, 2pi): -psi'' + 2 l cos(2 phi) psi = E psi.

Each parity family reduces to a symmetric tridiagonal matrix over its
harmonic ladder. One engine, :func:`_converge`, serves every entry
point: it solves one family at one barrier for a range of orders,
values only, doubling the matrix size until the values settle. The
returned coefficient vectors live directly on the orthonormal basis of
:mod:`qpendulum.series`, so states built here have unit L2 norm over one
period by construction.

Convergence rule
----------------
The first size is :func:`initial_truncation` of the highest order,
clamped to the cap; when it already is the cap, it is compared with half
the cap instead. Each step doubles the size (at most to the cap) and
accepts once every value of the range moved by less than
``max(EIGENVALUE_TOL * max(1, |v|), JITTER_FACTOR * eps * ||T||)``, where
||T|| = max|diag| + 2 max|off| bounds the norm of the larger matrix:
below that floor the LAPACK bisection itself jitters. A range still moving at the cap raises
:class:`ConvergenceError` with the worst order's last two iterates.

Caches
------
Two caches of 16,384 entries each: :func:`characteristic_values` keeps
the values of one (family, order range, l, cap), :func:`spectral_level`
the eigenpair of one (family, order, l, cap). Eigenvectors come from
one extra solve at the engine's converged size, and only on request.
Inputs are validated inside the cached functions, so a hit is a single
lookup; the caches are typed, so ``True`` or ``2.0`` never hit an entry
made for ``1`` or ``2`` and always meet the validation.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .errors import ConvergenceError, DomainError
from .series import TrigSeries

EIGENVALUE_TOL = 1e-11  # relative
# Multiple of eps * ||T|| below which a change in value is LAPACK jitter;
# measured jitter between converged sizes stays below 0.6 of eps * ||T||.
JITTER_FACTOR = 4.0
TRUNCATION_CAP = 512
CACHE_SIZE = 16384
_EPS = np.finfo(float).eps


class MathieuClass(enum.Enum):
    """The four parity families of periodic Mathieu functions."""

    CE_EVEN = "ce_even"  # cos(2r phi),        orders 0, 2, 4, ...
    CE_ODD = "ce_odd"    # cos((2r+1) phi),    orders 1, 3, 5, ...
    SE_ODD = "se_odd"    # sin((2r+1) phi),    orders 1, 3, 5, ...
    SE_EVEN = "se_even"  # sin((2r+2) phi),    orders 2, 4, 6, ...

    @property
    def is_cosine(self) -> bool:
        return self in (MathieuClass.CE_EVEN, MathieuClass.CE_ODD)

    def validate_order(self, n: int) -> None:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise DomainError(f"order must be a nonnegative integer, got {n!r}")
        even = n % 2 == 0
        if self is MathieuClass.CE_EVEN and not even:
            raise DomainError(f"ce-even admits even orders only, got n={n}")
        if self in (MathieuClass.CE_ODD, MathieuClass.SE_ODD) and even:
            raise DomainError(f"{self.value} admits odd orders only, got n={n}")
        if self is MathieuClass.SE_EVEN and (even is False or n < 2):
            raise DomainError(f"se-even admits even orders >= 2, got n={n}")

    def harmonics(self, size: int) -> np.ndarray:
        r = np.arange(size)
        if self is MathieuClass.CE_EVEN:
            return 2 * r
        if self is MathieuClass.SE_EVEN:
            return 2 * r + 2
        return 2 * r + 1

    def eigen_index(self, n: int) -> int:
        """Position of order n in the ascending spectrum of its family."""
        self.validate_order(n)
        if self is MathieuClass.CE_EVEN:
            return n // 2
        if self is MathieuClass.SE_EVEN:
            return n // 2 - 1
        return (n - 1) // 2


def ce_class(n: int) -> MathieuClass:
    return MathieuClass.CE_EVEN if n % 2 == 0 else MathieuClass.CE_ODD


def se_class(n: int) -> MathieuClass:
    if n < 1:
        raise DomainError(f"se requires order >= 1, got n={n}")
    return MathieuClass.SE_EVEN if n % 2 == 0 else MathieuClass.SE_ODD


@dataclass(frozen=True)
class SpectralLevel:
    """One Mathieu eigenpair at fixed barrier l.

    ``coeffs`` are the orthonormal-basis weights of the wavefunction:
    slot r of CE_EVEN multiplies cos(2r phi)/sqrt(pi) for r >= 1 and
    1/sqrt(2 pi) for r = 0; the other families have no constant slot.
    """

    mathieu_class: MathieuClass
    n: int
    l: float
    value: float
    coeffs: np.ndarray
    truncation: int

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def _tridiagonal(mathieu_class: MathieuClass, q: float, size: int):
    """Symmetric tridiagonal matrix bands for one parity family.

    The CE_EVEN first row carries a sqrt(2) scaling so the matrix stays
    symmetric; it is consistent with the orthonormal basis, so the
    eigenvector needs no undo before use as series coefficients.
    """
    off = np.full(size - 1, q, dtype=float)
    if mathieu_class is MathieuClass.CE_EVEN:
        diag = (2.0 * np.arange(size)) ** 2
        off[0] = np.sqrt(2.0) * q
    elif mathieu_class is MathieuClass.CE_ODD:
        diag = (2.0 * np.arange(size) + 1.0) ** 2
        diag[0] = 1.0 + q
    elif mathieu_class is MathieuClass.SE_ODD:
        diag = (2.0 * np.arange(size) + 1.0) ** 2
        diag[0] = 1.0 - q
    else:
        diag = (2.0 * np.arange(size) + 2.0) ** 2
    return diag, off

def initial_truncation(n: int, l: float) -> int:
    return max(32, n + 8 * int(np.ceil(np.sqrt(max(l, 0.0)))))


def _barrier(l) -> float:
    """``l`` as a float; raises DomainError unless finite and nonnegative."""
    value = math.nan
    if isinstance(l, numbers.Real) and not isinstance(l, bool):
        try:
            value = float(l)
        except OverflowError:
            value = math.inf
    if not 0.0 <= value < math.inf:
        raise DomainError(f"barrier l must be finite and nonnegative, got {l!r}")
    return value


def _converge(mathieu_class: MathieuClass, n_lo: int, n_hi: int, l: float,
              cap: int):
    """Values of orders n_lo, n_lo + 2, ..., n_hi at a converged size.

    Validates every input. Returns the values and the matrix bands of
    the accepted size; see the module docstring for the rule.
    """
    k_lo = mathieu_class.eigen_index(n_lo)
    k_hi = mathieu_class.eigen_index(n_hi)
    if k_hi < k_lo:
        raise DomainError(f"empty order range {n_lo}..{n_hi}")
    l = _barrier(l)
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
        raise DomainError(f"truncation cap must be a positive integer, got {cap!r}")
    size = min(max(initial_truncation(n_hi, l), k_hi + 2), cap)
    if size == cap:
        size = max(cap // 2, k_hi + 2)
        if size >= cap:
            raise ConvergenceError(
                f"truncation cap {cap} leaves no smaller size to compare with "
                f"for ({mathieu_class.value}, n={n_lo}..{n_hi}, l={l})")
    prev = None
    while True:
        diag, off = _tridiagonal(mathieu_class, l, size)
        values = eigvalsh_tridiagonal(diag, off, select="i",
                                      select_range=(k_lo, k_hi),
                                      check_finite=False)
        if prev is not None:
            norm = np.abs(diag).max() + 2.0 * np.abs(off).max()
            tol = np.maximum(EIGENVALUE_TOL * np.maximum(1.0, np.abs(values)),
                             JITTER_FACTOR * _EPS * norm)
            excess = np.abs(values - prev) / tol
            if excess.max() < 1.0:
                return values, diag, off
            if size >= cap:
                worst = int(excess.argmax())
                raise ConvergenceError(
                    f"eigenvalue not converged at truncation cap {cap} for "
                    f"({mathieu_class.value}, n={n_lo + 2 * worst}, l={l})",
                    last_iterates=(float(prev[worst]), float(values[worst])),
                )
        prev = values
        size = min(2 * size, cap)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def characteristic_values(mathieu_class: MathieuClass, n_lo: int, n_hi: int,
                          l: float, cap: int = TRUNCATION_CAP) -> tuple[float, ...]:
    """Characteristic values of orders n_lo, n_lo + 2, ..., n_hi in one solve.

    Both orders must belong to the family. The values cache holds one
    tuple per exact argument list.
    """
    values, _, _ = _converge(mathieu_class, n_lo, n_hi, l, cap)
    return tuple(values.tolist())


def characteristic_value(
    mathieu_class: MathieuClass, n: int, l: float, cap: int = TRUNCATION_CAP
) -> float:
    """Characteristic value E_n(l) of the given parity family."""
    return characteristic_values(mathieu_class, n, n, l, cap)[0]


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def spectral_level(
    mathieu_class: MathieuClass, n: int, l: float, cap: int = TRUNCATION_CAP
) -> SpectralLevel:
    """Eigenpair of order n, order-matching harmonic positive; cached."""
    values, diag, off = _converge(mathieu_class, n, n, l, cap)
    k = mathieu_class.eigen_index(n)
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k),
                               check_finite=False)
    vec = vecs[:, 0]
    size = len(diag)
    # sign convention: weight of the order-matching harmonic positive
    match = np.flatnonzero(mathieu_class.harmonics(size) == n)[0]
    if vec[match] < 0:
        vec = -vec
    return SpectralLevel(mathieu_class, int(n), float(l), float(values[0]), vec,
                         size)


def build_series(level: SpectralLevel) -> TrigSeries:
    """Place the level's coefficients on their orthonormal basis slots."""
    harm = level.mathieu_class.harmonics(len(level.coeffs))
    coeffs = level.coeffs
    kmax = int(harm[-1])
    cos_k = np.zeros(kmax, dtype=np.complex128)
    sin_k = np.zeros(kmax, dtype=np.complex128)
    c0 = 0.0
    if not level.mathieu_class.is_cosine:
        sin_k[harm - 1] = coeffs
    elif harm[0] == 0:
        c0 = coeffs[0]
        cos_k[harm[1:] - 1] = coeffs[1:]
    else:
        cos_k[harm - 1] = coeffs
    return TrigSeries(c0, cos_k, sin_k)


def ce_series(n: int, l: float, cap: int = TRUNCATION_CAP) -> TrigSeries:
    return build_series(spectral_level(ce_class(n), n, l, cap))


def se_series(n: int, l: float, cap: int = TRUNCATION_CAP) -> TrigSeries:
    return build_series(spectral_level(se_class(n), n, l, cap))


def a_value(n: int, l: float, cap: int = TRUNCATION_CAP) -> float:
    """Even-family characteristic value a_n(l)."""
    return characteristic_value(ce_class(n), n, l, cap)


def b_value(n: int, l: float, cap: int = TRUNCATION_CAP) -> float:
    """Odd-family characteristic value b_n(l)."""
    return characteristic_value(se_class(n), n, l, cap)
