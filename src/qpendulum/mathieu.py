"""Mathieu eigenproblem on [0, 2pi): -psi'' + 2 l cos(2 phi) psi = E psi.

The four parity families are the characters of Klein's four-group
(DLMF 28.2), so each is two data: ``is_cosine``, its parity under
phi -> -phi, and its lowest harmonic p, whose parity is that under
phi -> phi + pi. Its ladder p, p + 2, ..., spectral index, matrix
diagonal and series slots follow; only the first matrix row differs. One
engine, :func:`_converge`, serves every entry point: it solves one family
at one barrier for a range of orders, values only, doubling the matrix
size until the values settle. Each size costs one direct LAPACK call:
``dsterf`` (root-free QR, every value, O(N^2)) for three or more orders,
and the ``dstebz`` bisection of the index range, whose cost grows as
rows times requested values, for one or two. An eigenvector holds the
weights of the orthonormal functions cos(h phi) or sin(h phi) over
sqrt(pi) (1/sqrt(2 pi) for h = 0), so it has unit L2 norm;
:func:`ce_series` and :func:`se_series` alone move it onto the
plane-wave slots of :mod:`qpendulum.series`, which keeps the norm.

Convergence rule
----------------
The first size is :func:`initial_truncation` of the highest order,
n // 2 + 6 + 4 ceil(l^(1/4)) rows: a low level of the well is an
oscillator of frequency 2 sqrt(l) (DLMF 28.8) whose weights spread over
about l^(1/4) harmonics. It is clamped to the fixed ``TRUNCATION_CAP``;
when it already is the cap (l above about 2.5e8), it is compared with half
the cap instead. Each step doubles the size (at most to the cap) and
accepts once every value of the range moved by less than
``max(EIGENVALUE_TOL * max(1, |v|), JITTER_FACTOR * eps * ||T||)``,
where ||T|| = max|diag| + 2 max|off| bounds the norm of the larger
matrix: below that floor LAPACK itself jitters. Its own accuracy is
about eps * ||T|| too, and ||T|| grows as the squared size, so a
needlessly large first size costs accuracy as well as time. A range
still moving at the cap raises :class:`ConvergenceError` with the
worst order's last two iterates, a nonzero LAPACK status without them.

Caches
------
Two typed caches of 16,384 entries each: :func:`characteristic_values`
keeps the values of one (family, order range, l), ``_weights`` the
read-only eigenvector weights of one (family, order, l) from one
``dstein`` inverse iteration on the accepted size's bisection (a complex
plane-wave series would take eight times the memory). Inputs are
validated inside the cached functions, so a hit is one lookup, and
``True`` or ``2.0`` never hit an entry made for ``1`` or ``2``. The
q-free bands of each (family, size), at most 4 x 512 read-only pairs,
are built once.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
from scipy.linalg.lapack import dstebz, dstein, dsterf

from .errors import ConvergenceError, DomainError, check_count, check_real, check_type
from .series import TrigSeries

EIGENVALUE_TOL = 1e-11  # relative
# Multiple of eps * ||T|| below which a change in value is LAPACK jitter;
# measured jitter between converged sizes stays below 0.6 of eps * ||T||.
JITTER_FACTOR = 4.0
TRUNCATION_CAP = 512  # largest matrix size
CACHE_SIZE = 16384
_EPS = np.finfo(float).eps


class MathieuClass(enum.Enum):
    """Parity families: CSV label, ``is_cosine``, lowest harmonic p."""

    CE_EVEN = "ce_even", True, 0   # cos(2r phi),        orders 0, 2, 4, ...
    CE_ODD = "ce_odd", True, 1     # cos((2r+1) phi),    orders 1, 3, 5, ...
    SE_ODD = "se_odd", False, 1    # sin((2r+1) phi),    orders 1, 3, 5, ...
    SE_EVEN = "se_even", False, 2  # sin((2r+2) phi),    orders 2, 4, 6, ...

    def __new__(cls, label: str, is_cosine: bool, lowest: int):
        member = object.__new__(cls)
        member._value_ = label
        member.is_cosine = is_cosine
        member.lowest = lowest
        return member

    def harmonics(self, size: int) -> np.ndarray:
        return self.lowest + 2 * np.arange(size)

    def eigen_index(self, n: int) -> int:
        """Position (n - p)/2 of order n; ConvergenceError beyond the cap."""
        check_count(n, self.lowest, "order")
        if n - self.lowest >= 2 * (TRUNCATION_CAP - 2):
            raise ConvergenceError(f"truncation cap {TRUNCATION_CAP} holds {self.value}"
                                   f" orders to {self.lowest + 2 * TRUNCATION_CAP - 6}")
        if (n - self.lowest) % 2:
            raise DomainError(f"{self.value} admits orders {self.lowest}, "
                              f"{self.lowest + 2}, ..., got {n!r}")
        return (n - self.lowest) // 2


def ce_class(n: int) -> MathieuClass:
    check_count(n, 0, "order")
    return MathieuClass.CE_EVEN if n % 2 == 0 else MathieuClass.CE_ODD


def se_class(n: int) -> MathieuClass:
    check_count(n, 1, "se order")
    return MathieuClass.SE_EVEN if n % 2 == 0 else MathieuClass.SE_ODD


@functools.cache
def _bands(mathieu_class: MathieuClass, size: int):
    """Read-only q-free bands: the squared ladder and the unit off-diagonal."""
    ladder = mathieu_class.harmonics(size) ** 2.0
    unit = np.ones(size - 1)
    if mathieu_class.lowest == 0:
        unit[0] = np.sqrt(2.0)
    ladder.setflags(write=False)
    unit.setflags(write=False)
    return ladder, unit


def _tridiagonal(mathieu_class: MathieuClass, q: float, size: int):
    """Symmetric tridiagonal matrix bands for one parity family, and ||T||.

    The diagonal is the squared ladder. With p = 0 the first row carries
    a sqrt(2) scaling that keeps the matrix symmetric on the orthonormal
    cosine basis, so eigenvectors are unit-norm weights as they stand; with
    p = 1 harmonic -1 folds onto 1, +q for cosines and -q for sines.
    ||T|| = max|diag| + 2 max|off| for q >= 0; only the first diagonal
    entry can exceed the last in size.
    """
    diag, unit = _bands(mathieu_class, size)
    if mathieu_class.lowest == 1:
        diag = diag.copy()
        diag[0] += q if mathieu_class.is_cosine else -q
    off = q * unit
    return diag, off, max(abs(diag[0]), diag[-1]) + 2.0 * q * unit[0]


def initial_truncation(n: int, l: float) -> int:
    """First matrix size for orders up to n; see the module docstring."""
    return n // 2 + 6 + 4 * math.ceil(max(l, 0.0) ** 0.25)


def _converge(mathieu_class: MathieuClass, n_lo: int, n_hi: int, l: float):
    """Values of orders n_lo, n_lo + 2, ..., n_hi at a converged size.

    Validates every input. Returns the values and the matrix bands of
    the accepted size, and the ``dstebz`` block data (iblock, isplit) of
    those values, or None from a ``dsterf`` solve; see the module
    docstring for the rule.
    """
    k_lo = check_type(mathieu_class, MathieuClass, "family").eigen_index(n_lo)
    k_hi = mathieu_class.eigen_index(n_hi)
    if k_hi < k_lo:
        raise DomainError(f"empty order range {n_lo}..{n_hi}")
    l = check_real(l, "barrier l", 0.0, False)
    size = min(max(initial_truncation(n_hi, l), k_hi + 2), TRUNCATION_CAP)
    if size == TRUNCATION_CAP:  # k_hi + 2 < TRUNCATION_CAP: see eigen_index
        size = max(TRUNCATION_CAP // 2, k_hi + 2)
    count = k_hi - k_lo + 1
    prev = None
    while True:
        diag, off, norm = _tridiagonal(mathieu_class, l, size)
        if count >= 3:  # all values by root-free QR beat bisecting three
            every, info = dsterf(diag, off)
            values, found, split = every[k_lo:k_hi + 1], count, None
        else:
            found, values, iblock, isplit, info = dstebz(
                diag, off, 2, 0.0, 0.0, k_lo + 1, k_hi + 1, 0.0, "E")
            values, split = values[:found], (iblock, isplit)
        if info or found < count:
            raise ConvergenceError(
                f"{'dsterf' if split is None else 'dstebz'} info={info}, "
                f"{found} values at size {size} for ({mathieu_class.value}, l={l})")
        if prev is not None:
            tol = np.maximum(EIGENVALUE_TOL * np.maximum(1.0, np.abs(values)),
                             JITTER_FACTOR * _EPS * norm)
            excess = np.abs(values - prev) / tol
            if excess.max() < 1.0:
                return values, diag, off, split
            if size >= TRUNCATION_CAP:
                worst = int(excess.argmax())
                raise ConvergenceError(
                    f"eigenvalue not converged at truncation cap "
                    f"{TRUNCATION_CAP} for ({mathieu_class.value}, "
                    f"n={n_lo + 2 * worst}, l={l})",
                    last_iterates=(float(prev[worst]), float(values[worst])),
                )
        prev = values
        size = min(2 * size, TRUNCATION_CAP)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def characteristic_values(mathieu_class: MathieuClass, n_lo: int, n_hi: int,
                          l: float) -> tuple[float, ...]:
    """Characteristic values of orders n_lo, n_lo + 2, ..., n_hi in one solve.

    Both orders must belong to the family. The values cache holds one
    tuple per exact argument list.
    """
    values, _, _, _ = _converge(mathieu_class, n_lo, n_hi, l)
    return tuple(values.tolist())


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _weights(mathieu_class: MathieuClass, n: int, l: float) -> np.ndarray:
    """Read-only basis weights of order n, order-matching harmonic positive."""
    values, diag, off, split = _converge(mathieu_class, n, n, l)
    vecs, info = dstein(diag, off, values, *split)
    if info:
        raise ConvergenceError(f"dstein info={info} for ({mathieu_class.value}, "
                               f"n={n}, l={l})")
    k = mathieu_class.eigen_index(n)
    vec = -vecs[:, 0] if vecs[k, 0] < 0 else vecs[:, 0]  # slot k matches n
    vec.setflags(write=False)
    return vec


def _eigen_series(mathieu_class: MathieuClass, n: int, l: float) -> TrigSeries:
    """Place the weights w of order n on plane-wave slots c_{+-h}.

    cos(h phi) gives w/sqrt(2) on both, sin(h phi) -i w/sqrt(2) on c_{+h}
    and +i w/sqrt(2) on c_{-h}; the constant keeps c_0 = w, the same fact
    as the sqrt(2) corner of :func:`_tridiagonal`.
    """
    weights = _weights(mathieu_class, n, l)
    harm = mathieu_class.harmonics(len(weights))
    top = int(harm[-1])
    w = weights / np.sqrt(2.0)
    coeffs = np.zeros(2 * top + 1, dtype=np.complex128)
    coeffs[top + harm] = w if mathieu_class.is_cosine else -1j * w
    coeffs[top - harm] = w if mathieu_class.is_cosine else 1j * w
    if mathieu_class.lowest == 0:
        coeffs[top] = weights[0]
    return TrigSeries(coeffs)


def ce_series(n: int, l: float) -> TrigSeries:
    return _eigen_series(ce_class(n), n, l)


def se_series(n: int, l: float) -> TrigSeries:
    return _eigen_series(se_class(n), n, l)


def a_value(n: int, l: float) -> float:
    """Even-family characteristic value a_n(l)."""
    return characteristic_values(ce_class(n), n, n, l)[0]


def b_value(n: int, l: float) -> float:
    """Odd-family characteristic value b_n(l)."""
    return characteristic_values(se_class(n), n, n, l)[0]
