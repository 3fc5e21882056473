"""Mathieu eigenproblem on [0, 2pi): -psi'' + 2 l cos(2 phi) psi = E psi.

The four parity families are the characters of Klein's four-group
(DLMF 28.2), so each is two data: ``is_cosine``, its parity under
phi -> -phi, and its lowest harmonic p, whose parity is that under
phi -> phi + pi. Its ladder p, p + 2, ..., spectral index, matrix
diagonal and series slots follow; only the first matrix row differs. Each
engine takes one kind of call. :func:`_converge` solves one order of one
family at one barrier, values only, doubling the matrix size until a
count certifies the value; each size costs one direct LAPACK call, the
``dstebz`` bisection of the order's index. :func:`_converge_grid` solves
orders p..top over a barrier grid at their first sizes, one ``dsterf``
(root-free QR, every value, O(N^2)) per barrier, its other work as array
operations over all rows; a row it cannot certify goes to
:func:`_converge`, one order per call. A batch of one costs several
solves. An eigenvector holds the weights of the orthonormal functions
cos(h phi) or sin(h phi) over sqrt(pi) (1/sqrt(2 pi) for h = 0), so it
has unit L2 norm; :func:`ce_series` and :func:`se_series` alone move it
onto the plane-wave slots of :mod:`qpendulum.series`, which keeps the
norm.

Convergence rule
----------------
The first size N is :func:`initial_truncation` of the order n (the top
order on a grid), the larger of what two regimes need (DLMF 28.8). On
the rotor side order n sits at index n // 2, so
n // 2 + 3 + ceil(1.4 l^(1/4)) rows.
Deep in the well level n is an oscillator state whose weights spread
over about sqrt(2n + 1) l^(1/4) harmonics, so
3 + ceil(0.6 l^(1/4) (4.5 + sqrt(2n + 1))) rows, at most the fixed
``TRUNCATION_CAP``. By min-max the first N rows T bound each value from
above; one call gives T's values mu. The tail past them has diagonal
d_j = (p + 2j)^2, j >= N, and off-diagonal l, so by its Schur complement
each value v is one of T - l^2 g(v) e_N e_N^T, with g its (1, 1)
resolvent entry, increasing. T's top value (index k) plus its rounding
floor, t = mu_k + JITTER_FACTOR * eps * ||T||, is above every value
sought. One fraction level and the constant chain on d_{N+1} below the
rest bound l^2 g(t) by c = l^2 / (d_N - t - 2 l^2 / (a + sqrt(a^2 -
4 l^2))), a = d_{N+1} - t, if a > 2 l and the denominator is positive:
L, T with its last diagonal entry lowered by c, bounds each value below t
from below. Value i passes when a Sturm count finds at most i values of
L below mu_i - tol_i + delta, tol_i = max(EIGENVALUE_TOL * max(1,
|mu_i|), JITTER_FACTOR * eps * (||T|| + c)), ||T|| = max|diag| +
2 max|off|; without a valid c, or with a bound that is not finite, none
passes. A size whose value passes returns mu, else the size doubles. At
the cap :class:`ConvergenceError` carries L's value (-inf without a
valid c) and the order's mu.

Caches
------
Two typed caches of 16,384 entries each: ``_values`` keeps the value
of one (family, order, l), ``_weights`` the read-only eigenvector
weights of one (family, order, l) from one ``dstein`` inverse iteration
on T's bisection, started at twice the first size (a complex
plane-wave series would take eight times the memory). Inputs are
validated inside the cached functions, so a hit is one lookup, hashed in
C (families hash by identity), and ``True`` or ``2.0`` never hit an
entry made for ``1`` or ``2``; an unhashable argument turns the lookup's
TypeError into DomainError. A third keeps 64 read-only grids of
:func:`_converge_grid`. The read-only q-free bands of each family are
built at import at the cap; each size slices them.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np
from scipy.linalg.lapack import dstebz, dstein, dsterf

from .errors import (ConvergenceError, DomainError, _shown, check_count, check_real,
                     check_type)
from .series import TrigSeries

EIGENVALUE_TOL = 1e-11  # relative
# t and tol add JITTER_FACTOR eps ||T||: LAPACK's values of T are off by a few eps ||T||
JITTER_FACTOR = 4.0
# delta = COUNT_ERROR eps max|b|: a count is exact for L with each off-diagonal b
# moved by <= 2.5 eps |b| (Kahan; Demmel, Applied Numerical Linear Algebra, 5.3.4)
COUNT_ERROR = 6.0
TRUNCATION_CAP = 512  # largest matrix size
CACHE_SIZE = 16384
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


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

    __hash__ = object.__hash__  # identity, hashed in C: cache keys and _BANDS

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


def _cap_bands(mathieu_class: MathieuClass):
    """Read-only q-free bands at the cap: squared ladder, unit off-diagonal."""
    ladder = mathieu_class.harmonics(TRUNCATION_CAP) ** 2.0
    unit = np.ones(TRUNCATION_CAP - 1)
    if mathieu_class.lowest == 0:
        unit[0] = np.sqrt(2.0)
    ladder.setflags(write=False)
    unit.setflags(write=False)
    return ladder, unit


_BANDS = {cls: _cap_bands(cls) for cls in MathieuClass}


def _tridiagonal(mathieu_class: MathieuClass, q: float, size: int):
    """Symmetric tridiagonal matrix bands for one parity family, and ||T||.

    The diagonal is the squared ladder. With p = 0 the first row carries
    a sqrt(2) scaling that keeps the matrix symmetric on the orthonormal
    cosine basis, so eigenvectors are unit-norm weights as they stand; with
    p = 1 harmonic -1 folds onto 1, +q for cosines and -q for sines.
    ||T|| = max|diag| + 2 max|off| for q >= 0; only the first diagonal
    entry can exceed the last in size. It is taken in Python floats first,
    and ConvergenceError is raised if it overflows, so no band entry does.
    """
    ladder, unit = _BANDS[mathieu_class]
    diag, unit = ladder[:size], unit[:size - 1]
    if mathieu_class.lowest == 1:
        diag = diag.copy()
        diag[0] += q if mathieu_class.is_cosine else -q
    norm = max(abs(float(diag[0])), float(diag[-1])) + 2.0 * q * float(unit[0])
    if norm == math.inf:
        raise ConvergenceError(f"||T|| overflows for ({mathieu_class.value}, l={q})")
    return diag, q * unit, norm


def initial_truncation(n: int, l: float | np.ndarray) -> int | np.ndarray:
    """First matrix size for orders up to n at l >= 0, or float sizes at an
    array of l (libm's pow, as for a float); see the module docstring."""
    if isinstance(l, np.ndarray):
        ceil, larger, root = np.ceil, np.maximum, np.float_power(l, 0.25)
    else:
        ceil, larger, root = math.ceil, max, l ** 0.25
    return larger(n // 2 + 3 + ceil(1.4 * root),
                  3 + ceil(0.6 * root * (4.5 + math.sqrt(2 * n + 1))))


def _kernel(diag, off, k: int | None, mathieu_class: MathieuClass, l: float):
    """Value k of the bands by the ``dstebz`` bisection, with its (iblock,
    isplit), or every value by ``dsterf`` and None where k is None: one
    LAPACK call; see the module docstring."""
    if k is None:
        values, info = dsterf(diag, off)
        found, split = len(values), None
    else:
        found, values, iblock, isplit, info = dstebz(
            diag, off, 2, 0.0, 0.0, k + 1, k + 1, 0.0, "E")
        values, split = values[:found], (iblock, isplit)
    if info or not found:
        raise ConvergenceError(
            f"{'dstebz' if split else 'dsterf'} info={info}, {found} values at size "
            f"{len(diag)} for ({mathieu_class.value}, l={l})")
    return values, split


def _tail_shift(edge: int, t: float, l: float) -> float | None:
    """c for values below t and tail diagonal edge^2, ...; None if not valid."""
    a = (edge + 2) ** 2 - t
    gap = (edge ** 2 - t - 2.0 * l * l / (a + math.sqrt((a - 2.0 * l) * (a + 2.0 * l)))
           if a > 2.0 * l else 0.0)
    return l * l / gap if gap > 0.0 else None


def _passes(diag, off, x: float, k: int) -> bool:
    """Whether the bands have at most k values below x, within delta: LDL^T pivots."""
    below, pivot = 0, 1.0
    for d, b2 in zip(diag.tolist(), [0.0] + (off * off).tolist()):  # b_{j-1}^2
        if (pivot := d - x - b2 / pivot) <= 0.0:  # as LAPACK's pivmin, 0 counts as -tiny
            pivot, below = pivot or -_TINY, below + 1  # IEEE inf does the rest
            if below > k:
                return False
    return True


def _converge(mathieu_class: MathieuClass, n: int, l: float, widen: int):
    """Value of order n from ``widen`` times the first size; validates every
    input. Returns it as a float and the ``dstein`` inputs of the accepted
    size: T's bands, the value and its ``dstebz`` block data (iblock,
    isplit). See the module docstring for the rule.
    """
    k = check_type(mathieu_class, MathieuClass, "family").eigen_index(n)
    l = check_real(l, "barrier l", 0.0, False)
    size = min(widen * initial_truncation(n, l), TRUNCATION_CAP)
    delta = COUNT_ERROR * _EPS * float(_BANDS[mathieu_class][1][0]) * l
    while True:
        diag, off, norm = _tridiagonal(mathieu_class, l, size)
        values, split = _kernel(diag, off, k, mathieu_class, l)
        upper = float(values[0])
        shift = _tail_shift(mathieu_class.lowest + 2 * size,
                            upper + JITTER_FACTOR * _EPS * norm, l)
        if shift is not None:
            lowered = diag.copy()
            lowered[-1] -= shift
            tol = max(EIGENVALUE_TOL * max(1.0, abs(upper)),
                      JITTER_FACTOR * _EPS * (norm + shift))
            if _passes(lowered, off, upper - tol + delta, k):
                return upper, (diag, off, values, split)
        if size >= TRUNCATION_CAP:
            lower = (-math.inf if shift is None else
                     float(_kernel(lowered, off, k, mathieu_class, l)[0][0]))
            raise ConvergenceError(
                f"eigenvalue bounds apart at truncation cap {TRUNCATION_CAP} for "
                f"({mathieu_class.value}, n={n}, l={l})", last_iterates=(lower, upper))
        size = min(2 * size, TRUNCATION_CAP)


@functools.lru_cache(maxsize=64)  # the sweep, schedule and scan grids of one run
def _converge_grid(mathieu_class: MathieuClass, top: int,
                   barriers: tuple[float, ...]) -> np.ndarray:
    """Values of orders p, p + 2, ..., top as read-only rows, one per barrier
    (checked by the caller; a repeat is solved once), by :func:`_converge`'s
    rule at the first sizes, from one :func:`initial_truncation` call (a scalar
    serves all) and one ``dsterf`` on T per barrier; a row not certified
    there, for want of a valid c too, takes :func:`_converge`'s values."""
    k_hi = mathieu_class.eigen_index(top)
    q, inverse = np.unique(np.array(barriers, dtype=float), return_inverse=True)
    sizes = np.full(q.size, np.minimum(initial_truncation(top, q), TRUNCATION_CAP), int)
    ladder, unit = _BANDS[mathieu_class]
    with np.errstate(all="ignore"):  # a row that overflows or has no valid c fails
        diag = np.tile(ladder[:sizes.max(initial=k_hi + 1)], (q.size, 1))  # widest size
        if mathieu_class.lowest == 1:
            diag[:, 0] += q if mathieu_class.is_cosine else -q
        off = q[:, None] * unit[:diag.shape[1] - 1]
        mu = np.empty((q.size, k_hi + 1))
        for i, (n, l) in enumerate(zip(sizes.tolist(), q.tolist())):  # T, one call each
            mu[i] = _kernel(diag[i, :n], off[i, :n - 1], None, mathieu_class,
                            l)[0][:k_hi + 1]
        norm = np.maximum(np.abs(diag[:, 0]), ladder[sizes - 1]) + 2.0 * q * unit[0]
        t = mu[:, -1] + JITTER_FACTOR * _EPS * norm  # above value k_hi of T
        edge = mathieu_class.lowest + 2 * sizes
        a = (edge + 2) ** 2 - t
        gap = edge ** 2 - t - 2.0 * q * q / (a + np.sqrt((a - 2.0 * q) * (a + 2.0 * q)))
        shift = np.where((a > 2.0 * q) & (gap > 0.0), q * q / gap, np.nan)
        diag[np.arange(q.size), sizes - 1] -= shift  # L
        tol = np.maximum(EIGENVALUE_TOL * np.maximum(1.0, np.abs(mu)),
                         JITTER_FACTOR * _EPS * (norm + shift)[:, None])
        x = mu - tol + (COUNT_ERROR * _EPS * unit[0] * q)[:, None]  # plus delta
        e2 = np.pad(off * off, ((0, 0), (1, 0)))  # b_{j-1}^2, 0 at j = 0
        pivot, below = np.ones_like(x), np.zeros(x.shape, dtype=int)
        for j in range(diag.shape[1]):  # _passes over every row and order at once
            pivot = diag[:, j, None] - x - e2[:, j, None] / pivot
            pivot[pivot == 0.0] = -_TINY
            below += (pivot < 0.0) & (j < sizes[:, None])
    passed = (below <= np.arange(k_hi + 1)).all(axis=1) & np.isfinite(x).all(axis=1)
    for i in np.flatnonzero(~passed).tolist():
        mu[i] = [_converge(mathieu_class, n, q[i], 1)[0]
                 for n in range(mathieu_class.lowest, top + 1, 2)]
    out = mu[inverse]
    out.setflags(write=False)
    return out


def characteristic_values(mathieu_class: MathieuClass, n: int, l: float) -> float:
    """Characteristic value of order n, which must belong to the family.

    The values cache holds one float per exact argument list.
    """
    try:
        return _values(mathieu_class, n, l)
    except TypeError:  # the cache could not hash an argument
        raise DomainError(f"need a family, an integer order and a real barrier, "
                          f"got {_shown((mathieu_class, n, l))}") from None


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _values(mathieu_class: MathieuClass, n: int, l: float) -> float:
    return _converge(mathieu_class, n, l, 1)[0]


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _weights(mathieu_class: MathieuClass, n: int, l: float) -> np.ndarray:
    """Read-only basis weights of order n, order-matching harmonic positive."""
    diag, off, values, split = _converge(mathieu_class, n, l, 2)[1]
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
    try:
        weights = _weights(mathieu_class, n, l)
    except TypeError:  # an unhashable barrier: the order is checked
        raise DomainError(f"barrier l must be a finite real, got {_shown(l)}") from None
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
    return characteristic_values(ce_class(n), n, l)


def b_value(n: int, l: float) -> float:
    """Odd-family characteristic value b_n(l)."""
    return characteristic_values(se_class(n), n, l)
