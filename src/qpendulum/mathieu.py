"""Mathieu eigenproblem on [0, 2pi): -psi'' + 2 l cos(2 phi) psi = E psi.

The four parity families are the characters of Klein's four-group
(DLMF 28.2), so each is two data: ``is_cosine``, its parity under
phi -> -phi, and its lowest harmonic p, whose parity is that under
phi -> phi + pi. Its ladder p, p + 2, ..., spectral index, matrix
diagonal and series slots follow; only the first matrix row differs. One
engine, :func:`_converge`, solves one family at one barrier for a range
of orders, values only, doubling the matrix size until two bounds on
every value meet. Each size costs two direct LAPACK calls: ``dsterf``
(root-free QR, every value, O(N^2)) for three or more orders, and the
``dstebz`` bisection of the index range, whose cost grows as rows times
requested values, for one or two. :func:`_converge_grid` gives the same
bits for a barrier grid, with the Python work of each first size done
once as array operations; a batch of one costs several solves. An
eigenvector holds the weights of the orthonormal functions cos(h phi) or
sin(h phi) over sqrt(pi) (1/sqrt(2 pi) for h = 0), so it has unit L2 norm;
:func:`ce_series` and :func:`se_series` alone move it onto the
plane-wave slots of :mod:`qpendulum.series`, which keeps the norm.

Convergence rule
----------------
The first size N is :func:`initial_truncation` of the highest order n,
the larger of what two regimes need (DLMF 28.8). On the rotor side
order n sits at index n // 2, so n // 2 + 3 + ceil(1.4 l^(1/4)) rows.
Deep in the well level n is an oscillator state whose weights spread
over about sqrt(2n + 1) l^(1/4) harmonics, so
3 + ceil(0.6 l^(1/4) (4.5 + sqrt(2n + 1))) rows, at most the fixed
``TRUNCATION_CAP``. By min-max the first N rows T bound each value from
above. The tail past them has diagonal d_j = (p + 2j)^2, j >= N, and
off-diagonal l, so by its Schur complement each value v is one of
T - l^2 g(v) e_N e_N^T, with g its (1, 1) resolvent entry, increasing.
For t the largest upper bound, one continued-fraction level and the
constant chain on d_{N+1} below the rest bound l^2 g(t) by
c = l^2 / (d_N - t - 2 l^2 / (a + sqrt(a^2 - 4 l^2))), a = d_{N+1} - t,
if a > 2 l and the denominator is positive: T with its last diagonal
entry lowered by c bounds each value from below. A size whose bounds
all differ by less than ``max(EIGENVALUE_TOL * max(1, |v|),
JITTER_FACTOR * eps * (||T|| + c))`` returns its lower bounds; else the
size doubles. ||T|| = max|diag| + 2 max|off|; LAPACK jitters below that
floor, and ||T|| grows as the squared size. Every order up to 64 and
l up to 1e5 tested closes at its first size. Bounds apart at the cap
raise :class:`ConvergenceError` with the worst order's two bounds (-inf
below without a valid c), a nonzero LAPACK status without them.

Caches
------
Two typed caches of 16,384 entries each: ``_values`` keeps the values
of one (family, order range, l), ``_weights`` the read-only eigenvector
weights of one (family, order, l) from one ``dstein`` inverse iteration
on the upper bisection, started at twice the first size (a complex
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
# Multiple of eps * ||T|| below which two bounds count as met: LAPACK
# jitter. On the module docstring's grid a lower bound came out above its
# upper bound by up to 13 eps * ||T||, which the one-sided test passes.
JITTER_FACTOR = 4.0
TRUNCATION_CAP = 512  # largest matrix size
CACHE_SIZE = 16384
_EPS = float(np.finfo(float).eps)


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


def initial_truncation(n: int, l: float) -> int:
    """First matrix size for orders up to n; see the module docstring."""
    root = max(l, 0.0) ** 0.25
    return max(n // 2 + 3 + math.ceil(1.4 * root),
               3 + math.ceil(0.6 * root * (4.5 + math.sqrt(2 * n + 1))))


def _kernel(diag, off, k_lo: int, k_hi: int, mathieu_class: MathieuClass, l: float):
    """Values k_lo..k_hi of the bands, and the (iblock, isplit) of a
    ``dstebz`` call or None, from one LAPACK call; see the module docstring."""
    count = k_hi - k_lo + 1
    if count >= 3:  # all values by root-free QR beat bisecting three
        every, info = dsterf(diag, off)
        found, values, split = count, every[k_lo:k_hi + 1], None
    else:
        found, values, iblock, isplit, info = dstebz(
            diag, off, 2, 0.0, 0.0, k_lo + 1, k_hi + 1, 0.0, "E")
        values, split = values[:found], (iblock, isplit)
    if info or found < count:
        raise ConvergenceError(
            f"{'dstebz' if split else 'dsterf'} info={info}, {found} values at size "
            f"{len(diag)} for ({mathieu_class.value}, l={l})")
    return values, split


def _converge(mathieu_class: MathieuClass, n_lo: int, n_hi: int, l: float,
              widen: int):
    """Values of orders n_lo, n_lo + 2, ..., n_hi, from ``widen`` times the
    first size; validates every input. Returns the lower bounds as a list of
    floats and the ``dstein`` inputs of the accepted size: its bands, the
    upper bounds and their ``dstebz`` block data (iblock, isplit), or None
    from a ``dsterf`` solve. See the module docstring for the rule.
    """
    k_lo = check_type(mathieu_class, MathieuClass, "family").eigen_index(n_lo)
    k_hi = mathieu_class.eigen_index(n_hi)
    if k_hi < k_lo:
        raise DomainError(f"empty order range {n_lo}..{n_hi}")
    l = check_real(l, "barrier l", 0.0, False)
    size = min(widen * initial_truncation(n_hi, l), TRUNCATION_CAP)
    count = k_hi - k_lo + 1
    while True:
        diag, off, norm = _tridiagonal(mathieu_class, l, size)
        upper, split = _kernel(diag, off, k_lo, k_hi, mathieu_class, l)
        upper = upper.tolist()
        lower, excess = [-math.inf] * count, [math.inf] * count
        edge = mathieu_class.lowest + 2 * size  # tail diagonal edge^2, (edge + 2)^2, ...
        a = (edge + 2) ** 2 - upper[-1]
        gap = (edge ** 2 - upper[-1] - 2.0 * l * l / (a + math.sqrt(
            (a - 2.0 * l) * (a + 2.0 * l))) if a > 2.0 * l else 0.0)
        if gap > 0.0:
            shift = l * l / gap
            lowered = diag.copy()
            lowered[-1] -= shift
            lower = _kernel(lowered, off, k_lo, k_hi, mathieu_class, l)[0].tolist()
            floor = JITTER_FACTOR * _EPS * (norm + shift)
            excess = [(u - v) / max(EIGENVALUE_TOL * max(1.0, abs(v)), floor)
                      for u, v in zip(upper, lower)]
            if max(excess) < 1.0:
                return lower, (diag, off, upper, split)
        if size >= TRUNCATION_CAP:
            worst = excess.index(max(excess))
            raise ConvergenceError(
                f"eigenvalue bounds apart at truncation cap {TRUNCATION_CAP} for "
                f"({mathieu_class.value}, n={n_lo + 2 * worst}, l={l})",
                last_iterates=(lower[worst], upper[worst]))
        size = min(2 * size, TRUNCATION_CAP)


@functools.lru_cache(maxsize=64)  # the sweep, schedule and scan grids of one run
def _converge_grid(mathieu_class: MathieuClass, top: int,
                   barriers: tuple[float, ...]) -> np.ndarray:
    """:func:`_converge` values of orders p, p + 2, ..., top bit for bit, as
    read-only rows, one per barrier (checked by the caller; a repeat is solved
    once). The barriers of one first size share 2-D bands and one array pass
    for tail shift, norm floor and acceptance test; the rest take :func:`_converge`."""
    k_hi = mathieu_class.eigen_index(top)
    grid, inverse = np.unique(np.array(barriers, dtype=float), return_inverse=True)
    sizes = np.array([min(initial_truncation(top, l), TRUNCATION_CAP)
                      for l in grid.tolist()], dtype=int)
    ladder, unit = _BANDS[mathieu_class]
    out = np.empty((grid.size, k_hi + 1))

    def solve(diag, off, q):  # one kernel call per row
        return np.reshape([_kernel(d, e, 0, k_hi, mathieu_class, l)[0] for d, e, l
                           in zip(diag, off, q.tolist())], (q.size, out.shape[1]))

    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        q, edge = grid[rows], mathieu_class.lowest + 2 * size
        with np.errstate(all="ignore"):  # a row that overflows or has no valid c fails
            diag = np.tile(ladder[:size], (q.size, 1))
            if mathieu_class.lowest == 1:
                diag[:, 0] += q if mathieu_class.is_cosine else -q
            off = q[:, None] * unit[:size - 1]
            norm = np.maximum(np.abs(diag[:, 0]), diag[:, -1]) + 2.0 * q * unit[0]
            upper = solve(diag, off, q)
            a = (edge + 2) ** 2 - upper[:, -1]
            gap = edge ** 2 - upper[:, -1] - 2.0 * q * q / (a + np.sqrt(
                (a - 2.0 * q) * (a + 2.0 * q)))
            shift = q * q / gap
            diag[:, -1] -= shift
            valid = (a > 2.0 * q) & (gap > 0.0)
            lower = np.full_like(upper, np.nan)
            lower[valid] = solve(diag[valid], off[valid], q[valid])
            excess = (upper - lower) / np.maximum(EIGENVALUE_TOL * np.maximum(
                1.0, np.abs(lower)), JITTER_FACTOR * _EPS * (norm + shift)[:, None])
        out[rows] = lower
        for i in rows[~(excess.max(axis=1) < 1.0)].tolist():
            out[i] = _converge(mathieu_class, mathieu_class.lowest, top, grid[i], 1)[0]
    out = out[inverse]
    out.setflags(write=False)
    return out


def characteristic_values(mathieu_class: MathieuClass, n_lo: int, n_hi: int,
                          l: float) -> tuple[float, ...]:
    """Characteristic values of orders n_lo, n_lo + 2, ..., n_hi in one solve.

    Both orders must belong to the family. The values cache holds one
    tuple per exact argument list.
    """
    try:
        return _values(mathieu_class, n_lo, n_hi, l)
    except TypeError:  # the cache could not hash an argument
        raise DomainError(f"need a family, integer orders and a real barrier, "
                          f"got {_shown((mathieu_class, n_lo, n_hi, l))}") from None


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _values(mathieu_class: MathieuClass, n_lo: int, n_hi: int,
            l: float) -> tuple[float, ...]:
    return tuple(_converge(mathieu_class, n_lo, n_hi, l, 1)[0])


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _weights(mathieu_class: MathieuClass, n: int, l: float) -> np.ndarray:
    """Read-only basis weights of order n, order-matching harmonic positive."""
    diag, off, upper, split = _converge(mathieu_class, n, n, l, 2)[1]
    vecs, info = dstein(diag, off, upper, *split)
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
    return characteristic_values(ce_class(n), n, n, l)[0]


def b_value(n: int, l: float) -> float:
    """Odd-family characteristic value b_n(l)."""
    return characteristic_values(se_class(n), n, n, l)[0]
