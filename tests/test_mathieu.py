import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import mathieu_a, mathieu_b

from qpendulum import mathieu
from qpendulum.cli import EXIT_CONVERGENCE, main
from qpendulum.errors import ConvergenceError, DomainError
from qpendulum.mathieu import (
    TRUNCATION_CAP,
    MathieuClass,
    a_value,
    b_value,
    build_series,
    ce_class,
    ce_series,
    characteristic_value,
    characteristic_values,
    se_class,
    se_series,
    spectral_level,
)
from qpendulum.series import TrigSeries, eval_series, inner_product

GRID = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)


def dense_spectrum(mathieu_class, l, size):
    """Independent eigensolve of the same family via a dense matrix."""
    from qpendulum.mathieu import _tridiagonal

    diag, off = _tridiagonal(mathieu_class, l, size)
    m = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.sort(np.linalg.eigvalsh(m))


def dense_oracle(mathieu_class, n, l, size=96):
    return dense_spectrum(mathieu_class, l, size)[mathieu_class.eigen_index(n)]


@pytest.mark.parametrize("n", range(0, 9))
def test_free_rotor_values(n):
    if n >= 0:
        assert a_value(n, 0.0) == pytest.approx(n * n, abs=1e-12)
    if n >= 1:
        assert b_value(n, 0.0) == pytest.approx(n * n, abs=1e-12)


@pytest.mark.parametrize("l", [0.7, 3.42, 11.1, 28.0, 50.84])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_against_dense_oracle(n, l):
    cls = ce_class(n)
    assert characteristic_value(cls, n, l) == pytest.approx(
        dense_oracle(cls, n, l), abs=1e-9)
    if n >= 1:
        cls = se_class(n)
        assert characteristic_value(cls, n, l) == pytest.approx(
            dense_oracle(cls, n, l), abs=1e-9)


def test_second_order_perturbation_small_l():
    # a_0(l) = -l^2/2 + O(l^4) for the ground level
    l = 1e-3
    assert a_value(0, l) == pytest.approx(-l * l / 2.0, abs=1e-10)
    # a_2/b_2 split at second order: a_2 - b_2 ~ l^2 * 5/12 - (-1/12) ... just
    # check the degenerate first-order split of n=1: a_1 - b_1 = 2l + O(l^2)
    assert a_value(1, l) - b_value(1, l) == pytest.approx(2 * l, rel=1e-3)


def test_deep_well_asymptotics():
    # For l >> n^2 levels approach the harmonic ladder of one well:
    # E ~ -2l + 4*sqrt(l)*(m + 1/2) with m = 0 for the lowest pair
    l = 400.0
    e0 = a_value(0, l)
    assert e0 == pytest.approx(-2 * l + 4 * np.sqrt(l) * 0.5, rel=0.02)
    # lowest tunneling doublet nearly degenerate
    assert abs(a_value(0, l) - b_value(1, l)) < 1e-6


@pytest.mark.parametrize("n,l", [(0, 0.5), (1, 3.42), (2, 11.1), (5, 50.84)])
def test_operator_residual(n, l):
    """-psi'' + 2 l cos(2 phi) psi = E psi checked pointwise."""
    for series_fn in (ce_series,) + ((se_series,) if n >= 1 else ()):
        s = series_fn(n, l)
        e = (a_value if series_fn is ce_series else b_value)(n, l)
        # (Hc)_k = k^2 c_k + l (c_{k-2} + c_{k+2}); the zero padding
        # makes np.roll's wrapped slots zero
        c = np.pad(s.coeffs, 2)
        k = np.arange(len(c)) - len(c) // 2
        hc = k ** 2 * c + l * (np.roll(c, 2) + np.roll(c, -2))
        lhs = eval_series(TrigSeries(hc), GRID)
        np.testing.assert_allclose(lhs, e * eval_series(s, GRID), atol=1e-8)


def test_orthonormality_within_class():
    l = 11.1
    for cls, orders in ((MathieuClass.CE_EVEN, [0, 2, 4, 6]),
                        (MathieuClass.SE_ODD, [1, 3, 5])):
        series = [build_series(spectral_level(cls, n, l)) for n in orders]
        for i, si in enumerate(series):
            for j, sj in enumerate(series):
                assert inner_product(si, sj) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-10)


def test_ce_se_cross_orthogonality():
    l = 3.42
    assert inner_product(ce_series(1, l), se_series(1, l)) == pytest.approx(
        0.0, abs=1e-12)


def test_sign_convention():
    # the order-matching harmonic carries positive weight: w cos(n phi)
    # puts w/sqrt(2) on c_n, w sin(n phi) puts +i w/sqrt(2) on c_{-n}
    for n, l in ((0, 5.0), (3, 10.0)):
        s = ce_series(n, l)
        assert s.coeffs[s.n_harmonics + n].real > 0
    s = se_series(2, 5.0)
    assert s.coeffs[s.n_harmonics - 2].imag > 0


def test_order_validation():
    with pytest.raises(DomainError):
        characteristic_value(MathieuClass.CE_EVEN, 3, 1.0)
    with pytest.raises(DomainError):
        characteristic_value(MathieuClass.SE_EVEN, 0, 1.0)
    with pytest.raises(DomainError):
        a_value(2, -1.0)
    with pytest.raises(DomainError):
        se_class(0)
    with pytest.raises(DomainError):
        characteristic_values(MathieuClass.CE_ODD, 5, 1, 1.0)


def test_convergence_error_reports_iterates():
    # sizes 256 and 512 still disagree at l = 1e11
    with pytest.raises(ConvergenceError) as err:
        characteristic_value(MathieuClass.CE_EVEN, 0, 1e11)
    assert err.value.last_iterates is not None


@pytest.mark.parametrize("l", [0.0, 1e-6, 3.7, 55.0, 247.5, 1e3, 1e4])
@pytest.mark.parametrize("start,width", [(0, 1), (0, 5), (3, 1), (3, 5)])
@pytest.mark.parametrize("cls", list(MathieuClass))
def test_direct_dstebz_equals_scipy_eigvalsh_tridiagonal(cls, start, width, l,
                                                         monkeypatch):
    """Each direct LAPACK call returns exactly what scipy's
    eigvalsh_tridiagonal gives for the same bands and index range, and
    the converged values are the last of them. At l = 1e4 the first
    size is the cap, so half the cap is solved first."""
    calls = []
    real = mathieu.dstebz

    def spy(diag, off, *args):
        found, w, iblock, isplit, info = real(diag, off, *args)
        calls.append((diag.copy(), off.copy(), w[:found].copy()))
        return found, w, iblock, isplit, info

    monkeypatch.setattr(mathieu, "dstebz", spy)
    characteristic_values.cache_clear()
    n_lo = cls.lowest + 2 * start
    n_hi = n_lo + 2 * (width - 1)
    values = characteristic_values(cls, n_lo, n_hi, l)
    for diag, off, got in calls:
        ref = eigvalsh_tridiagonal(diag, off, select="i",
                                   select_range=(start, start + width - 1),
                                   check_finite=False)
        assert len(got) == width and (got == ref).all()
    assert values == tuple(ref.tolist())
    if l == 1e4:
        assert mathieu.initial_truncation(n_hi, l) > TRUNCATION_CAP
        assert [len(c[0]) for c in calls] == [TRUNCATION_CAP // 2, TRUNCATION_CAP]


@pytest.mark.parametrize("fail", ["info", "count"])
def test_lapack_failure_raises_convergence_error(fail, monkeypatch):
    real = mathieu.dstebz

    def failing(*args):
        found, w, iblock, isplit, info = real(*args)
        return (found, w, iblock, isplit, 1) if fail == "info" else (
            found - 1, w, iblock, isplit, info)

    monkeypatch.setattr(mathieu, "dstebz", failing)
    characteristic_values.cache_clear()
    with pytest.raises(ConvergenceError):
        characteristic_values(MathieuClass.CE_EVEN, 0, 4, 2.5)
    assert main(["characteristics", "--n-max", "2", "--l-min", "0",
                 "--l-max", "1", "--steps", "2"]) == EXIT_CONVERGENCE


# Covers LAPACK jitter above the 1e-11 relative tolerance (a_8 and b_9
# at l = 247.5) and first truncations at or above the cap
# (l >= 4000).
ORACLE_GRID = (0.0, 0.5, 10.0, 100.0, 247.5, 1e3, 4e3, 1e4)


@pytest.mark.parametrize("l", ORACLE_GRID)
def test_grid_converges_and_matches_oracles(l):
    """Orders up to 20 converge; scipy.special is the oracle up to l = 55,
    dense eigvalsh at size 1024 beyond."""
    dense = ({cls: dense_spectrum(cls, l, 1024) for cls in MathieuClass}
             if l > 55 else None)
    for n in range(21):
        for cls, special in ((ce_class(n), mathieu_a),) + (
                ((se_class(n), mathieu_b),) if n else ()):
            value = characteristic_value(cls, n, l)
            ref = special(n, l) if dense is None else dense[cls][cls.eigen_index(n)]
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(value)), (cls, n, l)


@pytest.mark.parametrize("n,l", [(2, math.nan), (2, math.inf), (True, 1.0),
                                 (2.0, 1.0), (2, True), (2, "1.0")])
def test_rejects_nonfinite_barriers_and_non_integer_orders(n, l):
    # cached entries for the equal keys 1, 2 and 1.0 must not answer these
    a_value(1, 1.0), a_value(2, 1.0)
    with pytest.raises(DomainError):
        a_value(n, l)
    with pytest.raises(DomainError):
        ce_series(n, l)


def test_numpy_scalars_accepted_and_values_are_floats():
    value = a_value(2, 1.0)
    assert type(value) is float
    assert a_value(np.int64(2), np.float64(1.0)) == value
    assert type(spectral_level(MathieuClass.CE_EVEN, np.int64(2), 1.0).n) is int


def _placed_by_loop(level):
    """Plane-wave placement as one loop per coefficient."""
    harm = level.mathieu_class.harmonics(len(level.coeffs))
    top = int(harm[-1])
    coeffs = np.zeros(2 * top + 1, dtype=np.complex128)
    for k, w in zip(harm, level.coeffs):
        if not level.mathieu_class.is_cosine:
            coeffs[top + k] = -1j * (w / np.sqrt(2.0))
            coeffs[top - k] = 1j * (w / np.sqrt(2.0))
        elif k == 0:
            coeffs[top] = w
        else:
            coeffs[top + k] = coeffs[top - k] = w / np.sqrt(2.0)
    return coeffs


@pytest.mark.parametrize("cls,n", [(MathieuClass.CE_EVEN, 0), (MathieuClass.CE_EVEN, 4),
                                   (MathieuClass.CE_ODD, 3), (MathieuClass.SE_ODD, 1),
                                   (MathieuClass.SE_EVEN, 2)])
def test_build_series_bit_identical_to_loop(cls, n):
    level = spectral_level(cls, n, 11.1)
    series = build_series(level)
    assert np.array_equal(series.coeffs, _placed_by_loop(level))


@pytest.mark.parametrize("cls,n", [(MathieuClass.CE_EVEN, 2), (MathieuClass.CE_ODD, 1),
                                   (MathieuClass.SE_ODD, 3), (MathieuClass.SE_EVEN, 2)])
def test_build_series_pointwise(cls, n):
    """Each weight w of harmonic h is w cos(h phi)/sqrt(pi) or w sin(h phi)/sqrt(pi)."""
    level = spectral_level(cls, n, 3.42)
    want = np.zeros(len(GRID))
    for h, w in zip(cls.harmonics(len(level.coeffs)), level.coeffs):
        if h == 0:
            want += w / np.sqrt(2.0 * np.pi)
        else:
            trig = np.cos if cls.is_cosine else np.sin
            want += w * trig(h * GRID) / np.sqrt(np.pi)
    np.testing.assert_allclose(eval_series(build_series(level), GRID), want,
                               atol=1e-12)


def test_integer_barrier_gives_float_bands():
    # an integer q once made an integer band, truncating sqrt(2) q
    from qpendulum.mathieu import _tridiagonal

    for cls in MathieuClass:
        diag, off = _tridiagonal(cls, 100, 8)
        ref_diag, ref_off = _tridiagonal(cls, 100.0, 8)
        assert off.dtype == np.float64
        assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off)
    assert _tridiagonal(MathieuClass.CE_EVEN, 100, 8)[1][0] == np.sqrt(2.0) * 100.0


# The per-family branches that preceded the family data, kept as the
# reference for the derived ladders.
def reference_validate_order(cls, n):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n!r}")
    even = n % 2 == 0
    if cls is MathieuClass.CE_EVEN and not even:
        raise DomainError(f"ce-even admits even orders only, got n={n}")
    if cls in (MathieuClass.CE_ODD, MathieuClass.SE_ODD) and even:
        raise DomainError(f"{cls.value} admits odd orders only, got n={n}")
    if cls is MathieuClass.SE_EVEN and (even is False or n < 2):
        raise DomainError(f"se-even admits even orders >= 2, got n={n}")


def reference_harmonics(cls, size):
    r = np.arange(size)
    if cls is MathieuClass.CE_EVEN:
        return 2 * r
    if cls is MathieuClass.SE_EVEN:
        return 2 * r + 2
    return 2 * r + 1


def reference_eigen_index(cls, n):
    reference_validate_order(cls, n)
    if cls is MathieuClass.CE_EVEN:
        return n // 2
    if cls is MathieuClass.SE_EVEN:
        return n // 2 - 1
    return (n - 1) // 2


def reference_tridiagonal(cls, q, size):
    off = np.full(size - 1, q, dtype=float)
    if cls is MathieuClass.CE_EVEN:
        diag = (2.0 * np.arange(size)) ** 2
        off[0] = np.sqrt(2.0) * q
    elif cls is MathieuClass.CE_ODD:
        diag = (2.0 * np.arange(size) + 1.0) ** 2
        diag[0] = 1.0 + q
    elif cls is MathieuClass.SE_ODD:
        diag = (2.0 * np.arange(size) + 1.0) ** 2
        diag[0] = 1.0 - q
    else:
        diag = (2.0 * np.arange(size) + 2.0) ** 2
    return diag, off


@pytest.mark.parametrize("cls", list(MathieuClass))
def test_family_ladders_match_per_family_reference(cls):
    from qpendulum.mathieu import _tridiagonal

    assert MathieuClass(cls.value) is cls
    for size in (2, 3, 32, 512):
        assert np.array_equal(cls.harmonics(size), reference_harmonics(cls, size))
        for q in (0.0, 0.7, 11.1, 1e4):
            diag, off = _tridiagonal(cls, q, size)
            ref_diag, ref_off = reference_tridiagonal(cls, q, size)
            assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off)
    rejected, ref_rejected = set(), set()
    for n in range(13):
        try:
            index = cls.eigen_index(n)
        except DomainError:
            rejected.add(n)
        try:
            ref_index = reference_eigen_index(cls, n)
        except DomainError:
            ref_rejected.add(n)
        if n not in rejected | ref_rejected:
            assert index == ref_index
    assert rejected == ref_rejected
    for n in (-2, -1, True, 2.0, np.int64(-1)):
        with pytest.raises(DomainError):
            cls.eigen_index(n)
