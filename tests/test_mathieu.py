import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.special import mathieu_a, mathieu_b

from qpendulum import mathieu
from qpendulum.cli import EXIT_CONVERGENCE, main
from qpendulum.errors import ConvergenceError, DomainError
from qpendulum.mathieu import (
    TRUNCATION_CAP,
    MathieuClass,
    a_value,
    b_value,
    ce_class,
    ce_series,
    characteristic_values,
    se_class,
    se_series,
)
from qpendulum.series import TrigSeries, eval_series, inner_product
from qpendulum.states import StateFamily, StateSpec, build_state
from qpendulum.symmetry import GapMeasure, PairingKind, pair_gap

GRID = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)


def dense_spectrum(mathieu_class, l, size):
    """Independent eigensolve of the same family via a dense matrix."""
    from qpendulum.mathieu import _tridiagonal

    diag, off, _ = _tridiagonal(mathieu_class, l, size)
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
    assert characteristic_values(cls, n, n, l)[0] == pytest.approx(
        dense_oracle(cls, n, l), abs=1e-9)
    if n >= 1:
        cls = se_class(n)
        assert characteristic_values(cls, n, n, l)[0] == pytest.approx(
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
        series = [mathieu._eigen_series(cls, n, l) for n in orders]
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
        characteristic_values(MathieuClass.CE_EVEN, 3, 3, 1.0)[0]
    with pytest.raises(DomainError):
        characteristic_values(MathieuClass.SE_EVEN, 0, 0, 1.0)[0]
    with pytest.raises(DomainError):
        a_value(2, -1.0)
    with pytest.raises(DomainError):
        se_class(0)
    with pytest.raises(DomainError):
        characteristic_values(MathieuClass.CE_ODD, 5, 1, 1.0)


def test_convergence_error_reports_iterates(lapack_calls):
    """At l = 1e11 the first size is above the cap, so the cap is solved
    first; its tail diagonal starts less than 2 l above the value, so no
    lower bound holds there: one call, and -inf below. At l = 1e9 both
    bounds hold at the cap but are still 3.6e-2 apart."""
    calls = lapack_calls
    with pytest.raises(ConvergenceError) as err:
        characteristic_values(MathieuClass.CE_EVEN, 0, 0, 1e11)[0]
    assert mathieu.initial_truncation(0, 1e11) > TRUNCATION_CAP
    assert [(c[0], len(c[1])) for c in calls] == [("dstebz", TRUNCATION_CAP)]
    assert err.value.last_iterates == (-math.inf, calls[0][3][1][0])
    calls.clear()
    with pytest.raises(ConvergenceError) as err:
        characteristic_values(MathieuClass.CE_EVEN, 0, 0, 1e9)[0]
    assert [(c[0], len(c[1])) for c in calls] == [("dstebz", TRUNCATION_CAP)] * 2
    lower, upper = err.value.last_iterates
    assert (lower, upper) == (calls[1][3][1][0], calls[0][3][1][0])
    assert 1e-11 * abs(upper) < upper - lower < 0.1


# Every order up to 64 of each family, and the family ranges of a sweep
# to n_max 7, 8, 12, 16 and 24, at l = 0 and 81 barriers from 1e-3 to 1e5.
GRID_SOLVES = ([(cls, n, n) for cls in MathieuClass for n in range(cls.lowest, 65, 2)]
               + [(cls, cls.lowest, n_max - (n_max - cls.lowest) % 2)
                  for n_max in (7, 8, 12, 16, 24) for cls in MathieuClass])
GRID_BARRIERS = [0.0] + np.logspace(-3, 5, 81).tolist()


def test_first_size_closes_its_bounds(lapack_calls):
    """Each grid solve accepts its first size: two LAPACK calls on it, the
    upper bound and the lower one, whose bands differ in the last
    diagonal entry only."""
    calls = lapack_calls
    second = []
    for l in GRID_BARRIERS:
        for solve in GRID_SOLVES:
            mathieu._values.cache_clear()
            calls.clear()
            characteristic_values(*solve, l)
            (_, diag, off, _), (_, lowered, lowered_off, _) = calls[:2]
            assert np.array_equal(diag[:-1], lowered[:-1]) and lowered[-1] <= diag[-1]
            assert np.array_equal(off, lowered_off)
            if len(calls) != 2:
                second.append((*solve, l))
    assert len(GRID_SOLVES) == 149 and not second, f"{len(second)} solves: {second[:3]}"


def _grid_against_converge(n_max, barriers):
    """Each family's batched grid solve, and its rows by _converge."""
    for cls in MathieuClass:
        if cls.lowest <= n_max:
            top = n_max - (n_max - cls.lowest) % 2
            got = mathieu._converge_grid(cls, top, tuple(barriers))
            want = [mathieu._converge(cls, cls.lowest, top, l, 1)[0] for l in barriers]
            yield cls, got, np.array(want).reshape(got.shape)


# An unsorted schedule grid with repeats and zeros: l(t) = max(3 + 4 cos t, 0)
SCHEDULE_BARRIERS = [max(3.0 + 4.0 * math.cos(t), 0.0)
                     for t in np.linspace(0.0, 12.0, 97).tolist()]


@pytest.mark.parametrize("n_max,barriers", [
    (8, np.linspace(0.0, 55.0, 111).tolist()),
    *[(n_max, GRID_BARRIERS) for n_max in (0, 1, 2, 4, 8, 12, 24)],
    (8, SCHEDULE_BARRIERS)])
def test_grid_solve_equals_converge_bit_for_bit(n_max, barriers):
    """The batched solve of a barrier grid returns, row by row, the bits
    _converge returns at each barrier: the fig1 grid, the module grid for
    ranges of one or two orders (dstebz) and of three or more (dsterf),
    and a schedule grid."""
    for cls, got, want in _grid_against_converge(n_max, barriers):
        assert got.tobytes() == want.tobytes(), cls


def test_grid_solve_rejected_first_size_doubles_as_converge(lapack_calls,
                                                           monkeypatch):
    """With a first size too small to close, every barrier goes on to
    _converge's doubling, and the rows still match it bit for bit."""
    monkeypatch.setattr(mathieu, "initial_truncation", lambda n, l: n // 2 + 2)
    barriers = [0.5, 3.42, 11.1, 28.0, 55.0]
    for cls, got, want in _grid_against_converge(8, barriers):
        assert got.tobytes() == want.tobytes(), cls
    sizes = {len(c[1]) for c in lapack_calls}
    assert min(sizes) == 5 and {5, 6, 10, 12} < sizes  # n // 2 + 2 rows, then doubled


def test_no_grid_outlives_the_test_that_solved_it(pytester):
    """A grid solved under a patched first size, as above, is gone once
    its test ends: no later test reads its other bits from the cache."""
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile("""
        from qpendulum import mathieu

        def test_patched_first_size(monkeypatch):
            monkeypatch.setattr(mathieu, "initial_truncation", lambda n, l: n // 2 + 2)
            mathieu._converge_grid(mathieu.MathieuClass.CE_EVEN, 8, (0.5, 28.0))
            assert mathieu._converge_grid.cache_info().currsize == 1
    """)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider",
                                          "--import-mode=importlib")
    result.assert_outcomes(passed=1)
    assert mathieu._converge_grid.cache_info().currsize == 0


def test_bounds_enclose_tight_reference():
    """On every grid solve the lower bound is below, and the upper one
    above, a size-512 dstebz bisection at ABSTOL 1e-300, up to LAPACK
    jitter: each call returns its values to a small multiple of eps ||T||
    (up to 16 on this grid), so 32 eps ||T|| of the accepted size."""
    eps = np.finfo(float).eps
    for l in GRID_BARRIERS:
        refs = {}
        for cls in MathieuClass:
            diag, off, _ = mathieu._tridiagonal(cls, l, TRUNCATION_CAP)
            found, ref, _, _, info = mathieu.dstebz(diag, off, 2, 0.0, 0.0, 1, 33,
                                                    1e-300, "E")
            assert info == 0 and found == 33
            refs[cls] = ref[:found]
        for cls, n_lo, n_hi in GRID_SOLVES:
            lower, (diag, _, upper, _) = mathieu._converge(cls, n_lo, n_hi, l, 1)
            ref = refs[cls][cls.eigen_index(n_lo):cls.eigen_index(n_hi) + 1]
            jitter = 32 * eps * mathieu._tridiagonal(cls, l, len(diag))[2]
            assert (np.array(lower) - jitter <= ref).all(), (cls, n_lo, n_hi, l)
            assert (ref <= np.array(upper) + jitter).all(), (cls, n_lo, n_hi, l)


def test_highest_order_the_cap_holds():
    # index 509 leaves room for a first size of 511; index 510 does not
    assert a_value(1018, 0.0) == pytest.approx(1018.0 ** 2, rel=1e-12)
    with pytest.raises(ConvergenceError):
        a_value(1020, 0.0)


def _beyond_the_cap():
    import qpendulum as qp

    huge, eps = 10**5000, (4.989e-3, 9.95e-3)
    return {
        "a_value": lambda: a_value(huge, 1.0),
        "b_value": lambda: b_value(huge, 1.0),
        "characteristic_values-range":
            lambda: characteristic_values(MathieuClass.CE_EVEN, 0, huge, 1.0),
        "characteristic_values-parity":
            lambda: characteristic_values(MathieuClass.CE_EVEN, huge + 1, huge + 1, 1.0),
        "build_state": lambda: build_state(StateSpec(StateFamily.XI, huge, 1.0)),
        "classify_regions": lambda: qp.classify_regions([huge], [1.0], *eps),
        "classify_regions-1e9": lambda: qp.classify_regions([10**9], [1.0], *eps),
        "sweep_characteristics": lambda: qp.sweep_characteristics(huge, [0.0]),
        "sweep_characteristics-1e9": lambda: qp.sweep_characteristics(10**9, [0.0]),
        "boundary_table":
            lambda: qp.boundary_table([huge], qp.PairingKind.ROTOR, 0.005, {}),
        "find_boundary-1e9": lambda: qp.find_boundary(
            10**9, qp.PairingKind.WELL, 0.005, qp.GapMeasure.RELATIVE),
    }


@pytest.mark.parametrize("name", list(_beyond_the_cap()))
def test_orders_beyond_the_cap_raise_before_any_solve(name, lapack_calls):
    # a 5001-digit order once raised ValueError from its own error message,
    # and a sweep or region label to it built per-order lists first
    calls = lapack_calls
    with pytest.raises(ConvergenceError):
        _beyond_the_cap()[name]()
    assert calls == []


def _huge_integers_elsewhere():
    import qpendulum as qp

    big = 10**5000
    return {
        "ce_series-list-l": lambda: ce_series(0, [big]),
        "characteristic_values-list-l":
            lambda: characteristic_values(MathieuClass.CE_EVEN, 0, 0, [big]),
        "pair_gap-list-l": lambda: qp.pair_gap(1, qp.PairingKind.ROTOR, [big],
                                               qp.GapMeasure.RELATIVE),
        "TrigSeries": lambda: TrigSeries([big]),
        "TrigSeries-add": lambda: TrigSeries([1, 2, 3]) + big,
        "TrigSeries-mul": lambda: TrigSeries([1, 2, 3]) * big,
    }


@pytest.mark.parametrize("name", list(_huge_integers_elsewhere()))
def test_huge_integer_arguments_raise_domain_error(name, lapack_calls):
    # each once raised ValueError from printing the 5001-digit int in its
    # message, or OverflowError from complex(big)
    with pytest.raises(DomainError):
        _huge_integers_elsewhere()[name]()
    assert lapack_calls == []


@pytest.mark.parametrize("solve", [a_value, ce_series])
def test_largest_barriers_raise_convergence_error_without_a_warning(solve):
    # l * sqrt(2), the even family's corner, once overflowed in numpy with a
    # RuntimeWarning; now ||T|| overflows first, in Python floats
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflows"):
            solve(0, 1.7e308)


def test_largest_barrier_density_exits_as_a_convergence_failure(capsys):
    # under warnings-as-errors this once exited 1 with a traceback
    assert main(["density", "--family", "xi", "-n", "0", "-l", "1.7e308"]) == (
        EXIT_CONVERGENCE)
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("l", [0.0, 1e-6, 3.7, 55.0, 247.5, 1e3, 1e4])
@pytest.mark.parametrize("start,width", [(0, 1), (0, 2), (0, 3), (0, 5), (3, 1),
                                         (3, 2), (3, 3), (3, 5)])
@pytest.mark.parametrize("cls", list(MathieuClass))
def test_direct_lapack_equals_scipy_eigvalsh_tridiagonal(cls, start, width, l,
                                                         lapack_calls):
    """Each direct LAPACK call returns exactly what scipy's
    eigvalsh_tridiagonal gives for the same bands: the bisection of the
    index range for one or two orders, every value by dsterf for three or
    more. Calls come in pairs on one size, the upper bound on the bands and
    the lower bound with the last diagonal entry lowered by
    c = l^2 / (d_N - t - 2 l^2 / (a + sqrt(a^2 - 4 l^2))), a = d_{N+1} - t;
    the values are the last lower bounds. Sizes double from the first; at
    l = 1e4, where l^(1/4) = 10, the well term sets it:
    3 + ceil(6 (4.5 + sqrt(2 n + 1))) rows for the highest order n."""
    calls = lapack_calls
    n_lo = cls.lowest + 2 * start
    n_hi = n_lo + 2 * (width - 1)
    values = characteristic_values(cls, n_lo, n_hi, l)
    stop = start + width
    for kernel, diag, off, out in calls:
        if width < 3:
            assert kernel == "dstebz"
            got = out[1][:out[0]]
            ref = eigvalsh_tridiagonal(diag, off, select="i",
                                       select_range=(start, stop - 1),
                                       check_finite=False)
        else:
            assert kernel == "dsterf" and len(out[0]) == len(diag)
            ref = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf",
                                       check_finite=False)
            got, ref = out[0][start:stop], ref[start:stop]
        assert len(got) == width and (got == ref).all()
    assert values == tuple(ref.tolist())
    assert len(calls) % 2 == 0
    for (_, diag, off, out), (_, lowered, lowered_off, _) in zip(calls[::2], calls[1::2]):
        size = len(diag)
        top = float((out[1][:out[0]] if width < 3 else out[0][start:stop])[-1])
        a = (cls.lowest + 2 * size + 2) ** 2 - top
        c = l * l / ((cls.lowest + 2 * size) ** 2 - top
                     - 2 * l * l / (a + math.sqrt(a * a - 4 * l * l)))
        assert np.array_equal(off, lowered_off) and np.array_equal(diag[:-1], lowered[:-1])
        assert diag[-1] - lowered[-1] == pytest.approx(c, rel=1e-9, abs=np.spacing(diag[-1]))
    sizes = [len(c[1]) for c in calls[::2]]
    assert [len(c[1]) for c in calls[1::2]] == sizes
    assert sizes[0] == max(mathieu.initial_truncation(n_hi, l), stop + 1)
    assert sizes[1:] == [2 * size for size in sizes[:-1]]
    if l == 1e4:
        assert sizes[0] == 3 + math.ceil(6 * (4.5 + math.sqrt(2 * n_hi + 1)))


@pytest.mark.parametrize("kernel,fail", [("dstebz", "info"), ("dstebz", "count"),
                                         ("dsterf", "info"), ("dstein", "info")])
def test_lapack_failure_raises_convergence_error(kernel, fail, monkeypatch, tmp_path,
                                                lapack_calls):
    real = getattr(mathieu, kernel)

    def failing(*args):
        *out, info = real(*args)
        if fail == "count":
            out[0] -= 1
        return (*out, 1 if fail == "info" else info)

    monkeypatch.setattr(mathieu, kernel, failing)  # over the spy, caches cleared
    with pytest.raises(ConvergenceError):
        if kernel == "dstein":
            ce_series(2, 2.5)
        else:
            characteristic_values(MathieuClass.CE_EVEN, 0, 2 + 2 * (kernel == "dsterf"),
                                  2.5)
    argv = (["density", "--family", "phi+", "-n", "2", "-l", "2.5"]
            if kernel == "dstein" else
            ["characteristics", "--n-max", "4", "--l-min", "0", "--l-max", "1",
             "--steps", "2"])
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == EXIT_CONVERGENCE


# Covers LAPACK jitter above the 1e-11 relative tolerance (a_8 and b_9
# at l = 247.5) and barriers up to 1e4.
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
            value = characteristic_values(cls, n, n, l)[0]
            ref = special(n, l) if dense is None else dense[cls][cls.eigen_index(n)]
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(value)), (cls, n, l)


# 120 barriers: 60 evenly over [0, 100], 60 geometric over (100, 1e4]
ACCURACY_GRID = np.concatenate([np.linspace(0.0, 100.0, 60),
                                np.geomspace(100.0, 1e4, 61)[1:]]).tolist()


@pytest.mark.parametrize("cls", list(MathieuClass))
def test_values_match_tight_reference(cls):
    """Orders up to 20 from one range solve and from single-order solves
    agree to 2e-12 (relative, absolute below 1) with a size-512 dstebz
    bisection at ABSTOL 1e-300. LAPACK's default tolerance is
    eps * ||T||, and ||T|| grows as the squared size, so a needlessly
    large matrix loses absolute accuracy."""
    top = 20 - (20 - cls.lowest) % 2
    orders = range(cls.lowest, top + 1, 2)
    for l in ACCURACY_GRID:
        diag, off, _ = mathieu._tridiagonal(cls, l, TRUNCATION_CAP)
        found, ref, _, _, info = mathieu.dstebz(diag, off, 2, 0.0, 0.0, 1,
                                                len(orders), 1e-300, "E")
        assert info == 0 and found == len(orders)
        scale = np.maximum(1.0, np.abs(ref[:found]))
        for values in (characteristic_values(cls, cls.lowest, top, l),
                       [characteristic_values(cls, n, n, l)[0] for n in orders]):
            err = np.abs(np.array(values) - ref[:found]) / scale
            assert err.max() <= 2e-12, (cls, l, err.max())


@pytest.mark.parametrize("n,l", [(2, math.nan), (2, math.inf), (True, 1.0),
                                 (2.0, 1.0), (2, True), (2, "1.0"), ("2", 1.0),
                                 (None, 1.0), (2, [1.0]), (2, np.array(1.0)),
                                 ([2], 1.0)])
def test_rejects_nonfinite_barriers_and_non_integer_orders(n, l):
    # cached entries for the equal keys 1, 2 and 1.0 must not answer these;
    # a string or None order once raised TypeError from the family choice,
    # and an unhashable barrier TypeError from the solve cache
    a_value(1, 1.0), a_value(2, 1.0)
    for fn in (a_value, b_value, ce_series, se_series):
        with pytest.raises(DomainError):
            fn(n, l)


@pytest.mark.parametrize("call", [
    lambda: characteristic_values(MathieuClass.CE_EVEN, 0, 0, [1.0]),
    lambda: characteristic_values(MathieuClass.CE_EVEN, [0], 0, 1.0),
    lambda: characteristic_values(MathieuClass.CE_EVEN, 0, [2], 1.0),
    lambda: characteristic_values([MathieuClass.CE_EVEN], 0, 0, 1.0),
    lambda: characteristic_values(MathieuClass.CE_EVEN, 0, 4, np.array(1.0)),
    lambda: pair_gap(1, PairingKind.ROTOR, [1.0], GapMeasure.RELATIVE),
], ids=["barrier", "n_lo", "n_hi", "family", "0-d-array", "pair_gap"])
def test_unhashable_solve_arguments_raise_domain_error(call):
    # each once raised TypeError: unhashable type, from the solve cache
    with pytest.raises(DomainError):
        call()


def test_numpy_scalars_accepted_and_values_are_floats():
    value = a_value(2, 1.0)
    assert type(value) is float
    assert a_value(np.int64(2), np.float64(1.0)) == value
    assert np.array_equal(ce_series(np.int64(2), 1.0).coeffs, ce_series(2, 1.0).coeffs)


def _placed_by_loop(cls, weights):
    """Plane-wave placement as one loop per coefficient."""
    harm = cls.harmonics(len(weights))
    top = int(harm[-1])
    coeffs = np.zeros(2 * top + 1, dtype=np.complex128)
    for k, w in zip(harm, weights):
        if not cls.is_cosine:
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
    series = mathieu._eigen_series(cls, n, 11.1)
    assert np.array_equal(series.coeffs,
                          _placed_by_loop(cls, mathieu._weights(cls, n, 11.1)))


@pytest.mark.parametrize("cls,n", [(MathieuClass.CE_EVEN, 2), (MathieuClass.CE_ODD, 1),
                                   (MathieuClass.SE_ODD, 3), (MathieuClass.SE_EVEN, 2)])
def test_build_series_pointwise(cls, n):
    """Each weight w of harmonic h is w cos(h phi)/sqrt(pi) or w sin(h phi)/sqrt(pi)."""
    weights = mathieu._weights(cls, n, 3.42)
    want = np.zeros(len(GRID))
    for h, w in zip(cls.harmonics(len(weights)), weights):
        if h == 0:
            want += w / np.sqrt(2.0 * np.pi)
        else:
            trig = np.cos if cls.is_cosine else np.sin
            want += w * trig(h * GRID) / np.sqrt(np.pi)
    np.testing.assert_allclose(eval_series(mathieu._eigen_series(cls, n, 3.42), GRID),
                               want, atol=1e-12)


def test_state_families_share_one_eigenvector_solve_per_order(lapack_calls):
    # phi+-, xi, eta and psi+- for n = 1..8 need ce_1..8 and se_1..9 only
    specs = [StateSpec(fam, n, 3.42) for fam in StateFamily for n in range(1, 9)]
    first = [build_state(spec).series for spec in specs]
    kernels = [c[0] for c in lapack_calls]
    assert kernels.count("dstein") == 17 and "eigh_tridiagonal" not in kernels
    again = [build_state(spec).series for spec in specs]
    assert len(lapack_calls) == len(kernels)  # all cache hits
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(first, again))


@pytest.mark.parametrize("l", [0.0, 1e-6, 7.514, 55.0, 1e4])
@pytest.mark.parametrize("cls", list(MathieuClass))
def test_weights_equal_scipy_eigh_tridiagonal(cls, l, lapack_calls):
    """An eigenvector takes three calls at twice the first size: both
    bounds, then one dstein on the upper bound's bisection, which gives
    the eigenvector scipy's eigh_tridiagonal gives at that size, bit for
    bit; at l = 0 the matrix splits into 1x1 blocks."""
    for n in range(cls.lowest, 13, 2):
        k = cls.eigen_index(n)
        size = min(2 * max(mathieu.initial_truncation(n, l), k + 2), TRUNCATION_CAP)
        lapack_calls.clear()
        weights = mathieu._weights(cls, n, l)
        assert [(c[0], len(c[1])) for c in lapack_calls] == [
            ("dstebz", size), ("dstebz", size), ("dstein", size)]
        diag, off, _ = mathieu._tridiagonal(cls, l, size)
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
        want = -vecs[:, 0] if vecs[k, 0] < 0 else vecs[:, 0]
        assert np.array_equal(weights, want), (n, l)


@pytest.mark.parametrize("cached", [
    lambda: mathieu._weights(MathieuClass.CE_EVEN, 2, 1.0),
    lambda: mathieu._converge_grid(MathieuClass.CE_EVEN, 2, (1.0, 2.0))[1],
], ids=["weights", "grid"])
def test_cached_arrays_are_read_only(cached):
    # one array is shared by every caller of the cache entry
    with pytest.raises(ValueError):
        cached()[0] = 0.0


def test_integer_barrier_gives_float_bands():
    # an integer q once made an integer band, truncating sqrt(2) q
    from qpendulum.mathieu import _tridiagonal

    for cls in MathieuClass:
        diag, off, norm = _tridiagonal(cls, 100, 8)
        ref_diag, ref_off, ref_norm = _tridiagonal(cls, 100.0, 8)
        assert off.dtype == np.float64
        assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off)
        assert norm == ref_norm
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
            diag, off, norm = _tridiagonal(cls, q, size)
            ref_diag, ref_off = reference_tridiagonal(cls, q, size)
            assert np.array_equal(diag, ref_diag) and np.array_equal(off, ref_off)
            assert norm == np.abs(ref_diag).max() + 2.0 * np.abs(ref_off).max()
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


def test_cold_bundle_lapack_budget(lapack_calls):
    # 2,190 direct calls on 28,916 rows: 2,174 dstebz/dsterf calls, two per
    # solve, and one dstein per eigenvector of tables 3-6 (ce_1..8, se_1..8)
    from qpendulum.report import build_bundle

    build_bundle()
    kernels = [c[0] for c in lapack_calls]
    assert 0 < len(kernels) <= 2200 and "eigh_tridiagonal" not in kernels
    assert sum(len(c[1]) for c in lapack_calls) <= 30000
