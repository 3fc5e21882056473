import functools
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
from qpendulum.symmetry import GapMeasure, PairingKind, pair_gap, sweep_characteristics

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
    # single solves, and the grid's row of orders p..n at l
    for cls in (ce_class(n),) + ((se_class(n),) if n >= 1 else ()):
        want = dense_oracle(cls, n, l)
        assert characteristic_values(cls, n, l) == pytest.approx(want, abs=1e-9)
        assert mathieu._converge_grid(cls, n, (l,))[0, -1] == pytest.approx(want, abs=1e-9)


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
        characteristic_values(MathieuClass.CE_EVEN, 3, 1.0)
    with pytest.raises(DomainError):
        characteristic_values(MathieuClass.SE_EVEN, 0, 1.0)
    with pytest.raises(DomainError):
        a_value(2, -1.0)
    with pytest.raises(DomainError):
        se_class(0)


def test_convergence_error_reports_iterates(lapack_calls):
    """Each size solves T first. At l = 1e11 the first size is above the
    cap, so the cap is solved first; its tail diagonal starts less than
    2 l above T's own top value, so no lower bound holds there: one call,
    on T, and -inf below. At l = 1e9 T's top value gives a valid c: the
    count rejects the size, and the error path solves L once; the bounds
    are still 3.6e-2 apart. Order 1018 at l = 1e3 starts at the cap too,
    the same way, with the bounds 7.0e-2 apart."""
    calls = lapack_calls
    with pytest.raises(ConvergenceError) as err:
        characteristic_values(MathieuClass.CE_EVEN, 0, 1e11)
    assert mathieu.initial_truncation(0, 1e11) > TRUNCATION_CAP
    assert [(c[0], len(c[1])) for c in calls] == [("dstebz", TRUNCATION_CAP)]
    assert err.value.last_iterates == (-math.inf, calls[0][3][1][0])
    for order, l in [(0, 1e9), (1018, 1e3)]:
        calls.clear()
        with pytest.raises(ConvergenceError) as err:
            characteristic_values(MathieuClass.CE_EVEN, order, l)
        assert mathieu.initial_truncation(order, l) > TRUNCATION_CAP
        assert [(c[0], len(c[1])) for c in calls] == [("dstebz", TRUNCATION_CAP)] * 2
        (_, diag, _, upper), (_, lowered, _, lower) = calls
        assert np.array_equal(lowered[:-1], diag[:-1]) and lowered[-1] < diag[-1]
        assert err.value.last_iterates == (lower[1][0], upper[1][0])
        assert 1e-11 * abs(upper[1][0]) < upper[1][0] - lower[1][0] < 0.1


# Every order up to 64 of each family, solved alone, and the family grids
# of a sweep to n_max 7, 8, 12, 16 and 24, at l = 0 and 81 barriers from
# 1e-3 to 1e5.
SINGLE_ORDERS = [(cls, n) for cls in MathieuClass for n in range(cls.lowest, 65, 2)]
GRID_N_MAX = (7, 8, 12, 16, 24)
GRID_BARRIERS = [0.0] + np.logspace(-3, 5, 81).tolist()


# The n <= 8 sweep grids of the benchmark's seeds 1-3 (bench/inputs.py)
SWEEP_GRIDS = [np.unique(np.random.default_rng([seed, 0]).uniform(0.0, 55.0, 1000))
               for seed in (1, 2, 3)]


@pytest.mark.parametrize("top", range(65))
def test_first_sizes_of_an_array_equal_the_scalar_rule(top):
    """A grid sizes its barriers in one initial_truncation call on the
    array; each size must equal the scalar call's, capped as the grid caps
    it. numpy's power differs from libm's pow in the last bit for some
    barriers, which could move a ceiling: checked on the module grid, the
    sweep grids, 10^4 random barriers in [0, 1e6] and the barriers within
    20 ulps of each of the first 100 steps of either ceiling."""
    rng, steps = np.random.default_rng(top), []
    for factor in (1.4, 0.6 * (4.5 + math.sqrt(2 * top + 1))):
        step = (np.arange(1, 101) / factor) ** 4  # factor * l^(1/4) is an integer
        steps.append((step[:, None] + np.arange(-20, 21) * np.spacing(step)[:, None]).ravel())
    for grid in (GRID_BARRIERS, *SWEEP_GRIDS, rng.uniform(0.0, 1e6, 10**4), *steps):
        q = np.array(grid, dtype=float)
        sizes = np.minimum(mathieu.initial_truncation(top, q), TRUNCATION_CAP)
        want = [min(mathieu.initial_truncation(top, l), TRUNCATION_CAP) for l in q.tolist()]
        assert sizes.tolist() == want, top


def test_one_call_per_solve_at_the_first_size_with_a_valid_c(lapack_calls):
    """Each single solve accepts its first size, where T's top value gives
    a valid c, with one LAPACK call, on T, at every barrier."""
    calls = lapack_calls
    for l in GRID_BARRIERS:
        for cls, n in SINGLE_ORDERS:
            mathieu._values.cache_clear()
            calls.clear()
            value = characteristic_values(cls, n, l)
            first = min(mathieu.initial_truncation(n, l), TRUNCATION_CAP)
            diag, band, norm = mathieu._tridiagonal(cls, l, first)
            assert [(c[0], len(c[1])) for c in calls] == [("dstebz", first)], (cls, n, l)
            (_, upper, off, out), = calls
            assert np.array_equal(upper, diag) and np.array_equal(off, band)
            assert value == out[1][0]
            t = value + 4 * np.finfo(float).eps * norm
            assert _tail_shift(cls, l, first, t) is not None, (cls, n, l)
    assert len(SINGLE_ORDERS) == 129


def _check_grid_calls(calls, cls, top, barriers):
    """The calls of one cold family grid, each checked on its bands: per
    distinct barrier, ascending, one ``dsterf`` on T at its first size.
    Any later call is a ``dstebz`` of _converge."""
    distinct = sorted(set(barriers))
    for l, (kernel, diag, off, _) in zip(distinct, calls):
        size = min(mathieu.initial_truncation(top, l), TRUNCATION_CAP)
        want_diag, want_off, _ = mathieu._tridiagonal(cls, l, size)
        assert kernel == "dsterf" and np.array_equal(diag, want_diag), (cls, top, l)
        assert np.array_equal(off, want_off), (cls, top, l)
    assert len(calls) >= len(distinct), (cls, top)
    assert all(kernel == "dstebz" for kernel, *_ in calls[len(distinct):]), (cls, top)


def test_one_grid_call_per_barrier_at_the_first_size_with_a_valid_c(lapack_calls):
    """The grid twin: every family grid of GRID_N_MAX certifies each
    barrier at its first size with one dsterf, on T, at every barrier; no
    row goes on to _converge."""
    for n_max in GRID_N_MAX:
        for cls in MathieuClass:
            top = n_max - (n_max - cls.lowest) % 2
            mathieu._converge_grid.cache_clear()
            lapack_calls.clear()
            mathieu._converge_grid(cls, top, tuple(GRID_BARRIERS))
            assert len(lapack_calls) == len(GRID_BARRIERS), (cls, top)
            _check_grid_calls(lapack_calls, cls, top, GRID_BARRIERS)


@functools.lru_cache(maxsize=None)
def _tight_reference(cls, l, count):
    """The lowest ``count`` values of a size-512 dstebz bisection at ABSTOL
    1e-300; module-level, so no per-test cache clearing drops them."""
    diag, off, _ = mathieu._tridiagonal(cls, l, TRUNCATION_CAP)
    found, ref, _, _, info = mathieu.dstebz(diag, off, 2, 0.0, 0.0, 1, count,
                                            1e-300, "E")
    assert info == 0 and found == count
    return ref[:found]


def _check_grid_rows(monkeypatch, n_max, barriers, against_converge):
    """Solve each family's grid; a row the grid sent on to _converge, one
    call per order, must equal per-order characteristic_values bit for
    bit, and so must every row whose first size N has no valid c. Every
    other row must lie within its tolerance at N, max(1e-11 max(1, |v|),
    4 eps ||T_N||), plus 32 eps ||T_N|| of LAPACK jitter, of the size-512
    reference and, if ``against_converge``, of the per-order values; it
    must lie above the reference less that jitter (T_N bounds from above),
    and above it by at most its tolerance must lie the values of L_N, T_N
    lowered by the c of T_N's top value, which the count certifies.
    Returns the counts of accepted and sent rows."""
    eps, real, sent, counts = np.finfo(float).eps, mathieu._converge, [], [0, 0]
    monkeypatch.setattr(mathieu, "_converge",
                        lambda *args: sent.append(args[:3]) or real(*args))
    for cls in MathieuClass:
        if cls.lowest > n_max:
            continue
        top = n_max - (n_max - cls.lowest) % 2
        orders = list(range(cls.lowest, top + 1, 2))
        mathieu._converge_grid.cache_clear()  # a cached grid would send no row
        sent.clear()
        got = mathieu._converge_grid(cls, top, tuple(barriers))
        by_row = {l: [n for _, n, x in sent if x == l] for l in barriers}
        for l, row in zip(barriers, got):
            counts[bool(by_row[l])] += 1
            if by_row[l] or against_converge:
                want = np.array([characteristic_values(cls, n, l) for n in orders])
            if by_row[l]:
                assert by_row[l] == orders, (cls, top, l)  # one call per order
                assert row.tobytes() == want.tobytes(), (cls, top, l)
                continue
            size = min(mathieu.initial_truncation(top, l), TRUNCATION_CAP)
            diag, off, norm = mathieu._tridiagonal(cls, l, size)
            c = _tail_shift(cls, l, size, row[-1] + 4 * eps * norm)
            assert c is not None, (cls, top, l)  # no NaN count accepts a row
            tol = np.maximum(1e-11 * np.maximum(1.0, np.abs(row)), 4 * eps * norm)
            tol += 32 * eps * norm
            lowered = diag.copy()
            lowered[-1] -= c
            lower = eigvalsh_tridiagonal(lowered, off, select="i",
                                         select_range=(0, row.size - 1))
            ref = _tight_reference(cls, l, 13)[:row.size]
            assert (lower >= row - tol).all(), (cls, top, l)
            assert (np.abs(row - ref) <= tol).all(), (cls, top, l)
            assert (ref - 32 * eps * norm <= row).all(), (cls, top, l)
            assert not against_converge or (np.abs(row - want) <= tol).all(), (cls, top, l)
    return counts


# An unsorted schedule grid with repeats and zeros: l(t) = max(3 + 4 cos t, 0)
SCHEDULE_BARRIERS = [max(3.0 + 4.0 * math.cos(t), 0.0)
                     for t in np.linspace(0.0, 12.0, 97).tolist()]


@pytest.mark.parametrize("n_max,barriers", [
    (8, np.linspace(0.0, 55.0, 111).tolist()),
    *[(n_max, GRID_BARRIERS) for n_max in (0, 1, 2, 4, 7, 8, 12, 16, 24)],
    (8, SCHEDULE_BARRIERS)])
def test_grid_rows_within_tolerance_of_reference_and_converge(monkeypatch, n_max,
                                                             barriers):
    """The grid's one-call rule on the fig1 grid, the module grid and a
    schedule grid: every row within its tolerance of the tight reference
    and of the single solves, and none sent on to _converge, the large
    barriers included."""
    assert _check_grid_rows(monkeypatch, n_max, barriers, True)[1] == 0


@pytest.mark.parametrize("cut", [1, 2, 3, 4, 6, 8])
def test_grid_undersized_first_size_accepts_no_row_off_the_reference(monkeypatch,
                                                                    cut):
    """With a first size ``cut`` rows short, the count must reject every
    row it cannot certify: no accepted row lies farther from the
    reference than its tolerance. Both outcomes occur from two rows short;
    one row short, every row still closes."""
    first = mathieu.initial_truncation
    monkeypatch.setattr(mathieu, "initial_truncation",
                        lambda n, l: np.maximum(first(n, l) - cut, n // 2 + 2))
    counts = [_check_grid_rows(monkeypatch, n_max, GRID_BARRIERS, False)
              for n_max in (0, 1, 2, 4, 7, 8, 12, 16, 24)]
    assert all(accepted for accepted, _ in counts)
    assert any(sent for _, sent in counts) == (cut > 1)


LARGE_BARRIERS = np.linspace(1000.0, 10000.0, 100).tolist()


def test_large_barrier_sweep_certifies_its_own_rows(monkeypatch, lapack_calls):
    """Each grid takes c from T's top value, so the large barriers follow
    the one rule: an n <= 8 sweep over l in [1000, 10000] makes one dsterf
    call, on T, per barrier and family at the first size, 400 for its 400
    rows, no dstebz call and no _converge call, and every row lies within
    its tolerance of the size-512 reference."""
    real, sent = mathieu._converge, []
    monkeypatch.setattr(mathieu, "_converge", lambda *args: sent.append(args) or real(*args))
    sweep_characteristics(8, LARGE_BARRIERS)
    assert sent == [] and [c[0] for c in lapack_calls] == ["dsterf"] * 400
    for cls in MathieuClass:
        top = 8 - (8 - cls.lowest) % 2
        mathieu._converge_grid.cache_clear()
        lapack_calls.clear()
        mathieu._converge_grid(cls, top, tuple(LARGE_BARRIERS))
        assert len(lapack_calls) == len(LARGE_BARRIERS)
        _check_grid_calls(lapack_calls, cls, top, LARGE_BARRIERS)
    assert _check_grid_rows(monkeypatch, 8, LARGE_BARRIERS, False) == [400, 0]


def test_grid_solve_rejected_first_size_doubles_as_converge(lapack_calls,
                                                           monkeypatch):
    """With a first size too small to close, every barrier but se_even's
    l = 0.5 (its 6 rows close) goes on to _converge, one call per order,
    and its row equals per-order characteristic_values bit for bit. The
    grid's own calls come first, one dsterf per barrier at its first size,
    on T. At l = 55 outside se_even T's top value leaves no valid c, so L
    is NaN in its corner and a count could come up short: the row is sent
    on, and the top order's solve doubles its first size. Then come
    _converge's calls, each order from its own first size."""
    monkeypatch.setattr(mathieu, "initial_truncation", lambda n, l: n // 2 + 2)
    barriers = [0.5, 3.42, 11.1, 28.0, 55.0]
    eps, no_c, grid_calls = np.finfo(float).eps, set(), 0
    for cls in MathieuClass:
        top = 8 - (8 - cls.lowest) % 2
        lapack_calls.clear()
        mathieu._converge_grid(cls, top, tuple(barriers))
        _check_grid_calls(lapack_calls, cls, top, barriers)
        grid_calls += sum(kernel == "dsterf" for kernel, *_ in lapack_calls)
        for (_, diag, _, out), l in list(zip(lapack_calls, barriers)):
            norm = mathieu._tridiagonal(cls, l, len(diag))[2]
            t = out[0][cls.eigen_index(top)] + 4 * eps * norm
            if _tail_shift(cls, l, len(diag), t) is None:
                no_c.add((cls, l))
                lapack_calls.clear()
                mathieu._converge(cls, top, l, 1)  # the top order, as the row sent on
                sizes = [len(c[1]) for c in lapack_calls]
                assert sizes[:2] == [len(diag), 2 * len(diag)], (cls, l)
    assert no_c == {(cls, 55.0) for cls in MathieuClass} - {(MathieuClass.SE_EVEN, 55.0)}
    assert grid_calls == 20  # one on T per barrier and family
    assert _check_grid_rows(monkeypatch, 8, barriers, False) == [1, 19]


def test_grid_row_with_non_finite_bands_fails(monkeypatch, lapack_calls):
    """At l = 1.7e308 the even family's corner sqrt(2) l overflows, and
    dsterf returns NaN values with info 0: no count accepts the row, which
    goes on to _converge and raises on its ||T||."""
    real, sent = mathieu._converge, []
    monkeypatch.setattr(mathieu, "_converge",
                        lambda *args: sent.append(args[2]) or real(*args))
    with pytest.raises(ConvergenceError, match="overflows"):
        mathieu._converge_grid(MathieuClass.CE_EVEN, 4, (1.0, 1.7e308))
    assert sent == [1.7e308] and [c[0] for c in lapack_calls] == ["dsterf"] * 2
    assert np.isnan(lapack_calls[1][3][0]).all()


@pytest.mark.parametrize("cls,n,l", [(MathieuClass.CE_EVEN, 0, 0.0),
                                     (MathieuClass.CE_ODD, 3, 11.1),
                                     (MathieuClass.SE_EVEN, 4, 1e3)])
def test_single_size_without_a_valid_c_doubles(monkeypatch, lapack_calls, cls, n, l):
    """A size whose tail shift is not valid passes no value: with the first
    size's c taken away, the solve calls T at its first size and again at
    twice it, and returns the value solved from twice the first size."""
    want = mathieu._converge(cls, n, l, 2)[0]
    real, shifts = mathieu._tail_shift, iter([None])
    monkeypatch.setattr(mathieu, "_tail_shift", lambda *args: next(shifts, real(*args)))
    lapack_calls.clear()
    assert characteristic_values(cls, n, l) == want
    first = min(mathieu.initial_truncation(n, l), TRUNCATION_CAP)
    assert [(c[0], len(c[1])) for c in lapack_calls] == [("dstebz", first),
                                                         ("dstebz", 2 * first)]


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


def _lowered(value, size, l, cls):
    """L's bands at ``size`` for a solve whose top value is ``value``, with
    the acceptance tolerance max(1e-11 max(1, |v|), 4 eps (||T|| + c)) and
    ||T||."""
    diag, off, norm = mathieu._tridiagonal(cls, l, size)
    c = _tail_shift(cls, l, size, value + 4 * np.finfo(float).eps * norm)
    lowered = diag.copy()
    lowered[-1] -= c
    tol = max(1e-11 * max(1.0, abs(value)), 4 * np.finfo(float).eps * (norm + c))
    return lowered, off, tol, norm


def test_bounds_enclose_tight_reference():
    """On every single solve the value mu of T is above, and the lower
    bound the count certifies, mu less its tolerance, below a size-512
    dstebz bisection at ABSTOL 1e-300; L's own value at the accepted size
    lies between them too. All up to LAPACK jitter: each call returns its
    value to a small multiple of eps ||T|| (up to 16 on this grid), so
    32 eps ||T|| of the accepted size. _check_grid_rows checks the grid
    rows the same way."""
    eps = np.finfo(float).eps
    for l in GRID_BARRIERS:
        for cls, n in SINGLE_ORDERS:
            upper, (diag, _, _, _) = mathieu._converge(cls, n, l, 1)
            k = cls.eigen_index(n)
            lowered, off, tol, norm = _lowered(upper, len(diag), l, cls)
            lower, = eigvalsh_tridiagonal(lowered, off, select="i", select_range=(k, k))
            ref = _tight_reference(cls, l, 33)[k]
            jitter = 32 * eps * norm
            assert lower - jitter <= ref <= upper + jitter, (cls, n, l)
            assert upper - tol - jitter <= lower, (cls, n, l)


@pytest.mark.parametrize("cut", [1, 2, 3, 4, 6, 8])
def test_undersized_first_size_accepts_no_value_off_the_reference(lapack_calls,
                                                                  monkeypatch, cut):
    """The single-solve twin of the grid test above: with a first size
    ``cut`` rows short, the count must reject every size it cannot
    certify, so no value characteristic_values accepts lies farther than
    its tolerance plus 32 eps ||T|| from the size-512 reference, nor below
    it by more than 32 eps ||T|| (T bounds from above). Both outcomes
    occur: some solves are accepted at the cut size, some double."""
    first = mathieu.initial_truncation
    monkeypatch.setattr(mathieu, "initial_truncation",
                        lambda n, l: max(first(n, l) - cut, n // 2 + 2))
    eps, outcomes = np.finfo(float).eps, set()
    for l in GRID_BARRIERS:
        for cls, n in SINGLE_ORDERS:
            mathieu._values.cache_clear()
            lapack_calls.clear()
            value = characteristic_values(cls, n, l)
            size = len(lapack_calls[-1][1])
            outcomes.add(size == min(mathieu.initial_truncation(n, l), TRUNCATION_CAP))
            _, _, tol, norm = _lowered(value, size, l, cls)
            ref = _tight_reference(cls, l, 33)[cls.eigen_index(n)]
            assert abs(value - ref) <= tol + 32 * eps * norm, (cls, n, l)
            assert ref - 32 * eps * norm <= value, (cls, n, l)
    assert outcomes == {True, False}


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
        "characteristic_values":
            lambda: characteristic_values(MathieuClass.CE_EVEN, huge, 1.0),
        "characteristic_values-parity":
            lambda: characteristic_values(MathieuClass.CE_EVEN, huge + 1, 1.0),
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
            lambda: characteristic_values(MathieuClass.CE_EVEN, 0, [big]),
        "pair_gap-list-l": lambda: qp.pair_gap(1, qp.PairingKind.ROTOR, [big],
                                               qp.GapMeasure.RELATIVE),
        "TrigSeries": lambda: TrigSeries([big]),
        # coefficient vectors shifted or scaled by a huge int hold object entries
        "TrigSeries-add": lambda: TrigSeries(np.array([1, 2, 3], dtype=object) + big),
        "TrigSeries-mul": lambda: TrigSeries(np.array([1, 2, 3], dtype=object) * big),
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


def _tail_shift(cls, l, size, t):
    """The tail shift c at ``size`` rows for values below t, or None where
    a <= 2 l or the denominator is not positive."""
    a, edge = (cls.lowest + 2 * size + 2) ** 2 - t, (cls.lowest + 2 * size) ** 2 - t
    gap = edge - 2 * l * l / (a + math.sqrt(a * a - 4 * l * l)) if a > 2 * l else 0
    return l * l / gap if gap > 0 else None


LAPACK_BARRIERS = [0.0, 1e-6, 3.7, 55.0, 247.5, 1e3, 1e4]


@pytest.mark.parametrize("l", LAPACK_BARRIERS)
@pytest.mark.parametrize("k", [0, 1, 3, 4])
@pytest.mark.parametrize("cls", list(MathieuClass))
def test_direct_lapack_equals_scipy_eigvalsh_tridiagonal(cls, k, l, lapack_calls):
    """Each direct LAPACK call of a single solve returns exactly what
    scipy's eigvalsh_tridiagonal gives for the same bands: the dstebz
    bisection of the order's index k. Sizes double from the first, and
    each size makes one call, on T. The value is the last call's. At
    l = 1e4, where l^(1/4) = 10, the well term sets the first size:
    3 + ceil(6 (4.5 + sqrt(2 n + 1))) rows."""
    calls = lapack_calls
    n = cls.lowest + 2 * k
    value = characteristic_values(cls, n, l)
    for kernel, diag, off, out in calls:
        ref = eigvalsh_tridiagonal(diag, off, select="i", select_range=(k, k),
                                   check_finite=False)
        assert kernel == "dstebz" and out[0] == 1 and out[1][0] == ref[0]
    assert value == ref[0]
    first = mathieu.initial_truncation(n, l)
    size = min(first, TRUNCATION_CAP)
    assert first > k + 1
    for _, diag, off, _ in calls:
        want_diag, want_off, _ = mathieu._tridiagonal(cls, l, size)
        assert np.array_equal(diag, want_diag) and np.array_equal(off, want_off)
        size = min(2 * size, TRUNCATION_CAP)
    if l == 1e4:
        assert first == 3 + math.ceil(6 * (4.5 + math.sqrt(2 * n + 1)))


@pytest.mark.parametrize("l", LAPACK_BARRIERS)
@pytest.mark.parametrize("k_hi", [0, 1, 2, 4, 7])
@pytest.mark.parametrize("cls", list(MathieuClass))
def test_grid_lapack_equals_scipy_eigvalsh_tridiagonal(cls, k_hi, l, lapack_calls):
    """The grid twin: each dsterf call of a one-barrier grid returns
    exactly what eigvalsh_tridiagonal(lapack_driver="sterf") gives for the
    same bands, and the row of orders p..top is the first k_hi + 1 values
    of its one call, on T, as _check_grid_calls walks it."""
    top = cls.lowest + 2 * k_hi
    row = mathieu._converge_grid(cls, top, (l,))[0]
    for kernel, diag, off, out in lapack_calls:
        ref = eigvalsh_tridiagonal(diag, off, lapack_driver="sterf", check_finite=False)
        assert kernel == "dsterf" and out[0].tobytes() == ref.tobytes()
    assert len(lapack_calls) == 1 and row.tobytes() == ref[:k_hi + 1].tobytes()
    _check_grid_calls(lapack_calls, cls, top, [l])


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
        elif kernel == "dstebz":
            characteristic_values(MathieuClass.CE_EVEN, 2, 2.5)
        else:
            mathieu._converge_grid(MathieuClass.CE_EVEN, 4, (2.5,))
    # the grids of `characteristics` call dsterf only; the Brent roots of
    # `regions` solve single orders by dstebz
    argv = {"dstein": ["density", "--family", "phi+", "-n", "2", "-l", "2.5"],
            "dstebz": ["regions", "--n-max", "1"],
            "dsterf": ["characteristics", "--n-max", "4", "--l-min", "0",
                       "--l-max", "1", "--steps", "2"]}[kernel]
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
            value = characteristic_values(cls, n, l)
            ref = special(n, l) if dense is None else dense[cls][cls.eigen_index(n)]
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(value)), (cls, n, l)


# 120 barriers: 60 evenly over [0, 100], 60 geometric over (100, 1e4]
ACCURACY_GRID = np.concatenate([np.linspace(0.0, 100.0, 60),
                                np.geomspace(100.0, 1e4, 61)[1:]]).tolist()


@pytest.mark.parametrize("cls", list(MathieuClass))
def test_values_match_tight_reference(cls):
    """Orders up to 20 from the family grid and from single-order solves
    agree to 2e-12 (relative, absolute below 1) with a size-512 dstebz
    bisection at ABSTOL 1e-300. LAPACK's default tolerance is
    eps * ||T||, and ||T|| grows as the squared size, so a needlessly
    large matrix loses absolute accuracy."""
    top = 20 - (20 - cls.lowest) % 2
    orders = range(cls.lowest, top + 1, 2)
    rows = mathieu._converge_grid(cls, top, tuple(ACCURACY_GRID))
    for l, row in zip(ACCURACY_GRID, rows):
        diag, off, _ = mathieu._tridiagonal(cls, l, TRUNCATION_CAP)
        found, ref, _, _, info = mathieu.dstebz(diag, off, 2, 0.0, 0.0, 1,
                                                len(orders), 1e-300, "E")
        assert info == 0 and found == len(orders)
        scale = np.maximum(1.0, np.abs(ref[:found]))
        for values in (row, [characteristic_values(cls, n, l) for n in orders]):
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
    lambda: characteristic_values(MathieuClass.CE_EVEN, 0, [1.0]),
    lambda: characteristic_values(MathieuClass.CE_EVEN, [0], 1.0),
    lambda: characteristic_values([MathieuClass.CE_EVEN], 0, 1.0),
    lambda: characteristic_values(MathieuClass.CE_EVEN, 0, np.array(1.0)),
    lambda: pair_gap(1, PairingKind.ROTOR, [1.0], GapMeasure.RELATIVE),
], ids=["barrier", "order", "family", "0-d-array", "pair_gap"])
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
    """An eigenvector is solved at twice the first size: T's value, then
    one dstein on its bisection, which gives the eigenvector scipy's
    eigh_tridiagonal gives for T's bands, bit for bit. At l = 0 the
    matrix splits into 1x1 blocks."""
    for n in range(cls.lowest, 13, 2):
        k = cls.eigen_index(n)
        size = min(2 * mathieu.initial_truncation(n, l), TRUNCATION_CAP)
        diag, band, _ = mathieu._tridiagonal(cls, l, size)
        lapack_calls.clear()
        weights = mathieu._weights(cls, n, l)
        (_, upper, off, _), (_, stein_diag, stein_off, _) = lapack_calls
        assert [(c[0], len(c[1])) for c in lapack_calls] == [("dstebz", size),
                                                             ("dstein", size)]
        assert np.array_equal(upper, stein_diag) and np.array_equal(off, stein_off)
        assert np.array_equal(upper, diag) and np.array_equal(off, band)
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
    # 990 direct calls on 14,119 rows: 700 dsterf calls, one per grid
    # barrier and family, 274 dstebz calls, one per single solve, and one
    # dstein per eigenvector of tables 3-6 (ce_1..8, se_1..8); two calls
    # per single solve made 1,268 on 17,360
    from qpendulum.report import build_bundle

    build_bundle()
    kernels = [c[0] for c in lapack_calls]
    assert 0 < len(kernels) <= 1000 and "eigh_tridiagonal" not in kernels
    assert sum(len(c[1]) for c in lapack_calls) <= 14500
