import numpy as np
import pytest

from qpendulum.errors import DomainError
from qpendulum.series import TrigSeries, eval_series, inner_product

RNG = np.random.default_rng(20260823)
GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def random_series(n=6):
    return TrigSeries(RNG.normal(size=2 * n + 1) + 1j * RNG.normal(size=2 * n + 1))


def plane_wave(k, n_harmonics):
    coeffs = np.zeros(2 * n_harmonics + 1)
    coeffs[n_harmonics + k] = 1.0
    return TrigSeries(coeffs)


def quad_inner(s1, s2):
    f1 = eval_series(s1, GRID)
    f2 = eval_series(s2, GRID)
    return np.sum(np.conj(f1) * f2) * (2.0 * np.pi / len(GRID))


def test_basis_orthonormality():
    const = plane_wave(0, 0)
    up2 = plane_wave(2, 2)
    down1 = plane_wave(-1, 1)
    for s in (const, up2, down1):
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-14)
        assert quad_inner(s, s) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(const, up2) == pytest.approx(0.0, abs=1e-14)
    assert inner_product(up2, down1) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("k,n_harmonics", [(0, 0), (0, 3), (2, 2), (-1, 4)])
def test_eval_plane_wave(k, n_harmonics):
    np.testing.assert_allclose(
        eval_series(plane_wave(k, n_harmonics), GRID),
        np.exp(1j * k * GRID) / np.sqrt(2.0 * np.pi), atol=1e-14)


def test_inner_product_matches_quadrature():
    for _ in range(10):
        s1, s2 = random_series(), random_series()
        assert inner_product(s1, s2) == pytest.approx(quad_inner(s1, s2), abs=1e-10)


def test_arithmetic():
    s1, s2 = random_series(), random_series(4)
    np.testing.assert_allclose(
        eval_series(s1 + s2, GRID), eval_series(s1, GRID) + eval_series(s2, GRID))
    np.testing.assert_allclose(
        eval_series(s1 - s2, GRID), eval_series(s1, GRID) - eval_series(s2, GRID))
    np.testing.assert_allclose(
        eval_series(s1 * 2j, GRID), 2j * eval_series(s1, GRID))
    np.testing.assert_allclose(
        eval_series(2j * s1, GRID), 2j * eval_series(s1, GRID))


def test_n_harmonics():
    assert TrigSeries([1.0]).n_harmonics == 0
    assert TrigSeries([0.0, 1.0, 3.0, 4.0, 0.0]).n_harmonics == 2


@pytest.mark.parametrize("bad", [[], [1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0, "abc",
                                 [None, 1, 0], ["1"], [[1.0], [1.0, 2.0]],
                                 np.array([10**400, 1, 0], dtype=object),
                                 np.array([True, False, True]), [True, False, True],
                                 np.array([True, 1.0, 0], dtype=object), [True, 1, 0],
                                 [0, 1j, np.True_]])
def test_coefficients_must_be_1d_odd_length(bad):
    # [None, 1, 0] once held NaN, ["1"] held 1 + 0j and bools 1 and 0, and
    # so did a bool among numbers: [True, 1, 0] held 1, 1, 0
    with pytest.raises(DomainError):
        TrigSeries(bad)


def test_immutability():
    source = np.ones(5, dtype=np.complex128)
    s = TrigSeries(source)
    with pytest.raises(ValueError):
        s.coeffs[0] = 1.0
    source[0] = 7.0
    assert s.coeffs[0] == 1.0


def test_eval_scalar_angle_is_complex():
    s = random_series()
    value = eval_series(s, 0.3)
    assert type(value) is complex
    assert value == pytest.approx(eval_series(s, np.array([0.3]))[0], abs=1e-14)


@pytest.mark.parametrize("angles", [0.0, [0.0], np.linspace(0.0, 1.0, 5)])
def test_eval_overflow_raises_domain_error(angles):
    # the sum once overflowed with numpy's RuntimeWarning
    with pytest.raises(DomainError, match="not finite"):
        eval_series(TrigSeries([1e308] * 3), angles)


@pytest.mark.parametrize("bad", ["2", None, True, [2.0], np.array([2.0]),
                                 TrigSeries([1.0])])
def test_scaling_needs_a_number(bad):
    # complex("2") once doubled the series
    s = random_series()
    with pytest.raises(DomainError):
        s * bad
    with pytest.raises(DomainError):
        bad * s


@pytest.mark.parametrize("bad", [1, 2.5j, "1", None, np.zeros(13)])
def test_addition_needs_a_series(bad):
    s = random_series()
    with pytest.raises(DomainError):
        s + bad
    with pytest.raises(DomainError):
        s - bad
    with pytest.raises(DomainError):
        bad + s
    with pytest.raises(DomainError):
        bad - s


def test_numpy_scalars_scale():
    s = random_series()
    for scalar in (np.float64(0.5), np.int64(3), np.complex128(1j)):
        assert np.array_equal((s * scalar).coeffs, s.coeffs * complex(scalar))
        assert np.array_equal((scalar * s).coeffs, s.coeffs * complex(scalar))
