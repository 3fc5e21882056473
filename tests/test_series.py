import numpy as np
import pytest

from qpendulum.errors import DomainError
from qpendulum.series import (
    TrigSeries,
    eval_series,
    inner_product,
    multiply_by_cos,
    multiply_by_cos2phi,
    multiply_by_sin,
    series_derivative,
)

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


def test_derivative_pointwise():
    s = random_series()
    ds = series_derivative(s)
    h = 1e-6
    vals = eval_series(ds, GRID[:64])
    fd = (eval_series(s, GRID[:64] + h) - eval_series(s, GRID[:64] - h)) / (2 * h)
    np.testing.assert_allclose(vals, fd, atol=1e-7)


@pytest.mark.parametrize("op,fn", [
    (multiply_by_cos, np.cos),
    (multiply_by_sin, np.sin),
])
def test_multiplication_pointwise(op, fn):
    for _ in range(5):
        s = random_series()
        prod = op(s)
        np.testing.assert_allclose(
            eval_series(prod, GRID), fn(GRID) * eval_series(s, GRID), atol=1e-12)


def test_multiply_by_cos2phi():
    s = random_series()
    np.testing.assert_allclose(
        eval_series(multiply_by_cos2phi(s), GRID),
        np.cos(2 * GRID) * eval_series(s, GRID),
        atol=1e-12,
    )


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


@pytest.mark.parametrize("bad", [[], [1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0])
def test_coefficients_must_be_1d_odd_length(bad):
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
