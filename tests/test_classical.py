from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from scipy.special import ellipj

from qpendulum.classical import (
    ArgConvention,
    ClassicalParams,
    elliptic_K,
    jacobi_cn_dn,
    trajectory,
)
from qpendulum.errors import DomainError, SeparatrixError


def series_K(k, terms=2000):
    """Power-series oracle: K = pi/2 sum [(2n-1)!!/(2n)!!]^2 k^(2n)."""
    total, coeff = 1.0, 1.0
    for n in range(1, terms):
        coeff *= (2 * n - 1) / (2 * n)
        total += coeff ** 2 * k ** (2 * n)
    return np.pi / 2 * total


def test_elliptic_K_trivial():
    assert elliptic_K(0.0) == pytest.approx(np.pi / 2, abs=1e-14)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.95])
def test_elliptic_K_against_series(k):
    assert elliptic_K(k) == pytest.approx(series_K(k), rel=1e-12)


def test_elliptic_K_near_one_asymptote():
    k2 = 1.0 - 1e-8
    k = np.sqrt(k2)
    asym = np.log(4.0 / np.sqrt(1.0 - k2))
    assert elliptic_K(k) == pytest.approx(asym, abs=1e-6)


def test_elliptic_K_domain():
    with pytest.raises(DomainError):
        elliptic_K(1.0)
    with pytest.raises(DomainError):
        elliptic_K(-0.1)


@pytest.mark.parametrize("call", [
    lambda: elliptic_K(10**5000),
    lambda: jacobi_cn_dn(np.inf, 0.5),
    lambda: jacobi_cn_dn(np.nan, 0.5),
    lambda: jacobi_cn_dn(0.5, 10**5000),
    lambda: jacobi_cn_dn(1e308, 0.5),
    lambda: trajectory(ClassicalParams(1.0, 1.0, 3.0), [1e308]),
    lambda: trajectory(ClassicalParams(1.0, 1.0, 3.0), [1e307]),
    lambda: trajectory(ClassicalParams(1e300, 1.0, 1e300), [0.0, 1.0]),
], ids=["K-huge-int", "cn_dn-inf", "cn_dn-nan", "cn_dn-huge-int", "cn_dn-1e308",
        "trajectory-overflow", "trajectory-ellipj-nan", "trajectory-rate-inf"])
def test_elliptic_arguments_must_be_finite_reals(call):
    # cn_dn(inf, k) once returned (nan, nan); a 5001-digit k raised ValueError;
    # cn_dn(1e308, k) returned (nan, nan), and the trajectories an overflow
    # warning, NaN rows (ellipj of 2e307) or NaN rows from inf * 0
    with pytest.raises(DomainError):
        call()


def test_cn_dn_refuse_arguments_past_the_phase_bound():
    # jacobi_cn_dn(1e15, 0.5) once returned (-0.1488, 1.0), where mpmath
    # gives (-0.1580, 0.8696): ellipj had lost the phase
    bound = 1e8 * elliptic_K(0.5)
    assert jacobi_cn_dn(-bound, 0.5) == jacobi_cn_dn(bound, 0.5)
    for u in (np.nextafter(bound, np.inf), -1e15, 1e15):
        with pytest.raises(DomainError):
            jacobi_cn_dn(u, 0.5)
    params = ClassicalParams(2.0, 1.0, 3.0)
    t_max = 1e8 * elliptic_K(params.modulus) / (2.0 * np.sqrt(8.0))  # / omega' A
    trajectory(params, [0.999 * t_max])
    with pytest.raises(DomainError):
        trajectory(params, [0.0, 1.001 * t_max])


@pytest.mark.parametrize("k", [0.5, 0.999])
def test_cn_dn_near_the_phase_bound_against_mpmath(k):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    u = 0.99e8 * elliptic_K(k)
    cn, dn = jacobi_cn_dn(u, k)
    m = mp.mpf(k) ** 2
    assert abs(cn - float(mp.ellipfun("cn", mp.mpf(u), m=m))) < 1e-6
    assert abs(dn - float(mp.ellipfun("dn", mp.mpf(u), m=m))) < 1e-6


@pytest.mark.parametrize("E", [3.0, 0.2], ids=["rotation", "libration"])
def test_trajectory_is_ellipj_below_the_bound(E):
    params = ClassicalParams(1.5, 1.0, E)
    t = np.linspace(0.0, 60.0, 301)
    amp = np.sqrt((E + 1.0) * 1.5)
    m = params.modulus ** 2 if E > 1.0 else (1.0 / params.modulus) ** 2
    want = ellipj(1.5 * amp * t, m)[2 if E > 1.0 else 1]
    assert np.array_equal(trajectory(params, t)[:, 1], amp * want)


def test_cn_dn_limits():
    for u in np.linspace(0.0, 5.0, 21):
        cn, dn = jacobi_cn_dn(u, 0.0)
        assert cn == pytest.approx(np.cos(u), abs=1e-10)
        assert dn == pytest.approx(1.0, abs=1e-10)
        cn, dn = jacobi_cn_dn(u, 1.0)
        assert cn == pytest.approx(1 / np.cosh(u), abs=1e-10)
        assert dn == pytest.approx(1 / np.cosh(u), abs=1e-10)


@pytest.mark.parametrize("k", [0.3, 0.7, 0.99])
@pytest.mark.parametrize("u", [0.5, 2.0, 7.0])
def test_cn_dn_against_library_oracle(u, k):
    cn, dn = jacobi_cn_dn(u, k)
    _, cn_ref, dn_ref, _ = scipy.special.ellipj(u, k * k)
    assert cn == pytest.approx(cn_ref, abs=1e-10)
    assert dn == pytest.approx(dn_ref, abs=1e-10)


def test_cn_dn_ranges_and_identity():
    k = 0.6
    for u in np.linspace(0, 10, 41):
        cn, dn = jacobi_cn_dn(u, k)
        assert abs(cn) <= 1 + 1e-12
        assert np.sqrt(1 - k * k) - 1e-12 <= dn <= 1 + 1e-12
        sn2 = 1 - cn * cn
        assert dn * dn == pytest.approx(1 - k * k * sn2, abs=1e-10)


def test_cn_periodicity():
    k = 0.8
    period = 4 * elliptic_K(k)
    for u in (0.3, 1.7):
        assert jacobi_cn_dn(u + period, k)[0] == pytest.approx(
            jacobi_cn_dn(u, k)[0], abs=1e-10)


def test_trajectory_rotation_branch():
    params = ClassicalParams(1.0, 1.0, 9.0)  # E >> U, k small
    t = np.linspace(0, 5, 50)
    rows = trajectory(params, t)
    amp = np.sqrt((params.E + params.U) * params.omega_prime)
    assert rows[0, 1] == pytest.approx(amp, abs=1e-12)
    assert np.all(np.abs(rows[:, 1]) <= amp + 1e-12)
    # dn is bounded below by sqrt(1 - k^2) = sqrt(0.8) here
    assert rows[:, 1].min() > np.sqrt(0.8) * amp - 1e-9


def test_trajectory_libration_branch():
    params = ClassicalParams(1.0, 1.0, 0.2)  # E < U
    t = np.linspace(0, 5, 200)
    rows = trajectory(params, t)
    # cn oscillates through zero on the libration branch
    assert rows[:, 1].min() < 0 < rows[:, 1].max()


def test_trajectory_near_separatrix_sech_envelope():
    params = ClassicalParams(1.0, 1.0, 1.0 + 4e-12)
    t = np.linspace(0, 3, 20)
    rows = trajectory(params, t, ArgConvention.DIMENSIONAL)
    amp = np.sqrt(2.0)
    envelope = amp / np.cosh(amp * t)
    np.testing.assert_allclose(rows[:, 1], envelope, atol=1e-4)


def test_trajectory_conventions_differ():
    params = ClassicalParams(2.0, 1.0, 3.0)
    t = np.linspace(0.1, 1.0, 5)
    printed = trajectory(params, t, ArgConvention.AS_PRINTED)
    dimensional = trajectory(params, t, ArgConvention.DIMENSIONAL)
    assert not np.allclose(printed[:, 1], dimensional[:, 1])
    # AS_PRINTED once fell through to the dimensional argument
    assert trajectory(params, [0.5])[0, 1] == pytest.approx(2.412, abs=1e-3)


@pytest.mark.parametrize("bad", ["abc", ["1.5"], [None], [[0.0, 1.0]], 0.5])
def test_trajectory_rejects_malformed_time_grids(bad):
    # "abc" raised ValueError; ["1.5"] passed; [[0.0, 1.0]] gave a (1, 4) array
    with pytest.raises(DomainError):
        trajectory(ClassicalParams(1.0, 1.0, 3.0), bad)


def test_trajectory_separatrix_error():
    with pytest.raises(SeparatrixError):
        trajectory(ClassicalParams(1.0, 1.0, 1.0), [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trajectory_rejects_nonfinite_times(bad):
    with pytest.raises(DomainError):
        trajectory(ClassicalParams(1.0, 1.0, 3.0), [0.0, bad])


def test_params_validation():
    with pytest.raises(DomainError):
        ClassicalParams(1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        ClassicalParams(0.0, 1.0, 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        for args in ((bad, 1.0, 0.5), (1.0, bad, 0.5), (1.0, 1.0, bad)):
            with pytest.raises(DomainError):
                ClassicalParams(*args)
    assert ClassicalParams(1.0, 1.0, 3.0).modulus == pytest.approx(
        np.sqrt(0.5), abs=1e-14)
    # any real is taken as its float: a Fraction once raised TypeError
    half = ClassicalParams(Fraction(1, 2), 1, 3)
    assert half == ClassicalParams(0.5, 1.0, 3.0) and type(half.omega_prime) is float
    assert np.array_equal(trajectory(half, [0.0, 0.5]),
                          trajectory(ClassicalParams(0.5, 1.0, 3.0), [0.0, 0.5]))
