import numpy as np
import pytest

from qpendulum.errors import DomainError
from qpendulum.series import TrigSeries, eval_series, moments
from qpendulum.states import QuantumState, StateFamily, StateSpec, build_state
from qpendulum.uncertainty import angular_moments, local_variance_inequality
from qpendulum.states import velocity_expect, velocity_sq_expect

GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
FAMILIES = (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS,
            StateFamily.XI, StateFamily.ETA)


RNG = np.random.default_rng(20261018)


def quad_moments(s):
    """The six moments of ``s`` by quadrature of its sampled values.

    L_z = -i d/dphi acts on the samples through their FFT; the grid
    resolves every harmonic of the series, so both are exact to rounding.
    """
    f = eval_series(s, GRID)
    lz_f = np.fft.ifft(np.fft.fftfreq(len(GRID), 1.0 / len(GRID)) * np.fft.fft(f))
    dphi = 2 * np.pi / len(GRID)
    rho = np.abs(f) ** 2
    return (np.vdot(f, lz_f).real * dphi, np.vdot(lz_f, lz_f).real * dphi,
            *(np.sum(rho * w) * dphi for w in (np.cos(GRID), np.sin(GRID),
                                                np.cos(GRID) ** 2, np.sin(GRID) ** 2)))


def random_unit_series(n):
    c = RNG.normal(size=2 * n + 1) + 1j * RNG.normal(size=2 * n + 1)
    return TrigSeries(c / np.linalg.norm(c))


def test_free_rotor_xi1():
    r = angular_moments(build_state(StateSpec(StateFamily.XI, 1, 0.0)))
    assert r.exp_sin2 == pytest.approx(0.25, abs=1e-12)
    assert r.exp_cos2 == pytest.approx(0.75, abs=1e-12)
    assert r.exp_Lz2 == pytest.approx(1.0, abs=1e-12)
    assert r.exp_sin == pytest.approx(0.0, abs=1e-12)
    assert r.exp_cos == pytest.approx(0.0, abs=1e-12)


def test_free_rotor_eta1():
    r = angular_moments(build_state(StateSpec(StateFamily.ETA, 1, 0.0)))
    assert r.exp_sin2 == pytest.approx(0.75, abs=1e-12)
    assert r.exp_cos2 == pytest.approx(0.25, abs=1e-12)


def test_free_rotor_phi_plus_1():
    r = angular_moments(build_state(StateSpec(StateFamily.PHI_PLUS, 1, 0.0)))
    assert r.exp_Lz == pytest.approx(1.0, abs=1e-12)
    assert r.exp_Lz2 == pytest.approx(1.0, abs=1e-12)
    assert r.exp_sin2 == pytest.approx(0.5, abs=1e-12)
    assert r.exp_cos2 == pytest.approx(0.5, abs=1e-12)


def test_analytic_ur_row_n1():
    report = lambda f: angular_moments(build_state(StateSpec(f, 1, 0.0)))
    assert report(StateFamily.PHI_PLUS).ur_a == pytest.approx(-0.125, abs=1e-10)
    assert report(StateFamily.XI).ur_a == pytest.approx(0.0625, abs=1e-10)
    assert report(StateFamily.ETA).ur_a == pytest.approx(0.6875, abs=1e-10)
    assert report(StateFamily.XI).ur_b == pytest.approx(0.6875, abs=1e-10)
    assert report(StateFamily.ETA).ur_b == pytest.approx(0.0625, abs=1e-10)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("l", [0.0, 3.42, 16.78])
def test_pythagorean_closure(family, l):
    n = 2
    r = angular_moments(build_state(StateSpec(family, n, l)))
    assert r.exp_sin2 + r.exp_cos2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_lz_consistency_with_velocity(family):
    state = build_state(StateSpec(family, 3, 6.42))
    r = angular_moments(state)
    assert r.exp_Lz == pytest.approx(0.5 * velocity_expect(state), abs=1e-12)
    assert r.exp_Lz2 == pytest.approx(0.25 * velocity_sq_expect(state), abs=1e-12)


def test_branch_symmetry_of_ur_a():
    for n, l in ((2, 0.3), (6, 8.0)):
        plus = angular_moments(build_state(StateSpec(StateFamily.PHI_PLUS, n, l))).ur_a
        minus = angular_moments(build_state(StateSpec(StateFamily.PHI_MINUS, n, l))).ur_a
        assert plus == pytest.approx(minus, abs=1e-10)


def test_exchange_symmetry_at_l0():
    for n in (1, 2, 3):
        xi = angular_moments(build_state(StateSpec(StateFamily.XI, n, 0.0)))
        eta = angular_moments(build_state(StateSpec(StateFamily.ETA, n, 0.0)))
        assert xi.ur_a == pytest.approx(eta.ur_b, abs=1e-10)
        assert xi.ur_b == pytest.approx(eta.ur_a, abs=1e-10)


def test_moments_match_quadrature():
    states = [build_state(StateSpec(f, n, l)) for f, n, l in (
        (StateFamily.PHI_PLUS, 2, 4.0), (StateFamily.PSI_MINUS, 3, 11.1),
        (StateFamily.XI, 0, 0.0))]
    # random complex series: K = 0 and 1 leave the lag-2 sum empty, and
    # unlike the symmetric Mathieu states they have <sin phi> != 0
    series = [state.series for state in states] + [
        random_unit_series(n) for n in (0, 1, 1, 2, 6)]
    for s in series:
        m = moments(s)
        assert all(type(x) is float for x in m)
        np.testing.assert_allclose(m, quad_moments(s), rtol=0, atol=1e-10)
    assert max(abs(moments(s).sin) for s in series) > 0.1
    for state in states:
        r = angular_moments(state)
        m = moments(state.series)
        assert (r.exp_Lz, r.exp_Lz2, r.exp_cos, r.exp_sin, r.exp_cos2,
                r.exp_sin2) == tuple(m)


def test_local_inequality_xi1_free():
    state = build_state(StateSpec(StateFamily.XI, 1, 0.0))
    results = local_variance_inequality(state)
    assert len(results) == 2
    for res in results:
        # dLz = 1 for xi_1 at l = 0; window spans the adjacent minima
        assert res.lhs == pytest.approx(res.phi2, abs=1e-9)
        assert res.rhs == pytest.approx(0.25 * (1 - res.phi2 / 2), abs=1e-12)


def test_local_inequality_dominant_maxima_hold():
    # for the high excited state only the dominant peaks (at the
    # potential maxima phi = 0 and pi) satisfy the bound; the shallow
    # side lobes carry too little local variance
    state = build_state(StateSpec(StateFamily.PHI_PLUS, 8, 23.93))
    results = local_variance_inequality(state)
    assert results
    dominant = [r for r in results
                if min(abs(r.phi_max), abs(r.phi_max - np.pi)) < 0.1]
    assert len(dominant) == 2
    assert all(r.holds for r in dominant)


def test_local_inequality_one_minimum_window_is_the_full_period():
    # |psi|^2 = (1 + cos phi)/(2 pi): one maximum at 0, one minimum at pi.
    # The window runs around the circle from pi - 2 pi to pi; it was +-pi/2.
    c = 1.0 / np.sqrt(2.0)
    state = QuantumState(StateSpec(StateFamily.XI, 1, 0.0), TrigSeries([0.0, c, c]))
    (res,) = local_variance_inequality(state)
    assert res.phi_max == 0.0
    assert res.window == (-np.pi, np.pi)
    assert res.phi2 == pytest.approx(np.pi ** 2 / 3 - 2, abs=1e-5)
    assert res.lhs == pytest.approx(0.5 * res.phi2, abs=1e-12)


def test_local_inequality_needs_a_strict_minimum(monkeypatch):
    from qpendulum import uncertainty

    state = build_state(StateSpec(StateFamily.XI, 1, 0.0))
    monkeypatch.setattr(uncertainty, "density_extrema", lambda s: ([0.0], []))
    with pytest.raises(DomainError):
        local_variance_inequality(state)


def test_local_inequality_flat_density_errors():
    state = build_state(StateSpec(StateFamily.PHI_PLUS, 1, 0.0))
    with pytest.raises(DomainError):
        local_variance_inequality(state)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 2e-10, 0.5])
def test_non_unit_state_raises_domain_error(scale):
    # the norm check once raised AssertionError
    good = build_state(StateSpec(StateFamily.XI, 2, 3.0))
    state = QuantumState(good.spec, TrigSeries(scale * good.series.coeffs))
    with pytest.raises(DomainError, match="not normalised"):
        angular_moments(state)
    with pytest.raises(DomainError, match="not normalised"):
        local_variance_inequality(state)
    angular_moments(QuantumState(good.spec, TrigSeries((1.0 + 2e-11) * good.series.coeffs)))
