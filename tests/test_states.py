import numpy as np
import pytest

from qpendulum.errors import DomainError
from qpendulum.states import (
    StateFamily,
    StateSpec,
    build_state,
    density,
    density_extrema,
    density_maxima,
    density_minima,
    jump_at_boundary,
    velocity_expect,
    velocity_sq_expect,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def quad_velocity(state):
    """Quadrature oracle for <v> = -2i integral psi* psi'."""
    from qpendulum.series import eval_series, series_derivative

    f = eval_series(state.series, GRID)
    df = eval_series(series_derivative(state.series), GRID)
    return (-2j * np.sum(np.conj(f) * df) * 2 * np.pi / len(GRID)).real


@pytest.mark.parametrize("family", list(StateFamily))
def test_states_are_normalized(family):
    n = 1 if family is not StateFamily.XI else 0
    state = build_state(StateSpec(family, n, 7.3))
    assert state.norm_check < 1e-12
    rho = density(state, GRID)[:, 1]
    assert np.sum(rho) * 2 * np.pi / len(GRID) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", range(1, 9))
def test_free_rotor_velocity(n):
    plus = build_state(StateSpec(StateFamily.PHI_PLUS, n, 1e-8))
    minus = build_state(StateSpec(StateFamily.PHI_MINUS, n, 1e-8))
    assert velocity_expect(plus) == pytest.approx(2 * n, abs=1e-6)
    assert velocity_expect(minus) == pytest.approx(-2 * n, abs=1e-6)
    assert velocity_sq_expect(plus) == pytest.approx(4 * n * n, abs=1e-6)


def test_real_states_have_zero_velocity():
    for family in (StateFamily.XI, StateFamily.ETA):
        state = build_state(StateSpec(family, 3, 5.0))
        assert velocity_expect(state) == pytest.approx(0.0, abs=1e-12)


def test_velocity_against_quadrature():
    for family in (StateFamily.PHI_PLUS, StateFamily.PSI_MINUS):
        state = build_state(StateSpec(family, 2, 4.4))
        assert velocity_expect(state) == pytest.approx(
            quad_velocity(state), abs=1e-8)


def test_jump_n1_free_rotor():
    j = jump_at_boundary(1, StateFamily.PHI_PLUS, StateFamily.XI, 0.0)
    assert j.delta_v == pytest.approx(-2.0, abs=1e-10)
    assert j.delta_v2 == pytest.approx(0.0, abs=1e-10)
    assert j.fluct_radicand == pytest.approx(-4.0, abs=1e-9)
    assert not j.fluct_defined
    assert j.fluctuation is None


def test_jump_branch_antisymmetry():
    for n, l_c in ((2, 0.3), (5, 4.5)):
        plus = jump_at_boundary(n, StateFamily.PHI_PLUS, StateFamily.XI, l_c)
        minus = jump_at_boundary(n, StateFamily.PHI_MINUS, StateFamily.XI, l_c)
        assert plus.delta_v == pytest.approx(-minus.delta_v, abs=1e-10)
        assert plus.delta_v2 == pytest.approx(minus.delta_v2, abs=1e-10)


def test_jump_xi_eta_opposition():
    j_xi = jump_at_boundary(3, StateFamily.PHI_PLUS, StateFamily.XI, 1.2)
    j_eta = jump_at_boundary(3, StateFamily.PHI_PLUS, StateFamily.ETA, 1.2)
    # xi gains what eta loses relative to the phi state, up to the
    # asymmetry of the pair
    assert j_xi.delta_v2 * j_eta.delta_v2 < 0


def test_jump_validation():
    with pytest.raises(DomainError):
        jump_at_boundary(1, StateFamily.PHI_PLUS, StateFamily.PSI_PLUS, 0.0)
    with pytest.raises(DomainError):
        jump_at_boundary(1, StateFamily.PHI_PLUS, StateFamily.XI, -1.0)
    with pytest.raises(DomainError):
        jump_at_boundary(1, "phi+", "chi", 0.5)


def test_jump_families_given_by_value():
    by_value = jump_at_boundary(2, "phi+", "xi", 0.5)
    assert by_value == jump_at_boundary(2, StateFamily.PHI_PLUS, StateFamily.XI, 0.5)
    assert by_value.transition == (StateFamily.PHI_PLUS, StateFamily.XI)


def test_flat_density_has_no_maxima():
    state = build_state(StateSpec(StateFamily.PHI_PLUS, 1, 0.0))
    assert density_maxima(state) == []
    assert density_minima(state) == []


def test_xi1_density_extrema_at_l0():
    # |cos(phi)|^2 / pi: maxima at 0 and pi, minima at pi/2 and 3pi/2
    state = build_state(StateSpec(StateFamily.XI, 1, 0.0))
    maxima = density_maxima(state)
    minima = density_minima(state)
    np.testing.assert_allclose(sorted(maxima), [0.0, np.pi], atol=1e-3)
    np.testing.assert_allclose(sorted(minima), [np.pi / 2, 3 * np.pi / 2],
                               atol=1e-3)


def test_no_density_extremum_reads_just_below_2pi():
    # an extremum on the seam phi = 0 reads 0, not 2 pi minus rounding noise
    near_seam = []
    for fam in (StateFamily.XI, StateFamily.ETA, StateFamily.PSI_PLUS):
        for n in range(1, 9):
            for l in (0.0, 0.5, 1.0, 3.0, 7.3, 12.0, 28.0, 50.0):
                maxima, minima = density_extrema(build_state(StateSpec(fam, n, l)))
                near_seam += [(fam, n, l, x) for x in maxima + minima
                              if 2.0 * np.pi - x < 1e-9]
                assert all(0.0 <= x < 2.0 * np.pi for x in maxima + minima)
    assert near_seam == []


def test_deep_well_density_localizes():
    state = build_state(StateSpec(StateFamily.XI, 0, 50.0))
    maxima = density_maxima(state)
    # barrier 2 l cos(2 phi) has wells at phi = pi/2 and 3 pi/2
    np.testing.assert_allclose(sorted(maxima), [np.pi / 2, 3 * np.pi / 2],
                               atol=1e-2)


def test_order_validation():
    with pytest.raises(DomainError):
        build_state(StateSpec(StateFamily.ETA, 0, 1.0))
    with pytest.raises(DomainError):
        build_state(StateSpec(StateFamily.PHI_PLUS, 0, 1.0))


def test_family_given_by_value():
    spec = StateSpec("xi", 2, 1.0)
    assert spec.family is StateFamily.XI
    by_value = build_state(spec).series
    by_member = build_state(StateSpec(StateFamily.XI, 2, 1.0)).series
    assert np.array_equal(by_value.coeffs, by_member.coeffs)


@pytest.mark.parametrize("family", ["XI", "chi", None, 3])
def test_unknown_family_rejected(family):
    with pytest.raises(DomainError):
        StateSpec(family, 2, 1.0)
