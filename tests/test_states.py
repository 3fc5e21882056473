import re

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
    jump_at_boundary,
    velocity_expect,
    velocity_sq_expect,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)


def quad_velocity(state):
    """Quadrature oracle for <v> = -2i integral psi* psi'."""
    from qpendulum.series import TrigSeries, eval_series

    s = state.series
    k = np.arange(-s.n_harmonics, s.n_harmonics + 1)
    f = eval_series(s, GRID)
    df = eval_series(TrigSeries(1j * k * s.coeffs), GRID)
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
        jump_at_boundary(1, "phi+", "chi", 0.5)


@pytest.mark.parametrize("l_c", [-1.0, "0.5", None, float("nan"), True])
def test_jump_rejects_bad_barrier(l_c):
    with pytest.raises(DomainError):
        jump_at_boundary(1, StateFamily.PHI_PLUS, StateFamily.XI, l_c)


def test_flat_density_has_no_maxima():
    state = build_state(StateSpec(StateFamily.PHI_PLUS, 1, 0.0))
    assert density_maxima(state) == []
    assert density_extrema(state)[1] == []


def test_xi1_density_extrema_at_l0():
    # |cos(phi)|^2 / pi: maxima at 0 and pi, minima at pi/2 and 3pi/2
    state = build_state(StateSpec(StateFamily.XI, 1, 0.0))
    maxima = density_maxima(state)
    minima = density_extrema(state)[1]
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


@pytest.mark.parametrize("family", list(StateFamily))
def test_spec_rejects_levels_its_family_lacks(family, lapack_calls):
    # phi+-, eta need se_n, n >= 1; xi and psi+- start at ce_0 (psi at se_1).
    # phi+ at n = 0 once constructed and failed at build time on se_0
    lowest = 0 if family in (StateFamily.XI, StateFamily.PSI_PLUS,
                             StateFamily.PSI_MINUS) else 1
    with pytest.raises(DomainError, match=re.escape(
            f"{family.value} level must be an integer >= {lowest}, got {lowest - 1}")):
        StateSpec(family, lowest - 1, 1.0)
    assert lapack_calls == []
    assert build_state(StateSpec(family, lowest, 1.0)).norm_check < 1e-12


@pytest.mark.parametrize("family", ["XI", "chi", None, 3])
def test_unknown_family_rejected(family):
    with pytest.raises(DomainError):
        StateSpec(family, 2, 1.0)


def _wrong_types():
    import qpendulum as qp
    from qpendulum.uncertainty import local_variance_inequality

    s = qp.ce_series(2, 3.0)
    state = build_state(StateSpec(StateFamily.XI, 2, 3.0))
    G = qp.GroupElement
    eps = (4.989e-3, 9.95e-3)
    return {
        "classify_regions-int-levels": lambda: qp.classify_regions(3, [1.0], *eps),
        "classify_regions-None-levels": lambda: qp.classify_regions(None, [1.0], *eps),
        "classify_regions-scalar-l": lambda: qp.classify_regions([1], 1.0, *eps),
        "modulation_schedule-int-levels":
            lambda: qp.modulation_schedule(1.0, 0.1, 1.0, [0.0], 3, *eps),
        "characteristic_values-str-family":
            lambda: qp.characteristic_values("ce_even", 0, 1.0),
        "StateSpec-list-l": lambda: build_state(StateSpec(StateFamily.XI, 1, [1.0])),
        "jump_at_boundary-list-l": lambda: qp.jump_at_boundary(
            1, StateFamily.PHI_PLUS, StateFamily.XI, [1.0]),
        "elliptic_K-str": lambda: qp.elliptic_K("x"),
        "jacobi_cn_dn-str": lambda: qp.jacobi_cn_dn("x", 0.5),
        "inner_product": lambda: qp.inner_product(s, 1),
        "inner_product-left": lambda: qp.inner_product(1, s),
        "moments": lambda: qp.moments(1),
        "eval_series": lambda: qp.eval_series(s, "x"),
        "eval_series-series": lambda: qp.eval_series(1, 0.0),
        "QuantumState": lambda: qp.QuantumState(state.spec, "x"),
        "QuantumState-spec": lambda: qp.QuantumState(1, s),
        "build_state": lambda: build_state(1),
        "velocity_expect": lambda: velocity_expect(1),
        "velocity_sq_expect": lambda: velocity_sq_expect(1),
        "angular_moments": lambda: qp.angular_moments(1),
        "local_variance_inequality": lambda: local_variance_inequality(1),
        "density_maxima": lambda: density_maxima(1),
        "density": lambda: density(state, "x"),
        "density-2d": lambda: density(state, [[0.0, 1.0]]),
        "density-state": lambda: density(1, GRID),
        "apply_group_element": lambda: qp.apply_group_element(s, "A"),
        "apply_group_element-series": lambda: qp.apply_group_element(1, G.A),
    }


@pytest.mark.parametrize("name", list(_wrong_types()))
def test_wrong_argument_types_raise_domain_error(name):
    # each once raised AttributeError or ValueError
    with pytest.raises(DomainError):
        _wrong_types()[name]()


@pytest.mark.parametrize("bad", [None, [None, 0.0], "1.5", ["1.0", "2.0"],
                                 [0.0, np.inf], [np.nan], True, [False, True],
                                 np.array([True, 0.5], dtype=object), [0.25, True],
                                 [[0.25, np.True_]]],
                         ids=["None", "None-in-list", "string", "strings",
                              "inf", "nan", "bool", "bools", "bool-in-objects",
                              "bool-in-floats", "numpy-bool-in-nested-floats"])
@pytest.mark.parametrize("name", ["eval_series", "density", "sweep_characteristics",
                                  "modulation_schedule", "trajectory"])
def test_none_and_numeric_strings_are_not_real_grids(name, bad):
    # None once read as NaN and "1.5" as 1.5; inf once gave nan+nanj;
    # [False, True] once read as the grid 0, 1 and [0.25, True] as 0.25, 1
    import qpendulum as qp

    state = build_state(StateSpec(StateFamily.PHI_PLUS, 2, 1.0))
    call = {
        "eval_series": lambda: qp.eval_series(state.series, bad),
        "density": lambda: density(state, bad),
        "sweep_characteristics": lambda: qp.sweep_characteristics(1, bad),
        "modulation_schedule": lambda: qp.modulation_schedule(
            1.0, 0.1, 1.0, bad, [1], 4.989e-3, 9.95e-3),
        "trajectory": lambda: qp.trajectory(qp.ClassicalParams(1.0, 1.0, 3.0), bad),
    }[name]
    with pytest.raises(DomainError):
        call()


@pytest.fixture
def calls(monkeypatch):
    """Calls of build_state and series.moments, through any module's name."""
    import sys

    from qpendulum import series, states

    counts = {"build_state": 0, "moments": 0}
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qpendulum"]
    for name, real in (("build_state", states.build_state),
                       ("moments", series.moments)):
        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return counts


def test_report_tables_build_four_states_per_level(calls):
    from qpendulum.report import observable_tables

    observable_tables()
    assert calls == {"build_state": 32, "moments": 32}


def test_state_observables_reuse_the_moment_record(calls):
    from qpendulum.uncertainty import angular_moments

    state = build_state(StateSpec(StateFamily.PHI_PLUS, 3, 1.2))
    assert calls["moments"] == 1
    velocity_expect(state), velocity_sq_expect(state), angular_moments(state)
    assert calls["moments"] == 1


def test_hand_built_state_computes_its_norm_check():
    from qpendulum.series import TrigSeries
    from qpendulum.states import QuantumState
    from qpendulum.uncertainty import angular_moments

    good = build_state(StateSpec(StateFamily.ETA, 2, 3.0))
    state = QuantumState(good.spec, TrigSeries(2 * good.series.coeffs))
    assert state.norm_check == pytest.approx(3.0, abs=1e-12)
    assert state.moments.Lz2 == pytest.approx(4.0 * good.moments.Lz2, rel=1e-12)
    with pytest.raises(DomainError, match="not normalised"):
        angular_moments(state)


def test_nan_state_fails_the_norm_check():
    from qpendulum.series import TrigSeries
    from qpendulum.states import QuantumState

    # a NaN coefficient once gave an all-NaN moment report, an infinite
    # one an infinite <v> and <v^2> and no density maxima, and a finite
    # one whose square overflows a RuntimeWarning from the moments
    for coeffs in ([np.nan, 1.0, 0.0], [0.0, 1.0, np.inf], [1e200, 0.0, 0.0],
                   [1e200, 1e200, 1e200]):
        with pytest.raises(DomainError, match="non-finite state"):
            QuantumState(StateSpec(StateFamily.XI, 1, 1.0), TrigSeries(coeffs))
