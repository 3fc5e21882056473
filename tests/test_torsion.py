import numpy as np
import pytest

from qpendulum import mathieu, symmetry
from qpendulum.errors import DomainError
from qpendulum.mathieu import a_value, characteristic_values
from qpendulum.symmetry import Subgroup
from qpendulum.torsion import (
    HBAR_SI,
    TorsionRotor,
    load_preset,
    modulation_schedule,
    reduced_inertia,
    torsion_to_mathieu,
)

EPS_R, EPS_W = 4.989e-3, 9.95e-3


def test_reduced_inertia():
    assert reduced_inertia(1.0, 1.0) == 0.5
    assert reduced_inertia(5.3e-47, 5.3e-47) == pytest.approx(2.65e-47)
    assert reduced_inertia(2.0, 1e12) == pytest.approx(2.0, rel=1e-11)
    # I1 I2 once underflowed to 0 here
    assert reduced_inertia(1e-300, 1e-300) == 5e-301
    with pytest.raises(DomainError):
        reduced_inertia(-1.0, 1.0)


def test_ethane_preset_maps_to_expected_barrier():
    rotor = load_preset("ethane")
    params = torsion_to_mathieu(rotor)
    oracle = 2 * 2.65e-47 * 2.1e-20 / (9 * 1.0546e-34 ** 2)
    assert params.l == pytest.approx(oracle, abs=0.1)
    assert 11.0 < params.l < 11.3


def test_unknown_preset():
    with pytest.raises(DomainError):
        load_preset("benzene")


def test_ethane_preset_is_the_tabulated_rotor():
    assert load_preset("ethane") == TorsionRotor(5.3e-47, 5.3e-47, 2.1e-20, 3)


@pytest.mark.parametrize("name", ["../ethane", None, 3])
def test_preset_name_is_a_key_not_a_path(name):
    # a name was once joined onto the package data path
    with pytest.raises(DomainError):
        load_preset(name)


def test_barrier_scalings():
    base = TorsionRotor(1e-46, 1e-46, 1e-20, 3)
    doubled = TorsionRotor(1e-46, 1e-46, 2e-20, 3)
    sixfold = TorsionRotor(1e-46, 1e-46, 1e-20, 6)
    l0 = torsion_to_mathieu(base).l
    assert torsion_to_mathieu(doubled).l == pytest.approx(2 * l0, rel=1e-14)
    assert torsion_to_mathieu(sixfold).l == pytest.approx(l0 / 4, rel=1e-14)
    free = TorsionRotor(1e-46, 1e-46, 0.0, 3)
    assert torsion_to_mathieu(free).l == 0.0


def test_free_rotor_round_trip():
    # V0 = 0: physical levels are the free internal-rotor energies
    # hbar^2 (n_fold k / 2)^2 / (2 I)
    rotor = TorsionRotor(2e-46, 2e-46, 0.0, 3)
    params = torsion_to_mathieu(rotor)
    I = rotor.reduced
    for k in (1, 2, 3):
        physical = params.energy_scale * a_value(k, 0.0) + rotor.V0 / 2
        expected = HBAR_SI ** 2 * (rotor.n_fold * k) ** 2 / (8 * I)
        assert physical == pytest.approx(expected, rel=1e-12)


def test_dimensionless_l_invariance():
    # l = 2 I V0 / (n^2 hbar^2) sees I and V0 only through their
    # product: scaling the inertias by s and the barrier by 1/s keeps it
    rotor_si = TorsionRotor(5.3e-47, 5.3e-47, 2.1e-20, 3)
    scale = 1e20
    rotor_scaled = TorsionRotor(5.3e-47 * scale, 5.3e-47 * scale,
                                2.1e-20 / scale, 3)
    assert torsion_to_mathieu(rotor_si).l == pytest.approx(
        torsion_to_mathieu(rotor_scaled).l, rel=1e-14)


def test_modulation_schedule_constant_when_amplitude_vanishing():
    t = np.linspace(0, 5, 6)
    sched = modulation_schedule(3.0, 1e-9, 1.0, t, [2], EPS_R, EPS_W)
    tags = {p.regions[2] for p in sched}
    assert tags == {Subgroup.G_ZERO}
    assert not any(p.crossing for p in sched)


def test_modulation_schedule_crosses_boundary():
    # n = 2 splits near l = 0.2; sweeping through it flips the tag
    t = np.linspace(0, np.pi, 9)
    sched = modulation_schedule(0.2, 0.08, 1.0, t, [2], EPS_R, EPS_W)
    tags = [p.regions[2] for p in sched]
    assert Subgroup.G_MINUS in tags and Subgroup.G_ZERO in tags
    assert any(p.crossing for p in sched)


def test_modulation_schedule_matches_direct_recomputation():
    from qpendulum.symmetry import classify_regions

    t = np.linspace(0, 2, 5)
    sched = modulation_schedule(1.0, 0.3, 2.0, t, [1, 2], EPS_R, EPS_W)
    for p in sched:
        for n in (1, 2):
            assert p.regions[n] is classify_regions([n], p.l, EPS_R, EPS_W)[n]


def test_modulation_schedule_solves_once_per_family_and_time(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return characteristic_values(*args)

    monkeypatch.setattr(symmetry, "characteristic_values", spy)
    mathieu._values.cache_clear()
    t = np.linspace(0.0, 3.0, 40)  # omega t < pi: every barrier is distinct
    sched = modulation_schedule(25.0, 10.0, 1.0, t, list(range(1, 9)),
                                EPS_R, EPS_W)
    assert len({p.l for p in sched}) == len(t)
    assert len(calls) == 4 * len(t)
    assert mathieu._values.cache_info().misses == 4 * len(t)


def test_modulation_schedule_validation():
    with pytest.raises(DomainError):
        modulation_schedule(1.0, 0.0, 1.0, [0.0], [1], EPS_R, EPS_W)
    with pytest.raises(DomainError):
        modulation_schedule(1.0, 0.1, 1.0, [0.0], [], EPS_R, EPS_W)
    for levels in ([1, 2.5], [True], [0, 1]):
        with pytest.raises(DomainError):
            modulation_schedule(1.0, 0.1, 1.0, [0.0], levels, EPS_R, EPS_W)
    for delta_l in (np.nan, np.inf, "x", None):
        with pytest.raises(DomainError):
            modulation_schedule(1.0, delta_l, 1.0, [0.0], [1], EPS_R, EPS_W)
    # non-numbers once raised TypeError or ValueError
    for l_c, omega, t_grid in (("x", 1.0, [0.0]), (1.0, "x", [0.0]),
                               (1.0, 1.0, ["x"]), (1.0, 1.0, 0.0)):
        with pytest.raises(DomainError):
            modulation_schedule(l_c, 0.1, omega, t_grid, [1], EPS_R, EPS_W)
    # levels are checked even when there is no time point
    with pytest.raises(DomainError):
        modulation_schedule(1.0, 0.1, 1.0, [], [0, "x"], EPS_R, EPS_W)
    # an array of levels is as good as a list
    by_array = modulation_schedule(1.0, 0.1, 1.0, [0.0], np.arange(1, 4), EPS_R, EPS_W)
    by_list = modulation_schedule(1.0, 0.1, 1.0, [0.0], [1, 2, 3], EPS_R, EPS_W)
    assert by_array == by_list


def test_rotor_validation():
    with pytest.raises(DomainError):
        TorsionRotor(-1.0, 1.0, 1.0, 3)
    with pytest.raises(DomainError):
        TorsionRotor(1.0, 1.0, 1.0, 0)
    for n_fold in (2.5, 3.0, True, "3"):
        with pytest.raises(DomainError):
            TorsionRotor(1.0, 1.0, 1.0, n_fold)
    assert TorsionRotor(1.0, 1.0, 1.0, np.int64(3)).n_fold == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 pytest.param(10**400, id="10**400")])
def test_nonfinite_physical_inputs_rejected(bad):
    # an int too large for a float once raised OverflowError
    for args in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(DomainError):
            reduced_inertia(*args)
    for args in ((bad, 1.0, 1.0, 3), (1.0, bad, 1.0, 3), (1.0, 1.0, bad, 3)):
        with pytest.raises(DomainError):
            TorsionRotor(*args)


def _non_numeric_inputs():
    from qpendulum.classical import ClassicalParams, trajectory
    from qpendulum.states import StateFamily, StateSpec, build_state, jump_at_boundary

    return {
        "ClassicalParams-str": lambda: ClassicalParams("1", 1, 3),
        "ClassicalParams-None": lambda: ClassicalParams(None, 1, 3),
        "ClassicalParams-huge-int": lambda: ClassicalParams(10**400, 1, 3),
        "trajectory-params": lambda: trajectory("x", [0.0]),
        "TorsionRotor-str": lambda: TorsionRotor("1", 1, 1, 3),
        "torsion_to_mathieu-huge-n_fold":
            lambda: torsion_to_mathieu(TorsionRotor(1, 1, 1, 10**400)),
        "modulation_schedule-huge-int": lambda: modulation_schedule(
            10**400, 0.1, 1.0, [0.0], [1], EPS_R, EPS_W),
        # these three once warned of an overflow or raised ValueError
        "torsion_to_mathieu-5001-digit-n_fold":
            lambda: torsion_to_mathieu(TorsionRotor(1e-47, 1e-47, 1e-20, 10**5000)),
        "modulation_schedule-overflowing-barrier": lambda: modulation_schedule(
            1e308, 1e308, 1.0, [0.0], [1], EPS_R, EPS_W),
        "modulation_schedule-overflowing-phase": lambda: modulation_schedule(
            1.0, 0.5, 1e308, [0.0, 10.0], [1], EPS_R, EPS_W),
        "reduced_inertia": lambda: reduced_inertia("1", 1),
        "torsion_to_mathieu": lambda: torsion_to_mathieu("x"),
        "build_state-level":
            lambda: build_state(StateSpec(StateFamily.PHI_PLUS, "2", 1.0)),
        "jump_at_boundary-level":
            lambda: jump_at_boundary("2", StateFamily.PHI_PLUS, StateFamily.XI, 1.0),
    }


@pytest.mark.parametrize("name", list(_non_numeric_inputs()))
def test_non_numeric_physical_inputs_raise_domain_error(name):
    # each once raised TypeError, AttributeError or OverflowError
    with pytest.raises(DomainError):
        _non_numeric_inputs()[name]()
