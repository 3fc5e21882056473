import numpy as np
import pytest

from qpendulum import symmetry
from qpendulum.errors import AmbiguityError, BoundaryNotFoundError, DomainError
from qpendulum.mathieu import MathieuClass, ce_series, characteristic_value, se_series
from qpendulum.series import TrigSeries, eval_series, inner_product
from qpendulum import reference as ref
from qpendulum.symmetry import (
    BISECTION_TOL,
    PROBE_DELTA,
    SEARCH_CEILING,
    GapMeasure,
    GroupElement,
    PairingKind,
    Subgroup,
    apply_group_element,
    classify_region,
    classify_regions,
    compose,
    find_boundary,
    level_boundary,
    pair_gap,
    subgroup_invariance_check,
    sweep_characteristics,
    well_pair_for_level,
)
from qpendulum.states import StateFamily, StateSpec, build_state

RNG = np.random.default_rng(7)
GRID = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

ANGLE_MAP = {
    GroupElement.E: lambda phi: phi,
    GroupElement.A: lambda phi: -phi,
    GroupElement.B: lambda phi: np.pi - phi,
    GroupElement.C: lambda phi: np.pi + phi,
}


def random_series():
    size = 2 * 5 + 1
    return TrigSeries(RNG.normal(size=size) + 1j * RNG.normal(size=size))


@pytest.mark.parametrize("g", list(GroupElement))
def test_group_action_is_angle_substitution(g):
    for _ in range(5):
        s = random_series()
        np.testing.assert_allclose(
            eval_series(apply_group_element(s, g), GRID),
            eval_series(s, ANGLE_MAP[g](GRID)),
            atol=1e-12,
        )


def test_composition_table_on_random_series():
    elements = list(GroupElement)
    for _ in range(100):
        s = random_series()
        g1, g2 = RNG.choice(elements, size=2)
        lhs = apply_group_element(apply_group_element(s, g2), g1)
        rhs = apply_group_element(s, compose(g1, g2))
        assert (lhs - rhs).norm() < 1e-14


def test_klein_group_axioms():
    for g in GroupElement:
        assert compose(g, g) is GroupElement.E
        assert compose(GroupElement.E, g) is g
    assert compose(GroupElement.A, GroupElement.B) is GroupElement.C
    assert compose(GroupElement.C, GroupElement.B) is GroupElement.A


def test_subgroups_are_closed_and_cover_the_group():
    generators = set()
    for sub in Subgroup:
        e, g = sub.elements
        assert e is GroupElement.E and g is not GroupElement.E
        assert {compose(x, y) for x in sub.elements for y in sub.elements} \
            == set(sub.elements)
        generators.add(g)
    assert generators == set(GroupElement) - {GroupElement.E}


@pytest.mark.parametrize("l", [0.0, 3.42, 23.93])
@pytest.mark.parametrize("n", range(1, 9))
def test_parity_eigenrelations(n, l):
    ce = ce_series(n, l)
    se = se_series(n, l)
    assert (apply_group_element(ce, GroupElement.A) - ce).norm() < 1e-12
    assert (apply_group_element(se, GroupElement.A) + se).norm() < 1e-12


@pytest.mark.parametrize("family,subgroup", [
    (StateFamily.PHI_PLUS, Subgroup.G_MINUS),
    (StateFamily.PHI_MINUS, Subgroup.G_MINUS),
    (StateFamily.XI, Subgroup.G_ZERO),
    (StateFamily.ETA, Subgroup.G_ZERO),
    (StateFamily.PSI_PLUS, Subgroup.G_PLUS),
    (StateFamily.PSI_MINUS, Subgroup.G_PLUS),
])
def test_state_families_invariant_under_their_subgroup(family, subgroup):
    s = build_state(StateSpec(family, 2, 5.0)).series
    ok, phases = subgroup_invariance_check(s, subgroup)
    assert ok
    for lam in phases.values():
        assert abs(abs(lam) - 1.0) < 1e-10


def test_phi_states_not_invariant_under_other_subgroups():
    s = build_state(StateSpec(StateFamily.PHI_PLUS, 2, 5.0)).series
    ok, _ = subgroup_invariance_check(s, Subgroup.G_PLUS)
    assert not ok


@pytest.mark.parametrize("subgroup", list(Subgroup))
def test_zero_series_has_no_invariance_phase(subgroup):
    with pytest.raises(DomainError):
        subgroup_invariance_check(TrigSeries(np.zeros(5)), subgroup)


def test_sweep_characteristics_shape_and_order():
    rows = sweep_characteristics(2, [0.0, 1.0])
    # ce 0..2 and se 1..2 -> five rows per l value
    assert len(rows) == 10
    assert rows[0][2] == 0.0 and rows[-1][2] == 1.0
    free = sorted(r[3] for r in rows[:5])
    np.testing.assert_allclose(free, [0, 1, 1, 4, 4], atol=1e-12)


def test_batched_sweep_matches_per_order_values():
    # one solve per (family, l) gives what a solve per order gives
    rows = sweep_characteristics(8, [0.0, 0.7, 3.42, 11.1, 28.0, 55.0])
    assert len(rows) == 6 * 17
    for label, n, l, value in rows:
        assert abs(value - characteristic_value(MathieuClass(label), n, l)) <= 1e-10


def test_sweep_validates_grid():
    with pytest.raises(DomainError):
        sweep_characteristics(2, [])
    with pytest.raises(DomainError):
        sweep_characteristics(2, [1.0, 0.5])
    with pytest.raises(DomainError):
        sweep_characteristics(2, [-1.0, 0.5])
    with pytest.raises(DomainError):
        sweep_characteristics(-1, [0.0, 0.5])


def test_pair_gap_measures():
    gap_abs = pair_gap(1, PairingKind.ROTOR, 0.5, GapMeasure.ABSOLUTE)
    gap_rel = pair_gap(1, PairingKind.ROTOR, 0.5, GapMeasure.RELATIVE)
    assert gap_abs > 0
    mean = 0.5 * (
        pair_gap(1, PairingKind.ROTOR, 0.5, GapMeasure.ABSOLUTE) / gap_rel)
    assert mean > 0  # consistency: relative = absolute / |mean|


def test_rotor_boundary_immediate_when_gap_large():
    b = find_boundary(1, PairingKind.ROTOR, 1e-9, GapMeasure.RELATIVE)
    assert b.l_c == 0.0


def test_rotor_boundary_grows_with_epsilon():
    small = find_boundary(3, PairingKind.ROTOR, 1e-3, GapMeasure.RELATIVE).l_c
    large = find_boundary(3, PairingKind.ROTOR, 1e-2, GapMeasure.RELATIVE).l_c
    assert 0 < small < large


def test_well_boundary_monotone_in_pair_index():
    values = [find_boundary(k, PairingKind.WELL, 1e-2, GapMeasure.RELATIVE).l_c
              for k in (0, 2, 3)]
    assert values[0] < values[1] < values[2]


def test_boundary_not_found():
    # the rotor doubling scan passes SEARCH_CEILING with the gap below 1e6
    with pytest.raises(BoundaryNotFoundError):
        find_boundary(1, PairingKind.ROTOR, 1e6, GapMeasure.ABSOLUTE)
    # the well scan reaches SEARCH_CEILING before the gap drops below 1e-12
    with pytest.raises(BoundaryNotFoundError):
        find_boundary(12, PairingKind.WELL, 1e-12, GapMeasure.RELATIVE)


def reference_find_boundary(n, pairing, epsilon, measure):
    """The two-loop search that preceded the shared bisection: (l_c, bracket)."""
    gap = lambda l: pair_gap(n, pairing, l, measure)

    if pairing is PairingKind.ROTOR:
        if gap(PROBE_DELTA) >= epsilon:
            return 0.0, (0.0, PROBE_DELTA)
        lo, hi = PROBE_DELTA, 0.01
        while gap(hi) < epsilon:
            lo, hi = hi, 2.0 * hi
            if hi > SEARCH_CEILING:
                raise BoundaryNotFoundError(f"rotor n={n}")
        below, above = lo, hi  # gap(below) < eps <= gap(above)
        while above - below > BISECTION_TOL:
            mid = 0.5 * (below + above)
            if gap(mid) < epsilon:
                below = mid
            else:
                above = mid
        return 0.5 * (below + above), (below, above)

    lo = PROBE_DELTA
    if gap(lo) < epsilon:
        return lo, (0.0, lo)
    step = 0.25
    hi = lo
    while gap(hi) >= epsilon:
        lo, hi = hi, hi + step
        if hi > SEARCH_CEILING:
            raise BoundaryNotFoundError(f"well n={n}")
    above, below = lo, hi  # gap(above) >= eps > gap(below)
    while below - above > BISECTION_TOL:
        mid = 0.5 * (above + below)
        if gap(mid) >= epsilon:
            above = mid
        else:
            below = mid
    return 0.5 * (above + below), (above, below)


@pytest.mark.parametrize("epsilon", [ref.CALIBRATED_EPS_ROTOR,
                                     ref.CALIBRATED_EPS_WELL])
@pytest.mark.parametrize("pairing", list(PairingKind))
def test_shared_bisection_bit_identical_to_two_loops(pairing, epsilon):
    first = 1 if pairing is PairingKind.ROTOR else 0
    for pair in range(first, 13):
        b = find_boundary(pair, pairing, epsilon, GapMeasure.RELATIVE)
        l_c, bracket = reference_find_boundary(pair, pairing, epsilon,
                                               GapMeasure.RELATIVE)
        assert (b.l_c, b.bracket) == (l_c, bracket), pair


def test_shared_bisection_bit_identical_on_absolute_fallback():
    # merging row n=2 falls back to the absolute gap pinned at 7.51
    b = level_boundary(2, PairingKind.WELL, ref.CALIBRATED_EPS_WELL,
                       ref.MERGING_POINTS[2])
    assert b.measure is GapMeasure.ABSOLUTE
    l_c, bracket = reference_find_boundary(
        well_pair_for_level(2), PairingKind.WELL, b.gap_threshold,
        GapMeasure.ABSOLUTE)
    assert (b.l_c, b.bracket) == (l_c, bracket)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
def test_thresholds_must_be_finite_and_positive(bad):
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            find_boundary(3, pairing, bad, GapMeasure.RELATIVE)
        with pytest.raises(DomainError):
            level_boundary(3, pairing, bad, 5.0)
    with pytest.raises(DomainError):
        classify_region(2, 3.0, bad, 9.95e-3)
    with pytest.raises(DomainError):
        classify_region(2, 3.0, 4.989e-3, bad)


def test_classify_region_progression():
    # level 2: degenerate rotor pair at tiny l, isolated in between,
    # degenerate well pair deep in the well
    eps_r, eps_w = 4.989e-3, 9.95e-3
    assert classify_region(2, 0.01, eps_r, eps_w) is Subgroup.G_MINUS
    assert classify_region(2, 3.0, eps_r, eps_w) is Subgroup.G_ZERO
    assert classify_region(2, 30.0, eps_r, eps_w) is Subgroup.G_PLUS


def _classify_by_pair_gaps(n, l, epsilon_rotor, epsilon_well):
    """Reference: the per-level rule as four single-order solves."""
    rotor = pair_gap(n, PairingKind.ROTOR, l, GapMeasure.RELATIVE) < epsilon_rotor
    well = pair_gap(well_pair_for_level(n), PairingKind.WELL, l,
                    GapMeasure.RELATIVE) < epsilon_well
    if rotor and well:
        raise AmbiguityError(f"level n={n} at l={l}")
    if rotor:
        return Subgroup.G_MINUS
    if well:
        return Subgroup.G_PLUS
    return Subgroup.G_ZERO


def test_classify_regions_matches_per_level_rule():
    eps_r, eps_w = ref.CALIBRATED_EPS_ROTOR, ref.CALIBRATED_EPS_WELL
    seen = set()
    for l in np.linspace(0.0, 60.0, 400).tolist():
        expected = {n: _classify_by_pair_gaps(n, l, eps_r, eps_w)
                    for n in range(1, 9)}
        assert classify_regions(range(1, 9), l, eps_r, eps_w) == expected, l
        seen.update(expected.values())
    assert seen == set(Subgroup)


def test_classify_regions_raises_on_ambiguity():
    # wide thresholds make level 2 degenerate in both pairings at l = 1
    # (relative gaps 0.11 and 0.71); level 1 alone is fine there
    assert classify_regions([1], 1.0, 0.9, 0.9) == {1: Subgroup.G_ZERO}
    with pytest.raises(AmbiguityError):
        classify_regions([1, 2], 1.0, 0.9, 0.9)
    with pytest.raises(AmbiguityError):
        classify_region(2, 1.0, 0.9, 0.9)


@pytest.mark.parametrize("levels", [[], [1, 0], [1, 2.0], [True], [1, "2"],
                                    [1, None]])
def test_classify_regions_checks_levels_before_solving(levels, monkeypatch):
    calls = []
    monkeypatch.setattr(symmetry, "characteristic_values",
                        lambda *args: calls.append(args))
    with pytest.raises(DomainError):
        classify_regions(levels, 3.0, 4.989e-3, 9.95e-3)
    assert calls == []


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None, np.float64(2.0)])
def test_integer_counts_outside_the_engine(bad):
    with pytest.raises(DomainError):
        sweep_characteristics(bad, [0.0])
    with pytest.raises(DomainError):
        well_pair_for_level(bad)
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            pairing.validate(bad)
        with pytest.raises(DomainError):
            pair_gap(bad, pairing, 1.0, GapMeasure.ABSOLUTE)


def test_integer_counts_accept_numpy_integers_and_check_range():
    assert well_pair_for_level(np.int64(3)) == 2
    assert len(sweep_characteristics(np.int64(1), [0.0])) == 3
    PairingKind.WELL.validate(0)
    for pairing, low in ((PairingKind.ROTOR, 0), (PairingKind.WELL, -1)):
        with pytest.raises(DomainError):
            pairing.validate(low)
    regions = classify_regions(np.arange(1, 4), 3.0, 4.989e-3, 9.95e-3)
    assert list(regions) == [1, 2, 3]


def test_calibrate_epsilon_rotor():
    from qpendulum.symmetry import calibrate_epsilon

    res = calibrate_epsilon({2: 0.2, 3: 1.14, 4: 3.17}, PairingKind.ROTOR)
    # recovers the documented ~0.5% relative threshold with small residuals
    assert res.epsilon == pytest.approx(4.99e-3, rel=0.05)
    assert all(abs(r) < 0.01 for r in res.residuals.values())
    assert res.per_row_epsilon == {}


def test_calibrate_epsilon_well_flags_unfittable_row():
    from qpendulum.symmetry import calibrate_epsilon

    from qpendulum import reference as ref

    res = calibrate_epsilon(ref.MERGING_POINTS, PairingKind.WELL)
    # row 2 sits where the pair mean crosses zero; no single relative
    # threshold fits it, so it alone gets a per-row absolute fallback
    assert res.epsilon == pytest.approx(1.0e-2, rel=0.05)
    assert set(res.per_row_epsilon) == {2}
    assert all(abs(res.residuals[n]) < 0.1 for n in res.residuals if n != 2)
    eps2 = res.per_row_epsilon[2]
    b = find_boundary(well_pair_for_level(2), PairingKind.WELL, eps2,
                      GapMeasure.ABSOLUTE)
    assert b.l_c == pytest.approx(7.51, abs=0.01)


def test_well_pair_for_level():
    assert well_pair_for_level(1) == 0
    assert well_pair_for_level(8) == 7
    with pytest.raises(DomainError):
        well_pair_for_level(0)
