import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from qpendulum.errors import AmbiguityError, BoundaryNotFoundError, DomainError
from qpendulum.mathieu import MathieuClass, ce_series, characteristic_values, se_series
from qpendulum.series import TrigSeries, eval_series, inner_product
from qpendulum import mathieu, symmetry
from qpendulum import reference as ref
from qpendulum.classical import ArgConvention, ClassicalParams, trajectory
from qpendulum.symmetry import (
    PROBE_DELTA,
    REGIONS_N_MAX,
    ROOT_XTOL,
    SCAN_STEP,
    SEARCH_CEILING,
    GapMeasure,
    GroupElement,
    PairingKind,
    Subgroup,
    apply_group_element,
    boundary_table,
    calibrate_epsilon,
    classify_regions,
    compose,
    find_boundary,
    level_pair,
    pair_gap,
    sweep_characteristics,
)
from qpendulum.states import StateFamily, StateSpec, build_state, jump_at_boundary
from qpendulum.torsion import modulation_schedule

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
        assert TrigSeries(lhs.coeffs - rhs.coeffs).norm() < 1e-14


def test_klein_group_axioms():
    for g in GroupElement:
        assert compose(g, g) is GroupElement.E
        assert compose(GroupElement.E, g) is g
    assert compose(GroupElement.A, GroupElement.B) is GroupElement.C
    assert compose(GroupElement.C, GroupElement.B) is GroupElement.A


@pytest.mark.parametrize("l", [0.0, 3.42, 23.93])
@pytest.mark.parametrize("n", range(1, 9))
def test_parity_eigenrelations(n, l):
    ce = ce_series(n, l)
    se = se_series(n, l)
    assert TrigSeries(apply_group_element(ce, GroupElement.A).coeffs - ce.coeffs).norm() < 1e-12
    assert TrigSeries(apply_group_element(se, GroupElement.A).coeffs + se.coeffs).norm() < 1e-12


# The character table of the state families: the elements that map each
# to itself up to a phase. Each family's subgroup is {e, g} for its
# generator g; phi+- and psi+- are no eigenstates of the other two.
INVARIANT_UNDER = {
    StateFamily.PHI_PLUS: {GroupElement.C}, StateFamily.PHI_MINUS: {GroupElement.C},
    StateFamily.PSI_PLUS: {GroupElement.B}, StateFamily.PSI_MINUS: {GroupElement.B},
    StateFamily.XI: {GroupElement.A, GroupElement.B, GroupElement.C},
    StateFamily.ETA: {GroupElement.A, GroupElement.B, GroupElement.C},
}


@pytest.mark.parametrize("l", [0.0, 3.42, 23.93])
@pytest.mark.parametrize("family", list(StateFamily))
def test_state_families_follow_the_character_table(family, l):
    for n in range(1, 9):
        s = build_state(StateSpec(family, n, l)).series
        for g in (GroupElement.A, GroupElement.B, GroupElement.C):
            mapped = apply_group_element(s, g)
            phase = inner_product(s, mapped) / inner_product(s, s)
            residual = TrigSeries(mapped.coeffs - phase * s.coeffs).norm()
            invariant = residual <= 1e-10 and abs(abs(phase) - 1.0) <= 1e-10
            assert invariant is (g in INVARIANT_UNDER[family]), (n, g, residual, phase)
            if not invariant:
                assert residual > 0.5, (n, g, residual)


def test_sweep_characteristics_shape_and_order():
    rows = sweep_characteristics(2, [0.0, 1.0])
    # ce 0..2 and se 1..2 -> five rows per l value
    assert len(rows) == 10
    assert rows[0][2] == 0.0 and rows[-1][2] == 1.0
    free = sorted(r[3] for r in rows[:5])
    np.testing.assert_allclose(free, [0, 1, 1, 4, 4], atol=1e-12)
    assert sweep_characteristics(2, (l for l in (0.0, 1.0))) == rows


def test_batched_sweep_matches_per_order_values():
    # one solve per (family, l) gives what a solve per order gives
    rows = sweep_characteristics(8, [0.0, 0.7, 3.42, 11.1, 28.0, 55.0])
    assert len(rows) == 6 * 17
    for label, n, l, value in rows:
        assert abs(value - characteristic_values(MathieuClass(label), n, l)) <= 1e-10


def test_sweep_validates_grid():
    with pytest.raises(DomainError):
        sweep_characteristics(2, [])
    with pytest.raises(DomainError):
        sweep_characteristics(2, [1.0, 0.5])
    with pytest.raises(DomainError):
        sweep_characteristics(2, [-1.0, 0.5])
    with pytest.raises(DomainError):
        sweep_characteristics(-1, [0.0, 0.5])
    # a scalar, a non-number or a nested grid once raised TypeError or ValueError
    for grid in (5.0, ["a"], [[0.0, 1.0]], None):
        with pytest.raises(DomainError):
            sweep_characteristics(2, grid)


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
    # the scan passes SEARCH_CEILING with the rotor gap below 1e6
    with pytest.raises(BoundaryNotFoundError):
        find_boundary(1, PairingKind.ROTOR, 1e6, GapMeasure.ABSOLUTE)
    # and with the well gap above 1e-12
    with pytest.raises(BoundaryNotFoundError):
        find_boundary(12, PairingKind.WELL, 1e-12, GapMeasure.RELATIVE)


def test_boundary_table_is_find_boundary_per_row():
    # each level searches its pair; the per-row fallback applies where the
    # reference has the level: here merging row 2, whose relative boundary
    # misses 7.51 by more than 0.1 and is searched again at the absolute
    # gap pinned there
    eps = ref.CALIBRATED_EPS_WELL
    table = boundary_table([1, 2, 9], PairingKind.WELL, eps, ref.MERGING_POINTS)
    assert list(table) == [1, 2, 9]
    assert table[1] == find_boundary(0, PairingKind.WELL, eps, GapMeasure.RELATIVE)
    pinned = pair_gap(1, PairingKind.WELL, 7.51, GapMeasure.ABSOLUTE)
    assert table[2] == find_boundary(1, PairingKind.WELL, pinned, GapMeasure.ABSOLUTE)
    assert table[9] == find_boundary(8, PairingKind.WELL, eps, GapMeasure.RELATIVE)
    plain = boundary_table([2], PairingKind.WELL, eps, {})
    assert plain[2].measure is GapMeasure.RELATIVE


def test_boundary_table_gives_none_where_no_crossing_is_found():
    # every relative rotor gap stays below 1e300 up to SEARCH_CEILING,
    # while every well pair is degenerate at the probe point already
    assert boundary_table([1, 2], PairingKind.ROTOR, 1e300, {}) == {1: None, 2: None}
    assert all(b.l_c == PROBE_DELTA for b in boundary_table(
        [1, 2], PairingKind.WELL, 1e300, {}).values())


def test_a_row_degenerate_at_its_target_is_not_found():
    # a_5 = b_5 = 25 at l = 0: the absolute gap pinned there is 0.0, and
    # no threshold reproduces the row
    assert pair_gap(5, PairingKind.ROTOR, 0.0, GapMeasure.ABSOLUTE) == 0.0
    assert boundary_table([5], PairingKind.ROTOR, 4.989e-3, {5: 0.0}) == {5: None}
    # deep in the well the doublet is degenerate within the values'
    # tolerance, 1e-11 |a_0| each, though its computed gap is not 0.0: the
    # search pinned there crosses near l = 53, and a row it misses is None
    assert pair_gap(0, PairingKind.WELL, 1000.0, GapMeasure.ABSOLUTE) <= (
        2e-11 * abs(mathieu.a_value(0, 1000.0)))
    assert boundary_table([1], PairingKind.WELL, ref.CALIBRATED_EPS_WELL,
                          {1: 1000.0}) == {1: None}


def test_calibration_names_the_rows_it_cannot_reproduce():
    with pytest.raises(BoundaryNotFoundError, match=r"rotor boundary for rows \[5\]"):
        calibrate_epsilon({2: 0.2, 3: 1.14, 5: 0.0}, PairingKind.ROTOR)


@pytest.mark.parametrize("args", [
    ([1, 0], PairingKind.ROTOR, 5e-3, {}), (3, PairingKind.ROTOR, 5e-3, {}),
    ([1, 2], "rotor", 5e-3, {}), ([1, 2], PairingKind.ROTOR, -1.0, {}),
    ([1, 2], PairingKind.ROTOR, 5e-3, [0.2]),
    ([1, 2], PairingKind.ROTOR, 5e-3, {2: -0.2}),
    ([1, 2], PairingKind.ROTOR, 5e-3, {2: "0.2"})])
def test_boundary_table_checks_every_row_before_solving(args, lapack_calls):
    with pytest.raises(DomainError):
        boundary_table(*args)
    assert lapack_calls == []


KMAX = 100  # plane waves e^{ik phi}, |k| <= KMAX, of the dense oracle
GRID_L = np.arange(0.0, 200.0, 0.05)  # barriers checked below a scan cell


@functools.lru_cache(maxsize=None)
def parity_block(cosine, odd):
    """Dense D, S with H(l) = D + l S on cos(m phi) or sin(m phi), m = odd,
    odd + 2, ..., projected from the plane-wave matrix of
    -psi'' + 2 l cos(2 phi) psi; shares no code with the engine."""
    k = np.arange(-KMAX, KMAX + 1)
    ms = [m for m in range(odd, KMAX + 1, 2) if cosine or m > 0]
    P = np.zeros((len(k), len(ms)))
    for j, m in enumerate(ms):
        P[KMAX + m, j] = P[KMAX - m, j] = 1.0 if m == 0 else np.sqrt(0.5)
        P[KMAX - m, j] *= 1.0 if cosine else -1.0
    S = (np.abs(k[:, None] - k[None, :]) == 2).astype(float)
    return P.T @ np.diag(k ** 2.0) @ P, P.T @ S @ P


@functools.lru_cache(maxsize=None)
def dense_spectra(cosine, odd, ls):
    """Ascending spectrum of one parity block at each barrier of tuple ls."""
    D, S = parity_block(cosine, odd)
    return np.concatenate([
        np.linalg.eigvalsh(D[None] + chunk[:, None, None] * S[None])
        for chunk in np.array_split(np.array(ls), max(1, len(ls) // 256))])


def dense_values(cosine, n, ls):
    """a_n (cosine) or b_n at each barrier in ls, by dense eigvalsh."""
    spectra = dense_spectra(cosine, n % 2, tuple(np.atleast_1d(ls).tolist()))
    return spectra[:, n // 2 if cosine else (n - 1) // 2]


def dense_gaps(b, ls):
    """The gap of boundary b's pair and measure at each barrier in ls."""
    ea = dense_values(True, b.n, ls)
    eb = dense_values(False, b.n + (b.pairing is PairingKind.WELL), ls)
    gap = np.abs(ea - eb)
    if b.measure is GapMeasure.RELATIVE:
        with np.errstate(divide="ignore"):
            gap = gap / np.abs(0.5 * (ea + eb))
    return gap


def assert_independent_root(b):
    """l_c is the dense gap's root in the scan cell, with no crossing below."""
    lo, hi = b.bracket
    assert hi - lo == pytest.approx(SCAN_STEP) and lo <= b.l_c <= hi
    root = brentq(lambda l: dense_gaps(b, l)[0] - b.gap_threshold, lo, hi,
                  xtol=1e-13)
    assert abs(b.l_c - root) <= 2e-9, (b, root)
    degenerate = dense_gaps(b, GRID_L)[GRID_L < lo] < b.gap_threshold
    assert degenerate.all() if b.pairing is PairingKind.ROTOR else not degenerate.any()


@pytest.mark.parametrize("epsilon", [ref.CALIBRATED_EPS_ROTOR,
                                     ref.CALIBRATED_EPS_WELL])
@pytest.mark.parametrize("pairing", list(PairingKind))
def test_boundaries_match_independent_roots(pairing, epsilon):
    first = 1 if pairing is PairingKind.ROTOR else 0
    for pair in range(first, first + 12):
        assert_independent_root(
            find_boundary(pair, pairing, epsilon, GapMeasure.RELATIVE))


@pytest.mark.parametrize("pairing,epsilon,table", [
    (PairingKind.ROTOR, ref.CALIBRATED_EPS_ROTOR, ref.SPLITTING_POINTS),
    (PairingKind.WELL, ref.CALIBRATED_EPS_WELL, ref.MERGING_POINTS),
])
def test_table_rows_match_independent_roots(pairing, epsilon, table):
    rows = boundary_table(list(table), pairing, epsilon, table)
    for b in rows.values():
        assert_independent_root(b)
    # merging row n=2 alone falls back to the absolute gap pinned at 7.51
    fallback = {n for n, b in rows.items() if b.measure is GapMeasure.ABSOLUTE}
    assert fallback == ({2} if pairing is PairingKind.WELL else set())
    for n in fallback:
        assert abs(rows[n].l_c - table[n]) <= 1e-9


def test_relative_gap_pole_is_no_boundary():
    # the mean of a_0 and b_1 crosses zero near l = 0.71, inside the first
    # scan cell; the relative gap is +inf on both sides of it, so the root
    # brentq returns is the threshold crossing at 0.99
    eps = pair_gap(0, PairingKind.WELL, 0.99, GapMeasure.RELATIVE)
    b = find_boundary(0, PairingKind.WELL, eps, GapMeasure.RELATIVE)
    lo, hi = b.bracket
    assert (lo, hi) == (PROBE_DELTA, PROBE_DELTA + SCAN_STEP)
    ls = [lo, 0.7, 0.72, hi]
    mean = dense_values(True, 0, ls) + dense_values(False, 1, ls)
    assert list(np.sign(mean)) == [1, 1, -1, -1]
    assert abs(b.l_c - 0.99) <= 1e-9
    assert_independent_root(b)


THRESHOLD_PAIRS = [(ref.CALIBRATED_EPS_ROTOR, ref.CALIBRATED_EPS_WELL),
                   (1e-3, 1e-3), (2e-2, 3e-2), (5e-4, 2e-3)]


def scan_bracket(n, pairing, epsilon, measure):
    """The first scan cell where the sign of gap - eps flips, by one
    pair_gap per scan point, or None below SEARCH_CEILING."""
    rotor, lo = pairing is PairingKind.ROTOR, PROBE_DELTA
    if (pair_gap(n, pairing, lo, measure) - epsilon < 0) != rotor:
        return (0.0, lo)
    for k in range(1, int((SEARCH_CEILING - PROBE_DELTA) / SCAN_STEP) + 1):
        hi = PROBE_DELTA + k * SCAN_STEP
        if (pair_gap(n, pairing, hi, measure) - epsilon < 0) != rotor:
            return (lo, hi)
        lo = hi
    return None


@pytest.mark.parametrize("measure", list(GapMeasure))
@pytest.mark.parametrize("eps_rotor,eps_well", THRESHOLD_PAIRS)
def test_scan_grid_cell_is_the_first_flip_of_a_per_point_scan(eps_rotor, eps_well,
                                                              measure):
    # every pair of `regions --n-max 12`, and two past it on grids of
    # their own; the grid agrees with single solves to about 1e-14, so a
    # threshold that close to a scan point's gap could move a cell
    for pairing, eps in ((PairingKind.ROTOR, eps_rotor), (PairingKind.WELL, eps_well)):
        for pair in [level_pair(n, pairing) for n in range(1, REGIONS_N_MAX + 3)]:
            try:
                bracket = find_boundary(pair, pairing, eps, measure).bracket
            except BoundaryNotFoundError:
                bracket = None
            assert bracket == scan_bracket(pair, pairing, eps, measure), (pairing, pair)


def test_a_second_threshold_makes_no_grid_solve(lapack_calls):
    levels = range(1, REGIONS_N_MAX + 1)
    for pairing, eps in ((PairingKind.ROTOR, ref.CALIBRATED_EPS_ROTOR),
                         (PairingKind.WELL, ref.CALIBRATED_EPS_WELL)):
        boundary_table(levels, pairing, eps, {})
    misses = mathieu._converge_grid.cache_info().misses  # grids solved
    assert misses
    lapack_calls.clear()
    # both move every boundary toward l = 0, so no search reaches a new chunk
    assert None not in boundary_table(levels, PairingKind.ROTOR, 1e-3, {}).values()
    assert None not in boundary_table(levels, PairingKind.WELL, 2e-2, {}).values()
    assert mathieu._converge_grid.cache_info().misses == misses
    assert lapack_calls  # brentq still solves single points


def first_chunk_gaps(n, pairing, measure):
    """The gaps of pair n that the scan reads at its first 32 points."""
    ce, se = n, n + (pairing is PairingKind.WELL)
    points = tuple(symmetry._SCAN_POINTS[:symmetry.SCAN_CHUNK])
    top = REGIONS_N_MAX
    columns = [(cls, top - (top - cls.lowest) % 2, cls.eigen_index(order))
               for cls, order in ((mathieu.ce_class(ce), ce), (mathieu.se_class(se), se))]
    ea, eb = (mathieu._converge_grid(cls, cls_top, points)[:, k] for cls, cls_top, k in columns)
    return symmetry._gap(ea, eb, measure).tolist()


@pytest.mark.parametrize("measure", list(GapMeasure))
@pytest.mark.parametrize("pairing", list(PairingKind))
def test_threshold_at_a_scan_point_gap_gives_a_boundary(pairing, measure):
    # eps at a scan point's gap by the grid or by single solves, which agree
    # to about 1e-14 but not bit for bit: where the single solves then put
    # both ends of the grid's cell on one side of eps, brentq would raise
    # ValueError; the end nearer eps is l_c instead
    same_side = 0
    for n in (level_pair(m, pairing) for m in (1, 4, 7, 10)):
        grid_gaps = first_chunk_gaps(n, pairing, measure)
        for k in (1, 2, 5, 17):
            l = PROBE_DELTA + k * SCAN_STEP
            for eps in (pair_gap(n, pairing, l, measure), grid_gaps[k]):
                try:
                    b = find_boundary(n, pairing, eps, measure)
                except (BoundaryNotFoundError, DomainError):
                    continue
                lo, hi = b.bracket
                assert lo <= b.l_c <= hi
                excess = [pair_gap(n, pairing, x, measure) - eps for x in (lo, hi)]
                if excess[0] * excess[1] > 0:
                    same_side += 1
                    assert b.l_c == (lo, hi)[abs(excess[1]) < abs(excess[0])]
    assert same_side > 0


@pytest.mark.parametrize("epsilon", [1e-300, 5e-324])
def test_a_tiny_threshold_compares_signs_not_a_product(epsilon):
    # the single solves put the gap at 0.0 on both cell ends, so both
    # excesses would be -eps, whose product underflows to 0.0: that once
    # sent brentq two ends of one sign, and it raised ValueError. brentq
    # reads the scan's ends instead (gap 0.0 only at the upper one); the
    # single solves' rounding inside the cell puts l_c at that end
    b = find_boundary(4, PairingKind.WELL, epsilon, GapMeasure.RELATIVE)
    assert b.bracket == (193.000001, 194.000001)
    assert b.l_c == 194.000001


CALIBRATED_EPS = {PairingKind.ROTOR: ref.CALIBRATED_EPS_ROTOR,
                  PairingKind.WELL: ref.CALIBRATED_EPS_WELL}


@pytest.mark.parametrize("pairing", list(PairingKind))
def test_no_single_solve_at_the_cell_ends(pairing, monkeypatch):
    # brentq reads gap - eps at both cell ends from the scan itself
    real, seen = symmetry.pair_gap, []
    monkeypatch.setattr(symmetry, "pair_gap",
                        lambda n, p, l, m: seen.append(l) or real(n, p, l, m))
    for n in (level_pair(m, pairing) for m in (2, 3, 5, 8)):
        seen.clear()
        lo, hi = find_boundary(n, pairing, CALIBRATED_EPS[pairing],
                               GapMeasure.RELATIVE).bracket
        assert lo > 0.0 and seen  # a Brent root, on single solves inside
        assert all(lo < l < hi for l in seen)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("pairing", list(PairingKind))
def test_single_solves_on_one_side_of_eps_keep_the_scan_cell(pairing, side,
                                                             monkeypatch):
    # single solves that put the whole cell on one side of eps change no
    # sign at its ends: the root closes on the end the scan put on the other
    n, eps = level_pair(3, pairing), CALIBRATED_EPS[pairing]
    lo, hi = find_boundary(n, pairing, eps, GapMeasure.RELATIVE).bracket
    monkeypatch.setattr(symmetry, "pair_gap", lambda *args: eps * (1.0 + side * 1e-3))
    b = find_boundary(n, pairing, eps, GapMeasure.RELATIVE)
    assert b.bracket == (lo, hi)
    # the scan puts a rotor cell's lower end below eps, a well cell's above
    end = lo if (side > 0) == (pairing is PairingKind.ROTOR) else hi
    assert abs(b.l_c - end) <= ROOT_XTOL


def nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# a failing example makes hypothesis's pytest plugin import libcst, which
# warns on import: as an error that warning would abort the whole session
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated")
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(pairing=st.sampled_from(PairingKind), data=st.data(),
       measure=st.sampled_from(GapMeasure),
       k=st.integers(0, symmetry.SCAN_CHUNK - 1), ulps=st.integers(-4, 4))
def test_a_threshold_near_a_scan_gap_gives_a_root_in_its_cell(pairing, data, measure,
                                                              k, ulps):
    # eps within a few ulps of a grid gap at a scan point: either end of a
    # cell may then sit on eps, and brentq still gets the scan's signs
    n = data.draw(st.integers(int(pairing is PairingKind.ROTOR), 8), label="n")
    epsilon = nudged(first_chunk_gaps(n, pairing, measure)[k], ulps)
    assume(0.0 < epsilon < math.inf)  # the input rule refuses any other
    try:
        b = find_boundary(n, pairing, epsilon, measure)
    except BoundaryNotFoundError:
        return
    lo, hi = b.bracket
    assert lo <= b.l_c <= hi


@pytest.mark.parametrize("run,budget", [
    (lambda: boundary_table(list(ref.MERGING_POINTS), PairingKind.WELL,
                            ref.CALIBRATED_EPS_WELL, ref.MERGING_POINTS), 400),
    (lambda: calibrate_epsilon(ref.SPLITTING_POINTS, PairingKind.ROTOR), 280),
    (lambda: calibrate_epsilon(ref.MERGING_POINTS, PairingKind.WELL), 420),
], ids=["table2", "calibrate-splitting", "calibrate-merging"])
def test_cold_solver_call_budget(run, budget, lapack_calls):
    # the scan cells come from grids shared across levels, pairings and
    # thresholds; a finer scan or a tighter brentq xtol breaks these budgets.
    # 354, 234 and 368 calls: one per size in every solve (390, 266 and 404
    # with single solves at both ends of each scan cell, 524, 408 and 552
    # with an upper and a lower solve per size in single solves as well)
    run()
    assert 0 < len(lapack_calls) <= budget


def solver_caches():
    return [obj for name, module in sys.modules.items()
            if name == "qpendulum" or name.startswith("qpendulum.")
            for obj in vars(module).values() if hasattr(obj, "cache_info")]


@pytest.fixture
def warm_caches():
    find_boundary(1, PairingKind.ROTOR, 5e-3, GapMeasure.RELATIVE)
    sweep_characteristics(1, [0.0, 1.0])
    ce_series(1, 1.0)
    assert all(cache.cache_info().currsize for cache in solver_caches())


def test_lapack_calls_starts_from_empty_caches(warm_caches, lapack_calls):
    # pytest sets up warm_caches first; a cache the fixture missed would
    # make a cold count read from a warm cache
    caches = set(solver_caches())
    assert {mathieu._values, mathieu._weights, mathieu._converge_grid} <= caches
    assert all(cache.cache_info().currsize == 0 for cache in caches)


def test_cold_sweep_row_budget(lapack_calls):
    # rows handed to LAPACK for the n <= 8 sweep over the fig1 grid
    # (6,482): a first size growing as sqrt(l), not l^(1/4), breaks it.
    # Each of the four families takes one dsterf call per barrier, on the
    # unlowered bands, and an identical repeat is one hit of the grid cache.
    grid = np.linspace(0.0, 55.0, 111)
    rows = sweep_characteristics(8, grid)
    assert len(lapack_calls) == 4 * len(grid) == 444
    assert {c[0] for c in lapack_calls} == {"dsterf"}
    assert sum(len(c[1]) for c in lapack_calls) <= 6500
    lapack_calls.clear()
    assert sweep_characteristics(8, grid) == rows and lapack_calls == []


def test_every_grid_of_one_run_stays_cached(lapack_calls):
    # the grids of a 1000-barrier n <= 8 sweep, both `regions --n-max 12`
    # tables, both calibrations and a 400-point levels 1-8 schedule all
    # stay in the one grid cache: a repeat makes no kernel call, which a
    # cache of 16 grids would not allow
    def run():
        sweep_characteristics(8, np.linspace(0.0, 55.0, 1000))
        for pairing, eps, table in (
                (PairingKind.ROTOR, ref.CALIBRATED_EPS_ROTOR, ref.SPLITTING_POINTS),
                (PairingKind.WELL, ref.CALIBRATED_EPS_WELL, ref.MERGING_POINTS)):
            boundary_table(range(1, REGIONS_N_MAX + 1), pairing, eps, table)
            calibrate_epsilon(table, pairing)
        modulation_schedule(25.0, 10.0, 1.0, np.linspace(0.0, 2.0 * np.pi, 400),
                            range(1, 9), ref.CALIBRATED_EPS_ROTOR, ref.CALIBRATED_EPS_WELL)

    run()
    assert lapack_calls
    lapack_calls.clear()
    run()
    assert lapack_calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-3, "0.01",
                                 None, True, pytest.param(10**400, id="10**400")])
def test_thresholds_must_be_finite_and_positive(bad):
    # 10**400 once raised OverflowError from the first gap comparison
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            find_boundary(3, pairing, bad, GapMeasure.RELATIVE)
        with pytest.raises(DomainError):
            boundary_table([3], pairing, bad, {3: 5.0})
    with pytest.raises(DomainError):
        classify_regions([2], [3.0], bad, 9.95e-3)
    with pytest.raises(DomainError):
        classify_regions([2], [3.0], 4.989e-3, bad)


def test_classify_region_progression():
    # level 2: degenerate rotor pair at tiny l, isolated in between,
    # degenerate well pair deep in the well
    eps_r, eps_w = 4.989e-3, 9.95e-3
    assert classify_regions([2], [0.01, 3.0, 30.0], eps_r, eps_w) == [
        {2: Subgroup.G_MINUS}, {2: Subgroup.G_ZERO}, {2: Subgroup.G_PLUS}]


def _classify_by_pair_gaps(n, l, epsilon_rotor, epsilon_well):
    """Reference: the per-level rule as four single-order solves."""
    rotor = pair_gap(n, PairingKind.ROTOR, l, GapMeasure.RELATIVE) < epsilon_rotor
    well = pair_gap(level_pair(n, PairingKind.WELL), PairingKind.WELL, l,
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
    grid = np.linspace(0.0, 60.0, 400).tolist()
    seen = set()
    for l, labels in zip(grid, classify_regions(range(1, 9), grid, eps_r, eps_w)):
        expected = {n: _classify_by_pair_gaps(n, l, eps_r, eps_w)
                    for n in range(1, 9)}
        assert labels == expected, l
        seen.update(expected.values())
    assert seen == set(Subgroup)
    # one barrier is the one-point grid
    assert classify_regions(range(1, 9), [grid[7]], eps_r, eps_w) == [
        {n: _classify_by_pair_gaps(n, grid[7], eps_r, eps_w) for n in range(1, 9)}]
    # and no barrier the empty grid, which once raised NumPy's ValueError
    assert classify_regions(range(1, 9), [], eps_r, eps_w) == []


def test_classify_regions_raises_on_ambiguity():
    # wide thresholds make level 2 degenerate in both pairings at l = 1
    # (relative gaps 0.11 and 0.71); level 1 alone is fine there
    assert classify_regions([1], [1.0], 0.9, 0.9) == [{1: Subgroup.G_ZERO}]
    with pytest.raises(AmbiguityError):
        classify_regions([1, 2], [1.0], 0.9, 0.9)
    with pytest.raises(AmbiguityError, match=r"level n=2 at l=1\.0 "):
        classify_regions([2], [30.0, 1.0], 0.9, 0.9)


def test_ambiguity_message_names_both_thresholds():
    with pytest.raises(AmbiguityError, match=r"eps_rotor=0\.9, eps_well=0\.8"):
        classify_regions([2], [1.0], 0.9, 0.8)


@pytest.mark.parametrize("levels", [[], [1, 0], [1, 2.0], [True], [1, "2"],
                                    [1, None]])
def test_classify_regions_checks_levels_before_solving(levels, lapack_calls):
    with pytest.raises(DomainError):
        classify_regions(levels, [3.0], 4.989e-3, 9.95e-3)
    assert lapack_calls == []


@pytest.mark.parametrize("barriers", [
    3.0, np.float64(3.0), [[3.0]], [3.0, -1e-3], [3.0, np.nan], [np.inf], ["3"],
    [True], [None], pytest.param([3.0, 10**400], id="10**400")])
def test_classify_regions_takes_a_grid_of_barriers(barriers, lapack_calls):
    # the one input rule: a 1-D grid of finite values >= 0, checked
    # before any solve; a scalar barrier is no grid
    with pytest.raises(DomainError):
        classify_regions([1, 2], barriers, 4.989e-3, 9.95e-3)
    assert lapack_calls == []


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None, np.float64(2.0)])
def test_integer_counts_outside_the_engine(bad):
    with pytest.raises(DomainError):
        sweep_characteristics(bad, [0.0])
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            level_pair(bad, pairing)
        with pytest.raises(DomainError):
            pair_gap(bad, pairing, 1.0, GapMeasure.ABSOLUTE)


@pytest.mark.parametrize("pairing,measure", [
    ("rotor", GapMeasure.RELATIVE), ("well", GapMeasure.ABSOLUTE),
    (PairingKind.ROTOR, "absolute"), (PairingKind.WELL, None),
    (GapMeasure.ABSOLUTE, PairingKind.ROTOR)])
def test_pairing_and_measure_must_be_their_enums(pairing, measure, lapack_calls):
    # a string measure once gave the relative gap under an absolute label
    with pytest.raises(DomainError):
        pair_gap(2, pairing, 1.0, measure)
    with pytest.raises(DomainError):
        find_boundary(2, pairing, 0.01, measure)
    if not isinstance(pairing, PairingKind):
        with pytest.raises(DomainError):
            boundary_table([2], pairing, 0.01, {})
        with pytest.raises(DomainError):
            calibrate_epsilon({2: 0.2}, pairing)
    assert lapack_calls == []


def _enum_arguments():
    """Per enum parameter: a member, and a call that passes its argument."""
    s, params = TrigSeries([1.0, 0.0, 1.0]), ClassicalParams(2.0, 1.0, 3.0)
    return {
        "StateSpec": (StateFamily.XI, lambda f: StateSpec(f, 1, 1.0)),
        "jump_at_boundary-from": (StateFamily.PHI_PLUS, lambda f: jump_at_boundary(
            2, f, StateFamily.XI, 0.5)),
        "jump_at_boundary-to": (StateFamily.XI, lambda f: jump_at_boundary(
            2, StateFamily.PHI_PLUS, f, 0.5)),
        "trajectory": (ArgConvention.DIMENSIONAL,
                       lambda c: trajectory(params, [0.5], c)),
        "pair_gap-pairing": (PairingKind.ROTOR,
                             lambda p: pair_gap(2, p, 1.0, GapMeasure.ABSOLUTE)),
        "pair_gap-measure": (GapMeasure.ABSOLUTE,
                             lambda m: pair_gap(2, PairingKind.ROTOR, 1.0, m)),
        "find_boundary-pairing": (PairingKind.WELL, lambda p: find_boundary(
            1, p, 0.01, GapMeasure.RELATIVE)),
        "find_boundary-measure": (GapMeasure.RELATIVE, lambda m: find_boundary(
            1, PairingKind.WELL, 0.01, m)),
        "boundary_table": (PairingKind.WELL, lambda p: boundary_table([2], p, 0.01, {})),
        "calibrate_epsilon": (PairingKind.ROTOR,
                              lambda p: calibrate_epsilon({2: 0.2}, p)),
        "characteristic_values": (MathieuClass.CE_EVEN,
                                  lambda c: characteristic_values(c, 0, 1.0)),
        "apply_group_element": (GroupElement.A, lambda g: apply_group_element(s, g)),
    }


@pytest.mark.parametrize("name", list(_enum_arguments()))
def test_enum_arguments_refuse_their_values(name, lapack_calls):
    # StateSpec and trajectory once coerced a value to its member, while
    # every other entry point refused it; now all take members only
    member, call = _enum_arguments()[name]
    with pytest.raises(DomainError, match=f"must be a {type(member).__name__}"):
        call(member.value)
    assert lapack_calls == []


@pytest.mark.parametrize("table", [{}, {2: np.nan}, {2: np.inf}, {2: -0.2},
                                   {2: "0.2"}, {2: None}, {2: 0.2, 0: 1.0},
                                   {2.0: 0.2}, [1, 2], {1: 0.0}])
def test_calibration_table_checked_before_solving(table, lapack_calls):
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            calibrate_epsilon(table, pairing)
    assert lapack_calls == []


@pytest.mark.parametrize("reference", ["7.51", [7.51], np.nan, np.inf, -1.0, True,
                                       1j])
def test_boundary_table_checks_reference_before_solving(reference, lapack_calls):
    # a string or a list once reached the fallback's arithmetic as TypeError
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            boundary_table([2], pairing, 9.95e-3, {2: reference})
    assert lapack_calls == []


def test_boundary_table_reference_accepts_numpy_floats():
    eps = ref.CALIBRATED_EPS_WELL
    assert (boundary_table([2], PairingKind.WELL, eps, {2: np.float64(7.51)})
            == boundary_table([2], PairingKind.WELL, eps, {2: 7.51}))


def test_integer_counts_accept_numpy_integers_and_check_range():
    assert level_pair(np.int64(3), PairingKind.WELL) == 2
    assert len(sweep_characteristics(np.int64(1), [0.0])) == 3
    assert pair_gap(0, PairingKind.WELL, 1.0, GapMeasure.ABSOLUTE) > 0.0
    for pairing, low in ((PairingKind.ROTOR, 0), (PairingKind.WELL, -1)):
        with pytest.raises(DomainError):
            pair_gap(low, pairing, 1.0, GapMeasure.ABSOLUTE)
    regions, = classify_regions(np.arange(1, 4), np.array([3.0]), 4.989e-3, 9.95e-3)
    assert list(regions) == [1, 2, 3]


def test_calibrate_epsilon_rotor():
    res = calibrate_epsilon({2: 0.2, 3: 1.14, 4: 3.17}, PairingKind.ROTOR)
    # recovers the documented ~0.5% relative threshold with small residuals
    assert res.epsilon == pytest.approx(4.99e-3, rel=0.05)
    assert all(abs(r) < 0.01 for r in res.residuals.values())
    assert res.per_row_epsilon == {}


def test_calibrate_epsilon_well_flags_unfittable_row():
    res = calibrate_epsilon(ref.MERGING_POINTS, PairingKind.WELL)
    # row 2 sits where the pair mean crosses zero; no single relative
    # threshold fits it, so it alone gets a per-row absolute fallback
    assert res.epsilon == pytest.approx(1.0e-2, rel=0.05)
    assert res.per_row_epsilon == {2: pytest.approx(0.0602796, rel=1e-5)}
    assert all(abs(res.residuals[n]) < 0.1 for n in res.residuals if n != 2)
    eps2 = res.per_row_epsilon[2]
    b = find_boundary(level_pair(2, PairingKind.WELL), PairingKind.WELL, eps2,
                      GapMeasure.ABSOLUTE)
    assert b.l_c == pytest.approx(7.51, abs=0.01)


def test_a_row_whose_gap_is_zero_does_not_vote(monkeypatch):
    # the only vote, the well gap at l = 199.9, rounds to 0.0; it once
    # became the threshold and was refused as one the caller never passed
    monkeypatch.setattr(symmetry, "find_boundary", None)  # no search is made
    assert pair_gap(1, PairingKind.WELL, 199.9, GapMeasure.RELATIVE) == 0.0
    with pytest.raises(DomainError, match="no reference row votes"):
        calibrate_epsilon({2: 199.9}, PairingKind.WELL)
    with pytest.raises(DomainError, match="no reference row votes"):
        calibrate_epsilon({1: 0.0, 2: 199.9}, PairingKind.WELL)


@pytest.mark.parametrize("table,pairing,constant", [
    (ref.SPLITTING_POINTS, PairingKind.ROTOR, ref.CALIBRATED_EPS_ROTOR),
    (ref.MERGING_POINTS, PairingKind.WELL, ref.CALIBRATED_EPS_WELL),
], ids=["splitting", "merging"])
def test_calibration_fit_is_the_median_row_gap(table, pairing, constant):
    # each row above l = 0 votes the relative gap of its pair at its own
    # barrier; the pole row 2 of the merging table cannot drag the median
    votes = [pair_gap(level_pair(n, pairing), pairing, l, GapMeasure.RELATIVE)
             for n, l in table.items() if l > 0]
    res = calibrate_epsilon(table, pairing)
    assert res.epsilon == np.median(votes)
    assert res.epsilon == pytest.approx(constant, rel=1e-3)
    assert all(abs(res.residuals[n]) <= 0.01
               for n in table if n not in res.per_row_epsilon)


def test_level_pair():
    # both pairs of level n end in se_n: (ce_n, se_n) and (ce_{n-1}, se_n)
    assert [level_pair(n, PairingKind.ROTOR) for n in (1, 8)] == [1, 8]
    assert [level_pair(n, PairingKind.WELL) for n in (1, 8)] == [0, 7]
    for pairing in PairingKind:
        with pytest.raises(DomainError):
            level_pair(0, pairing)
