"""Symmetry structure of the pendulum spectrum.

Covers the Klein four-group of angle maps acting on trig series, the
characteristic-curve sweep E_n(l), and the splitting / merging points
that bound the three symmetry regions of each level. Every region answer
comes from :func:`classify_regions` or :func:`boundary_table`; the
report, the CLI and torsion only format it. Sweep rows, region labels
and boundary scans read one cached batched solve per parity family and
barrier grid from :mod:`qpendulum.mathieu`.

Klein four-group
----------------
The group is Z2 x Z2, generated by the reflection a: phi -> -phi and
the half-turn c: phi -> phi + pi, with b = ac: phi -> pi - phi. Each
element carries its two generator bits (reflect, half_turn); composing
adds them mod 2. On plane-wave coefficients the reflection reverses the
vector and the half-turn multiplies c_k by (-1)^k.

Boundary search
---------------
A ROTOR pair is degenerate (gap < eps) below its boundary, a WELL pair
above it. Both scan upward over l = ``PROBE_DELTA`` + k ``SCAN_STEP``;
the pairing only sets the sign of gap - eps the scan starts from. It
reads cached family grids of ``SCAN_CHUNK`` points and the orders up
to max(``REGIONS_N_MAX``, se order), shared by levels, pairings and
thresholds. The first cell where that sign flips goes to ``brentq``,
whose root is l_c: it reads the scan's own gap - eps at the cell ends,
so it always gets their opposite signs, and single solves inside. Two
limits follow: a stretch narrower than ``SCAN_STEP`` on the far side of
eps can be stepped over; and a pole of the relative gap, where the pair
mean crosses zero, is +inf on both sides, so it is no sign change of
gap - eps and brentq cannot return it.

Degeneracy criterion
--------------------
The reference tables were produced with an unstated criterion. Two gap
measures are supported:

* ``absolute``: |E_a - E_b| < eps
* ``relative``: |E_a - E_b| / |(E_a + E_b)/2| < eps

Each tabulated row fixes its own relative threshold: the gap of its pair
at the tabulated barrier. Those row gaps sit at 4.97-5.00e-3 on the
splitting table and at 9.94-10.03e-3 on the merging table, when the
merging pair for table row n is taken as (ce_{n-1}, se_n), i.e. the
well doublet of index n-1; :func:`calibrate_epsilon` takes their median.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (AmbiguityError, BoundaryNotFoundError, DomainError,
                     check_count, check_levels, check_real, check_type, real_grid)
from .mathieu import _converge_grid, a_value, b_value, ce_class, se_class
from .series import TrigSeries

SEARCH_CEILING = 200.0
PROBE_DELTA = 1e-6
SCAN_STEP = 1.0
SCAN_CHUNK = 32  # scan points per batched solve
REGIONS_N_MAX = 12  # largest level `regions` admits: every scan grid holds its pairs
_SCAN_POINTS = [PROBE_DELTA + k * SCAN_STEP
         for k in range(int((SEARCH_CEILING - PROBE_DELTA) / SCAN_STEP) + 1)]
# brentq's iterates depend on eps, so they miss the solve cache; tighter
# than this they spend their evaluations in LAPACK jitter.
ROOT_XTOL = 1e-9
# A table row whose relative-threshold boundary misses the tabulated
# value by more than this falls back to a per-row absolute threshold.
ROW_TOLERANCE = 0.1


# ---------------------------------------------------------------------------
# Klein four-group action
# ---------------------------------------------------------------------------

class GroupElement(enum.Enum):
    """An angle map, valued by its generator bits (reflect, half_turn)."""

    E = (0, 0)  # identity
    A = (1, 0)  # phi -> -phi
    B = (1, 1)  # phi -> pi - phi
    C = (0, 1)  # phi -> pi + phi


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Product in Z2 x Z2: the generator bits add mod 2."""
    (r1, h1), (r2, h2) = g1.value, g2.value
    return GroupElement((r1 ^ r2, h1 ^ h2))


def apply_group_element(s: TrigSeries, g: GroupElement) -> TrigSeries:
    """Exact action: reflect reverses c_{-K}..c_K, half-turn scales c_k by (-1)^k."""
    reflect, half_turn = check_type(g, GroupElement, "group element").value
    coeffs = check_type(s, TrigSeries, "series").coeffs[::-1 if reflect else 1]
    k = np.arange(-s.n_harmonics, s.n_harmonics + 1)
    return TrigSeries((-1.0) ** (half_turn * k) * coeffs)


class Subgroup(enum.Enum):
    """Two-element invariant subgroups {e, g} labelling the symmetry regions:
    phi+- states are eigenstates of c, psi+- states of b, and the
    non-degenerate ce/se states of a; each member names its g below."""

    G_MINUS = "G-"  # <c>
    G_ZERO = "G0"   # <a>
    G_PLUS = "G+"   # <b>


# ---------------------------------------------------------------------------
# Spectrum sweeps and region boundaries
# ---------------------------------------------------------------------------

class PairingKind(enum.Enum):
    """Which near-degenerate pair a boundary refers to.

    ROTOR(n): (ce_n, se_n), degenerate at low barrier (phi+- states).
    WELL(n): (ce_n, se_{n+1}), degenerate at high barrier (psi+- states).
    Reference merging-table row n corresponds to WELL(n-1); see
    :func:`level_pair`.
    """

    ROTOR = "rotor"
    WELL = "well"


class GapMeasure(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class RegionBoundary:
    """l_c of a pair at one threshold; ``bracket`` is the scan cell of
    width ``SCAN_STEP`` that holds it, or (0, ``PROBE_DELTA``)."""

    n: int
    pairing: PairingKind
    l_c: float
    gap_threshold: float
    bracket: tuple[float, float]
    measure: GapMeasure


def _read(orders, top: int, barriers: tuple[float, ...]) -> np.ndarray:
    """Values of each (family, order) of ``orders``, up to ``top``: a column
    each, a row per barrier, from one grid lookup per family; eigen_index
    checks the cap."""
    columns = [(cls, top - (top - cls.lowest) % 2, cls.eigen_index(n)) for cls, n in orders]
    grids = {key: _converge_grid(*key, barriers)
             for key in dict.fromkeys(column[:2] for column in columns)}
    return np.array([grids[cls, t][:, k] for cls, t, k in columns]).T


def sweep_characteristics(n_max: int, l_grid) -> list[tuple[str, int, float, float]]:
    """Characteristic values for every class/order up to n_max on a grid.

    Rows are ordered by (l, class, n); class labels are the enum values.
    Each family costs one batched solve over the grid.
    """
    check_count(n_max, 0, "n_max")
    grid = real_grid(l_grid, "l_grid")
    if not grid.size or (grid < 0).any() or (np.diff(grid) <= 0).any():
        raise DomainError("l_grid must be nonempty, nonnegative and strictly ascending")
    ce_class(n_max).eigen_index(n_max)  # the cap must hold n_max: no huge lists
    orders = [(ce_class(n), n) for n in range(0, n_max + 1)]
    orders += [(se_class(n), n) for n in range(1, n_max + 1)]
    barriers, labels = tuple(grid.tolist()), [(cls.value, n) for cls, n in orders]
    values = _read(orders, n_max, barriers).tolist()
    return [(label, n, l, value) for l, row in zip(barriers, values)
            for (label, n), value in zip(labels, row)]


def pair_gap(n: int, pairing: PairingKind, l: float,
             measure: GapMeasure) -> float:
    """Energy gap of the pair; relative measure divides by the pair mean.

    The relative measure is +inf where the pair mean vanishes. Inputs are
    checked before any solve.
    """
    ce, se = _pair_orders(n, pairing, measure)
    return _gap(a_value(ce, l), b_value(se, l), measure)


def _pair_orders(n: int, pairing: PairingKind, measure: GapMeasure) -> tuple[int, int]:
    """Orders (ce, se) of pair n, (n, n) for ROTOR and (n, n + 1) for WELL; checked."""
    check_type(pairing, PairingKind, "pairing")
    check_type(measure, GapMeasure, "gap measure")
    check_count(n, int(pairing is PairingKind.ROTOR), "pair index")
    return n, n + (pairing is PairingKind.WELL)


def _gap(ea, eb, measure: GapMeasure):
    """|ea - eb|, relative: over |(ea + eb)/2|, +inf where 0; floats or arrays."""
    gap = abs(ea - eb)
    scale = 1.0 if measure is GapMeasure.ABSOLUTE else abs(0.5 * (ea + eb))
    if isinstance(scale, float):  # brentq's points: a ufunc costs 20 times more
        return gap / scale if scale > 0 else math.inf
    return np.divide(gap, scale, out=np.full_like(scale, math.inf), where=scale > 0)


def find_boundary(n: int, pairing: PairingKind, epsilon: float,
                  measure: GapMeasure) -> RegionBoundary:
    """Locate the barrier value where the pair's degeneracy switches.

    ROTOR: largest l with gap < eps, or l_c = 0 when the gap already
    exceeds eps at the probe point. WELL: smallest l with gap < eps (the
    tunneling doublet forms as the barrier grows), or ``PROBE_DELTA`` when
    the probe is already below eps. The module docstring describes the
    scan, the Brent root on the scan's own end signs, and their limits.
    """
    epsilon = check_real(epsilon, "gap threshold", 0.0, True)
    ce, se = _pair_orders(n, pairing, measure)
    orders, top = ((ce_class(ce), ce), (se_class(se), se)), max(REGIONS_N_MAX, se)
    rotor, scanned = pairing is PairingKind.ROTOR, {}  # gap - eps at each scan point read
    for start in range(0, len(_SCAN_POINTS), SCAN_CHUNK):
        points = _SCAN_POINTS[start:start + SCAN_CHUNK]
        excess = _gap(*_read(orders, top, tuple(points)).T, measure) - epsilon
        scanned.update(zip(points, excess.tolist()))
        flips = np.flatnonzero((excess < 0) != rotor)
        if flips.size:
            break
    else:
        raise BoundaryNotFoundError(f"{pairing.value} gap for n={n} never crosses "
                                    f"eps={epsilon} below l={SEARCH_CEILING}")
    k = start + int(flips[0])
    if k == 0:
        return RegionBoundary(n, pairing, 0.0 if rotor else PROBE_DELTA, epsilon,
                              (0.0, PROBE_DELTA), measure)
    lo, hi = _SCAN_POINTS[k - 1], _SCAN_POINTS[k]
    l_c = brentq(lambda l: scanned[l] if l in scanned else
                 pair_gap(n, pairing, l, measure) - epsilon, lo, hi, xtol=ROOT_XTOL)
    return RegionBoundary(n, pairing, l_c, epsilon, (lo, hi), measure)


def level_pair(n: int, pairing: PairingKind) -> int:
    """Index of the pair that bounds level n >= 1: n for the rotor pair
    (ce_n, se_n), n - 1 for the well pair (ce_{n-1}, se_n); both end in se_n."""
    check_count(n, 1, "level")
    return n - (check_type(pairing, PairingKind, "pairing") is PairingKind.WELL)


def boundary_table(levels, pairing: PairingKind, epsilon: float,
                   reference: Mapping) -> dict[int, RegionBoundary | None]:
    """Splitting (ROTOR) or merging (WELL) boundary of each level: its pair
    :func:`level_pair` (n, pairing) under the relative gap ``epsilon``.
    A row that misses its ``reference`` barrier by more than
    ``ROW_TOLERANCE`` is searched again at the absolute gap pinned there
    (monotone through each boundary). A row is None where no crossing lies
    below ``SEARCH_CEILING``, or where the pinned gap is 0.0 or its search
    misses the barrier too. Every row is checked before any solve."""
    rows = {n: check_type(reference, Mapping, "reference table").get(n)
            for n in check_levels(levels)}
    targets = {n: check_real(target, "reference barrier", 0.0, False)
               for n, target in rows.items() if target is not None}
    table = {}
    for n in rows:
        pair = level_pair(n, pairing)
        try:
            table[n] = find_boundary(pair, pairing, epsilon, GapMeasure.RELATIVE)
            if n in targets and abs(table[n].l_c - targets[n]) > ROW_TOLERANCE:
                pinned = pair_gap(pair, pairing, targets[n], GapMeasure.ABSOLUTE)
                row = (find_boundary(pair, pairing, pinned, GapMeasure.ABSOLUTE)
                       if pinned > 0.0 else None)
                table[n] = row if row and abs(row.l_c - targets[n]) <= ROW_TOLERANCE else None
        except BoundaryNotFoundError:
            table[n] = None
    return table


def classify_regions(levels, barriers, epsilon_rotor: float,
                     epsilon_well: float) -> list[dict[int, Subgroup]]:
    """Symmetry region of each level at each barrier, by relative gaps.

    Level n is G- while its rotor pair (ce_n, se_n) is degenerate, G+ once
    its well pair (ce_{n-1}, se_n) is, G0 in between; both at once raise.
    ``barriers`` is a 1-D grid of finite values >= 0. Every input is
    checked, then one batched solve per family the levels use; the pairs
    come from :func:`level_pair`, their orders and gaps as in :func:`pair_gap`.
    """
    levels = check_levels(levels)
    barriers = tuple(check_real(l, "barrier l", 0.0, False)
                     for l in real_grid(barriers, "barriers").tolist())
    epsilon_rotor = check_real(epsilon_rotor, "rotor gap threshold", 0.0, True)
    epsilon_well = check_real(epsilon_well, "well gap threshold", 0.0, True)
    pairs = [_pair_orders(level_pair(n, pairing), pairing, GapMeasure.RELATIVE)
             for pairing in PairingKind for n in levels]
    orders = [(ce_class(a), a) for a, _ in pairs] + [(se_class(b), b) for _, b in pairs]
    values = _read(orders, max(levels), barriers).reshape(len(barriers), 2, 2, len(levels))
    gap = _gap(values[:, 0], values[:, 1], GapMeasure.RELATIVE)  # barrier, pairing, level
    rotor, well = gap[:, 0] < epsilon_rotor, gap[:, 1] < epsilon_well
    if (rotor & well).any():
        i, j = np.argwhere(rotor & well)[0].tolist()
        raise AmbiguityError(
            f"level n={levels[j]} at l={barriers[i]} looks degenerate in both "
            f"pairings (eps_rotor={epsilon_rotor}, eps_well={epsilon_well})")
    labels = (Subgroup.G_ZERO, Subgroup.G_MINUS, Subgroup.G_PLUS)
    return [dict(zip(levels, map(labels.__getitem__, codes)))
            for codes in (rotor + 2 * well).tolist()]


# ---------------------------------------------------------------------------
# Threshold calibration against reference boundary tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of fitting a single threshold to a reference boundary table.

    ``computed`` and ``residuals`` come from the fitted relative
    threshold alone. ``per_row_epsilon`` holds, for rows it misses by
    more than ``row_tolerance``, the absolute-gap threshold of the
    :func:`boundary_table` fallback, which reproduces the row exactly.
    """

    pairing: PairingKind
    epsilon: float
    computed: dict[int, float]
    residuals: dict[int, float]
    per_row_epsilon: dict[int, float]
    row_tolerance: float


def calibrate_epsilon(reference: dict[int, float],
                      pairing: PairingKind) -> CalibrationResult:
    """One relative gap threshold for a boundary table: the median row gap.

    Each row votes the relative gap of its pair at its tabulated barrier,
    the threshold whose boundary falls on that barrier; the median of the
    votes (the mean of the middle two for an even count) is the fit. A
    row at l = 0, or whose gap there is 0.0, fixes no threshold and does
    not vote. Rows the fit misses by more than ``ROW_TOLERANCE`` get the
    per-row absolute threshold of the :func:`boundary_table` fallback; a
    row neither finds raises ``BoundaryNotFoundError``. The table must be
    nonempty, its targets finite and nonnegative, and one row must vote,
    all checked before any boundary search.
    """
    check_levels(check_type(reference, Mapping, "reference table"))
    reference = {n: check_real(target, "reference barrier", 0.0, False)
                 for n, target in reference.items()}
    votes = np.array([pair_gap(level_pair(n, pairing), pairing, target, GapMeasure.RELATIVE)
                      for n, target in reference.items() if target > 0.0])
    if not (votes > 0.0).any():
        raise DomainError("no reference row votes: each is at l = 0 or its gap is 0.0")
    epsilon = float(np.median(votes[votes > 0.0]))
    fitted = boundary_table(reference, pairing, epsilon, {})
    computed = {n: b.l_c for n, b in fitted.items() if b is not None}
    residuals = {n: l_c - reference[n] for n, l_c in computed.items()}
    misses = [n for n, r in residuals.items() if abs(r) > ROW_TOLERANCE]
    fallback = boundary_table(misses, pairing, epsilon, reference) if misses else {}
    missing = [n for n, b in (fitted | fallback).items() if b is None]
    if missing:
        raise BoundaryNotFoundError(f"no {pairing.value} boundary for rows {missing}")
    per_row = {n: b.gap_threshold for n, b in fallback.items()}
    return CalibrationResult(pairing, epsilon, computed, residuals, per_row,
                             ROW_TOLERANCE)
