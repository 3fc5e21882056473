"""Symmetry structure of the pendulum spectrum.

Covers the Klein four-group of angle maps acting on trig series, the
characteristic-curve sweep E_n(l), and the splitting / merging points
that bound the three symmetry regions of each level; sweep rows and
region labels take one batched solve per parity family and barrier.

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
the pairing only sets the sign of gap - eps the scan starts from. The
first cell where that sign flips goes to ``brentq``, whose root is l_c.
The scan points do not depend on eps, so searches at different
thresholds share their cached solves. Two limits follow: a stretch
narrower than ``SCAN_STEP`` on the far side of eps can be stepped over;
and a pole of the relative gap, where the pair mean crosses zero, is
+inf on both sides, so it is no sign change of gap - eps and brentq
cannot return it.

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
:func:`level_boundary` searches a row's pair and applies the per-row
fallback; both map a row to its pair through :func:`level_pair`.
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
from .mathieu import (MathieuClass, a_value, b_value, ce_class,
                      characteristic_values, se_class)
from .series import TrigSeries, inner_product

SEARCH_CEILING = 200.0
PROBE_DELTA = 1e-6
SCAN_STEP = 1.0
# brentq's iterates depend on eps, so they miss the solve cache; tighter
# than this they spend their evaluations in LAPACK jitter.
ROOT_XTOL = 1e-9
INVARIANCE_TOL = 1e-10
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
    """Two-element invariant subgroups labelling the symmetry regions.

    phi+- states are eigenstates of c, psi+- states of b, and the
    non-degenerate ce/se states of a; hence the generators below.
    """

    G_MINUS = "G-"  # <c>
    G_ZERO = "G0"   # <a>
    G_PLUS = "G+"   # <b>

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """{e, g}: every element of Z2 x Z2 is its own inverse."""
        g = {Subgroup.G_MINUS: GroupElement.C, Subgroup.G_ZERO: GroupElement.A,
             Subgroup.G_PLUS: GroupElement.B}[self]
        return GroupElement.E, g


def subgroup_invariance_check(
    series: TrigSeries, subgroup: Subgroup
) -> tuple[bool, dict[GroupElement, complex]]:
    """Whether each subgroup element maps the state to itself up to phase.

    Returns the verdict (within ``INVARIANCE_TOL``) and the fitted phase
    per element; the phase is meaningful only where the verdict holds.
    Both are taken on the series scaled to largest coefficient magnitude
    1, so neither depends on its scale.
    """
    check_type(subgroup, Subgroup, "subgroup")
    top = np.abs(check_type(series, TrigSeries, "series").coeffs).max()
    if not 0.0 < top < math.inf:  # NaN fails too
        raise DomainError(f"no symmetry phase: largest coefficient magnitude {top}")
    series = TrigSeries(series.coeffs / top)
    nrm2 = inner_product(series, series).real
    phases: dict[GroupElement, complex] = {}
    ok = True
    for g in subgroup.elements:
        mapped = apply_group_element(series, g)
        lam = inner_product(series, mapped) / nrm2
        residual = (mapped - series * lam).norm()
        phases[g] = complex(lam)
        if not (residual <= INVARIANCE_TOL and abs(abs(lam) - 1.0) <= INVARIANCE_TOL):
            ok = False
    return ok, phases


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


def _spectrum(n_max: int, l: float) -> tuple[list[float], list[float]]:
    """[a_0..a_{n_max}] and [nan, b_1..b_{n_max}] at l: one solve per family."""
    ce, se = [math.nan] * (n_max + 1), [math.nan] * (n_max + 1)
    for cls in MathieuClass:
        if cls.lowest <= n_max:
            top = n_max - (n_max - cls.lowest) % 2
            (ce if cls.is_cosine else se)[cls.lowest:top + 1:2] = (
                characteristic_values(cls, cls.lowest, top, l))
    return ce, se


def sweep_characteristics(n_max: int, l_grid) -> list[tuple[str, int, float, float]]:
    """Characteristic values for every class/order up to n_max on a grid.

    Rows are ordered by (l, class, n); class labels are the enum values.
    Each family costs one :func:`characteristic_values` solve per l.
    """
    check_count(n_max, 0, "n_max")
    grid = real_grid(l_grid, "l_grid")
    if not grid.size or (grid < 0).any() or (np.diff(grid) <= 0).any():
        raise DomainError("l_grid must be nonempty, nonnegative and strictly ascending")
    ce_class(n_max).eigen_index(n_max)  # the cap must hold n_max: no huge lists
    order = [(ce_class(n).value, n) for n in range(0, n_max + 1)]
    order += [(se_class(n).value, n) for n in range(1, n_max + 1)]
    rows = []
    for l in grid.tolist():
        ce, se = _spectrum(n_max, l)
        rows.extend((label, n, l, value)
                    for (label, n), value in zip(order, ce + se[1:]))
    return rows


def pair_gap(n: int, pairing: PairingKind, l: float,
             measure: GapMeasure) -> float:
    """Energy gap of the pair; relative measure divides by the pair mean.

    The relative measure is +inf where the pair mean vanishes. Inputs are
    checked before any solve; find_boundary relies on that.
    """
    check_type(pairing, PairingKind, "pairing")
    check_type(measure, GapMeasure, "gap measure")
    check_count(n, int(pairing is PairingKind.ROTOR), "pair index")
    ea, eb = a_value(n, l), b_value(n + (pairing is PairingKind.WELL), l)
    if measure is GapMeasure.ABSOLUTE:
        return abs(ea - eb)
    return _relative_gap(ea, eb)


def _relative_gap(ea: float, eb: float) -> float:
    """|ea - eb| over |(ea + eb)/2|; +inf where the pair mean vanishes."""
    mean = abs(0.5 * (ea + eb))
    return abs(ea - eb) / mean if mean > 0 else math.inf


def find_boundary(
    n: int,
    pairing: PairingKind,
    epsilon: float,
    measure: GapMeasure,
) -> RegionBoundary:
    """Locate the barrier value where the pair's degeneracy switches.

    ROTOR: largest l with gap < eps, or l_c = 0 when the gap already
    exceeds eps at the probe point. WELL: smallest l with gap < eps
    (the tunneling doublet forms as the barrier grows), or
    ``PROBE_DELTA`` when the probe is already below eps. The module
    docstring describes the scan, the Brent root and their limits.
    """
    epsilon = check_real(epsilon, "gap threshold", 0.0, True)
    excess = lambda l: pair_gap(n, pairing, l, measure) - epsilon
    rotor = pairing is PairingKind.ROTOR
    lo = PROBE_DELTA
    if (excess(lo) < 0) != rotor:
        return RegionBoundary(n, pairing, 0.0 if rotor else lo, epsilon,
                              (0.0, lo), measure)
    for k in range(1, int((SEARCH_CEILING - PROBE_DELTA) / SCAN_STEP) + 1):
        hi = PROBE_DELTA + k * SCAN_STEP
        if (excess(hi) < 0) != rotor:
            return RegionBoundary(n, pairing, brentq(excess, lo, hi, xtol=ROOT_XTOL),
                                  epsilon, (lo, hi), measure)
        lo = hi
    raise BoundaryNotFoundError(f"{pairing.value} gap for n={n} never crosses "
                                f"eps={epsilon} below l={SEARCH_CEILING}")


def level_pair(n: int, pairing: PairingKind) -> int:
    """Index of the pair that bounds level n >= 1: n for the rotor pair
    (ce_n, se_n), n - 1 for the well pair (ce_{n-1}, se_n); both end in se_n."""
    check_count(n, 1, "level")
    return n - (check_type(pairing, PairingKind, "pairing") is PairingKind.WELL)


def level_boundary(n: int, pairing: PairingKind, epsilon: float,
                   reference: float | None = None) -> RegionBoundary:
    """Splitting (ROTOR) or merging (WELL) boundary of level n.

    Both search the pair :func:`level_pair` (n, pairing) under the
    relative gap threshold ``epsilon``. Given a tabulated ``reference``
    (checked as a barrier before any solve) that this misses by more
    than ``ROW_TOLERANCE``, the row falls back to the absolute-gap threshold
    pinned by it (the absolute gap is monotone through each boundary);
    the result then carries ``GapMeasure.ABSOLUTE`` and that threshold.
    """
    if reference is not None:
        reference = check_real(reference, "reference barrier", 0.0, False)
    pair = level_pair(n, pairing)
    boundary = find_boundary(pair, pairing, epsilon, GapMeasure.RELATIVE)
    if reference is None or abs(boundary.l_c - reference) <= ROW_TOLERANCE:
        return boundary
    eps_abs = pair_gap(pair, pairing, reference, GapMeasure.ABSOLUTE)
    return find_boundary(pair, pairing, eps_abs, GapMeasure.ABSOLUTE)


def classify_regions(levels, l: float, epsilon_rotor: float,
                     epsilon_well: float) -> dict[int, Subgroup]:
    """Symmetry region of each level at barrier l, by relative gaps.

    Level n is G- while the rotor pair (ce_n, se_n) is degenerate, G+ once
    the well pair (ce_{n-1}, se_n) is, G0 in between; both at once raise.
    Every level is checked, then all share one solve per parity family.
    The pair indices are those of :func:`level_pair`, written out: two
    calls per level and barrier would add a third to a warm schedule.
    """
    levels = check_levels(levels)
    l = check_real(l, "barrier l", 0.0, False)
    ce_class(max(levels)).eigen_index(max(levels))  # the cap must hold every level
    epsilon_rotor = check_real(epsilon_rotor, "rotor gap threshold", 0.0, True)
    epsilon_well = check_real(epsilon_well, "well gap threshold", 0.0, True)
    ce, se = _spectrum(max(levels), l)
    regions = {}
    for n in levels:
        rotor = _relative_gap(ce[n], se[n]) < epsilon_rotor
        well = _relative_gap(ce[n - 1], se[n]) < epsilon_well
        if rotor and well:
            raise AmbiguityError(
                f"level n={n} at l={l} looks degenerate in both pairings "
                f"(eps_rotor={epsilon_rotor}, eps_well={epsilon_well})")
        regions[n] = (Subgroup.G_MINUS if rotor else
                      Subgroup.G_PLUS if well else Subgroup.G_ZERO)
    return regions


# ---------------------------------------------------------------------------
# Threshold calibration against reference boundary tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of fitting a single threshold to a reference boundary table.

    ``computed`` and ``residuals`` come from the fitted relative
    threshold alone. ``per_row_epsilon`` holds, for rows it misses by
    more than ``row_tolerance``, the absolute-gap threshold of the
    :func:`level_boundary` fallback, which reproduces the row exactly.
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
    row at l = 0 fixes no threshold and does not vote. Rows the fit
    misses by more than ``ROW_TOLERANCE`` get the per-row absolute
    threshold of the :func:`level_boundary` fallback. The table must be
    nonempty, its targets finite and nonnegative, and one target above 0.
    """
    check_levels(check_type(reference, Mapping, "reference table"))
    reference = {n: check_real(target, "reference barrier", 0.0, False)
                 for n, target in reference.items()}
    if not any(reference.values()):
        raise DomainError("a calibration needs a reference row above l = 0")
    epsilon = float(np.median([
        pair_gap(level_pair(n, pairing), pairing, target, GapMeasure.RELATIVE)
        for n, target in reference.items() if target > 0.0]))
    computed = {n: level_boundary(n, pairing, epsilon).l_c for n in reference}
    residuals = {n: computed[n] - reference[n] for n in reference}
    per_row = {
        n: level_boundary(n, pairing, epsilon, reference[n]).gap_threshold
        for n in reference if abs(residuals[n]) > ROW_TOLERANCE
    }
    return CalibrationResult(pairing, epsilon, computed, residuals, per_row,
                             ROW_TOLERANCE)
