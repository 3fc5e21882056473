"""Irreducible-basis states and velocity observables.

State families at a given (n, l):

* ``XI`` / ``ETA``: the real eigenfunctions ce_n / se_n (region G0).
* ``PHI_PLUS`` / ``PHI_MINUS``: (ce_n +- i se_n)/sqrt(2) (region G-).
* ``PSI_PLUS`` / ``PSI_MINUS``: (ce_n +- i se_{n+1})/sqrt(2) (region G+).

A :class:`QuantumState` contracts its coefficient vector once, into its
``moments`` record, and every observable of the state reads that record.
The velocity operator is v = -2 i d/dphi = 2 L_z (twice the angular momentum).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_count, check_real, check_type, real_grid
from .mathieu import ce_series, se_series
from .series import Moments, TrigSeries, eval_series, moments

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
EXTREMA_GRID_POINTS = 4096  # angles searched for density extrema
# Refined extrema are rounded to this many decimals of a grid cell: far
# below the parabolic refinement's own error, far above the rounding
# noise of a vertex that lies on a grid point.
EXTREMA_DECIMALS = 6
FLAT_TOL = 1e-12  # a density whose range is below this is flat


class StateFamily(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    XI = "xi"
    ETA = "eta"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_PSI = (StateFamily.PSI_PLUS, StateFamily.PSI_MINUS)  # partner se_{n+1}


@dataclass(frozen=True)
class StateSpec:
    """One state of a family at level n and barrier l."""

    family: StateFamily
    n: int
    l: float

    def __post_init__(self):
        check_type(self.family, StateFamily, "state family")
        check_count(self.n, 0, "level")
        object.__setattr__(self, "l", check_real(self.l, "barrier l", 0.0, False))


@dataclass(frozen=True)
class QuantumState:
    """A state whose ``moments`` are contracted once, on construction;
    ``norm_check`` = |sum |c_k|^2 - 1| = |<cos^2> + <sin^2> - 1| must be finite."""

    spec: StateSpec
    series: TrigSeries
    moments: Moments = field(init=False)
    norm_check: float = field(init=False)

    def __post_init__(self):
        check_type(self.spec, StateSpec, "spec")
        m = moments(self.series)
        object.__setattr__(self, "moments", m)
        object.__setattr__(self, "norm_check", abs(m.cos2 + m.sin2 - 1.0))
        if not self.norm_check < np.inf:  # NaN fails too
            raise DomainError(f"non-finite state: sum |c_k|^2 = {m.cos2 + m.sin2}")


@dataclass(frozen=True)
class ObservableJump:
    """Velocity observables across one symmetry-switching transition.

    ``delta_v`` and ``delta_v2`` are (to-state value) - (from-state
    value); ``fluct_radicand`` is delta_v2 - delta_v**2 and
    ``fluct_defined`` whether it is nonnegative.
    """

    n: int
    transition: tuple[StateFamily, StateFamily]
    l_c: float
    delta_v: float
    delta_v2: float
    fluct_radicand: float
    fluct_defined: bool


def build_state(spec: StateSpec) -> QuantumState:
    """Assemble the family's superposition from Mathieu eigenseries."""
    fam, n, l = check_type(spec, StateSpec, "spec").family, spec.n, spec.l
    if fam is StateFamily.XI:
        s = ce_series(n, l)
    elif fam is StateFamily.ETA:
        s = se_series(n, l)
    else:
        sign = 1.0 if fam in (StateFamily.PHI_PLUS, StateFamily.PSI_PLUS) else -1.0
        partner = se_series(n + (fam in _PSI), l)
        s = (ce_series(n, l) + sign * 1j * partner) * _INV_SQRT2
    return QuantumState(spec, s)


def velocity_expect(state: QuantumState) -> float:
    """<v> = 2 <L_z> = 2 sum k |c_k|^2."""
    return 2.0 * check_type(state, QuantumState, "state").moments.Lz


def velocity_sq_expect(state: QuantumState) -> float:
    """<v^2> = 4 <L_z^2> = 4 sum k^2 |c_k|^2 >= 0."""
    return 4.0 * check_type(state, QuantumState, "state").moments.Lz2


# G- -> G0 at a splitting point, G0 -> G+ at a merging point
_REAL = (StateFamily.XI, StateFamily.ETA)
_TRANSITIONS = ({(a, b) for a in (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS)
                 for b in _REAL} | {(a, b) for a in _REAL for b in _PSI})


def jump_at_boundary(n: int, from_family: StateFamily,
                     to_family: StateFamily, l_c: float) -> ObservableJump:
    """Velocity and squared-velocity jump across a symmetry switch.

    Mathieu coefficients are smooth in l, so both one-sided limits are
    evaluated at l_c itself; building them checks l_c.
    """
    specs = StateSpec(from_family, n, l_c), StateSpec(to_family, n, l_c)
    pair = from_family, to_family
    if pair not in _TRANSITIONS:
        raise DomainError(
            f"invalid symmetry-switch transition {pair[0]} -> {pair[1]}")
    src, dst = (build_state(spec) for spec in specs)
    delta_v = velocity_expect(dst) - velocity_expect(src)
    delta_v2 = velocity_sq_expect(dst) - velocity_sq_expect(src)
    radicand = delta_v2 - delta_v ** 2
    return ObservableJump(n, pair, l_c, delta_v, delta_v2,
                          radicand, radicand >= 0.0)


def density(state: QuantumState, grid) -> np.ndarray:
    """|psi(phi)|^2 sampled on a 1-D grid of angles; shape (len(grid), 2)."""
    series = check_type(state, QuantumState, "state").series
    phi = real_grid(grid, "angles")
    return np.column_stack([phi, np.abs(eval_series(series, phi)) ** 2])


def density_extrema(state: QuantumState) -> tuple[list[float], list[float]]:
    """Local (maxima, minima) of |psi|^2 on [0, 2pi), parabolic refinement.

    One density evaluation serves both lists. A flat density
    (plane-wave-like state) has no strict extrema and yields two empty
    lists.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, EXTREMA_GRID_POINTS, endpoint=False)
    rho = density(state, phi)[:, 1]
    if rho.max() - rho.min() < FLAT_TOL:
        return [], []
    left, right = np.roll(rho, 1), np.roll(rho, -1)
    h = 2.0 * np.pi / EXTREMA_GRID_POINTS

    def refined(hit: np.ndarray) -> list[float]:
        lft, mid, rgt = left[hit], rho[hit], right[hit]
        denom = lft - 2.0 * mid + rgt
        shift = np.zeros_like(denom)
        nz = denom != 0
        shift[nz] = 0.5 * (lft - rgt)[nz] / denom[nz]
        # vertex in grid-index units, rounded, then wrapped once into
        # [0, N): rounding noise around grid point 0 reads 0, not 2 pi
        cells = np.round(np.flatnonzero(hit) + shift, EXTREMA_DECIMALS)
        return np.sort(np.mod(cells, EXTREMA_GRID_POINTS) * h).tolist()

    return (refined((rho > left) & (rho > right)),
            refined((rho < left) & (rho < right)))


def density_maxima(state: QuantumState) -> list[float]:
    """Local maxima of |psi|^2; see :func:`density_extrema`."""
    return density_extrema(state)[0]
