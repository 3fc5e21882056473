"""Irreducible-basis states and velocity observables.

State families at a given (n, l):

* ``XI`` / ``ETA``: the real eigenfunctions ce_n / se_n (region G0).
* ``PHI_PLUS`` / ``PHI_MINUS``: (ce_n +- i se_n)/sqrt(2) (region G-).
* ``PSI_PLUS`` / ``PSI_MINUS``: (ce_n +- i se_{n+1})/sqrt(2) (region G+).

The angular velocity operator is v = -2 i d/dphi (twice the angular
momentum), evaluated exactly in coefficient space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mathieu import TRUNCATION_CAP, ce_series, se_series
from .series import (
    TrigSeries,
    eval_series,
    inner_product,
    series_derivative,
)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class StateFamily(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    XI = "xi"
    ETA = "eta"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


@dataclass(frozen=True)
class StateSpec:
    family: StateFamily
    n: int
    l: float


@dataclass(frozen=True)
class QuantumState:
    spec: StateSpec
    series: TrigSeries
    norm_check: float


@dataclass(frozen=True)
class ObservableJump:
    """Velocity observables across one symmetry-switching transition.

    ``delta_v`` and ``delta_v2`` follow the convention
    (to-state value) - (from-state value). The fluctuation radicand is
    delta_v2 - delta_v**2; its square root is only reported when the
    radicand is nonnegative.
    """

    n: int
    transition: tuple[StateFamily, StateFamily]
    l_c: float
    delta_v: float
    delta_v2: float
    fluct_radicand: float
    fluct_defined: bool

    @property
    def fluctuation(self) -> float | None:
        return float(np.sqrt(self.fluct_radicand)) if self.fluct_defined else None


def build_state(spec: StateSpec, cap: int = TRUNCATION_CAP) -> QuantumState:
    """Assemble the family's superposition from Mathieu eigenseries."""
    fam, n, l = spec.family, spec.n, spec.l
    if fam is StateFamily.XI:
        s = ce_series(n, l, cap)
    elif fam is StateFamily.ETA:
        if n < 1:
            raise DomainError("eta requires n >= 1")
        s = se_series(n, l, cap)
    elif fam in (StateFamily.PHI_PLUS, StateFamily.PHI_MINUS):
        if n < 1:
            raise DomainError("phi states require n >= 1")
        sign = 1.0 if fam is StateFamily.PHI_PLUS else -1.0
        s = (ce_series(n, l, cap) + sign * 1j * se_series(n, l, cap)) * _INV_SQRT2
    else:
        sign = 1.0 if fam is StateFamily.PSI_PLUS else -1.0
        s = (ce_series(n, l, cap) + sign * 1j * se_series(n + 1, l, cap)) * _INV_SQRT2
    norm_check = abs(inner_product(s, s).real - 1.0)
    return QuantumState(spec, s, norm_check)


def velocity_expect(state: QuantumState) -> float:
    """<v> = -2 i <s| d/dphi |s>; real for any state, asserted here."""
    val = -2j * inner_product(state.series, series_derivative(state.series))
    if abs(val.imag) > 1e-12:
        raise AssertionError(f"velocity expectation not real: {val}")
    return val.real


def velocity_sq_expect(state: QuantumState) -> float:
    """<v^2> = -4 <s| d^2/dphi^2 |s| >= 0, via one derivative each side."""
    ds = series_derivative(state.series)
    return 4.0 * inner_product(ds, ds).real


_ROTOR_TRANSITIONS = {
    (StateFamily.PHI_PLUS, StateFamily.XI),
    (StateFamily.PHI_PLUS, StateFamily.ETA),
    (StateFamily.PHI_MINUS, StateFamily.XI),
    (StateFamily.PHI_MINUS, StateFamily.ETA),
}
_WELL_TRANSITIONS = {
    (StateFamily.XI, StateFamily.PSI_PLUS),
    (StateFamily.XI, StateFamily.PSI_MINUS),
    (StateFamily.ETA, StateFamily.PSI_PLUS),
    (StateFamily.ETA, StateFamily.PSI_MINUS),
}


def jump_at_boundary(
    n: int,
    from_family: StateFamily,
    to_family: StateFamily,
    l_c: float,
    delta_l: float = 0.0,
) -> ObservableJump:
    """Velocity and squared-velocity jump across a symmetry switch.

    Mathieu coefficients are smooth in l, so both one-sided limits are
    evaluated at l_c itself by default; delta_l > 0 enables the probe
    mode with the from-state at l_c - delta_l and the to-state at
    l_c + delta_l.
    """
    if l_c < 0:
        raise DomainError("l_c must be nonnegative")
    pair = (from_family, to_family)
    if pair not in _ROTOR_TRANSITIONS and pair not in _WELL_TRANSITIONS:
        raise DomainError(
            f"invalid symmetry-switch transition {from_family} -> {to_family}")
    l_from = max(l_c - delta_l, 0.0)
    l_to = l_c + delta_l
    src = build_state(StateSpec(from_family, n, l_from))
    dst = build_state(StateSpec(to_family, n, l_to))
    delta_v = velocity_expect(dst) - velocity_expect(src)
    delta_v2 = velocity_sq_expect(dst) - velocity_sq_expect(src)
    radicand = delta_v2 - delta_v ** 2
    return ObservableJump(n, pair, l_c, delta_v, delta_v2,
                          radicand, radicand >= 0.0)


def density(state: QuantumState, grid) -> np.ndarray:
    """|psi(phi)|^2 sampled on the given angles; shape (len(grid), 2)."""
    grid = np.asarray(grid, dtype=float)
    vals = np.abs(np.asarray(eval_series(state.series, grid))) ** 2
    return np.column_stack([grid, vals])


def density_extrema(state: QuantumState, grid_points: int = 4096,
                    flat_tol: float = 1e-12) -> tuple[list[float], list[float]]:
    """Local (maxima, minima) of |psi|^2 on [0, 2pi), parabolic refinement.

    One density evaluation serves both lists. A flat density
    (plane-wave-like state) has no strict extrema and yields two empty
    lists.
    """
    phi = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    rho = density(state, phi)[:, 1]
    if rho.max() - rho.min() < flat_tol:
        return [], []
    left, right = np.roll(rho, 1), np.roll(rho, -1)
    h = 2.0 * np.pi / grid_points

    def refined(hit: np.ndarray) -> list[float]:
        lft, mid, rgt = left[hit], rho[hit], right[hit]
        denom = lft - 2.0 * mid + rgt
        shift = np.zeros_like(denom)
        nz = denom != 0
        shift[nz] = 0.5 * (lft - rgt)[nz] / denom[nz]
        return np.sort(np.mod(phi[hit] + shift * h, 2.0 * np.pi)).tolist()

    return (refined((rho > left) & (rho > right)),
            refined((rho < left) & (rho < right)))


def density_maxima(state: QuantumState, grid_points: int = 4096,
                   flat_tol: float = 1e-12) -> list[float]:
    """Local maxima of |psi|^2; see :func:`density_extrema`."""
    return density_extrema(state, grid_points, flat_tol)[0]


def density_minima(state: QuantumState, grid_points: int = 4096,
                   flat_tol: float = 1e-12) -> list[float]:
    """Local minima of |psi|^2; see :func:`density_extrema`."""
    return density_extrema(state, grid_points, flat_tol)[1]
