"""Angular uncertainty products for pendulum states.

ur_a = (dLz)^2 (d sin phi)^2 - 1/4 (d cos phi)^2 and ur_b is the same
with sin and cos swapped. Both read the moment record that the state
contracted once on construction (``QuantumState.moments``), and its
``norm_check``; only the local variance inequality samples the density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_type
from .states import QuantumState, StateSpec, density, density_extrema

_WINDOW_POINTS = 2048  # trapezoid nodes of the local second moment


@dataclass(frozen=True)
class UncertaintyReport:
    spec: StateSpec
    exp_sin: float
    exp_cos: float
    exp_sin2: float
    exp_cos2: float
    exp_Lz: float
    exp_Lz2: float
    var_sin: float
    var_cos: float
    var_Lz: float
    ur_a: float
    ur_b: float


def angular_moments(state: QuantumState) -> UncertaintyReport:
    """All sin/cos/L_z moments and variances; the state must be unit-norm."""
    m = check_type(state, QuantumState, "state").moments
    if not state.norm_check <= 1e-10:  # NaN fails too
        raise DomainError(f"state not normalised: sum |c_k|^2 = {m.cos2 + m.sin2}")

    var_sin = m.sin2 - m.sin ** 2
    var_cos = m.cos2 - m.cos ** 2
    var_lz = m.Lz2 - m.Lz ** 2
    return UncertaintyReport(
        spec=state.spec,
        exp_sin=m.sin, exp_cos=m.cos,
        exp_sin2=m.sin2, exp_cos2=m.cos2,
        exp_Lz=m.Lz, exp_Lz2=m.Lz2,
        var_sin=var_sin, var_cos=var_cos, var_Lz=var_lz,
        ur_a=var_lz * var_sin - 0.25 * var_cos,
        ur_b=var_lz * var_cos - 0.25 * var_sin,
    )


@dataclass(frozen=True)
class LocalInequality:
    phi_max: float
    window: tuple[float, float]
    phi2: float
    lhs: float
    rhs: float
    holds: bool


def local_variance_inequality(state: QuantumState) -> list[LocalInequality]:
    """Small-angle uncertainty check near each density maximum.

    <phi^2> is the second moment of |psi|^2 about the maximum over the
    window from the density minimum below it to the one above it, read
    around the circle (one minimum bounds a full period), renormalized to
    the window. lhs = dLz * <phi^2>, rhs = (1 - <phi^2>/2)/4.
    """
    maxima, minima = density_extrema(state)
    if not (maxima and minima):
        raise DomainError("state needs a strict density maximum and minimum")
    dlz = float(np.sqrt(max(angular_moments(state).var_Lz, 0.0)))
    out = []
    for phi_m in maxima:
        lo = max([m for m in minima if m < phi_m] or [minima[-1] - 2 * np.pi])
        hi = min([m for m in minima if m > phi_m] or [minima[0] + 2 * np.pi])
        phi = np.linspace(lo, hi, _WINDOW_POINTS)
        rho = density(state, np.mod(phi, 2.0 * np.pi))[:, 1]
        weight = np.trapezoid(rho, phi)
        if weight <= 0:
            raise DomainError("density vanishes on the local window")
        phi2 = float(np.trapezoid(rho * (phi - phi_m) ** 2, phi) / weight)
        lhs = dlz * phi2
        rhs = 0.25 * (1.0 - 0.5 * phi2)
        out.append(LocalInequality(phi_m, (lo, hi), phi2, lhs, rhs, lhs >= rhs))
    return out
