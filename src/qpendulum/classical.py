"""Classical universal-Hamiltonian dynamics.

H = (omega'/2) dI^2 - U cos(phi): Jacobi-elliptic action trajectories,
the near-separatrix frequency law, and equilibrium classification.
The elliptic kernels are thin wrappers over ``scipy.special.ellipk``
and ``ellipj``, which take the parameter m = k^2; the wrappers take
the modulus k and check its domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipj, ellipk

from .errors import DomainError, SeparatrixError


@dataclass(frozen=True)
class ClassicalParams:
    """Universal pendulum parameters: nonlinearity, barrier, energy."""

    omega_prime: float
    U: float
    E: float

    def __post_init__(self):
        if self.U <= 0:
            raise DomainError(f"barrier U must be positive, got {self.U}")
        if self.omega_prime <= 0:
            raise DomainError(
                f"omega_prime must be positive, got {self.omega_prime}")

    @property
    def modulus(self) -> float:
        """k = sqrt(2U/(E+U)); in (0,1) for rotation (E > U), > 1 for libration."""
        if self.E + self.U <= 0:
            raise DomainError("E + U must be positive")
        return float(np.sqrt(2.0 * self.U / (self.E + self.U)))


class EquilibriumKind(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class EquilibriumPoint:
    phi_s: float
    kind: EquilibriumKind


class ArgConvention(enum.Enum):
    """Which elliptic argument the trajectory uses.

    AS_PRINTED keeps the omega' * sqrt((E+U) omega') * t form;
    DIMENSIONAL drops the leading omega' so the argument carries
    frequency units consistently.
    """

    AS_PRINTED = "as-printed"
    DIMENSIONAL = "dimensional"


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), 0 <= k < 1."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return float(ellipk(k * k))


def jacobi_cn_dn(u: float, k: float) -> tuple[float, float]:
    """Jacobi cn(u, k) and dn(u, k), 0 <= k <= 1."""
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k <= 1, got {k}")
    _, cn, dn, _ = ellipj(u, k * k)
    return float(cn), float(dn)


def trajectory(params: ClassicalParams, t_grid,
               convention: ArgConvention = ArgConvention.AS_PRINTED) -> np.ndarray:
    """Action deviation dI(t) on the rotation or libration branch.

    Rotation (E > U): dI = A dn(arg, k); libration (E < U):
    dI = A cn(arg, 1/k), where the reciprocal modulus 1/k already lies
    in (0, 1) because k > 1 on that branch. Returns rows (t, dI).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    amp = float(np.sqrt((params.E + params.U) * params.omega_prime))
    if params.E == params.U:
        raise SeparatrixError(
            "E = U sits on the separatrix; the envelope there is "
            "A sech(arg) — evaluate jacobi_cn_dn with k = 1 instead")
    rate = amp
    if convention is ArgConvention.AS_PRINTED:
        rate = params.omega_prime * amp
    k = params.modulus
    if params.E > params.U:
        vals = ellipj(rate * t_grid, k * k)[2]  # dn
    else:
        kr = 1.0 / k  # k > 1 on the libration branch, so 1/k is in (0, 1)
        vals = ellipj(rate * t_grid, kr * kr)[1]  # cn
    return np.column_stack([t_grid, amp * vals])


def separatrix_frequency(E: float) -> float:
    """Oscillation frequency near the separatrix, omega = pi/ln(32/(1-E)).

    E is normalized so the separatrix sits at E = 1; the logarithm makes
    omega vanish logarithmically as E -> 1-. Any E below the separatrix
    with 32/(1-E) > 1 is admitted (the formula's unit-frequency anchor
    sits at E = 1 - 32 e^{-pi} < 0).
    """
    if not -31.0 < E < 1.0:
        raise DomainError(f"normalized energy must satisfy -31 < E < 1, got {E}")
    return float(np.pi / np.log(32.0 / (1.0 - E)))


def classify_equilibria(U_amplitude: float) -> list[EquilibriumPoint]:
    """Fixed points of H with potential -U cos(phi) on [0, 2pi).

    The stationary angles are phi = 0 and phi = pi; which one is the
    unstable saddle follows the sign of the curvature U cos(phi).
    """
    if U_amplitude == 0:
        raise DomainError("U = 0 leaves the rotor free; no isolated equilibria")
    if U_amplitude > 0:
        return [
            EquilibriumPoint(0.0, EquilibriumKind.HYPERBOLIC),
            EquilibriumPoint(float(np.pi), EquilibriumKind.ELLIPTIC),
        ]
    return [
        EquilibriumPoint(0.0, EquilibriumKind.ELLIPTIC),
        EquilibriumPoint(float(np.pi), EquilibriumKind.HYPERBOLIC),
    ]
