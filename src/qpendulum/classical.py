"""Classical universal-Hamiltonian dynamics.

H = (omega'/2) dI^2 - U cos(phi): Jacobi-elliptic action trajectories.
The elliptic kernels are thin wrappers over ``scipy.special.ellipk``
and ``ellipj``, which take the parameter m = k^2; the wrappers take
the modulus k and check its domain; cn and dn share one kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipj, ellipk

from .errors import DomainError, SeparatrixError, check_real, check_type, real_grid

# ellipj reduces u by its period 4K, known only to about one ulp, so its
# phase error grows like |u|. Against mpmath.ellipfun (60 digits), k in
# {0.1, 0.5, 0.9, 0.999}: at most 2.7e-9 at |u| = 1e6 K(k), 2.8e-7 at
# 1e8 K(k) and 2.7e-5 at 1e10 K(k).
_MAX_QUARTER_PERIODS = 1e8


@dataclass(frozen=True)
class ClassicalParams:
    """Universal pendulum parameters: nonlinearity, barrier, energy."""

    omega_prime: float
    U: float
    E: float

    def __post_init__(self):
        for name, low in (("omega_prime", 0.0), ("U", 0.0), ("E", -np.inf)):
            object.__setattr__(self, name,
                               check_real(getattr(self, name), name, low, True))

    @property
    def modulus(self) -> float:
        """k = sqrt(2U/(E+U)); in (0,1) for rotation (E > U), > 1 for libration."""
        if self.E + self.U <= 0:
            raise DomainError("E + U must be positive")
        return float(np.sqrt(2.0 * self.U / (self.E + self.U)))


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
    if (k := check_real(k, "modulus k", 0.0, False)) >= 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return float(ellipk(k * k))


def _cn_dn(u, k: float) -> tuple[np.ndarray, np.ndarray]:
    """cn(u, k) and dn(u, k) from one ``ellipj`` call, 0 <= k <= 1.

    Raises DomainError for |u| past 1e8 quarter periods K(k) (k < 1),
    where the phase error passes 3e-7, and where ellipj returns NaN.
    """
    limit = _MAX_QUARTER_PERIODS * elliptic_K(k) if k < 1.0 else np.inf
    if not (np.abs(u) <= limit).all():
        raise DomainError(f"elliptic argument |u| up to {np.max(np.abs(u)):g} passes "
                          f"{limit:g} = {_MAX_QUARTER_PERIODS:g} K(k): its phase is lost")
    _, cn, dn, _ = ellipj(u, k * k)
    if not (np.isfinite(cn).all() and np.isfinite(dn).all()):
        raise DomainError(f"cn and dn are NaN at |u| up to {np.max(np.abs(u)):g}")
    return cn, dn


def jacobi_cn_dn(u: float, k: float) -> tuple[float, float]:
    """Jacobi cn(u, k) and dn(u, k), 0 <= k <= 1 and |u| <= 1e8 K(k) if k < 1."""
    if (k := check_real(k, "modulus k", 0.0, False)) > 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k <= 1, got {k}")
    cn, dn = _cn_dn(check_real(u, "argument u", -np.inf, False), k)
    return float(cn), float(dn)


def trajectory(params: ClassicalParams, t_grid,
               convention: ArgConvention = ArgConvention.AS_PRINTED) -> np.ndarray:
    """Action deviation dI(t) on the rotation or libration branch.

    Rotation (E > U): dI = A dn(arg, k); libration (E < U):
    dI = A cn(arg, 1/k), where the reciprocal modulus 1/k already lies
    in (0, 1) because k > 1 on that branch. Returns rows (t, dI).
    """
    check_type(params, ClassicalParams, "params")
    check_type(convention, ArgConvention, "argument convention")
    times = real_grid(t_grid, "t_grid")
    k = params.modulus  # checks E + U > 0 before the square root below
    if params.E == params.U:
        raise SeparatrixError(
            "E = U sits on the separatrix; the envelope there is "
            "A sech(arg) — evaluate jacobi_cn_dn with k = 1 instead")
    amp = float(np.sqrt((params.E + params.U) * params.omega_prime))
    rate = amp
    if convention is ArgConvention.AS_PRINTED:
        rate = params.omega_prime * amp
    with np.errstate(over="ignore", invalid="ignore"):  # _cn_dn refuses inf and NaN
        arg = rate * times
    if params.E > params.U:
        vals = _cn_dn(arg, k)[1]
    else:  # k > 1 on the libration branch, so 1/k is in (0, 1)
        vals = _cn_dn(arg, 1.0 / k)[0]
    return np.column_stack([times, amp * vals])
