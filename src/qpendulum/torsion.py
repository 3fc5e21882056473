"""Parameter maps onto the dimensionless pendulum barrier l.

Two physical front ends feed the Mathieu machinery: hindered internal
rotation of a symmetric-top molecule (reduced inertia + n-fold cosine
barrier) and the driven Lorentz-model nonlinear oscillator. Both
produce a barrier strength l and an energy scale converting Mathieu
characteristic values back to physical energies. Schedule region labels
take one batched solve per parity family and barrier value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (DomainError, check_count, check_levels, check_real, check_type,
                     real_grid)
from .symmetry import classify_regions

HBAR_SI = 1.054571817e-34  # J s


def reduced_inertia(I1: float, I2: float) -> float:
    """I = I1 I2 / (I1 + I2) for two coaxial rigid parts, as lo / (1 + lo/hi)
    so that no product underflows."""
    lo, hi = sorted((check_real(I1, "I1", 0.0, True), check_real(I2, "I2", 0.0, True)))
    return lo / (1.0 + lo / hi)


@dataclass(frozen=True)
class TorsionRotor:
    """A molecule with an n-fold internal-rotation barrier.

    Units are SI: kg m^2 for the inertias, joules for the barrier.
    """

    I1: float
    I2: float
    V0: float
    n_fold: int

    def __post_init__(self):
        for name, strict in (("I1", True), ("I2", True), ("V0", False)):
            object.__setattr__(self, name,
                               check_real(getattr(self, name), name, 0.0, strict))
        check_count(self.n_fold, 1, "n_fold")

    @property
    def reduced(self) -> float:
        return reduced_inertia(self.I1, self.I2)


@dataclass(frozen=True)
class UniversalParams:
    omega_prime: float
    U: float
    l: float
    energy_scale: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("omega_prime", "U", "l", "energy_scale"):
            object.__setattr__(self, name,
                               check_real(getattr(self, name), name, -math.inf, False))


def torsion_to_mathieu(rotor: TorsionRotor) -> UniversalParams:
    """Map the torsional Hamiltonian to the dimensionless pendulum.

    Substituting theta = n phi / 2 turns the n-fold cosine barrier into
    the standard cos(2 theta) form with l = 2 I V0 / (n^2 hbar^2);
    physical energies are energy_scale * E_mathieu + V0/2, with
    energy_scale = n^2 hbar^2 / (8 I). The half-period phase shift that
    flips the cosine sign is recorded in the metadata.
    """
    I = check_type(rotor, TorsionRotor, "rotor").reduced
    n_fold = check_real(rotor.n_fold, "n_fold", 1.0, False)
    n2 = n_fold * n_fold
    l = 2.0 * I * rotor.V0 / (n2 * HBAR_SI ** 2)
    scale = n2 * HBAR_SI ** 2 / (8.0 * I)
    omega_prime = n2 * HBAR_SI / (4.0 * I)  # d(dE/dJ)/dJ of the free top
    return UniversalParams(
        omega_prime=omega_prime,
        U=rotor.V0 / 2.0,
        l=l,
        energy_scale=scale,
        metadata={"phase_shift": "phi -> phi + pi/2",
                  "offset": rotor.V0 / 2.0},
    )


def lorentz_to_universal(m: float, omega0: float, mu: float,
                         V0: float, I0: float) -> UniversalParams:
    """Driven anharmonic-oscillator reduction to the universal pendulum.

    omega' = 3 pi mu / (2 m omega0^2), U = V0 sqrt(I0 / (m omega0)),
    l = 8 U / (hbar^2 omega'), in rescaled hbar = 1 units since the
    oscillator parameters are dimensionless there; m, omega0 and mu are
    positive, V0 and I0 nonnegative.
    """
    m, omega0, mu = (check_real(value, name, 0.0, True) for name, value in
                     (("m", m), ("omega0", omega0), ("mu", mu)))
    V0, I0 = (check_real(value, name, 0.0, False)
              for name, value in (("V0", V0), ("I0", I0)))
    # every divisor is a checked positive input, so none is zero
    omega_prime = 1.5 * math.pi * mu / m / omega0 / omega0
    U = V0 * math.sqrt(I0 / m / omega0)
    l = 16.0 * U / (3.0 * math.pi * mu) * m * omega0 * omega0
    return UniversalParams(omega_prime=omega_prime, U=U, l=l,
                           energy_scale=omega_prime / 8.0)


@dataclass(frozen=True)
class SchedulePoint:
    t: float
    l: float
    regions: dict
    crossing: bool


def modulation_schedule(l_c: float, delta_l: float, omega: float,
                        t_grid, levels,
                        eps_rotor: float, eps_well: float) -> list[SchedulePoint]:
    """Quasi-static barrier sweep l(t) = l_c + delta_l cos(omega t).

    For each time the symmetry region of every requested level is
    classified at the instantaneous barrier; a point is marked as a
    crossing when any level's region differs from the previous time.
    """
    l_c = check_real(l_c, "l_c", -math.inf, False)
    delta_l = check_real(delta_l, "delta_l", 0.0, True)
    omega = check_real(omega, "omega", -math.inf, False)
    levels = check_levels(levels)
    times = real_grid(t_grid, "t_grid")
    out: list[SchedulePoint] = []
    prev: dict | None = None
    for t in times.tolist():  # Python floats: an overflow is inf, not a warning
        phase = check_real(omega * t, "omega t", -math.inf, False)
        l_t = max(l_c + delta_l * math.cos(phase), 0.0)
        regions = classify_regions(levels, l_t, eps_rotor, eps_well)
        crossing = prev is not None and regions != prev
        out.append(SchedulePoint(t, l_t, regions, crossing))
        prev = regions
    return out


# Ethane internal rotation: two equivalent methyl tops, 3-fold barrier.
_PRESETS = {"ethane": TorsionRotor(I1=5.3e-47, I2=5.3e-47, V0=2.1e-20, n_fold=3)}


def load_preset(name: str) -> TorsionRotor:
    """The molecule preset called ``name`` (today only ``"ethane"``)."""
    if check_type(name, str, "preset name") not in _PRESETS:
        raise DomainError(f"unknown preset {name!r}")
    return _PRESETS[name]
