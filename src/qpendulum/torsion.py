"""Parameter maps onto the dimensionless pendulum barrier l.

Two physical front ends feed the Mathieu machinery: hindered internal
rotation of a symmetric-top molecule (reduced inertia + n-fold cosine
barrier) and the driven Lorentz-model nonlinear oscillator. Both
produce a barrier strength l and an energy scale converting Mathieu
characteristic values back to physical energies. Schedule region labels
take one batched solve per parity family and barrier value.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_type, real_array
from .mathieu import check_count
from .symmetry import check_levels, classify_regions

HBAR_SI = 1.054571817e-34  # J s


def reduced_inertia(I1: float, I2: float) -> float:
    """I = I1 I2 / (I1 + I2) for two coaxial rigid parts."""
    check_type(I1, numbers.Real, "I1")
    check_type(I2, numbers.Real, "I2")
    if not (0 < I1 < np.inf and 0 < I2 < np.inf):
        raise DomainError("moments of inertia must be positive and finite")
    return I1 * I2 / (I1 + I2)


@dataclass(frozen=True)
class TorsionRotor:
    """A molecule with an n-fold internal-rotation barrier.

    Units are SI: kg m^2 for the inertias, joules for the barrier.
    ``hbar`` is fixed to the physical constant; override it only when
    working in rescaled hbar = 1 units.
    """

    I1: float
    I2: float
    V0: float
    n_fold: int
    hbar: float = HBAR_SI

    def __post_init__(self):
        for name in ("I1", "I2", "V0", "hbar"):
            check_type(getattr(self, name), numbers.Real, name)
        if not (0 < self.I1 < np.inf and 0 < self.I2 < np.inf
                and 0 <= self.V0 < np.inf and 0 < self.hbar < np.inf):
            raise DomainError("inertias and hbar must be positive and V0 "
                              f"nonnegative, all finite, got {self}")
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


def torsion_to_mathieu(rotor: TorsionRotor) -> UniversalParams:
    """Map the torsional Hamiltonian to the dimensionless pendulum.

    Substituting theta = n phi / 2 turns the n-fold cosine barrier into
    the standard cos(2 theta) form with l = 2 I V0 / (n^2 hbar^2);
    physical energies are energy_scale * E_mathieu + V0/2, with
    energy_scale = n^2 hbar^2 / (8 I). The half-period phase shift that
    flips the cosine sign is recorded in the metadata.
    """
    I = check_type(rotor, TorsionRotor, "rotor").reduced
    n2 = rotor.n_fold ** 2
    l = 2.0 * I * rotor.V0 / (n2 * rotor.hbar ** 2)
    scale = n2 * rotor.hbar ** 2 / (8.0 * I)
    omega_prime = n2 * rotor.hbar / (4.0 * I)  # d(dE/dJ)/dJ of the free top
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
    oscillator parameters are dimensionless there.
    """
    for name, value in (("m", m), ("omega0", omega0), ("mu", mu),
                        ("V0", V0), ("I0", I0)):
        check_type(value, numbers.Real, name)
    if not (0 < m < np.inf and 0 < omega0 < np.inf):
        raise DomainError("m and omega0 must be positive and finite")
    if not 0 < abs(mu) < np.inf:
        raise DomainError("mu must be finite and nonzero (mu = 0: l undefined)")
    if not (0 <= I0 < np.inf and np.isfinite(V0)):
        raise DomainError("I0 must be nonnegative and I0, V0 finite")
    omega_prime = 3.0 * np.pi * mu / (2.0 * m * omega0 ** 2)
    U = V0 * np.sqrt(I0 / (m * omega0))
    l = 8.0 * U / omega_prime
    return UniversalParams(omega_prime=float(omega_prime), U=float(U),
                           l=float(l), energy_scale=omega_prime / 8.0)


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
    for name, value in (("l_c", l_c), ("delta_l", delta_l), ("omega", omega)):
        check_type(value, numbers.Real, name)
    if not 0 < delta_l < np.inf:
        raise DomainError("delta_l must be finite and positive")
    levels = check_levels(levels)
    times = real_array(t_grid, "t_grid")
    if times.ndim != 1:
        raise DomainError(f"t_grid must be a sequence of times, got {t_grid!r}")
    out: list[SchedulePoint] = []
    prev: dict | None = None
    for t in times:
        l_t = max(l_c + delta_l * np.cos(omega * t), 0.0)
        regions = classify_regions(levels, l_t, eps_rotor, eps_well)
        crossing = prev is not None and regions != prev
        out.append(SchedulePoint(float(t), float(l_t), regions, crossing))
        prev = regions
    return out


# Ethane internal rotation: two equivalent methyl tops, 3-fold barrier.
_PRESETS = {"ethane": TorsionRotor(I1=5.3e-47, I2=5.3e-47, V0=2.1e-20, n_fold=3)}


def load_preset(name: str) -> TorsionRotor:
    """The molecule preset called ``name`` (today only ``"ethane"``)."""
    if check_type(name, str, "preset name") not in _PRESETS:
        raise DomainError(f"unknown preset {name!r}")
    return _PRESETS[name]
