"""Parameter maps onto the dimensionless pendulum barrier l.

One physical front end feeds the Mathieu machinery: hindered internal
rotation of a symmetric-top molecule (reduced inertia + n-fold cosine
barrier). It produces a barrier strength l and an energy scale
converting Mathieu characteristic values back to physical energies.
A schedule labels every barrier of its grid with one call to
:func:`qpendulum.symmetry.classify_regions`: one batched solve per
parity family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_count, check_real, check_type, real_grid
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
    metadata: dict

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
    Every omega t and barrier is checked before any solve.
    """
    l_c = check_real(l_c, "l_c", -math.inf, False)
    delta_l = check_real(delta_l, "delta_l", 0.0, True)
    omega = check_real(omega, "omega", -math.inf, False)
    times = real_grid(t_grid, "t_grid").tolist()  # Python floats: an overflow is inf
    barriers = [max(l_c + delta_l * math.cos(check_real(omega * t, "omega t", -math.inf,
                                                        False)), 0.0) for t in times]
    regions = classify_regions(levels, barriers, eps_rotor, eps_well)
    return [SchedulePoint(t, l_t, now, i > 0 and now != regions[i - 1])
            for i, (t, l_t, now) in enumerate(zip(times, barriers, regions))]


# Ethane internal rotation: two equivalent methyl tops, 3-fold barrier.
_PRESETS = {"ethane": TorsionRotor(I1=5.3e-47, I2=5.3e-47, V0=2.1e-20, n_fold=3)}


def load_preset(name: str) -> TorsionRotor:
    """The molecule preset called ``name`` (today only ``"ethane"``)."""
    if check_type(name, str, "preset name") not in _PRESETS:
        raise DomainError(f"unknown preset {name!r}")
    return _PRESETS[name]
