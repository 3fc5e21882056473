"""Spectral numerics for the quantum mathematical pendulum."""

# The package's only version literal: pyproject.toml and the report
# metadata both read it from here.
__version__ = "0.1.0"

from .errors import (
    AmbiguityError,
    BoundaryNotFoundError,
    ConvergenceError,
    DomainError,
    SeparatrixError,
)
from .mathieu import (
    MathieuClass,
    a_value,
    b_value,
    ce_series,
    characteristic_values,
    se_series,
)
from .series import (
    TrigSeries,
    eval_series,
    inner_product,
    moments,
)
from .states import (
    ObservableJump,
    QuantumState,
    StateFamily,
    StateSpec,
    build_state,
    density,
    density_maxima,
    jump_at_boundary,
    velocity_expect,
    velocity_sq_expect,
)
from .symmetry import (
    GapMeasure,
    GroupElement,
    PairingKind,
    RegionBoundary,
    Subgroup,
    apply_group_element,
    calibrate_epsilon,
    classify_regions,
    find_boundary,
    level_boundary,
    pair_gap,
    subgroup_invariance_check,
    sweep_characteristics,
)
from .uncertainty import (
    UncertaintyReport,
    angular_moments,
    local_variance_inequality,
)
from .classical import (
    ArgConvention,
    ClassicalParams,
    elliptic_K,
    jacobi_cn_dn,
    trajectory,
)
from .torsion import (
    TorsionRotor,
    UniversalParams,
    load_preset,
    modulation_schedule,
    reduced_inertia,
    torsion_to_mathieu,
)

__all__ = [name for name in dir() if not name.startswith("_")]
