"""Non-autonomous quadratic Julia sets: trees, operators, pressure, dimensions.

The family is f_l(z) = l/2 (z^2 - 1) + 1 with parameters |l| > 40 drawn one
per step from a deterministic sequence spec.  Backward orbits are trapped in
the disks of radius 1/3 around +-1, making every fiber Julia set a Cantor set
reachable exactly by inverse-branch pullback of the common fixed point 1.
"""

from .boxcount import (
    BoxCountReport,
    box_dimension,
    cloud_ladder,
    default_ladder,
    write_boxcount_csv,
)
from .errors import (
    BracketFailure,
    DepthLimit,
    DomainError,
    InvalidSpec,
    PerturbationTooLarge,
    ResolutionError,
    SandwichViolation,
)
from .experiments import (
    GapScan,
    KinkScan,
    MotionReport,
    PerturbationReport,
    gap_scan,
    kink_scan,
    motion_speed_check,
    sandwich_check,
)
from .family import (
    CENTER_0,
    CENTER_1,
    EXPANSION_FLOOR,
    TRAP_RADIUS,
    CertificateReport,
    apply,
    derivative,
    in_trap_union,
    inverse_branch,
    spherical_derivative,
    trapping_certificate,
)
from .orbits import (
    JuliaCloud,
    RoundTripReport,
    TreeStats,
    composed_forward_residual,
    depth_limit,
    iter_leaf_blocks,
    julia_cloud,
    leaf_log_derivs,
    resolution_bound,
    roundtrip_check,
    word_of,
    write_cloud_csv,
)
from .pressure import (
    BowenZero,
    PressureCurve,
    bowen_zero,
    default_window,
    dimension_pair,
    pressure_curve,
    write_pressure_csv,
    write_roots_csv,
)
from .sequences import (
    Constant,
    Explicit,
    Periodic,
    PerturbedSequence,
    RandomAnnulus,
    SequenceSpec,
    SignSchedule,
    at,
    cesaro_sum,
    delta,
    delta_linear_bound,
    format_sequence,
    inf_modulus,
    max_perturbation,
    parse_sequence,
)
from .transfer import (
    ConformalAtoms,
    OperatorValue,
    RhoEstimate,
    change_of_variables_check,
    conformal_atoms,
    logsumexp,
    operator_power,
    rho_estimate,
)

__version__ = "0.1.0"
