"""Non-autonomous quadratic Julia sets: trees, operators, pressure, dimensions.

The family is f_l(z) = l/2 (z^2 - 1) + 1 with parameters |l| > 40 drawn one
per step from a deterministic sequence spec.  Backward orbits are trapped in
the disks of radius 1/3 around +-1, making every fiber Julia set a Cantor set
reachable exactly by inverse-branch pullback of the common fixed point 1.

The names below are loaded on first use (PEP 562), so `import fiberdim`
imports neither numpy nor any submodule; `fiberdim.cli` relies on that to
set up the process before numpy loads.
"""

import importlib

_EXPORTS = {
    "boxcount": (
        "BoxCountReport",
        "box_dimension",
        "cloud_ladder",
        "write_boxcount_csv",
    ),
    "errors": (
        "BracketFailure",
        "DepthLimit",
        "DomainError",
        "InvalidSpec",
        "PerturbationTooLarge",
        "ResolutionError",
        "SandwichViolation",
        "UnreachableTolerance",
    ),
    "experiments": (
        "GapScan",
        "KinkScan",
        "MotionReport",
        "PerturbationReport",
        "gap_scan",
        "kink_scan",
        "motion_speed_check",
        "sandwich_check",
    ),
    "family": (
        "CENTER_0",
        "CENTER_1",
        "EXPANSION_FLOOR",
        "TRAP_RADIUS",
        "CertificateReport",
        "apply",
        "derivative",
        "in_trap_union",
        "inverse_branch",
        "spherical_derivative",
        "trapping_certificate",
    ),
    "orbits": (
        "JuliaCloud",
        "RoundTripReport",
        "composed_forward_residual",
        "depth_limit",
        "iter_leaf_blocks",
        "julia_cloud",
        "leaf_log_derivs",
        "resolution_bound",
        "roundtrip_check",
        "write_cloud_csv",
    ),
    "pressure": (
        "BowenZero",
        "PressureCurve",
        "bowen_zero",
        "default_window",
        "dimension_pair",
        "pressure_curve",
        "write_pressure_csv",
        "write_roots_csv",
    ),
    "sequences": (
        "Constant",
        "Explicit",
        "Periodic",
        "PerturbedSequence",
        "RandomAnnulus",
        "SequenceSpec",
        "SignSchedule",
        "at",
        "cesaro_sum",
        "delta",
        "delta_linear_bound",
        "format_sequence",
        "inf_modulus",
        "max_perturbation",
        "parse_sequence",
    ),
    "transfer": (
        "ConformalAtoms",
        "OperatorValue",
        "RhoEstimate",
        "change_of_variables_check",
        "conformal_atoms",
        "operator_power",
        "rho_estimate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # an unknown name must raise AttributeError, so that `from fiberdim import
    # cli` falls through to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
