"""Named invariant checks bundled behind the `verify` CLI subcommand.

Each check exercises one contract of the family/orbits/transfer/pressure/
experiments modules at a scale controlled by the requested depth, and reports
pass/fail with a one-line measurement.  Random sampling is seeded, so a
verify run is reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import family
from .errors import UnreachableTolerance
from .orbits import (
    check_depth,
    composed_forward_residual,
    fiber_table,
    iter_leaf_blocks,
    julia_cloud,
    resolution_bound,
    roundtrip_check,
)
from .experiments import motion_speed_check, sandwich_check
from .pressure import WindowPressure, dimension_pair, pressure_curve
from .sequences import (
    PerturbedSequence,
    SequenceSpec,
    SignSchedule,
    at,
    max_perturbation,
)
from .transfer import (
    change_of_variables_check,
    conformal_atoms,
    operator_power,
    rho_estimate,
)

LOG2 = math.log(2.0)
_MIN_DEPTH = 6  # the smallest depth at which every check's setup is defined


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _sample_parameters(rng, count) -> np.ndarray:
    mod = rng.uniform(40.0 + 1e-9, 200.0, count)
    arg = rng.uniform(0.0, 2.0 * math.pi, count)
    return mod * np.exp(1j * arg)


def _sample_trap_points(rng, count) -> np.ndarray:
    centers = np.where(rng.integers(0, 2, count) == 0, family.CENTER_0, family.CENTER_1)
    radii = family.TRAP_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, count))
    args = rng.uniform(0.0, 2.0 * math.pi, count)
    return centers + radii * np.exp(1j * args)


def _perturbation_setup(seq: SequenceSpec) -> tuple[SequenceSpec, SignSchedule, float]:
    if isinstance(seq, PerturbedSequence):
        base, schedule = seq.base, seq.schedule
        x = seq.x if seq.x != 0.0 else min(0.05, max_perturbation(base) / 2.0)
    else:
        base, schedule = seq, SignSchedule(2, 2, 1)
        x = min(0.05, max_perturbation(base) / 2.0)
    return base, schedule, x


# --------------------------------------------------------------- family


def check_family_roundtrip(rng) -> CheckResult:
    ls = _sample_parameters(rng, 10_000)
    ws = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, ls.size)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi, ls.size)
    ) * 0.999
    worst = 0.0
    for label in (0, 1):
        z = family.inverse_branch(ls, ws, label)
        worst = max(worst, float(np.max(np.abs(family.apply(ls, z) - ws) / (1.0 + np.abs(ws)))))
    return _result("family.roundtrip", worst <= 1e-12, f"max relative residual {worst:.3e}")


def check_family_branch_separation(rng) -> CheckResult:
    ls = _sample_parameters(rng, 4_000)
    ws = _sample_trap_points(rng, ls.size)
    z0 = family.inverse_branch(ls, ws, 0)
    z1 = family.inverse_branch(ls, ws, 1)
    ok0 = np.abs(z0 - family.CENTER_0) < family.TRAP_RADIUS
    ok1 = np.abs(z1 - family.CENTER_1) < family.TRAP_RADIUS
    return _result(
        "family.branch_separation",
        bool(ok0.all() and ok1.all()),
        f"{int(ok0.sum())}+{int(ok1.sum())} of {2 * ls.size} branch images in their disks",
    )


def check_family_derivative_fd(rng) -> CheckResult:
    ls = _sample_parameters(rng, 1_000)
    zs = _sample_trap_points(rng, ls.size)
    h = 1e-6
    fd = (family.apply(ls, zs + h) - family.apply(ls, zs - h)) / (2.0 * h)
    rel = np.abs(fd - family.derivative(ls, zs)) / np.abs(family.derivative(ls, zs))
    worst = float(rel.max())
    return _result("family.derivative_fd", worst <= 1e-6, f"max relative error {worst:.3e}")


def check_family_expansion_floor(rng) -> CheckResult:
    ls = _sample_parameters(rng, 4_000)
    zs = _sample_trap_points(rng, ls.size)
    mags = np.abs(family.derivative(ls, zs))
    floor_ok = mags >= (2.0 / 3.0) * np.abs(ls) * (1.0 - 1e-12)
    low = float(mags.min())
    return _result(
        "family.expansion_floor",
        bool(floor_ok.all()) and low > 26.0,
        f"min |f'| = {low:.6g} >= (2/3)|l|, floor 80/3 = {family.EXPANSION_FLOOR:.6g}",
    )


def check_family_spherical_ratio(rng) -> CheckResult:
    ls = _sample_parameters(rng, 4_000)
    ws = _sample_trap_points(rng, ls.size)
    zs = family.inverse_branch(ls, ws, 0)  # guarantees z and f(z) both in the disks
    ratio = family.spherical_derivative(ls, zs) / np.abs(family.derivative(ls, zs))
    lo, hi = 13.0 / 25.0, 25.0 / 13.0
    ok = bool((ratio >= lo * (1 - 1e-12)).all() and (ratio <= hi * (1 + 1e-12)).all())
    return _result(
        "family.spherical_ratio",
        ok,
        f"ratio range [{float(ratio.min()):.6g}, {float(ratio.max()):.6g}] within [{lo:.6g}, {hi:.6g}]",
    )


def check_family_trapping(seq: SequenceSpec, depth: int) -> CheckResult:
    params = [at(seq, k) for k in range(1, min(depth, 20) + 1)]
    reports = [family.trapping_certificate(l) for l in params]
    outside = family.trapping_certificate(10)
    ok = all(r.passed for r in reports) and not outside.passed and "modulus" in outside.reason
    margin = min(r.margin for r in reports)
    return _result(
        "family.trapping_certificate",
        ok,
        f"all {len(reports)} sequence parameters pass (min margin {margin:.6g}); l=10 rejected",
    )


# --------------------------------------------------------------- orbits


def check_orbits_count(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 12)
    total = 0
    next_start = 0
    ordered = True
    for start, pts, _ in iter_leaf_blocks(seq, 0, n):
        ordered &= start == next_start
        next_start = start + pts.size
        total += pts.size
    return _result(
        "orbits.count",
        ordered and total == 2**n,
        f"{total} leaves at depth {n}, contiguous word order",
    )


def check_orbits_roundtrip(seq: SequenceSpec, depth: int) -> CheckResult:
    report = roundtrip_check(seq, 0, depth)
    shallow = composed_forward_residual(seq, 0, 3)
    ok = report.certified_leaf_error <= 1e-9 and shallow <= 1e-9
    return _result(
        "orbits.roundtrip",
        ok,
        f"certified leaf error {report.certified_leaf_error:.3e} at depth {depth}; "
        f"composed forward residual {shallow:.3e} at depth 3",
    )


def check_orbits_trapping(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 14)
    ok = True
    for start, pts, _ in iter_leaf_blocks(seq, 0, n):
        first_bit = ((start + np.arange(pts.size)) >> (n - 1)) & 1
        centers = np.where(first_bit == 0, family.CENTER_0, family.CENTER_1)
        ok &= bool((np.abs(pts - centers) <= family.TRAP_RADIUS).all())
    return _result("orbits.trapping", ok, f"all depth-{n} leaves inside their labeled disk")


def check_orbits_separation(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 8)
    cloud = julia_cloud(seq, n)
    pts = cloud.points
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    closest = float(diff.min())
    max_mod = max(abs(at(seq, k)) for k in range(1, n + 1))
    analytic = (4.0 / 3.0) * (3.0 / (4.0 * max_mod)) ** (n - 1)
    refined = resolution_bound(seq, n + 1)
    ok = closest >= analytic and closest >= refined
    return _result(
        "orbits.separation",
        ok,
        f"min pairwise {closest:.3e} >= analytic {analytic:.3e} and refined-cylinder {refined:.3e}",
    )


def check_orbits_motion(seq: SequenceSpec, depth: int) -> CheckResult:
    base, schedule, x = _perturbation_setup(seq)
    report = motion_speed_check(base, schedule, x, depth)
    return _result("orbits.motion_bounds", report.passed(), report.summary())


# --------------------------------------------------------------- transfer


def check_transfer_count(seq: SequenceSpec, depth: int) -> CheckResult:
    worst = 0.0
    for n in sorted({1, 5, min(depth, 22)}):
        value = operator_power(seq, 0, n, [0.0])[0].log_value
        worst = max(worst, abs(value - n * LOG2))
    return _result("transfer.count_exactness", worst <= 1e-12, f"max |log L^n 1 - n log 2| = {worst:.3e}")


def check_transfer_monotone_convex(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 10)
    t_grid = np.linspace(0.0, 0.4, 9)
    values = np.array([v.log_value for v in operator_power(seq, 0, n, t_grid)])
    decreasing = bool((np.diff(values) < 0).all())
    second = np.diff(values, 2)
    convex = bool((second >= -1e-12).all())
    return _result(
        "transfer.monotone_convex",
        decreasing and convex,
        f"strictly decreasing, min second difference {float(second.min()):.3e}",
    )


def check_transfer_bracket(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 12)
    table = fiber_table(seq, 0, (n, n))  # the leaf extremes of the depth-n tree
    leaf_min, leaf_max = float(table.leaf_log_min[0]), float(table.leaf_log_max[0])
    ok = True
    worst = 0.0
    for t in (0.5, 1.0):
        value = operator_power(seq, 0, n, [t])[0].log_value
        lo = n * LOG2 - t * leaf_max
        hi = n * LOG2 - t * leaf_min
        ok &= lo - 1e-9 <= value <= hi + 1e-9
        worst = max(worst, max(lo - value, value - hi))
    return _result(
        "transfer.operator_bracket", ok, f"worst bracket excess {worst:.3e} (negative = inside)"
    )


def check_transfer_rho(seq: SequenceSpec, depth: int) -> CheckResult:
    N = min(depth, 12)
    table = fiber_table(seq, 0, (N, N))  # the step extremes of the depth-N tree
    ok = True
    details = []
    for t in (0.0, 0.5, 1.0):
        est = rho_estimate(seq, 0, t, N)
        lo = 2.0 * math.exp(-t * table.step_log_max)
        hi = 2.0 * math.exp(-t * table.step_log_min)
        ok &= lo * (1 - 1e-9) <= est.value <= hi * (1 + 1e-9)
        if t == 0.0:
            ok &= abs(est.value - 2.0) <= 1e-12
        details.append(f"t={t:g}: {est.value:.6g} in [{lo:.6g}, {hi:.6g}]")
    return _result("transfer.rho_bounds", ok, "; ".join(details))


def check_transfer_atoms(seq: SequenceSpec, depth: int) -> CheckResult:
    n = min(depth, 10)
    atoms = conformal_atoms(seq, 0, n, 1.0)
    mass_gap = abs(float(atoms.weights.sum()) - 1.0)
    positive = bool((atoms.weights > 0).all())
    return _result(
        "transfer.atom_normalization",
        mass_gap <= 1e-12 and positive,
        f"|total mass - 1| = {mass_gap:.3e}, all {atoms.weights.size} weights positive",
    )


def check_transfer_change_of_variables(seq: SequenceSpec, depth: int) -> CheckResult:
    N = min(depth, 10)
    worst = max(change_of_variables_check(seq, 0, N, t) for t in (0.0, 1.0))
    return _result(
        "transfer.change_of_variables", worst <= 1e-9, f"max relative deviation {worst:.3e}"
    )


# --------------------------------------------------------------- pressure


def _shape_curve(seq: SequenceSpec, depth: int):
    return pressure_curve(seq, np.linspace(0.0, 0.4, 21), (2, min(depth, 12)))


def check_pressure_zero_column(seq: SequenceSpec, depth: int) -> CheckResult:
    curve = _shape_curve(seq, depth)
    gap = float(np.max(np.abs(curve.values[:, 0] - LOG2)))
    return _result("pressure.zero_column", gap <= 1e-12, f"max |a_n(0) - log 2| = {gap:.3e}")


def check_pressure_slope_bracket(seq: SequenceSpec, depth: int) -> CheckResult:
    curve = _shape_curve(seq, depth)
    dt = np.diff(curve.t_grid)
    ok = True
    worst = -math.inf
    for i, n in enumerate(curve.n_values):
        diff = np.diff(curve.values[i])
        lo = -dt * curve.leaf_log_max[i] / n
        hi = -dt * curve.leaf_log_min[i] / n
        excess = max(float((lo - diff).max()), float((diff - hi).max()))
        worst = max(worst, excess)
        ok &= excess <= 1e-12
    return _result("pressure.slope_bracket", ok, f"worst bracket excess {worst:.3e}")


def check_pressure_shape(seq: SequenceSpec, depth: int) -> CheckResult:
    curve = _shape_curve(seq, depth)
    decreasing = bool((np.diff(curve.values, axis=1) < 0).all())
    convex = bool((np.diff(curve.values, 2, axis=1) >= -1e-12).all())
    return _result(
        "pressure.shape", decreasing and convex, "every a_n row strictly decreasing and convex"
    )


def check_pressure_window_monotonic(seq: SequenceSpec, depth: int) -> CheckResult:
    hi = min(depth, 12)
    narrow = pressure_curve(seq, np.linspace(0.0, 0.4, 5), (2, hi), window=(hi - 2, hi))
    wide = pressure_curve(seq, np.linspace(0.0, 0.4, 5), (2, hi), window=(hi - 4, hi))
    ok = bool((wide.lower <= narrow.lower + 1e-15).all() and (wide.upper >= narrow.upper - 1e-15).all())
    return _result(
        "pressure.window_monotonicity", ok, "enlarging the window lowers P_min and raises P_max"
    )


def check_pressure_refinement(seq: SequenceSpec, depth: int, tol: float) -> CheckResult:
    hi = min(depth, 12)
    cache = WindowPressure(seq, (max(2, hi - 4), hi))
    coarse = cache.zero("lower", tol)
    fine = cache.zero("lower", tol / 10.0)
    drift = abs(coarse.t_star - fine.t_star)
    ok = drift <= coarse.uncertainty + fine.uncertainty
    return _result(
        "pressure.root_refinement",
        ok,
        f"10x finer rerun moved t* by {drift:.3e} <= certified {coarse.uncertainty:.3e}",
    )


# --------------------------------------------------------------- experiments


def check_experiments_sandwich(seq: SequenceSpec, depth: int) -> CheckResult:
    base, schedule, x = _perturbation_setup(seq)
    report = sandwich_check(base, schedule, x, t=0.18, n_max=depth)
    return _result("experiments.sandwich", True, report.summary())  # a violation raises


def check_experiments_antisymmetry(seq: SequenceSpec, depth: int) -> CheckResult:
    base, schedule, x = _perturbation_setup(seq)
    flipped = SignSchedule(
        schedule.initial_block_len, schedule.growth_ratio, -schedule.first_sign
    )
    a = PerturbedSequence(base, schedule, x)
    b = PerturbedSequence(base, flipped, -x)
    same = all(at(a, k) == at(b, k) for k in range(1, 200))
    return _result(
        "experiments.antisymmetry", same, "s -> -s with x -> -x reproduces the sequence exactly"
    )


def check_experiments_gap_order(seq: SequenceSpec, depth: int, tol: float) -> CheckResult:
    hi = min(depth, 12)
    lower, upper = dimension_pair(seq, (max(2, hi - 4), hi), tol)
    ok = lower.t_star <= upper.t_star and 0.0 < lower.t_star < 2.0 and upper.t_star < 2.0
    return _result(
        "experiments.gap_order",
        ok,
        f"h_lower {lower.t_star:.6g} <= h_upper {upper.t_star:.6g}, both in (0, 2)",
    )


def run_all(
    seq: SequenceSpec,
    depth: int = 14,
    tol: float = 1e-4,
    seed: int = 0,
) -> list[CheckResult]:
    """Run every module invariant against one sequence spec."""
    # usage errors, raised before any check runs so that they are not reported as FAILs
    if depth < _MIN_DEPTH:
        raise ValueError(f"verify depth must be >= {_MIN_DEPTH}, got {depth}")
    check_depth(depth)
    if not 0 < tol < math.inf:  # also rejects NaN
        raise ValueError("tol must be finite and > 0")
    rng = np.random.default_rng(seed)
    checks = [
        ("family.roundtrip", lambda: check_family_roundtrip(rng)),
        ("family.branch_separation", lambda: check_family_branch_separation(rng)),
        ("family.derivative_fd", lambda: check_family_derivative_fd(rng)),
        ("family.expansion_floor", lambda: check_family_expansion_floor(rng)),
        ("family.spherical_ratio", lambda: check_family_spherical_ratio(rng)),
        ("family.trapping_certificate", lambda: check_family_trapping(seq, depth)),
        ("orbits.count", lambda: check_orbits_count(seq, depth)),
        ("orbits.roundtrip", lambda: check_orbits_roundtrip(seq, depth)),
        ("orbits.trapping", lambda: check_orbits_trapping(seq, depth)),
        ("orbits.separation", lambda: check_orbits_separation(seq, depth)),
        ("orbits.motion_bounds", lambda: check_orbits_motion(seq, depth)),
        ("transfer.count_exactness", lambda: check_transfer_count(seq, depth)),
        ("transfer.monotone_convex", lambda: check_transfer_monotone_convex(seq, depth)),
        ("transfer.operator_bracket", lambda: check_transfer_bracket(seq, depth)),
        ("transfer.rho_bounds", lambda: check_transfer_rho(seq, depth)),
        ("transfer.atom_normalization", lambda: check_transfer_atoms(seq, depth)),
        ("transfer.change_of_variables", lambda: check_transfer_change_of_variables(seq, depth)),
        ("pressure.zero_column", lambda: check_pressure_zero_column(seq, depth)),
        ("pressure.slope_bracket", lambda: check_pressure_slope_bracket(seq, depth)),
        ("pressure.shape", lambda: check_pressure_shape(seq, depth)),
        ("pressure.window_monotonicity", lambda: check_pressure_window_monotonic(seq, depth)),
        ("pressure.root_refinement", lambda: check_pressure_refinement(seq, depth, tol)),
        ("experiments.sandwich", lambda: check_experiments_sandwich(seq, depth)),
        ("experiments.antisymmetry", lambda: check_experiments_antisymmetry(seq, depth)),
        ("experiments.gap_order", lambda: check_experiments_gap_order(seq, depth, tol)),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append(fn())
        except UnreachableTolerance:  # a usage error found only when a root is refined
            raise
        except Exception as exc:  # surface the failure, keep the suite running
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
