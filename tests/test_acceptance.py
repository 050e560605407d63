"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured quantities.
"""

import math
import time

import numpy as np
import pytest

from fiberdim import (
    Constant,
    Periodic,
    PerturbedSequence,
    RandomAnnulus,
    SignSchedule,
    bowen_zero,
    box_dimension,
    cloud_ladder,
    composed_forward_residual,
    delta,
    dimension_pair,
    iter_leaf_blocks,
    julia_cloud,
    kink_scan,
    motion_speed_check,
    operator_power,
    pressure_curve,
    rho_estimate,
    roundtrip_check,
    sandwich_check,
    trapping_certificate,
)
from fiberdim import orbits
from fiberdim.cli import main as cli_main

LOG2 = math.log(2.0)
CONST50 = Constant(50)
SCHEDULE = SignSchedule(2, 2, 1)

TESTED_SEQUENCES = [
    CONST50,
    Periodic((50, 60 + 10j, -45)),
    RandomAnnulus(seed=7, min_mod=45, max_mod=80),
    PerturbedSequence(CONST50, SCHEDULE, 0.1),
]


def _report(criterion, detail, elapsed=None):
    suffix = f" (elapsed {elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[PASS] criterion {criterion}: {detail}{suffix}")


def test_c01_degree_counting_exactness():
    start = time.monotonic()
    worst = 0.0
    for seq in TESTED_SEQUENCES:
        for n in range(1, 23):
            a_n = operator_power(seq, 0, n, [0.0])[0].log_value / n
            worst = max(worst, abs(a_n - LOG2))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report(1, f"max |a_n(0) - log 2| = {worst:.3e} over 4 specs, n <= 22", elapsed)


def test_c02_roundtrip_fidelity_depth_20():
    start = time.monotonic()
    report = roundtrip_check(CONST50, 0, 20)
    # certified distance from each of the 2**20 leaves to the exact preimage;
    # the composed float64 forward map amplifies leaf error by ~|l|^n, so the
    # literal residual is asserted where float64 still resolves it
    assert report.certified_leaf_error <= 1e-9
    assert composed_forward_residual(CONST50, 0, 3) <= 1e-9

    first_block = next(iter(iter_leaf_blocks(CONST50, 0, 20)))
    _, pts, lds = first_block
    assert pts[0] == 1.0 + 0.0j  # all-zeros word sits at index 0
    assert abs(lds[0] - 20 * math.log(50.0)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        2,
        f"certified leaf error {report.certified_leaf_error:.3e} <= 1e-9 for all 2^20 "
        f"leaves; zero word exact",
        elapsed,
    )


def test_c03_trapping_certificate():
    for l in (41, 50, 40 + 30j, 100j):
        report = trapping_certificate(l)
        assert report.passed
        assert report.radicand_bound == pytest.approx(14 / (3 * abs(l)), rel=1e-15)
        assert report.radicand_bound < 1 / 3
    rejected = trapping_certificate(10)
    assert not rejected.passed and "modulus" in rejected.reason
    _report(3, "pass for l in {41, 50, 40+30i, 100i} with margin 1/3 - 14/(3|l|); l=10 rejected")


def test_c04_bowen_bracket_and_box_oracle():
    start = time.monotonic()
    lower, upper = dimension_pair(CONST50, (12, 20), tol=1e-4)
    lo = LOG2 / math.log(200 / 3)
    hi = LOG2 / math.log(100 / 3)
    assert lo <= lower.t_star <= hi
    assert lo <= upper.t_star <= hi
    assert abs(upper.t_star - lower.t_star) <= 2e-4

    cloud = julia_cloud(CONST50, 18)
    box = box_dimension(cloud.points, cloud_ladder(cloud.resolution), min_scale=cloud.resolution)
    agreement = abs(box.slope - lower.t_star)
    assert agreement <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        4,
        f"t* = {lower.t_star:.6f} in [{lo:.5f}, {hi:.5f}]; box slope {box.slope:.6f} "
        f"agrees to {agreement:.4f}",
        elapsed,
    )


def test_c05_exact_sandwich_grid():
    start = time.monotonic()
    checked = 0
    for x in (-0.1, -0.05, -0.01, 0.01, 0.05, 0.1):
        for t in (0.1, 0.18):
            report = sandwich_check(CONST50, SCHEDULE, x, t=t, n_max=20)
            # sandwich_check raises SandwichViolation on any violation
            assert max(r.residual for r in report.rows) <= 1e-9
            assert report.leaf_slack_max <= 1e-9
            checked += len(report.rows)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(5, f"0 violations over {checked} (x, t, n) cells at slack t|x|/2 + 1e-9", elapsed)


def test_c06_motion_bounds_depth_18():
    start = time.monotonic()
    details = []
    for x in (0.01, 0.1):
        report = motion_speed_check(CONST50, SCHEDULE, x, depth=18)
        assert report.max_displacement <= delta(x) / 9 + 1e-12
        assert report.max_log_ratio <= delta(x) / 6 + 1e-12
        details.append(f"x={x:g}: disp {report.max_displacement:.3e} <= {delta(x) / 9:.3e}")
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(6, "; ".join(details), elapsed)


def test_c07_rho_bounds():
    for seq in (CONST50, Periodic((50, 60 + 10j, -45))):
        for depth in (6, 12, 20):
            table = orbits.fiber_table(seq, 0, (depth, depth))  # the step extremes of the tree
            for t in (0.0, 0.5, 1.0):
                est = rho_estimate(seq, 0, t, depth)
                lo = 2.0 * math.exp(-t * table.step_log_max)
                hi = 2.0 * math.exp(-t * table.step_log_min)
                assert lo * (1 - 1e-9) <= est.value <= hi * (1 + 1e-9)
                if t == 0.0:
                    assert abs(est.value - 2.0) <= 1e-12
    _report(7, "rho in [2 A^-t, 2 a^-t] for t in {0, 0.5, 1}, depths up to 20; exactly 2 at t=0")


def test_c08_pressure_shape():
    worst_excess = -math.inf
    for seq in TESTED_SEQUENCES:
        curve = pressure_curve(seq, np.linspace(0.0, 0.4, 21), (2, 20))
        assert bool((np.diff(curve.values, axis=1) < 0).all())
        assert bool((np.diff(curve.values, 2, axis=1) >= -1e-12).all())
        dt = np.diff(curve.t_grid)
        for i, n in enumerate(curve.n_values):
            diff = np.diff(curve.values[i])
            lo = -dt * curve.leaf_log_max[i] / n
            hi = -dt * curve.leaf_log_min[i] / n
            excess = max(float((lo - diff).max()), float((diff - hi).max()))
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-12
    _report(8, f"all rows decreasing+convex; slope-bracket excess {worst_excess:.3e} <= 1e-12")


def test_c09_spread_certificate_and_gap_growth():
    start = time.monotonic()
    scan = kink_scan(CONST50, SCHEDULE, t=0.18, x_grid=[-0.1, 0.0, 0.1], window=(2, 18))
    row = next(r for r in scan.rows if r.x == 0.1)
    assert row.spread_lhs >= row.spread_rhs - 1e-9
    assert scan.cesaro_max - scan.cesaro_min == pytest.approx(4 / 3)

    base_pair = dimension_pair(CONST50, (10, 20), tol=1e-5)
    pert = PerturbedSequence(CONST50, SCHEDULE, 0.1)
    pert_pair = dimension_pair(pert, (10, 20), tol=1e-5)
    gap0 = base_pair[1].t_star - base_pair[0].t_star
    gap1 = pert_pair[1].t_star - pert_pair[0].t_star
    assert gap1 > gap0
    elapsed = time.monotonic() - start
    _report(
        9,
        f"spread {row.spread_lhs:.4e} >= certificate {row.spread_rhs:.4e}; "
        f"gap grows {gap0:.2e} -> {gap1:.2e}",
        elapsed,
    )


def test_c10_byte_identical_across_workers(tmp_path, monkeypatch):
    # The pressure and kink sums and the gap scan's Bowen zeros come from fiber
    # point tables, which do not depend on the block size; the kink and gap
    # cells fan out over the workers.  2^4-leaf blocks change no table.
    for block_log2, worker_counts in ((18, (1, 2, 8)), (4, (1, 2, 3))):
        monkeypatch.setattr(orbits, "_BLOCK_LOG2", block_log2)
        outputs = []
        for workers in worker_counts:
            p_out = tmp_path / f"pressure{workers}.csv"
            k_out = tmp_path / f"kink{workers}.csv"
            g_out = tmp_path / f"gap{workers}.csv"
            assert cli_main([
                "pressure", "--seq", "const:50", "--t", "0:0.4:11", "--n", "2:14",
                "--workers", str(workers), "-o", str(p_out),
            ]) == 0
            assert cli_main([
                "perturb", "--base", "const:50", "--blocks", "2x2", "--x=-0.1:0.1:5",
                "--t", "0.18", "--window", "2:14", "--workers", str(workers),
                "-o", str(k_out),
            ]) == 0
            assert cli_main([
                "perturb", "--base", "const:50", "--mode", "gap", "--x=-0.05:0.05:3",
                "--window", "6:10", "--tol", "1e-3", "--workers", str(workers),
                "-o", str(g_out),
            ]) == 0
            outputs.append((p_out.read_bytes(), k_out.read_bytes(), g_out.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
    _report(
        10,
        "pressure and perturb (kink and gap) CSV bytes identical for workers 1, 2, 8, "
        "and for workers 1, 2, 3 with 2^4-leaf blocks",
    )


def test_c11_metric_robustness():
    diffs = {}
    for n in (8, 12, 16, 20):
        planar = bowen_zero(CONST50, "lower", n, tol=1e-6)
        spherical = bowen_zero(CONST50, "lower", n, tol=1e-6, metric="spherical")
        diffs[n] = abs(planar.t_star - spherical.t_star)
    c_measured = max(n * d for n, d in diffs.items())
    assert all(d <= c_measured / n + 1e-12 for n, d in diffs.items())
    assert diffs[20] < 0.02
    _report(
        11,
        f"planar vs spherical zero differs {diffs[20]:.2e} at n=20 (< 0.02), "
        f"measured C = {c_measured:.3f}",
    )
