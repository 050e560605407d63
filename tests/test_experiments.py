import math

import numpy as np
import pytest

from fiberdim import (
    Constant,
    Periodic,
    SandwichViolation,
    SignSchedule,
    at,
    cesaro_sum,
    delta,
    gap_scan,
    kink_scan,
    motion_speed_check,
    sandwich_check,
)
from fiberdim.sequences import PerturbedSequence

CONST50 = Constant(50)
SCHEDULE = SignSchedule(2, 2, 1)


def test_sandwich_identity_at_x_zero():
    report = sandwich_check(CONST50, SCHEDULE, 0.0, t=0.18, n_max=8)
    for row in report.rows:
        assert row.a_base == row.a_pert
        assert row.residual == 0.0
    assert report.leaf_slack_max == 0.0
    assert report.delta == 0.0


def test_sandwich_all_plus_signs():
    # one huge first block makes s_k = +1 for every reachable k
    all_plus = SignSchedule(10**6, 2, 1)
    x, t = 0.05, 0.2
    report = sandwich_check(CONST50, all_plus, x, t=t, n_max=10)
    for row in report.rows:
        assert row.sign_sum == row.n
        # middle term is a_base - t x, so the defect is within t|x|/2
        assert abs(row.a_pert - (row.a_base - t * x)) <= t * x / 2 + 1e-9
    assert report.passed()


def test_sandwich_block_schedule():
    report = sandwich_check(CONST50, SCHEDULE, 0.05, t=0.18, n_max=16)
    assert report.passed()
    assert all(r.residual <= 1e-9 for r in report.rows)
    assert report.delta == pytest.approx(math.expm1(0.05), rel=1e-15)
    assert report.delta_linear_bound == pytest.approx(math.e * 0.05, rel=1e-15)
    n16 = report.rows[-1]
    assert n16.n == 16
    assert n16.sign_sum == cesaro_sum(SCHEDULE, 16)[0]


@pytest.mark.parametrize("x", [-0.1, -0.01, 0.01, 0.1])
def test_sandwich_both_signs(x):
    report = sandwich_check(CONST50, SCHEDULE, x, t=0.1, n_max=12)
    assert report.passed()


def test_sandwich_mixed_base():
    report = sandwich_check(Periodic((50, 60 + 10j, -45)), SCHEDULE, 0.05, t=0.18, n_max=12)
    assert report.passed()


def test_sandwich_at_higher_fiber():
    report = sandwich_check(CONST50, SCHEDULE, 0.08, t=0.15, n_max=10, j=3)
    assert report.passed()
    # the fiber-3 window sees signs s_4..s_{3+n}
    assert report.rows[0].sign_sum == cesaro_sum(SCHEDULE, 4)[0] - cesaro_sum(SCHEDULE, 3)[0]


def test_sandwich_random_annulus_base():
    from fiberdim import RandomAnnulus

    base = RandomAnnulus(seed=5, min_mod=45, max_mod=80)  # r = log(45/40) > 0.1
    report = sandwich_check(base, SCHEDULE, 0.1, t=0.18, n_max=12)
    assert report.passed()


def test_motion_speed_report():
    zero = motion_speed_check(CONST50, SCHEDULE, 0.0, depth=8)
    assert zero.max_displacement == 0.0 and zero.max_log_ratio == 0.0
    for x in (0.01, 0.1):
        report = motion_speed_check(CONST50, SCHEDULE, x, depth=12)
        assert report.passed()
        assert report.max_displacement <= delta(x) / 9 + 1e-12
        assert report.max_log_ratio <= delta(x) / 6 + 1e-12
        assert report.max_displacement > 0.0


def test_kink_scan_certificates():
    scan = kink_scan(CONST50, SCHEDULE, t=0.18, x_grid=np.linspace(-0.1, 0.1, 5), window=(2, 18))
    assert scan.passed()
    # cesaro extremes over [2, 18] for blocks 2, 4, 8, 16
    assert scan.cesaro_max == 1.0  # n = 2
    assert scan.cesaro_min == pytest.approx(-1 / 3)  # n = 6
    center = scan.rows[len(scan.rows) // 2]
    assert center.x == 0.0
    assert center.p_lower == scan.base_lower and center.p_upper == scan.base_upper
    assert center.sandwich_slack == 0.0
    for row in scan.rows:
        assert row.sandwich_slack <= 1e-9
        assert row.spread_lhs >= row.spread_rhs - 1e-9
        assert row.env_lower <= scan.base_lower + 1e-15
        assert row.env_upper >= scan.base_upper - 1e-15


def test_kink_scan_rejects_asymmetric_grid():
    with pytest.raises(ValueError):
        kink_scan(CONST50, SCHEDULE, 0.18, [0.0, 0.1], (2, 10))


def test_gap_scan_ordering_and_envelopes():
    scan = gap_scan(CONST50, SCHEDULE, np.linspace(-0.08, 0.08, 5), window=(8, 12), tol=1e-4)
    assert scan.passed()
    for row in scan.rows:
        assert row.h_lower <= row.h_upper
        assert 0.0 < row.h_lower < 2.0
    assert scan.gap(0.08) >= 0.0
    assert scan.step_log_min <= scan.step_log_max
    # envelope formulas use the measured one-step extremes
    base_h = scan.rows[2]
    assert base_h.x == 0.0
    predicted = base_h.h_lower * (1 - 0.08 / (2 * scan.step_log_max))
    assert scan.rows[-1].env_lower == pytest.approx(predicted, rel=1e-12)


def test_antisymmetry_of_reports():
    flipped = SignSchedule(2, 2, -1)
    a = sandwich_check(CONST50, SCHEDULE, 0.05, t=0.18, n_max=10)
    b = sandwich_check(CONST50, flipped, -0.05, t=0.18, n_max=10)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.a_pert == rb.a_pert
        assert ra.sign_sum == -rb.sign_sum
    seq_a = PerturbedSequence(CONST50, SCHEDULE, 0.05)
    seq_b = PerturbedSequence(CONST50, flipped, -0.05)
    assert all(at(seq_a, k) == at(seq_b, k) for k in range(1, 300))


def test_sandwich_requires_positive_t():
    with pytest.raises(ValueError):
        sandwich_check(CONST50, SCHEDULE, 0.05, t=0.0, n_max=4)


def test_sandwich_violation_carries_location():
    err = SandwichViolation(7, "0101101")
    assert err.n == 7 and err.word == "0101101"
    assert "n=7" in str(err)
