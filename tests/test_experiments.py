import math
from pathlib import Path

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
from fiberdim import RandomAnnulus, experiments, orbits, parse_sequence
from fiberdim.cli import main
from fiberdim.sequences import PerturbedSequence
from oracles import per_depth_sandwich, zipped_motion

CONST50 = Constant(50)
GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEDULE = SignSchedule(2, 2, 1)


def _within_float_slack(report):
    """Every depth's operator and leaf slack within 1e-9 (sandwich_check raises otherwise)."""
    return max(r.residual for r in report.rows) <= 1e-9 and report.leaf_slack_max <= 1e-9


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
    assert _within_float_slack(report)


def test_sandwich_block_schedule():
    report = sandwich_check(CONST50, SCHEDULE, 0.05, t=0.18, n_max=16)
    assert _within_float_slack(report)
    assert all(r.residual <= 1e-9 for r in report.rows)
    assert report.delta == pytest.approx(math.expm1(0.05), rel=1e-15)
    assert report.delta_linear_bound == pytest.approx(math.e * 0.05, rel=1e-15)
    n16 = report.rows[-1]
    assert n16.n == 16
    assert n16.sign_sum == cesaro_sum(SCHEDULE, 16)[0]


@pytest.mark.parametrize("x", [-0.1, -0.01, 0.01, 0.1])
def test_sandwich_both_signs(x):
    report = sandwich_check(CONST50, SCHEDULE, x, t=0.1, n_max=12)
    assert _within_float_slack(report)


def test_sandwich_mixed_base():
    report = sandwich_check(Periodic((50, 60 + 10j, -45)), SCHEDULE, 0.05, t=0.18, n_max=12)
    assert _within_float_slack(report)


def test_sandwich_at_higher_fiber():
    report = sandwich_check(CONST50, SCHEDULE, 0.08, t=0.15, n_max=10, j=3)
    assert _within_float_slack(report)
    # the fiber-3 window sees signs s_4..s_{3+n}
    assert report.rows[0].sign_sum == cesaro_sum(SCHEDULE, 4)[0] - cesaro_sum(SCHEDULE, 3)[0]


def test_sandwich_random_annulus_base():
    from fiberdim import RandomAnnulus

    base = RandomAnnulus(seed=5, min_mod=45, max_mod=80)  # r = log(45/40) > 0.1
    report = sandwich_check(base, SCHEDULE, 0.1, t=0.18, n_max=12)
    assert _within_float_slack(report)


@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("j", [0, 3])
def test_sandwich_matches_per_depth_brute_force(monkeypatch, anchor, j):
    # 2^3-leaf blocks: every window-cache tree deeper than 4 streams prefix blocks
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 3)
    base, x, t, n_max = Periodic((50, 60 + 10j, -45)), 0.1, 0.18, 10
    brute = per_depth_sandwich(base, SCHEDULE, x, t, n_max, anchor, j)
    report = sandwich_check(base, SCHEDULE, x, t, n_max, anchor=anchor, j=j)
    assert [r.n for r in report.rows] == [b[0] for b in brute]
    for row, (_, a_base, a_pert, residual, _, _) in zip(report.rows, brute):
        assert abs(row.a_base - a_base) <= 1e-12
        assert abs(row.a_pert - a_pert) <= 1e-12
        assert abs(row.residual - residual) <= 1e-12
    leaf_max = max(b[4] for b in brute)
    assert abs(report.leaf_slack_max - leaf_max) <= 1e-12

    # a float slack below the brute force's largest leaf slack, and below each
    # depth's worst value in turn: the first violating (n, word) must agree
    worst = [max(b[3], b[4]) for b in brute]
    for slack in [leaf_max - 1e-9] + [v - 1e-9 for v in worst]:
        assert min(abs(v - slack) for v in worst) > 1e-11  # clear of float noise
        first = next(b for b, v in zip(brute, worst) if v > slack)
        monkeypatch.setattr(experiments, "_FLOAT_SLACK", slack)
        with pytest.raises(SandwichViolation) as err:
            sandwich_check(base, SCHEDULE, x, t, n_max, anchor=anchor, j=j)
        assert (err.value.n, err.value.word) == (first[0], first[5])


ORACLE_BASES = ["const:50", "periodic:50,60+10i,-45", "random:seed=7,min=45,max=80"]


@pytest.mark.parametrize("spec", ORACLE_BASES)
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("j", [0, 3])
def test_paired_table_matches_the_oracles(monkeypatch, spec, anchor, j):
    base, x, t, n_max = parse_sequence(spec), 0.1, 0.18, 16
    brute = per_depth_sandwich(base, SCHEDULE, x, t, n_max, anchor, j)
    report = sandwich_check(base, SCHEDULE, x, t, n_max, anchor=anchor, j=j)
    assert abs(report.leaf_slack_max - max(b[4] for b in brute)) <= 1e-12

    # every depth: the leaf slack from the least and largest leaf Δ of the paired
    # table, and the word its sweep names for the worse side
    pert = PerturbedSequence(base, SCHEDULE, x)
    low, high, _ = orbits.paired_table(base, pert, j, (1, n_max), anchor)
    for row, (n, _, _, _, slack, word) in zip(report.rows, brute):
        above = float(low.leaf_log_max[n - 1]) - x * row.sign_sum
        below = x * row.sign_sum - float(low.leaf_log_min[n - 1])
        assert abs(max(above, below) - n * x / 2 - slack) <= 1e-12, n
        assert (high if above >= below else low).least_word(n) == word, n

    # a float slack below each depth's worst value: the first violating (n, word) agrees
    worst = [max(b[3], b[4]) for b in brute]
    for slack in [v - 1e-9 for v in worst]:
        if min(abs(v - slack) for v in worst) <= 1e-11:  # not clear of float noise
            continue
        first = next(b for b, v in zip(brute, worst) if v > slack)
        monkeypatch.setattr(experiments, "_FLOAT_SLACK", slack)
        with pytest.raises(SandwichViolation) as err:
            sandwich_check(base, SCHEDULE, x, t, n_max, anchor=anchor, j=j)
        assert (err.value.n, err.value.word) == (first[0], first[5])

    motion = motion_speed_check(base, SCHEDULE, x, 16, anchor=anchor, j=j)
    want = zipped_motion(base, SCHEDULE, x, 16, anchor, j)
    assert (motion.max_displacement, motion.max_log_ratio) == want


def _one_tree_cell(seq, t, window, anchor):
    """a_n(t) over the window from the fiber point table of seq alone."""
    sums = orbits.fiber_table(seq, 0, window, anchor).log_sums([t])[:, 0]
    return sums / np.arange(window[0], window[1] + 1)


@pytest.mark.parametrize("spec", ORACLE_BASES)
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("window", [(1, 12), (2, 20), (9, 9)])
def test_grouped_kink_cells_are_bit_identical(spec, anchor, window):
    # the kink scan's 22 cells from tables of groups of g trees, against one table
    # per tree: every cell is the same to the bit for any g, and for an unequal
    # split (5, 5, 5, 6) of the scan's 21 distinct trees, given as parameter rows
    base = parse_sequence(spec)
    seqs = [base] + [PerturbedSequence(base, SCHEDULE, float(x)) for x in np.linspace(-0.1, 0.1, 21)]
    want = [_one_tree_cell(seq, 0.18, window, anchor).view(np.uint64) for seq in seqs]
    for g in (1, 2, 3, 5, 6, 7, 22):
        jobs = [(seqs[i : i + g], 0.18, window, anchor, 0) for i in range(0, len(seqs), g)]
        got = [cell for job in jobs for cell in experiments._kink_cells(job)]
        assert len(got) == len(want)
        assert all(np.array_equal(a.view(np.uint64), b) for a, b in zip(got, want)), g
    distinct = seqs[:11] + seqs[12:]  # seqs[11] is x = 0, the base's parameters
    rows = orbits.parameter_rows(distinct, 0, window[1])
    cuts = [0, 5, 10, 15, 21]
    jobs = [(rows[a:b], 0.18, window, anchor, 0) for a, b in zip(cuts, cuts[1:])]
    got = [cell for job in jobs for cell in experiments._kink_cells(job)]
    assert all(np.array_equal(a.view(np.uint64), b) for a, b in zip(got, want[:11] + want[12:]))


def _record_kink_groups(monkeypatch):
    """The parameter rows of each group that reaches experiments._kink_cells, in call order."""
    groups, cells = [], experiments._kink_cells

    def record(args):
        groups.append(args[0])
        return cells(args)

    monkeypatch.setattr(experiments, "_kink_cells", record)
    return groups


@pytest.mark.parametrize("points, trees", [(3, 3), (8, 9), (9, 9), (21, 21), (23, 23)])
def test_kink_scan_runs_its_groups_through_run_jobs(monkeypatch, points, trees):
    # one run_jobs job per group, in order: the distinct trees (the base, then x
    # ascending but the middle x of an odd grid) in the fewest groups of at most
    # experiments._GROUP, with sizes differing by at most one; an even grid builds
    # every tree.  The middle x of 23 points is 1.4e-17, where exp(x s_k) rounds
    # to 1: the base's parameters, so the base's tree
    calls, groups = [], _record_kink_groups(monkeypatch)

    def record(fn, args_list, workers=1):
        calls.append([len(args[0]) for args in args_list])
        return [fn(args) for args in args_list]

    monkeypatch.setattr(experiments, "run_jobs", record)
    grid = np.linspace(-0.1, 0.1, points)
    kink_scan(CONST50, SCHEDULE, 0.18, grid, (2, 8))
    (sizes,) = calls
    assert sum(sizes) == trees and len(sizes) == -(-trees // experiments._GROUP)
    assert max(sizes) <= experiments._GROUP and max(sizes) - min(sizes) <= 1
    seqs = [CONST50] + [PerturbedSequence(CONST50, SCHEDULE, float(x)) for x in grid if abs(x) > 1e-16]
    want = orbits.parameter_rows(seqs, 0, 8)
    assert np.array_equal(np.concatenate(groups).view(np.uint64), want.view(np.uint64))


def test_kink_scan_builds_the_base_tree_once(monkeypatch):
    # x = 0 gives the base's parameters bit for bit, so an odd grid builds one
    # tree fewer than it has rows, and its x = 0 row reads the base's cells
    groups = _record_kink_groups(monkeypatch)
    scan = kink_scan(CONST50, SCHEDULE, 0.18, np.linspace(-0.1, 0.1, 9), (2, 12))
    assert sum(map(len, groups)) == 9
    zero = _one_tree_cell(PerturbedSequence(CONST50, SCHEDULE, 0.0), 0.18, (2, 12), 1.0)
    base = _one_tree_cell(CONST50, 0.18, (2, 12), 1.0)
    assert np.array_equal(zero.view(np.uint64), base.view(np.uint64))
    center = scan.rows[4]
    assert center.x == 0.0
    got = np.array([center.p_lower, center.p_upper, center.sandwich_slack]).view(np.uint64)
    assert np.array_equal(got, np.array([base.min(), base.max(), 0.0]).view(np.uint64))


def test_kink_scan_keeps_a_signed_zero_tree_apart(monkeypatch, tmp_path, capsys):
    # const:50-0i has l = 50 - 0i, and its x = 0 tree l = 1.0 * (50 - 0i) = 50 + 0i:
    # different bits, so both trees are built; stdout and CSV frozen from the
    # scan that built every row's tree
    groups = _record_kink_groups(monkeypatch)
    out = tmp_path / "kink.csv"
    assert main(["perturb", "--mode", "kink", "--base", "const:50-0i", "--x=-0.1:0.1:5",
                 "--window", "2:12", "-o", str(out)]) == 0
    assert sum(map(len, groups)) == 6
    want = GOLDEN / "kink_const50-0i"
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    assert out.read_bytes() == (want / "kink.csv").read_bytes()


def test_paired_levels_stay_small():
    # real parameters from an off-axis anchor never share point bits: the pairs
    # merge on the grid key of both members, and no level grows past 2^13
    pert = PerturbedSequence(CONST50, SCHEDULE, 0.1)
    levels, steps_1, _, _ = orbits._fiber_table([CONST50, pert], 0, (1, 22), -1.05 + 0.1j, "planar")
    assert max(steps.size for steps, *_ in levels) < 2**13 and steps_1.size < 2**13


def test_verify_runs_the_certificates_at_the_requested_depth():
    from fiberdim.verification import check_experiments_sandwich, check_orbits_motion

    seq = RandomAnnulus(seed=7, min_mod=45, max_mod=80)
    assert "n<= 20:" in check_experiments_sandwich(seq, 20).detail
    assert "depth=20:" in check_orbits_motion(seq, 20).detail


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
    assert scan.rows[-1].x == 0.08 and scan.rows[-1].h_upper - scan.rows[-1].h_lower >= 0.0
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
