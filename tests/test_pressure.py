import io
import math
import tracemalloc

import numpy as np
import pytest

from fiberdim import (
    BracketFailure,
    Constant,
    Periodic,
    RandomAnnulus,
    UnreachableTolerance,
    bowen_zero,
    default_window,
    dimension_pair,
    leaf_log_derivs,
    operator_power,
    pressure_curve,
    write_pressure_csv,
    write_roots_csv,
)
from fiberdim import orbits, pressure
from fiberdim.cli import main
from fiberdim.pressure import WindowPressure
from fiberdim.sequences import parse_sequence
from oracles import bisection_zero, plain_blocks

CONST50 = Constant(50)
MIXED = Periodic((50, 60 + 10j, -45))
LOG2 = math.log(2.0)


def test_single_step_pressure():
    curve = pressure_curve(CONST50, [1.0], (1, 1))
    assert curve.values[0, 0] == pytest.approx(LOG2 - math.log(50), rel=1e-14)


def test_zero_column_is_log2():
    for seq in (CONST50, MIXED):
        curve = pressure_curve(seq, np.linspace(0.0, 0.4, 9), (2, 12))
        assert float(np.abs(curve.values[:, 0] - LOG2).max()) <= 1e-12


def test_rows_strictly_decreasing_and_convex():
    curve = pressure_curve(MIXED, np.linspace(0.0, 0.4, 21), (2, 12))
    assert bool((np.diff(curve.values, axis=1) < 0).all())
    assert bool((np.diff(curve.values, 2, axis=1) >= -1e-12).all())


def test_slope_bracket_exact():
    curve = pressure_curve(CONST50, np.linspace(0.0, 0.4, 21), (2, 12))
    dt = np.diff(curve.t_grid)
    for i, n in enumerate(curve.n_values):
        diff = np.diff(curve.values[i])
        lo = -dt * curve.leaf_log_max[i] / n
        hi = -dt * curve.leaf_log_min[i] / n
        assert bool((diff >= lo - 1e-12).all())
        assert bool((diff <= hi + 1e-12).all())


TABLE_SPECS = [
    "const:50",
    "const:1000",
    "random:seed=7,min=45,max=80",
    "perturb:base=random:seed=7,min=45,max=80;blocks=2x2;x=0.1",
    "periodic:55.1+20i,-60+30.5i",
]
TABLE_T = (0.0, 0.18, 0.4, 50.0)  # at t = 50 most weights of a sweep underflow
# The fiber point table adds each leaf's step logs from the leaf end, the
# traversal from the root, so its leaf extremes may differ from the
# traversal's in the last bits (4 ulps seen at most).
TABLE_ORDER_ULPS = 8


def _ulps(value, want):
    return np.abs(np.asarray(value) - want) / np.spacing(np.abs(want))


def _leaf_extremes(seq, j, n, anchor, metric):
    """The least and largest leaf log-derivative of the depth-n tree, over the traversal's blocks."""
    blocks = [lds for _, _, lds in orbits.iter_leaf_blocks(seq, j, n, anchor, metric)]
    return min(float(lds.min()) for lds in blocks), max(float(lds.max()) for lds in blocks)


@pytest.mark.parametrize("spec", TABLE_SPECS)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
def test_table_sums_match_operator_power(spec, metric, anchor):
    # const:50 and const:1000 from the off-axis anchor keep no two points
    # bit-equal; their tables merge points on the grid key
    seq = parse_sequence(spec)
    direct = {}
    for n in range(1, 21):
        want = np.array([v.log_value for v in operator_power(seq, 0, n, TABLE_T, anchor, metric)])
        direct[n] = want, _leaf_extremes(seq, 0, n, anchor, metric)
    for n_lo, n_hi in [(1, 1), (1, 12), (8, 20)]:
        table = orbits.fiber_table(seq, 0, (n_lo, n_hi), anchor, metric)
        sums = table.log_sums(TABLE_T)
        for i, n in enumerate(range(n_lo, n_hi + 1)):
            want, (leaf_min, leaf_max) = direct[n]
            assert np.all(np.abs(sums[i] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
            assert abs(sums[i, 0] - n * LOG2) <= 1e-15 * n  # a_n(0) = log 2
            assert _ulps(table.leaf_log_min[i], leaf_min) <= TABLE_ORDER_ULPS
            assert _ulps(table.leaf_log_max[i], leaf_max) <= TABLE_ORDER_ULPS


@pytest.mark.parametrize("spec", TABLE_SPECS)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("n", [1, 12, 20])  # grid cells merge from about level 12
def test_single_depth_tables_match_operator_power(spec, metric, anchor, n):
    # n_range = (n, n) keeps no anchor copy below the top level, the table
    # gap_scan and single-depth windows build
    seq = parse_sequence(spec)
    want = np.array([v.log_value for v in operator_power(seq, 0, n, TABLE_T, anchor, metric)])
    leaf_min, leaf_max = _leaf_extremes(seq, 0, n, anchor, metric)
    table = orbits.fiber_table(seq, 0, (n, n), anchor, metric)
    sums = table.log_sums(TABLE_T)
    assert sums.shape == (1, len(TABLE_T))
    assert np.all(np.abs(sums[0] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert abs(sums[0, 0] - n * LOG2) <= 1e-15 * n  # a_n(0) = log 2
    assert _ulps(table.leaf_log_min[0], leaf_min) <= TABLE_ORDER_ULPS
    assert _ulps(table.leaf_log_max[0], leaf_max) <= TABLE_ORDER_ULPS


@pytest.mark.parametrize("spec", ["const:50", TABLE_SPECS[3]])
def test_table_sums_match_streamed_oracle(monkeypatch, spec):
    # 2^5-leaf blocks: the oracle streams prefix blocks; the table, built at
    # fiber 3 from the off-axis anchor, does not read _BLOCK_LOG2
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 5)
    seq, anchor = parse_sequence(spec), -1.05 + 0.1j
    sums = orbits.fiber_table(seq, 3, (1, 12), anchor, "spherical").log_sums(TABLE_T)
    for i, n in enumerate(range(1, 13)):
        ops = operator_power(seq, 3, n, TABLE_T, anchor, "spherical")
        want = np.array([v.log_value for v in ops])
        assert np.all(np.abs(sums[i] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_table_columns_change_no_bit_across_t():
    # each t is swept on its own: a column is the same alone or among 70, and
    # log_sums_slopes gives it bit for bit
    seq, t_grid = parse_sequence(TABLE_SPECS[2]), np.linspace(0.0, 2.0, 70)
    table = orbits.fiber_table(seq, 0, (6, 14), -1.0, "spherical")
    sums = table.log_sums(t_grid)
    for k in range(0, 70, 9):
        one = table.log_sums([t_grid[k]])
        assert np.array_equal(one[:, 0], sums[:, k])
        assert np.array_equal(table.log_sums_slopes(t_grid[k])[0], sums[:, k])


@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
def test_group_tables_match_one_tree_tables(metric, anchor):
    # a table of a group of trees, sorted under one key, has each tree's sums
    # and leaf extremes to the bit (const:50 from the anchor 1 is its own root)
    seqs = [parse_sequence(spec) for spec in TABLE_SPECS]
    for n_range in [(1, 12), (8, 20), (12, 12)]:
        group = orbits.fiber_table(seqs, 2, n_range, anchor, metric)
        sums = group.log_sums(TABLE_T)
        assert sums.shape == (n_range[1] - n_range[0] + 1, len(seqs), len(TABLE_T))
        for i, seq in enumerate(seqs):
            one = orbits.fiber_table(seq, 2, n_range, anchor, metric)
            for got, want in ((group.leaf_log_min[:, i], one.leaf_log_min),
                              (group.leaf_log_max[:, i], one.leaf_log_max),
                              (sums[:, i], one.log_sums(TABLE_T))):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n_range, i)


@pytest.mark.parametrize("modulus", [np.nextafter(40.0, 41.0), 41.0, 1e3, 1e9])
def test_branch0_roots_keep_the_group_key_apart(modulus):
    # the group tables scale a root's Re by 2**tree: exact, and the trees stay
    # apart if every branch-0 root from the closed trapping disks has Re in
    # (0.93, 1.06), so that the largest is under twice the least
    theta = np.linspace(0.0, 2.0 * math.pi, 721)
    rim = np.concatenate([center + np.exp(1j * theta) / 3.0 for center in (1.0, -1.0)])
    for arg in np.linspace(0.0, 2.0 * math.pi, 73):
        roots = rim.copy()
        orbits._branch0_root(complex(modulus * np.exp(1j * arg)), roots)
        assert 0.93 < roots.real.min() and roots.real.max() < 1.06
        assert roots.real.max() < 2.0 * roots.real.min()


# The grid key's certificate (orbits docstring): a depth-n leaf log-derivative
# moves by less than MERGE_LIPSCHITZ[metric] * n * q when cells merge.
MERGE_LIPSCHITZ = {"planar": 0.03, "spherical": 1.13}


@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_grid_merged_table_within_merge_bound(monkeypatch, metric):
    # const:50 from the off-axis anchor keeps no two points bit-equal, so the
    # table with the identity key is bit-exact: it merges no point
    seq, anchor, n_range = parse_sequence("const:50"), -1.05 + 0.1j, (1, 16)
    merged = orbits.fiber_table(seq, 0, n_range, anchor, metric)
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_grid_key", lambda pts: pts)
        exact = orbits.fiber_table(seq, 0, n_range, anchor, metric)
    assert merged._size < exact._size  # the key merges points: the bound is put to work
    depths = np.arange(n_range[0], n_range[1] + 1)
    bound = MERGE_LIPSCHITZ[metric] * depths * orbits._GRID
    for got, want in ((merged.leaf_log_min, exact.leaf_log_min),
                      (merged.leaf_log_max, exact.leaf_log_max)):
        assert np.all(np.abs(got - want) <= bound + TABLE_ORDER_ULPS * np.spacing(want))
    got, want = merged.log_sums(TABLE_T), exact.log_sums(TABLE_T)
    slack = np.multiply.outer(bound, TABLE_T) + 1e-13 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= slack)


@pytest.mark.parametrize(
    "spec,anchor,n_range",
    [("random:seed=7,min=45,max=80", 1.0, (4, 26)), ("const:50", -1.05 + 0.1j, (4, 26))],
)
def test_operator_sums_hold_no_value_per_leaf(spec, anchor, n_range):
    # const:50 from the off-axis anchor keeps no two points bit-equal: its
    # table stays small only by merging points on the grid key
    tracemalloc.start()
    try:
        table = orbits.fiber_table(parse_sequence(spec), 0, n_range, anchor)
        table.log_sums(np.linspace(0, 0.4, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "spec",
    [
        # near |l| = 40, where the branches contract least
        "const:39.99847792252877+0.34906142866149287i",
        "const:39.847789+3.486230i",
    ],
)
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_table_levels_stay_under_the_documented_bound(spec, anchor, metric):
    # every level of a table holds fewer than 2^13 points (orbits docstring,
    # certificate of the grid key)
    seq = parse_sequence(spec)
    levels, steps_1, _, _ = orbits._fiber_table([seq], 0, (1, 26), anchor, metric)
    assert max(steps.size for steps, *_ in levels) < 2**13 and steps_1.size < 2**13


@pytest.mark.parametrize("spec", TABLE_SPECS)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("n", [12, 20])
def test_table_step_extremes_match_the_traversal(spec, metric, anchor, n):
    # gap_scan and verify read the step extremes of the depth-n tree from its
    # table; a point merged away on the grid key has held no extreme in these cases
    seq = parse_sequence(spec)
    steps = []
    for _ in plain_blocks(seq, 0, n, anchor, metric, steps):
        pass
    table = orbits.fiber_table(seq, 0, (n, n), anchor, metric)
    want = min(lo for lo, _ in steps), max(hi for _, hi in steps)
    assert (table.step_log_min, table.step_log_max) == want


@pytest.mark.parametrize("seq", [CONST50, MIXED, RandomAnnulus(seed=5)], ids=format)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("j", [0, 3])
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
def test_split_reduction_matches_direct_trees(monkeypatch, seq, metric, j, anchor):
    # 2^3-leaf blocks: the tables do not depend on the block size, while the
    # direct trees deeper than 3 stream prefix blocks.
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 3)
    t_grid = np.linspace(0.0, 0.4, 5)
    curve = pressure_curve(seq, t_grid, (1, 10), j=j, anchor=anchor, metric=metric)
    extremes = {}
    for i, n in enumerate(curve.n_values.tolist()):
        direct = operator_power(seq, j, n, t_grid, anchor, metric)
        want = np.array([v.log_value for v in direct]) / n
        assert np.abs(curve.values[i] - want).max() <= 1e-13
        lds = leaf_log_derivs(seq, j, n, anchor, metric)  # the half holds every leaf value
        extremes[n] = float(lds.min()), float(lds.max())
        assert abs(curve.leaf_log_min[i] - extremes[n][0]) <= 1e-12
        assert abs(curve.leaf_log_max[i] - extremes[n][1]) <= 1e-12

    window = WindowPressure(seq, (6, 10), j, anchor, metric)
    depths = range(6, 11)
    for i, n in enumerate(depths):
        assert abs(window.leaf_log_min[i] - extremes[n][0]) <= 1e-12
        assert abs(window.leaf_log_max[i] - extremes[n][1]) <= 1e-12
    t = 0.23
    want_rows = [operator_power(seq, j, n, [t], anchor, metric)[0].log_value / n for n in depths]
    rows, slopes = window.rows_and_slopes(t)
    assert np.abs(rows - want_rows).max() <= 1e-13
    for slope, n in zip(slopes, depths):
        assert slope == pytest.approx(_leaf_slope(seq, j, n, anchor, metric, t), rel=1e-12, abs=0)
    want_bracket = (
        min(n * LOG2 / extremes[n][1] for n in depths),
        max(n * LOG2 / extremes[n][0] for n in depths),
    )
    assert window.bracket() == pytest.approx(want_bracket, rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", TABLE_SPECS)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("j", [0, 3])
def test_window_leaf_extremes_match_operator_sums(spec, metric, anchor, j):
    # the window and pressure_curve read the same fiber point table
    seq = parse_sequence(spec)
    window = WindowPressure(seq, (8, 20), j, anchor, metric)
    curve = pressure_curve(seq, [0.0], (8, 20), j, anchor, metric)
    assert np.array_equal(curve.leaf_log_min, window.leaf_log_min)
    assert np.array_equal(curve.leaf_log_max, window.leaf_log_max)


def _leaf_slope(seq, j, n, anchor, metric, t):
    """a_n'(t) = -(sum w ld / sum w) / n over the depth-n leaves, w = exp(-t ld), by fsum."""
    lds = leaf_log_derivs(seq, j, n, anchor, metric)  # each value stands for two leaves
    w = np.exp(lds * -t - np.max(lds * -t))
    return -math.fsum(w * lds) / math.fsum(w) / n


@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
@pytest.mark.parametrize("block_log2", [None, 3])
def test_window_rows_and_slopes_match_direct_trees(monkeypatch, metric, anchor, block_log2):
    # the window sweeps its fiber point table at any _BLOCK_LOG2; with 2^3-leaf
    # blocks the direct trees deeper than 3 stream prefix blocks
    if block_log2 is not None:
        monkeypatch.setattr(orbits, "_BLOCK_LOG2", block_log2)
    depths = range(4, 11)
    window = WindowPressure(MIXED, (4, 10), 0, anchor, metric)
    for t in (0.0, 0.18, 0.4):
        rows, slopes = window.rows_and_slopes(t)
        want = [operator_power(MIXED, 0, n, [t], anchor, metric)[0].log_value / n for n in depths]
        assert np.abs(rows - want).max() <= 1e-13
        if block_log2 is None:  # the same sweep as pressure_curve
            sums = pressure_curve(MIXED, [t], (4, 10), 0, anchor, metric).values[:, 0]
            assert np.array_equal(rows, sums)
        for slope, n in zip(slopes, depths):
            want = _leaf_slope(MIXED, 0, n, anchor, metric, t)
            assert slope == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("seq", [CONST50, MIXED, RandomAnnulus(seed=5)], ids=format)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_newton_zeros_match_bisection_oracle(seq, metric):
    tol = 1e-10
    window = WindowPressure(seq, (8, 12), 0, 1.0, metric)
    for zero, reduce in zip(dimension_pair(seq, (8, 12), tol, metric=metric), (np.min, np.max)):
        assert abs(zero.residual) <= tol
        want = bisection_zero(window, reduce, zero.bracket, tol / 100)
        assert abs(zero.t_star - want) <= zero.uncertainty


def test_unreachable_tol_is_rejected_before_iterating(monkeypatch):
    window = WindowPressure(CONST50, (4, 6))
    with pytest.raises(UnreachableTolerance, match="at the bracket ends"):
        window.zero("lower", 1e-20)
    assert window.evaluations == 2  # the bracket ends only
    # without the up-front check the bracket runs out of floats first, unless
    # the residual happens to cancel to 0.0 exactly (it does for that zero)
    monkeypatch.setattr(pressure, "_ROUNDING_ULPS", 0)
    with pytest.raises(UnreachableTolerance, match="holds no float inside"):
        WindowPressure(Periodic((50, 60 + 10j)), (8, 12)).zero("upper", 1e-20)


@pytest.mark.parametrize("seq", [CONST50, MIXED, RandomAnnulus(seed=5)], ids=format)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
def test_reachable_tols_are_accepted(seq, metric, anchor):
    # the goldens' default 1e-4, the CI smoke runs' 1e-8, the benchmark's 1e-10,
    # and tighter ones down to a few ulps of the terms a_n is computed from
    for window in ((4, 8), (8, 12)):
        for tol in (1e-4, 1e-8, 1e-10, 1e-13, 1e-15):
            for zero in dimension_pair(seq, window, tol, anchor=anchor, metric=metric):
                assert abs(zero.residual) <= tol


def test_newton_evaluation_count():
    # both zeros share one window cache: its evaluations are the pair's total
    lower, upper = dimension_pair(CONST50, (8, 12), tol=1e-10)
    assert lower.evaluations <= upper.evaluations <= 10
    assert max(abs(lower.residual), abs(upper.residual)) <= 1e-10


def test_uncertainty_uses_the_slope_floor():
    # spherical steps from -4/3 under |l| = 40.001 fall below log(80/3)
    seq, window, anchor, tol = Constant(40.001), (1, 3), -4 / 3, 1e-6
    s_min = min(
        leaf_log_derivs(seq, 0, n, anchor, "spherical").min() / n
        for n in range(window[0], window[1] + 1)
    )
    assert s_min < math.log(80 / 3)
    wp = WindowPressure(seq, window, 0, anchor, "spherical")
    for zero, reduce in zip(
        dimension_pair(seq, window, tol, anchor=anchor, metric="spherical"), (np.min, np.max)
    ):
        assert zero.uncertainty == pytest.approx(tol / s_min, rel=1e-12, abs=0)
        want = bisection_zero(wp, reduce, zero.bracket, tol / 100)
        assert abs(zero.t_star - want) <= zero.uncertainty
    # planar steps are at least log(80/3): the claim is tol / log(80/3) exactly
    assert bowen_zero(CONST50, "upper", (4, 6), tol).uncertainty == tol / math.log(80 / 3)


def test_default_window():
    assert default_window(4, 20) == (10, 20)
    assert default_window(12, 20) == (12, 20)


def test_windowed_envelopes():
    curve = pressure_curve(CONST50, np.linspace(0.0, 0.4, 5), (4, 12), window=(8, 12))
    mask = (curve.n_values >= 8) & (curve.n_values <= 12)
    assert np.array_equal(curve.lower, curve.values[mask].min(axis=0))
    assert np.array_equal(curve.upper, curve.values[mask].max(axis=0))
    assert curve.n_values[4] == 8 and curve.values.shape == (9, 5)  # row 4 holds n = 8


def test_anchor_dependence_shrinks():
    # a_n computed from different anchors differs by O(1/n)
    t = [0.18]
    diffs = {}
    for n in (4, 16):
        a1 = pressure_curve(CONST50, t, (n, n), anchor=1.0).values[0, 0]
        a2 = pressure_curve(CONST50, t, (n, n), anchor=-1.05 + 0.1j).values[0, 0]
        diffs[n] = abs(a1 - a2)
    assert diffs[16] <= diffs[4] / 2
    assert diffs[16] < 0.01


def test_bowen_zero_closed_form_bracket():
    # |f'| in [100/3, 200/3] on the disks pins the root between the two ratios
    root = bowen_zero(CONST50, "lower", (12, 16), tol=1e-4)
    lo = LOG2 / math.log(200 / 3)
    hi = LOG2 / math.log(100 / 3)
    assert lo <= root.t_star <= hi
    assert abs(root.residual) <= 1e-4
    assert root.uncertainty == pytest.approx(1e-4 / math.log(80 / 3), rel=1e-12)
    assert root.bracket[0] > 0.0  # t = 0 is never a root: a_n(0) = log 2 > 0


def test_lower_upper_agree_on_deterministic_instance():
    lower, upper = dimension_pair(CONST50, (16, 20), tol=1e-4)
    assert lower.t_star <= upper.t_star
    assert upper.t_star - lower.t_star <= 2e-4


def test_both_dimensions_in_planar_range():
    for seq in (CONST50, MIXED):
        lower, upper = dimension_pair(seq, (8, 12), tol=1e-4)
        assert 0.0 < lower.t_star <= upper.t_star < 2.0


def test_bisection_refinement_consistency():
    coarse = bowen_zero(CONST50, "lower", (8, 12), tol=1e-3)
    fine = bowen_zero(CONST50, "lower", (8, 12), tol=1e-4)
    assert abs(coarse.t_star - fine.t_star) <= coarse.uncertainty + fine.uncertainty


def test_window_monotonicity_of_roots():
    narrow = dimension_pair(MIXED, (10, 12), tol=1e-5)
    wide = dimension_pair(MIXED, (6, 12), tol=1e-5)
    slack = narrow[0].uncertainty + wide[0].uncertainty
    assert wide[0].t_star <= narrow[0].t_star + slack
    assert wide[1].t_star >= narrow[1].t_star - slack


def test_single_n_window_form():
    root_int = bowen_zero(CONST50, "lower", 10, tol=1e-4)
    root_pair = bowen_zero(CONST50, "lower", (10, 10), tol=1e-4)
    assert root_int.t_star == root_pair.t_star
    # at depth 1 every leaf has log-derivative log 50: the bracket is one point, the root
    one = bowen_zero(CONST50, "lower", 1, tol=1e-4)
    assert one.bracket[0] == one.bracket[1] == one.t_star


@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("window", [(1, 1), (1, 2), (1, 3)])
def test_bracket_end_within_rounding_of_zero(window, metric):
    # a_1 rounds to +1.1e-16 at its analytic right end, which counts as 0
    seq = parse_sequence("periodic:55.1+20i,-60+30.5i")
    lower, upper = dimension_pair(seq, window, tol=1e-4, metric=metric)
    for root in (lower, upper):
        assert root.bracket[0] <= root.t_star <= root.bracket[1]
        assert abs(root.residual) <= 1e-4
    assert lower.t_star <= upper.t_star


def test_metric_option_shifts_root_slightly():
    planar = bowen_zero(CONST50, "lower", (10, 14), tol=1e-6)
    spherical = bowen_zero(CONST50, "lower", (10, 14), tol=1e-6, metric="spherical")
    assert planar.t_star != spherical.t_star
    assert abs(planar.t_star - spherical.t_star) < 0.01


def test_validation_errors():
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [-0.1, 0.2], (2, 5))
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [0.1], (5, 2))
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [0.1], (2, 8), window=(1, 8))
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [], (2, 5))
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [0.1, math.nan], (2, 5))
    with pytest.raises(ValueError):
        pressure_curve(CONST50, [0.1, math.inf], (2, 5))
    with pytest.raises(ValueError):
        bowen_zero(CONST50, "middle", (4, 8))
    with pytest.raises(ValueError):
        bowen_zero(CONST50, "lower", (4, 8), tol=0.0)
    with pytest.raises(UnreachableTolerance, match="below the float resolution"):
        bowen_zero(CONST50, "lower", (4, 6), tol=1e-20)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-4, math.inf])
def test_zero_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # unchecked, a NaN tol returns a root with residual 2.8e-3 and uncertainty nan
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        WindowPressure(CONST50, (4, 6)).zero("lower", tol)


def test_zero_rejects_an_unknown_side():
    # unchecked, "middle" returns the upper root labelled "middle", after evaluations
    window = WindowPressure(CONST50, (4, 6))
    with pytest.raises(ValueError, match="which must be 'lower' or 'upper'"):
        window.zero("middle", 1e-4)
    assert window.evaluations == 0


def test_csv_formats():
    curve = pressure_curve(CONST50, [0.0, 0.2], (2, 3))
    buf = io.StringIO()
    write_pressure_csv(curve, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,t,a_n"
    assert len(lines) == 1 + 2 * 2
    assert lines[1] == f"2,0,{curve.values[0, 0]:.17g}"

    root = bowen_zero(CONST50, "upper", (4, 6), tol=1e-3)
    buf = io.StringIO()
    write_roots_csv([root], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "which,t_star,uncertainty,n_window"
    assert lines[1].startswith("upper,") and lines[1].endswith("4:6")


def test_bracket_failure_is_detectable(monkeypatch, tmp_path, capsys):
    # The analytic bracket always straddles zero for genuine curves, so a bracket
    # right of both zeros is forced: the estimate is negative at its left end.
    assert issubclass(BracketFailure, RuntimeError)
    monkeypatch.setattr(WindowPressure, "bracket", lambda self: (1.5, 1.9))
    with pytest.raises(BracketFailure, match="do not straddle 0"):
        bowen_zero(CONST50, "lower", (4, 6))
    with pytest.raises(BracketFailure, match="do not straddle 0"):
        dimension_pair(CONST50, (4, 6))
    out = tmp_path / "roots.csv"
    assert main(["dimension", "--seq", "const:50", "--window", "4:6", "-o", str(out)]) == 1
    assert "invariant failure:" in capsys.readouterr().err
    assert not out.exists()
