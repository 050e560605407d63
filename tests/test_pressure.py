import io
import math

import numpy as np
import pytest

from fiberdim import (
    BracketFailure,
    Constant,
    Periodic,
    RandomAnnulus,
    bowen_zero,
    default_window,
    dimension_pair,
    leaf_log_derivs,
    operator_power,
    pressure_curve,
    write_pressure_csv,
    write_roots_csv,
)
from fiberdim import orbits
from fiberdim.pressure import _WindowPressure

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


@pytest.mark.parametrize("seq", [CONST50, MIXED, RandomAnnulus(seed=5)], ids=format)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("j", [0, 3])
@pytest.mark.parametrize("anchor", [1.0, -1.05 + 0.1j])
def test_split_reduction_matches_direct_trees(monkeypatch, seq, metric, j, anchor):
    # Subtrees of 2^3 leaves: every tree deeper than 3 is split into several jobs.
    # From anchor 1 the depths also come from the top-step recurrence over W_n.
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 3)
    t_grid = np.linspace(0.0, 0.4, 5)
    curve = pressure_curve(seq, t_grid, (1, 10), j=j, anchor=anchor, metric=metric)
    stats = {}
    for i, n in enumerate(curve.n_values.tolist()):
        direct = operator_power(seq, j, n, t_grid, anchor, metric)
        want = np.array([v.log_value for v in direct]) / n
        assert np.abs(curve.values[i] - want).max() <= 1e-13
        stats[n] = leaf_log_derivs(seq, j, n, anchor, metric)[1]
        assert abs(curve.leaf_log_min[i] - stats[n].leaf_log_min) <= 1e-12
        assert abs(curve.leaf_log_max[i] - stats[n].leaf_log_max) <= 1e-12

    window = _WindowPressure(seq, (6, 10), j, anchor, metric)
    depths = range(6, 11)
    for i, n in enumerate(depths):
        assert abs(window.leaf_log_min[i] - stats[n].leaf_log_min) <= 1e-12
        assert abs(window.leaf_log_max[i] - stats[n].leaf_log_max) <= 1e-12
    t = 0.23
    want_rows = [operator_power(seq, j, n, [t], anchor, metric)[0].log_value / n for n in depths]
    assert np.abs(window.rows(t) - want_rows).max() <= 1e-13
    want_bracket = (
        min(n * LOG2 / stats[n].leaf_log_max for n in depths),
        max(n * LOG2 / stats[n].leaf_log_min for n in depths),
    )
    assert window.bracket() == pytest.approx(want_bracket, rel=1e-12, abs=0)


def test_default_window():
    assert default_window(4, 20) == (10, 20)
    assert default_window(12, 20) == (12, 20)


def test_windowed_envelopes():
    curve = pressure_curve(CONST50, np.linspace(0.0, 0.4, 5), (4, 12), window=(8, 12))
    mask = (curve.n_values >= 8) & (curve.n_values <= 12)
    assert np.array_equal(curve.lower, curve.values[mask].min(axis=0))
    assert np.array_equal(curve.upper, curve.values[mask].max(axis=0))
    assert np.array_equal(curve.row(8), curve.values[4])


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
    with pytest.raises(ValueError, match="below the float resolution"):
        bowen_zero(CONST50, "lower", (4, 6), tol=1e-20)


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


def test_bracket_failure_is_detectable():
    # the guaranteed bracket always straddles zero for genuine curves, so the
    # failure path is exercised through the exception type itself
    assert issubclass(BracketFailure, RuntimeError)
