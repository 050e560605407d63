"""Perturbation experiments: sandwich identities, motion speed, kink and gap scans.

The multiplicative perturbation l_k(x) = exp(x s_k) eta_k admits an exact
finite-depth comparison between base and perturbed operator sums,

    | a_n(pert) - (a_n(base) - t x S_n / n) |  <=  t |x| / 2,

with S_n the partial sign sum, valid for every depth n (not just in the
limit), because same-word leaves of the two trees stay within delta/9 of each
other and their moduli within exp(+-delta/6).  Any violation beyond float
slack is an implementation bug; the kink and gap scans then trace how the
windowed pressure envelopes and the dimension pair spread out as |x| grows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SandwichViolation
from .orbits import PLANAR, fiber_table, paired_table, parameter_rows
from .parallel import run_jobs
from .pressure import dimension_pair
from .sequences import (
    PerturbedSequence,
    SequenceSpec,
    SignSchedule,
    cesaro_sum,
    delta,
    delta_linear_bound,
)

_FLOAT_SLACK = 1e-9
_MOTION_SLACK = 1e-12
_GROUP = 6  # trees per kink table build at most; each adds ~0.28 MiB to its traced peak


class SandwichRow(NamedTuple):
    n: int
    sign_sum: int
    a_base: float
    a_pert: float
    residual: float  # |a_pert - (a_base - t x S_n/n)| - t|x|/2, nonpositive


class PerturbationReport(NamedTuple):
    schedule: SignSchedule
    x: float
    t: float
    delta: float
    delta_linear_bound: float
    rows: tuple[SandwichRow, ...]
    leaf_slack_max: float  # max over leaves/depths of |dlog - x S_n| - n|x|/2

    def summary(self) -> str:
        # sandwich_check raises on any violation, so every report passed
        worst = max(r.residual for r in self.rows)
        return (
            f"sandwich x={self.x:g} t={self.t:g} n<= {self.rows[-1].n}: pass "
            f"(worst operator slack {worst:.3e}, worst leaf slack {self.leaf_slack_max:.3e})"
        )


def sandwich_check(
    base: SequenceSpec,
    schedule: SignSchedule,
    x: float,
    t: float,
    n_max: int,
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
) -> PerturbationReport:
    """Exact finite-depth comparison of base and perturbed pressure terms.

    Verifies, for every n <= n_max, the operator-level inequality above and
    the leaf-level form |log_deriv_pert - log_deriv_base - x S_n| <= n|x|/2
    over all leaves: a_n from the fiber point tables (_kink_cells), the
    leaves from the least and the largest same-word difference
    Δ = log_deriv_pert - log_deriv_base of each depth, read from the paired
    table of both trees.  A violation beyond float slack is a bug:
    SandwichViolation names the worst leaf of the first failing depth.
    """
    if not 0 < t < math.inf:  # also rejects NaN
        raise ValueError("sandwich_check requires a finite t > 0")
    pert = PerturbedSequence(base, schedule, x)
    a_base, a_pert = (a.tolist() for a in _kink_cells(([base, pert], t, (1, n_max), anchor, j)))
    low, high, _ = paired_table(base, pert, j, (1, n_max), anchor)  # over Δ and -Δ
    # signs entering fiber j are s_{j+1}, ..., s_{j+n}
    offset = cesaro_sum(schedule, j)[0] if j else 0
    rows = []
    leaf_slack_max = -math.inf
    for n in range(1, n_max + 1):
        s_n = cesaro_sum(schedule, j + n)[0] - offset
        residual = abs(a_pert[n - 1] - (a_base[n - 1] - t * x * s_n / n)) - t * abs(x) / 2.0
        rows.append(SandwichRow(n, s_n, a_base[n - 1], a_pert[n - 1], residual))

        above = float(low.leaf_log_max[n - 1]) - x * s_n
        below = x * s_n - float(low.leaf_log_min[n - 1])
        slack = max(above, below) - n * abs(x) / 2.0
        leaf_slack_max = max(leaf_slack_max, slack)
        if residual > _FLOAT_SLACK or slack > _FLOAT_SLACK:
            word = (high if above >= below else low).least_word(n)
            raise SandwichViolation(
                n, word, f"(operator slack {residual:.3e}, leaf slack {slack:.3e})"
            )
    return PerturbationReport(
        schedule=schedule,
        x=float(x),
        t=float(t),
        delta=delta(x),
        delta_linear_bound=delta_linear_bound(x),
        rows=tuple(rows),
        leaf_slack_max=leaf_slack_max,
    )


class MotionReport(NamedTuple):
    x: float
    depth: int
    delta: float
    max_displacement: float
    displacement_bound: float  # delta / 9
    max_log_ratio: float
    log_ratio_bound: float  # delta / 6

    def passed(self) -> bool:
        return (
            self.max_displacement <= self.displacement_bound + _MOTION_SLACK
            and self.max_log_ratio <= self.log_ratio_bound + _MOTION_SLACK
        )

    def summary(self) -> str:
        status = "pass" if self.passed() else "FAIL"
        return (
            f"motion x={self.x:g} depth={self.depth}: {status} "
            f"(max displacement {self.max_displacement:.6e} <= {self.displacement_bound:.6e}, "
            f"max |log ratio| {self.max_log_ratio:.6e} <= {self.log_ratio_bound:.6e})"
        )


def motion_speed_check(
    base: SequenceSpec,
    schedule: SignSchedule,
    x: float,
    depth: int,
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
) -> MotionReport:
    """Maxima of displacement and log modulus ratio over the same-word leaf pairs of both trees."""
    d = delta(x)
    pert = PerturbedSequence(base, schedule, x)
    pts_b, pts_p = paired_table(base, pert, j, (depth, depth), anchor)[2]  # negatives alike
    disp = float(np.abs(pts_p - pts_b).max())
    ratio = float(np.abs(np.log(np.abs(pts_p) / np.abs(pts_b))).max())
    return MotionReport(float(x), depth, d, disp, d / 9.0, ratio, d / 6.0)


# ---------------------------------------------------------------------------
# Kink scan: windowed pressure envelopes across a symmetric x grid
# ---------------------------------------------------------------------------


class KinkRow(NamedTuple):
    x: float
    p_lower: float
    p_upper: float
    env_lower: float  # base lower - (t/2)|x|
    env_upper: float  # base upper + (t/2)|x|
    sandwich_slack: float  # worst decomposition slack over the window, nonpositive
    spread_lhs: float  # p_upper - p_lower
    spread_rhs: float  # t|x| * cesaro oscillation - t|x| - base spread


class KinkScan(NamedTuple):
    schedule: SignSchedule
    t: float
    window: tuple[int, int]
    base_lower: float
    base_upper: float
    cesaro_min: float
    cesaro_max: float
    rows: tuple[KinkRow, ...]

    def passed(self) -> bool:
        return all(
            r.sandwich_slack <= _FLOAT_SLACK and r.spread_lhs >= r.spread_rhs - _FLOAT_SLACK
            for r in self.rows
        )

    def summary(self) -> str:
        status = "pass" if self.passed() else "FAIL"
        osc = self.cesaro_max - self.cesaro_min
        return (
            f"kink scan t={self.t:g} window={self.window[0]}:{self.window[1]}: {status} "
            f"(cesaro oscillation achieved {osc:.6g}, {len(self.rows)} grid points)"
        )


def _check_symmetric(x_grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(sorted(float(x) for x in x_grid))
    if grid.size == 0:
        raise ValueError("x grid is empty")
    if not np.allclose(grid, -grid[::-1], atol=1e-12):
        raise ValueError("x grid must be symmetric around 0")
    return grid


def _kink_cells(args):
    """a_n(t) for every n in the window, one row per sequence, from one table of their group."""
    seqs, t, window, anchor, j = args
    sums = fiber_table(seqs, j, window, anchor).log_sums([t])[..., 0]
    return list((sums / np.arange(window[0], window[1] + 1)[:, None]).T)


def kink_scan(
    base: SequenceSpec,
    schedule: SignSchedule,
    t: float,
    x_grid,
    window: tuple[int, int],
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
) -> KinkScan:
    """Windowed pressure envelopes across x, with the certified decomposition.

    Every cell checks a_n(pert) = a_n(base) - t x S_n/n up to t|x|/2, and the
    row records the measured spread certificate
    p_upper - p_lower >= t|x| * osc(S_n/n) - t|x| - (base spread).  Each bit
    pattern of l_{j+1}, ..., l_{j+w_hi} is built once (x = 0 is the base's but on
    const:50-0i: 1.0 * (50 - 0i) is 50 + 0i), in the fewest groups of at most _GROUP,
    sizes differing by at most one, one run_jobs job each (orbits docstring, groups).
    """
    if not 0 < t < math.inf:  # also rejects NaN
        raise ValueError("kink_scan requires a finite t > 0")
    grid = _check_symmetric(x_grid)
    w_lo, w_hi = int(window[0]), int(window[1])
    seqs = [base] + [PerturbedSequence(base, schedule, float(x)) for x in grid]
    rows = parameter_rows(seqs, j, w_hi)
    keys = {row.tobytes(): row for row in rows}  # one per distinct tree
    groups = np.array_split(np.array(list(keys.values())), -(-len(keys) // _GROUP))
    jobs = [(group, t, (w_lo, w_hi), anchor, j) for group in groups]
    cells = dict(zip(keys, (cell for cells in run_jobs(_kink_cells, jobs) for cell in cells)))
    a_base, *results = (cells[row.tobytes()] for row in rows)
    base_lower, base_upper = float(a_base.min()), float(a_base.max())
    offset = cesaro_sum(schedule, j)[0] if j else 0
    ratios = np.array([(cesaro_sum(schedule, j + n)[0] - offset) / n for n in range(w_lo, w_hi + 1)])
    c_min, c_max = float(ratios.min()), float(ratios.max())

    rows = []
    for x, a_pert in zip(grid, results):
        slack = float(np.max(np.abs(a_pert - (a_base - t * x * ratios)))) - t * abs(x) / 2.0
        p_lo, p_up = float(a_pert.min()), float(a_pert.max())
        rows.append(
            KinkRow(
                x=float(x),
                p_lower=p_lo,
                p_upper=p_up,
                env_lower=base_lower - 0.5 * t * abs(x),
                env_upper=base_upper + 0.5 * t * abs(x),
                sandwich_slack=slack,
                spread_lhs=p_up - p_lo,
                spread_rhs=t * abs(x) * (c_max - c_min) - t * abs(x) - (base_upper - base_lower),
            )
        )
    return KinkScan(
        schedule=schedule,
        t=float(t),
        window=(w_lo, w_hi),
        base_lower=base_lower,
        base_upper=base_upper,
        cesaro_min=c_min,
        cesaro_max=c_max,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Gap scan: dimension pairs across a symmetric x grid
# ---------------------------------------------------------------------------


class GapRow(NamedTuple):
    x: float
    h_lower: float
    h_upper: float
    env_lower: float  # base h_lower * (1 - |x| / (2 log A_emp))
    env_upper: float  # base h_upper * (1 + |x| / (2 log gamma_emp))


class GapScan(NamedTuple):
    schedule: SignSchedule
    window: tuple[int, int]
    tol: float
    step_log_min: float  # log gamma_emp, measured one-step extremes of the base tree
    step_log_max: float  # log A_emp
    rows: tuple[GapRow, ...]

    def passed(self) -> bool:
        return all(r.h_lower <= r.h_upper for r in self.rows)

    def summary(self) -> str:
        status = "pass" if self.passed() else "FAIL"
        gaps = [r.h_upper - r.h_lower for r in self.rows]
        return (
            f"gap scan window={self.window[0]}:{self.window[1]} tol={self.tol:g}: {status} "
            f"(gap range [{min(gaps):.3e}, {max(gaps):.3e}])"
        )


def _gap_cell(args):
    base, schedule, x, window, tol, anchor, j = args
    pert = PerturbedSequence(base, schedule, x)
    lower, upper = dimension_pair(pert, window, tol, j, anchor)
    return lower.t_star, upper.t_star


def gap_scan(
    base: SequenceSpec,
    schedule: SignSchedule,
    x_grid,
    window: tuple[int, int],
    tol: float = 1e-4,
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
) -> GapScan:
    """Dimension pairs across x plus the predicted growth envelopes."""
    grid = _check_symmetric(x_grid)
    w = (int(window[0]), int(window[1]))
    base_lower, base_upper = dimension_pair(base, w, tol, j, anchor)
    table = fiber_table(base, j, (w[1], w[1]), anchor, PLANAR)  # no anchor copies

    jobs = [(base, schedule, float(x), w, float(tol), anchor, j) for x in grid]
    results = run_jobs(_gap_cell, jobs)

    rows = []
    for x, (h_lo, h_up) in zip(grid, results):
        rows.append(
            GapRow(
                x=float(x),
                h_lower=h_lo,
                h_upper=h_up,
                env_lower=base_lower.t_star * (1.0 - abs(x) / (2.0 * table.step_log_max)),
                env_upper=base_upper.t_star * (1.0 + abs(x) / (2.0 * table.step_log_min)),
            )
        )
    return GapScan(
        schedule=schedule,
        window=w,
        tol=float(tol),
        step_log_min=table.step_log_min,
        step_log_max=table.step_log_max,
        rows=tuple(rows),
    )


def write_kink_csv(scan: KinkScan, stream) -> None:
    stream.write(
        "x,t,p_lower,p_upper,env_lower,env_upper,sandwich_slack,spread_lhs,spread_rhs\n"
    )
    for r in scan.rows:
        stream.write(
            f"{r.x:.17g},{scan.t:.17g},{r.p_lower:.17g},{r.p_upper:.17g},"
            f"{r.env_lower:.17g},{r.env_upper:.17g},{r.sandwich_slack:.17g},"
            f"{r.spread_lhs:.17g},{r.spread_rhs:.17g}\n"
        )


def write_gap_csv(scan: GapScan, stream) -> None:
    stream.write("x,h_lower,h_upper,env_lower,env_upper\n")
    for r in scan.rows:
        stream.write(
            f"{r.x:.17g},{r.h_lower:.17g},{r.h_upper:.17g},"
            f"{r.env_lower:.17g},{r.env_upper:.17g}\n"
        )
