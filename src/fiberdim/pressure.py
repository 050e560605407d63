"""Finite-depth pressure curves and Bowen-zero dimension estimates.

a_n(t) = (1/n) log L^n 1(anchor) is strictly decreasing and convex in t, equals
log 2 at t = 0, and its slope lies between -(max leaf log_deriv)/n and
-(min leaf log_deriv)/n.  The limsup/liminf over n are approximated by the max
and min of a_n over a window of depths; the unique zero of each windowed curve
estimates the packing (upper) and Hausdorff (lower) dimension of the fiber
Julia set.  Zeros are found by bisection from an analytic bracket, with the
slope floor log(80/3) converting the residual tolerance into a t-uncertainty.

Why anchor 1 is cheap: every f_l fixes 1 and sends -1 to 1, and
|f_l'(+-1)| = |l| in both metrics (the spherical factor is 2/2 at +-1).  So
the first inverse step from 1 lands exactly on +-1, and at fiber j

    L^n 1(1) = |l_{j+n}|^{-t} * (L^{n-1} 1(1) + L^{n-1} 1(-1)),   L^0 1 = 1.

With W_n the pullback of -1 to depth n - 1, every depth n <= n_max costs one
tree W_n: 2**n_max leaves in all, where a separate depth-n tree from 1 per
depth costs about 2**(n_max + 1).  The leaf extremes follow the same
recurrence, min_n = log|l_{j+n}| + min(min_{n-1}, min W_n) from min_0 = 0.
Any other anchor is reduced over its own depth-n trees.  The recurrence adds
the same terms in another order than a direct depth-n sum, so a_n can differ
from it in the last ulp.

Every pressure curve and kink scan goes through log_operator_sums: each tree
is split at its innermost levels into subtrees of at most 2**_BLOCK_LOG2
leaves (orbits.subtrees), each subtree is one job reduced at every t with
transfer.logsumexp, and jobs are combined with logaddexp in job order, so
the result does not depend on the worker count.

Every reduction runs over half a tree: the leaves 0w and 1w have the same
log-derivative (the first-bit identity in orbits.py), so subtree jobs and
cached W_n hold the 2**(depth-1) values of orbits.leaf_log_derivs, which
transfer.logsumexp counts twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure
from .family import EXPANSION_FLOOR
from .orbits import PLANAR, check_depth, leaf_log_derivs, subtrees
from .parallel import run_jobs
from .sequences import SequenceSpec, at, format_sequence
from .transfer import logsumexp

LOG2 = math.log(2.0)
_SLOPE_FLOOR = math.log(EXPANSION_FLOOR)


class _Trees:
    """The trees whose leaf sums give log L^n 1(anchor) at fiber j for n_lo <= n <= n_hi."""

    def __init__(self, seq: SequenceSpec, j: int, n_range: tuple[int, int], anchor: complex):
        n_lo, n_hi = int(n_range[0]), int(n_range[1])
        if not 1 <= n_lo <= n_hi:
            raise ValueError("need 1 <= n_min <= n_max")
        check_depth(n_hi)
        self.n_lo = n_lo
        if complex(anchor) == 1:
            self.roots = [(n - 1, -1.0 + 0.0j) for n in range(1, n_hi + 1)]
            self.log_l = [math.log(abs(at(seq, j + n))) for n in range(1, n_hi + 1)]
        else:
            self.roots = [(n, complex(anchor)) for n in range(n_lo, n_hi + 1)]
            self.log_l = None

    def per_depth(self, values, combine, scale=1.0) -> np.ndarray:
        """Per-depth values for n_lo..n_hi from per-tree ones.

        From anchor 1 this is the recurrence v_n = combine(v_{n-1}, v(W_n))
        + scale * log|l_{j+n}| from v_0 = 0, which is both log L^0 1 and the
        depth-0 log-derivative.
        """
        if self.log_l is None:
            return np.asarray(values)
        acc, out = 0.0, []
        for n, (value, step) in enumerate(zip(values, self.log_l), start=1):
            acc = combine(acc, value) + scale * step
            if n >= self.n_lo:
                out.append(acc)
        return np.array(out)


def _multiplicity(depth: int) -> int:
    """How many leaves each value of leaf_log_derivs(..., depth, ...) stands for."""
    return 2 if depth else 1


def _subtree_sums(args):
    """Log sums at every t, and leaf extremes, of one subtree shifted by its root's log-derivative."""
    seq, j, depth, root, ld0, metric, t_grid = args
    lds, stats = leaf_log_derivs(seq, j, depth, root, metric)
    mult = _multiplicity(depth)
    sums = np.array([logsumexp(lds * -t, mult) for t in t_grid]) - np.asarray(t_grid) * ld0
    return sums, stats.leaf_log_min + ld0, stats.leaf_log_max + ld0


def log_operator_sums(
    seq: SequenceSpec,
    t_grid,
    n_range: tuple[int, int],
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log L^n 1(anchor) at fiber j for every n in n_range (inclusive) and t in t_grid.

    Returns (sums, leaf_log_min, leaf_log_max): sums has one row per depth and
    one column per t; the extremes are those of the depth-n leaf log-derivatives.
    """
    trees = _Trees(seq, j, n_range, anchor)
    t_grid = tuple(float(t) for t in t_grid)
    jobs, owners = [], []
    for i, (depth, root) in enumerate(trees.roots):
        for sub_depth, sub_root, ld0 in subtrees(seq, j, depth, root, metric):
            jobs.append((seq, j, sub_depth, sub_root, ld0, metric, t_grid))
            owners.append(i)
    sums = np.full((len(trees.roots), len(t_grid)), -np.inf)
    lo = np.full(len(trees.roots), np.inf)
    hi = np.full(len(trees.roots), -np.inf)
    for i, (s, a, b) in zip(owners, run_jobs(_subtree_sums, jobs, workers)):
        sums[i] = np.logaddexp(sums[i], s)
        lo[i] = min(lo[i], a)
        hi[i] = max(hi[i], b)
    return (
        trees.per_depth(sums, np.logaddexp, -np.asarray(t_grid)),
        trees.per_depth(lo, min),
        trees.per_depth(hi, max),
    )


@dataclass(frozen=True)
class PressureCurve:
    """Matrix a_n(t) over a depth range and t grid, plus windowed envelopes."""

    seq_id: str
    t_grid: np.ndarray
    n_values: np.ndarray
    values: np.ndarray  # shape (len(n_values), len(t_grid))
    anchor: complex
    metric: str
    window: tuple[int, int]
    lower: np.ndarray  # min over window depths, per t
    upper: np.ndarray  # max over window depths, per t
    leaf_log_min: np.ndarray  # per n
    leaf_log_max: np.ndarray  # per n

    def row(self, n: int) -> np.ndarray:
        return self.values[int(np.where(self.n_values == n)[0][0])]


def default_window(n_min: int, n_max: int) -> tuple[int, int]:
    return max(n_min, n_max // 2), n_max


def pressure_curve(
    seq: SequenceSpec,
    t_grid,
    n_range: tuple[int, int],
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
    window: tuple[int, int] | None = None,
    workers: int = 1,
) -> PressureCurve:
    """a_n(t) for every n in n_range (inclusive) and t in the sorted grid."""
    t_values = [float(t) for t in t_grid]
    if not t_values:
        raise ValueError("t grid is empty")
    if not all(math.isfinite(t) for t in t_values):
        raise ValueError("t grid must be finite")
    t_grid = np.asarray(sorted(t_values))
    if t_grid[0] < 0:
        raise ValueError("t grid must be nonnegative")
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if window is None:
        window = default_window(n_min, n_max)
    w_lo, w_hi = window
    if not (n_min <= w_lo <= w_hi <= n_max):
        raise ValueError(f"window {window} not contained in n range [{n_min}, {n_max}]")
    n_values = np.arange(n_min, n_max + 1)
    sums, leaf_min, leaf_max = log_operator_sums(
        seq, t_grid, (n_min, n_max), j, anchor, metric, workers
    )
    values = sums / n_values[:, None]
    mask = (n_values >= w_lo) & (n_values <= w_hi)
    return PressureCurve(
        seq_id=format_sequence(seq),
        t_grid=t_grid,
        n_values=n_values,
        values=values,
        anchor=complex(anchor),
        metric=metric,
        window=(w_lo, w_hi),
        lower=values[mask].min(axis=0),
        upper=values[mask].max(axis=0),
        leaf_log_min=leaf_min,
        leaf_log_max=leaf_max,
    )


@dataclass(frozen=True)
class BowenZero:
    """Root of a windowed pressure estimate, with its certified bracket."""

    t_star: float
    which: str  # "lower" or "upper"
    window: tuple[int, int]
    residual: float
    bracket: tuple[float, float]
    uncertainty: float
    evaluations: int


class _WindowPressure:
    """Cached leaf log-derivatives for one window of depths; evaluates a_n(t) on it."""

    def __init__(self, seq, window, j, anchor, metric):
        w_lo, w_hi = int(window[0]), int(window[1])
        self.trees = _Trees(seq, j, (w_lo, w_hi), anchor)
        self.n_values = np.arange(w_lo, w_hi + 1)
        self.lds = []  # (half tree, multiplicity) per tree
        mins, maxs = [], []
        for depth, root in self.trees.roots:
            lds, stats = leaf_log_derivs(seq, j, depth, root, metric)
            self.lds.append((lds, _multiplicity(depth)))
            mins.append(stats.leaf_log_min)
            maxs.append(stats.leaf_log_max)
        self.leaf_log_min = self.trees.per_depth(mins, min)
        self.leaf_log_max = self.trees.per_depth(maxs, max)
        self.evaluations = 0

    def rows(self, t: float) -> np.ndarray:
        self.evaluations += 1
        sums = [logsumexp(lds * -t, mult) for lds, mult in self.lds]
        return self.trees.per_depth(sums, np.logaddexp, -t) / self.n_values

    def bracket(self) -> tuple[float, float]:
        # a_n is >= log2 - t*maxL/n and <= log2 - t*minL/n, so every row is
        # nonnegative left of n log2 / maxL and nonpositive right of n log2 / minL.
        left = float(np.min(self.n_values * LOG2 / self.leaf_log_max))
        right = float(np.max(self.n_values * LOG2 / self.leaf_log_min))
        return left, right


def bowen_zero(
    seq: SequenceSpec,
    which: str,
    window: int | tuple[int, int],
    tol: float = 1e-4,
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
    _cache: "_WindowPressure | None" = None,
) -> BowenZero:
    """Bisect the windowed pressure estimate to residual <= tol.

    which="lower" roots min_n a_n (Hausdorff side), which="upper" roots
    max_n a_n (packing side).  The starting bracket [n log2/maxL, n log2/minL]
    straddles zero by the operator-value bracket; the reported t-uncertainty
    is tol divided by the slope floor log(80/3).  A tol the float resolution
    of a_n cannot reach raises ValueError once no float lies strictly inside
    the bracket.
    """
    if which not in ("lower", "upper"):
        raise ValueError("which must be 'lower' or 'upper'")
    if not 0 < tol < math.inf:  # also rejects NaN
        raise ValueError("tol must be finite and > 0")
    if isinstance(window, int):
        window = (window, window)
    wp = _cache if _cache is not None else _WindowPressure(seq, window, j, anchor, metric)
    reduce = np.min if which == "lower" else np.max

    lo, hi = wp.bracket()
    f_lo = float(reduce(wp.rows(lo)))
    f_hi = float(reduce(wp.rows(hi)))
    if not (f_lo >= 0.0 >= f_hi):
        raise BracketFailure(
            f"bracket [{lo:.6g}, {hi:.6g}] values ({f_lo:.3g}, {f_hi:.3g}) do not straddle 0"
        )
    best = min(abs(f_lo), abs(f_hi))
    while True:
        t_mid = 0.5 * (lo + hi)
        f_mid = float(reduce(wp.rows(t_mid)))
        if abs(f_mid) <= tol:
            break
        best = min(best, abs(f_mid))
        if not lo < t_mid < hi:
            raise ValueError(
                f"tol {tol:g} is below the float resolution of the pressure: the bracket "
                f"[{lo!r}, {hi!r}] holds no float inside, smallest residual reached {best:.3g}"
            )
        if f_mid > 0.0:
            lo = t_mid
        else:
            hi = t_mid
    return BowenZero(
        t_star=t_mid,
        which=which,
        window=(int(window[0]), int(window[1])),
        residual=f_mid,
        bracket=wp.bracket(),
        uncertainty=tol / _SLOPE_FLOOR,
        evaluations=wp.evaluations,
    )


def dimension_pair(
    seq: SequenceSpec,
    window: int | tuple[int, int],
    tol: float = 1e-4,
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> tuple[BowenZero, BowenZero]:
    """(lower, upper) windowed Bowen zeros; lower.t_star <= upper.t_star always."""
    if isinstance(window, int):
        window = (window, window)
    cache = _WindowPressure(seq, window, j, anchor, metric)
    lower = bowen_zero(seq, "lower", window, tol, j, anchor, metric, _cache=cache)
    upper = bowen_zero(seq, "upper", window, tol, j, anchor, metric, _cache=cache)
    return lower, upper


def write_pressure_csv(curve: PressureCurve, stream) -> None:
    """Long-format rows `n,t,a_n`."""
    stream.write("n,t,a_n\n")
    for i, n in enumerate(curve.n_values):
        for k, t in enumerate(curve.t_grid):
            stream.write(f"{n},{t:.17g},{curve.values[i, k]:.17g}\n")


def write_roots_csv(roots: list[BowenZero], stream) -> None:
    """Rows `which,t_star,uncertainty,n_window`."""
    stream.write("which,t_star,uncertainty,n_window\n")
    for r in roots:
        stream.write(
            f"{r.which},{r.t_star:.17g},{r.uncertainty:.17g},{r.window[0]}:{r.window[1]}\n"
        )
