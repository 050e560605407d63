"""Finite-depth pressure curves and Bowen-zero dimension estimates.

a_n(t) = (1/n) log L^n 1(anchor) is strictly decreasing and convex in t, equals
log 2 at t = 0, and its slope lies between -(max leaf log_deriv)/n and
-(min leaf log_deriv)/n.  The limsup/liminf over n are approximated by the max
and min of a_n over a window of depths; the unique zero of each windowed curve
estimates the packing (upper) and Hausdorff (lower) dimension of the fiber
Julia set.  Zeros are found by safeguarded Newton steps inside an analytic
bracket.  Each row's t-derivative comes from the same exponentials as its
value, a_n' = -(sum w ld / sum w)/n, and because every row is convex a
Newton step taken from the left never passes the zero of min_n a_n (least
row step) or of max_n a_n (argmax row step); bisection is the fallback step.
The slope floor min(log(80/3), min_n leaf_log_min_n / n) converts the
residual tolerance into a t-uncertainty.

Fiber point tables: pressure_curve and WindowPressure take every depth
of their range from one table per fiber (orbits.fiber_table): the
bit-distinct points of each level of the depth-n_max tree from the anchor,
built once top-down, and upward sweeps that carry, for each point p of
level k, the least and largest log-derivative L_k(p), H_k(p) of the leaves
below it (once per table), their weight S_k(p) = sum exp(-t (ld - L_k(p)))
(once per t) and, for WindowPressure only, the excess D_k(p) of their
weighted mean over L_k(p), so that log L^n 1(anchor) = -t L_n(a) +
log S_n(a) and a_n' = -(L_n(a) + D_n(a))/n at the anchor's index a for every
n at once, in this process.  From anchor 1 the shallower trees are subtrees
of the deepest one (1 is exactly its own branch-0 preimage in float64), so
the levels share their points.  The sweep adds a leaf's step logs in another
order than the traversal, and the table merges points that share a cell of
its grid key (a move far below one ulp of a leaf value, by the certificate
of orbits), so the sums and leaf extremes can differ from a direct
traversal's in the last bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BracketFailure, UnreachableTolerance
from .family import EXPANSION_FLOOR
from .orbits import PLANAR, fiber_table
from .sequences import SequenceSpec

LOG2 = math.log(2.0)
_SLOPE_FLOOR = math.log(EXPANSION_FLOOR)
_ROUNDING_ULPS = 4  # ulps of max |a_n| at the bracket ends: the least tol zero() accepts


class PressureCurve(NamedTuple):
    """Matrix a_n(t) over a depth range and t grid, plus windowed envelopes."""

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
    table = fiber_table(seq, j, (n_min, n_max), anchor, metric)
    values = table.log_sums(t_grid) / n_values[:, None]
    mask = (n_values >= w_lo) & (n_values <= w_hi)
    return PressureCurve(
        t_grid=t_grid,
        n_values=n_values,
        values=values,
        anchor=complex(anchor),
        metric=metric,
        window=(w_lo, w_hi),
        lower=values[mask].min(axis=0),
        upper=values[mask].max(axis=0),
        leaf_log_min=table.leaf_log_min,
        leaf_log_max=table.leaf_log_max,
    )


class BowenZero(NamedTuple):
    """Root of a windowed pressure estimate, with its certified bracket."""

    t_star: float
    which: str  # "lower" or "upper"
    window: tuple[int, int]
    residual: float
    bracket: tuple[float, float]
    uncertainty: float
    evaluations: int


class WindowPressure:
    """One window of depths, evaluated from its fiber point table."""

    def __init__(self, seq, window, j=0, anchor=1.0 + 0.0j, metric=PLANAR):
        if isinstance(window, int):
            window = (window, window)
        window = int(window[0]), int(window[1])
        self.n_values = np.arange(window[0], window[1] + 1)
        self._table = fiber_table(seq, j, window, anchor, metric)
        self.leaf_log_min = self._table.leaf_log_min
        self.leaf_log_max = self._table.leaf_log_max
        self.evaluations = 0
        self._evaluated = {}

    def rows_and_slopes(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """a_n(t) and a_n'(t) for every window depth; each t is evaluated once."""
        if t not in self._evaluated:
            self.evaluations += 1
            sums, slopes = self._table.log_sums_slopes(t)
            self._evaluated[t] = (sums / self.n_values, slopes / self.n_values)
        return self._evaluated[t]

    def bracket(self) -> tuple[float, float]:
        # a_n is >= log2 - t*maxL/n and <= log2 - t*minL/n, so every row is
        # nonnegative left of n log2 / maxL and nonpositive right of n log2 / minL.
        left = float(np.min(self.n_values * LOG2 / self.leaf_log_max))
        right = float(np.max(self.n_values * LOG2 / self.leaf_log_min))
        return left, right

    def zero(self, which: str, tol: float) -> BowenZero:
        """Root the windowed estimate to residual <= tol by safeguarded Newton steps.

        which="lower" roots min_n a_n (Hausdorff side), which="upper" roots
        max_n a_n (packing side); tol must be finite and > 0.  The starting
        bracket [n log2/maxL, n log2/minL] straddles zero by the
        operator-value bracket; an end value within _ROUNDING_ULPS ulps of log 2, the
        rounding of the terms -t L_n/n and log S_n/n, counts as 0 (a_1 can
        round to +1.1e-16 at its analytic right end).  Each step is taken
        from the bracket's left end, where the estimate is positive, so by
        convexity (module docstring) the Newton point of the least row
        (lower) or of the argmax row (upper) never passes the zero; one not
        strictly inside the bracket, or one that did not halve the residual
        it stepped from, is replaced by a bisection step.  The t-uncertainty
        is tol over the slope floor.  A tol below _ROUNDING_ULPS ulps of
        max |a_n| at the bracket ends lies below the rounding of a_n, whose
        terms are about log 2 each, and raises UnreachableTolerance (a
        ValueError) before the first step; a larger one the float resolution
        of a_n still cannot reach raises it once no float lies strictly
        inside the bracket.
        """
        if which not in ("lower", "upper"):
            raise ValueError("which must be 'lower' or 'upper'")
        if not 0 < tol < math.inf:  # also rejects NaN
            raise ValueError("tol must be finite and > 0")

        def envelope(t: float) -> tuple[float, float]:
            # the estimate at t and the Newton point of its supporting row(s)
            rows, slopes = self.rows_and_slopes(t)
            if which == "lower":
                return float(np.min(rows)), float(np.min(t - rows / slopes))
            k = int(np.argmax(rows))
            return float(rows[k]), float(t - rows[k] / slopes[k])

        lo, hi = self.bracket()
        f_lo, newton = envelope(lo)
        f_hi, _ = envelope(hi)
        end_rounding = _ROUNDING_ULPS * np.spacing(LOG2)  # an end within it counts as 0
        if not (f_lo >= -end_rounding and end_rounding >= f_hi):
            raise BracketFailure(
                f"bracket [{lo:.6g}, {hi:.6g}] values ({f_lo:.3g}, {f_hi:.3g}) do not straddle 0"
            )
        scale = max(float(np.max(np.abs(self.rows_and_slopes(x)[0]))) for x in (lo, hi))
        if tol < _ROUNDING_ULPS * np.spacing(scale):
            raise UnreachableTolerance(
                f"tol {tol:g} is below the float resolution of the pressure: max |a_n| at "
                f"the bracket ends is {scale:.3g}, whose ulp is {np.spacing(scale):.3g}"
            )
        t, f = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
        best, use_newton = abs(f), True
        while abs(f) > tol:
            stepped = use_newton and lo < newton < hi
            if stepped:
                t = newton
            else:
                t = 0.5 * (lo + hi)
                if not lo < t < hi:
                    raise UnreachableTolerance(
                        f"tol {tol:g} is below the float resolution of the pressure: the "
                        f"bracket [{lo!r}, {hi!r}] holds no float inside, smallest residual "
                        f"reached {best:.3g}"
                    )
            f, t_newton = envelope(t)
            best = min(best, abs(f))
            use_newton = not stepped or abs(f) <= 0.5 * f_lo
            if f > 0.0:
                lo, f_lo, newton = t, f, t_newton
            else:
                hi = t
        return BowenZero(
            t_star=t,
            which=which,
            window=(int(self.n_values[0]), int(self.n_values[-1])),
            residual=f,
            bracket=self.bracket(),
            uncertainty=tol / min(_SLOPE_FLOOR, float(np.min(self.leaf_log_min / self.n_values))),
            evaluations=self.evaluations,
        )


def bowen_zero(
    seq: SequenceSpec,
    which: str,
    window: int | tuple[int, int],
    tol: float = 1e-4,
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> BowenZero:
    """Root the windowed pressure estimate to residual <= tol (see WindowPressure.zero)."""
    return WindowPressure(seq, window, j, anchor, metric).zero(which, tol)


def dimension_pair(
    seq: SequenceSpec,
    window: int | tuple[int, int],
    tol: float = 1e-4,
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> tuple[BowenZero, BowenZero]:
    """(lower, upper) windowed Bowen zeros of one cache; lower.t_star <= upper.t_star always."""
    cache = WindowPressure(seq, window, j, anchor, metric)
    return cache.zero("lower", tol), cache.zero("upper", tol)


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
