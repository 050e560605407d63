"""Box-counting dimension estimator for planar point clouds.

Independent of the pressure machinery: occupancy counts of axis-aligned
square grids across a geometric scale ladder, averaged over a few random grid
offsets to damp lattice alignment, with the dimension read off as the least
squares slope of log N against log(1/eps).  Used to cross-validate Bowen
zeros on deterministic instances.  The offsets are the uniform draws of the
seed-0 stream, np.random.default_rng(0), bit for bit, from a pure-Python PCG64
(O'Neill, HMC-CS-2014-0905) started at that generator's state, so the box
count never imports numpy.random (a 6 ms import).

Occupancy is a property of the point set, so duplicates are dropped once
before the scale ladder.  Deep pullback clouds are mostly duplicates: their
innermost levels contract below float spacing, and a depth-18 cloud of
262,144 leaves holds only a few thousand distinct points.  The dimension
check therefore passes the tree's distinct points (orbits.distinct_points),
never the 2**depth leaves, and its 1000-point floor still counts the leaves
(`leaves`): const:1000 at depth 18 has only 64 distinct points.

The sorted points split once into runs whose neighbours differ by at most a
quarter of the smallest scale in Re and in Im, with exact corners (Re from a
run's ends, Im from its min and max).  For eps > 0 the box index
v -> floor((v - o) / eps) is nondecreasing in v, as rounded subtraction,
rounded division by a positive number and floor each are, so a run whose
corners share both indices lies in one box.  Only the runs that straddle a
box edge are indexed point by point: at most 38 of the seed-7 depth-18
cloud's 512 runs (5,986 points) at any of its 25 scales.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ResolutionError

_FLOAT_SCALE_FLOOR = 1e-15  # below this, float64 coordinates cannot separate boxes
_EPS_MAX, _PER_DECADE = 1e-2, 2.0  # cloud_ladder's largest scale and scales per decade
DEFAULT_OFFSETS = 4

# PCG64's multiplier, and the state and increment of np.random.default_rng(0)
_PCG_MULT, _M128, _M64 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1, (1 << 64) - 1
_PCG_STATE = 0x1AA1B5345996452D09585EB7A69561E3
_PCG_INC = 0x418DDADB3AF71A82588133BC447873A9


def _offset_draws():
    """The doubles u in [0, 1) of np.random.default_rng(0), in order, bit for bit."""
    state = _PCG_STATE
    while True:
        state = (state * _PCG_MULT + _PCG_INC) & _M128  # step, then the XSL-RR output
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << 64 - rot) & _M64
        yield (x >> 11) * 2.0**-53


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted by Re then Im, by one stable sort (timsort
    merges the ordered halves of a level [U, -U]) and a neighbour comparison:
    np.unique in numpy 2.4 hashes complex values first, about five times slower."""
    values = np.sort(values, kind="stable")
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


class BoxCountReport(NamedTuple):
    epsilons: np.ndarray
    counts: np.ndarray  # offset-averaged occupancy per scale
    slope: float
    residual: float  # rms of the least squares fit in log N


def _runs(pts: np.ndarray, gap: float):
    """Runs of points sorted by Re, neighbours at most gap apart in Re and Im: their
    (low, high) Re and Im as (2, 1, run) arrays, and the run of each point."""
    step = np.diff(pts)
    is_start = np.concatenate(([True], (step.real > gap) | (np.abs(step.imag) > gap)))
    starts, x, y = np.flatnonzero(is_start), pts.real, pts.imag
    corner_x = np.stack((x[starts], x[np.append(starts[1:], pts.size) - 1]))[:, None]
    corner_y = np.stack((np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts)))
    return corner_x, corner_y[:, None], np.cumsum(is_start) - 1


def _grid_counts(pts: np.ndarray, runs, eps: float, offsets) -> np.ndarray:
    """Occupied boxes of side eps in each grid, given as one (Re, Im) offset per row."""
    corner_x, corner_y, run_of = runs
    ox, oy = np.array(offsets, dtype=float).T[:, :, None]
    ix, iy = np.floor((corner_x - ox) / eps), np.floor((corner_y - oy) / eps)
    split = ((ix[0] != ix[1]) | (iy[0] != iy[1])).any(axis=0)  # in some grid
    ix, iy = ix[0], iy[0]
    if split.any():  # a whole run by its low corner, the others point by point
        keep, inner = ~split, split[run_of]
        ix = np.floor((np.concatenate((corner_x[0, 0, keep], pts.real[inner])) - ox) / eps)
        iy = np.floor((np.concatenate((corner_y[0, 0, keep], pts.imag[inner])) - oy) / eps)
    # indices stay below 2**53 for eps >= 1e-15 and O(1) coordinates, so the
    # complex key is collision-free; -0.0 and 0.0 compare equal
    key = np.empty(ix.shape, np.complex128)
    key.real, key.imag = ix, iy
    key.sort(axis=1, kind="stable")
    return 1 + np.count_nonzero(key[:, 1:] != key[:, :-1], axis=1)


def check_sample_size(size: int) -> None:
    """Reject a sample below the 1000-point floor of box_dimension."""
    if size < 1000:
        raise ValueError(f"need at least 1000 points, got {size}")


def box_dimension(
    points,
    eps_ladder,
    min_scale: float | None = None,
    offsets: int = DEFAULT_OFFSETS,
    leaves: int | None = None,
) -> BoxCountReport:
    """Fit the box-counting slope of a point cloud over a scale ladder.

    min_scale, when given, is the cloud's resolution bound: scales below it
    would see the finite sample instead of the underlying set, so they raise
    ResolutionError.  leaves, when given, is the size of the sample the points
    were read from (a tree's 2**depth leaves for its distinct points); the
    1000-point floor applies to it, and otherwise to the points themselves.
    """
    if offsets < 1:
        raise ValueError(f"need at least one grid offset, got {offsets}")
    draws = _offset_draws()
    pts = np.asarray(points, dtype=np.complex128).ravel()
    check_sample_size(pts.size if leaves is None else leaves)
    if not (pts.size and np.isfinite(pts).all()):
        raise ValueError("points must be finite and not empty")
    ladder = np.sort(np.asarray(eps_ladder, dtype=float))[::-1]
    if not np.all((ladder > 0.0) & np.isfinite(ladder)):
        raise ValueError("scales must be finite and > 0")
    if ladder.size < 2 or ladder[0] / ladder[-1] < 100.0:
        raise ValueError("scale ladder must span at least two decades")
    floor = max(min_scale or 0.0, _FLOAT_SCALE_FLOOR)
    if ladder[-1] < floor:
        raise ResolutionError(
            f"scale {ladder[-1]:.3g} below the cloud resolution bound {floor:.3g}"
        )

    pts = _distinct(pts)  # occupancy depends on the point set only
    runs = _runs(pts, ladder[-1] / 4.0)
    counts = np.empty(ladder.size)
    for i, eps in enumerate(ladder):
        grids = [(0.0 + eps * next(draws), 0.0 + eps * next(draws)) for _ in range(offsets)]
        counts[i] = np.mean(_grid_counts(pts, runs, eps, grids))

    log_inv_eps = np.log(1.0 / ladder)
    log_counts = np.log(counts)
    slope, intercept = np.polyfit(log_inv_eps, log_counts, 1)
    fit = slope * log_inv_eps + intercept
    residual = float(np.sqrt(np.mean((log_counts - fit) ** 2)))
    return BoxCountReport(epsilons=ladder, counts=counts, slope=float(slope), residual=residual)


def cloud_ladder(resolution: float) -> np.ndarray:
    """Ladder from _EPS_MAX down to just above a cloud's resolution bound."""
    eps_min = max(resolution * 10.0, _FLOAT_SCALE_FLOOR * 10.0)
    eps_min = min(eps_min, _EPS_MAX / 100.0)  # keep at least two decades
    decades = math.log10(_EPS_MAX / eps_min)
    count = max(5, int(round(decades * _PER_DECADE)) + 1)
    return np.geomspace(_EPS_MAX, eps_min, count)


def write_boxcount_csv(report: BoxCountReport, stream) -> None:
    """Rows `eps,count`, then one summary line with slope and residual."""
    stream.write("eps,count\n")
    for eps, count in zip(report.epsilons, report.counts):
        stream.write(f"{eps:.17g},{count:.17g}\n")
    stream.write(f"# slope={report.slope:.17g} residual={report.residual:.17g}\n")
