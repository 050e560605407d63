"""Box-counting dimension estimator for planar point clouds.

Independent of the pressure machinery: occupancy counts of axis-aligned
square grids across a geometric scale ladder, averaged over a few random grid
offsets to damp lattice alignment, with the dimension read off as the least
squares slope of log N against log(1/eps).  Used to cross-validate Bowen
zeros on deterministic instances.

Occupancy is a property of the point set, so duplicates are dropped once
before the scale ladder.  Deep pullback clouds are mostly duplicates: their
innermost levels contract below float spacing, and a depth-18 cloud of
262,144 leaves holds only a few thousand distinct points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError

_FLOAT_SCALE_FLOOR = 1e-15  # below this, float64 coordinates cannot separate boxes
DEFAULT_OFFSETS = 4


def default_ladder(eps_max: float = 1e-2, eps_min: float = 1e-13, count: int = 23) -> np.ndarray:
    """Geometric scale ladder, largest first."""
    return np.geomspace(eps_max, eps_min, count)


@dataclass(frozen=True)
class BoxCountReport:
    epsilons: np.ndarray
    counts: np.ndarray  # offset-averaged occupancy per scale
    slope: float
    residual: float  # rms of the least squares fit in log N

    def summary(self) -> str:
        return f"box-count slope {self.slope:.6g} (rms residual {self.residual:.3g})"


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted.

    One sort and a neighbour comparison: np.unique in numpy 2.4 hashes
    complex values before sorting, about five times slower on a million.
    """
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _occupancy(points: np.ndarray, eps: float, offset: np.ndarray) -> int:
    ix = np.floor((points.real - offset[0]) / eps)
    iy = np.floor((points.imag - offset[1]) / eps)
    # indices stay below 2**53 for eps >= 1e-15 and O(1) coordinates, so the
    # complex key is collision-free
    return int(_distinct(ix + 1j * iy).size)


def box_dimension(
    points,
    eps_ladder=None,
    min_scale: float | None = None,
    offsets: int = DEFAULT_OFFSETS,
    seed: int = 0,
) -> BoxCountReport:
    """Fit the box-counting slope of a point cloud over a scale ladder.

    min_scale, when given, is the cloud's resolution bound: scales below it
    would see the finite sample instead of the underlying set, so they raise
    ResolutionError.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    if pts.size < 1000:
        raise ValueError(f"need at least 1000 points, got {pts.size}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    ladder = default_ladder() if eps_ladder is None else np.asarray(eps_ladder, dtype=float)
    ladder = np.sort(ladder)[::-1]
    if ladder.size < 2 or ladder[0] / ladder[-1] < 100.0:
        raise ValueError("scale ladder must span at least two decades")
    floor = max(min_scale or 0.0, _FLOAT_SCALE_FLOOR)
    if ladder[-1] < floor:
        raise ResolutionError(
            f"scale {ladder[-1]:.3g} below the cloud resolution bound {floor:.3g}"
        )

    pts = _distinct(pts)  # occupancy depends on the point set only
    rng = np.random.default_rng(seed)
    counts = np.empty(ladder.size)
    for i, eps in enumerate(ladder):
        per_offset = [
            _occupancy(pts, eps, rng.uniform(0.0, eps, size=2)) for _ in range(offsets)
        ]
        counts[i] = float(np.mean(per_offset))

    log_inv_eps = np.log(1.0 / ladder)
    log_counts = np.log(counts)
    slope, intercept = np.polyfit(log_inv_eps, log_counts, 1)
    fit = slope * log_inv_eps + intercept
    residual = float(np.sqrt(np.mean((log_counts - fit) ** 2)))
    return BoxCountReport(epsilons=ladder, counts=counts, slope=float(slope), residual=residual)


def cloud_ladder(resolution: float, eps_max: float = 1e-2, per_decade: float = 2.0) -> np.ndarray:
    """Ladder from eps_max down to just above a cloud's resolution bound."""
    eps_min = max(resolution * 10.0, _FLOAT_SCALE_FLOOR * 10.0)
    eps_min = min(eps_min, eps_max / 100.0)  # keep at least two decades
    decades = math.log10(eps_max / eps_min)
    count = max(5, int(round(decades * per_decade)) + 1)
    return np.geomspace(eps_max, eps_min, count)


def write_boxcount_csv(report: BoxCountReport, stream) -> None:
    """Rows `eps,count`, then one summary line with slope and residual."""
    stream.write("eps,count\n")
    for eps, count in zip(report.epsilons, report.counts):
        stream.write(f"{eps:.17g},{count:.17g}\n")
    stream.write(f"# slope={report.slope:.17g} residual={report.residual:.17g}\n")
