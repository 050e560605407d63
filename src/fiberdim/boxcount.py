"""Box-counting dimension estimator for planar point clouds.

Independent of the pressure machinery: occupancy counts of axis-aligned
square grids across a geometric scale ladder, averaged over a few random grid
offsets to damp lattice alignment, with the dimension read off as the least
squares slope of log N against log(1/eps).  Used to cross-validate Bowen
zeros on deterministic instances.  The offsets are the uniform draws of
np.random.default_rng(seed), bit for bit, from a pure-Python PCG64 (O'Neill,
HMC-CS-2014-0905), so the box count never imports numpy.random (a 6 ms import).

Occupancy is a property of the point set, so duplicates are dropped once
before the scale ladder.  Deep pullback clouds are mostly duplicates: their
innermost levels contract below float spacing, and a depth-18 cloud of
262,144 leaves holds only a few thousand distinct points.  The dimension
check therefore passes the tree's distinct points (orbits.distinct_points),
never the 2**depth leaves, and its 1000-point floor still counts the leaves
(`leaves`): const:1000 at depth 18 has only 64 distinct points.  Those
points arrive as [U, -U], each bit pattern once, with U sorted, so
box_dimension's own dedupe (_distinct) meets two ordered runs, which its
stable sort (timsort) merges.  Once sorted, the x box index of every grid is
non-decreasing, so the stable sort of the occupancy keys runs on nearly
ordered input.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import ResolutionError

_FLOAT_SCALE_FLOOR = 1e-15  # below this, float64 coordinates cannot separate boxes
DEFAULT_OFFSETS = 4

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _M64 = 0xCA01F9DD, 0x4973F715, (1 << 32) - 1, (1 << 64) - 1
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashmix(value: int, const: list[int], mult: int) -> int:
    """SeedSequence's uint32 hash of value, stepping the hash constant held in const[0]."""
    value ^= const[0]
    const[0] = const[0] * mult & _M32
    value = value * const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _offset_draws(seed):
    """The doubles u in [0, 1) of np.random.default_rng(seed), in order, bit for bit."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a, hash_b = [_INIT_A], [_INIT_B]
    pool = [_hashmix(word, hash_a, _MULT_A) for word in (words + [0, 0, 0])[:4]]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a, _MULT_A))
    for word in words[4:]:  # entropy beyond the pool
        pool = [_mix(value, _hashmix(word, hash_a, _MULT_A)) for value in pool]
    out = [_hashmix(pool[i % 4], hash_b, _MULT_B) for i in range(8)]  # generate_state(4, u64)
    w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))  # low half first
    inc = (w2 << 64 | w3) << 1 & _M128 | 1
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128  # from 0: step, add, step

    def draws(state):
        while True:
            state = (state * _PCG_MULT + inc) & _M128  # step, then the XSL-RR output
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << 64 - rot) & _M64
            yield (x >> 11) * 2.0**-53

    return draws(state)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted, by one stable sort (timsort for complex
    values, fast on nearly ordered input) and a neighbour comparison: np.unique
    in numpy 2.4 hashes complex values first, about five times slower."""
    values = np.sort(values, kind="stable")
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def default_ladder(eps_max: float = 1e-2, eps_min: float = 1e-13, count: int = 23) -> np.ndarray:
    """Geometric scale ladder, largest first."""
    return np.geomspace(eps_max, eps_min, count)


class BoxCountReport(NamedTuple):
    epsilons: np.ndarray
    counts: np.ndarray  # offset-averaged occupancy per scale
    slope: float
    residual: float  # rms of the least squares fit in log N

    def summary(self) -> str:
        return f"box-count slope {self.slope:.6g} (rms residual {self.residual:.3g})"


def _occupancy(
    points: np.ndarray,
    eps: float,
    offset: tuple[float, float],
    key: np.ndarray,
    scratch: np.ndarray,
) -> int:
    """Occupied boxes, computed in the caller's key (complex) and scratch (float) buffers."""
    for part, index, off in zip((points.real, points.imag), (key.real, key.imag), offset):
        np.subtract(part, off, out=scratch)
        np.divide(scratch, eps, out=scratch)
        np.floor(scratch, out=index)
    # indices stay below 2**53 for eps >= 1e-15 and O(1) coordinates, so the
    # complex key is collision-free
    key.sort(kind="stable")
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


def check_sample_size(size: int) -> None:
    """Reject a sample below the 1000-point floor of box_dimension."""
    if size < 1000:
        raise ValueError(f"need at least 1000 points, got {size}")


def box_dimension(
    points,
    eps_ladder=None,
    min_scale: float | None = None,
    offsets: int = DEFAULT_OFFSETS,
    seed: int = 0,
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
    draws = _offset_draws(seed)  # seed: an int >= 0; None (OS entropy) raises TypeError
    pts = np.asarray(points, dtype=np.complex128).ravel()
    check_sample_size(pts.size if leaves is None else leaves)
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
    key, scratch = np.empty(pts.size, np.complex128), np.empty(pts.size)  # reused by every grid
    counts = np.empty(ladder.size)
    for i, eps in enumerate(ladder):
        per_offset = [
            _occupancy(pts, eps, (0.0 + eps * next(draws), 0.0 + eps * next(draws)), key, scratch)
            for _ in range(offsets)
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
