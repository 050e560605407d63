from pathlib import Path

import numpy as np
import pytest

from fiberdim import (
    Constant,
    ResolutionError,
    box_dimension,
    cloud_ladder,
    julia_cloud,
    parse_sequence,
    resolution_bound,
)
from fiberdim import boxcount, orbits
from fiberdim.cli import main
from fiberdim.pressure import WindowPressure
from oracles import bisection_zero, numpy_box_dimension, set_occupancy

GOLDEN = Path(__file__).resolve().parent / "golden"


def square_cloud(side=256):
    xs = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(xs, xs)
    return (gx + 1j * gy).ravel()


def segment_cloud(count=5000):
    return np.linspace(-1.0, 1.0, count) + 0.0j


def ifs_cloud(ratio, depth):
    """Attractor sample of the two-map system x -> ratio x and x -> ratio x + (1 - ratio)."""
    pts = np.array([0.0])
    for _ in range(depth):
        pts = np.concatenate([ratio * pts, ratio * pts + (1.0 - ratio)])
    return pts + 0.0j


def test_plane_filling_grid_slope():
    # 4**10 grid points; scales stay coarse enough that boxes hold many points
    report = box_dimension(square_cloud(side=1024), np.geomspace(0.1, 0.001, 11))
    assert report.slope == pytest.approx(2.0, abs=0.1)


def test_segment_slope():
    report = box_dimension(segment_cloud(), np.geomspace(0.4, 0.004, 11))
    assert report.slope == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("ratio,depth", [(1 / 3, 14), (1 / 5, 10)])
def test_two_branch_ifs_slope(ratio, depth):
    expected = np.log(2.0) / np.log(1.0 / ratio)
    ladder = np.geomspace(0.3, max(ratio**depth * 10, 1e-6), 17)
    report = box_dimension(ifs_cloud(ratio, depth), ladder)
    assert report.slope == pytest.approx(expected, abs=0.05)


def test_translation_invariance():
    ladder = np.geomspace(0.3, 1e-5, 15)
    cloud = ifs_cloud(1 / 3, 14)
    base = box_dimension(cloud, ladder)
    moved = box_dimension(cloud + (17.25 - 4.5j), ladder)
    assert abs(base.slope - moved.slope) <= 0.01


def test_counts_nonincreasing_in_eps():
    report = box_dimension(ifs_cloud(1 / 3, 12), np.geomspace(0.3, 1e-4, 13))
    # epsilons are stored largest first, so counts grow along the array
    assert bool((np.diff(report.counts) >= 0).all())
    assert 0.0 < report.slope < 2.0


def test_resolution_guard():
    with pytest.raises(ResolutionError):
        box_dimension(segment_cloud(), np.geomspace(0.5, 1e-5, 9), min_scale=1e-4)
    with pytest.raises(ResolutionError):
        box_dimension(segment_cloud(), np.geomspace(0.5, 1e-16, 9))


def test_input_validation():
    ladder = np.geomspace(0.4, 0.004, 11)
    with pytest.raises(ValueError):
        box_dimension(segment_cloud(count=100), ladder)
    with pytest.raises(ValueError):
        box_dimension(np.append(segment_cloud(), np.nan), ladder)
    with pytest.raises(ValueError):
        box_dimension(segment_cloud(), np.geomspace(0.5, 0.05, 5))  # one decade only
    for offsets in (0, -1):  # np.mean of no counts would give NaN
        with pytest.raises(ValueError, match="grid offset"):
            box_dimension(segment_cloud(), ladder, offsets=offsets)


def test_cloud_ladder():
    tied = cloud_ladder(resolution=1e-20)
    assert tied[-1] >= 1e-14
    assert tied[0] / tied[-1] >= 100.0
    coarse = cloud_ladder(resolution=1e-5)
    assert coarse[-1] >= 1e-4


def test_deterministic():
    cloud = ifs_cloud(1 / 3, 12)
    a = box_dimension(cloud, np.geomspace(0.3, 1e-4, 9))
    b = box_dimension(cloud, np.geomspace(0.3, 1e-4, 9))
    assert a.slope == b.slope
    assert np.array_equal(a.counts, b.counts)


def test_offset_draws_match_numpy_default_rng():
    # per scale, per offset, Re then Im: the doubles of default_rng(0).uniform(0.0, eps, size=2)
    draws, rng = boxcount._offset_draws(), np.random.default_rng(0)
    for eps in np.geomspace(1e-2, 1e-13, 25):
        for _ in range(4):
            got = np.array([0.0 + eps * next(draws), 0.0 + eps * next(draws)])
            assert got.tobytes() == rng.uniform(0.0, eps, size=2).tobytes()


def test_box_dimension_matches_the_numpy_offset_oracle():
    cloud = julia_cloud(Constant(50), 12)
    ladder = cloud_ladder(cloud.resolution)
    got = box_dimension(cloud.points, ladder, min_scale=cloud.resolution)
    counts, slope, residual = numpy_box_dimension(cloud.points, ladder)
    assert np.array_equal(got.counts, counts)
    assert got.slope == slope
    assert got.residual == residual


def test_occupancy_counts_signed_zero_indices_once_and_overwrites_its_buffers():
    # -0.0 - 0.0 floors to box index -0.0 and 0.0 - 0.0 to 0.0: one box, not two
    pts = np.array([complex(-0.0, 1.5), complex(0.0, 1.5), complex(1.5, -0.0), complex(1.5, 0.0)])
    key, scratch = np.full(pts.size, np.nan + 1j), np.full(pts.size, np.nan)
    assert boxcount._occupancy(pts, 1.0, (0.0, 0.0), key, scratch) == 2
    cloud = boxcount._distinct(julia_cloud(Constant(50), 10).points)
    key, scratch = np.empty(cloud.size, np.complex128), np.empty(cloud.size)
    for eps in (1e-2, 1e-4, 1e-2):  # the sorted keys of one grid do not leak into the next
        offset = (0.3 * eps, 0.7 * eps)
        assert boxcount._occupancy(cloud, eps, offset, key, scratch) == set_occupancy(
            cloud, eps, offset
        )


def test_duplicates_do_not_change_counts():
    # A depth-12 const:50 cloud holds 1284 distinct points among its 4096 leaves.
    cloud = julia_cloud(Constant(50), 12)
    distinct = np.unique(cloud.points)
    assert 1000 <= distinct.size < cloud.points.size
    rng = np.random.default_rng(3)
    shuffled = np.concatenate([rng.permutation(cloud.points), cloud.points[:500]])
    ladder = cloud_ladder(cloud.resolution)
    want = box_dimension(cloud.points, ladder)
    for points in (distinct, shuffled):
        got = box_dimension(points, ladder)
        assert np.array_equal(got.counts, want.counts)
        assert got.slope == want.slope
        assert got.residual == want.residual
    # the size guard applies to the input, not to its distinct points
    assert box_dimension(np.tile(distinct[:10], 100), np.geomspace(0.3, 1e-4, 9)).counts[0] >= 1


def test_dimension_box_check_golden(tmp_path, capsys):
    # stdout, roots CSV and box CSV frozen from the full-array box count
    roots, box = tmp_path / "roots.csv", tmp_path / "box.csv"
    assert main(["dimension", "--seq", "const:50", "--window", "8:12", "--box-check",
                 "--box-depth", "14", "--box-out", str(box), "-o", str(roots)]) == 0
    want = GOLDEN / "dimension_const50"
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    assert roots.read_bytes() == (want / "roots.csv").read_bytes()
    assert box.read_bytes() == (want / "box.csv").read_bytes()


def test_dimension_golden_roots_match_the_bisection_oracle():
    # every t* of the golden roots CSV lies within its printed uncertainty of a
    # bisection of the solver's rows to tol/100 (tol: the CLI default, 1e-4)
    window = WindowPressure(Constant(50), (8, 12))
    lines = (GOLDEN / "dimension_const50" / "roots.csv").read_text().splitlines()[1:]
    for which, t_star, uncertainty, n_window in (line.split(",") for line in lines):
        assert n_window == "8:12"
        want = bisection_zero(window, {"lower": np.min, "upper": np.max}[which],
                              window.bracket(), 1e-4 / 100)
        assert abs(float(t_star) - want) <= float(uncertainty)


def _bit_patterns(points):
    """The distinct (re, im) uint64 bit pairs of points, sorted."""
    return np.unique(np.ascontiguousarray(points).view(np.uint64).reshape(-1, 2), axis=0)


def test_distinct_points_once_per_bit_pattern(monkeypatch):
    # const:1000 at depth 16 has 64 distinct points; with blocks of 2**8 leaves
    # a point shared by several blocks must still come once
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 8)
    points = orbits.distinct_points(Constant(1000), 16)
    assert points.size == _bit_patterns(points).shape[0] == 64


@pytest.mark.parametrize("anchor", [1 + 0j, -1.05 + 0.1j])
@pytest.mark.parametrize(
    "spec", ["const:50", "random:seed=7,min=45,max=80", "periodic:55.1+20i,-60+30.5i"]
)
@pytest.mark.parametrize("depth,block_log2", [(12, 18), (16, 13)])  # (16, 13): 8 prefix blocks
def test_distinct_points_box_count_matches_materialized(monkeypatch, spec, anchor, depth, block_log2):
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", block_log2)
    seq = parse_sequence(spec)
    cloud = julia_cloud(seq, depth, anchor)
    points = orbits.distinct_points(seq, depth, anchor)
    # the same bit patterns, each once
    assert _bit_patterns(points).shape[0] == points.size
    assert np.array_equal(_bit_patterns(points), _bit_patterns(cloud.points))
    # the same representative of +-0 parts: the first in word order
    want_points = boxcount._distinct(cloud.points).view(np.uint64)
    assert np.array_equal(boxcount._distinct(points).view(np.uint64), want_points)
    resolution = resolution_bound(seq, depth)
    assert resolution == cloud.resolution
    ladder = cloud_ladder(resolution)
    want = box_dimension(cloud.points, ladder, min_scale=resolution)
    got = box_dimension(points, ladder, min_scale=resolution, leaves=2**depth)
    assert np.array_equal(got.counts, want.counts)
    assert got.slope == want.slope
    assert got.residual == want.residual


def test_size_guard_counts_leaves():
    # const:1000 at depth 18: 64 distinct points among 262,144 leaves
    seq = Constant(1000)
    points = orbits.distinct_points(seq, 18)
    assert points.size == 64
    ladder = np.geomspace(0.3, 1e-4, 9)
    assert box_dimension(points, ladder, leaves=2**18).counts[-1] <= 64
    with pytest.raises(ValueError):
        box_dimension(points, ladder)


def test_dimension_box_check_counts_leaves(capsys):
    # fewer than 1000 distinct points, yet a box count like the materialized one
    assert main(["dimension", "--seq", "const:1000", "--window", "8:12", "--box-check",
                 "--box-depth", "18"]) == 0
    line = capsys.readouterr().err.splitlines()[-1]  # the CSV went to stdout
    cloud = julia_cloud(Constant(1000), 18)
    want = box_dimension(cloud.points, cloud_ladder(cloud.resolution), min_scale=cloud.resolution)
    assert line.startswith(f"box-check: slope {want.slope:.17g} vs h_lower ")
    assert line.endswith(f"fit residual {want.residual:.3g})")
