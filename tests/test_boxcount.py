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
    with pytest.raises(ValueError, match="not empty"):
        box_dimension(np.array([], dtype=complex), ladder, leaves=1000)
    for offsets in (0, -1):  # np.mean of no counts would give NaN
        with pytest.raises(ValueError, match="grid offset"):
            box_dimension(segment_cloud(), ladder, offsets=offsets)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3, 0.0])
def test_scales_must_be_finite_and_positive(bad, capfd):
    # checked before the span (-1e-3 read as "two decades") and the resolution bound;
    # NaN and inf reached np.polyfit, which printed LAPACK errors and raised LinAlgError
    for ladder in (np.append(np.geomspace(0.4, 0.004, 11), bad), [bad]):
        with pytest.raises(ValueError, match="scales must be finite and > 0"):
            box_dimension(segment_cloud(), ladder, min_scale=1e-3)
    assert capfd.readouterr().err == ""


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


def test_grid_counts_count_signed_zero_indices_once_and_keep_no_state_between_grids():
    # with a zero offset -0.0 floors to box index -0.0 and 0.0 to 0.0: one box, not two,
    # both as corners of whole runs (gap < 0: each point a run) and point by point (gap
    # 2.0: the first three points make one run that straddles the edge Im = 2)
    pts = np.array([complex(-0.0, 1.5), complex(0.0, 1.5), complex(0.1, 2.5),
                    complex(1.5, -0.0), complex(1.5, 0.0)])
    for gap in (-1.0, 2.0):
        runs = boxcount._runs(pts, gap)
        assert boxcount._grid_counts(pts, runs, 1.0, [(0.0, 0.0)]).tolist() == [3]
    cloud = boxcount._distinct(julia_cloud(Constant(50), 10).points)
    runs = boxcount._runs(cloud, 1e-4 / 4.0)
    for eps in (1e-2, 1e-4, 1e-2):  # the keys of one scale do not leak into the next
        grids = [(0.3 * eps, 0.7 * eps), (0.0, 0.0), (0.9 * eps, 0.1 * eps)]
        want = [set_occupancy(cloud, eps, offset) for offset in grids]
        assert boxcount._grid_counts(cloud, runs, eps, grids).tolist() == want


@pytest.mark.parametrize(
    "spec,depth,anchor",
    [
        ("periodic:32.868743+45.751304i,60.882672+29.795897i", 18, 1.0 + 0.0j),  # seed 7
        ("const:50", 14, -1.05 + 0.1j),
        ("const:1000", 18, 1.0 + 0.0j),
    ],
)
def test_distinct_cloud_box_dimension_matches_the_numpy_offset_oracle(spec, depth, anchor):
    seq = parse_sequence(spec)
    points = orbits.distinct_points(seq, depth, anchor)
    resolution = resolution_bound(seq, depth)
    ladder = cloud_ladder(resolution)
    got = box_dimension(points, ladder, min_scale=resolution, leaves=2**depth)
    counts, slope, residual = numpy_box_dimension(points, ladder)
    assert np.array_equal(got.counts, counts)
    assert got.slope == slope
    assert got.residual == residual


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


_BOX_GOLDENS = {  # golden directory: dimension argv before --box-check
    "dimension_const50": ["--seq", "const:50", "--window", "8:12", "--box-depth", "14"],
    "dimension_periodic_seed7": [  # the dimension benchmark at seed 7
        "--seq", "periodic:32.868743+45.751304i,60.882672+29.795897i", "--window", "14:22",
        "--tol", "1e-10", "--box-depth", "18"],
    "dimension_const50_offaxis": [
        "--seq", "const:50", "--anchor=-1.05+0.1i", "--window", "8:10", "--box-depth", "16"],
}


@pytest.mark.parametrize("golden", list(_BOX_GOLDENS))
def test_dimension_box_check_golden(tmp_path, capsys, golden):
    # stdout, the roots CSV (-o, where the golden has one) and the box CSV, frozen
    # from the full-array (dimension_const50) and the per-point box counts
    want, roots, box = GOLDEN / golden, tmp_path / "roots.csv", tmp_path / "box.csv"
    out = ["-o", str(roots)] if (want / "roots.csv").exists() else []
    argv = ["dimension", *_BOX_GOLDENS[golden], "--box-check", "--box-out", str(box), *out]
    assert main(argv) == 0
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    if out:
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
