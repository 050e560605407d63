from pathlib import Path

import numpy as np
import pytest

from fiberdim import (
    Constant,
    ResolutionError,
    box_dimension,
    cloud_ladder,
    default_ladder,
    julia_cloud,
)
from fiberdim.cli import main

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
    with pytest.raises(ValueError):
        box_dimension(segment_cloud(count=100))
    with pytest.raises(ValueError):
        box_dimension(np.append(segment_cloud(), np.nan))
    with pytest.raises(ValueError):
        box_dimension(segment_cloud(), np.geomspace(0.5, 0.05, 5))  # one decade only


def test_default_and_cloud_ladders():
    ladder = default_ladder()
    assert ladder[0] / ladder[-1] >= 100.0
    tied = cloud_ladder(resolution=1e-20)
    assert tied[-1] >= 1e-14
    assert tied[0] / tied[-1] >= 100.0
    coarse = cloud_ladder(resolution=1e-5)
    assert coarse[-1] >= 1e-4


def test_deterministic_given_seed():
    cloud = ifs_cloud(1 / 3, 12)
    a = box_dimension(cloud, np.geomspace(0.3, 1e-4, 9), seed=5)
    b = box_dimension(cloud, np.geomspace(0.3, 1e-4, 9), seed=5)
    assert a.slope == b.slope
    assert np.array_equal(a.counts, b.counts)


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
