import hashlib
import io
import math
import platform

import numpy as np
import pytest

from fiberdim import (
    Constant,
    DepthLimit,
    DomainError,
    Periodic,
    PerturbedSequence,
    RandomAnnulus,
    SignSchedule,
    at,
    composed_forward_residual,
    delta,
    iter_leaf_blocks,
    julia_cloud,
    leaf_log_derivs,
    resolution_bound,
    roundtrip_check,
    word_of,
    write_cloud_csv,
)
from fiberdim import orbits
from fiberdim.cli import main
from oracles import brute_leaves

CONST50 = Constant(50)
LOG50 = math.log(50.0)


def test_depth_one_leaves():
    cloud = julia_cloud(CONST50, 1)
    words = [word_of(i, 1) for i in range(cloud.points.size)]
    assert list(zip(words, cloud.points.tolist())) == [("0", 1 + 0j), ("1", -1 + 0j)]
    for ld in cloud.log_derivs:
        assert ld == pytest.approx(LOG50, rel=1e-15)
    assert cloud.fiber == 0 and cloud.depth == 1


def test_all_zero_word_is_fixed_point():
    cloud = julia_cloud(CONST50, 3)
    assert word_of(0, 3) == "000"
    assert cloud.points[0] == 1 + 0j
    assert cloud.log_derivs[0] == pytest.approx(3 * LOG50, rel=1e-14)
    # 1 is fixed by every family member, so leaf 0 stays at 1 under a perturbation too
    pert = PerturbedSequence(CONST50, SignSchedule(2, 2, 1), 0.07)
    for seq in (CONST50, pert):
        assert julia_cloud(seq, 9).points[0] == 1 + 0j


def test_depth_two_points():
    cloud = julia_cloud(CONST50, 2)
    expected = {1.0, -1.0, math.sqrt(0.92), -math.sqrt(0.92)}
    assert set(np.round(cloud.points.real, 12)) == {round(v, 12) for v in expected}
    assert np.allclose(cloud.points.imag, 0.0)
    # the depth-2 forward round trip is still well conditioned in float64
    assert composed_forward_residual(CONST50, 0, 2) <= 1e-12


def test_leaf_count_and_word_order():
    n = 10
    words = [
        word_of(start + i, n)
        for start, pts, _ in iter_leaf_blocks(CONST50, 0, n)
        for i in range(pts.size)
    ]
    assert len(words) == 2**n
    assert words == sorted(words)
    assert len(set(words)) == 2**n


def test_matches_bruteforce_enumeration():
    seq = Periodic((50, 60 + 10j, -45))
    n = 5
    params = [at(seq, k) for k in range(1, n + 1)]
    expected = brute_leaves(params)
    cloud = julia_cloud(seq, n)
    for i, (point, log_deriv) in enumerate(zip(cloud.points, cloud.log_derivs)):
        z, deriv = expected[word_of(i, n)]
        assert point == pytest.approx(z, rel=1e-13, abs=1e-13)
        assert log_deriv == pytest.approx(math.log(deriv), rel=1e-12)


def test_fiber_offset_uses_shifted_parameters():
    seq = Periodic((50, 60 + 10j, -45))
    j = 2
    n = 4
    params = [at(seq, k) for k in range(j + 1, j + n + 1)]
    expected = brute_leaves(params)
    cloud = julia_cloud(seq, n, j=j)
    for i, (point, log_deriv) in enumerate(zip(cloud.points, cloud.log_derivs)):
        z, deriv = expected[word_of(i, n)]
        assert point == pytest.approx(z, rel=1e-13, abs=1e-13)
        assert log_deriv == pytest.approx(math.log(deriv), rel=1e-12)


def test_blocked_traversal_matches_single_block(monkeypatch):
    seq = RandomAnnulus(seed=11, min_mod=44, max_mod=70)
    n = 9
    whole = np.concatenate([pts for _, pts, _ in iter_leaf_blocks(seq, 0, n)])
    pieces = []
    starts = []
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 3)
    for start, pts, _ in iter_leaf_blocks(seq, 0, n):
        starts.append(start)
        pieces.append(pts)
    assert starts == list(range(0, 2**n, 2**3))
    assert np.array_equal(np.concatenate(pieces), whole)


def test_trapping_and_first_bit_disk():
    n = 11
    for start, pts, _ in iter_leaf_blocks(CONST50, 0, n):
        first_bit = ((start + np.arange(pts.size)) >> (n - 1)) & 1
        centers = np.where(first_bit == 0, 1.0, -1.0)
        assert float(np.abs(pts - centers).max()) <= 1 / 3


def test_roundtrip_certificate():
    report = roundtrip_check(CONST50, 0, 14)
    assert report.edge_residual_max <= 1e-13
    assert report.certified_leaf_error <= 1e-9
    # the literal composed form is only usable at very small depth
    assert composed_forward_residual(CONST50, 0, 3) <= 1e-9


def test_separation_at_brute_force_depth():
    n = 8
    pts = julia_cloud(CONST50, n).points
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, np.inf)
    closest = float(diff.min())
    analytic = (4 / 3) * (3 / (4 * 50.0)) ** (n - 1)
    assert closest >= analytic
    assert closest >= resolution_bound(CONST50, n + 1)
    assert np.unique(pts).size == 2**n


def test_resolution_bound_covers_refinements():
    # every depth-(d+6) leaf lies within the depth-d bound of some depth-d leaf
    d = 6
    coarse = julia_cloud(CONST50, d).points
    fine = julia_cloud(CONST50, d + 6).points
    bound = resolution_bound(CONST50, d)
    dist = np.abs(fine[:, None] - coarse[None, :]).min(axis=1)
    assert float(dist.max()) <= bound


def test_resolution_bound_value():
    assert resolution_bound(CONST50, 5) == pytest.approx((2 / 3) * (3 / 100) ** 5, rel=1e-14)


def test_motion_speed_over_all_leaves():
    for x in (0.01, 0.1):
        pert = PerturbedSequence(CONST50, SignSchedule(2, 2, 1), x)
        bound = delta(x) / 9
        ratio_bound = delta(x) / 6
        blocks_base = iter_leaf_blocks(CONST50, 0, 12)
        blocks_pert = iter_leaf_blocks(pert, 0, 12)
        for (_, pb, _), (_, pp, _) in zip(blocks_base, blocks_pert):
            assert float(np.abs(pp - pb).max()) <= bound + 1e-12
            assert float(np.abs(np.log(np.abs(pp) / np.abs(pb))).max()) <= ratio_bound + 1e-12


def test_depth_cap(monkeypatch):
    monkeypatch.setenv("FIBERDIM_DEPTH_LIMIT", "6")
    with pytest.raises(DepthLimit):
        list(iter_leaf_blocks(CONST50, 0, 7))
    assert sum(pts.size for _, pts, _ in iter_leaf_blocks(CONST50, 0, 6)) == 64


@pytest.mark.parametrize(
    "seq", [CONST50, Periodic((50, 60 + 10j, -45)), RandomAnnulus(seed=5)], ids=format
)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
@pytest.mark.parametrize("anchor", [1.0, -1.0, -1.05 + 0.1j])
def test_half_tree_log_derivs(monkeypatch, seq, metric, anchor):
    # Blocks of 2^3 leaves, so trees deeper than 3 take the per-prefix path.
    monkeypatch.setattr(orbits, "_BLOCK_LOG2", 3)
    monkeypatch.setenv("FIBERDIM_DEPTH_LIMIT", "12")
    for n in (0, 1, 2, 7, 12):
        full_stats = orbits.TreeStats()
        full = np.concatenate(
            [lds for _, _, lds in iter_leaf_blocks(seq, 0, n, anchor, metric, full_stats)]
        )
        half, stats = leaf_log_derivs(seq, 0, n, anchor, metric)
        if n == 0:
            assert np.array_equal(half, full) and np.array_equal(half, [0.0])
        else:
            # words 0w and 1w have bit-identical log-derivatives
            assert np.array_equal(half, full[: full.size // 2])
            assert np.array_equal(half, full[full.size // 2 :])
        assert stats == full_stats
    with pytest.raises(DepthLimit):
        leaf_log_derivs(seq, 0, 13, anchor, metric)


def test_anchor_domain():
    with pytest.raises(DomainError):
        julia_cloud(CONST50, 3, anchor=0.0)


def test_cloud_csv_format():
    cloud = julia_cloud(CONST50, 1)
    buf = io.StringIO()
    write_cloud_csv(cloud, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "word,re,im,log_deriv"
    assert lines[1] == f"0,1,0,{LOG50:.17g}"
    assert lines[2].startswith("1,-1,")
    assert len(lines) == 3


def test_word_of():
    assert word_of(0, 3) == "000"
    assert word_of(5, 3) == "101"
    assert word_of(0, 0) == ""


def test_spherical_log_derivs_telescope():
    # the conformal factors cancel along the orbit, so the accumulated
    # spherical value equals the planar one plus a leaf-level correction
    seq = Periodic((50, 60 + 10j, -45))
    anchor = 1.1 + 0.05j
    n = 8
    planar = np.concatenate([lds for _, _, lds in iter_leaf_blocks(seq, 0, n, anchor)])
    spherical = np.concatenate(
        [lds for _, _, lds in iter_leaf_blocks(seq, 0, n, anchor, metric="spherical")]
    )
    pts = julia_cloud(seq, n, anchor).points
    expected = planar + np.log1p(np.abs(pts) ** 2) - math.log1p(abs(anchor) ** 2)
    assert np.allclose(spherical, expected, rtol=0, atol=1e-11)


def _trapped_parents(rng, size):
    """Points of the closed trapping disks, boundary included."""
    centers = rng.choice([-1.0, 1.0], size)
    radii = np.concatenate([rng.uniform(0.0, 1.0 / 3.0, size - 16), np.full(16, 1.0 / 3.0)])
    return centers + radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))


def _random_parameters(rng, count):
    moduli = rng.uniform(40.0, 400.0, count)
    moduli[0] = np.nextafter(40.0, 41.0)
    return moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))


def test_branch0_root_matches_numpy_sqrt():
    # The traversal relies on the root being the principal sqrt to within an
    # ulp; the points themselves are frozen by test_julia_points_golden.
    # glibc's csqrt takes the same real-arithmetic path for Re w > 0, so there
    # the bits agree too; other libms may round differently.
    same_bits = platform.libc_ver()[0] == "glibc"
    rng = np.random.default_rng(11)
    for l in _random_parameters(rng, 40):
        l = complex(l)
        parents = _trapped_parents(rng, 4096)
        w = 1.0 + 2.0 * (parents - 1.0) / l
        assert w.real.min() > 0.88  # the precondition of the hand-written root
        expected = np.sqrt(w)
        root = parents.copy()
        orbits._branch0_root(l, root)
        assert np.all(np.abs(root - expected) <= np.spacing(np.abs(expected)))
        if same_bits:
            assert np.array_equal(root, expected)


@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_root_free_step_logs(metric):
    rng = np.random.default_rng(12)
    for l in _random_parameters(rng, 40):
        l = complex(l)
        parents = _trapped_parents(rng, 4096)
        root = np.sqrt(1.0 + 2.0 * (parents - 1.0) / l)
        expected = math.log(abs(l)) + np.log(np.abs(root))
        if metric == "spherical":
            expected += np.log1p(np.abs(root) ** 2) - np.log1p(np.abs(parents) ** 2)
        steps = orbits._step_logs(l, parents, metric)
        assert np.all(np.abs(steps - expected) <= 4 * np.spacing(np.abs(expected)))


# sha256 of the `word,re,im` columns of `fiberdim julia --depth 12`, frozen
# before the traversal stopped calling np.sqrt; the points must not move
JULIA_DEPTH12_POINTS = {
    ("const:50", "planar", "1"):
        "51c00d8b579cfbb83b5c62e75bd15ac3999a33ae4ae223551e770760830569fd",
    ("random:seed=7,min=45,max=80", "planar", "1"):
        "21acd19b81aaf66eeca83190edcbf36957a81bbdabf68694b64ece1355bade5a",
    ("random:seed=7,min=45,max=80", "spherical", "-1.05+0.1i"):
        "818936142b83851150cfc9bb4b21762ad6d78deff5d7596c22bd300d800cc072",
}


@pytest.mark.parametrize("spec,metric,anchor", sorted(JULIA_DEPTH12_POINTS))
def test_julia_points_golden(spec, metric, anchor, capsys):
    assert main(["julia", "--seq", spec, "--depth", "12", "--metric", metric,
                 f"--anchor={anchor}"]) == 0
    rows = capsys.readouterr().out.splitlines(keepends=True)
    columns = "".join(row.rsplit(",", 1)[0] + "\n" for row in rows)
    assert hashlib.sha256(columns.encode()).hexdigest() == JULIA_DEPTH12_POINTS[spec, metric, anchor]
