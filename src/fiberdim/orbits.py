"""Inverse-branch preimage trees across fibers.

A depth-n pullback at fiber j applies the inverse branches of
f_{l_{j+n}}, ..., f_{l_{j+1}} to an anchor point, innermost map first.  The
branch word w = b_1 b_2 ... b_n records the forward itinerary: the leaf lies
in U_{b_1}, its image in U_{b_2}, and so on, with the anchor reached after n
steps.  Leaves are enumerated in lexicographic word order; the integer index
of a leaf is its word read as a binary number.

The traversal works level by level on numpy arrays, stacking the new branch
bit as the most significant index bit.  Deep trees are streamed in blocks of
at most 2**block_log2 leaves (word-order preserved) so memory stays bounded
regardless of depth.  Accumulated log-derivatives are carried along exactly:
log_deriv(leaf) = sum over forward steps of log|l_k z_k| (planar metric) or
the spherically rescaled step sizes (metric="spherical").
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DepthLimit, DomainError
from .family import EXPANSION_FLOOR, apply, in_trap_union
from .sequences import SequenceSpec, at, format_sequence

_DEFAULT_DEPTH_LIMIT = 26
_BLOCK_LOG2 = 18  # leaves per streamed block cap (4 MiB of complex128)

PLANAR = "planar"
SPHERICAL = "spherical"


def depth_limit() -> int:
    """Configured pullback depth cap (env FIBERDIM_DEPTH_LIMIT overrides)."""
    return int(os.environ.get("FIBERDIM_DEPTH_LIMIT", _DEFAULT_DEPTH_LIMIT))


@dataclass
class TreeStats:
    """Extremes gathered during a traversal.

    step_log_min/max bound the one-step log-derivative over every tree edge;
    leaf_log_min/max bound the accumulated leaf values.  edge_residual_max is
    only filled when the traversal re-applies the forward map to each child
    (verify_edges=True) and records max |f_l(child) - parent|.
    """

    step_log_min: float = math.inf
    step_log_max: float = -math.inf
    leaf_log_min: float = math.inf
    leaf_log_max: float = -math.inf
    edge_residual_max: float = 0.0

    def _update_steps(self, steps: np.ndarray) -> None:
        self.step_log_min = min(self.step_log_min, float(steps.min()))
        self.step_log_max = max(self.step_log_max, float(steps.max()))

    def _update_leaves(self, lds: np.ndarray) -> None:
        self.leaf_log_min = min(self.leaf_log_min, float(lds.min()))
        self.leaf_log_max = max(self.leaf_log_max, float(lds.max()))


def check_depth(n: int) -> None:
    """Reject a negative depth or one above the configured cap."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n > depth_limit():
        raise DepthLimit(f"depth {n} exceeds cap {depth_limit()} (set FIBERDIM_DEPTH_LIMIT)")


def _validate(n: int, anchor: complex) -> None:
    check_depth(n)
    if not in_trap_union(anchor):
        raise DomainError(f"anchor {anchor} lies outside the closed trapping disks")


def _step_logs(l: complex, children: np.ndarray, parents: np.ndarray, metric: str) -> np.ndarray:
    steps = np.log(np.abs(l)) + np.log(np.abs(children))
    if metric == SPHERICAL:
        steps = steps + np.log1p(np.abs(children) ** 2) - np.log1p(np.abs(parents) ** 2)
    elif metric != PLANAR:
        raise ValueError(f"unknown metric {metric!r}")
    return steps


def _apply_both(l, pts, lds, metric, stats, verify):
    root = np.sqrt(1.0 + 2.0 * (pts - 1.0) / l)
    steps = _step_logs(l, root, pts, metric)
    if stats is not None:
        stats._update_steps(steps)
        if verify:
            resid = np.abs(apply(l, root) - pts)
            stats.edge_residual_max = max(stats.edge_residual_max, float(resid.max()))
    new_pts = np.concatenate([root, -root])
    new_lds = np.tile(lds, 2) + np.tile(steps, 2)
    return new_pts, new_lds


def _apply_one(l, bit, pts, lds, metric, stats, verify):
    root = np.sqrt(1.0 + 2.0 * (pts - 1.0) / l)
    if bit:
        root = -root
    steps = _step_logs(l, root, pts, metric)
    if stats is not None:
        stats._update_steps(steps)
        if verify:
            resid = np.abs(apply(l, root) - pts)
            stats.edge_residual_max = max(stats.edge_residual_max, float(resid.max()))
    return root, lds + steps


def iter_leaf_blocks(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
    stats: TreeStats | None = None,
    block_log2: int = _BLOCK_LOG2,
    verify_edges: bool = False,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start_index, points, log_derivs) blocks covering all 2**n leaves.

    Blocks arrive in word order and partition the index range [0, 2**n); the
    leaf at global index i has word format(i, '0nb').  The traversal is fixed
    (suffix arrays bottom-up, then one pass per word prefix), so results are
    bit-identical however the blocks are consumed.
    """
    _validate(n, anchor)
    params = [at(seq, k) for k in range(j + 1, j + n + 1)]
    pts = np.array([complex(anchor)], dtype=np.complex128)
    lds = np.zeros(1)
    if n == 0:
        yield 0, pts, lds
        return
    prefix_bits = max(0, n - block_log2)
    for m in range(n - 1, prefix_bits - 1, -1):
        pts, lds = _apply_both(params[m], pts, lds, metric, stats, verify_edges)
    if prefix_bits == 0:
        if stats is not None:
            stats._update_leaves(lds)
        yield 0, pts, lds
        return
    size = pts.size
    for prefix in range(1 << prefix_bits):
        block_pts, block_lds = pts, lds
        for m in range(prefix_bits - 1, -1, -1):
            bit = (prefix >> (prefix_bits - 1 - m)) & 1
            block_pts, block_lds = _apply_one(
                params[m], bit, block_pts, block_lds, metric, stats, verify_edges
            )
        if stats is not None:
            stats._update_leaves(block_lds)
        yield prefix * size, block_pts, block_lds


def leaf_log_derivs(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> tuple[np.ndarray, TreeStats]:
    """Materialize the 2**n accumulated log-derivatives in word order."""
    stats = TreeStats()
    parts = [lds for _, _, lds in iter_leaf_blocks(seq, j, n, anchor, metric, stats)]
    return np.concatenate(parts), stats


def subtrees(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> list[tuple[int, complex, float]]:
    """Split the depth-n tree at its innermost levels into subtrees of <= 2**_BLOCK_LOG2 leaves.

    Returns one (depth, root, log_deriv) per subtree: its leaves are the
    depth-`depth` pullbacks of `root` at fiber j, and adding `log_deriv` to
    their log-derivatives gives those of the full tree.  The roots are the
    leaves of the innermost n - depth levels, i.e. of the depth-(n - depth)
    tree at fiber j + depth, in its word order.  The split depends on n and
    _BLOCK_LOG2 only.
    """
    _validate(n, anchor)
    depth = min(n, _BLOCK_LOG2)
    return [
        (depth, complex(z), float(ld))
        for _, pts, lds in iter_leaf_blocks(seq, j + depth, n - depth, anchor, metric)
        for z, ld in zip(pts, lds)
    ]


def word_of(index: int, depth: int) -> str:
    """Branch word of the leaf at a given word-order index."""
    return format(index, f"0{depth}b") if depth > 0 else ""


@dataclass(frozen=True)
class CylinderLeaf:
    """One depth-n preimage of the anchor with its word and log-derivative."""

    word: str
    point: complex
    log_deriv: float
    fiber: int
    depth: int


def pullback_leaves(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> Iterator[CylinderLeaf]:
    """Stream all 2**n leaves as CylinderLeaf records, lexicographic word order."""
    for start, pts, lds in iter_leaf_blocks(seq, j, n, anchor, metric):
        for i in range(pts.size):
            yield CylinderLeaf(word_of(start + i, n), complex(pts[i]), float(lds[i]), j, n)


def resolution_bound(seq: SequenceSpec, depth: int, j: int = 0) -> float:
    """Every Julia point of the fiber is within this distance of a depth-n leaf.

    Each inverse branch contracts the closed trapping disks by at least
    3/(2|l_k|) (since |z| >= 2/3 there), and the disks have diameter 2/3, so
    depth-n cylinders have diameter at most (2/3) * prod_k 3/(2|l_k|).
    """
    bound = 2.0 / 3.0
    for k in range(j + 1, j + depth + 1):
        bound *= 3.0 / (2.0 * abs(at(seq, k)))
    return bound


@dataclass(frozen=True)
class JuliaCloud:
    """All depth-n pullbacks of the anchor; exact Julia points when anchor=1."""

    points: np.ndarray
    log_derivs: np.ndarray
    seq_id: str
    fiber: int
    depth: int
    anchor: complex
    resolution: float
    stats: TreeStats = field(repr=False, default_factory=TreeStats)

    def word(self, index: int) -> str:
        return word_of(index, self.depth)


def julia_cloud(
    seq: SequenceSpec,
    depth: int,
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
    metric: str = PLANAR,
) -> JuliaCloud:
    """Materialize the 2**depth leaf points (word order) plus the resolution bound."""
    stats = TreeStats()
    pts_parts = []
    lds_parts = []
    for _, pts, lds in iter_leaf_blocks(seq, j, depth, anchor, metric, stats):
        pts_parts.append(pts)
        lds_parts.append(lds)
    return JuliaCloud(
        points=np.concatenate(pts_parts),
        log_derivs=np.concatenate(lds_parts),
        seq_id=format_sequence(seq),
        fiber=j,
        depth=depth,
        anchor=complex(anchor),
        resolution=resolution_bound(seq, depth, j),
        stats=stats,
    )


def motion_pair(
    word: str,
    base: SequenceSpec,
    perturbed: SequenceSpec,
    j: int = 0,
    anchor: complex = 1.0 + 0.0j,
) -> tuple[complex, complex]:
    """Pull the anchor back along the same word under both sequences.

    With anchor 1 (fixed by every family member) the pair realizes the
    holomorphic motion between the two fiber Julia sets, restricted to the
    leaf coded by `word`.
    """
    n = len(word)
    _validate(n, anchor)
    if any(b not in "01" for b in word):
        raise ValueError(f"word must be over {{0,1}}: {word!r}")

    def pull(seq: SequenceSpec) -> complex:
        z = complex(anchor)
        for k in range(n, 0, -1):
            l = at(seq, j + k)
            root = complex(np.sqrt(complex(1.0 + 2.0 * (z - 1.0) / l)))
            z = -root if word[k - 1] == "1" else root
        return z

    return pull(base), pull(perturbed)


@dataclass(frozen=True)
class RoundTripReport:
    """A-posteriori accuracy certificate for a pullback tree.

    edge_residual_max is max |f_l(child) - parent| over every tree edge.  The
    one-step expansion floor 80/3 then pins each leaf within
    edge_residual_max / (80/3 - 1) of the exact preimage of the anchor, the
    strongest round-trip statement float64 leaves can support: composing the
    forward map in floating point amplifies any leaf error by prod|f'| ~ |l|^n,
    so the direct residual |f^n(leaf) - anchor| is only meaningful at depths
    where that factor stays below ~1e7 (see composed_forward_residual).
    """

    depth: int
    edge_residual_max: float
    certified_leaf_error: float


def roundtrip_check(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
) -> RoundTripReport:
    """Verify every tree edge forward (f_l(child) = parent) and certify leaves."""
    stats = TreeStats()
    for _ in iter_leaf_blocks(seq, j, n, anchor, stats=stats, verify_edges=True):
        pass
    return RoundTripReport(
        depth=n,
        edge_residual_max=stats.edge_residual_max,
        certified_leaf_error=stats.edge_residual_max / (EXPANSION_FLOOR - 1.0),
    )


def composed_forward_residual(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
) -> float:
    """max |f^n(leaf) - anchor| with the forward composition evaluated in float64.

    Expansion makes this grow like |l|^n * machine epsilon, so it is a useful
    oracle only at small depth; roundtrip_check gives the depth-robust bound.
    """
    worst = 0.0
    for _, pts, _ in iter_leaf_blocks(seq, j, n, anchor):
        z = pts.copy()
        for k in range(1, n + 1):
            z = apply(at(seq, j + k), z)
        worst = max(worst, float(np.abs(z - anchor).max()))
    return worst


def write_cloud_csv(cloud: JuliaCloud, stream) -> None:
    """Rows `word,re,im,log_deriv` in word order, floats at 17 significant digits."""
    stream.write("word,re,im,log_deriv\n")
    for i in range(cloud.points.size):
        z = cloud.points[i]
        stream.write(
            f"{cloud.word(i)},{z.real:.17g},{z.imag:.17g},{cloud.log_derivs[i]:.17g}\n"
        )
