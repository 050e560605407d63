"""Inverse-branch preimage trees across fibers.

A depth-n pullback at fiber j applies the inverse branches of
f_{l_{j+n}}, ..., f_{l_{j+1}} to an anchor point, innermost map first.  The
branch word w = b_1 b_2 ... b_n records the forward itinerary: the leaf lies
in U_{b_1}, its image in U_{b_2}, and so on, with the anchor reached after n
steps.  Leaves are enumerated in lexicographic word order; the integer index
of a leaf is its word read as a binary number.

The traversal works level by level on numpy arrays, stacking the new branch
bit as the most significant index bit: a level with s leaves in [0, s) has
their branch-0 roots there and the negatives in [s, 2s).  Deep trees are
streamed in blocks of at most 2**_BLOCK_LOG2 leaves (word-order preserved) so
memory stays bounded regardless of depth.  Accumulated log-derivatives are
carried along exactly: log_deriv(leaf) = sum over forward steps of
log|l_k z_k| (planar metric) or the spherically rescaled step sizes
(metric="spherical").

Distinct levels: level k - 1 is [U, -U] for U the bit-distinct branch-0
roots of level k (_level_below), found by one stable argsort and a uint64
neighbour compare of the sorted roots, so each bit pattern of a level comes
once.  Equal means equal bits of both parts: -0.0 and +0.0 print differently
and stay apart.  Every inverse branch contracts by at least 80/3, so leaves
whose words differ only in their innermost bits round to one float64 from
about level 11 on (depth 18 of random:seed=7,min=45,max=80 has 5,832
distinct points for 262,144 leaves).  What depends only on the point set of
each level (distinct_points, roundtrip_check) walks the levels from the
anchor and holds one at a time.  iter_leaf_blocks walks the same levels and
keeps one log-derivative and one index into the level per leaf: each level
adds the step logs of its distinct points by take(index), maps index through
the children c0 and doubles both arrays for branch 1 ([index, index + |U|]
and [lds, lds]).  Every leaf gets the same arithmetic on the same inputs in
the same order as a level over all leaves, so no bit moves.  Past
2**_BLOCK_LOG2 leaves, each word prefix takes a copy of the last level's
distinct points through the remaining outer levels, and its block is their
take(index).

Fiber point tables (fiber_table): the depth-n trees at fiber j for every
n of a range are reduced over one deduplicated point set per level.  Every
f_l fixes 1 and sends -1 to 1, and in float64 1 is exactly its own branch-0
preimage and -1 its branch-1 preimage, so from anchor 1 every depth-n tree
is a subtree of the one depth-n_max tree and the trees of a range share
nearly all their bit-distinct points.  The build runs top-down: P_{n_max} is
{anchor}; for k = n_max..2 it takes the step logs s_k of P_k (the step-log
identity below) and their branch-0 roots, and P_{k-1} is [U, -U] with U one
root per cell of the grid key (below), found by one stable argsort and a
uint64 neighbour compare of the keys, as in the distinct levels.
Branch-0 roots have Re > 0.88, so U and -U share no point.  Each point of
P_k keeps the index c0 of its root in U, and c1 = c0 + |U| is that of its
negative.  For n_min <= k - 1 the anchor is appended to P_{k-1}; a copy of
a point (anchor 1 is its own root) joins its cell one level down and moves
no sum.  Level 1 keeps only its step logs.

The sweep runs upward.  For p in P_k let L_k(p) and H_k(p) be the least and
largest log-derivative of the leaves of the depth-k tree from p at fiber j,
and S_k(p) in [1, 2^k] their sum of exp(-t (ld - L_k(p))).  Then L_1 = H_1 =
s_1 and S_1 = 2 (the first-bit identity below), and with
m = min(L(c0), L(c1))

    L_k = s_k + m,   H_k = s_k + max(H(c0), H(c1)),
    S_k = S(c0) exp(-t (L(c0) - m)) + S(c1) exp(-t (L(c1) - m)),

so the depth-n sum is -t L_n(a) + log S_n(a) at the anchor's index a in
P_n, every depth from one sweep.  L and H do not depend on t: they are swept
once, keeping each level's shifts, and S once per t over the kept shifts, so
no array holds one row per t.  At t = 0, S_n(a) = 2^n exactly.  The mean
log-derivative of the leaves under the weights exp(-t ld), whose negative
is the t-derivative of the log sum, is L_k(p) + D_k(p), and D sweeps beside
S on request: D_1 = 0 and, with e = exp(-t gap) for the children c_min,
c_max of least and largest L and their gap |L(c0) - L(c1)|,

    D_k = (S(c_min) D(c_min) + e S(c_max) (D(c_max) + gap)) / (S(c_min) + e S(c_max)),

the weighted mean of the children's means less L_k, with no step log.  The
sweep adds a leaf's step logs from the leaf end and the traversal from the
root, so the leaf extremes can differ from the traversal's in the last bits
(a few ulps), and the sums from a direct sum over the leaves likewise.

Grid key: two roots share a table point when their real parts are
bit-equal and their imaginary parts round to one multiple of q = 2^-56, the
key Re + i (round(Im / q) q + 0.0); the + 0.0 turns -0.0 into +0.0, so tiny
imaginary parts of both signs meet.  A group keeps its first root in stable
key order, unrounded, so a point that merges nothing keeps its bits.  Only
the tables use this key; distinct_points and roundtrip_check keep bit
equality.  Without it, real parameters seen from an off-axis anchor keep
imaginary parts of about 1e-22 of both signs, and no two points ever merge.

Certificate: points of one cell share their Re bits and differ by at most
q in Im.  The planar step log (log|l| + log|l + 2p - 2|)/2 is Lipschitz in
the parent p with constant 1/(|l| - 14/3) < 0.0284 on the trapping disks
(|p - 1| <= 7/3 there), and every branch contracts by a factor of at most
3/80, so replacing a point by another of its cell moves the step logs along
any path below it by less than 0.0284 q (1 + 3/80 + ...) < 0.03 q in all.
A depth-n leaf passes n merges, so its log-derivative moves by less than
0.03 n q, about 1e-17 at n = 26.  The spherical step adds
log1p(|l + 2p - 2| / |l|), Lipschitz with constant 2/|l| <= 0.05, and
-log1p(|p|^2), whose gradient 2|p| / (1 + |p|^2) is at most 1, so there a
leaf moves by less than 1.13 n q, about 4e-16 at n = 26.  Every step log
exceeds 2.8 in either metric, so a depth-n leaf value exceeds 2.8 n and its
ulp 3e-16 n: either bound is far below one ulp of a leaf value.  Levels
stay small: after 12 branches, (2/3)(3/80)^12 < q, so the images of the
trapping disks under one word of 12 branches lie within q of each other,
and a level holds about one point per such word, 2^12, plus the shallow
subtrees of the anchor copies (at most 4,905 points measured; the tests
hold every level under 2^13).

Paired tables (paired_table): the perturbation certificates compare the
same-word leaves of a base and a perturbed tree.  The build above runs on
their stack: P_k holds pairs (p_base, p_pert) of one word, each level takes
both members' step logs and roots, two pairs share a cell when both members
do (a lexsort), and the sweep runs on Δ = s_pert - s_base, so L_n and H_n
are the least and largest leaf Δ of depth n.  A member's leaf moves by less
than 0.03 n q under the merges, so a leaf Δ moves by less than 0.06 n q,
about 2e-17 at n = 26.  least_word walks down the children the sweep kept
as least, ties to branch 0; a second sweep over -Δ names the largest leaf.
Level 0, the roots of P_1 without anchor copies, holds every leaf pair up to
a common sign.  No paired level has been seen over 3,451 pairs.

Groups (fiber_table of a list of specs or an array of their parameter_rows):
the kink scan builds its trees' tables a few at a time in one row, each point
tagged with the index t of its tree, so a level makes one call of each step
per group.  One stable argsort orders the row by (t, key) once the key's Re
is scaled by 2**t: branch-0 roots have Re in (0.93, 1.06) (|w - 1| < 14/120,
below), so the scaled ranges of the trees are disjoint, equal scaled bits mean
one tree and equal key bits, and U gathers the tags of its representatives.
Each tree keeps its order and representatives, and the sweep reads the
anchors from an index array: every value has its one-tree table's bits.

Step logs without the root: the branch-0 preimage of p is r = sqrt(w),
w = 1 + 2(p - 1)/l, and |r|^2 = |w| = |l + 2p - 2| / |l|, so the planar step
is log|l r| = (log|l| + log|l + 2p - 2|) / 2 and the spherical one adds
log1p(|l + 2p - 2| / |l|) - log1p(|p|^2).  Every step log is computed from
the parents this way, so a level that needs only log-derivatives (level 1 of
the tables) takes no square root.

The root itself uses the csqrt formula of glibc and msun for Re w > 0,
r = sqrt((hypot(Re w, Im w) + Re w)/2) + i (Im w / r)/2, which skips the
branch cuts and scalings of the general complex square root.  Its
precondition holds on the closed trapping disks: |p - 1| <= 7/3 there, so
|w - 1| <= 14/(3|l|) < 14/120 and Re w > 0.88.  It is within an ulp of
np.sqrt, and gives the same bits where numpy uses glibc's csqrt, which
takes this path for Re w > 0 (checked by the tests on trapped radicands).

First-bit identity: the leaves 0w and 1w are -r and r for one parent, and
every step log depends on |r| (and |r|^2) only, so their log-derivatives are
bit-identical.  Sums over a tree's log-derivatives therefore need only the
half whose words start with 0, counted twice, and level 1 of a table keeps
one step log per point; the points themselves differ.
"""

from __future__ import annotations

import math
import os
from itertools import takewhile
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DepthLimit, DomainError
from .family import EXPANSION_FLOOR, apply, in_trap_union
from .sequences import SequenceSpec, at

_DEFAULT_DEPTH_LIMIT = 26
_BLOCK_LOG2 = 18  # leaves per streamed block cap (4 MiB of complex128)
_GRID = 2.0**-56  # q, the cell side of the fiber point tables' grid key

PLANAR = "planar"
SPHERICAL = "spherical"


def depth_limit() -> int:
    """Configured pullback depth cap (env FIBERDIM_DEPTH_LIMIT overrides)."""
    return int(os.environ.get("FIBERDIM_DEPTH_LIMIT", _DEFAULT_DEPTH_LIMIT))


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


def _step_logs(l: complex, parents: np.ndarray, metric: str, logs=None) -> np.ndarray:
    """One-step log-derivatives at the branch-0 preimages of `parents`, from the parents alone.

    The step-log identity of the module docstring: no root is taken.  In a group
    of trees, l holds each parent's parameter and logs their |l| and log|l|.
    """
    abs_l, log_l = (abs(l), math.log(abs(l))) if logs is None else logs
    mag = 2.0 * parents
    mag += l - 2.0
    mag = np.abs(mag)  # |l + 2p - 2| = |l| |root|^2
    steps = np.log(mag)
    steps += log_l
    steps *= 0.5
    if metric == SPHERICAL:
        mag /= abs_l
        steps += np.log1p(mag, out=mag)
        parent_sq = np.abs(parents, out=mag)  # reuses the buffer
        parent_sq *= parent_sq
        steps -= np.log1p(parent_sq, out=parent_sq)
    elif metric != PLANAR:
        raise ValueError(f"unknown metric {metric!r}")
    return steps


def _branch0_root(l: complex, pts: np.ndarray) -> None:
    """Replace each p in pts by sqrt(w), w = 1 + 2(p - 1)/l: its branch-0 preimage.

    Needs Re w > 0, which holds on the trapping disks (module docstring).
    """
    w = pts - 1.0
    w *= 2.0
    w /= l
    w += 1.0
    r = np.hypot(w.real, w.imag)
    r += w.real
    r *= 0.5
    np.sqrt(r, out=r)
    np.divide(w.imag, r, out=pts.imag)
    pts.imag *= 0.5
    pts.real = r


def _grid_key(pts):
    """Re + i (round(Im / q) q + 0.0), the grid key of the fiber point tables (module docstring)."""
    key = pts.copy()
    im = key.reshape(-1).imag  # a 1-D view: the rounding is written into key
    im *= 1.0 / _GRID  # exact, as is the scaling back: q is a power of two
    np.rint(im, out=im)
    im *= _GRID
    im += 0.0  # -0.0 -> +0.0
    return key


def _level_below(ls, pts, grid=False, tree=None):
    """The level below the stack pts under the maps ls, [U, -U], and each column's index in U.

    pts holds one row per tree.  U holds one column of branch-0 roots per group of
    bit-identical columns, or with grid per cell of the grid key on every row, taken
    in place.  Each group keeps its first column in stable key order, unrounded.
    """
    for l, row in zip(ls, pts):
        _branch0_root(l, row)
    key = _grid_key(pts) if grid else pts
    if tree is not None:  # a group of trees in one row: Re by 2**tree (module docstring)
        np.ldexp(key.real, tree, out=key.real)
    if len(key) == 1:  # one tree: a 1-D sort, cheaper than lexsort
        order = np.argsort(key[0], kind="stable")
        bits = key[0][order].view(np.uint64)  # re, im, re, im, ...
    else:  # by Re, then Im, of each row in turn; a column's words in a row
        order = np.lexsort([part for row in key[::-1] for part in (row.imag, row.real)])
        bits = key.T[order].view(np.uint64).ravel()
    del key
    words = 2 * len(pts)  # per column: one uint16 (a pair: uint32) per neighbour pair
    first = np.empty(len(order), bool)  # of a group of equal keys
    first[0] = True
    first[1:] = (bits[words:] != bits[:-words]).view(f"u{words}")  # nonzero where one differs
    del bits
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    index = np.empty_like(rank)
    index[order] = rank
    half = int(rank[-1]) + 1
    order = order[first]
    del first, rank  # freed before the level, the walk's memory peak, is built
    level = np.empty((len(pts), 2 * half), np.complex128)  # branch-0 roots have Re > 0.88
    np.take(pts, order, axis=1, out=level[:, :half], mode="clip")  # unbuffered
    np.negative(level[:, :half], out=level[:, half:])
    return (level, index) if tree is None else (level, index, tree.take(order))


def iter_leaf_blocks(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start_index, points, log_derivs) blocks covering all 2**n leaves.

    Blocks arrive in word order and partition the index range [0, 2**n); the
    leaf at global index i has word format(i, '0nb').  The levels nearest the
    anchor are walked once as distinct levels, with one log-derivative and one
    index into the level per leaf (module docstring); a deeper tree then streams
    one block per word prefix, so results are bit-identical however the blocks
    are consumed.
    """
    _validate(n, anchor)
    params = [at(seq, k) for k in range(j + 1, j + n + 1)]
    prefix_bits = max(0, n - _BLOCK_LOG2)
    pts, index, lds = np.array([[anchor]], np.complex128), np.zeros(1, np.int32), np.zeros(1)
    for l in reversed(params[prefix_bits:]):  # l_{j+n} first
        lds += _step_logs(l, pts[0], metric).take(index)
        pts, c0 = _level_below([l], pts)
        index = c0.take(index)
        index = np.concatenate((index, index + pts.shape[1] // 2))
        lds = np.concatenate((lds, lds))
    for prefix in range(1 << prefix_bits):
        block_pts, block_lds = pts[0].copy(), lds.copy()
        for m in range(prefix_bits - 1, -1, -1):
            block_lds += _step_logs(params[m], block_pts, metric).take(index)
            _branch0_root(params[m], block_pts)
            if (prefix >> (prefix_bits - 1 - m)) & 1:
                np.negative(block_pts, out=block_pts)
        yield prefix * index.size, block_pts.take(index), block_lds


def leaf_log_derivs(
    seq: SequenceSpec,
    j: int = 0,
    n: int = 1,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> np.ndarray:
    """Accumulated log-derivatives of the 2**(n-1) leaves whose word starts with 0, in word order.

    By the first-bit identity each value stands for two leaves, so their
    extremes are those of the full depth-n tree; n = 0 returns [0], the
    anchor, which stands for one.  They are the first half of iter_leaf_blocks'.
    """
    half = 1 << max(n - 1, 0)
    blocks = takewhile(lambda block: block[0] < half, iter_leaf_blocks(seq, j, n, anchor, metric))
    return np.concatenate([lds for _, _, lds in blocks])[:half]


class FiberTable:
    """A fiber point table swept once for L and H (module docstring), then per t for S (and D).

    leaf_log_min and leaf_log_max are L_n and H_n at the anchor for n_lo <= n <= n_hi;
    step_log_min and step_log_max are the extremes of the step logs of every
    level, those of the traversal's edges but for the merged-away points.
    """

    def __init__(self, levels, steps_1, where, n_lo):
        self._size, self._n_lo, self._trees = steps_1.size, n_lo, np.shape(where)
        steps = [steps_1] + [level[0] for level in levels]
        self.step_log_min = min(float(s.min()) for s in steps)
        self.step_log_max = max(float(s.max()) for s in steps)
        lo = hi = steps_1
        self._plan, ends = [], [(lo[where], lo[where])]
        while levels:  # L and H, keeping each level's shifts of the weights
            steps, c0, half, where = levels.pop()
            c1 = c0 + half
            lo0, lo1 = lo.take(c0), lo.take(c1)  # take: a cheaper gather by int32 indices
            hi = np.maximum(hi.take(c0), hi.take(c1))
            hi += steps
            swap = lo1 < lo0
            c_min, c_max = np.where(swap, c1, c0), np.where(swap, c0, c1)
            self._plan.append((c_min, c_max, np.abs(lo0 - lo1), where))
            lo = np.minimum(lo0, lo1)
            lo += steps
            ends.append((lo[where], hi[where]))
        self.leaf_log_min, self.leaf_log_max = (np.array(v[n_lo - 1 :]) for v in zip(*ends))

    def log_sums(self, t_grid) -> np.ndarray:
        """log L^n 1(anchor), one row per depth n_lo..n_hi (of a group: per tree), a column per t."""
        neg_t = -np.asarray(t_grid, dtype=np.float64)
        weights_at = np.empty((len(self._plan) + 1, neg_t.size, *self._trees))
        weights_at[0] = 2.0
        for i, t in enumerate(neg_t):  # S, one t at a time: no array holds a row per t
            weights = np.full(self._size, 2.0)
            for k, (c_min, c_max, gap, where) in enumerate(self._plan, start=1):
                shifted = np.multiply(gap, t)
                np.exp(shifted, out=shifted)
                shifted *= weights.take(c_max)
                shifted += weights.take(c_min)
                weights = shifted
                weights_at[k, i] = weights[where]
        weights_at = np.moveaxis(weights_at[self._n_lo - 1 :], 1, -1)  # of a group: t last
        return np.multiply.outer(self.leaf_log_min, neg_t) + np.log(weights_at)

    def log_sums_slopes(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The column of log_sums([t]), bit for bit, and its t-derivative -(L_n + D_n)."""
        weights, excess, at_anchor = np.full(self._size, 2.0), np.zeros(self._size), [(2.0, 0.0)]
        for c_min, c_max, gap, where in self._plan:
            upper = np.multiply(gap, -t)
            np.exp(upper, out=upper)
            upper *= weights.take(c_max)
            lower = weights.take(c_min)
            excess = (lower * excess.take(c_min) + upper * (excess.take(c_max) + gap)) / (lower + upper)
            upper += lower
            weights = upper
            at_anchor.append((weights[where], excess[where]))
        weights, excess = (np.array(v[self._n_lo - 1 :]) for v in zip(*at_anchor))
        return self.leaf_log_min * -t + np.log(weights), -(self.leaf_log_min + excess)

    def least_word(self, n: int) -> str:
        """The word of a depth-n leaf of sum L_n: the sweep's least children, ties to branch 0."""
        word, index = "", self._plan[n - 2][3] if n > 1 else 0
        for c_min, c_max, _, _ in reversed(self._plan[: n - 1]):  # P_n down to P_2
            word = "01"[int(c_min[index] > c_max[index])] + word  # c1 = c0 + |U| is branch 1
            index = c_min[index]
        return "0" + word  # the two leaves below P_1 tie (first-bit identity)


def _fiber_table(seqs, j, n_range, anchor, metric, group=False):
    """The build of the fiber point table of one tree, a pair or a group (module docstring).

    Returns the levels k = n_hi..2 as (steps_k, c0, |U|, index of the anchor in P_k), the
    step logs of level 1 (of a pair: Δ), the anchor's index in P_1 and P_1, one row per pair
    member; a group's indices are arrays.  Below n_lo the index is another point's.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if not 1 <= n_lo <= n_hi:
        raise ValueError("need 1 <= n_min <= n_max")
    _validate(n_hi, anchor)
    rows = seqs if isinstance(seqs, np.ndarray) else parameter_rows(seqs, j, n_hi)
    anchors, first, levels = np.full((len(rows), 1), complex(anchor)), 0, []
    if group:  # each point tagged with the index of its tree in rows
        anchors, first = anchors.T, np.arange(len(rows), dtype=np.int32)
    pts, where, tree = anchors.copy(), first, first if group else None
    for k in range(n_hi, 0, -1):  # l_{j+n_hi} first
        ls, logs = rows[:, k - 1].tolist(), None
        if group:  # per point: its tree's l, and |l| and log|l| taken as for one tree
            logs = np.array([(abs(l), math.log(abs(l))) for l in ls]).T.take(tree, axis=1)
            ls = [np.array(ls).take(tree)]
        steps = _step_logs(ls[-1], pts[-1], metric, logs)
        if len(pts) == 2:  # a pair: Δ
            steps -= _step_logs(ls[0], pts[0], metric)
        if k == 1:
            return levels, steps, where, pts
        pts, c0, *below = _level_below(ls, pts, grid=True, tree=tree)
        levels.append((steps, c0, pts.shape[1] // 2, where))
        where = c0.take(where) if group else int(c0[where])  # the anchors' branch-0 roots
        if group:  # the tree of each point of [U, -U], then of the anchors
            tree = np.concatenate((*below, *below, first))[: pts.shape[1] + (k > n_lo) * len(rows)]
        if k > n_lo:  # a copy of a point joins its cell one level down and moves no sum
            where = pts.shape[1] + first
            pts = np.concatenate((pts, anchors), axis=1)


def parameter_rows(seqs, j: int, n: int) -> np.ndarray:
    """l_{j+1}, ..., l_{j+n} of each spec, one row per spec (the bits of at)."""
    return np.array([[at(seq, k) for k in range(j + 1, j + n + 1)] for seq in seqs], np.complex128)


def fiber_table(
    seq: SequenceSpec | list | np.ndarray,
    j: int,
    n_range: tuple[int, int],
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> FiberTable:
    """The swept fiber point table of the depths in n_range; of a group, with an axis over it."""
    group = isinstance(seq, (list, np.ndarray))
    build = _fiber_table(seq if group else [seq], j, n_range, anchor, metric, group)[:3]
    return FiberTable(*build, int(n_range[0]))  # P_1 is freed first


def paired_table(base: SequenceSpec, pert: SequenceSpec, j: int, n_range, anchor=1.0 + 0.0j):
    """The paired table of (base, pert) (module docstring): sweeps over Δ and -Δ, and leaf pairs.

    The depth-n_max leaf pairs up to sign, one row per tree: the roots of P_1, or the anchor at 0.
    """
    seqs = (base, pert)
    if tuple(n_range) == (0, 0):  # no sweeps
        _validate(0, anchor)
        return None, None, np.full((2, 1), complex(anchor))
    levels, steps_1, where, pts = _fiber_table(seqs, j, n_range, anchor, PLANAR)
    negated, n_lo = [(-steps, *rest) for steps, *rest in levels], int(n_range[0])
    for seq, row in zip(seqs, pts):
        _branch0_root(at(seq, j + 1), row)
    return FiberTable(levels, steps_1, where, n_lo), FiberTable(negated, -steps_1, where, n_lo), pts


def distinct_points(seq: SequenceSpec, depth: int, anchor: complex = 1.0 + 0.0j) -> np.ndarray:
    """The leaf points of the depth-n tree at fiber 0, each bit pattern once.

    Level 0 of the distinct-level walk (module docstring): [U, -U] with U
    sorted, no log-derivatives and no blocks.
    """
    _validate(depth, anchor)
    pts = np.array([[anchor]], dtype=np.complex128)
    for k in range(depth, 0, -1):  # l_depth first
        pts, _ = _level_below([at(seq, k)], pts)
    return pts[0]


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


class JuliaCloud(NamedTuple):
    """All depth-n pullbacks of the anchor; exact Julia points when anchor=1."""

    points: np.ndarray
    log_derivs: np.ndarray
    fiber: int
    depth: int
    anchor: complex
    resolution: float


def julia_cloud(
    seq: SequenceSpec,
    depth: int,
    anchor: complex = 1.0 + 0.0j,
    j: int = 0,
    metric: str = PLANAR,
) -> JuliaCloud:
    """Materialize the 2**depth leaf points (word order) plus the resolution bound."""
    blocks = list(iter_leaf_blocks(seq, j, depth, anchor, metric))
    return JuliaCloud(
        points=np.concatenate([pts for _, pts, _ in blocks]),
        log_derivs=np.concatenate([lds for _, _, lds in blocks]),
        fiber=j,
        depth=depth,
        anchor=complex(anchor),
        resolution=resolution_bound(seq, depth, j),
    )


class RoundTripReport(NamedTuple):
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


def roundtrip_check(seq: SequenceSpec, j: int = 0, n: int = 1) -> RoundTripReport:
    """Verify every edge of the depth-n tree from anchor 1 forward (f_l(child) = parent) and certify leaves.

    Walks the distinct levels (module docstring): the children r and -r of a
    parent have f_l(-r) = f_l(r) bit for bit, and equal parents equal roots,
    so the max over each level's distinct parents is the max over every edge.
    """
    check_depth(n)
    pts, worst = np.ones((1, 1), np.complex128), 0.0
    for k in range(n, 0, -1):  # l_{j+n} first
        l = at(seq, j + k)
        roots = pts.copy()
        below, _ = _level_below([l], roots)
        worst = max(worst, float(np.abs(apply(l, roots) - pts).max()))
        pts = below
    return RoundTripReport(
        depth=n,
        edge_residual_max=worst,
        certified_leaf_error=worst / (EXPANSION_FLOOR - 1.0),
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


_CSV_CHUNK = 1 << 14  # rows formatted and written per stream.write


def write_cloud_csv(cloud: JuliaCloud, stream) -> None:
    """Rows `word,re,im,log_deriv` in word order, floats at 17 significant digits.

    Rows are formatted in chunks by one str.format over Python floats
    (tolist), the word being the row index in binary, depth digits of it.
    """
    stream.write("word,re,im,log_deriv\n")
    word = f"{{0:0{cloud.depth}b}}" if cloud.depth > 0 else ""
    row = (word + ",{1:.17g},{2:.17g},{3:.17g}\n").format
    size = cloud.points.size
    for start in range(0, size, _CSV_CHUNK):
        stop = min(size, start + _CSV_CHUNK)
        pts = cloud.points[start:stop]
        rows = map(
            row, range(start, stop), pts.real.tolist(), pts.imag.tolist(),
            cloud.log_derivs[start:stop].tolist(),
        )
        stream.write("".join(rows))
