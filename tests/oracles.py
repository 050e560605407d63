"""Independent brute-force oracles used to freeze expected values.

Everything here works leaf-by-leaf with scalar cmath, enumerating words
explicitly and measuring derivatives along the forward orbit, so it shares no
code path (and no reduction order) with the vectorized implementation.
The exceptions are plain_blocks, the level loop from before distinct
levels, which shares the step kernels of orbits but takes every level on
every leaf, and the two perturbation certificates from before the paired
table, per_depth_sandwich and zipped_motion, which reduce the leaves of both
trees straight from the traversal.
The random annulus draw is checked against numpy's own Philox generator, and
the box count's grid offsets against numpy's default_rng (numpy_box_dimension).
"""

import cmath
import math
from itertools import product

import numpy as np

from fiberdim import at, cesaro_sum, iter_leaf_blocks, leaf_log_derivs, orbits
from fiberdim.family import apply
from fiberdim.sequences import PerturbedSequence
from fiberdim.transfer import logsumexp_grid


def word(index, depth):
    """The branch word of the leaf at a word-order index: its depth binary digits."""
    return format(index, f"0{depth}b") if depth > 0 else ""


def forward(l, z):
    return l / 2.0 * (z * z - 1.0) + 1.0


def inverse(l, w, bit):
    root = cmath.sqrt(1.0 + 2.0 * (w - 1.0) / l)
    return -root if bit else root


def brute_leaves(params, anchor=1.0 + 0.0j):
    """All leaves of the pullback under params = [l_1, ..., l_n], word -> (z, |(f^n)'(z)|).

    The derivative modulus |prod_k l_k f^{k-1}(z)| is taken along the chain of
    pullback intermediates (recomputing the forward orbit from the leaf would
    amplify its rounding error by prod |f'|).
    """
    n = len(params)
    out = {}
    for bits in product((0, 1), repeat=n):
        chain = [complex(anchor)]  # anchor, ..., leaf
        for k in range(n, 0, -1):  # innermost map first
            chain.append(inverse(params[k - 1], chain[-1], bits[k - 1]))
        orbit = chain[::-1]  # orbit[i] = f^i(leaf)
        deriv = 1.0 + 0.0j
        for k in range(n):
            deriv *= params[k] * orbit[k]
        word = "".join(str(b) for b in bits)
        out[word] = (orbit[0], abs(deriv))
    return out


def brute_operator_sum(params, t, anchor=1.0 + 0.0j):
    """sum over leaves of |(f^n)'(z)|^{-t}, summed in word order."""
    leaves = brute_leaves(params, anchor)
    return sum(leaves[w][1] ** (-t) for w in sorted(leaves))


def plain_blocks(seq, j, n, anchor, metric, steps=None, residuals=None):
    """Reference iter_leaf_blocks: the level loop before distinct levels, every level on every leaf.

    When given, steps collects the (min, max) of the step logs of every
    level and block, and residuals max |f_l(child) - parent| of every step.
    """
    params = [at(seq, k) for k in range(j + 1, j + n + 1)]
    prefix_bits = max(0, n - orbits._BLOCK_LOG2)
    size = 1 << (n - prefix_bits)
    pts = np.empty(size, dtype=np.complex128)
    lds = np.empty(size)
    pts[0], lds[0] = anchor, 0.0

    def step(l, pts, lds):
        step_logs = orbits._step_logs(l, pts, metric)
        if steps is not None:
            steps.append((float(step_logs.min()), float(step_logs.max())))
        parents = pts.copy()
        orbits._branch0_root(l, pts)
        if residuals is not None:
            residuals.append(float(np.abs(apply(l, pts) - parents).max()))
        lds += step_logs

    s = 1
    for m in range(n - 1, prefix_bits - 1, -1):
        step(params[m], pts[:s], lds[:s])
        np.negative(pts[:s], out=pts[s : 2 * s])
        lds[s : 2 * s] = lds[:s]
        s *= 2
    for prefix in range(1 << prefix_bits):
        block_pts, block_lds = pts.copy(), lds.copy()
        for m in range(prefix_bits - 1, -1, -1):
            step(params[m], block_pts, block_lds)
            if (prefix >> (prefix_bits - 1 - m)) & 1:
                np.negative(block_pts, out=block_pts)
        yield prefix * size, block_pts, block_lds


def per_depth_sandwich(base, schedule, x, t, n_max, anchor, j):
    """Both depth-n trees at every n, reduced directly.

    Returns (n, a_base, a_pert, residual, worst leaf slack, its word) per depth.
    """
    pert = PerturbedSequence(base, schedule, x)
    offset = cesaro_sum(schedule, j)[0] if j else 0
    out = []
    for n in range(1, n_max + 1):
        lds_base = leaf_log_derivs(base, j, n, anchor)
        lds_pert = leaf_log_derivs(pert, j, n, anchor)
        s_n = cesaro_sum(schedule, j + n)[0] - offset
        # each value stands for two leaves
        a_base = (logsumexp_grid(lds_base, [t])[0] + math.log(2)) / n
        a_pert = (logsumexp_grid(lds_pert, [t])[0] + math.log(2)) / n
        residual = abs(a_pert - (a_base - t * x * s_n / n)) - t * abs(x) / 2
        gap = np.abs(lds_pert - lds_base - x * s_n) - n * abs(x) / 2
        k = int(np.argmax(gap))
        out.append((n, a_base, a_pert, residual, float(gap[k]), word(k, n)))
    return out


def zipped_motion(base, schedule, x, depth, anchor, j):
    """(max displacement, max |log modulus ratio|) over the same-word leaves of two traversals."""
    pert = PerturbedSequence(base, schedule, x)
    max_disp = max_ratio = 0.0
    blocks_base = iter_leaf_blocks(base, j, depth, anchor)
    blocks_pert = iter_leaf_blocks(pert, j, depth, anchor)
    for (_, pts_b, _), (_, pts_p, _) in zip(blocks_base, blocks_pert):
        max_disp = max(max_disp, float(np.abs(pts_p - pts_b).max()))
        max_ratio = max(max_ratio, float(np.abs(np.log(np.abs(pts_p) / np.abs(pts_b))).max()))
    return max_disp, max_ratio


def cesaro_from_blocks(block_lengths, first_sign, n):
    """Partial sign sum by direct block arithmetic over explicit block lengths."""
    total = 0
    covered = 0
    sign = first_sign
    for length in block_lengths:
        take = min(length, n - covered)
        total += sign * take
        covered += take
        sign = -sign
        if covered >= n:
            return total
    raise ValueError("block list too short for n")


def bisection_zero(window, reduce, bracket, tol):
    """Bisection of reduce(a_n(t)) to residual <= tol, on a WindowPressure's rows."""
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = float(reduce(window.rows_and_slopes(mid)[0]))
        if abs(f) <= tol:
            return mid
        lo, hi = (mid, hi) if f > 0 else (lo, mid)
    raise AssertionError("bisection oracle did not converge")


def numpy_annulus_draw(seed, k, min_mod, max_mod):
    """l_k of random:seed=seed,min=min_mod,max=max_mod from numpy's Generator(Philox)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
    modulus = gen.uniform(min_mod, max_mod)
    argument = gen.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(argument), modulus * math.sin(argument))


def set_occupancy(points, eps, offset):
    """Occupied boxes as a Python set of (x, y) box indices; -0.0 and 0.0 are one index."""
    ix = np.floor((points.real - offset[0]) / eps)
    iy = np.floor((points.imag - offset[1]) / eps)
    return len(set(zip(ix.tolist(), iy.tolist())))


def numpy_box_dimension(points, eps_ladder, offsets=4):
    """box_dimension's counts, slope and residual with its former grid offsets, drawn by
    numpy's default_rng(0).uniform(0.0, eps, size=2) for each offset at each scale, and
    each grid's occupancy counted by set_occupancy."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    ladder = np.sort(np.asarray(eps_ladder, dtype=float))[::-1]
    rng = np.random.default_rng(0)
    counts = np.empty(ladder.size)
    for i, eps in enumerate(ladder):
        per_offset = [set_occupancy(pts, eps, rng.uniform(0.0, eps, size=2)) for _ in range(offsets)]
        counts[i] = float(np.mean(per_offset))
    log_inv_eps, log_counts = np.log(1.0 / ladder), np.log(counts)
    slope, intercept = np.polyfit(log_inv_eps, log_counts, 1)
    residual = float(np.sqrt(np.mean((log_counts - (slope * log_inv_eps + intercept)) ** 2)))
    return counts, float(slope), residual
