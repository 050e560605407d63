"""Transfer-operator sums, conformal-measure atoms and eigenvalue ratios.

The weighted pullback operator at exponent t >= 0 sums |f'|^{-t} over
preimages; its n-th power evaluated on the constant function 1 is a sum of
exp(-t * log_deriv) over the 2**n depth-n leaves.  Leaf weights scale like
|l|^{-t n} (50**-20 underflows float64), so every sum is carried in log
domain: one logsumexp per leaf block, folded with logaddexp in the fixed
word order of the block stream, so results do not depend on how work is
scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import derivative
from .orbits import PLANAR, iter_leaf_blocks, julia_cloud
from .sequences import SequenceSpec, at


def logsumexp(values: np.ndarray, multiplicity: int = 1) -> float:
    """log(multiplicity * sum(exp(values))) of a 1-D array, max-shifted for stability.

    With multiplicity 2 and the half that orbits.leaf_log_derivs returns, this
    is bit-identical to the sum over the full 2**k array whenever the half has
    at least 128 values: numpy's pairwise sum splits such an array exactly at
    its half, and doubling is exact.  Smaller trees can differ in the last ulp.
    """
    m = float(np.max(values))
    return m + math.log(multiplicity * float(np.sum(np.exp(values - m))))


@dataclass(frozen=True)
class OperatorValue:
    """log of the n-step operator sum at one exponent t."""

    t: float
    j: int
    n: int
    log_value: float
    anchor: complex


def operator_power(
    seq: SequenceSpec,
    j: int,
    n: int,
    t_grid,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> list[OperatorValue]:
    """log L^n 1(anchor) for every t in t_grid, in one pass over the leaf blocks.

    Each block is reduced with logsumexp and the blocks are folded with
    logaddexp in word order.  At t = 0 the operator counts preimages, so
    log_value is exactly n log 2.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid):
        raise ValueError("exponents t must be >= 0")
    sums = np.full(len(t_grid), -np.inf)
    for _, _, lds in iter_leaf_blocks(seq, j, n, anchor, metric):
        sums = np.logaddexp(sums, [logsumexp(lds * -t) for t in t_grid])
    return [OperatorValue(t, j, n, float(s), complex(anchor)) for t, s in zip(t_grid, sums)]


@dataclass(frozen=True)
class RhoEstimate:
    """Finite-depth surrogate for the conformal-measure eigenvalue at fiber j."""

    t: float
    j: int
    value: float
    N: int


def rho_estimate(
    seq: SequenceSpec,
    j: int,
    t: float,
    N: int,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> RhoEstimate:
    """Ratio L^{N-j} 1(anchor) at fiber j over L^{N-j-1} 1(anchor) at fiber j+1.

    Computed as exp of a log difference; exactly deg(f) = 2 at t = 0.
    """
    if N < j + 2:
        raise ValueError("rho_estimate requires N >= j + 2")
    top = operator_power(seq, j, N - j, [t], anchor, metric)[0].log_value
    bottom = operator_power(seq, j + 1, N - j - 1, [t], anchor, metric)[0].log_value
    return RhoEstimate(t=float(t), j=j, value=math.exp(top - bottom), N=N)


@dataclass(frozen=True)
class ConformalAtoms:
    """Atomic approximation of a fiber conformal measure.

    Atoms sit on the depth-(N-j) leaves of the pullback of the anchor; the
    weight of a leaf is exp(-t log_deriv) normalized by the operator sum.
    """

    t: float
    j: int
    N: int
    points: np.ndarray
    weights: np.ndarray
    log_derivs: np.ndarray
    anchor: complex
    log_operator_sum: float  # log L^{N-j} 1(anchor); the normalizer is its reciprocal


def conformal_atoms(
    seq: SequenceSpec,
    j: int,
    N: int,
    t: float,
    anchor: complex = 1.0 + 0.0j,
    metric: str = PLANAR,
) -> ConformalAtoms:
    """Normalized pullback of a point mass at the anchor through N-j steps."""
    depth = N - j
    if depth < 1:
        raise ValueError("conformal_atoms requires N > j")
    cloud = julia_cloud(seq, depth, anchor, j, metric)
    lds = cloud.log_derivs
    log_mass = logsumexp(lds * (-float(t)))
    weights = np.exp(lds * (-float(t)) - log_mass)
    weights /= weights.sum()  # kill the residual of the shifted exponentials
    return ConformalAtoms(
        t=float(t), j=j, N=N, points=cloud.points, weights=weights, log_derivs=lds,
        anchor=complex(anchor), log_operator_sum=log_mass,
    )


def change_of_variables_check(
    seq: SequenceSpec,
    j: int,
    N: int,
    t: float,
    anchor: complex = 1.0 + 0.0j,
) -> float:
    """Max relative deviation in the atom-level pushforward relation.

    Pushing a depth-(N-j) atom z at fiber j forward by f_{l_{j+1}} lands on
    the fiber-(j+1) atom with the first word bit dropped; conformality says
    weight_j(z) should equal weight_{j+1}(f(z)) * rho^{-1} * |f'(z)|^{-t} up to
    one global constant (the finite-depth eigenvalue surrogate is only defined
    up to a bounded factor).  The best global constant is factored out in log
    space and the worst remaining relative deviation is returned.
    """
    if N - j < 2:
        raise ValueError("change_of_variables_check requires N - j >= 2")
    atoms_j = conformal_atoms(seq, j, N, t, anchor)
    atoms_next = conformal_atoms(seq, j + 1, N, t, anchor)
    rho = rho_estimate(seq, j, t, N, anchor).value
    l_first = at(seq, j + 1)

    half = atoms_next.weights.size
    parent_index = np.arange(atoms_j.weights.size) % half  # drop word bit b_1
    predicted_log = (
        np.log(atoms_next.weights[parent_index])
        - math.log(rho)
        - float(t) * np.log(np.abs(derivative(l_first, atoms_j.points)))
    )
    gap = np.log(atoms_j.weights) - predicted_log
    gap -= gap.mean()  # best global constant in log space
    return float(np.expm1(np.max(np.abs(gap))))
