import math

import numpy as np
import pytest

from fiberdim import (
    Constant,
    Periodic,
    PerturbedSequence,
    SignSchedule,
    apply,
    at,
    change_of_variables_check,
    conformal_atoms,
    leaf_log_derivs,
    operator_power,
    rho_estimate,
    word_of,
)
from oracles import brute_leaves, brute_operator_sum

CONST50 = Constant(50)
MIXED = Periodic((50, 60 + 10j, -45))


def test_single_step_value():
    value = operator_power(CONST50, 0, 1, [1.0])[0]
    assert value.log_value == pytest.approx(math.log(2 / 50), rel=1e-15)


def test_counting_exactness():
    for seq in (CONST50, MIXED):
        for n in (1, 7, 20):
            value = operator_power(seq, 0, n, [0.0])[0]
            assert abs(value.log_value - n * math.log(2)) <= 1e-12


def test_matches_bruteforce_sum():
    for seq in (CONST50, MIXED):
        for n in (2, 5):
            params = [at(seq, k) for k in range(1, n + 1)]
            for t in (0.3, 0.5, 1.0):
                expected = brute_operator_sum(params, t)
                got = math.exp(operator_power(seq, 0, n, [t])[0].log_value)
                assert got == pytest.approx(expected, rel=1e-12)


def test_shared_traversal_consistent_with_separate_calls():
    t_grid = [0.0, 0.25, 0.5, 1.0]
    together = operator_power(CONST50, 0, 8, t_grid)
    for t, value in zip(t_grid, together):
        alone = operator_power(CONST50, 0, 8, [t])[0]
        assert value.log_value == alone.log_value


def test_monotone_convex_in_t():
    t_grid = np.linspace(0.0, 1.0, 11)
    values = np.array([v.log_value for v in operator_power(MIXED, 0, 9, t_grid)])
    assert bool((np.diff(values) < 0).all())
    assert bool((np.diff(values, 2) >= -1e-12).all())


def test_operator_value_bracket():
    n = 10
    lds, stats = leaf_log_derivs(MIXED, 0, n)
    for t in (0.25, 0.75):
        value = operator_power(MIXED, 0, n, [t])[0].log_value
        assert n * math.log(2) - t * stats.leaf_log_max - 1e-12 <= value
        assert value <= n * math.log(2) - t * stats.leaf_log_min + 1e-12


def test_rho_estimate_exact_at_zero():
    for seq in (CONST50, MIXED):
        est = rho_estimate(seq, 0, 0.0, 10)
        assert abs(est.value - 2.0) <= 1e-12


def test_rho_estimate_brackets():
    # closed-form disk bounds: |f'| = |l z| with |z| in [2/3, 4/3] on the disks
    est = rho_estimate(CONST50, 0, 1.0, 12)
    assert 2 / (200 / 3) <= est.value <= 2 / (100 / 3)
    # measured one-step extremes give a sharper bracket
    _, stats = leaf_log_derivs(CONST50, 0, 12)
    for t in (0.5, 1.0):
        est = rho_estimate(CONST50, 0, t, 12)
        assert 2 * math.exp(-t * stats.step_log_max) * (1 - 1e-9) <= est.value
        assert est.value <= 2 * math.exp(-t * stats.step_log_min) * (1 + 1e-9)


def test_rho_requires_two_levels():
    with pytest.raises(ValueError):
        rho_estimate(CONST50, 3, 0.5, 4)


def test_atoms_uniform_at_zero():
    atoms = conformal_atoms(CONST50, 0, 6, 0.0)
    assert np.allclose(atoms.weights, 2.0**-6, rtol=0, atol=1e-15)


def test_atoms_symmetric_pair():
    atoms = conformal_atoms(CONST50, 0, 1, 1.0)
    assert atoms.points.tolist() == [1 + 0j, -1 + 0j]
    assert atoms.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_atoms_match_bruteforce_weights():
    n = 2
    t = 1.0
    atoms = conformal_atoms(CONST50, 0, n, t)
    params = [at(CONST50, k) for k in range(1, n + 1)]
    leaves = brute_leaves(params)
    raw = np.array([leaves[word_of(i, n)][1] ** (-t) for i in range(4)])
    assert atoms.weights == pytest.approx(raw / raw.sum(), rel=1e-13)


def test_atom_normalization():
    for t in (0.0, 0.5, 1.0):
        atoms = conformal_atoms(MIXED, 0, 9, t)
        assert abs(float(atoms.weights.sum()) - 1.0) <= 1e-12
        assert bool((atoms.weights > 0).all())


def test_change_of_variables():
    assert change_of_variables_check(CONST50, 0, 6, 0.0) <= 1e-12
    resid3 = change_of_variables_check(CONST50, 0, 3, 1.0)
    resid6 = change_of_variables_check(CONST50, 0, 6, 1.0)
    assert resid6 <= max(2 * resid3, 1e-12)
    assert change_of_variables_check(MIXED, 2, 9, 1.0) <= 1e-9
    # the check pairs atom i at fiber j with atom i % half at fiber j + 1 (first bit dropped)
    atoms_j = conformal_atoms(MIXED, 0, 7, 0.5)
    atoms_next = conformal_atoms(MIXED, 1, 7, 0.5)
    half = atoms_next.points.size
    parents = atoms_next.points[np.arange(atoms_j.points.size) % half]
    assert float(np.abs(apply(at(MIXED, 1), atoms_j.points) - parents).max()) <= 1e-11


def test_perturbed_x_zero_matches_base_atoms():
    pert = PerturbedSequence(CONST50, SignSchedule(2, 2, 1), 0.0)
    base_atoms = conformal_atoms(CONST50, 0, 8, 0.7)
    pert_atoms = conformal_atoms(pert, 0, 8, 0.7)
    assert np.array_equal(base_atoms.points, pert_atoms.points)
    assert np.array_equal(base_atoms.weights, pert_atoms.weights)


def test_negative_t_rejected():
    with pytest.raises(ValueError):
        operator_power(CONST50, 0, 3, [-0.1])


def test_atoms_record_operator_sum():
    n, t = 3, 0.7
    atoms = conformal_atoms(CONST50, 0, n, t)
    params = [at(CONST50, k) for k in range(1, n + 1)]
    assert math.exp(atoms.log_operator_sum) == pytest.approx(
        brute_operator_sum(params, t), rel=1e-12
    )
