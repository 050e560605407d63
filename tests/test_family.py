import math

import numpy as np
import pytest

from fiberdim import (
    DomainError,
    apply,
    derivative,
    in_trap_union,
    inverse_branch,
    spherical_derivative,
    trapping_certificate,
)


def test_fixed_points():
    assert apply(50, 1) == 1
    assert apply(50, -1) == 1


def test_apply_direct_arithmetic():
    # 25 * (16/9 - 1) + 1 = 184/9
    assert apply(50, 4 / 3) == pytest.approx(184 / 9, rel=1e-15)


def test_derivative_values():
    assert derivative(50, 1) == 50
    assert derivative(50, -1) == -50
    assert derivative(40 + 30j, 2 / 3) == pytest.approx(80 / 3 + 20j, rel=1e-15)


def test_spherical_derivative_values():
    assert spherical_derivative(50, 1) == pytest.approx(50.0, rel=1e-15)
    assert spherical_derivative(50, -1) == pytest.approx(50.0, rel=1e-15)
    # f_50(0.9) = -3.75, so the factor is 1.81 / 15.0625
    assert apply(50, 0.9) == pytest.approx(-3.75, rel=1e-15)
    assert spherical_derivative(50, 0.9) == pytest.approx(45 * 1.81 / 15.0625, rel=1e-14)
    assert spherical_derivative(50, 0.9) == pytest.approx(5.4075, abs=1e-3)


def test_inverse_branch_values():
    assert inverse_branch(50, 1, 0) == 1
    assert inverse_branch(50, 1, 1) == -1
    z = inverse_branch(50, 1.3, 0)
    assert z == pytest.approx(math.sqrt(1.012), rel=1e-15)
    assert z == pytest.approx(1.0059821, abs=1e-7)
    # the defining oracle: forward round trip
    assert apply(50, z) == pytest.approx(1.3, rel=1e-15)


def test_inverse_branch_domain():
    with pytest.raises(DomainError):
        inverse_branch(50, 2.0, 0)
    with pytest.raises(ValueError):
        inverse_branch(50, 1.0, 2)


def test_roundtrip_randomized():
    rng = np.random.default_rng(1)
    n = 10_000
    ls = rng.uniform(40 + 1e-9, 200, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    ws = 1.999 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    for label in (0, 1):
        zs = inverse_branch(ls, ws, label)
        rel = np.abs(apply(ls, zs) - ws) / (1.0 + np.abs(ws))
        assert float(rel.max()) <= 1e-12


def test_branch_separation():
    rng = np.random.default_rng(2)
    n = 5_000
    ls = rng.uniform(40 + 1e-9, 200, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    centers = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    ws = centers + (1 / 3) * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, n)
    )
    z0 = inverse_branch(ls, ws, 0)
    z1 = inverse_branch(ls, ws, 1)
    assert np.abs(z0 - 1.0).max() < 1 / 3
    assert np.abs(z1 + 1.0).max() < 1 / 3


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    n = 2_000
    ls = rng.uniform(40 + 1e-9, 200, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    zs = rng.uniform(-1.5, 1.5, n) + 1j * rng.uniform(-1.5, 1.5, n)
    h = 1e-6
    fd = (apply(ls, zs + h) - apply(ls, zs - h)) / (2 * h)
    rel = np.abs(fd - derivative(ls, zs)) / np.abs(derivative(ls, zs))
    assert float(rel.max()) <= 1e-6


def test_expansion_floor_on_disks():
    rng = np.random.default_rng(4)
    n = 5_000
    ls = rng.uniform(40 + 1e-9, 200, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    centers = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    zs = centers + (1 / 3) * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, n)
    )
    mags = np.abs(derivative(ls, zs))
    assert bool((mags >= (2 / 3) * np.abs(ls) * (1 - 1e-12)).all())
    assert float(mags.min()) > 26.0


def test_spherical_planar_ratio_bracket():
    rng = np.random.default_rng(5)
    n = 5_000
    ls = rng.uniform(40 + 1e-9, 200, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    centers = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    ws = centers + (1 / 3) * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, n)
    )
    zs = inverse_branch(ls, ws, 0)  # both z and f(z)=w lie in the closed disks
    ratio = spherical_derivative(ls, zs) / np.abs(derivative(ls, zs))
    lo, hi = 13 / 25, 25 / 13  # (1+(2/3)^2)/(1+(4/3)^2) and its reciprocal
    assert float(ratio.min()) >= lo * (1 - 1e-12)
    assert float(ratio.max()) <= hi * (1 + 1e-12)


def test_trapping_certificate_values():
    report = trapping_certificate(50)
    assert report.passed
    assert report.radicand_bound == pytest.approx(14 / 150, rel=1e-15)
    assert report.margin == pytest.approx(1 / 3 - 14 / 150, rel=1e-14)

    near_boundary = trapping_certificate(40.000001)
    assert near_boundary.passed
    assert near_boundary.radicand_bound == pytest.approx(14 / 120, abs=1e-7)

    outside = trapping_certificate(10)
    assert not outside.passed
    assert "modulus <= 40" in outside.reason


@pytest.mark.parametrize("l", [41, 50, 40 + 30j, 100j])
def test_trapping_certificate_family(l):
    report = trapping_certificate(l)
    assert report.passed
    assert report.radicand_bound == pytest.approx(14 / (3 * abs(l)), rel=1e-15)
    assert report.radicand_bound < 1 / 3


def test_trap_membership_helpers():
    assert in_trap_union(1.0) and in_trap_union(-1.2)
    assert not in_trap_union(0.0)
