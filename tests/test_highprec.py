"""Spot checks against 50-digit arithmetic (skipped if mpmath is absent)."""

import math

import pytest

mp = pytest.importorskip("mpmath")

from fiberdim import (
    Constant,
    Periodic,
    RandomAnnulus,
    at,
    dimension_pair,
    iter_leaf_blocks,
    operator_power,
)
from fiberdim.pressure import WindowPressure

mp.mp.dps = 50


def _hp_inverse(l, w, bit):
    root = mp.sqrt(1 + 2 * (w - 1) / l)
    return -root if bit else root


def _hp_leaf(params, bits, anchor=1):
    chain = [mp.mpmathify(anchor)]
    n = len(params)
    for k in range(n, 0, -1):
        chain.append(_hp_inverse(params[k - 1], chain[-1], bits[k - 1]))
    return chain[::-1]  # orbit[i] = f^i(leaf)


def _hp_operator_sum(params, t, anchor=1):
    n = len(params)
    total = mp.mpf(0)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        orbit = _hp_leaf(params, bits, anchor)
        deriv = mp.mpf(1)
        for k in range(n):
            deriv *= abs(mp.mpmathify(params[k]) * orbit[k])
        total += deriv ** (-t)
    return total


@pytest.mark.parametrize("t", [0.178, 0.5, 1.0])
def test_operator_sum_against_50_digits(t):
    seq = Constant(50)
    n = 8
    params = [at(seq, k) for k in range(1, n + 1)]
    reference = mp.log(_hp_operator_sum(params, t))
    mine = operator_power(seq, 0, n, [t])[0].log_value
    assert abs(float(reference) - mine) <= 1e-13


def test_operator_sum_complex_parameters():
    seq = Periodic((50, 60 + 10j, -45))
    n = 6
    params = [at(seq, k) for k in range(1, n + 1)]
    reference = mp.log(_hp_operator_sum(params, 0.3))
    mine = operator_power(seq, 0, n, [0.3])[0].log_value
    assert abs(float(reference) - mine) <= 1e-13


def _hp_leaf_log_derivs(params, spherical=False, anchor=1):
    """log |(f^n)'| at every depth-n leaf, planar or spherically rescaled, to 50 digits."""
    n = len(params)
    out = []
    for idx in range(2**n):
        orbit = _hp_leaf(params, [(idx >> (n - 1 - k)) & 1 for k in range(n)], anchor)
        deriv = mp.mpf(1)
        for k in range(n):
            deriv *= abs(mp.mpmathify(params[k]) * orbit[k])
        if spherical:  # the conformal factors (1+|z_k|^2)/(1+|z_{k+1}|^2) telescope
            deriv *= (1 + abs(orbit[0]) ** 2) / (1 + abs(orbit[n]) ** 2)
        out.append(mp.log(deriv))
    return out


@pytest.mark.parametrize(
    "seq", [Constant(50), Periodic((50, 60 + 10j, -45)), RandomAnnulus(seed=5)], ids=format
)
@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_bowen_zeros_against_50_digits(seq, metric):
    # Every a_n is decreasing, so min_n a_n and max_n a_n vanish at the least and the
    # largest of the per-depth zeros, found here by mpmath's own root finder.
    window, tol = (4, 8), 1e-10
    params = [at(seq, k) for k in range(1, window[1] + 1)]
    zeros = []
    for n in range(window[0], window[1] + 1):
        lds = _hp_leaf_log_derivs(params[:n], metric == "spherical")
        log_sum = lambda t: mp.log(mp.fsum(mp.exp(-t * ld) for ld in lds))
        zeros.append(mp.findroot(log_sum, mp.log(2) * n / lds[0]))
    lower, upper = dimension_pair(seq, window, tol, metric=metric)
    assert abs(lower.t_star - float(min(zeros))) <= lower.uncertainty
    assert abs(upper.t_star - float(max(zeros))) <= upper.uncertainty


@pytest.mark.parametrize("metric", ["planar", "spherical"])
def test_window_rows_and_slopes_against_50_digits(metric):
    # a_n = log(sum w)/n and a_n' = -(sum w ld / sum w)/n with w = exp(-t ld)
    seq, window = Periodic((50, 60 + 10j, -45)), (4, 8)
    params = [at(seq, k) for k in range(1, window[1] + 1)]
    cache = WindowPressure(seq, window, metric=metric)
    for t in (0.18, 0.4):
        rows, slopes = cache.rows_and_slopes(t)
        for row, slope, n in zip(rows, slopes, range(window[0], window[1] + 1)):
            lds = _hp_leaf_log_derivs(params[:n], metric == "spherical")
            w = [mp.exp(-t * ld) for ld in lds]
            assert abs(row - float(mp.log(mp.fsum(w)) / n)) <= 1e-13
            want = -mp.fsum(wi * ld for wi, ld in zip(w, lds)) / mp.fsum(w) / n
            assert slope == pytest.approx(float(want), rel=1e-12, abs=0)


def test_leaf_positions_against_50_digits():
    seq = Periodic((50, 60 + 10j, -45))
    n = 8
    params = [at(seq, k) for k in range(1, n + 1)]
    _, pts, _ = next(iter(iter_leaf_blocks(seq, 0, n)))
    worst = 0.0
    for idx in (1, 100, 171, 255):  # a few scattered words
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        exact = _hp_leaf(params, bits)[0]
        got = pts[idx]
        worst = max(worst, abs(complex(exact.real, exact.imag) - complex(got)))
    # matches the certified round-trip bound (~edge_residual / 25.7)
    assert worst <= 1e-14


def test_log2_reference():
    # the t = 0 column is compared against the same constant the tests use
    assert math.log(2.0) == pytest.approx(float(mp.log(2)), abs=1e-16)
