import math

import numpy as np
import pytest

from fiberdim import (
    Constant,
    Explicit,
    InvalidSpec,
    Periodic,
    PerturbationTooLarge,
    PerturbedSequence,
    RandomAnnulus,
    SignSchedule,
    at,
    cesaro_sum,
    delta,
    delta_linear_bound,
    format_sequence,
    inf_modulus,
    max_perturbation,
    parse_sequence,
)
from fiberdim import sequences
from oracles import cesaro_from_blocks

SCHEDULE_2X2 = SignSchedule(2, 2, 1)


def test_constant_at():
    assert at(Constant(50), 7) == 50


def test_perturbed_identity_at_x_zero():
    pert = PerturbedSequence(Constant(50), SCHEDULE_2X2, 0.0)
    assert at(pert, 3) == 50
    # x = 0 agrees with the base exactly, not just approximately
    assert all(at(pert, k) == at(Constant(50), k) for k in range(1, 100))


def test_perturbed_first_index():
    pert = PerturbedSequence(Constant(50), SCHEDULE_2X2, 0.1)
    # s_1 = +1, so l_1 = 50 e^{0.1} = 55.258545903782742...
    assert at(pert, 1) == pytest.approx(50 * math.exp(0.1), abs=0, rel=1e-15)
    assert abs(at(pert, 1)) == pytest.approx(55.2585459, abs=1e-6)


def test_cesaro_block_arithmetic():
    # explicit blocks (2 of +1)(4 of -1)(12 of +1): direct block arithmetic
    blocks = [2, 4, 12]
    assert cesaro_from_blocks(blocks, 1, 2) == 2
    assert cesaro_from_blocks(blocks, 1, 6) == -2
    assert cesaro_from_blocks(blocks, 1, 18) == 2 - 4 + 12 == 10


def test_cesaro_geometric_schedule():
    s2, avg2 = cesaro_sum(SCHEDULE_2X2, 2)
    assert (s2, avg2) == (2, 1.0)
    s6, avg6 = cesaro_sum(SCHEDULE_2X2, 6)
    assert s6 == -2 and avg6 == pytest.approx(-1 / 3)
    # geometric 2x2 blocks are (2, 4, 8, 16, ...): cross-check against the
    # explicit block oracle for a long stretch of n
    lengths = [2 * 2**m for m in range(12)]
    for n in range(1, 2000):
        assert cesaro_sum(SCHEDULE_2X2, n)[0] == cesaro_from_blocks(lengths, 1, n)


def test_cesaro_telescopes():
    prev = 0
    for n in range(1, 300):
        s, _ = cesaro_sum(SCHEDULE_2X2, n)
        assert s - prev in (-1, 1)
        assert s - prev == SCHEDULE_2X2.sign_at(n)
        prev = s


def test_delta_values():
    assert delta(0.0) == 0.0
    assert delta(0.01) == pytest.approx(0.010050167084168057, rel=1e-15)
    d = delta(0.1)
    assert d == pytest.approx(0.10517091807564763, rel=1e-15)
    assert d <= delta_linear_bound(0.1)
    assert delta(-0.1) == d
    with pytest.raises(ValueError):
        delta(1.0)


def test_all_variants_stay_outside_radius_40():
    specs = [
        Constant(50),
        Periodic((50, 60 + 10j, -45)),
        Explicit((41, 42 - 5j), 50),
        RandomAnnulus(seed=7, min_mod=45, max_mod=80),
        PerturbedSequence(Constant(50), SCHEDULE_2X2, 0.1),
    ]
    ks = [1, 2, 3, 17, 100, 5_000, 999_983]
    for spec in specs:
        for k in ks:
            assert abs(at(spec, k)) > 40.0


def test_random_annulus_is_pure_and_in_annulus():
    a = RandomAnnulus(seed=7, min_mod=45, max_mod=80)
    b = RandomAnnulus(seed=7, min_mod=45, max_mod=80)
    for k in (1, 2, 3, 10, 1000, 123_456):
        assert at(a, k) == at(b, k)
        assert 45.0 <= abs(at(a, k)) <= 80.0
    assert at(a, 1) != at(a, 2)
    assert at(RandomAnnulus(seed=8), 1) != at(a, 1)
    # draws are memoized: a cached value equals a fresh draw, and the cache is bounded
    draw = sequences._annulus_draw
    for k in (1, 2, 123_456):
        assert at(a, k) == draw.__wrapped__(a, k)
    draw.cache_clear()
    assert [at(a, k) for k in (1, 2, 3)] == [draw.__wrapped__(a, k) for k in (1, 2, 3)]
    assert draw.cache_info().currsize == 3 and draw.cache_info().maxsize is not None


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        Constant(30)
    with pytest.raises(InvalidSpec):
        Periodic((50, 40))  # |40| is not > 40
    with pytest.raises(InvalidSpec):
        Explicit((50,), 39)
    with pytest.raises(InvalidSpec):
        RandomAnnulus(seed=1, min_mod=40, max_mod=50)
    with pytest.raises(InvalidSpec):
        SignSchedule(0, 2, 1)
    with pytest.raises(InvalidSpec):
        SignSchedule(2, 1, 1)


@pytest.mark.parametrize(
    "text",
    [
        "const:nan",
        "const:1e400",  # parses to inf
        "periodic:50,nan+1i",
        "explicit:50;tail=-1e400",
        "random:seed=1,min=45,max=inf",
        "perturb:base=const:50;blocks=2x2;x=nan",
    ],
)
def test_non_finite_specs_rejected(text):
    with pytest.raises(InvalidSpec):
        parse_sequence(text)


def test_perturbation_radius():
    assert max_perturbation(Constant(50)) == pytest.approx(math.log(1.25))
    with pytest.raises(PerturbationTooLarge):
        PerturbedSequence(Constant(50), SCHEDULE_2X2, math.log(1.25))
    # r is capped at 1 for very large base moduli
    assert max_perturbation(Constant(1e6)) == 1.0


def test_inf_modulus():
    assert inf_modulus(Periodic((50, 60 + 10j, -45))) == 45.0
    assert inf_modulus(RandomAnnulus(seed=1, min_mod=41, max_mod=90)) == 41.0
    pert = PerturbedSequence(Constant(50), SCHEDULE_2X2, 0.1)
    assert inf_modulus(pert) == pytest.approx(50 * math.exp(-0.1))


@pytest.mark.parametrize(
    "text",
    [
        "const:50",
        "const:60+10i",
        "periodic:50,60+10i",
        "explicit:41,42-5i;tail=50",
        "random:seed=7,min=45,max=80",
        "perturb:base=const:50;blocks=2x2;x=0.1",
        "perturb:base=periodic:50,-60;blocks=3x2;x=-0.05;sign=-1",
        "perturb:base=explicit:41,42;tail=50;blocks=2x2;x=0.01",
    ],
)
def test_parse_format_roundtrip(text):
    spec = parse_sequence(text)
    canonical = format_sequence(spec)
    assert parse_sequence(canonical) == spec
    assert format_sequence(parse_sequence(canonical)) == canonical


def test_parse_errors():
    for bad in ["const", "fourier:50", "random:seed=1,min=10,max=20", "const:abc"]:
        with pytest.raises((ValueError, InvalidSpec)):
            parse_sequence(bad)


def test_schedule_sign_blocks():
    # 2x2, first sign +1: blocks (+,+), (-,-,-,-), (+ x8), (- x16), ...
    signs = [SCHEDULE_2X2.sign_at(k) for k in range(1, 15)]
    assert signs == [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_sampled_large_indices_random_annulus():
    spec = RandomAnnulus(seed=3, min_mod=42, max_mod=60)
    ks = np.unique(np.geomspace(1, 1_000_000, 200).astype(int))
    for k in ks:
        assert 42.0 <= abs(at(spec, int(k))) <= 60.0
