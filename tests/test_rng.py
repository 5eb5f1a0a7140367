from __future__ import annotations

import math

import numpy as np
import pytest

from joist.rng import gaussians, splitmix64, unit_floats

from conftest import ScalarSplitMix64, next_below, next_gaussian, next_int, next_unit

# First outputs of the reference implementation for seed 0.
_SEED0_VECTOR = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]


def test_matches_reference_vector():
    scalar = ScalarSplitMix64(0)
    assert [scalar.next_uint64() for _ in range(4)] == _SEED0_VECTOR
    assert splitmix64(0, 4).tolist() == _SEED0_VECTOR


def test_same_seed_same_stream():
    assert splitmix64(987654321, 100).tolist() == splitmix64(987654321, 100).tolist()


def test_different_seeds_differ():
    assert splitmix64(1, 10).tolist() != splitmix64(2, 10).tolist()


def test_seed_bounds():
    splitmix64(0, 1)
    splitmix64((1 << 64) - 1, 1)
    with pytest.raises(ValueError):
        splitmix64(-1, 1)
    with pytest.raises(ValueError):
        splitmix64(1 << 64, 1)


# The scalar draws are test-local references (conftest); these pin them.

def test_next_below_range_and_coverage():
    rng = ScalarSplitMix64(7)
    seen = set()
    for _ in range(500):
        v = next_below(rng, 7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        next_below(ScalarSplitMix64(1), 0)


def test_next_int_inclusive_bounds():
    rng = ScalarSplitMix64(11)
    seen = {next_int(rng, 3, 5) for _ in range(200)}
    assert seen == {3, 4, 5}
    assert next_int(rng, 9, 9) == 9
    with pytest.raises(ValueError):
        next_int(rng, 5, 4)


def test_next_unit_in_half_open_interval():
    rng = ScalarSplitMix64(13)
    for _ in range(1000):
        u = next_unit(rng)
        assert 0.0 < u <= 1.0
    edges = unit_floats(np.array([0, (1 << 64) - 1], dtype=np.uint64))
    assert edges.tolist() == [2.0**-53, 1.0]


def test_gaussian_moments():
    words = splitmix64(17, 40000).reshape(-1, 2)
    draws = gaussians(words[:, 0], words[:, 1]).tolist()
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.03
    assert abs(math.sqrt(var) - 1.0) < 0.03


# -- block draws against the scalar generator ---------------------------------

def test_block_draws_match_scalar_draws_over_a_million_words():
    n = 1 << 20
    scalar = ScalarSplitMix64(0xDEADBEEF)
    expected = [scalar.next_uint64() for _ in range(n)]
    assert splitmix64(0xDEADBEEF, n).tolist() == expected


def test_block_draws_match_scalar_draws_across_the_counter_wrap():
    # Seeds near the top of the state space, so the counter wraps within the block.
    for seed in ((1 << 64) - 5, (1 << 64) - 1):
        for n in (0, 1, 2, 7, 4097):
            reference = ScalarSplitMix64(seed)
            assert splitmix64(seed, n).tolist() == [reference.next_uint64() for _ in range(n)]


def test_block_draws_reject_negative_sizes():
    with pytest.raises(ValueError):
        splitmix64(1, -1)


def test_unit_and_gaussian_draws_match_the_scalar_formulas():
    words, reference = splitmix64(4242, 6000), ScalarSplitMix64(4242)
    assert unit_floats(words[:2000]).tolist() == [next_unit(reference) for _ in range(2000)]
    pairs = words[2000:].reshape(-1, 2)
    assert gaussians(pairs[:, 0], pairs[:, 1]).tolist() == [next_gaussian(reference) for _ in range(2000)]
