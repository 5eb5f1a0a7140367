from __future__ import annotations

import math

import numpy as np
import pytest

from joist.rng import SplitMix64, gaussians, shuffled_indices, unit_floats

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
    assert SplitMix64(0).next_block(4).tolist() == _SEED0_VECTOR


def test_same_seed_same_stream():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert a.next_block(100).tolist() == b.next_block(100).tolist()


def test_different_seeds_differ():
    a, b = SplitMix64(1), SplitMix64(2)
    assert a.next_block(10).tolist() != b.next_block(10).tolist()


def test_seed_bounds():
    SplitMix64(0)
    SplitMix64((1 << 64) - 1)
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)


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
    words = SplitMix64(17).next_block(40000).reshape(-1, 2)
    draws = gaussians(words[:, 0], words[:, 1]).tolist()
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.03
    assert abs(math.sqrt(var) - 1.0) < 0.03


def test_shuffled_indices_is_deterministic_permutation():
    first = shuffled_indices(100, SplitMix64(5))
    second = shuffled_indices(100, SplitMix64(5))
    assert first == second
    assert sorted(first) == list(range(100))
    assert first != list(range(100))


def test_shuffled_indices_trivial_sizes():
    assert shuffled_indices(0, SplitMix64(1)) == []
    assert shuffled_indices(1, SplitMix64(1)) == [0]


# -- block draws against the scalar generator ---------------------------------

def _scalar_shuffle(n, rng):
    """The Fisher-Yates loop with one scalar draw per swap (the reference)."""
    indices = list(range(n))
    for i in range(n - 1, 0, -1):
        j = next_below(rng, i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    return indices


def test_block_draws_match_scalar_draws_over_a_million_words():
    n = 1 << 20
    scalar = ScalarSplitMix64(0xDEADBEEF)
    expected = [scalar.next_uint64() for _ in range(n)]
    assert SplitMix64(0xDEADBEEF).next_block(n).tolist() == expected


def test_block_draws_continue_the_scalar_state():
    # Interleave blocks of many sizes (including 0) with single draws,
    # starting near the top of the state space so the counter wraps.
    seed = (1 << 64) - 5
    reference, mixed = ScalarSplitMix64(seed), SplitMix64(seed)
    for size in (0, 1, 2, 3, 7, 64, 1000, 1, 0, 4097):
        assert mixed.next_block(size).tolist() == [reference.next_uint64() for _ in range(size)]
        assert mixed.next_block(1).tolist() == [reference.next_uint64()]


def test_block_draws_reject_negative_sizes():
    with pytest.raises(ValueError):
        SplitMix64(1).next_block(-1)


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_shuffled_indices_match_the_scalar_loop(n):
    rng, reference = SplitMix64(99), ScalarSplitMix64(99)
    assert shuffled_indices(n, rng) == _scalar_shuffle(n, reference)
    # Both leave the generator in the same state.
    assert rng.next_block(1).tolist() == [reference.next_uint64()]


def test_unit_and_gaussian_draws_match_the_scalar_formulas():
    rng, reference = SplitMix64(4242), ScalarSplitMix64(4242)
    units = unit_floats(rng.next_block(2000)).tolist()
    assert units == [next_unit(reference) for _ in range(2000)]
    words = rng.next_block(4000).reshape(-1, 2)
    assert gaussians(words[:, 0], words[:, 1]).tolist() == [next_gaussian(reference) for _ in range(2000)]
    assert rng.next_block(1).tolist() == [reference.next_uint64()]
