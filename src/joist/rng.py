"""SplitMix64 generator and the derived draws used for reproducible experiments.

Everything random in this package flows through this generator so that splits
and synthetic datasets are bit-reproducible from a single 64-bit seed, on any
platform. The derivations from blocks of raw draws are pinned exactly:

* bounded ints reduce ``draw % n`` (bias is irrelevant at our ranges,
  reproducibility is not),
* unit floats take the top 53 bits, shifted into (0, 1] (``unit_floats``),
* gaussians use Box-Muller cosine form, one per pair of draws (``gaussians``),
* shuffles are modern Fisher-Yates, swapping index i (from n-1 down to 1)
  with ``draw % (i + 1)``, one draw per swap.

SplitMix64 is counter-based (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014): the state only ever advances by
the constant gamma, so the k-th output after state ``s`` is
``mix(s + k * gamma mod 2**64)``, independent of every other output.
:meth:`SplitMix64.next_block` uses that to draw a whole block of outputs as
one numpy computation, bit-identical to as many ``next_uint64()`` calls.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The SplitMix64 pseudorandom generator (64-bit state, 64-bit output)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self._state = seed

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_block(self, n: int) -> np.ndarray:
        """The next *n* outputs as a uint64 array, equal to *n* next_uint64() calls."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        # uint64 array arithmetic wraps modulo 2**64, as the generator requires.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Floats in (0, 1] from raw uint64 draws: the top 53 bits, plus one, times 2**-53."""
    return ((words >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53


def gaussians(words1: np.ndarray, words2: np.ndarray) -> np.ndarray:
    """Box-Muller (cosine branch) normals, one per pair of raw draws.

    The logarithm and cosine are libm's, one element at a time: numpy's log
    differs from libm's in the last bit for a few values in 1,000, and
    nothing ties numpy's cos to libm's either.
    """
    logs = np.array(list(map(math.log, unit_floats(words1).tolist())))
    cosines = np.array(list(map(math.cos, (2.0 * math.pi * unit_floats(words2)).tolist())))
    return np.sqrt(-2.0 * logs) * cosines


def shuffled_indices(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by *rng*."""
    indices = list(range(n))
    # The swap partner of i (from n-1 down to 1) is draw % (i + 1); the draws
    # are independent of the swaps, so they come as one block.
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    partners = (rng.next_block(len(bounds)) % bounds).tolist()
    for i, j in zip(range(n - 1, 0, -1), partners):
        indices[i], indices[j] = indices[j], indices[i]
    return indices
