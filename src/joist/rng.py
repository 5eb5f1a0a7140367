"""SplitMix64 draws and the values derived from them for reproducible experiments.

Everything random in this package comes from SplitMix64 streams, so that
splits and synthetic datasets are bit-reproducible from a single 64-bit seed,
on any platform. The derivations from blocks of raw draws are pinned exactly:

* bounded ints reduce ``draw % n`` (bias is irrelevant at our ranges,
  reproducibility is not),
* unit floats take the top 53 bits, shifted into (0, 1] (``unit_floats``),
* gaussians use Box-Muller cosine form, one per pair of draws (``gaussians``),
  with libm's log and cos; :func:`joist.experiment.generate_synthetic` computes
  them with numpy's first and redoes with ``gaussians`` only the values whose
  rounded integer libm's last bits could change, so its datasets equal the
  ones built from ``gaussians`` alone,
* shuffles are modern Fisher-Yates, swapping index i (from n-1 down to 1)
  with ``draw % (i + 1)``, one draw per swap.

SplitMix64 is counter-based (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014): the state only ever advances by
the constant gamma, so the k-th output (from 1) for seed ``s`` is
``mix(s + k * gamma mod 2**64)``, independent of every other output.
:func:`splitmix64` uses that to compute the first n outputs as one numpy
computation, bit-identical to n steps of the scalar generator in the paper.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, n: int) -> np.ndarray:
    """The first *n* SplitMix64 outputs for *seed*, as a uint64 array."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # uint64 array arithmetic wraps modulo 2**64, as the generator requires.
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed)
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
    logs = np.fromiter(map(math.log, unit_floats(words1).tolist()), np.float64, len(words1))
    cosines = np.fromiter(map(math.cos, (2.0 * math.pi * unit_floats(words2)).tolist()), np.float64, len(words2))
    return np.sqrt(-2.0 * logs) * cosines
