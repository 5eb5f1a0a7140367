"""The exact-sum and square kernels against the per-element definitions they
replace: ``math.fsum`` of a list, and Python's ``v ** 2`` (libm ``pow``). The
sums run in blocks, so each property also runs with blocks of three values."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joist import NumericalError, stats
from joist.stats import centred, evaluate, exact_sum, squares, sum_squares

from conftest import small_blocks

_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # every magnitude, ±0, subnormals
    st.floats(-1e6, 1e6),
    st.floats(-(2.0**-1000), 2.0**-1000),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def float_arrays(draw):
    values = draw(st.lists(_FINITE, max_size=60))
    if draw(st.booleans()):
        # Cancellation: each value next to its negation, plus a small remainder.
        values = draw(st.permutations(values + [-v for v in values] + draw(st.lists(_FINITE, max_size=3))))
    return np.array(values, dtype=np.float64)


def _outcome(fn, values):
    try:
        return repr(fn(values))
    except (OverflowError, NumericalError):
        return "overflow"


def _reference_sum(values: list[float]) -> str:
    try:
        return repr(fsum(values))
    except OverflowError:
        # fsum gives up on an intermediate overflow; the exact sum may still fit.
        return _outcome(float, sum(map(Fraction, values), Fraction(0)))


@settings(max_examples=500, deadline=None)
@given(x=float_arrays())
@example(x=np.array([]))
@example(x=np.array([-0.0, -0.0]))
@example(x=np.array([5e-324, -5e-324, 5e-324]))
@example(x=np.array([1.7e308, 1.7e308, -1.7e308]))
@example(x=np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308]))
@example(x=np.array([1.7e308, 1.7e308]))
@example(x=np.array([1.0, 2.0**-60, -1.0, 2.0**-1074]))
@example(x=np.array([-0.0] * 7))
@example(x=np.array([0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0]))
# Exactly cancelling pairs across the edge between the first two blocks of three.
@example(x=np.array([-0.0, 2.5, 1e300, -1e300, -2.5, -0.0]))
@example(x=np.array([5e-324, 1.7e308, 1.7e308, -1.7e308, -1.7e308, -5e-324, -0.0]))
def test_exact_sum_is_fsum(x):
    expected = _reference_sum(x.tolist())
    assert _outcome(exact_sum, x) == expected
    with small_blocks(3):
        assert _outcome(exact_sum, x) == expected


@settings(max_examples=500, deadline=None)
@given(d=float_arrays())
@example(d=np.array([]))
@example(d=np.array([-0.0] * 7))
@example(d=np.array([0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0]))
@example(d=np.array([-0.0, 2.5, 1e150, -1e150, -2.5, -0.0]))
@example(d=np.array([1e-170, 1e-160, 1.3e154, 1.3e154, 1.3e154]))
def test_sum_squares_is_fsum_of_pow(d):
    expected = _outcome(lambda values: fsum([v**2 for v in values]), d.tolist())
    assert _outcome(sum_squares, d) == expected
    with small_blocks(3):
        assert _outcome(sum_squares, d) == expected


def test_exact_sum_rejects_non_finite_values():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError):
            exact_sum(np.array([1.0, bad]))


def test_a_zero_sum_builds_no_list_per_value(monkeypatch):
    def short_fsum(values):
        assert len(values) <= 2, f"fsum of {len(values)} values"
        return fsum(values)

    monkeypatch.setattr(stats, "fsum", short_fsum)
    zeros = np.zeros(10_000)
    column = centred(zeros)  # an all-zero count column, such as JoinSplits
    for x in (zeros, -zeros, column.deviations):
        assert repr(exact_sum(x)) == repr(fsum(x.tolist()))
    assert repr(column.sum_squares) == repr(sum_squares(np.full(10_000, -0.0))) == "0.0"


def test_centred_and_evaluate_hold_no_column_of_temporaries():
    n = 1 << 20
    rng = np.random.default_rng(20261020)
    t = rng.integers(1_000, 100_000, n).astype(np.float64)
    t_hat = t + rng.normal(0.0, 2500.0, n)
    # centred keeps the deviations; evaluate also holds t - t_hat and its
    # absolute values. Beyond those, a finiteness mask and a few blocks.
    for call, columns in ((lambda: centred(t), 1), (lambda: evaluate(t, t_hat, 4), 3)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns * 8 * n + n + 16 * 8 * stats._BLOCK


def test_squares_match_pow_on_a_million_values():
    rng = np.random.default_rng(20261018)
    n = 10**6
    # Microsecond-scale deviations, every magnitude whose square is finite,
    # and a band whose squares lie just above the subnormal range.
    exponents = np.where(rng.random(n) < 0.3, rng.integers(-155, -150, n), rng.integers(-160, 154, n))
    d = rng.standard_normal(n) * np.where(rng.random(n) < 0.4, 1e5, 10.0**exponents)
    expected = np.array([v**2 for v in d.tolist()])
    assert np.array_equal(squares(d).view(np.int64), expected.view(np.int64))
    # Enough values where pow differs from d * d to exercise the fallback.
    assert np.count_nonzero(expected != d * d) >= 500


def test_squares_at_the_range_boundaries():
    values = [
        2.0**450,
        -(2.0**450),
        float(np.nextafter(2.0**450, np.inf)),
        2.0**-450,
        float(np.nextafter(2.0**-450, 0.0)),
        1.3e154,
        -1.3e154,
        1e-160,  # square is subnormal
        1e-170,  # square underflows to zero
        0.0,
        -0.0,
        float("inf"),
    ]
    got = squares(np.array(values))
    assert [repr(v) for v in got.tolist()] == [repr(v**2) for v in values]
    with pytest.raises(NumericalError):
        squares(np.array([1.0, 1.4e154]))
