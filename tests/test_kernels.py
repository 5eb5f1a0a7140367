"""The exact-sum and square kernels against the per-element definitions they
replace: ``math.fsum`` of a list, and Python's ``v ** 2`` (libm ``pow``)."""

from __future__ import annotations

from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joist import NumericalError
from joist.stats import exact_sum, squares

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
def test_exact_sum_is_fsum(x):
    assert _outcome(exact_sum, x) == _reference_sum(x.tolist())


def test_exact_sum_rejects_non_finite_values():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalError):
            exact_sum(np.array([1.0, bad]))


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
