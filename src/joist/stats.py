"""Evaluation statistics: :func:`evaluate` computes every error and fit-quality
metric of a model on a dataset, and :func:`correlation` gives Pearson's r.

Inputs may be sequences or numpy arrays; differences and products are taken
elementwise in float64 and statistics are two-pass (mean, then centred
moments), so 200k-row microsecond-scale datasets lose no precision. Degenerate
inputs raise instead of returning NaN; a silent NaN would quietly corrupt
whole comparison tables.

Every sum is exactly rounded and every square is Python's ``v ** 2``: each
statistic is bit-equal to its per-element definition with ``math.fsum`` over
``[v ** 2 for v in d]``. Two numpy kernels give those bits without a Python
call per element:

* :func:`exact_sum` adds float64 mantissas as integers per binary exponent and
  rounds the exact total once, as ``math.fsum`` does. Blocks of up to 2**26
  values add exactly, so it goes in blocks of ``_BLOCK`` with the same bits.
* :func:`squares` returns ``d * d`` where that provably equals libm
  ``pow(v, 2)``. glibc's ``pow`` is within 0.54 ulp of the exact value, so it
  can differ from the correctly rounded ``d * d`` only when the exact square
  lies within 0.04 ulp of a rounding midpoint; the kernel computes the exact
  rounding error of ``d * d`` (Dekker's TwoProduct) and sends every element
  within 0.05 ulp of a midpoint to ``v ** 2``. A libm whose ``pow`` is off by
  more than 0.55 ulp would break the bit-equality, not the accuracy.

A square or sum beyond float range, or a non-finite value reaching a sum,
raises :class:`NumericalError`.
"""

from __future__ import annotations

from math import fsum, sqrt
from numbers import Real
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    DegenerateDataError,
    DegenerateVarianceError,
    IntegrityError,
    NumericalError,
    Record,
    SampleCountError,
    ShapeError,
    is_int,
    shown,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


def _floats(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# Values per block of the exact reductions: bincount's float64 per-exponent
# totals of halves below 2**27 stay exact for any block of up to 2**26 values.
_BLOCK = 1 << 16
# frexp's least exponent, that of the least subnormal 2**-1074 = 0.5 * 2**-1073.
_E_MIN = -1073


def _blocked_sum(x: np.ndarray, square: bool) -> float:
    """The exactly rounded sum of *x*, or of its squares, one block at a time."""
    require_finite(x, "values to sum")
    total = 0  # in units of 2**(_E_MIN - 53), a multiple of every float
    for start in range(0, x.size, _BLOCK):
        block = x[start : start + _BLOCK]
        if square:
            block = squares(block)
        # v = m * 2**e with m a 53-bit integer over 2**53; split m into a 26-bit
        # high and a 27-bit low part, both integer-valued floats.
        m, e = np.frexp(block)
        e_min = int(e.min())
        bins = (e - e_min).astype(np.intp)
        high = np.trunc(m * 2.0**26)
        low = (m * 2.0**26 - high) * 2.0**27
        for k, (h, lo) in enumerate(zip(np.bincount(bins, high).tolist(), np.bincount(bins, low).tolist())):
            if h or lo:
                total += ((int(h) << 27) + int(lo)) << (k + e_min - _E_MIN)
    if total == 0 and not square and np.signbit(x).all():  # every value is -0.0, or there is none
        return fsum(x[:1].tolist())  # with fsum's sign for a sum of -0.0; a square is never -0.0
    try:  # int true division rounds correctly, half to even
        return total / (1 << (53 - _E_MIN))
    except OverflowError:
        raise NumericalError("sum is beyond float range") from None


def exact_sum(x: ArrayLike) -> float:
    """The exactly rounded sum of *x*: ``math.fsum(x.tolist())``, or the exact
    sum where fsum fails on an intermediate overflow.

    Raises:
        NumericalError: if a value is not finite or the sum is beyond float range.
    """
    return _blocked_sum(_floats(x).ravel(), square=False)


def sum_squares(d: ArrayLike) -> float:
    """``math.fsum([v ** 2 for v in d])``: :func:`exact_sum` of :func:`squares`, one block of *d* at a time."""
    return _blocked_sum(_floats(d).ravel(), square=True)


# Veltkamp's splitter for float64: a * (2**27 + 1) splits a into 26 + 27 bits.
_SPLITTER = 2.0**27 + 1.0
# |d| in this range keeps the split, the square and its error clear of
# overflow and underflow.
_SQUARE_MIN, _SQUARE_MAX = 2.0**-450, 2.0**450


def squares(d: ArrayLike) -> np.ndarray:
    """``[v ** 2 for v in d]`` (libm ``pow``) as a float64 array.

    Raises:
        NumericalError: if a square is beyond float range.
    """
    d = _floats(d)
    a = np.abs(d)
    with np.errstate(all="ignore"):  # out-of-range values are redone below
        sq = a * a
        c = a * _SPLITTER
        high = c - (c - a)
        low = a - high
        # a*a - sq exactly (Dekker), against the gap from sq down to the next
        # float: the gap on either side, or half of it when sq is a power of
        # two, which errs towards redoing.
        err = ((high * high - sq) + 2.0 * high * low) + low * low
        gap = sq - (sq.view(np.int64) - 1).view(np.float64)
        redo = np.abs(err) >= 0.45 * gap
    redo |= ~(a <= _SQUARE_MAX)
    redo |= (a < _SQUARE_MIN) & (a != 0.0)
    index = np.flatnonzero(redo)
    if index.size:
        try:
            sq[index] = [v**2 for v in d[index].tolist()]
        except OverflowError:
            raise NumericalError("a square is beyond float range") from None
    return sq


class Centred(NamedTuple):
    """A series' mean, its deviations from the mean, and their sum of squares."""

    mean: float
    deviations: np.ndarray
    sum_squares: float


def centred(x: ArrayLike) -> Centred:
    """The two-pass centred moments of a non-empty one-dimensional series.

    Raises:
        ShapeError, IntegrityError: as :func:`_series` does, or ShapeError if *x* is empty or
            has more than one dimension.
        NumericalError: if a value is not finite, or a deviation, square or sum is beyond float range.
    """
    x = _series(x, "values")
    if x.ndim != 1 or not x.size:
        raise ShapeError(f"values must be one non-empty series, got shape {x.shape}")
    mean = exact_sum(x) / len(x)
    with np.errstate(over="ignore"):  # a deviation beyond float range is refused by sum_squares
        deviations = x - mean
    return Centred(mean, deviations, sum_squares(deviations))


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericalError unless every value is finite."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericalError(f"{bad} of {values.size} {what} are not finite")


def correlation(x: Centred, t: Centred) -> float:
    """Pearson's r of two centred series of equal length.

    Raises:
        IntegrityError: if either argument is not a Centred (see :func:`centred`).
        ShapeError: if the series' shapes differ.
        DegenerateVarianceError: if either series is constant.
    """
    for series in (x, t):
        if not isinstance(series, Centred):
            raise IntegrityError(f"correlation takes Centred series, got {shown(series)}")
    if x.deviations.shape != t.deviations.shape:
        raise ShapeError(f"series lengths differ: shapes {x.deviations.shape} and {t.deviations.shape}")
    if x.sum_squares == 0.0:
        raise DegenerateVarianceError("first series is constant; correlation undefined")
    if t.sum_squares == 0.0:
        raise DegenerateVarianceError("second series is constant; correlation undefined")
    sxt = exact_sum(x.deviations * t.deviations)
    return sxt / (sqrt(x.sum_squares) * sqrt(t.sum_squares))


def adjusted_r_squared(r2: float, n: int, p: int) -> float:
    """R^2 penalized for predictor count p; requires n > p + 1."""
    if n <= p + 1:
        raise SampleCountError(f"need n > p + 1 (n={n}, p={shown(p)})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


class EvalReport(Record):
    """All evaluation statistics for one (model, dataset) pair."""

    n: int
    mae_us: float
    emr: float
    r2: float
    adj_r2: float
    max_abs_error_us: float
    max_prediction_us: float
    n_exceeding_max_prediction: int
    mean_observed_us: float


def _series(x: ArrayLike, what: str) -> np.ndarray:
    """*x* as a float64 array; ShapeError if it is ragged or one value, IntegrityError if a
    value is not a real number (a bool, a string, None) or is beyond float range."""
    try:
        values = np.asarray(x)
    except ValueError as exc:  # a ragged nest of sequences
        raise ShapeError(f"{what} are not one array: {exc}") from None
    if values.ndim == 0:
        raise ShapeError(f"{what} must be a sequence, got {shown(x)}")
    if values.dtype.kind == "O" and all(isinstance(v, Real) and not isinstance(v, bool) for v in values.flat):
        try:  # ints beyond int64, or numbers of mixed types
            values = values.astype(np.float64)
        except OverflowError:
            raise IntegrityError(f"{what} must be within float range") from None
    if values.dtype.kind not in "iuf":
        raise IntegrityError(f"{what} must be real numbers, got dtype {values.dtype}")
    return values.astype(np.float64, copy=False)


def evaluate(t: ArrayLike, t_hat: ArrayLike, n_predictors: int) -> EvalReport:
    """Full evaluation of predictions against observations.

    ``n_predictors`` comes from the model kind (4 for the feature model, 1 for
    the byte-rate models), never inferred from the data. R^2 may be negative
    for a model worse than the mean.

    Raises, checking in this order:
        IntegrityError: if n_predictors is not an int >= 0.
        ShapeError, IntegrityError: if an input is ragged or one value, or a value is not a
            real number within float range (see :func:`_series`).
        ShapeError: if the lengths differ, or the input is empty.
        NumericalError: if a prediction is not finite.
        ShapeError: if an input has more than one dimension.
        NumericalError: if an observed value is not finite.
        ShapeError: if there are fewer than two observations.
        DegenerateVarianceError: if the observed series is constant.
        NumericalError: if a difference, square or sum is beyond float range.
        DegenerateDataError: if the mean observed value is not positive.
        SampleCountError: unless n > n_predictors + 1.
    """
    if not (is_int(n_predictors) and n_predictors >= 0):
        raise IntegrityError(f"n_predictors must be an int >= 0, got {shown(n_predictors)}")
    t, t_hat = _series(t, "observed values"), _series(t_hat, "predictions")
    if len(t) != len(t_hat):
        raise ShapeError(f"length mismatch: {len(t)} observed vs {len(t_hat)} predicted")
    n = len(t)
    if n == 0:
        raise ShapeError("empty input")
    require_finite(t_hat, "predictions")
    if t.ndim != 1 or t_hat.ndim != 1:
        shapes = f"got shapes {t.shape} and {t_hat.shape}"
        raise ShapeError(f"observed values and predictions must be one-dimensional, {shapes}")
    observed = centred(t)
    if n < 2:
        raise ShapeError(f"need at least 2 observations, got {n}")
    if observed.sum_squares == 0.0:
        raise DegenerateVarianceError("observed series is constant; R^2 undefined")
    # |t - t_hat| squares to the same bits as t - t_hat: pow squares |v|.
    with np.errstate(over="ignore"):  # an error beyond float range is refused by sum_squares
        abs_errors = np.abs(t - t_hat)
    r2 = 1.0 - sum_squares(abs_errors) / observed.sum_squares
    max_prediction_us = float(t_hat.max())
    mae_us = exact_sum(abs_errors) / n
    if observed.mean <= 0.0:
        raise DegenerateDataError(f"mean observed value must be positive, got {observed.mean}")
    return EvalReport(
        n=n,
        mae_us=mae_us,
        emr=mae_us / observed.mean,
        r2=r2,
        adj_r2=adjusted_r_squared(r2, n, n_predictors),
        max_abs_error_us=float(abs_errors.max()),
        max_prediction_us=max_prediction_us,
        n_exceeding_max_prediction=int(np.count_nonzero(t > max_prediction_us)),
        mean_observed_us=observed.mean,
    )
