"""Evaluation statistics: correlation, error metrics, and fit quality.

Inputs may be sequences or numpy arrays; differences and products are taken
elementwise in float64 and statistics are two-pass (mean, then centred
moments), so 200k-row microsecond-scale datasets lose no precision. Degenerate
inputs raise instead of returning NaN; a silent NaN would quietly corrupt
whole comparison tables.

Every sum is exactly rounded and every square is Python's ``v ** 2``: each
statistic is bit-equal to its per-element definition with ``math.fsum`` over
``[v ** 2 for v in d]``. Two numpy kernels give those bits without a Python
call per element:

* :func:`exact_sum` adds float64 mantissas as integers per binary exponent
  and rounds the exact total once, which is what ``math.fsum`` returns.
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

from dataclasses import dataclass
from math import fsum, sqrt
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    DegenerateDataError,
    DegenerateVarianceError,
    NumericalError,
    SampleCountError,
    ShapeError,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


def _floats(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# bincount adds its float64 weights in float64; with halves below 2**27 the
# per-exponent totals stay exact integers below 2**53 up to this many values.
_EXACT_SUM_MAX_N = 1 << 26


def exact_sum(x: ArrayLike) -> float:
    """The exactly rounded sum of *x*: ``math.fsum(x.tolist())``.

    Where fsum fails on an intermediate overflow, this returns the exact sum
    if that fits in a float; only arrays of 2**26 or more values, which are
    passed to fsum itself, still fail there.

    Raises:
        NumericalError: if a value is not finite or the sum is beyond float
            range.
    """
    x = _floats(x).ravel()
    if not np.isfinite(x).all():
        raise NumericalError("cannot sum non-finite values")
    if x.size >= _EXACT_SUM_MAX_N:
        try:
            return fsum(x.tolist())
        except OverflowError:
            raise NumericalError("sum overflowed") from None
    # x = m * 2**e with m a 53-bit integer over 2**53; split m into a 26-bit
    # high and a 27-bit low part, both integer-valued floats.
    m, e = np.frexp(x)
    e_min = int(e.min()) if x.size else 0
    bins = (e - e_min).astype(np.intp)
    m *= 2.0**26
    high = np.trunc(m)
    m -= high
    m *= 2.0**27
    total = 0
    for k, (h, lo) in enumerate(zip(np.bincount(bins, high).tolist(), np.bincount(bins, m).tolist())):
        if h or lo:
            total += ((int(h) << 27) + int(lo)) << k
    if total == 0:
        try:
            return fsum(x.tolist())  # keeps fsum's sign of zero
        except OverflowError:
            return 0.0
    shift = e_min - 53
    try:  # int true division rounds correctly, half to even
        return (total << shift) / 1 if shift >= 0 else total / (1 << -shift)
    except OverflowError:
        raise NumericalError("sum is beyond float range") from None


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
    """The two-pass centred moments of a non-empty series."""
    x = _floats(x)
    mean = exact_sum(x) / len(x)
    deviations = x - mean
    return Centred(mean, deviations, exact_sum(squares(deviations)))


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericalError unless every value is finite."""
    bad = len(values) - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericalError(f"{bad} of {len(values)} {what} are not finite")


def _check_paired(t: ArrayLike, t_hat: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    if len(t) != len(t_hat):
        raise ShapeError(f"length mismatch: {len(t)} observed vs {len(t_hat)} predicted")
    if len(t) == 0:
        raise ShapeError("empty input")
    t, t_hat = _floats(t), _floats(t_hat)
    require_finite(t_hat, "predictions")
    return t, t_hat


def _check_count(n: int) -> None:
    if n < 2:
        raise ShapeError(f"need at least 2 observations, got {n}")


class PearsonResult(NamedTuple):
    r: float
    n: int


def pearson_r(x: ArrayLike, t: ArrayLike) -> PearsonResult:
    """Pearson's correlation coefficient between a feature series and times.

    Raises:
        ShapeError: on length mismatch or fewer than two observations.
        DegenerateVarianceError: if either series is constant.
    """
    if len(x) != len(t):
        raise ShapeError(f"length mismatch: {len(x)} vs {len(t)}")
    _check_count(len(x))
    return PearsonResult(r=correlation(centred(x), centred(t)), n=len(x))


def correlation(x: Centred, t: Centred) -> float:
    """Pearson's r of two centred series of equal length.

    Raises:
        DegenerateVarianceError: if either series is constant.
    """
    if x.sum_squares == 0.0:
        raise DegenerateVarianceError("first series is constant; correlation undefined")
    if t.sum_squares == 0.0:
        raise DegenerateVarianceError("second series is constant; correlation undefined")
    sxt = exact_sum(x.deviations * t.deviations)
    return sxt / (sqrt(x.sum_squares) * sqrt(t.sum_squares))


def mae(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Mean absolute prediction error, in the units of the inputs."""
    t, t_hat = _check_paired(t, t_hat)
    return exact_sum(np.abs(t - t_hat)) / len(t)


def _error_mean_ratio(mae_us: float, t_mean: float) -> float:
    if t_mean <= 0.0:
        raise DegenerateDataError(f"mean observed value must be positive, got {t_mean}")
    return mae_us / t_mean


def emr(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Error mean ratio: MAE divided by the mean observed value."""
    t, t_hat = _check_paired(t, t_hat)
    return _error_mean_ratio(mae(t, t_hat), exact_sum(t) / len(t))


def _r_squared(t: Centred, residuals: np.ndarray) -> float:
    _check_count(len(residuals))
    if t.sum_squares == 0.0:
        raise DegenerateVarianceError("observed series is constant; R^2 undefined")
    return 1.0 - exact_sum(squares(residuals)) / t.sum_squares


def r_squared(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Coefficient of determination. May be negative for models worse than the mean."""
    t, t_hat = _check_paired(t, t_hat)
    return _r_squared(centred(t), t - t_hat)


def adjusted_r_squared(r2: float, n: int, p: int) -> float:
    """R^2 penalized for predictor count p; requires n > p + 1."""
    if n <= p + 1:
        raise SampleCountError(f"need n > p + 1 (n={n}, p={p})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


class ExtremeValues(NamedTuple):
    max_prediction_us: float
    n_exceeding_max_prediction: int
    max_abs_error_us: float


def _extremes(t: np.ndarray, t_hat: np.ndarray, abs_errors: np.ndarray) -> ExtremeValues:
    max_pred = float(t_hat.max())
    return ExtremeValues(
        max_prediction_us=max_pred,
        n_exceeding_max_prediction=int(np.count_nonzero(t > max_pred)),
        max_abs_error_us=float(abs_errors.max()),
    )


def extreme_value_report(t: ArrayLike, t_hat: ArrayLike) -> ExtremeValues:
    """Extreme-value fitness: how often measurements exceed the model's ceiling."""
    t, t_hat = _check_paired(t, t_hat)
    return _extremes(t, t_hat, np.abs(t - t_hat))


@dataclass(frozen=True)
class EvalReport:
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


def evaluate(t: ArrayLike, t_hat: ArrayLike, n_predictors: int) -> EvalReport:
    """Full evaluation of predictions against observations.

    ``n_predictors`` comes from the model kind (4 for the feature model, 1 for
    the byte-rate models), never inferred from the data.

    Raises:
        NumericalError: if a prediction is not finite or a square or sum is
            beyond float range, besides the errors of the single statistics.
    """
    t, t_hat = _check_paired(t, t_hat)
    n = len(t)
    observed = centred(t)
    # |t - t_hat| squares to the same bits as t - t_hat: pow squares |v|.
    abs_errors = np.abs(t - t_hat)
    r2 = _r_squared(observed, abs_errors)
    extremes = _extremes(t, t_hat, abs_errors)
    mae_us = exact_sum(abs_errors) / n
    return EvalReport(
        n=n,
        mae_us=mae_us,
        emr=_error_mean_ratio(mae_us, observed.mean),
        r2=r2,
        adj_r2=adjusted_r_squared(r2, n, n_predictors),
        max_abs_error_us=extremes.max_abs_error_us,
        max_prediction_us=extremes.max_prediction_us,
        n_exceeding_max_prediction=extremes.n_exceeding_max_prediction,
        mean_observed_us=observed.mean,
    )
