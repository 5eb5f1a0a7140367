"""Evaluation statistics: correlation, error metrics, and fit quality.

Inputs may be sequences or numpy arrays; differences and products are taken
elementwise in float64, and all sums go through ``math.fsum`` (exactly rounded
compensated summation) in a two-pass mean-then-moments arrangement, so
200k-row microsecond-scale datasets lose no precision. Degenerate inputs raise
instead of returning NaN; a silent NaN would quietly corrupt whole comparison
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DegenerateDataError, DegenerateVarianceError, SampleCountError, ShapeError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike


def _floats(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_paired(t: ArrayLike, t_hat: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    if len(t) != len(t_hat):
        raise ShapeError(f"length mismatch: {len(t)} observed vs {len(t_hat)} predicted")
    if len(t) == 0:
        raise ShapeError("empty input")
    return _floats(t), _floats(t_hat)


def _fsum(x: np.ndarray) -> float:
    return fsum(x.tolist())


def fsum_squares(d: np.ndarray) -> float:
    """Exactly rounded sum of the squares of *d*'s values."""
    # Python's ``v ** 2`` calls libm pow, which differs from numpy's ``d * d``
    # in the last bit for about 1 value in 1,000; keep it so every statistic
    # stays bit-identical to the per-element definition.
    return fsum([v**2 for v in d.tolist()])


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
    n = len(x)
    if n < 2:
        raise ShapeError(f"need at least 2 observations, got {n}")
    x, t = _floats(x), _floats(t)
    dx = x - _fsum(x) / n
    dt = t - _fsum(t) / n
    sxx = fsum_squares(dx)
    stt = fsum_squares(dt)
    if sxx == 0.0:
        raise DegenerateVarianceError("first series is constant; correlation undefined")
    if stt == 0.0:
        raise DegenerateVarianceError("second series is constant; correlation undefined")
    sxt = _fsum(dx * dt)
    return PearsonResult(r=sxt / (sqrt(sxx) * sqrt(stt)), n=n)


def mae(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Mean absolute prediction error, in the units of the inputs."""
    t, t_hat = _check_paired(t, t_hat)
    return _fsum(np.abs(t - t_hat)) / len(t)


def emr(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Error mean ratio: MAE divided by the mean observed value."""
    t, t_hat = _check_paired(t, t_hat)
    t_mean = _fsum(t) / len(t)
    if t_mean <= 0.0:
        raise DegenerateDataError(f"mean observed value must be positive, got {t_mean}")
    return mae(t, t_hat) / t_mean


def r_squared(t: ArrayLike, t_hat: ArrayLike) -> float:
    """Coefficient of determination. May be negative for models worse than the mean."""
    t, t_hat = _check_paired(t, t_hat)
    n = len(t)
    if n < 2:
        raise ShapeError(f"need at least 2 observations, got {n}")
    ss_tot = fsum_squares(t - _fsum(t) / n)
    if ss_tot == 0.0:
        raise DegenerateVarianceError("observed series is constant; R^2 undefined")
    ss_res = fsum_squares(t - t_hat)
    return 1.0 - ss_res / ss_tot


def adjusted_r_squared(r2: float, n: int, p: int) -> float:
    """R^2 penalized for predictor count p; requires n > p + 1."""
    if n <= p + 1:
        raise SampleCountError(f"need n > p + 1 (n={n}, p={p})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


class ExtremeValues(NamedTuple):
    max_prediction_us: float
    n_exceeding_max_prediction: int
    max_abs_error_us: float


def extreme_value_report(t: ArrayLike, t_hat: ArrayLike) -> ExtremeValues:
    """Extreme-value fitness: how often measurements exceed the model's ceiling."""
    t, t_hat = _check_paired(t, t_hat)
    max_pred = float(t_hat.max())
    return ExtremeValues(
        max_prediction_us=max_pred,
        n_exceeding_max_prediction=int(np.count_nonzero(t > max_pred)),
        max_abs_error_us=float(np.abs(t - t_hat).max()),
    )


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
    """
    t, t_hat = _check_paired(t, t_hat)
    n = len(t)
    r2 = r_squared(t, t_hat)
    extremes = extreme_value_report(t, t_hat)
    return EvalReport(
        n=n,
        mae_us=mae(t, t_hat),
        emr=emr(t, t_hat),
        r2=r2,
        adj_r2=adjusted_r_squared(r2, n, n_predictors),
        max_abs_error_us=extremes.max_abs_error_us,
        max_prediction_us=extremes.max_prediction_us,
        n_exceeding_max_prediction=extremes.n_exceeding_max_prediction,
        mean_observed_us=_fsum(t) / n,
    )
