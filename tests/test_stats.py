from __future__ import annotations

import random
from math import fsum

import numpy as np
import pytest

from joist import (
    DegenerateDataError,
    DegenerateVarianceError,
    EvalReport,
    IntegrityError,
    NumericalError,
    SampleCountError,
    ShapeError,
    adjusted_r_squared,
    evaluate,
)
from joist.stats import centred, correlation

from conftest import (
    naive_adjusted_r_squared,
    naive_emr,
    naive_mae,
    naive_pearson,
    naive_r_squared,
    rel_close,
)


def _r(x, t):
    return correlation(centred(x), centred(t))


def _random_pair(rng, n):
    t = [rng.uniform(1.0, 1e6) for _ in range(n)]
    t_hat = [v + rng.gauss(0, 1e4) for v in t]
    return t, t_hat


# -- agreement with the naive oracle ------------------------------------

def test_statistics_match_naive_oracle_on_random_inputs():
    rng = random.Random(60451)
    for _ in range(100):
        n = rng.randrange(2, 1001)
        t, t_hat = _random_pair(rng, n)
        report = evaluate(t, t_hat, 0)
        assert rel_close(_r(t, t_hat), naive_pearson(t, t_hat), 1e-9)
        assert rel_close(report.mae_us, naive_mae(t, t_hat), 1e-9)
        assert rel_close(report.emr, naive_emr(t, t_hat), 1e-9)
        assert rel_close(report.r2, naive_r_squared(t, t_hat), 1e-9)
        r2 = report.r2
        p = rng.randrange(1, 5)
        if n > p + 1:
            assert rel_close(
                adjusted_r_squared(r2, n, p), naive_adjusted_r_squared(r2, n, p), 1e-9
            )


# -- correlation -----------------------------------------------------------

def test_pearson_perfect_positive():
    assert _r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    assert _r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    # By hand: covariance 4, variances 5 and 5 -> r = 4/5.
    assert _r([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(DegenerateVarianceError):
        _r([5, 5, 5], [1, 2, 3])
    with pytest.raises(DegenerateVarianceError):
        _r([1, 2, 3], [7, 7, 7])


def test_correlation_refuses_arguments_that_are_not_centred_series_of_one_length():
    with pytest.raises(ShapeError, match=r"^series lengths differ: shapes \(3,\) and \(2,\)$"):
        correlation(centred([1.0, 2.0, 3.0]), centred([1.0, 2.0]))
    with pytest.raises(IntegrityError, match=r"^correlation takes Centred series, got \{\}$"):
        correlation({}, centred([1.0, 2.0]))
    with pytest.raises(IntegrityError, match=r"^correlation takes Centred series, got \[1.0, 2.0\]$"):
        correlation(centred([1.0, 2.0]), [1.0, 2.0])


@pytest.mark.parametrize(
    "x, message",
    [
        ([], r"values must be one non-empty series, got shape \(0,\)"),
        ([[1.0, 2.0], [3.0, 4.0]], r"values must be one non-empty series, got shape \(2, 2\)"),
        ([[1.0, 2.0], [3.0]], r"values are not one array: "),
        ("ab", r"values must be a sequence, got 'ab'"),
        ({}, r"values must be a sequence, got \{\}"),
    ],
)
def test_centred_refuses_a_series_that_is_empty_or_not_one_dimensional(x, message):
    with pytest.raises(ShapeError, match=f"^{message}"):
        centred(x)


def test_pearson_properties():
    rng = random.Random(7130)
    for _ in range(30):
        n = rng.randrange(3, 50)
        x = [rng.uniform(-10, 10) for _ in range(n)]
        t = [xi * rng.uniform(0.5, 2) + rng.gauss(0, 3) for xi in x]
        r = _r(x, t)
        assert rel_close(_r(t, x), r, 1e-9)
        a, b = rng.uniform(0.1, 5), rng.uniform(-100, 100)
        assert rel_close(_r([a * xi + b for xi in x], t), r, 1e-9)
        assert _r([-xi for xi in x], t) == pytest.approx(-r, rel=1e-9)


# -- mae / emr -----------------------------------------------------------

def test_mae_emr_perfect_prediction():
    t = [3.0, 4.0, 5.0]
    report = evaluate(t, t, 0)
    assert report.mae_us == 0.0
    assert report.emr == 0.0


def test_mae_emr_hand_values():
    t, t_hat = [10, 20, 30], [12, 18, 33]
    report = evaluate(t, t_hat, 0)
    assert report.mae_us == pytest.approx(7 / 3, abs=1e-12)
    assert report.emr == pytest.approx(7 / 60, abs=1e-12)


def test_mae_emr_errors():
    with pytest.raises(ShapeError):
        evaluate([], [], 0)
    with pytest.raises(ShapeError):
        evaluate([1], [1, 2], 0)
    with pytest.raises(DegenerateDataError):
        evaluate([-1.0, 1.0], [0.0, 0.0], 0)


def test_mae_translation_and_scale_equivariance():
    rng = random.Random(88)
    for _ in range(20):
        n = rng.randrange(2, 40)
        t, t_hat = _random_pair(rng, n)
        base = evaluate(t, t_hat, 0)
        c = rng.uniform(-50, 50)
        assert rel_close(evaluate([v + c for v in t], [v + c for v in t_hat], 0).mae_us, base.mae_us, 1e-9)
        lam = rng.uniform(0.1, 10)
        scaled = evaluate([lam * v for v in t], [lam * v for v in t_hat], 0)
        assert rel_close(scaled.mae_us, lam * base.mae_us, 1e-9)
        assert rel_close(scaled.emr, base.emr, 1e-9)


# -- R^2 / adjusted ------------------------------------------------

def test_r_squared_identities():
    t = [3.0, 9.0, 1.0, 4.0]
    assert evaluate(t, t, 0).r2 == pytest.approx(1.0, abs=1e-12)
    t_bar = sum(t) / len(t)
    assert evaluate(t, [t_bar] * len(t), 0).r2 == pytest.approx(0.0, abs=1e-12)


def test_r_squared_can_be_negative():
    # A constant prediction below the mean of skewed data explains less
    # variance than the mean itself.
    assert evaluate([1.0, 1.0, 1.0, 10.0], [0.0, 0.0, 0.0, 0.0], 0).r2 < 0.0


def test_r_squared_errors():
    with pytest.raises(DegenerateVarianceError):
        evaluate([4.0, 4.0], [1.0, 2.0], 0)
    with pytest.raises(ShapeError):
        evaluate([1.0], [1.0], 0)


def test_adjusted_r_squared_hand_value():
    assert adjusted_r_squared(0.9, 11, 4) == pytest.approx(1 - 0.1 * 10 / 6, abs=1e-12)


def test_adjusted_r_squared_is_a_penalty():
    rng = random.Random(41)
    for _ in range(50):
        r2 = rng.uniform(-1, 0.999)
        p = rng.randrange(1, 6)
        n = rng.randrange(p + 2, 100)
        assert adjusted_r_squared(r2, n, p) < r2


def test_adjusted_r_squared_sample_count():
    with pytest.raises(SampleCountError):
        adjusted_r_squared(0.5, 5, 4)


# -- extreme values -------------------------------------------------------

def test_extreme_value_report_hand_cases():
    report = evaluate([1, 2, 3], [3, 3, 3], 0)
    assert report.max_prediction_us == 3
    assert report.n_exceeding_max_prediction == 0
    assert report.max_abs_error_us == 2

    report = evaluate([1, 2, 10], [2, 2, 2], 0)
    assert report.n_exceeding_max_prediction == 1
    assert report.max_abs_error_us == 8


def test_extreme_value_exceeding_fraction_structure():
    # The exceedance count divided by n is the reported fraction.
    t = [float(i) for i in range(1, 101)]
    t_hat = [86.0] * 100
    report = evaluate(t, t_hat, 0)
    assert report.n_exceeding_max_prediction / len(t) == pytest.approx(0.14)


def test_extreme_value_shape_error():
    with pytest.raises(ShapeError):
        evaluate([1.0], [1.0, 2.0], 0)


# -- evaluate -------------------------------------------------------------

def _reference_report(t, t_hat, p):
    """EvalReport from its per-element definitions: fsum over v ** 2 and abs(v), and max."""
    n = len(t)
    d = [a - b for a, b in zip(t, t_hat)]
    mean = fsum(t) / n
    r2 = 1.0 - fsum(v**2 for v in d) / fsum((v - mean) ** 2 for v in t)
    mae_us = fsum(abs(v) for v in d) / n
    max_prediction_us = max(t_hat)
    return EvalReport(
        n=n,
        mae_us=mae_us,
        emr=mae_us / mean,
        r2=r2,
        adj_r2=1.0 - (1.0 - r2) * (n - 1) / (n - p - 1),
        max_abs_error_us=max(abs(v) for v in d),
        max_prediction_us=max_prediction_us,
        n_exceeding_max_prediction=sum(v > max_prediction_us for v in t),
        mean_observed_us=mean,
    )


def test_evaluate_matches_per_element_reference_bit_for_bit():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(6, 400)
        scale = 10.0 ** rng.randrange(-3, 12)
        t = [scale * rng.uniform(1.0, 1e6) for _ in range(n)]
        t_hat = [v + scale * rng.gauss(0, 1e4) for v in t]
        p = rng.randrange(0, 5)
        assert evaluate(t, t_hat, p) == _reference_report(t, t_hat, p)


# Each input breaks one check and every check after it, so the type raised
# pins the order in which evaluate runs them.
@pytest.mark.parametrize(
    "t, t_hat, p, error, message",
    [
        ([], [float("inf")], 4, ShapeError, "length mismatch"),
        ([], [], 4, ShapeError, "empty input"),
        ([-5.0], [float("inf")], 4, NumericalError, "not finite"),
        (
            [1.0, 2.0, 3.0],
            np.array([[0.0, 1.0], [np.nan, 3.0], [4.0, 5.0]]),
            1,
            NumericalError,
            "^1 of 6 predictions are not finite$",
        ),
        ([-5.0], [0.0], 4, ShapeError, "at least 2"),
        ([-5.0, -5.0], [0.0, 0.0], 4, DegenerateVarianceError, "constant"),
        ([-1.0, 1.0], [0.0, 0.0], 4, DegenerateDataError, "positive"),
        ([1.0, 2.0], [1.0, 2.0], 1, SampleCountError, "need n >"),
    ],
    ids=["length", "empty", "finite", "finite-2-d", "count", "constant", "mean", "predictors"],
)
def test_evaluate_check_order(t, t_hat, p, error, message):
    with pytest.raises(error, match=message) as excinfo:
        evaluate(t, t_hat, p)
    assert type(excinfo.value) is error


@pytest.mark.parametrize(
    "t, t_hat, p, error, message",
    [
        (["a", "b", "c"], [1, 2, 3], 1, IntegrityError, "^observed values must be real numbers, got dtype <U1$"),
        ([1.0, 2.0, 3.0], [1.0, None, 3.0], 1, IntegrityError, "^predictions must be real numbers, got dtype object$"),
        ([True, False, True], [1.0, 2.0, 3.0], 0, IntegrityError, "^observed values must be real numbers, got dtype b"),
        ([10**400, 2, 3], [1.0, 2.0, 3.0], 0, IntegrityError, "^observed values must be within float range$"),
        ([[1.0], [1.0, 2.0], [3.0]], [1.0, 2.0, 3.0], 1, ShapeError, "^observed values are not one array: "),
        (5.0, [5.0], 1, ShapeError, "^observed values must be a sequence, got 5.0$"),
        (
            np.arange(1.0, 7.0).reshape(3, 2),
            np.ones((3, 2)),
            1,
            ShapeError,
            r"^observed values and predictions must be one-dimensional, got shapes \(3, 2\) and \(3, 2\)$",
        ),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "1", IntegrityError, "^n_predictors must be an int >= 0, got '1'$"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], True, IntegrityError, "^n_predictors must be an int >= 0, got True$"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], -1, IntegrityError, "^n_predictors must be an int >= 0, got -1$"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 10**5000, SampleCountError, r"p=1(0){19}\.\.\.\(5001 digits\)\)$"),
        ([1.7e308, -1.7e308, 1e308], [0.0, 0.0, 0.0], 0, NumericalError, "not finite"),
    ],
    ids=["strings", "none", "bools", "beyond-float", "ragged", "scalar", "2-d", "p-str", "p-bool", "p-negative",
         "p-5001-digits", "deviation-overflow"],
)
def test_evaluate_refuses_what_is_not_one_series_of_numbers(t, t_hat, p, error, message):
    with pytest.raises(error, match=message) as excinfo:
        evaluate(t, t_hat, p)
    assert type(excinfo.value) is error
