from __future__ import annotations

import random

import numpy as np
import pytest

from joist import (
    Dataset,
    ModelKind,
    RankDeficiencyError,
    SampleCountError,
    UnsupportedKindError,
    ols_fit,
)
from joist.fit import design_matrix
from joist.models import PREDICTORS

from conftest import default_synth_spec, make_dataset, predict_block, rel_close, rows
from joist import generate_synthetic

# Ground truth for the hand-rolled exact datasets below.
_TRUE = {"joinsplit": 100, "output": 50, "transparent_in": 10, "spend": 200}
_TRUE_INTERCEPT = 5000


def _exact_joist_dataset(n_blocks=50, seed=3) -> Dataset:
    """Times generated exactly from integer ground-truth coefficients."""
    rng = random.Random(seed)
    rows = []
    for height in range(1, n_blocks + 1):
        n_js, n_out = rng.randrange(0, 6), rng.randrange(0, 21)
        n_in, n_spend = rng.randrange(0, 201), rng.randrange(0, 11)
        t = (
            _TRUE["joinsplit"] * n_js
            + _TRUE["output"] * n_out
            + _TRUE["transparent_in"] * n_in
            + _TRUE["spend"] * n_spend
            + _TRUE_INTERCEPT
        )
        rows.append((height, 1000 + 10 * n_in, n_in, 0, n_spend, n_out, n_js, t))
    return make_dataset(rows)


def _assert_recovers(model, coefficients, intercept, rtol):
    for name, truth in coefficients.items():
        assert rel_close(model.coefficients[name], truth, rtol), name
    assert rel_close(model.intercept_us, intercept, rtol)


def test_exact_recovery_on_synthetic_truth():
    result = ols_fit(ModelKind.JOIST, _exact_joist_dataset())
    _assert_recovers(result.model, _TRUE, _TRUE_INTERCEPT, 1e-6)
    assert result.n_samples == 50
    assert result.residual_sum_squares == pytest.approx(0.0, abs=1e-12)
    assert result.condition_warning is None


def test_two_points_determine_the_line():
    ds = make_dataset(
        [(1, 1000, 0, 0, 0, 0, 0, 2000), (2, 2000, 0, 0, 0, 0, 0, 3000)]
    )
    result = ols_fit(ModelKind.BLOCK_SIZE, ds)
    assert result.model.coefficients["byte"] == pytest.approx(1.0, abs=1e-9)
    assert result.model.intercept_us == pytest.approx(1000.0, abs=1e-9)


def test_constant_spend_column_is_named():
    rng = random.Random(10)
    rows = [
        (h, 500, rng.randrange(0, 9), 0, 0, rng.randrange(0, 9), rng.randrange(0, 9), rng.randrange(1, 9000))
        for h in range(1, 31)
    ]
    with pytest.raises(RankDeficiencyError, match="spend"):
        ols_fit(ModelKind.JOIST, make_dataset(rows))


def test_constant_size_column_is_named():
    rows = [(h, 700, h % 5, 0, 0, 0, 0, 100 + h) for h in range(1, 11)]
    with pytest.raises(RankDeficiencyError, match="byte"):
        ols_fit(ModelKind.BLOCK_SIZE, make_dataset(rows))


def test_collinear_predictors_are_detected():
    # n_output mirrors n_joinsplit on every block: rank deficiency past the
    # constant-column pre-check.
    rng = random.Random(4)
    rows = []
    for h in range(1, 41):
        n_js = rng.randrange(0, 7)
        rows.append((h, 500, rng.randrange(0, 50), 0, rng.randrange(0, 7), n_js, n_js, rng.randrange(1, 9000)))
    with pytest.raises(RankDeficiencyError, match="output"):
        ols_fit(ModelKind.JOIST, make_dataset(rows))


def test_too_few_samples():
    ds = _exact_joist_dataset(n_blocks=4)
    with pytest.raises(SampleCountError):
        ols_fit(ModelKind.JOIST, ds)


def test_fixed_rate_is_not_fittable():
    with pytest.raises(UnsupportedKindError):
        ols_fit(ModelKind.FIXED_RATE, _exact_joist_dataset())


def test_residual_orthogonality():
    spec = default_synth_spec(noise_sigma_us=3000.0, n_blocks=2000, seed=9)
    train = generate_synthetic(spec)
    result = ols_fit(ModelKind.JOIST, train)
    x, y = design_matrix(ModelKind.JOIST, train)
    beta = np.array(
        [result.model.coefficients[n] for n in PREDICTORS[ModelKind.JOIST]]
        + [result.model.intercept_us]
    )
    residual = y - x @ beta
    t_norm = float(np.linalg.norm(y))
    for j in range(x.shape[1]):
        column = x[:, j]
        bound = 1e-6 * t_norm * float(np.linalg.norm(column))
        assert abs(float(residual @ column)) <= bound


def test_refit_on_own_predictions_reproduces_coefficients():
    spec = default_synth_spec(noise_sigma_us=2000.0, n_blocks=500, seed=21)
    train = generate_synthetic(spec)
    first = ols_fit(ModelKind.JOIST, train).model
    refit_rows = [(*row[:-1], predict_block(first, *row[:-1])) for row in rows(train)]
    second = ols_fit(ModelKind.JOIST, make_dataset(refit_rows)).model
    for name in PREDICTORS[ModelKind.JOIST]:
        assert rel_close(second.coefficients[name], first.coefficients[name], 1e-9)
    assert rel_close(second.intercept_us, first.intercept_us, 1e-9)


def test_fit_is_permutation_invariant_over_rows():
    base = _exact_joist_dataset(n_blocks=60, seed=6)
    # Same rows, heights reassigned so the height-sorted row order reverses.
    permuted = make_dataset([(len(base) - i, *row[1:]) for i, row in enumerate(rows(base))])
    a = ols_fit(ModelKind.JOIST, base).model
    b = ols_fit(ModelKind.JOIST, permuted).model
    for name in PREDICTORS[ModelKind.JOIST]:
        assert rel_close(a.coefficients[name], b.coefficients[name], 1e-9)
    assert rel_close(a.intercept_us, b.intercept_us, 1e-9)


def test_noisy_recovery_within_five_standard_errors():
    # The residual-based standard errors already absorb the whole-microsecond
    # rounding on top of the sigma=1 noise.
    spec = default_synth_spec(noise_sigma_us=1.0, n_blocks=10000, seed=1234)
    train = generate_synthetic(spec)
    result = ols_fit(ModelKind.JOIST, train)
    ses = result.standard_errors
    truth = dict(spec.true_model.coefficients, intercept=spec.true_model.intercept_us)
    fitted = dict(result.model.coefficients, intercept=result.model.intercept_us)
    for name, true_value in truth.items():
        assert abs(fitted[name] - true_value) <= 5 * ses[name], name


def test_condition_warning_on_nearly_constant_sizes():
    rows = [(h, 1_000_000_000 + 100_000 * h, 0, 0, 0, 0, 0, h + 1) for h in range(1, 11)]
    result = ols_fit(ModelKind.BLOCK_SIZE, make_dataset(rows))
    assert result.condition_warning is not None


def test_standard_errors_vanish_on_exact_data():
    train = _exact_joist_dataset()
    result = ols_fit(ModelKind.JOIST, train)
    for se in result.standard_errors.values():
        assert se == pytest.approx(0.0, abs=1e-9)


def test_standard_errors_need_spare_samples():
    ds = _exact_joist_dataset(n_blocks=5)
    result = ols_fit(ModelKind.JOIST, ds)
    assert result.standard_errors is None


def _reference_standard_errors(result, train):
    """The residual-based standard errors from a fresh QR of *train*'s design matrix."""
    names = PREDICTORS[result.model.kind]
    p = len(names)
    n = result.n_samples
    x, _ = design_matrix(result.model.kind, train)
    sigma2 = result.residual_sum_squares / (n - p - 1)
    _, r = np.linalg.qr(x, mode="reduced")
    r_inv = np.linalg.inv(r)
    cov = sigma2 * (r_inv @ r_inv.T)
    ses = np.sqrt(np.diag(cov))
    return {**{name: float(se) for name, se in zip(names, ses[:p])}, "intercept": float(ses[p])}


@pytest.mark.parametrize("kind", [ModelKind.JOIST, ModelKind.BLOCK_SIZE])
@pytest.mark.parametrize("n_blocks", [6, 7, 50, 3000])
@pytest.mark.parametrize("noise, seed", [(0.0, 1), (1.0, 2), (6.0, 3)])
def test_standard_errors_equal_a_fresh_qr(kind, n_blocks, noise, seed):
    train = generate_synthetic(default_synth_spec(noise_sigma_us=noise, n_blocks=n_blocks, seed=seed))
    result = ols_fit(kind, train)
    assert repr(result.standard_errors) == repr(_reference_standard_errors(result, train))
