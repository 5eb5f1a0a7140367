"""Column operations against the per-row loops they replaced.

Each reference below is the row-at-a-time definition, kept here verbatim in
spirit. The arithmetic per element is unchanged, so results must be equal,
not merely close.
"""

from __future__ import annotations

import random
from math import fsum, sqrt

import numpy as np
import pytest

from joist import (
    Dataset,
    DegenerateVarianceError,
    ModelKind,
    ModelSpec,
    SplitPlan,
    composition_analysis,
    correlation_table,
    evaluate,
    generate_synthetic,
    predict,
    split,
)
from joist.experiment import CORRELATION_FEATURES
from joist.features import COLUMNS, FEATURE_COLUMNS
from joist.fit import design_matrix
from joist.models import PREDICTORS
from joist.rng import SplitMix64, shuffled_indices
from joist.stats import centred, correlation

from conftest import (
    REFERENCE_BLOCK_SIZE,
    REFERENCE_JOIST,
    default_synth_spec,
    make_dataset,
    next_gaussian,
    next_int,
    predictor_vector,
    rows,
)

_SYNTH_BYTES = {"joinsplit": 1802, "output": 948, "transparent_in": 150, "spend": 384}


def _reference_synthetic(spec) -> list[tuple]:
    """generate_synthetic's rows, one block and eight scalar draws at a time."""
    names = PREDICTORS[ModelKind.JOIST]
    coeffs = spec.true_model.coefficients
    rng = SplitMix64(spec.seed)
    table = []
    for height in range(1, spec.n_blocks + 1):
        counts = {name: next_int(rng, *spec.count_ranges[name]) for name in names}
        exact = spec.true_model.intercept_us + sum(coeffs[n] * counts[n] for n in names)
        time_noise = next_gaussian(rng) * spec.noise_sigma_us
        affine_size = 1000 + sum(_SYNTH_BYTES[n] * counts[n] for n in names)
        size_noise = next_gaussian(rng) * 0.05 * affine_size
        table.append(
            (
                height,
                max(1, round(affine_size + size_noise)),
                counts["transparent_in"],
                counts["transparent_in"] + 1,
                counts["spend"],
                counts["output"],
                counts["joinsplit"],
                max(1, round(exact + time_noise)),
            )
        )
    return table


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_blocks=3000, noise_sigma_us=2000.0, seed=7),
        dict(n_blocks=500, noise_sigma_us=0.0, seed=0),
        dict(n_blocks=500, noise_sigma_us=1e5, seed=(1 << 64) - 1),
        dict(
            n_blocks=400,
            noise_sigma_us=3.5,
            seed=123,
            true_model=ModelSpec(
                ModelKind.JOIST,
                {"joinsplit": 5359.094, "output": -5726.675, "transparent_in": 61.411, "spend": 16912.591},
                4468.949,
            ),
            count_ranges={"joinsplit": (0, 0), "output": (3, 9), "transparent_in": (7, 10**6), "spend": (1, 2)},
        ),
    ],
)
def test_generate_synthetic_matches_the_per_row_loop(overrides):
    spec = default_synth_spec(**overrides)
    assert rows(generate_synthetic(spec)) == _reference_synthetic(spec)


@pytest.fixture(scope="module")
def noisy() -> Dataset:
    return generate_synthetic(default_synth_spec(n_blocks=2000, noise_sigma_us=2500.0, seed=3))


def predict_row(model, row) -> float:
    """One row's prediction: ``c * float(x)`` in predictor order, intercept last."""
    block = dict(zip(COLUMNS, row))
    total = 0.0
    for name in PREDICTORS[model.kind]:
        total = total + model.coefficients[name] * float(block[FEATURE_COLUMNS[name]])
    return total + model.intercept_us


@pytest.mark.parametrize("model", [*REFERENCE_JOIST.values(), *REFERENCE_BLOCK_SIZE.values()])
def test_predict_on_a_dataset_matches_per_block_predict(noisy, model):
    column = predict(model, noisy)
    assert column.dtype == np.float64
    assert column.tolist() == [predict_row(model, row) for row in rows(noisy)]


@pytest.mark.parametrize("kind", [ModelKind.JOIST, ModelKind.BLOCK_SIZE])
def test_design_matrix_matches_per_row_predictor_vectors(noisy, kind):
    x, y = design_matrix(kind, noisy)
    vectors = [predictor_vector(kind, dict(zip(COLUMNS, row))) + [1.0] for row in rows(noisy)]
    assert np.array_equal(x, np.array(vectors, dtype=np.float64))
    assert y.tolist() == [float(row[-1]) for row in rows(noisy)]


def test_split_matches_per_row_selection(noisy):
    plan = SplitPlan(seed=17, n_fit=700, n_predict=1300)
    order = shuffled_indices(len(noisy), SplitMix64(plan.seed))
    all_rows = rows(noisy)
    fit_set, predict_set = split(noisy, plan)
    assert fit_set == make_dataset([all_rows[i] for i in sorted(order[: plan.n_fit])])
    assert predict_set == make_dataset([all_rows[i] for i in sorted(order[plan.n_fit :])])


def test_composition_matches_per_block_division():
    rng = random.Random(5)
    table = [(h, 100, rng.randrange(4), 0, rng.randrange(3), rng.randrange(3), rng.randrange(2), 10) for h in range(1, 300)]
    report = composition_analysis(make_dataset(table))
    expected = []
    for h, _, n_in, _, n_spend, n_output, n_js, _ in table:
        denom = n_in + n_spend + n_output + n_js
        if denom:
            expected.append((h, n_in / denom, (n_spend + n_output) / denom, n_js / denom))
    columns = (report.heights, report.transparent_in, report.spend_output, report.joinsplit)
    assert list(zip(*(c.tolist() for c in columns))) == expected
    assert report.n_excluded == len(table) - len(expected)
    assert report.mean_transparent_in == fsum(e[1] for e in expected) / len(expected)
    assert report.mean_joinsplit == fsum(e[3] for e in expected) / len(expected)


def _reference_pearson(x, t):
    n = len(x)
    x_mean, t_mean = fsum(x) / n, fsum(t) / n
    sxx = fsum((xi - x_mean) ** 2 for xi in x)
    stt = fsum((ti - t_mean) ** 2 for ti in t)
    sxt = fsum((xi - x_mean) * (ti - t_mean) for xi, ti in zip(x, t))
    return sxt / (sqrt(sxx) * sqrt(stt))


def test_statistics_match_the_per_element_formulas(noisy):
    t = [float(v) for v in noisy.verify_time_us.tolist()]
    for name, r in correlation_table(noisy).items():
        x = [float(v) for v in getattr(noisy, "n_" + name).tolist()]
        assert r == _reference_pearson(x, t)
    t_hat = [predict_row(REFERENCE_JOIST["ssd_5k"], row) for row in rows(noisy)]
    t_mean = fsum(t) / len(t)
    ss_res = fsum((ti - hi) ** 2 for ti, hi in zip(t, t_hat))
    ss_tot = fsum((ti - t_mean) ** 2 for ti in t)
    assert evaluate(t, t_hat, 4).r2 == 1.0 - ss_res / ss_tot
    assert correlation(centred(noisy.n_joinsplit), centred(noisy.verify_time_us)) == _reference_pearson(
        [float(v) for v in noisy.n_joinsplit.tolist()], t
    )


def _per_feature_pearson(ds):
    table = {}
    for name in CORRELATION_FEATURES:
        try:
            table[name] = correlation(centred(getattr(ds, FEATURE_COLUMNS[name])), centred(ds.verify_time_us))
        except DegenerateVarianceError:
            table[name] = None
    return table


def test_correlation_table_matches_per_feature_pearson_r(noisy):
    constant_spend = make_dataset(
        [(h, 100 + h, h % 7, 1 + h % 4, 2, h % 3, h % 2, 50 + 13 * h + h % 5) for h in range(1, 60)]
    )
    constant_time = make_dataset([(h, 100 + h, h % 7, 1 + h % 4, h % 5, h % 3, h % 2, 77) for h in range(1, 60)])
    for ds in (noisy, constant_spend, constant_time):
        assert correlation_table(ds) == _per_feature_pearson(ds)
    assert all(r is not None for r in correlation_table(noisy).values())
    assert correlation_table(constant_spend)["spend"] is None
    assert correlation_table(constant_spend)["transparent_in"] is not None
    assert set(correlation_table(constant_time).values()) == {None}
