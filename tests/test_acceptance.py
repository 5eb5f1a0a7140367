"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else. The real-data golden check is
skipped, not failed, when no converted benchmark dataset is configured via
the JOIST_REAL_DATA environment variable.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from joist import (
    GERVAIS_BASELINE,
    Dataset,
    ModelKind,
    ModelSpec,
    SplitPlan,
    SynthSpec,
    adjusted_r_squared,
    composition_analysis,
    correlation_table,
    evaluate,
    generate_synthetic,
    ols_fit,
    read_dataset,
    run_comparison,
    split,
    write_dataset,
)
from joist.fit import design_matrix
from joist.models import PREDICTORS
from joist.stats import centred, correlation

from conftest import (
    EXPECTED_BLOCK_SIZE_2000B,
    EXPECTED_JOIST_1234,
    REFERENCE_BLOCK_SIZE,
    REFERENCE_JOIST,
    naive_adjusted_r_squared,
    naive_emr,
    naive_mae,
    naive_pearson,
    naive_r_squared,
    predict_block,
    rel_close,
    rows,
)

_COUNT_RANGES = {
    "joinsplit": (0, 5),
    "output": (0, 20),
    "transparent_in": (0, 200),
    "spend": (0, 10),
}

# Integer-microsecond ground truth: exact values survive the whole-microsecond
# rounding in the generator, so zero-noise recovery is exact.
_EXACT_TRUTH = ModelSpec(
    ModelKind.JOIST,
    {"joinsplit": 5359.0, "output": 5727.0, "transparent_in": 61.0, "spend": 16913.0},
    4469.0,
)

_NOISY_TRUTH = REFERENCE_JOIST["ssd_5k"]


def _criterion(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = f" (failed: {', '.join(failed)})" if failed else ""
    print(f"[acceptance] criterion {number} {status}: {label}{suffix}")
    assert not failed, f"criterion {number} failed: {failed}"


@pytest.fixture(scope="module")
def noisy_15k() -> Dataset:
    spec = SynthSpec(
        true_model=_NOISY_TRUTH,
        noise_sigma_us=2000.0,
        count_ranges=_COUNT_RANGES,
        n_blocks=15000,
        seed=7,
    )
    return generate_synthetic(spec)


def test_criterion_1_fixed_rate_baseline_consistency():
    prediction = predict_block(GERVAIS_BASELINE, size_bytes=458_263)
    _criterion(
        1,
        "byte-rate baseline reproduces the published mean validation time",
        [
            ("exact product", abs(prediction - 173_956.6348) <= 1e-6),
            ("within 0.5 ms of 0.174 s", abs(prediction - 174_000.0) <= 500.0),
        ],
    )


def test_criterion_2_reference_parameter_golden_predictions():
    block_1234 = dict(
        size_bytes=2000, n_joinsplit=1, n_output=2, n_transparent_in=3, n_spend=4
    )
    checks = []
    for label, model in REFERENCE_JOIST.items():
        got = predict_block(model, **block_1234)
        checks.append((f"joist {label}", abs(got - EXPECTED_JOIST_1234[label]) <= 1e-6))
    for label, model in REFERENCE_BLOCK_SIZE.items():
        got = predict_block(model, **block_1234)
        checks.append((f"block_size {label}", abs(got - EXPECTED_BLOCK_SIZE_2000B[label]) <= 1e-6))
    # Intercept-only case: a block with no countable components.
    zero = predict_block(REFERENCE_JOIST["ssd_5k"], size_bytes=100)
    checks.append(("zero-count intercept", abs(zero - 4468.949) <= 1e-6))
    _criterion(2, "reference parameter sets reproduce hand-derived predictions", checks)


def test_criterion_3_ols_exact_recovery():
    spec = SynthSpec(
        true_model=_EXACT_TRUTH,
        noise_sigma_us=0.0,
        count_ranges=_COUNT_RANGES,
        n_blocks=1000,
        seed=42,
    )
    ds = generate_synthetic(spec)
    result = ols_fit(ModelKind.JOIST, ds)
    checks = []
    for name, truth in _EXACT_TRUTH.coefficients.items():
        checks.append((name, rel_close(result.model.coefficients[name], truth, 1e-6)))
    checks.append(("intercept", rel_close(result.model.intercept_us, _EXACT_TRUTH.intercept_us, 1e-6)))

    x, y = design_matrix(ModelKind.JOIST, ds)
    beta = np.array(
        [result.model.coefficients[n] for n in PREDICTORS[ModelKind.JOIST]]
        + [result.model.intercept_us]
    )
    residual = y - x @ beta
    t_norm = float(np.linalg.norm(y))
    for j in range(x.shape[1]):
        column = x[:, j]
        bound = 1e-6 * t_norm * float(np.linalg.norm(column))
        checks.append((f"orthogonality col {j}", abs(float(residual @ column)) <= bound))
    _criterion(3, "zero-noise synthetic fit recovers ground truth exactly", checks)


def test_criterion_4_ols_statistical_recovery(noisy_15k):
    plan = SplitPlan(seed=7, n_fit=5000)
    fit_set, predict_set = split(noisy_15k, plan)
    result = ols_fit(ModelKind.JOIST, fit_set)
    ses = result.standard_errors
    truth = dict(_NOISY_TRUTH.coefficients, intercept=_NOISY_TRUTH.intercept_us)
    fitted = dict(result.model.coefficients, intercept=result.model.intercept_us)
    checks = [
        (f"{name} within 5 SE", abs(fitted[name] - value) <= 5 * ses[name])
        for name, value in truth.items()
    ]
    t = [float(v) for v in predict_set.verify_time_us.tolist()]
    t_hat = [predict_block(result.model, *row[:-1]) for row in rows(predict_set)]
    checks.append(("predict-set R2 >= 0.8", evaluate(t, t_hat, 4).r2 >= 0.8))
    _criterion(4, "noisy 5k/10k split recovers coefficients and predicts well", checks)


def test_criterion_5_methodology_ordering(noisy_15k):
    plan = SplitPlan(seed=7, n_fit=5000)
    rows = run_comparison(
        noisy_15k,
        plan,
        kinds=(ModelKind.JOIST, ModelKind.BLOCK_SIZE),
        baselines=(GERVAIS_BASELINE,),
    )
    reports = {row.model_kind: row.report for row in rows}
    joist_report = reports[ModelKind.JOIST]
    checks = []
    for kind in (ModelKind.BLOCK_SIZE, ModelKind.FIXED_RATE):
        other = reports[kind]
        checks.append((f"MAE beats {kind.value}", joist_report.mae_us < other.mae_us))
        checks.append((f"EMR beats {kind.value}", joist_report.emr < other.emr))
        checks.append((f"R2 beats {kind.value}", joist_report.r2 > other.r2))
    for kind, report in reports.items():
        checks.append(
            (f"adj R2 close for {kind.value}", abs(report.adj_r2 - report.r2) <= 0.01)
        )
        checks.append((f"n = 10000 for {kind.value}", report.n == 10000))
    _criterion(5, "feature model strictly dominates byte-rate models", checks)


def test_criterion_6_statistics_oracle_suite():
    rng = random.Random(202406)
    checks = []
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(2, 1001)
        t = [rng.uniform(1.0, 1e6) for _ in range(n)]
        t_hat = [v + rng.gauss(0.0, 2e4) for v in t]
        report = evaluate(t, t_hat, 0)
        pairs = [
            (correlation(centred(t), centred(t_hat)), naive_pearson(t, t_hat)),
            (report.mae_us, naive_mae(t, t_hat)),
            (report.emr, naive_emr(t, t_hat)),
            (report.r2, naive_r_squared(t, t_hat)),
        ]
        p = rng.randrange(1, 5)
        if n > p + 1:
            r2 = report.r2
            pairs.append((adjusted_r_squared(r2, n, p), naive_adjusted_r_squared(r2, n, p)))
        for got, expected in pairs:
            worst = max(worst, abs(got - expected) / max(abs(got), abs(expected), 1e-300))
    checks.append(("oracle agreement within 1e-9", worst <= 1e-9))

    x = centred([1, 2, 3])
    checks.append(("r = +1", abs(correlation(x, centred([2, 4, 6])) - 1.0) <= 1e-12))
    checks.append(("r = -1", abs(correlation(x, centred([3, 2, 1])) + 1.0) <= 1e-12))
    t = [3.0, 9.0, 1.0, 4.0]
    checks.append(("MAE = 0", evaluate(t, t, 0).mae_us == 0.0))
    checks.append(("R2 = 1", abs(evaluate(t, t, 0).r2 - 1.0) <= 1e-12))
    t_bar = sum(t) / len(t)
    checks.append(("R2 = 0", abs(evaluate(t, [t_bar] * 4, 0).r2) <= 1e-12))
    adj = adjusted_r_squared(0.9, 11, 4)
    checks.append(("adjusted formula", abs(adj - (1.0 - 0.1 * 10 / 6)) <= 1e-12))
    checks.append(("adjusted value", abs(adj - 0.83333) <= 1e-5))
    _criterion(6, "statistics match an independent naive oracle", checks)


def test_criterion_7_determinism_and_round_trip(tmp_path):
    spec = SynthSpec(
        true_model=_EXACT_TRUTH,
        noise_sigma_us=1500.0,
        count_ranges=_COUNT_RANGES,
        n_blocks=10000,
        seed=11,
    )
    checks = []

    ds_a = generate_synthetic(spec)
    ds_b = generate_synthetic(spec)
    path_a, path_b = tmp_path / "synth_a.csv", tmp_path / "synth_b.csv"
    write_dataset(ds_a, path_a)
    write_dataset(ds_b, path_b)
    checks.append(("synthetic files byte-identical", path_a.read_bytes() == path_b.read_bytes()))

    plan = SplitPlan(seed=5, n_fit=2000)
    fit_a, _ = split(ds_a, plan)
    fit_b, _ = split(ds_b, plan)
    split_a, split_b = tmp_path / "split_a.csv", tmp_path / "split_b.csv"
    write_dataset(fit_a, split_a)
    write_dataset(fit_b, split_b)
    checks.append(("split files byte-identical", split_a.read_bytes() == split_b.read_bytes()))

    checks.append(("10k-row round trip identity", read_dataset(path_a) == ds_a))
    _criterion(7, "seeded pipelines are byte-reproducible and files round-trip", checks)


# Published real-data reference values: correlation per feature and mean
# composition shares, reproducible only with the authors' measured dataset.
_REAL_CORRELATIONS = {
    "joinsplit": 0.60,
    "output": 0.53,
    "spend": 0.38,
    "transparent_in": 0.11,
    "transparent_out": 0.04,
}
_REAL_COMPOSITION = (0.90, 0.09, 0.01)


def test_criterion_8_real_data_goldens():
    path = os.environ.get("JOIST_REAL_DATA")
    if not path:
        print(
            "[acceptance] criterion 8 SKIP: converted benchmark dataset not "
            "present (set JOIST_REAL_DATA to its CSV path)"
        )
        pytest.skip("real benchmark data not configured")
    ds = read_dataset(path)
    table = correlation_table(ds)
    checks = []
    for name, expected in _REAL_CORRELATIONS.items():
        r = table[name]
        checks.append((f"r({name}) within 0.05", r is not None and abs(r - expected) <= 0.05))
    ordering = ["joinsplit", "output", "spend", "transparent_in", "transparent_out"]
    values = [table[name] for name in ordering]
    checks.append(
        ("ordering", all(a is not None and b is not None and a > b for a, b in zip(values, values[1:])))
    )
    report = composition_analysis(ds)
    means = (report.mean_transparent_in, report.mean_spend_output, report.mean_joinsplit)
    for got, expected, label in zip(means, _REAL_COMPOSITION, ("inputs", "spend+output", "joinsplit")):
        checks.append((f"composition {label} within 3 points", abs(got - expected) <= 0.03))
    _criterion(8, "real benchmark data reproduces published correlations and shares", checks)
