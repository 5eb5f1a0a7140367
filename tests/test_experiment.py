from __future__ import annotations

import json

import pytest

from joist import (
    GERVAIS_BASELINE,
    IntegrityError,
    ModelKind,
    ModelSpec,
    RankDeficiencyError,
    ShapeError,
    SplitPlan,
    SynthSpec,
    SynthSpecError,
    composition_analysis,
    correlation_table,
    emit_plot_data,
    generate_synthetic,
    run_comparison,
    split,
    write_dataset,
)
from joist.experiment import COMPARISON_CSV_HEADER, comparison_csv_lines
from joist.rng import SplitMix64

from conftest import default_synth_spec, make_dataset, next_int


# -- split -----------------------------------------------------------------

@pytest.fixture(scope="module")
def ds_15k():
    return generate_synthetic(default_synth_spec(noise_sigma_us=2000.0, n_blocks=15000, seed=7))


def test_split_partitions_exactly(ds_15k):
    plan = SplitPlan(seed=1, n_fit=5000, n_predict=10000)
    fit_set, predict_set = split(ds_15k, plan)
    assert len(fit_set) == 5000 and len(predict_set) == 10000
    fit_heights = set(fit_set.height.tolist())
    predict_heights = set(predict_set.height.tolist())
    assert fit_heights.isdisjoint(predict_heights)
    assert fit_heights | predict_heights == set(ds_15k.height.tolist())
    assert fit_set.height.tolist() == sorted(fit_heights)
    assert predict_set.height.tolist() == sorted(predict_heights)


def test_split_is_deterministic(ds_15k):
    plan = SplitPlan(seed=1, n_fit=5000, n_predict=10000)
    first = split(ds_15k, plan)
    second = split(ds_15k, plan)
    assert first == second


def test_split_seed_changes_partition(ds_15k):
    fit_a, _ = split(ds_15k, SplitPlan(seed=1, n_fit=5000, n_predict=10000))
    fit_b, _ = split(ds_15k, SplitPlan(seed=2, n_fit=5000, n_predict=10000))
    assert fit_a.height.tolist() != fit_b.height.tolist()


def test_split_size_mismatch_is_shape_error(ds_15k):
    with pytest.raises(ShapeError):
        split(ds_15k, SplitPlan(seed=1, n_fit=5000, n_predict=9999))


def test_split_plan_invariants():
    with pytest.raises(IntegrityError):
        SplitPlan(seed=1, n_fit=0, n_predict=10)
    with pytest.raises(IntegrityError):
        SplitPlan(seed=-1, n_fit=1, n_predict=1)
    with pytest.raises(IntegrityError):
        SplitPlan(seed=1 << 64, n_fit=1, n_predict=1)


# -- run_comparison -----------------------------------------------------------

def test_comparison_on_exact_data_makes_joist_perfect():
    ds = generate_synthetic(default_synth_spec(n_blocks=3000, seed=5))
    plan = SplitPlan(seed=11, n_fit=1000, n_predict=2000)
    rows = run_comparison(ds, plan, kinds=(ModelKind.JOIST, ModelKind.BLOCK_SIZE))
    by_kind = {row.model_kind: row.report for row in rows}
    joist_report = by_kind[ModelKind.JOIST]
    size_report = by_kind[ModelKind.BLOCK_SIZE]
    assert joist_report.mae_us <= 1e-6 * joist_report.mean_observed_us
    assert joist_report.r2 >= 1 - 1e-9
    assert joist_report.n == 2000
    assert joist_report.mae_us < size_report.mae_us
    assert joist_report.emr < size_report.emr
    assert joist_report.r2 > size_report.r2


def test_comparison_ranks_joist_above_size_models(ds_15k):
    plan = SplitPlan(seed=3, n_fit=5000, n_predict=10000)
    rows = run_comparison(
        ds_15k,
        plan,
        kinds=(ModelKind.JOIST, ModelKind.BLOCK_SIZE),
        baselines=(GERVAIS_BASELINE,),
    )
    assert [row.model_kind for row in rows] == [
        ModelKind.JOIST,
        ModelKind.BLOCK_SIZE,
        ModelKind.FIXED_RATE,
    ]
    joist_report, size_report, gervais_report = (row.report for row in rows)
    for other in (size_report, gervais_report):
        assert joist_report.mae_us < other.mae_us
        assert joist_report.emr < other.emr
        assert joist_report.r2 > other.r2


def test_comparison_baseline_only_runs_without_fitting():
    ds = make_dataset(
        [(h, 100 * h, h % 3, 0, 0, 0, 0, 40 * h + 5) for h in range(1, 11)]
    )
    rows = run_comparison(ds, SplitPlan(seed=1, n_fit=5, n_predict=5), baselines=(GERVAIS_BASELINE,))
    assert len(rows) == 1
    assert rows[0].model_kind is ModelKind.FIXED_RATE
    assert rows[0].split_label == "5/5"


def test_comparison_csv_shape(ds_15k):
    plan = SplitPlan(seed=3, n_fit=5000, n_predict=10000)
    rows = run_comparison(ds_15k, plan, kinds=(ModelKind.JOIST,))
    lines = comparison_csv_lines(rows)
    assert lines[0] == COMPARISON_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "joist"
    assert fields[1] == "5000/10000"
    assert int(fields[2]) == 10000
    assert len(fields) == len(COMPARISON_CSV_HEADER.split(","))


# -- correlation table ---------------------------------------------------------

def test_correlation_table_identifies_the_driving_feature():
    rng = SplitMix64(31337)
    rows = []
    for height in range(1, 501):
        n_js = next_int(rng, 0, 9)
        size_bytes = next_int(rng, 200, 5000)
        n_in, n_out, n_spend, n_output = (next_int(rng, 0, hi) for hi in (50, 50, 8, 8))
        rows.append((height, size_bytes, n_in, n_out, n_spend, n_output, n_js, 10 * n_js + 1))
    table = correlation_table(make_dataset(rows))
    assert table["joinsplit"] == pytest.approx(1.0, abs=1e-12)
    for name in ("transparent_in", "transparent_out", "spend", "output"):
        assert abs(table[name]) < 0.2


def test_correlation_table_flags_constant_columns():
    ds = make_dataset(
        [(h, 100 + h, h % 5, 1 + h % 4, 0, h % 3, h % 2, 50 + 13 * h) for h in range(1, 41)]
    )
    table = correlation_table(ds)
    assert table["spend"] is None
    assert table["transparent_in"] is not None
    assert list(table) == ["transparent_in", "transparent_out", "spend", "output", "joinsplit"]


# -- composition -----------------------------------------------------------------

def test_composition_hand_case():
    ds = make_dataset([(1, 100, 9, 0, 1, 0, 0, 10)])
    report = composition_analysis(ds)
    shares = (report.transparent_in, report.spend_output, report.joinsplit)
    assert [share.tolist() for share in shares] == [[0.9], [0.1], [0.0]]
    assert report.n_excluded == 0
    assert report.mean_transparent_in == pytest.approx(0.9)


def test_composition_excludes_coinbase_only_blocks():
    ds = make_dataset(
        [
            (1, 100, 0, 2, 0, 0, 0, 10),
            (2, 100, 3, 0, 0, 1, 0, 10),
        ]
    )
    report = composition_analysis(ds)
    assert report.n_excluded == 1
    assert report.heights.tolist() == [2]
    assert len(report.transparent_in) == len(report.spend_output) == len(report.joinsplit) == 1


def test_composition_all_excluded_has_no_means():
    ds = make_dataset([(1, 100, 0, 2, 0, 0, 0, 10)])
    report = composition_analysis(ds)
    assert report.heights.tolist() == []
    assert [len(c) for c in (report.transparent_in, report.spend_output, report.joinsplit)] == [0, 0, 0]
    assert report.mean_transparent_in is None
    assert report.n_excluded == 1


def test_composition_ratios_sum_to_one():
    ds = generate_synthetic(default_synth_spec(n_blocks=300, seed=8))
    report = composition_analysis(ds)
    for total in (report.transparent_in + report.spend_output + report.joinsplit).tolist():
        assert total == pytest.approx(1.0, abs=1e-12)
    assert (
        report.mean_transparent_in + report.mean_spend_output + report.mean_joinsplit
    ) == pytest.approx(1.0, abs=1e-12)


# -- synthetic generation -----------------------------------------------------------

def test_synthetic_is_deterministic(tmp_path):
    spec = default_synth_spec(noise_sigma_us=500.0, n_blocks=200, seed=77)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a == b
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(a, path_a)
    write_dataset(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_synthetic_seed_changes_data():
    a = generate_synthetic(default_synth_spec(noise_sigma_us=500.0, seed=1))
    b = generate_synthetic(default_synth_spec(noise_sigma_us=500.0, seed=2))
    assert a != b


def test_synthetic_zero_ranges_reduce_to_rounded_intercept():
    spec = default_synth_spec(
        true_model=ModelSpec(
            ModelKind.JOIST,
            {"joinsplit": 5359.094, "output": 5726.675, "transparent_in": 61.411, "spend": 16912.591},
            4468.949,
        ),
        count_ranges={"joinsplit": (0, 0), "output": (0, 0), "transparent_in": (0, 0), "spend": (0, 0)},
        n_blocks=25,
    )
    ds = generate_synthetic(spec)
    assert ds.verify_time_us.tolist() == [4469] * 25
    assert ds.height.tolist() == list(range(1, 26))


def test_synthetic_counts_respect_ranges():
    ds = generate_synthetic(default_synth_spec(n_blocks=500, seed=13))
    for name, hi in (("n_joinsplit", 5), ("n_output", 20), ("n_transparent_in", 200), ("n_spend", 10)):
        assert all(0 <= v <= hi for v in getattr(ds, name).tolist()), name
    assert ds.size_bytes.min() >= 1


def test_synthetic_rejects_impossible_time_recipes():
    negative = ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": -1.0, "output": -1.0, "transparent_in": -1.0, "spend": -1.0},
        -5.0,
    )
    with pytest.raises(SynthSpecError):
        generate_synthetic(default_synth_spec(true_model=negative))


def test_synth_spec_invariants():
    with pytest.raises(SynthSpecError):
        default_synth_spec(n_blocks=0)
    with pytest.raises(SynthSpecError):
        default_synth_spec(noise_sigma_us=-1.0)
    with pytest.raises(SynthSpecError):
        default_synth_spec(count_ranges={"joinsplit": (0, 5)})
    with pytest.raises(SynthSpecError):
        default_synth_spec(
            count_ranges={
                "joinsplit": (5, 0),
                "output": (0, 1),
                "transparent_in": (0, 1),
                "spend": (0, 1),
            }
        )
    with pytest.raises(SynthSpecError):
        default_synth_spec(true_model=GERVAIS_BASELINE)


def test_synthetic_end_to_end_exact_identity():
    from joist import ols_fit

    truth = ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 100.0, "output": 50.0, "transparent_in": 10.0, "spend": 200.0},
        5000.0,
    )
    ds = generate_synthetic(default_synth_spec(true_model=truth, seed=42))
    model = ols_fit(ModelKind.JOIST, ds).model
    for name, value in truth.coefficients.items():
        assert model.coefficients[name] == pytest.approx(value, rel=1e-6)
    assert model.intercept_us == pytest.approx(truth.intercept_us, rel=1e-6)


# -- plot data -----------------------------------------------------------------

def test_plot_data_perfect_model(tmp_path):
    truth = ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 100.0, "output": 50.0, "transparent_in": 10.0, "spend": 200.0},
        5000.0,
    )
    ds = generate_synthetic(default_synth_spec(true_model=truth, n_blocks=50, seed=3))
    out = tmp_path / "plot.csv"
    emit_plot_data(ds, truth, out)
    line = json.loads((tmp_path / "plot.csv.line.json").read_text())
    assert line["slope"] == pytest.approx(1.0, abs=1e-9)
    assert line["intercept_us"] == pytest.approx(0.0, abs=1e-9)
    rows = out.read_text().splitlines()
    assert rows[0] == "height,measured_us,predicted_us"
    assert len(rows) == 51


def test_plot_data_hand_derived_line(tmp_path):
    # Sizes (1, 2, 4) with a 1 us/B rate predict (1, 2, 4); measured (2, 3, 8)
    # give slope 29/14 and intercept -1/2 by hand.
    ds = make_dataset(
        [(1, 1, 0, 0, 0, 0, 0, 2), (2, 2, 0, 0, 0, 0, 0, 3), (3, 4, 0, 0, 0, 0, 0, 8)]
    )
    model = ModelSpec(ModelKind.FIXED_RATE, {"byte": 1.0}, 0.0)
    out = tmp_path / "plot.csv"
    emit_plot_data(ds, model, out)
    line = json.loads((tmp_path / "plot.csv.line.json").read_text())
    assert line["slope"] == pytest.approx(29 / 14, abs=1e-12)
    assert line["intercept_us"] == pytest.approx(-0.5, abs=1e-12)


def test_plot_data_constant_predictions_error(tmp_path):
    ds = make_dataset([(h, 500, 0, 0, 0, 0, 0, 10 * h) for h in range(1, 6)])
    model = ModelSpec(ModelKind.FIXED_RATE, {"byte": 1.0}, 0.0)
    with pytest.raises(RankDeficiencyError):
        emit_plot_data(ds, model, tmp_path / "plot.csv")


def test_synth_spec_rejects_non_finite_values():
    with pytest.raises(SynthSpecError, match="noise_sigma_us"):
        default_synth_spec(noise_sigma_us=float("nan"))
    with pytest.raises(SynthSpecError, match="noise_sigma_us"):
        default_synth_spec(noise_sigma_us=float("inf"))
    coefficients = {"joinsplit": 1.0, "output": 1.0, "transparent_in": float("inf"), "spend": 1.0}
    with pytest.raises(SynthSpecError, match="finite"):
        default_synth_spec(true_model=ModelSpec(ModelKind.JOIST, coefficients, 1.0))
    with pytest.raises(SynthSpecError, match="finite"):
        default_synth_spec(true_model=ModelSpec(ModelKind.JOIST, dict(coefficients, transparent_in=1.0), float("nan")))


def test_synthetic_rejects_draws_beyond_int64():
    with pytest.raises(SynthSpecError, match="verify_time_us"):
        generate_synthetic(default_synth_spec(noise_sigma_us=1e300, n_blocks=20))
    huge = {"joinsplit": (0, 1), "output": (0, 1), "transparent_in": (0, 2**62), "spend": (0, 1)}
    with pytest.raises(SynthSpecError, match="int64"):
        generate_synthetic(default_synth_spec(count_ranges=huge, n_blocks=20))
