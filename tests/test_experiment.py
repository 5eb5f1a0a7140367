from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joist import (
    FormatError,
    GERVAIS_BASELINE,
    IntegrityError,
    ModelKind,
    ModelSpec,
    RankDeficiencyError,
    SplitPlan,
    SynthSpec,
    SynthSpecError,
    composition_analysis,
    correlation_table,
    emit_plot_data,
    generate_synthetic,
    load_synth_spec,
    run_comparison,
    split,
    write_dataset,
)
from joist import experiment, rng
from joist.experiment import COMPARISON_CSV_HEADER, comparison_csv_lines
from joist.features import Dataset
from joist.models import PREDICTORS, to_json_dict

from conftest import ScalarSplitMix64, default_synth_spec, make_dataset, next_int, scalar_shuffle


# -- split -----------------------------------------------------------------

@pytest.fixture(scope="module")
def ds_15k():
    return generate_synthetic(default_synth_spec(noise_sigma_us=2000.0, n_blocks=15000, seed=7))


def test_split_partitions_exactly(ds_15k):
    plan = SplitPlan(seed=1, n_fit=5000)
    fit_set, predict_set = split(ds_15k, plan)
    assert len(fit_set) == 5000 and len(predict_set) == 10000
    fit_heights = set(fit_set.height.tolist())
    predict_heights = set(predict_set.height.tolist())
    assert fit_heights.isdisjoint(predict_heights)
    assert fit_heights | predict_heights == set(ds_15k.height.tolist())
    assert fit_set.height.tolist() == sorted(fit_heights)
    assert predict_set.height.tolist() == sorted(predict_heights)


def test_split_is_deterministic(ds_15k):
    plan = SplitPlan(seed=1, n_fit=5000)
    first = split(ds_15k, plan)
    second = split(ds_15k, plan)
    assert first == second


def test_split_seed_changes_partition(ds_15k):
    fit_a, _ = split(ds_15k, SplitPlan(seed=1, n_fit=5000))
    fit_b, _ = split(ds_15k, SplitPlan(seed=2, n_fit=5000))
    assert fit_a.height.tolist() != fit_b.height.tolist()


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 200) | st.sampled_from([1000, 4097]),
    seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 7, 2**64 - 1]),
    data=st.data(),
)
def test_split_matches_the_scalar_fisher_yates_reference(n, seed, data):
    n_fit = data.draw(st.integers(1, n + 1), label="n_fit")
    ds = make_dataset([(h, 1, 0, 0, 0, 0, 0, 1) for h in range(n)])
    plan = SplitPlan(seed=seed, n_fit=n_fit)
    if n_fit >= n:
        with pytest.raises(IntegrityError, match="^n_fit and n_predict must both be >= 1$"):
            split(ds, plan)
        return
    order = scalar_shuffle(n, ScalarSplitMix64(seed))
    fit_set, predict_set = split(ds, plan)
    assert fit_set.height.tolist() == sorted(order[:n_fit])
    assert predict_set.height.tolist() == sorted(order[n_fit:])


def test_split_plan_invariants():
    with pytest.raises(IntegrityError, match="^n_fit and n_predict must both be >= 1$"):
        SplitPlan(seed=1, n_fit=0)
    with pytest.raises(IntegrityError):
        SplitPlan(seed=-1, n_fit=1)
    with pytest.raises(IntegrityError):
        SplitPlan(seed=1 << 64, n_fit=1)
    with pytest.raises(IntegrityError, match="^seed must be an unsigned 64-bit integer, got 1.5$"):
        SplitPlan(seed=1.5, n_fit=1)
    with pytest.raises(IntegrityError, match="^seed must be an unsigned 64-bit integer, got True$"):
        SplitPlan(seed=True, n_fit=1)
    with pytest.raises(IntegrityError, match="^n_fit must be an integer, got 5.5$"):
        SplitPlan(seed=1, n_fit=5.5)
    with pytest.raises(IntegrityError, match="^n_fit must be an integer, got '5'$"):
        SplitPlan(seed=1, n_fit="5")


_HUGE = r"1(0){19}\.{3}\(5001 digits\)"  # 10**5000


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: SplitPlan(seed=10**5000, n_fit=3),
            IntegrityError,
            f"seed must be an unsigned 64-bit integer, got {_HUGE}",
        ),
        (lambda: SplitPlan(seed=2**200, n_fit=3), IntegrityError, r"seed .*, got 1606938044\d{10}\.{3}\(61 digits\)"),
        (lambda: SplitPlan(seed=10**39, n_fit=3), IntegrityError, f"seed .*, got 1{'0' * 39}"),
        (lambda: SplitPlan(seed=1, n_fit=[10**5000]), IntegrityError, "n_fit .*, got a list of length 1"),
        (lambda: SplitPlan(seed={3: (10**5000,)}, n_fit=3), IntegrityError, "seed .*, got a dict of length 1"),
        (lambda: default_synth_spec(seed=-(10**5000)), SynthSpecError, f"seed .*, got -{_HUGE}"),
        (lambda: default_synth_spec(n_blocks=-(10**5000)), SynthSpecError, f"n_blocks .*, got -{_HUGE}"),
        (lambda: default_synth_spec(noise_sigma_us=10**5000), SynthSpecError, f"noise_sigma_us .*, got {_HUGE}"),
        (
            lambda: default_synth_spec(count_ranges={**_RANGES, "spend": (-(10**5000), 5)}),
            SynthSpecError,
            rf"bad range for 'spend': \[-{_HUGE}, 5\]",
        ),
        (
            lambda: generate_synthetic(default_synth_spec(n_blocks=10**5000)),
            SynthSpecError,
            f"n_blocks {_HUGE} is too large to draw: .*",
        ),
    ],
    ids=[
        "plan-seed",
        "plan-seed-61-digits",
        "plan-seed-40-digits",
        "plan-n_fit-list",
        "plan-seed-dict",
        "spec-seed",
        "n_blocks",
        "noise",
        "range",
        "draw",
    ],
)
def test_a_refused_int_of_more_than_40_digits_is_shown_by_its_length(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


# -- run_comparison -----------------------------------------------------------

def test_comparison_on_exact_data_makes_joist_perfect():
    ds = generate_synthetic(default_synth_spec(n_blocks=3000, seed=5))
    plan = SplitPlan(seed=11, n_fit=1000)
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
    plan = SplitPlan(seed=3, n_fit=5000)
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
    rows = run_comparison(ds, SplitPlan(seed=1, n_fit=5), baselines=(GERVAIS_BASELINE,))
    assert len(rows) == 1
    assert rows[0].model_kind is ModelKind.FIXED_RATE
    assert rows[0].split_label == "5/5"


def test_comparison_csv_shape(ds_15k):
    plan = SplitPlan(seed=3, n_fit=5000)
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
    rng = ScalarSplitMix64(31337)
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


_RANGES = {"joinsplit": (0, 5), "output": (0, 20), "transparent_in": (0, 200), "spend": (0, 10)}
_NEGATIVE = ModelSpec(ModelKind.JOIST, dict.fromkeys(_RANGES, -1.0), -5.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", 1.5, "seed must be an unsigned 64-bit integer, got 1.5"),
        ("seed", True, "seed must be an unsigned 64-bit integer, got True"),
        ("n_blocks", 2.5, "n_blocks must be an integer >= 1, got 2.5"),
        ("noise_sigma_us", "1", "noise_sigma_us must be a finite number >= 0, got '1'"),
        ("noise_sigma_us", 10**400, "noise_sigma_us must be a finite number >= 0"),
        ("true_model", {"kind": "joist"}, "true_model must be a ModelSpec of the joist kind"),
        ("count_ranges", [("joinsplit", (0, 5))], "count_ranges must be a mapping with exactly the keys"),
        ("count_ranges", {**_RANGES, "joinsplit": (0, 2.5)}, "count range for 'joinsplit' must hold integers"),
        ("count_ranges", {**_RANGES, "spend": (0, 1, 2)}, r"count range for 'spend' must be a \[lo, hi\] pair"),
        ("count_ranges", {**_RANGES, "spend": 7}, r"count range for 'spend' must be a \[lo, hi\] pair"),
        ("count_ranges", {**_RANGES, "transparent_in": (0, 2**62)}, "count ranges allow block sizes beyond int64"),
        ("true_model", _NEGATIVE, r"count ranges force non-positive times \(best achievable model value -5.0\)"),
    ],
    ids=[
        "seed-float", "seed-bool", "n_blocks-float", "noise-str", "noise-beyond-float", "model-dict", "ranges-list",
        "range-float", "range-triple", "range-int", "sizes-beyond-int64", "never-positive",
    ],
)
def test_synth_spec_checks_field_types_and_feasibility(field, value, message):
    # Each is refused when the SynthSpec is built, before anything is drawn.
    with pytest.raises(SynthSpecError, match=f"^{message}"):
        default_synth_spec(**{field: value})


def test_synth_spec_refuses_a_nan_best_value():
    # inf + -inf: the best value is NaN, which generate_synthetic would meet only at block 1.
    model = ModelSpec(ModelKind.JOIST, {**dict.fromkeys(_RANGES, 1.0), "joinsplit": 1e308, "output": -1e308}, 100.0)
    ranges = {**_RANGES, "joinsplit": (0, 5), "output": (3, 5)}
    message = r"^count ranges force non-positive times \(best achievable model value nan\)$"
    with pytest.raises(SynthSpecError, match=message):
        default_synth_spec(true_model=model, count_ranges=ranges)


def _recipe(**overrides) -> dict:
    spec = default_synth_spec(n_blocks=50)
    doc = {**vars(spec), "true_model": to_json_dict(spec.true_model), "count_ranges": _RANGES}
    return {name: value for name, value in {**doc, **overrides}.items() if value is not None}


def test_synth_spec_holds_count_ranges_as_tuples():
    spec = default_synth_spec(count_ranges={name: list(pair) for name, pair in _RANGES.items()})
    assert spec.count_ranges == _RANGES and spec == default_synth_spec(count_ranges=_RANGES)


def test_synth_spec_noise_is_a_number_a_float_holds():
    # The same rule as a model file's numbers: an int that rounds to the largest float is taken.
    assert default_synth_spec(noise_sigma_us=2**1024 - 2**970 - 1).noise_sigma_us == 2**1024 - 2**970 - 1
    with pytest.raises(SynthSpecError, match="noise_sigma_us"):
        default_synth_spec(noise_sigma_us=2**1024 - 2**970)


def test_load_synth_spec_equals_the_same_spec_in_code(tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(_recipe()))
    spec = load_synth_spec(path)
    assert spec == default_synth_spec(n_blocks=50)
    assert generate_synthetic(spec) == generate_synthetic(default_synth_spec(n_blocks=50))


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("[1]", SynthSpecError, "recipe.json: a recipe is a JSON object with the fields true_model, noise_sigma_us, "
                                "count_ranges, n_blocks, seed; missing true_model, noise_sigma_us, count_ranges, "
                                "n_blocks, seed$"),
        (json.dumps(_recipe(seed=None)), SynthSpecError, "n_blocks, seed; missing seed$"),
        (json.dumps(_recipe(true_model=None, n_blocks=None)), SynthSpecError,
         "n_blocks, seed; missing true_model, n_blocks$"),
        (json.dumps(_recipe(true_model=[])), SynthSpecError, "^true_model: model document must be a JSON object$"),
        (json.dumps(_recipe(true_model=to_json_dict(GERVAIS_BASELINE))), SynthSpecError,
         "^true_model must be a ModelSpec of the joist kind$"),
        (json.dumps(_recipe(count_ranges={**_RANGES, "spend": [0, True]})), SynthSpecError,
         "^count range for 'spend' must hold integers$"),
        ('{"seed": 1,', FormatError, "recipe.json: not valid JSON"),
    ],
    ids=[
        "not-an-object", "missing-field", "missing-fields", "model-not-an-object", "model-not-joist", "range-bool",
        "bad-json",
    ],
)
def test_load_synth_spec_errors(tmp_path, text, error, message):
    path = tmp_path / "recipe.json"
    path.write_text(text)
    with pytest.raises(error, match=message):
        load_synth_spec(path)


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


def _synthetic_with_libm_gaussians(spec: SynthSpec) -> Dataset:
    """generate_synthetic with :func:`joist.rng.gaussians` (libm) for every value, as it was
    before numpy's log and cos came first: the reference the dataset must equal."""
    names = PREDICTORS[ModelKind.JOIST]
    draws = rng.splitmix64(spec.seed, 8 * spec.n_blocks).reshape(spec.n_blocks, 8)
    counts = {}
    for i, name in enumerate(names):
        lo, hi = spec.count_ranges[name]
        counts[name] = lo + (draws[:, i] % np.uint64(hi - lo + 1)).astype(np.int64)
    affine_size = (1000 + sum(b * counts[n] for n, b in zip(names, (1802, 948, 150, 384)))).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = 0.0
        for name in names:
            exact = exact + spec.true_model.coefficients[name] * counts[name].astype(np.float64)
        times = spec.true_model.intercept_us + exact + rng.gaussians(draws[:, 4], draws[:, 5]) * spec.noise_sigma_us
        size_noise = rng.gaussians(draws[:, 6], draws[:, 7]) * 0.05 * affine_size

    def rounded(name, values):
        rounded = np.rint(values)
        bad = np.flatnonzero(~(np.isfinite(values) & (rounded < 2.0**63)))
        if bad.size:
            i = bad[0]
            raise SynthSpecError(f"block {i + 1}: drawn {name} {values[i]} is not finite or does not fit in int64")
        return np.maximum(1.0, rounded).astype(np.int64)

    columns = {
        "height": np.arange(1, spec.n_blocks + 1),
        "size_bytes": rounded("size_bytes", affine_size + size_noise),
        "n_transparent_in": counts["transparent_in"],
        "n_transparent_out": counts["transparent_in"] + 1,
        "n_spend": counts["spend"],
        "n_output": counts["output"],
        "n_joinsplit": counts["joinsplit"],
        "verify_time_us": rounded("verify_time_us", times),
    }
    return Dataset(columns)


def _outcome(build, spec):
    """The dataset *build* makes of *spec*, or the message of the SynthSpecError it raises."""
    try:
        return build(spec)
    except SynthSpecError as exc:
        return str(exc)


@st.composite
def synth_specs(draw):
    ranges = {}
    for name in PREDICTORS[ModelKind.JOIST]:
        lo = draw(st.integers(0, 10**4))
        ranges[name] = (lo, lo + draw(st.sampled_from([0, 1, 10, 10**3, 10**6])))
    coefficient = st.floats(-1e5, 1e5, allow_nan=False) | st.sampled_from([0.0, 61.5, 5359.094])
    model = ModelSpec(
        ModelKind.JOIST,
        {name: draw(coefficient) for name in PREDICTORS[ModelKind.JOIST]},
        draw(st.floats(-1e4, 1e12) | st.sampled_from([0.5, 4468.949, 1e12])),
    )
    sigma = draw(st.just(0.0) | st.floats(-3, 13).map(lambda e: 10.0**e) | st.sampled_from([1e300, 2500.5]))
    try:
        n_blocks = draw(st.integers(1, 3000) | st.just(3000))
        return SynthSpec(model, sigma, ranges, n_blocks, draw(st.integers(0, 2**64 - 1)))
    except SynthSpecError:  # no positive time in the count box
        return draw(st.nothing())


@settings(deadline=None, max_examples=150)
@given(spec=synth_specs())
def test_synthetic_equals_the_dataset_of_libm_gaussians(spec):
    assert _outcome(generate_synthetic, spec) == _outcome(_synthetic_with_libm_gaussians, spec)


@pytest.mark.parametrize("ulps, sigma", [(1, 1e14), (2**20, 3e7)], ids=["1-ulp", "2**20-ulp"])
def test_numpy_log_and_cos_off_by_ulps_give_the_same_dataset_unless_the_margin_is_zero(monkeypatch, ulps, sigma):
    # 1 ulp shows in the last bits of times near 1e15; 2**20 ulp, the bound the margin
    # assumes, shows near 1e8, where about one time in eight is redone.
    spec = default_synth_spec(noise_sigma_us=sigma, n_blocks=4000, seed=7)
    expected = _synthetic_with_libm_gaussians(spec)
    log, cos = np.log, np.cos
    monkeypatch.setattr(np, "log", lambda x: log(x) + ulps * np.spacing(log(x)))
    monkeypatch.setattr(np, "cos", lambda x: cos(x) + ulps * np.spacing(cos(x)))
    assert generate_synthetic(spec) == expected
    monkeypatch.setattr(experiment, "_GAUSSIAN_ERROR", 0.0)
    monkeypatch.setattr(experiment, "_ROUNDING_SPACINGS", 0.0)
    assert generate_synthetic(spec) != expected


def test_a_50k_synth_redoes_a_handful_of_values_with_libm(monkeypatch):
    spec = default_synth_spec(noise_sigma_us=2000.0, n_blocks=50_000, seed=1)
    expected = _synthetic_with_libm_gaussians(spec)
    redone = []
    gaussians = rng.gaussians
    monkeypatch.setattr(rng, "gaussians", lambda w1, w2: redone.append(len(w1)) or gaussians(w1, w2))
    assert generate_synthetic(spec) == expected
    assert sum(redone) <= 8
