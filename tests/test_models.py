from __future__ import annotations

import json
import random

import pytest

from joist import (
    GERVAIS_BASELINE,
    FormatError,
    IntegrityError,
    ModelKind,
    ModelSpec,
    load_model,
    n_predictors,
    predict,
    save_model,
)
from joist.features import COUNT_COLUMNS
from joist.models import PREDICTORS

from conftest import (
    EXPECTED_BLOCK_SIZE_2000B,
    EXPECTED_JOIST_1234,
    REFERENCE_BLOCK_SIZE,
    REFERENCE_JOIST,
    predict_block,
    predictor_vector,
)

# Counts (n_joinsplit, n_output, n_transparent_in, n_spend) = (1, 2, 3, 4).
_BLOCK_1234 = dict(size_bytes=2000, n_joinsplit=1, n_output=2, n_transparent_in=3, n_spend=4)
_BLOCK_ZERO = dict(size_bytes=458263)


@pytest.mark.parametrize("label", sorted(REFERENCE_JOIST))
def test_reference_joist_predictions(label):
    got = predict_block(REFERENCE_JOIST[label], **_BLOCK_1234)
    assert got == pytest.approx(EXPECTED_JOIST_1234[label], abs=1e-6)


@pytest.mark.parametrize("label", sorted(REFERENCE_BLOCK_SIZE))
def test_reference_block_size_predictions(label):
    got = predict_block(REFERENCE_BLOCK_SIZE[label], **_BLOCK_1234)
    assert got == pytest.approx(EXPECTED_BLOCK_SIZE_2000B[label], abs=1e-6)


def test_zero_count_block_predicts_intercept():
    assert predict_block(REFERENCE_JOIST["ssd_5k"], size_bytes=100) == pytest.approx(
        4468.949, abs=1e-9
    )


def test_fixed_rate_consistency_with_mean_figures():
    # 0.3796 us/B at the 458,263 B mean block size lands on the published
    # 0.174 s mean validation time to within half a millisecond.
    got = predict_block(GERVAIS_BASELINE, **_BLOCK_ZERO)
    assert got == pytest.approx(173956.6348, abs=1e-6)
    assert abs(got - 174000.0) < 500.0


def test_predictor_vector_orders():
    assert predictor_vector(ModelKind.JOIST, _BLOCK_1234) == [1.0, 2.0, 3.0, 4.0]
    assert predictor_vector(ModelKind.BLOCK_SIZE, {"size_bytes": 500}) == [500.0]
    assert predictor_vector(ModelKind.FIXED_RATE, {"size_bytes": 500}) == [500.0]
    assert predictor_vector(ModelKind.JOIST, dict.fromkeys(COUNT_COLUMNS, 0)) == [0.0, 0.0, 0.0, 0.0]


def test_predict_equals_dot_product_plus_intercept():
    rng = random.Random(2024)
    for _ in range(50):
        model = ModelSpec(
            ModelKind.JOIST,
            {name: rng.uniform(-10, 10000) for name in PREDICTORS[ModelKind.JOIST]},
            rng.uniform(-100, 10000),
        )
        block = dict(
            size_bytes=rng.randrange(1, 2_000_000),
            n_joinsplit=rng.randrange(20),
            n_output=rng.randrange(50),
            n_transparent_in=rng.randrange(500),
            n_spend=rng.randrange(30),
        )
        vector = predictor_vector(ModelKind.JOIST, block)
        dot = 0.0
        for name, value in zip(PREDICTORS[ModelKind.JOIST], vector):
            dot += model.coefficients[name] * value
        assert predict_block(model, **block) == dot + model.intercept_us


def test_linearity_under_block_composition():
    rng = random.Random(99)
    model = REFERENCE_JOIST["ssd_5k"]
    for _ in range(25):
        def rand_block(h):
            return dict(
                height=h,
                size_bytes=rng.randrange(1, 100000),
                n_joinsplit=rng.randrange(10),
                n_output=rng.randrange(10),
                n_transparent_in=rng.randrange(100),
                n_spend=rng.randrange(10),
            )

        a, b = rand_block(1), rand_block(2)
        combined = {name: a[name] + b[name] for name in a if name != "height"}
        assert predict_block(model, **combined) == pytest.approx(
            predict_block(model, **a) + predict_block(model, **b) - model.intercept_us, rel=1e-9
        )


def test_monotonicity_with_nonnegative_coefficients():
    model = REFERENCE_JOIST["ssd_20k"]
    baseline = predict_block(model, size_bytes=5000, n_joinsplit=1, n_output=2, n_transparent_in=3, n_spend=4)
    for bump in (
        dict(n_joinsplit=2),
        dict(n_output=3),
        dict(n_transparent_in=4),
        dict(n_spend=5),
    ):
        fields = dict(
            size_bytes=5000, n_joinsplit=1, n_output=2, n_transparent_in=3, n_spend=4
        )
        fields.update(bump)
        assert predict_block(model, **fields) >= baseline


def test_transparent_outputs_are_not_a_predictor():
    assert "transparent_out" not in PREDICTORS[ModelKind.JOIST]
    model = REFERENCE_JOIST["ssd_5k"]
    a = predict_block(model, n_transparent_out=0, n_transparent_in=5)
    b = predict_block(model, n_transparent_out=999, n_transparent_in=5)
    assert a == b


def test_coefficient_name_set_is_enforced():
    with pytest.raises(IntegrityError):
        ModelSpec(ModelKind.JOIST, {"joinsplit": 1.0}, 0.0)
    with pytest.raises(IntegrityError):
        ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 1.0, "extra": 2.0}, 0.0)
    with pytest.raises(IntegrityError):
        ModelSpec(ModelKind.JOIST, {"j": 1.0, "o": 1.0, "i": 1.0, "s": 1.0}, 0.0)


@pytest.mark.parametrize(
    "value", ["1", True, None, 2**1024 - 2**970, [1.0]], ids=["str", "bool", "None", "int-beyond-float", "list"]
)
def test_model_values_must_be_numbers(value):
    # A float holds inf and NaN (save_model refuses those); an int beyond float range it cannot hold.
    with pytest.raises(IntegrityError, match="^model intercept and coefficients must be numbers$"):
        ModelSpec(ModelKind.BLOCK_SIZE, {"byte": value}, 0.0)
    with pytest.raises(IntegrityError, match="^model intercept and coefficients must be numbers$"):
        ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 1.0}, value)
    ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 2**1024 - 2**970 - 1}, float("nan"))


@pytest.mark.parametrize(
    "kind, coefficients, message",
    [
        (ModelKind.JOIST, None, "coefficients must be a mapping of names to numbers, got None"),
        (ModelKind.BLOCK_SIZE, [("byte", 1.0)], r"coefficients must be a mapping .*, got \[\('byte', 1\.0\)\]"),
        ("block_size", {"byte": 1.0}, "kind must be a ModelKind, got 'block_size'"),
        (None, {"byte": 1.0}, "kind must be a ModelKind, got None"),
        (
            ModelKind.BLOCK_SIZE,
            {1: 1.0, "byte": 2.0},
            r"model kind 'block_size' requires coefficients \['byte'\], got \['byte', 1\]",
        ),
        (ModelKind.BLOCK_SIZE, {10**5000: 1.0}, r"model kind .*, got \[1(0){19}\.{3}\(5001 digits\)\]"),
    ],
    ids=["coefficients-None", "coefficients-pairs", "kind-str", "kind-None", "mixed-names", "5001-digit-name"],
)
def test_model_spec_refuses_a_bad_kind_or_coefficient_mapping(kind, coefficients, message):
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        ModelSpec(kind, coefficients, 0.0)


def test_fixed_rate_intercept_must_be_zero():
    with pytest.raises(IntegrityError):
        ModelSpec(ModelKind.FIXED_RATE, {"byte": 0.5}, 1.0)
    ModelSpec(ModelKind.FIXED_RATE, {"byte": 0.5}, 0.0)


def test_n_predictors():
    assert n_predictors(ModelKind.JOIST) == 4
    assert n_predictors(ModelKind.BLOCK_SIZE) == 1
    assert n_predictors(ModelKind.FIXED_RATE) == 1


def test_model_json_round_trip_full_precision(tmp_path):
    model = ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 0.1 + 0.2, "output": 5726.675, "transparent_in": 61.411, "spend": 1e-17},
        4468.949,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model

    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["kind"] == "joist"


def test_model_json_rejects_bad_documents(tmp_path):
    path = tmp_path / "model.json"

    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_model(path)

    path.write_text(json.dumps({"kind": "joist", "coefficients": {}, "intercept_us": 0}))
    with pytest.raises(FormatError, match="schema_version"):
        load_model(path)

    path.write_text(
        json.dumps({"kind": "cubic", "coefficients": {}, "intercept_us": 0, "schema_version": 1})
    )
    with pytest.raises(FormatError, match="kind"):
        load_model(path)

    path.write_text(
        json.dumps(
            {
                "kind": "block_size",
                "coefficients": {"byte": "fast"},
                "intercept_us": 0,
                "schema_version": 1,
            }
        )
    )
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_model_json_rejects_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "model.json"
    path.write_text(
        '{"kind": "joist", "coefficients": {"joinsplit": %s, "output": 1, "transparent_in": 1, "spend": 1},'
        ' "intercept_us": 0, "schema_version": 1}' % literal
    )
    with pytest.raises(FormatError, match="joinsplit"):
        load_model(path)


def test_model_json_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(FormatError):
        load_model(path)


def test_save_model_refuses_non_finite_values(tmp_path):
    path = tmp_path / "model.json"
    model = ModelSpec(ModelKind.BLOCK_SIZE, {"byte": float("nan")}, 0.0)
    with pytest.raises(FormatError, match="non-finite"):
        save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path: predict(GERVAIS_BASELINE, {"byte": [1]}), "dataset must be a Dataset, got {'byte': [1]}"),
        (lambda path: predict({"kind": "joist"}, None), "model must be a ModelSpec, got {'kind': 'joist'}"),
        (lambda path: save_model({"kind": "joist"}, path), "model must be a ModelSpec, got {'kind': 'joist'}"),
        (lambda path: save_model(GERVAIS_BASELINE, None), "path must be a str or os.PathLike, got None"),
    ],
    ids=["predict-dataset", "predict-model", "save-model", "save-path"],
)
def test_wrong_argument_types_are_integrity_errors(tmp_path, call, message):
    with pytest.raises(IntegrityError) as excinfo:
        call(tmp_path / "model.json")
    assert str(excinfo.value) == message
    assert list(tmp_path.iterdir()) == []
