"""The public names of the joist package, pinned one per line so that every
addition or removal shows up as a one-line change here."""

from __future__ import annotations

import copy
import importlib
import pickle
import re
import types
from pathlib import Path

import numpy as np
import pytest

import joist
from joist import experiment, features, generate_synthetic, models, stats, write_dataset

from conftest import default_synth_spec

PUBLIC_NAMES = [
    "CSV_HEADER",
    "ComparisonRow",
    "CompositionReport",
    "DataError",
    "Dataset",
    "DegenerateDataError",
    "DegenerateVarianceError",
    "EvalReport",
    "FitResult",
    "FormatError",
    "GERVAIS_BASELINE",
    "HeightRangeError",
    "IntegrityError",
    "JoistError",
    "ModelKind",
    "ModelSpec",
    "NumericalError",
    "ParseError",
    "RankDeficiencyError",
    "RemoteError",
    "RpcConnectionError",
    "RpcEndpoint",
    "SampleCountError",
    "ShapeError",
    "SplitPlan",
    "SynthSpec",
    "SynthSpecError",
    "UnsupportedKindError",
    "adjusted_r_squared",
    "composition_analysis",
    "correlation_table",
    "emit_plot_data",
    "evaluate",
    "extract_tx_features",
    "fetch_block_features",
    "generate_synthetic",
    "load_model",
    "load_synth_spec",
    "n_predictors",
    "ols_fit",
    "predict",
    "read_dataset",
    "run_comparison",
    "save_model",
    "split",
    "write_dataset",
    "write_features_csv",
]


def _public(names):
    # Submodules (joist.cli, joist.rng, ...) appear as attributes once imported; they are not names.
    return sorted(
        name for name in names
        if not name.startswith("_") and not isinstance(getattr(joist, name), types.ModuleType)
    )


def test_public_names_are_pinned():
    # Names load on first use, so vars(joist) holds only those some earlier code touched;
    # __all__ and dir() list them all, and every one resolves to its submodule's object.
    assert sorted(joist.__all__) == PUBLIC_NAMES
    assert _public(dir(joist)) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        submodule = importlib.import_module(f"joist.{joist._SUBMODULE[name]}")
        assert getattr(joist, name) is getattr(submodule, name)
    assert _public(vars(joist)) == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module, name",
    [(features, "VerificationSample"), (experiment, "BlockComposition"), (models, "predictor_vector")],
)
def test_per_row_record_layer_is_gone(module, name):
    assert not hasattr(joist, name)
    assert not hasattr(module, name)


@pytest.mark.parametrize(
    "name", ["pearson_r", "PearsonResult", "mae", "emr", "r_squared", "extreme_value_report", "ExtremeValues"]
)
def test_single_statistic_api_is_gone(name):
    assert not hasattr(joist, name)
    assert not hasattr(stats, name)


@pytest.mark.parametrize("name", ["TxFeatures", "BlockFeatures", "aggregate_block"])
def test_fetch_record_types_are_gone(name):
    assert not hasattr(joist, name)
    assert not hasattr(features, name)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    write_dataset(generate_synthetic(default_synth_spec(n_blocks=6000)), tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(example, names)
    assert len(names["fit_set"]) == 5000
    assert names["report"].n == 1000


def test_readme_file_formats_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    model_doc, recipe_doc = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    (tmp_path / "model.json").write_text(model_doc)
    (tmp_path / "recipe.json").write_text(recipe_doc)
    assert joist.load_model(tmp_path / "model.json").kind is joist.ModelKind.JOIST
    spec = joist.load_synth_spec(tmp_path / "recipe.json")
    assert len(generate_synthetic(spec)) == spec.n_blocks == 15000


# Each record type with the value of every field it needs, by keyword in field order,
# and the defaults of the fields it does not need.
_SPEC = default_synth_spec()
_RECORDS = [
    (joist.SplitPlan, {"seed": 3, "n_fit": 5}, {}),
    (joist.ModelSpec, {"kind": joist.ModelKind.BLOCK_SIZE, "coefficients": {"byte": 0.5}, "intercept_us": 7.0}, {}),
    (
        joist.EvalReport,
        dict(n=4, mae_us=1.0, emr=0.5, r2=0.9, adj_r2=0.8, max_abs_error_us=2.0, max_prediction_us=9.0,
             n_exceeding_max_prediction=1, mean_observed_us=2.0),
        {},
    ),
    (joist.FitResult, {"model": models.GERVAIS_BASELINE, "n_samples": 9, "residual_sum_squares": 1.5,
                       "standard_errors": None}, {"condition_warning": None}),
    (joist.ComparisonRow, {"model_kind": joist.ModelKind.JOIST, "split_label": "5/4", "report": None}, {}),
    (joist.RpcEndpoint, {"url": "http://127.0.0.1:1", "username": "u", "password": "p"},
     {"timeout": 30.0, "max_parallel": 4}),
    (joist.SynthSpec, {name: getattr(_SPEC, name) for name in ("true_model", "noise_sigma_us", "count_ranges",
                                                                "n_blocks", "seed")}, {}),
    (
        joist.CompositionReport,
        dict(heights=np.arange(2), transparent_in=np.ones(2), spend_output=np.zeros(2), joinsplit=np.zeros(2),
             mean_transparent_in=1.0, mean_spend_output=0.0, mean_joinsplit=0.0, n_excluded=0),
        {},
    ),
]
_RECORD_IDS = [cls.__name__ for cls, _, _ in _RECORDS]


@pytest.mark.parametrize("cls, given, defaults", _RECORDS, ids=_RECORD_IDS)
def test_record_builds_by_position_and_keyword(cls, given, defaults):
    fields = {**given, **defaults}
    for record in (cls(**given), cls(*given.values()), cls(*fields.values())):
        assert list(vars(record)) == list(fields)  # vars() gives the fields in order
        assert vars(record) == fields
    with pytest.raises(TypeError):
        cls(*given.values(), *defaults.values(), None)
    with pytest.raises(TypeError):
        cls(**given, unknown=1)
    with pytest.raises(TypeError):
        cls(*given.values(), **{next(iter(given)): None})
    with pytest.raises(TypeError):
        cls(*list(given.values())[:-1])


@pytest.mark.parametrize("cls, given, defaults", _RECORDS, ids=_RECORD_IDS)
def test_record_is_immutable(cls, given, defaults):
    record = cls(**given)
    for name in [*given, *defaults, "unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == {**given, **defaults}


@pytest.mark.parametrize("cls, given, defaults", _RECORDS, ids=_RECORD_IDS)
def test_record_equality_hash_and_repr(cls, given, defaults):
    a, b = cls(**given), cls(**given)
    values = tuple({**given, **defaults}.values())
    assert a == a and a != values
    if cls is joist.CompositionReport:  # its columns are arrays: compared by identity
        assert a != b and hash(a) == object.__hash__(a)
    else:
        assert a == b and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
        try:
            expected = hash(values)
        except TypeError:  # a field holds a dict, as the coefficients do
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == expected
    fields = ", ".join(f"{name}={value!r}" for name, value in {**given, **defaults}.items())
    assert repr(a) == f"{cls.__name__}({fields})"
