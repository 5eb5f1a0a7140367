"""The public names of the joist package, pinned one per line so that every
addition or removal shows up as a one-line change here."""

from __future__ import annotations

import importlib
import re
import types
from pathlib import Path

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
