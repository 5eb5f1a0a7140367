"""The public names of the joist package, pinned one per line so that every
addition or removal shows up as a one-line change here."""

from __future__ import annotations

import types

import pytest

import joist
from joist import experiment, features, models, stats

PUBLIC_NAMES = [
    "BlockFeatures",
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
    "TxFeatures",
    "UnsupportedKindError",
    "adjusted_r_squared",
    "aggregate_block",
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


def test_public_names_are_pinned():
    # Submodules (joist.cli, joist.rng, ...) appear as attributes once imported; they are not names.
    public = sorted(
        name for name, value in vars(joist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


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
