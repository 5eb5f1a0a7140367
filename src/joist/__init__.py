"""Transaction-feature modeling of blockchain block verification time.

The core model predicts a block's verification time from four per-block
counts: JoinSplit descriptions, Output descriptions, transparent inputs, and
Spend descriptions. The package covers the full workflow: feature extraction
and dataset ingestion, least-squares fitting, evaluation statistics, and
reproducible comparison experiments against byte-rate baseline models.

``errors`` needs only the standard library and is loaded with the package. The
other submodules load on first use of one of their names (PEP 562), so that
``import joist`` and the CLI's help and usage errors do not import numpy.
"""

from . import errors

# The public names, by the submodule that defines each.
_PUBLIC = {
    "errors": (
        "DataError", "DegenerateDataError", "DegenerateVarianceError", "FormatError",
        "HeightRangeError", "IntegrityError", "JoistError", "NumericalError", "ParseError",
        "RankDeficiencyError", "RemoteError", "RpcConnectionError", "SampleCountError",
        "ShapeError", "SynthSpecError", "UnsupportedKindError",
    ),
    "experiment": (
        "ComparisonRow", "CompositionReport", "SplitPlan", "SynthSpec", "composition_analysis", "correlation_table",
        "emit_plot_data", "generate_synthetic", "load_synth_spec", "run_comparison", "split",
    ),
    "features": ("Dataset", "extract_tx_features"),
    "fit": ("FitResult", "ols_fit"),
    "ingest": (
        "CSV_HEADER", "RpcEndpoint", "fetch_block_features", "read_dataset", "write_dataset",
        "write_features_csv",
    ),
    "models": (
        "GERVAIS_BASELINE", "ModelKind", "ModelSpec", "load_model", "n_predictors", "predict",
        "save_model",
    ),
    "stats": ("EvalReport", "adjusted_r_squared", "evaluate"),
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_SUBMODULE)
globals().update((name, getattr(errors, name)) for name in _PUBLIC["errors"])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
