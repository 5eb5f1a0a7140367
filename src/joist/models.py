"""The three verification-time predictor families and their evaluation.

* ``joist``: linear in the block's JoinSplit, Output-description, transparent
  input, and Spend-description counts, plus a constant for per-block overhead.
* ``block_size``: linear in the block size in bytes, plus a constant.
* ``fixed_rate``: a fixed microseconds-per-byte rate through the origin (the
  Gervais-style baseline common in simulation literature).

Coefficient units are microseconds per unit count (or per byte); the intercept
is in microseconds. Predictions are returned unclamped: least squares on noisy
data can legitimately produce negative values and clamping here would bias
evaluation metrics downstream.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FormatError, IntegrityError, Record, shown
from .features import FEATURE_COLUMNS, Dataset
from .output import _atomic_write

MODEL_SCHEMA_VERSION = 1


class ModelKind(str, Enum):
    JOIST = "joist"
    BLOCK_SIZE = "block_size"
    FIXED_RATE = "fixed_rate"


# Predictor names per kind, in the fixed order shared by predict() and the
# fitter's design matrix.
PREDICTORS: dict[ModelKind, tuple[str, ...]] = {
    ModelKind.JOIST: ("joinsplit", "output", "transparent_in", "spend"),
    ModelKind.BLOCK_SIZE: ("byte",),
    ModelKind.FIXED_RATE: ("byte",),
}


def n_predictors(kind: ModelKind) -> int:
    return len(PREDICTORS[kind])


def as_float(value) -> float | None:
    """*value* as a float if it is an int or float (not a bool) that a float holds, inf and NaN included."""
    try:
        return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else None
    except OverflowError:  # an int beyond float range
        return None


class ModelSpec(Record):
    """A fitted (or given) predictor: kind, named coefficients, intercept."""

    kind: ModelKind
    coefficients: Mapping[str, float]
    intercept_us: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ModelKind):
            raise IntegrityError(f"kind must be a ModelKind, got {shown(self.kind)}")
        if not isinstance(self.coefficients, Mapping):
            raise IntegrityError(f"coefficients must be a mapping of names to numbers, got {shown(self.coefficients)}")
        expected = set(PREDICTORS[self.kind])
        actual = set(self.coefficients)
        if actual != expected:
            raise IntegrityError(
                f"model kind {self.kind.value!r} requires coefficients "
                f"{sorted(expected)}, got [{', '.join(sorted(map(shown, actual)))}]"
            )
        if any(as_float(v) is None for v in [self.intercept_us, *self.coefficients.values()]):
            raise IntegrityError("model intercept and coefficients must be numbers")
        if self.kind is ModelKind.FIXED_RATE and self.intercept_us != 0:
            raise IntegrityError("fixed_rate models have intercept_us fixed at 0")


# Baseline byte-rate model from the simulation literature: mean validation
# time over mean block size, used for comparison without fitting.
GERVAIS_BASELINE = ModelSpec(ModelKind.FIXED_RATE, {"byte": 0.3796}, 0.0)


def predict(model: ModelSpec, ds: Dataset) -> np.ndarray:
    """Predicted verification times in microseconds (unclamped), one float64 per row.

    Each row accumulates ``c * x`` in predictor order and adds the intercept
    last. A prediction beyond float range is inf or NaN, without a warning;
    the statistics and plot writers reject it as a NumericalError.
    """
    if not isinstance(model, ModelSpec):
        raise IntegrityError(f"model must be a ModelSpec, got {shown(model)}")
    if not isinstance(ds, Dataset):
        raise IntegrityError(f"dataset must be a Dataset, got {shown(ds)}")
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for name in PREDICTORS[model.kind]:
            values = np.asarray(getattr(ds, FEATURE_COLUMNS[name]), dtype=np.float64)
            total = total + model.coefficients[name] * values
        return total + model.intercept_us


def to_json_dict(model: ModelSpec) -> dict:
    return {
        "kind": model.kind.value,
        "coefficients": {name: float(v) for name, v in model.coefficients.items()},
        "intercept_us": float(model.intercept_us),
        "schema_version": MODEL_SCHEMA_VERSION,
    }


def finite_float(value, message: str) -> float:
    """*value* as a float if it is a finite number (see :func:`as_float`); else FormatError(*message*)."""
    number = as_float(value)
    if number is None or not math.isfinite(number):
        raise FormatError(message)
    return number


def from_json_dict(doc: Mapping) -> ModelSpec:
    if not isinstance(doc, Mapping):
        raise FormatError("model document must be a JSON object")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise FormatError(f"unsupported model schema_version {version!r}")
    try:
        kind = ModelKind(doc["kind"])
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"unknown model kind: {doc.get('kind')!r}") from exc
    coefficients = doc.get("coefficients")
    if not isinstance(coefficients, Mapping):
        raise FormatError('model document missing "coefficients" object')
    intercept = finite_float(doc.get("intercept_us"), 'model document missing finite numeric "intercept_us"')
    coeffs = {
        str(name): finite_float(value, f"coefficient {name!r} must be a finite number")
        for name, value in coefficients.items()
    }
    return ModelSpec(kind=kind, coefficients=coeffs, intercept_us=intercept)


def save_model(model: ModelSpec, path: str | Path) -> None:
    """Write the model as JSON (full shortest-round-trip float precision).

    Raises:
        IntegrityError: if *model* is not a ModelSpec or *path* is not a path.
        FormatError: if a coefficient or the intercept is not finite; JSON
            has no literal for it and nothing is written.
    """
    import json

    if not isinstance(model, ModelSpec):
        raise IntegrityError(f"model must be a ModelSpec, got {shown(model)}")
    try:
        text = json.dumps(to_json_dict(model), allow_nan=False)
    except ValueError as exc:
        raise FormatError(f"{path}: model has a non-finite value: {exc}") from exc
    _atomic_write(path, [(text + "\n").encode()])


def _read_json(path: str | Path):
    """The document in the JSON file at *path*; FormatError if the file is not valid JSON."""
    import json

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge number, deep nesting
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def load_model(path: str | Path) -> ModelSpec:
    return from_json_dict(_read_json(path))
