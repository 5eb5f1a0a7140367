"""Experiment pipelines: splits, model comparison, correlation and composition
tables, synthetic ground-truth datasets, and plot-data emission.

All randomness is owned by explicit SplitMix64 generators seeded per
operation; nothing reads ambient RNG state, so every pipeline is reproducible
from its inputs alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateVarianceError,
    IntegrityError,
    RankDeficiencyError,
    ShapeError,
    SynthSpecError,
)
from .features import COUNT_COLUMNS, FEATURE_COLUMNS, Dataset
from .fit import ols_fit
from .models import PREDICTORS, ModelKind, ModelSpec, n_predictors, predict
from .rng import SplitMix64, gaussians, shuffled_indices
from .stats import EvalReport, centred, correlation, evaluate, exact_sum, require_finite

_MAX_SEED = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1

# Feature columns reported by correlation_table, in table order.
CORRELATION_FEATURES = tuple(c.removeprefix("n_") for c in COUNT_COLUMNS)

COMPARISON_CSV_HEADER = (
    "model,split,n,mae_us,emr,r2,adj_r2,max_abs_error_us,max_prediction_us,n_exceeding"
)


@dataclass(frozen=True)
class SplitPlan:
    """A seeded fit/predict partition of a dataset."""

    seed: int
    n_fit: int
    n_predict: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MAX_SEED:
            raise IntegrityError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.n_fit < 1 or self.n_predict < 1:
            raise IntegrityError("n_fit and n_predict must both be >= 1")


def split(ds: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    """Partition *ds* uniformly at random into (fit_set, predict_set).

    The partition depends only on (plan.seed, len(ds)): sample indices are
    shuffled by Fisher-Yates driven by SplitMix64(seed), the first
    ``plan.n_fit`` shuffled indices form the fit set, and both sides are
    re-sorted by height. Disjoint and jointly exhaustive by construction.
    """
    if len(ds) != plan.n_fit + plan.n_predict:
        raise ShapeError(
            f"dataset has {len(ds)} samples but plan wants {plan.n_fit} + {plan.n_predict}"
        )
    order = np.array(shuffled_indices(len(ds), SplitMix64(plan.seed)), dtype=np.intp)
    return ds.take(np.sort(order[: plan.n_fit])), ds.take(np.sort(order[plan.n_fit :]))


@dataclass(frozen=True)
class ComparisonRow:
    model_kind: ModelKind
    split_label: str
    report: EvalReport


def run_comparison(
    ds: Dataset,
    plan: SplitPlan,
    kinds: Sequence[ModelKind] = (),
    baselines: Sequence[ModelSpec] = (),
) -> list[ComparisonRow]:
    """Fit-and-evaluate each kind on a seeded split; evaluate baselines as-is.

    Fitted kinds are trained on the fit set and evaluated on the predict set;
    baselines skip fitting and are evaluated on the same predict set. One row
    per model, in the order given (fitted kinds first).
    """
    fit_set, predict_set = split(ds, plan)
    label = f"{plan.n_fit}/{plan.n_predict}"
    t = predict_set.verify_time_us
    models = chain((ols_fit(kind, fit_set).model for kind in kinds), baselines)
    return [
        ComparisonRow(m.kind, label, evaluate(t, predict(m, predict_set), n_predictors(m.kind)))
        for m in models
    ]


def comparison_csv_lines(rows: Iterable[ComparisonRow]) -> list[str]:
    """The comparison table in its machine form, one string per line."""
    lines = [COMPARISON_CSV_HEADER]
    for row in rows:
        r = row.report
        lines.append(
            ",".join(
                str(v)
                for v in (
                    row.model_kind.value,
                    row.split_label,
                    r.n,
                    r.mae_us,
                    r.emr,
                    r.r2,
                    r.adj_r2,
                    r.max_abs_error_us,
                    r.max_prediction_us,
                    r.n_exceeding_max_prediction,
                )
            )
        )
    return lines


def correlation_table(ds: Dataset) -> dict[str, float | None]:
    """Pearson r of each feature column against measured verification time.

    A constant feature column yields ``None`` for that entry (degenerate
    variance) instead of a number, as does every entry if the times are
    constant. The time-side moments are computed once for all features.
    """
    if len(ds) < 2:
        raise ShapeError(f"need at least 2 observations, got {len(ds)}")
    t = centred(ds.verify_time_us)
    table: dict[str, float | None] = {}
    for name in CORRELATION_FEATURES:
        try:
            table[name] = correlation(centred(getattr(ds, FEATURE_COLUMNS[name])), t)
        except DegenerateVarianceError:
            table[name] = None
    return table


@dataclass(frozen=True, eq=False)
class CompositionReport:
    """Per-block and mean shares of transparent inputs, Spend+Output
    descriptions, and JoinSplit descriptions among a block's verification
    items. Blocks with no items at all (coinbase-only) are excluded and
    counted; the means are ``None`` if nothing remains.

    The per-block shares are columns (``heights`` int64, the shares float64)
    over the included blocks, in height order."""

    heights: np.ndarray
    transparent_in: np.ndarray
    spend_output: np.ndarray
    joinsplit: np.ndarray
    mean_transparent_in: float | None
    mean_spend_output: float | None
    mean_joinsplit: float | None
    n_excluded: int


def composition_analysis(ds: Dataset) -> CompositionReport:
    # Float64 sums equal the integer sums while those stay below 2**53, and
    # unlike int64 sums they cannot wrap.
    n_in, n_spend, n_output, n_js = (
        c.astype(np.float64) for c in (ds.n_transparent_in, ds.n_spend, ds.n_output, ds.n_joinsplit)
    )
    denom = n_in + n_spend + n_output + n_js
    keep = denom != 0
    denom = denom[keep]
    shares = (n_in[keep] / denom, (n_spend[keep] + n_output[keep]) / denom, n_js[keep] / denom)
    n = len(denom)
    means = tuple(exact_sum(share) / n for share in shares) if n else (None, None, None)
    return CompositionReport(
        ds.height[keep],
        *shares,
        *means,
        n_excluded=len(ds) - n,
    )


# Bytes each component contributes to the synthetic block size. Deliberately
# not proportional to any time coefficients: a single byte-rate predictor then
# correlates with verification time without being able to explain it.
_SYNTH_BYTES = {"joinsplit": 1802, "output": 948, "transparent_in": 150, "spend": 384}
_SYNTH_BASE_BYTES = 1000
_SYNTH_SIZE_NOISE_FRACTION = 0.05


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with known ground truth.

    ``count_ranges`` maps each feature-model predictor name to an inclusive
    integer (lo, hi) range; counts are drawn uniformly per block.
    """

    true_model: ModelSpec
    noise_sigma_us: float
    count_ranges: Mapping[str, tuple[int, int]]
    n_blocks: int
    seed: int

    def __post_init__(self) -> None:
        if self.true_model.kind is not ModelKind.JOIST:
            raise SynthSpecError("true_model must be of the joist kind")
        if not 0 <= self.noise_sigma_us < math.inf:
            raise SynthSpecError(f"noise_sigma_us must be finite and >= 0, got {self.noise_sigma_us}")
        model = self.true_model
        if not all(map(math.isfinite, [model.intercept_us, *model.coefficients.values()])):
            raise SynthSpecError("true_model intercept and coefficients must be finite")
        if self.n_blocks < 1:
            raise SynthSpecError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise SynthSpecError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        expected = set(PREDICTORS[ModelKind.JOIST])
        if set(self.count_ranges) != expected:
            raise SynthSpecError(f"count_ranges must have exactly the keys {sorted(expected)}")
        for name, (lo, hi) in self.count_ranges.items():
            if lo < 0 or hi < lo:
                raise SynthSpecError(f"bad range for {name!r}: [{lo}, {hi}]")


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Draw a deterministic synthetic dataset from the ground-truth recipe.

    Per block (heights 1..n_blocks), in this fixed draw order: the four counts
    in predictor order, one gaussian for time noise, one gaussian for size
    noise. verify_time_us is the true model value plus noise, rounded and
    clamped to >= 1; size_bytes is an affine function of the counts plus 5 %
    relative noise, so byte-rate models stay correlated but inferior.

    Raises:
        SynthSpecError: if the recipe can never produce a positive time (the
            true model value is <= 0 over the entire count box), if its count
            ranges allow block sizes beyond int64, if n_blocks is too large
            for one draw buffer, or if a drawn time or size is not finite or
            does not fit in int64.
    """
    names = PREDICTORS[ModelKind.JOIST]
    coeffs = spec.true_model.coefficients
    best = spec.true_model.intercept_us
    for name in names:
        lo, hi = spec.count_ranges[name]
        best += coeffs[name] * (hi if coeffs[name] >= 0 else lo)
    if best <= 0:
        raise SynthSpecError(
            f"count ranges force non-positive times (best achievable model value {best})"
        )

    lo = {name: spec.count_ranges[name][0] for name in names}
    span = {name: spec.count_ranges[name][1] - lo[name] + 1 for name in names}
    max_size = _SYNTH_BASE_BYTES + sum(_SYNTH_BYTES[n] * spec.count_ranges[n][1] for n in names)
    if max_size > _INT64_MAX:
        raise SynthSpecError(f"count ranges allow block sizes up to {max_size}, beyond int64")

    # Eight raw draws per block, in the documented order. numpy refuses a
    # buffer beyond its size limit or the address space before touching memory.
    try:
        draws = SplitMix64(spec.seed).next_block(8 * spec.n_blocks).reshape(spec.n_blocks, 8)
    except (ValueError, MemoryError) as exc:
        raise SynthSpecError(f"n_blocks {spec.n_blocks} is too large to draw: {exc}") from exc
    counts = {
        name: lo[name] + (draws[:, i] % np.uint64(span[name])).astype(np.int64)
        for i, name in enumerate(names)
    }
    affine_size = _SYNTH_BASE_BYTES + sum(_SYNTH_BYTES[n] * counts[n] for n in names)
    affine_size = affine_size.astype(np.float64)
    # Overflow to inf is caught by _rounded_at_least_one, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        exact = 0.0
        for name in names:
            exact = exact + coeffs[name] * counts[name].astype(np.float64)
        times = spec.true_model.intercept_us + exact + gaussians(draws[:, 4], draws[:, 5]) * spec.noise_sigma_us
        size_noise = gaussians(draws[:, 6], draws[:, 7]) * _SYNTH_SIZE_NOISE_FRACTION * affine_size
    columns = {
        "height": np.arange(1, spec.n_blocks + 1),
        "size_bytes": _rounded_at_least_one("size_bytes", affine_size + size_noise),
        "n_transparent_in": counts["transparent_in"],
        "n_transparent_out": counts["transparent_in"] + 1,
        "n_spend": counts["spend"],
        "n_output": counts["output"],
        "n_joinsplit": counts["joinsplit"],
        "verify_time_us": _rounded_at_least_one("verify_time_us", times),
    }
    return Dataset(columns)


def _rounded_at_least_one(name: str, values: np.ndarray) -> np.ndarray:
    """max(1, round(v)) per value, as int64 (round half to even, like round())."""
    rounded = np.rint(values)
    bad = np.flatnonzero(~(np.isfinite(values) & (rounded < 2.0**63)))
    if bad.size:
        i = bad[0]
        raise SynthSpecError(f"block {i + 1}: drawn {name} {values[i]} is not finite or does not fit in int64")
    return np.maximum(1.0, rounded).astype(np.int64)


def emit_plot_data(predict_set: Dataset, model: ModelSpec, out: str | Path) -> None:
    """Write measured-vs-predicted plot data and its regression line.

    The CSV ``height,measured_us,predicted_us`` goes to *out*; the
    least-squares line of measured-on-predicted lands in the sidecar JSON
    ``<out>.line.json`` as ``{"slope": ..., "intercept_us": ...}``. Log
    scaling is left to the plotting tool.

    Raises:
        NumericalError: before anything is written, if a prediction is not
            finite or a square or sum is beyond float range.
    """
    predictions = predict(model, predict_set)
    require_finite(predictions, "predictions")
    measured = predict_set.verify_time_us

    x = centred(predictions)
    if x.sum_squares == 0.0:
        raise RankDeficiencyError("all predictions are identical; regression line undefined")
    y_mean = exact_sum(measured) / len(measured)
    slope = exact_sum(x.deviations * (measured - y_mean)) / x.sum_squares
    intercept = y_mean - slope * x.mean

    rows = zip(predict_set.height.tolist(), measured.tolist(), predictions.tolist())
    lines = ["height,measured_us,predicted_us", *(f"{h},{m},{p}" for h, m, p in rows)]
    out_path = Path(out)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    sidecar = Path(str(out_path) + ".line.json")
    sidecar.write_text(
        json.dumps({"slope": slope, "intercept_us": intercept}) + "\n", encoding="utf-8"
    )
