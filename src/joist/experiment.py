"""Experiment pipelines: splits, model comparison, correlation and composition
tables, synthetic ground-truth datasets, and plot-data emission.

All randomness is drawn from SplitMix64 streams seeded per operation; nothing
reads ambient RNG state, so every pipeline is reproducible from its inputs
alone.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateVarianceError,
    IntegrityError,
    RankDeficiencyError,
    Record,
    ShapeError,
    SynthSpecError,
    is_int,
    shown,
)
from .features import COUNT_COLUMNS, FEATURE_COLUMNS, Dataset
from .output import _atomic_write, _csv_chunks

# fit, models, rng and stats are imported by the functions that call them, so that a
# command loads only what it runs: correlate and composition need none but stats.
if TYPE_CHECKING:
    from .models import ModelKind, ModelSpec
    from .stats import EvalReport

_MAX_SEED = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1

# Feature columns reported by correlation_table, in table order.
CORRELATION_FEATURES = tuple(c.removeprefix("n_") for c in COUNT_COLUMNS)

COMPARISON_CSV_HEADER = (
    "model,split,n,mae_us,emr,r2,adj_r2,max_abs_error_us,max_prediction_us,n_exceeding"
)


class SplitPlan(Record):
    """A seeded fit/predict partition: *n_fit* rows to fit on, the rest to predict."""

    seed: int
    n_fit: int

    def __post_init__(self) -> None:
        if not (is_int(self.seed) and 0 <= self.seed <= _MAX_SEED):
            raise IntegrityError(f"seed must be an unsigned 64-bit integer, got {shown(self.seed)}")
        if not is_int(self.n_fit):
            raise IntegrityError(f"n_fit must be an integer, got {shown(self.n_fit)}")
        if self.n_fit < 1:
            raise IntegrityError("n_fit and n_predict must both be >= 1")


def split(ds: Dataset, plan: SplitPlan) -> tuple[Dataset, Dataset]:
    """Partition *ds* uniformly at random into (fit_set, predict_set), each in height order.

    The partition depends only on (plan.seed, len(ds), plan.n_fit): the row indices are
    shuffled by Fisher-Yates on the SplitMix64 draws for the seed (see :mod:`joist.rng`) and
    the first ``plan.n_fit`` form the fit set. IntegrityError if none are left to predict.
    """
    from .rng import splitmix64

    n, n_fit = len(ds), plan.n_fit
    if n_fit >= n:
        raise IntegrityError("n_fit and n_predict must both be >= 1")
    # Steps below n_fit only reorder the fit set, so steps n-1 ... n_fit fix the predict set.
    # Step k swaps positions k and j_k <= k. Let W[p] be the last step (the smallest k) with
    # j_k == p != k. A position p < n_fit ends holding what position W[p] held just before
    # step W[p], or p itself if W[p] is unset; and what position k held just before step k is,
    # by the same rule, what W[k] brought it, or k. So each fit position's row is the end of
    # the chain p -> W[p] -> W[W[p]] ..., which pointer doubling finds in a few array passes.
    steps = np.arange(n - 1, n_fit - 1, -1)
    partners = (splitmix64(plan.seed, n - n_fit) % np.arange(n, n_fit, -1, dtype=np.uint64)).astype(np.intp)
    swaps = partners != steps
    ptr = np.full(n, n)
    np.minimum.at(ptr, partners[swaps], steps[swaps])
    ptr = np.where(ptr == n, np.arange(n), ptr)
    while not np.array_equal(doubled := ptr[ptr], ptr):
        ptr = doubled
    in_fit = np.zeros(n, dtype=bool)
    in_fit[ptr[:n_fit]] = True
    return ds.take(np.flatnonzero(in_fit)), ds.take(np.flatnonzero(~in_fit))


class ComparisonRow(Record):
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
    from .fit import ols_fit
    from .models import n_predictors, predict
    from .stats import evaluate

    fit_set, predict_set = split(ds, plan)
    del ds  # only the two halves are held through the fits
    label = f"{plan.n_fit}/{len(predict_set)}"
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
    from .stats import centred, correlation

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


class CompositionReport(Record):
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

    # Compared by identity: its columns are arrays.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def composition_analysis(ds: Dataset) -> CompositionReport:
    from .stats import exact_sum

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


class SynthSpec(Record):
    """Recipe for a synthetic dataset with known ground truth.

    ``count_ranges`` maps each feature-model predictor name to an inclusive
    integer [lo, hi] pair (a list or tuple, held as a tuple); counts are drawn
    uniformly per block.

    Raises:
        SynthSpecError: if a field has the wrong type or is out of range, if the
            count ranges allow block sizes beyond int64, or if the true model's
            best value over the count box is not > 0 (NaN included), so no time
            can be positive.
    """

    true_model: ModelSpec
    noise_sigma_us: float
    count_ranges: Mapping[str, tuple[int, int]]
    n_blocks: int
    seed: int

    def __post_init__(self) -> None:
        from .models import PREDICTORS, ModelKind, ModelSpec, as_float

        model, ranges = self.true_model, self.count_ranges
        if not (isinstance(model, ModelSpec) and model.kind is ModelKind.JOIST):
            raise SynthSpecError("true_model must be a ModelSpec of the joist kind")
        if not all(map(math.isfinite, [model.intercept_us, *model.coefficients.values()])):
            raise SynthSpecError("true_model intercept and coefficients must be finite")
        noise = as_float(self.noise_sigma_us)
        if noise is None or not 0 <= noise < math.inf:
            raise SynthSpecError(f"noise_sigma_us must be a finite number >= 0, got {shown(self.noise_sigma_us)}")
        if not (is_int(self.n_blocks) and self.n_blocks >= 1):
            raise SynthSpecError(f"n_blocks must be an integer >= 1, got {shown(self.n_blocks)}")
        if not (is_int(self.seed) and 0 <= self.seed <= _MAX_SEED):
            raise SynthSpecError(f"seed must be an unsigned 64-bit integer, got {shown(self.seed)}")
        names = PREDICTORS[ModelKind.JOIST]
        if not (isinstance(ranges, Mapping) and set(ranges) == set(names)):
            raise SynthSpecError(f"count_ranges must be a mapping with exactly the keys {sorted(names)}")
        for name, pair in ranges.items():
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise SynthSpecError(f"count range for {name!r} must be a [lo, hi] pair")
            if not all(map(is_int, pair)):
                raise SynthSpecError(f"count range for {name!r} must hold integers")
            lo, hi = pair
            if lo < 0 or hi < lo:
                raise SynthSpecError(f"bad range for {name!r}: [{shown(lo)}, {shown(hi)}]")
        # Held as (lo, hi) tuples, so that a spec read from JSON equals the same spec built in code.
        vars(self)["count_ranges"] = ranges = {name: tuple(pair) for name, pair in ranges.items()}
        # First, so that the bounds below convert to floats; the size may be too long for str().
        if _SYNTH_BASE_BYTES + sum(_SYNTH_BYTES[n] * ranges[n][1] for n in names) > _INT64_MAX:
            raise SynthSpecError("count ranges allow block sizes beyond int64")
        best = model.intercept_us
        for name in names:
            c, (lo, hi) = model.coefficients[name], ranges[name]
            best += c * (hi if c >= 0 else lo)
        if not best > 0:  # NaN too, as inf + -inf gives
            raise SynthSpecError(f"count ranges force non-positive times (best achievable model value {best})")


def load_synth_spec(path: str | Path) -> SynthSpec:
    """The synthesis recipe in the JSON file at *path*: an object with every SynthSpec
    field, whose ``true_model`` is a model document (see :func:`joist.load_model`).

    Raises:
        FormatError: if the file is not valid JSON.
        SynthSpecError: for any other fault in the recipe.
    """
    from .models import _read_json, from_json_dict

    doc = _read_json(path)
    missing = ", ".join(name for name in SynthSpec._fields if not (isinstance(doc, dict) and name in doc))
    if missing:
        fields = ", ".join(SynthSpec._fields)
        raise SynthSpecError(f"{path}: a recipe is a JSON object with the fields {fields}; missing {missing}")
    try:
        true_model = from_json_dict(doc["true_model"])
    except DataError as exc:
        raise SynthSpecError(f"true_model: {exc}") from exc
    return SynthSpec(true_model, *(doc[name] for name in SynthSpec._fields[1:]))


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Draw a deterministic synthetic dataset from the ground-truth recipe.

    Per block (heights 1..n_blocks), in this fixed draw order: the four counts
    in predictor order, one gaussian for time noise, one gaussian for size
    noise. verify_time_us is the true model value plus noise, rounded and
    clamped to >= 1; size_bytes is an affine function of the counts plus 5 %
    relative noise, so byte-rate models stay correlated but inferior.

    The dataset equals the one built from :func:`joist.rng.gaussians`, whose log
    and cos are libm's: numpy computes every value first, and libm redoes the
    few that lie near a rounding tie (see :func:`_rounded_at_least_one`).

    Raises:
        SynthSpecError: if n_blocks is too large for one draw buffer, or if a
            drawn time or size is not finite or does not fit in int64.
    """
    from .models import PREDICTORS, ModelKind
    from .rng import splitmix64

    names = PREDICTORS[ModelKind.JOIST]
    coeffs = spec.true_model.coefficients

    # Eight raw draws per block, in the documented order. numpy refuses a
    # buffer beyond its size limit or the address space before touching memory.
    try:
        draws = splitmix64(spec.seed, 8 * spec.n_blocks).reshape(spec.n_blocks, 8)
    except (ValueError, MemoryError) as exc:
        raise SynthSpecError(f"n_blocks {shown(spec.n_blocks)} is too large to draw: {exc}") from exc
    counts = {}
    for i, name in enumerate(names):
        lo, hi = spec.count_ranges[name]
        counts[name] = lo + (draws[:, i] % np.uint64(hi - lo + 1)).astype(np.int64)
    affine_size = _SYNTH_BASE_BYTES + sum(_SYNTH_BYTES[n] * counts[n] for n in names)
    affine_size = affine_size.astype(np.float64)
    # Overflow to inf is caught by _rounded_at_least_one, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        exact = 0.0
        for name in names:
            exact = exact + coeffs[name] * counts[name].astype(np.float64)
        sizes = _rounded_at_least_one(
            "size_bytes",
            draws[:, 6],
            draws[:, 7],
            affine_size,
            lambda g, rows: (g * _SYNTH_SIZE_NOISE_FRACTION) * affine_size[rows],
        )
        sigma = spec.noise_sigma_us
        times = _rounded_at_least_one(
            "verify_time_us", draws[:, 4], draws[:, 5], spec.true_model.intercept_us + exact, lambda g, rows: g * sigma
        )
    del draws  # freed before the dataset's table is built
    columns = {
        "height": np.arange(1, spec.n_blocks + 1),
        "size_bytes": sizes,
        "n_transparent_in": counts["transparent_in"],
        "n_transparent_out": counts["transparent_in"] + 1,
        "n_spend": counts["spend"],
        "n_output": counts["output"],
        "n_joinsplit": counts["joinsplit"],
        "verify_time_us": times,
    }
    return Dataset(columns)


# Bounds of _rounded_at_least_one's margin around each half-integer: the gaussian error
# per unit of (r + 1), and the spacings of the value its roundings can move it by.
_GAUSSIAN_ERROR = 2.0**-30
_ROUNDING_SPACINGS = 4.0


def _rounded_at_least_one(name: str, words1: np.ndarray, words2: np.ndarray, base: np.ndarray, noise) -> np.ndarray:
    """max(1, round(v)) per block, as int64 (round half to even, like round()), of the
    values ``v = base + noise(g, rows)`` over all rows, where ``g = rng.gaussians(words1,
    words2)`` and ``noise(g, rows)`` is s * g for those rows, rounded, with slopes s >= 0.

    numpy's gaussians come first: ``g = r * cos(2 pi u2)`` with ``r = sqrt(-2 log u1)``, in
    the float operations of :func:`joist.rng.gaussians` but with numpy's log and cos for
    libm's. Only v's rounded integer is kept, so a v that might round otherwise with libm's
    g is redone with :func:`joist.rng.gaussians`: one that is not finite, has |v| >= 2**52,
    or lies within d = s * (r + 1) * 2**-30 + 4 * spacing(|v|) of a half-integer.

    Assume numpy's float64 log and cos are each within 2**20 ulp of the exact value (numpy's
    own accuracy tests hold them to 1 ulp; glibc's are within 1 ulp). Then the two logs
    differ by at most 2**-31 |log u1| and the two cosines by 2**-31, so the two r differ by
    r * (2**-32 + 2**-52) after the square root, and the two g by r * (2**-31 + 2**-32 +
    2**-50), where r <= 8.6 as u1 >= 2**-53. The noise's scaling by s and its roundings add
    s * r * 2**-51, which leaves the total below s * r * 2**-30; the + 1 covers the error of
    r itself. Adding the base rounds each v by at most half its spacing: 1.5 spacing(|v|)
    for the two v if they sit in neighbouring binades, within 4 spacing(|v|). Outside d,
    libm's v lies strictly between the same two half-integers as numpy's (half-integers
    below 2**52 are floats), so it rounds to the same integer. A numpy off by more than
    that breaks the bit-equality, not the accuracy.

    Raises:
        SynthSpecError: naming the first block whose v (libm's, as every such v is
            redone) is not finite or does not fit in int64.
    """
    from .rng import gaussians, unit_floats

    all_rows = slice(None)
    r = np.sqrt(-2.0 * np.log(unit_floats(words1)))
    values = base + noise(r * np.cos(2.0 * np.pi * unit_floats(words2)), all_rows)
    margin = noise(r + 1.0, all_rows) * _GAUSSIAN_ERROR + _ROUNDING_SPACINGS * np.spacing(np.abs(values))
    redo = np.flatnonzero(~((np.abs(values) < 2.0**52) & (np.abs(values - np.floor(values) - 0.5) > margin)))
    if redo.size:
        values[redo] = base[redo] + noise(gaussians(words1[redo], words2[redo]), redo)
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
    import json

    from .models import predict
    from .stats import centred, exact_sum, require_finite

    predictions = predict(model, predict_set)
    require_finite(predictions, "predictions")
    measured = predict_set.verify_time_us

    x = centred(predictions)
    if x.sum_squares == 0.0:
        raise RankDeficiencyError("all predictions are identical; regression line undefined")
    y_mean = exact_sum(measured) / len(measured)
    slope = exact_sum(x.deviations * (measured - y_mean)) / x.sum_squares
    intercept = y_mean - slope * x.mean

    table = _csv_chunks("height,measured_us,predicted_us", [predict_set.height, measured, predictions])
    line = json.dumps({"slope": slope, "intercept_us": intercept}) + "\n"
    _atomic_write(out, table, (f"{out}.line.json", [line.encode()]))
