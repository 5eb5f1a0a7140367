"""Independent output checks for every command the benchmark runs.

Each check recomputes the expected result with numpy from the benchmark's own
inputs and raises :class:`Mismatch` when the program's output disagrees.
Nothing here imports joist. Tolerances are those of the acceptance suite:
1e-9 relative for statistics, 1e-6 relative for anything that goes through a
least-squares fit.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import CSV_HEADER, PREDICTORS, DatasetColumns

STATS_RTOL = 1e-9
FIT_RTOL = 1e-6

# The fixed-rate baseline `compare --baseline-gervais` evaluates (µs per byte).
GERVAIS_RATE = 0.3796

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Byte contributions of the synthetic size model documented for `joist synth`.
_SYNTH_BYTES = {"joinsplit": 1802, "output": 948, "transparent_in": 150, "spend": 384}
_SYNTH_BASE_BYTES = 1000
_SYNTH_SIZE_NOISE = 0.05

CORRELATION_FEATURES = ("transparent_in", "transparent_out", "spend", "output", "joinsplit")


class Mismatch(Exception):
    """The program's output differs from the oracle's."""


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first *count* SplitMix64 outputs for *seed*, computed all at once.

    The k-th state is ``seed + k * golden mod 2**64``, so no draw depends on
    the one before it.
    """
    k = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + k * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def split_indices(n: int, seed: int, n_fit: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the fit and predict sets of a seeded Fisher-Yates split."""
    draws = splitmix64(seed, n - 1)
    js = (draws % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), js):
        order[i], order[j] = order[j], order[i]
    order = np.array(order)
    return np.sort(order[:n_fit]), np.sort(order[n_fit:])


def synth_columns(spec: dict) -> DatasetColumns:
    """The dataset `joist synth` must produce for *spec* (eight draws per block)."""
    n = spec["n_blocks"]
    draws = splitmix64(spec["seed"], 8 * n).reshape(n, 8)
    counts = {}
    for col, name in enumerate(PREDICTORS):
        lo, hi = spec["count_ranges"][name]
        counts[name] = (lo + (draws[:, col] % np.uint64(hi - lo + 1))).astype(np.int64)
    unit = ((draws[:, 4:] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    gauss = np.sqrt(-2.0 * np.log(unit[:, 0::2])) * np.cos(2.0 * np.pi * unit[:, 1::2])
    model = spec["true_model"]
    total = np.zeros(n)
    for name in PREDICTORS:
        total = total + model["coefficients"][name] * counts[name]
    exact = model["intercept_us"] + total
    time_us = np.maximum(1, np.rint(exact + gauss[:, 0] * spec["noise_sigma_us"]))
    affine = _SYNTH_BASE_BYTES + sum(_SYNTH_BYTES[n_] * counts[n_] for n_ in PREDICTORS)
    size = np.maximum(1, np.rint(affine + gauss[:, 1] * _SYNTH_SIZE_NOISE * affine))
    return DatasetColumns(
        np.arange(1, n + 1, dtype=np.int64),
        size.astype(np.int64),
        counts["transparent_in"],
        counts["transparent_in"] + 1,
        counts["spend"],
        counts["output"],
        counts["joinsplit"],
        time_us.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# parsing and comparison helpers
# ---------------------------------------------------------------------------


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Mismatch(f"output is not UTF-8: {exc}") from exc


def _lines(data: bytes, header: str) -> list[str]:
    text = _text(data)
    if not text.endswith("\n"):
        raise Mismatch("output does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise Mismatch(f"header {lines[0]!r}, expected {header!r}")
    return lines[1:]


def _table(lines: list[str], ncols: int, dtype, what: str) -> np.ndarray:
    tokens = ",".join(lines).split(",") if lines else []
    if len(tokens) != ncols * len(lines):
        raise Mismatch(f"{what}: expected {ncols} fields on each of {len(lines)} rows")
    try:
        return np.array(tokens, dtype=dtype).reshape(len(lines), ncols)
    except ValueError as exc:
        raise Mismatch(f"{what}: unparsable field: {exc}") from exc


def read_dataset_csv(data: bytes, what: str) -> np.ndarray:
    return _table(_lines(data, CSV_HEADER), 8, np.int64, what)


def _close(got, expected, rtol: float, what: str) -> None:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        raise Mismatch(f"{what}: shape {got.shape}, expected {expected.shape}")
    scale = np.maximum(np.maximum(np.abs(got), np.abs(expected)), 1e-300)
    bad = np.abs(got - expected) > rtol * scale
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise Mismatch(
            f"{what}: {float(got.ravel()[i])!r} vs oracle {float(expected.ravel()[i])!r} "
            f"(relative tolerance {rtol}, {int(bad.sum())} value(s) off)"
        )


def _equal(got, expected, what: str) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        raise Mismatch(f"{what}: differs from the oracle")


def _json(data: bytes, what: str) -> dict:
    try:
        doc = json.loads(_text(data))
    except json.JSONDecodeError as exc:
        raise Mismatch(f"{what}: not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise Mismatch(f"{what}: not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# model arithmetic, in the program's documented order
# ---------------------------------------------------------------------------


def joist_predictors(cols: DatasetColumns) -> np.ndarray:
    return np.stack(
        [cols.n_joinsplit, cols.n_output, cols.n_transparent_in, cols.n_spend], axis=1
    ).astype(np.float64)


def predict(model: dict, cols: DatasetColumns) -> np.ndarray:
    """Predictions summed term by term in predictor order, then the intercept."""
    if model["kind"] == "joist":
        x = joist_predictors(cols)
        names = PREDICTORS
    else:
        x = cols.size_bytes.astype(np.float64)[:, None]
        names = ("byte",)
    total = np.zeros(len(cols))
    for j, name in enumerate(names):
        total = total + model["coefficients"][name] * x[:, j]
    return total + model["intercept_us"]


def lstsq_model(kind: str, cols: DatasetColumns) -> dict:
    if kind == "joist":
        x, names = joist_predictors(cols), PREDICTORS
    else:
        x, names = cols.size_bytes.astype(np.float64)[:, None], ("byte",)
    design = np.hstack([x, np.ones((len(cols), 1))])
    beta = np.linalg.lstsq(design, cols.verify_time_us.astype(np.float64), rcond=None)[0]
    return {
        "kind": kind,
        "coefficients": dict(zip(names, beta[:-1].tolist())),
        "intercept_us": float(beta[-1]),
    }


def evaluation(t: np.ndarray, t_hat: np.ndarray, n_predictors: int) -> dict:
    n = len(t)
    err = t - t_hat
    mae = np.mean(np.abs(err))
    r2 = 1.0 - np.sum(err**2) / np.sum((t - t.mean()) ** 2)
    max_pred = t_hat.max()
    return {
        "n": n,
        "mae_us": mae,
        "emr": mae / t.mean(),
        "r2": r2,
        "adj_r2": 1.0 - (1.0 - r2) * (n - 1) / (n - n_predictors - 1),
        "max_abs_error_us": np.abs(err).max(),
        "max_prediction_us": max_pred,
        "n_exceeding_max_prediction": int(np.sum(t > max_pred)),
        "mean_observed_us": t.mean(),
    }


_REPORT_FLOATS = ("mae_us", "emr", "r2", "adj_r2", "max_abs_error_us", "max_prediction_us")


def _check_report(got: dict, expected: dict, t: np.ndarray, rtol: float, what: str) -> None:
    if got.get("n") != expected["n"]:
        raise Mismatch(f"{what}: n = {got.get('n')!r}, expected {expected['n']}")
    for key in _REPORT_FLOATS:
        if not isinstance(got.get(key), (int, float)):
            raise Mismatch(f"{what}: {key} missing or not a number")
        _close(got[key], expected[key], rtol, f"{what} {key}")
    # Count against the program's own ceiling so the count is exact.
    exceeding = int(np.sum(t > got["max_prediction_us"]))
    if got.get("n_exceeding_max_prediction") != exceeding:
        raise Mismatch(f"{what}: n_exceeding_max_prediction != {exceeding}")


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_help(stdout: bytes) -> None:
    text = _text(stdout)
    if not text.startswith("usage: joist"):
        raise Mismatch("--help does not start with the usage line")
    for command in ("fetch", "synth", "fit", "predict", "evaluate", "compare", "correlate", "composition"):
        if command not in text:
            raise Mismatch(f"--help does not list {command!r}")


def check_synth(csv: bytes, spec: dict, expected: DatasetColumns | None = None) -> None:
    got = read_dataset_csv(csv, "synth CSV")
    expected = (synth_columns(spec) if expected is None else expected).matrix()
    if got.shape != expected.shape:
        raise Mismatch(f"synth CSV has {got.shape[0]} rows, expected {expected.shape[0]}")
    _equal(got[:, [0, 2, 3, 4, 5, 6]], expected[:, [0, 2, 3, 4, 5, 6]], "synth heights and counts")
    # log and cos may differ from libm by an ulp, which can move a rounding by one.
    off = np.abs(got[:, [1, 7]] - expected[:, [1, 7]])
    if off.max() > 1:
        raise Mismatch(f"synth sizes or times differ from the oracle by up to {off.max()}")


def check_fit(model_json: bytes, cols: DatasetColumns, kind: str) -> None:
    got = _json(model_json, "model file")
    expected = lstsq_model(kind, cols)
    if got.get("kind") != kind or got.get("schema_version") != 1:
        raise Mismatch("model file has the wrong kind or schema_version")
    coefficients = got.get("coefficients")
    if not isinstance(coefficients, dict) or set(coefficients) != set(expected["coefficients"]):
        raise Mismatch("model file has the wrong coefficient names")
    names = sorted(coefficients)
    _close(
        [coefficients[n] for n in names] + [got.get("intercept_us", np.nan)],
        [expected["coefficients"][n] for n in names] + [expected["intercept_us"]],
        FIT_RTOL,
        "fitted coefficients",
    )


def check_evaluate(stdout: bytes, model: dict, cols: DatasetColumns) -> None:
    got = _json(stdout, "evaluate report")
    t = cols.verify_time_us.astype(np.float64)
    expected = evaluation(t, predict(model, cols), len(model["coefficients"]))
    _check_report(got, expected, t, STATS_RTOL, "evaluate")
    _close(got.get("mean_observed_us", np.nan), expected["mean_observed_us"], STATS_RTOL, "evaluate mean")


def check_predict(plot_csv: bytes, line_json: bytes, model: dict, cols: DatasetColumns) -> None:
    table = _table(_lines(plot_csv, "height,measured_us,predicted_us"), 3, np.float64, "plot CSV")
    _equal(table[:, 0], cols.height, "plot heights")
    _equal(table[:, 1], cols.verify_time_us, "plot measured times")
    t_hat = predict(model, cols)
    _close(table[:, 2], t_hat, STATS_RTOL, "plot predictions")
    line = _json(line_json, "regression line")
    slope, intercept = np.polyfit(t_hat, cols.verify_time_us.astype(np.float64), 1)
    _close(
        [line.get("slope", np.nan), line.get("intercept_us", np.nan)],
        [slope, intercept],
        FIT_RTOL,
        "regression line",
    )


def check_compare(stdout: bytes, cols: DatasetColumns, seed: int, n_fit: int) -> None:
    header = "model,split,n,mae_us,emr,r2,adj_r2,max_abs_error_us,max_prediction_us,n_exceeding"
    rows = [line.split(",") for line in _lines(stdout, header)]
    kinds = ("joist", "block_size", "fixed_rate")
    if [r[0] for r in rows] != list(kinds) or any(len(r) != 10 for r in rows):
        raise Mismatch(f"compare rows are not {kinds} with 10 fields each")
    fit_idx, predict_idx = split_indices(len(cols), seed, n_fit)
    fit_set, predict_set = subset(cols, fit_idx), subset(cols, predict_idx)
    t = predict_set.verify_time_us.astype(np.float64)
    baseline = {"kind": "fixed_rate", "coefficients": {"byte": GERVAIS_RATE}, "intercept_us": 0.0}
    for row, kind in zip(rows, kinds):
        model = baseline if kind == "fixed_rate" else lstsq_model(kind, fit_set)
        expected = evaluation(t, predict(model, predict_set), len(model["coefficients"]))
        if row[1] != f"{n_fit}/{len(cols) - n_fit}":
            raise Mismatch(f"compare {kind}: split label {row[1]!r}")
        try:
            got = dict(zip(("n",) + _REPORT_FLOATS, [int(row[2])] + [float(v) for v in row[3:9]]))
            got["n_exceeding_max_prediction"] = int(row[9])
        except ValueError as exc:
            raise Mismatch(f"compare {kind}: unparsable field: {exc}") from exc
        rtol = STATS_RTOL if kind == "fixed_rate" else FIT_RTOL
        _check_report(got, expected, t, rtol, f"compare {kind}")


def check_correlate(stdout: bytes, cols: DatasetColumns) -> None:
    rows = [line.split(",") for line in _lines(stdout, "feature,r")]
    if [r[0] for r in rows] != list(CORRELATION_FEATURES) or any(len(r) != 2 for r in rows):
        raise Mismatch(f"correlate rows are not {CORRELATION_FEATURES}")
    t = cols.verify_time_us.astype(np.float64)
    for (name, value), feature in zip(rows, CORRELATION_FEATURES):
        x = getattr(cols, "n_" + feature).astype(np.float64)
        if np.all(x == x[0]):
            if value != "degenerate":
                raise Mismatch(f"correlate {name}: constant column must read 'degenerate'")
            continue
        try:
            r = float(value)
        except ValueError as exc:
            raise Mismatch(f"correlate {name}: {value!r} is not a number") from exc
        _close(r, np.corrcoef(x, t)[0, 1], STATS_RTOL, f"correlate {name}")


def check_composition(stdout: bytes, cols: DatasetColumns) -> None:
    lines = _lines(stdout, "height,transparent_in,spend_output,joinsplit")
    denom = cols.n_transparent_in + cols.n_spend + cols.n_output + cols.n_joinsplit
    keep = denom > 0
    d = denom[keep]
    shares = np.stack(
        [cols.n_transparent_in[keep] / d, (cols.n_spend + cols.n_output)[keep] / d, cols.n_joinsplit[keep] / d],
        axis=1,
    )
    if not keep.any():
        if lines:
            raise Mismatch("composition emitted rows for a dataset with no verification items")
        return
    if not lines or not lines[-1].startswith("mean,"):
        raise Mismatch("composition output lacks the trailing mean row")
    table = _table(lines[:-1], 4, np.float64, "composition rows")
    _equal(table[:, 0], cols.height[keep], "composition heights")
    _close(table[:, 1:], shares, 1e-15, "composition shares")
    mean = _table([lines[-1].removeprefix("mean,")], 3, np.float64, "composition mean")[0]
    _close(mean, shares.mean(axis=0), STATS_RTOL, "composition means")


def check_fetch(csv: bytes, heights: np.ndarray, counts: dict[str, np.ndarray]) -> None:
    got = read_dataset_csv(csv, "fetch CSV")
    expected = np.stack(
        [
            heights,
            counts["size_bytes"],
            counts["n_transparent_in"],
            counts["n_transparent_out"],
            counts["n_spend"],
            counts["n_output"],
            counts["n_joinsplit"],
            np.zeros(len(heights), dtype=np.int64),
        ],
        axis=1,
    )
    _equal(got, expected, "fetched heights, sizes and counts")


def subset(cols: DatasetColumns, idx: np.ndarray) -> DatasetColumns:
    m = cols.matrix()[idx]
    return DatasetColumns(*(m[:, j] for j in range(8)))
