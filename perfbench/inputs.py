"""Benchmark inputs, drawn from the benchmark's own numpy generator.

Nothing here imports joist: a change to the program cannot change its inputs.
Count ranges follow the default synthetic recipe of the test suite.
"""

from __future__ import annotations

import json

import numpy as np

CSV_HEADER = "height,size_bytes,n_transparent_in,n_transparent_out,n_spend,n_output,n_joinsplit,verify_time_us"

# Predictor order of the joist model kind, with the test suite's default ranges.
PREDICTORS = ("joinsplit", "output", "transparent_in", "spend")
COUNT_RANGES = {"joinsplit": (0, 5), "output": (0, 20), "transparent_in": (0, 200), "spend": (0, 10)}
TRUE_COEFFICIENTS = {"joinsplit": 5359.0, "output": 5727.0, "transparent_in": 61.0, "spend": 16913.0}
TRUE_INTERCEPT_US = 4469.0
NOISE_SIGMA_US = 2000.0

# Bytes per component used to give the benchmark's blocks a plausible size.
_SIZE_BYTES = {"joinsplit": 1802, "output": 948, "transparent_in": 150, "spend": 384}


class DatasetColumns:
    """The eight dataset columns as int64 arrays, in CSV order."""

    def __init__(self, height, size_bytes, n_in, n_out, n_spend, n_output, n_js, time_us):
        self.height = height
        self.size_bytes = size_bytes
        self.n_transparent_in = n_in
        self.n_transparent_out = n_out
        self.n_spend = n_spend
        self.n_output = n_output
        self.n_joinsplit = n_js
        self.verify_time_us = time_us

    def matrix(self) -> np.ndarray:
        return np.stack(
            [
                self.height,
                self.size_bytes,
                self.n_transparent_in,
                self.n_transparent_out,
                self.n_spend,
                self.n_output,
                self.n_joinsplit,
                self.verify_time_us,
            ],
            axis=1,
        )

    def __len__(self) -> int:
        return len(self.height)


def make_dataset(n_rows: int, seed: int) -> DatasetColumns:
    """A dataset drawn from the ground-truth model with gaussian noise.

    Heights have random gaps so the file does not look like 1..n; every time
    is at least 1 and every size positive, so the program accepts the file.
    """
    rng = np.random.default_rng([seed, n_rows])
    counts = {name: rng.integers(lo, hi + 1, n_rows) for name, (lo, hi) in COUNT_RANGES.items()}
    exact = TRUE_INTERCEPT_US + sum(TRUE_COEFFICIENTS[n] * counts[n] for n in PREDICTORS)
    time_us = np.maximum(1, np.rint(exact + rng.normal(0.0, NOISE_SIGMA_US, n_rows))).astype(np.int64)
    affine = 1000 + sum(_SIZE_BYTES[n] * counts[n] for n in PREDICTORS)
    size = np.maximum(1, np.rint(affine * (1.0 + 0.05 * rng.normal(size=n_rows)))).astype(np.int64)
    height = 400_000 + np.cumsum(rng.integers(1, 4, n_rows)).astype(np.int64)
    n_in = counts["transparent_in"].astype(np.int64)
    n_out = n_in + rng.integers(0, 3, n_rows)
    return DatasetColumns(
        height,
        size,
        n_in,
        n_out.astype(np.int64),
        counts["spend"].astype(np.int64),
        counts["output"].astype(np.int64),
        counts["joinsplit"].astype(np.int64),
        time_us,
    )


def csv_text(cols: DatasetColumns) -> str:
    """The dataset in the program's interchange CSV format."""
    m = cols.matrix().astype(str)
    body = "\n".join(",".join(row) for row in m.tolist())
    return CSV_HEADER + "\n" + body + "\n"


def model_doc(seed: int) -> dict:
    """A fixed-form joist model file, its values perturbed by the seed."""
    rng = np.random.default_rng([seed, 17])
    jitter = rng.uniform(0.9, 1.1, len(PREDICTORS) + 1)
    return {
        "kind": "joist",
        "coefficients": {n: float(TRUE_COEFFICIENTS[n] * j) for n, j in zip(PREDICTORS, jitter)},
        "intercept_us": float(TRUE_INTERCEPT_US * jitter[-1]),
        "schema_version": 1,
    }


def synth_spec_doc(n_blocks: int, seed: int) -> dict:
    """A synthesis recipe with the test suite's default count ranges."""
    return {
        "true_model": {
            "kind": "joist",
            "coefficients": dict(TRUE_COEFFICIENTS),
            "intercept_us": TRUE_INTERCEPT_US,
            "schema_version": 1,
        },
        "noise_sigma_us": NOISE_SIGMA_US,
        "count_ranges": {n: list(r) for n, r in COUNT_RANGES.items()},
        "n_blocks": n_blocks,
        "seed": seed,
    }


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
