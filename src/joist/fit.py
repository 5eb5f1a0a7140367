"""Ordinary-least-squares parameter estimation for the fittable model kinds.

The solve goes through a QR decomposition of the design matrix rather than the
normal equations: block sizes reach megabytes while shielded counts stay in
single digits, and squaring that spread of scales would cost precision exactly
where the small coefficients live. Rank deficiency is a hard error naming the
offending predictors; a silent minimum-norm solution would hand back
meaningless per-operation cost estimates.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import RankDeficiencyError, Record, SampleCountError, UnsupportedKindError
from .features import FEATURE_COLUMNS, Dataset
from .models import PREDICTORS, ModelKind, ModelSpec

# Condition numbers beyond this leave fewer than ~8 trustworthy digits in the
# coefficients; the fit still returns but carries a warning.
_CONDITION_WARN_THRESHOLD = 1e8


class FitResult(Record):
    model: ModelSpec
    n_samples: int
    residual_sum_squares: float
    # Residual-based standard error per coefficient name plus "intercept";
    # None when n == p + 1 leaves no degree of freedom for the residual variance.
    standard_errors: Mapping[str, float] | None
    condition_warning: str | None = None


def design_matrix(kind: ModelKind, ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix (predictor columns plus trailing ones column) and targets."""
    columns = [getattr(ds, FEATURE_COLUMNS[name]) for name in PREDICTORS[kind]]
    x = np.column_stack([*columns, np.ones(len(ds))])
    return x, ds.verify_time_us.astype(np.float64)


def ols_fit(kind: ModelKind, train: Dataset) -> FitResult:
    """Fit *kind*'s coefficients and intercept by least squares on *train*.

    Raises:
        UnsupportedKindError: for the fixed-rate kind, whose rate is a given
            constant rather than a fitted parameter.
        SampleCountError: with fewer samples than predictors + 1.
        RankDeficiencyError: when a predictor column is constant or the design
            matrix is otherwise rank-deficient.
    """
    if kind is ModelKind.FIXED_RATE:
        raise UnsupportedKindError("fixed_rate models are given, not fitted")
    names = PREDICTORS[kind]
    p = len(names)
    params = [*names, "intercept"]
    if len(train) < p + 1:
        raise SampleCountError(f"need at least {p + 1} samples to fit {kind.value}, got {len(train)}")

    x, y = design_matrix(kind, train)

    constant = [names[j] for j in range(p) if np.all(x[:, j] == x[0, j])]
    if constant:
        raise RankDeficiencyError(
            "constant predictor column(s) in training data: " + ", ".join(constant)
        )

    q, r = np.linalg.qr(x, mode="reduced")
    diag = np.abs(np.diag(r))
    tol = np.finfo(np.float64).eps * max(x.shape) * diag.max()
    deficient = [j for j in range(p + 1) if diag[j] <= tol]
    if deficient:
        raise RankDeficiencyError(
            "design matrix is rank-deficient at column(s): " + ", ".join(params[j] for j in deficient)
        )

    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)

    ses = None
    if len(train) > p + 1:
        r_inv = np.linalg.inv(r)
        cov = rss / (len(train) - p - 1) * (r_inv @ r_inv.T)
        ses = dict(zip(params, map(float, np.sqrt(np.diag(cov)))))

    condition = float(diag.max() / diag.min())
    warning = None
    if condition > _CONDITION_WARN_THRESHOLD:
        warning = f"ill-conditioned design matrix (condition estimate {condition:.3e})"

    model = ModelSpec(
        kind=kind,
        coefficients={name: float(b) for name, b in zip(names, beta[:p])},
        intercept_us=float(beta[p]),
    )
    return FitResult(
        model=model,
        n_samples=len(train),
        residual_sum_squares=rss,
        standard_errors=ses,
        condition_warning=warning,
    )

