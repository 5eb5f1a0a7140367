"""Ordinary-least-squares parameter estimation for the fittable model kinds.

The solve goes through a QR decomposition of the design matrix rather than the
normal equations: block sizes reach megabytes while shielded counts stay in
single digits, and squaring that spread of scales would cost precision exactly
where the small coefficients live. Rank deficiency is a hard error naming the
offending predictors; a silent minimum-norm solution would hand back
meaningless per-operation cost estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError, SampleCountError, UnsupportedKindError
from .features import FEATURE_COLUMNS, Dataset
from .models import PREDICTORS, ModelKind, ModelSpec

# Condition numbers beyond this leave fewer than ~8 trustworthy digits in the
# coefficients; the fit still returns but carries a warning.
_CONDITION_WARN_THRESHOLD = 1e8


@dataclass(frozen=True)
class FitResult:
    model: ModelSpec
    n_samples: int
    residual_sum_squares: float
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
        labels = [names[j] if j < p else "intercept" for j in deficient]
        raise RankDeficiencyError(
            "design matrix is rank-deficient at column(s): " + ", ".join(labels)
        )

    beta = np.linalg.solve(r, q.T @ y)
    residuals = y - x @ beta
    rss = float(residuals @ residuals)

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
        condition_warning=warning,
    )


def standard_errors(result: FitResult, train: Dataset) -> dict[str, float]:
    """Residual-based standard errors of the fitted parameters.

    Returns one entry per coefficient name plus ``"intercept"``. *train* must
    be the dataset the fit was computed on.
    """
    names = PREDICTORS[result.model.kind]
    p = len(names)
    n = result.n_samples
    if n <= p + 1:
        raise SampleCountError(f"need n > p + 1 for standard errors (n={n}, p={p})")
    x, _ = design_matrix(result.model.kind, train)
    sigma2 = result.residual_sum_squares / (n - p - 1)
    _, r = np.linalg.qr(x, mode="reduced")
    r_inv = np.linalg.inv(r)
    cov = sigma2 * (r_inv @ r_inv.T)
    ses = np.sqrt(np.diag(cov))
    return {**{name: float(se) for name, se in zip(names, ses[:p])}, "intercept": float(ses[p])}
