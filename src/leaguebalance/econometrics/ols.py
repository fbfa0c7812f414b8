"""Ordinary least squares on a plain design matrix."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError
from .base import FitResult

_RCOND = 1e-10
_QR_ROWS = 256


def gaussian_loglik(residuals: np.ndarray) -> float:
    """Concentrated Gaussian log-likelihood of a residual vector."""
    n = residuals.size
    rss = float(residuals @ residuals)
    if rss <= 0.0:
        return float("inf")
    return -0.5 * n * (math.log(2.0 * math.pi) + math.log(rss / n) + 1.0)


def qr_solve(X: np.ndarray, y: np.ndarray, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of y on X by QR, and R^-1 (X'X = R'R).

    The triangular factor of ``[X | y]`` is reduced from blocks of at most
    ``_QR_ROWS`` rows (tall-skinny QR); its last column holds Q'y.  Small
    blocks keep each BLAS call single-threaded: on a loaded 2-core host one
    384 x 25 QR that woke BLAS threads made a GLS pass 15 times slower.
    Raises a singular-design error naming the linearly dependent columns
    when X is not of full column rank.
    """
    n, k = X.shape
    if n <= k:
        raise NumericalError(f"not enough rows ({n}) for {k} coefficients")
    r = np.column_stack([X, y])
    rows = max(_QR_ROWS, 2 * (k + 1))
    while r.shape[0] > rows:
        r = np.vstack([np.linalg.qr(r[i : i + rows], mode="r") for i in range(0, r.shape[0], rows)])
    r = np.linalg.qr(r, mode="r")
    diag = np.abs(np.diag(r)[:k])
    # a column in the span of the ones before it leaves a vanishing diagonal
    dependent = [name for name, d in zip(names, diag) if d <= _RCOND * max(diag.max(), 1.0)]
    if dependent:
        raise NumericalError("singular design: dependent columns " + ", ".join(dependent))
    beta = np.linalg.solve(r[:k, :k], r[:k, k])
    return beta, np.linalg.solve(r[:k, :k], np.eye(k))


def ols_fit(y, X, names: list[str] | None = None) -> FitResult:
    """Least-squares fit of y on X with classical covariance.

    Raises a singular-design error naming the linearly dependent columns
    when X is not of full column rank.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise NumericalError(f"design shape {X.shape} does not match response length {y.size}")
    n, k = X.shape
    names = names if names is not None else [f"x{j}" for j in range(k)]

    beta, rinv = qr_solve(X, y, names)
    fitted = X @ beta
    resid = y - fitted
    rss = float(resid @ resid)
    sigma2 = rss / (n - k)
    cov = sigma2 * (rinv @ rinv.T)

    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k) if n > k else float("nan")

    return FitResult(
        coef_names=list(names),
        beta=beta,
        cov=cov,
        residuals=resid,
        fitted=fitted,
        nobs=n,
        k=k,
        loglik=gaussian_loglik(resid),
        r2_adj=r2_adj,
    )
