"""Least squares by QR: one triangular factor answers every question."""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError

_RCOND = 1e-10
_QR_ROWS = 256


def r_factor(z: np.ndarray) -> np.ndarray:
    """Upper-triangular R of ``z`` = QR, so that z'z = R'R.

    R is reduced from blocks of at most ``_QR_ROWS`` rows (tall-skinny QR).
    Small blocks keep each BLAS call single-threaded: on a loaded 2-core
    host one 384 x 25 QR that woke BLAS threads made a GLS pass 15 times
    slower.  With ``z = [X | y]`` the last column of R holds Q'y, and the
    sum of its squares below row j is the residual sum of squares of y on
    the first j columns of X.
    """
    rows = max(_QR_ROWS, 2 * z.shape[1])
    while z.shape[0] > rows:
        z = np.vstack([np.linalg.qr(z[i : i + rows], mode="r") for i in range(0, z.shape[0], rows)])
    return np.linalg.qr(z, mode="r")


def check_rank(r: np.ndarray, names: list[str]) -> None:
    """Raise a singular-design error naming the columns whose diagonal in R
    vanishes: a column in the span of the ones before it."""
    diag = np.abs(np.diag(r)[: len(names)])
    tol = _RCOND * max(diag.max(), 1.0)
    dependent = [name for name, d in zip(names, diag) if d <= tol]
    if dependent:
        raise NumericalError("singular design: dependent columns " + ", ".join(dependent))


def qr_solve(X: np.ndarray, y: np.ndarray, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of y on X by QR, and the R factor of
    ``[X | y]``, whose leading k x k block R_X gives X'X = R_X'R_X.

    Raises a singular-design error naming the linearly dependent columns
    when X is not of full column rank.
    """
    n, k = X.shape
    if n <= k:
        raise NumericalError(f"not enough rows ({n}) for {k} coefficients")
    r = r_factor(np.column_stack([X, y]))
    check_rank(r, names)
    return np.linalg.solve(r[:k, :k], r[:k, k]), r


def r_inverse(r: np.ndarray, k: int) -> np.ndarray:
    """R_X^-1 for the leading k x k block R_X of an R factor, so that
    (X'X)^-1 = R_X^-1 R_X^-T."""
    return np.linalg.solve(r[:k, :k], np.eye(k))
