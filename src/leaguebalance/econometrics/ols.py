"""Least squares by QR: one triangular factor answers every question.

Each caller factors its whole matrix with ``np.linalg.qr(z, mode="r")``.
With ``z = [X | y]`` the last column of R holds Q'y, and the sum of its
squares below row j is the residual sum of squares of y on the first j
columns of X.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError

_RCOND = 1e-10


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
    r = np.linalg.qr(np.column_stack([X, y]), mode="r")
    check_rank(r, names)
    return np.linalg.solve(r[:k, :k], r[:k, k]), r


def r_inverse(r: np.ndarray, k: int) -> np.ndarray:
    """R_X^-1 for the leading k x k block R_X of an R factor, so that
    (X'X)^-1 = R_X^-1 R_X^-T."""
    return np.linalg.solve(r[:k, :k], np.eye(k))
