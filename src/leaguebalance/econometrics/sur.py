"""Pooled estimation with contemporaneously correlated errors across countries.

The attendance equations share slopes across countries (country-specific
intercepts only), so the system collapses to one stacked regression whose
error covariance is block-diagonal by year: within a year, errors of the
countries present are correlated with country-pair covariances estimated
from residuals over overlapping years (Schmidt 1977).  The design carries
the dense (years, countries) grid of its rows; years sharing a presence
pattern share a covariance block.  Each GLS pass factors the blocks of all
patterns in one batched Cholesky call, padded to a common size, whitens
``[X | y]`` on the grid with one batched product and solves the whitened
system by QR.

On a balanced panel, iterating the feasible GLS to convergence gives the
maximum-likelihood estimate under normality (Oberhofer & Kmenta 1974).  On
an unbalanced panel the pairwise estimate is not ML and the iteration may
not converge; such a fit records ``converged=False``.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import InputError, NumericalError
from .base import FitResult
from .design import DesignMatrix, YearGrid
from .ols import qr_solve, r_inverse

_EIG_FLOOR = 1e-10


def pairwise_sigma(resid: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Cross-country residual covariance from overlapping years only.

    ``resid`` is a (years, countries) residual grid and ``mask`` marks the
    cells where a country is present.  With E the grid zero-filled outside
    the mask and M the mask, the covariance is E'E / M'M elementwise: the
    mean of e_i e_j over the years both countries are present, 0 for a
    pair that never overlaps.
    """
    e = np.where(mask, resid, 0.0)
    m = mask.astype(float)
    overlap = m.T @ m
    cross = e.T @ e
    return np.divide(cross, overlap, out=np.zeros_like(cross), where=overlap > 0)


def repair_covariance(sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """Floor eigenvalues at 1e-10 so year blocks stay positive definite;
    returns the floored covariance and the smallest eigenvalue of ``sigma``."""
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("cross-country covariance has non-finite entries; irreparable")
    eigval, eigvec = np.linalg.eigh(sigma)
    eig_min = float(eigval.min())
    if eig_min >= _EIG_FLOOR:
        return sigma, eig_min
    if eigval.max() <= 0.0:
        raise NumericalError("cross-country covariance has no positive eigenvalue; irreparable")
    return (eigvec * np.maximum(eigval, _EIG_FLOOR)) @ eigvec.T, eig_min


def _whiten(grid: YearGrid, zgrid: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The (years, countries, m) grid ``zgrid``, zero where a country is
    absent, premultiplied year by year by L^-1, with L L' the block of
    ``sigma`` for the countries present.

    Each presence pattern's block is padded to n x n with 1 on the diagonal
    of every absent country, so one Cholesky call and one inverse serve all
    patterns; the padding leaves the absent rows of the result exactly 0.
    """
    pair_mask = grid.pattern_masks[:, :, None] & grid.pattern_masks[:, None, :]
    try:
        chol = np.linalg.cholesky(np.where(pair_mask, sigma, np.eye(sigma.shape[0])))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"year covariance block not positive definite: {exc}") from exc
    return np.matmul(np.linalg.inv(chol)[grid.pattern_of_year], zgrid)


def _gls(grid: YearGrid, zgrid: np.ndarray, sigma: np.ndarray, names: list[str]):
    """GLS coefficients and the R factor of the whitened ``[X | y]``;
    ``zgrid`` is ``[X | y]`` on the grid."""
    white = _whiten(grid, zgrid, sigma)[grid.mask]
    return qr_solve(white[:, :-1], white[:, -1], names)


def _fgls_cov_factor(design: DesignMatrix) -> float:
    """Finite-sample inflation for the feasible-GLS plug-in covariance.

    Inverting an n x n covariance estimated from roughly T years overstates
    precision (the mean of an inverse Wishart carries the factor
    T/(T-n-1)), and residual cross-products shrink by (N-k)/N; both push
    the naive (X' Omega^-1 X)^-1 below the true sampling variance.
    """
    n = len(design.country_list)
    k = len(design.columns)
    t_bar = design.nobs / n
    factor = design.nobs / max(design.nobs - k, 1)
    if t_bar > n + 2:
        factor *= t_bar / (t_bar - n - 1)
    else:
        warnings.warn(
            f"too few years per country ({t_bar:.1f}) for the {n}x{n} covariance "
            "correction; classical covariance is likely optimistic",
            stacklevel=3,
        )
    return factor


def _finalize(
    design: DesignMatrix,
    beta: np.ndarray,
    r: np.ndarray,
    sigma: np.ndarray,
    cov_factor: float,
    **status,
) -> FitResult:
    """Result of a GLS fit with R factor ``r`` of the whitened ``[X | y]``;
    ``status`` sets iterations, converged, final_delta."""
    resid = design.y - design.X @ beta
    tss = float(np.sum((design.y - design.y.mean()) ** 2))
    rss = float(resid @ resid)
    n, k = design.nobs, len(design.columns)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    rinv = r_inverse(r, k)

    return FitResult(
        design=design,
        beta=beta,
        cov=cov_factor * (rinv @ rinv.T),
        residuals=resid,
        r2_adj=1.0 - (1.0 - r2) * (n - 1) / (n - k),
        sigma=sigma,
        **status,
    )


def sur_egls_fit(
    design: DesignMatrix,
    iterate: bool = True,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> FitResult:
    """Feasible GLS for the stacked system with year-blocked error covariance.

    First stage is pooled OLS; the cross-country covariance is estimated
    pairwise over overlapping years, repaired to positive definite if
    needed, and used for GLS.  With ``iterate`` the covariance and
    coefficients are updated until the largest coefficient change falls
    below ``tol`` or ``max_iter`` is hit; stopping at ``max_iter`` warns
    and leaves ``converged`` False.  A fit whose covariance needed repair
    warns once, with the number of GLS passes that repaired it.

    The classical coefficient covariance carries the finite-sample
    inflation of :func:`_fgls_cov_factor`.
    """
    if len(design.country_list) < 2:
        raise InputError("system estimation needs at least 2 countries")
    grid = design.grid
    zgrid = grid.fill(np.column_stack([design.X, design.y]))

    beta, _ = qr_solve(design.X, design.y, design.columns)
    floored = []  # the smallest eigenvalue of each repaired covariance
    passes = max_iter if iterate else 1
    iterations, delta = 0, float("nan")
    while True:
        resid = design.y - design.X @ beta
        sigma_hat, eig_min = repair_covariance(pairwise_sigma(grid.fill(resid), grid.mask))
        if eig_min < _EIG_FLOOR:
            floored.append(eig_min)
        beta_new, r = _gls(grid, zgrid, sigma_hat, design.columns)
        if iterations:
            delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        iterations += 1
        if delta < tol or iterations >= passes:
            break
    converged = delta < tol or not iterate
    if floored:
        warnings.warn(
            f"cross-country covariance repaired in {len(floored)} of {iterations} GLS "
            f"passes: eigenvalues floored at {_EIG_FLOOR:g} (smallest was {min(floored):.3g})",
            stacklevel=2,
        )
    if not converged:
        warnings.warn(
            f"SUR iteration stopped at max_iter={max_iter} without converging: "
            f"last coefficient change {delta:.3g} (tol {tol:g})",
            stacklevel=2,
        )
    return _finalize(
        design, beta, r, sigma_hat, _fgls_cov_factor(design),
        iterations=iterations, converged=converged, final_delta=delta,
    )


def white_cross_section_cov(fit: FitResult) -> np.ndarray:
    """Year-clustered sandwich covariance, robust to cross-country correlation
    and heteroskedasticity.

    V = A^{-1} (sum_t X_t' O^{-1} u_t u_t' O^{-1} X_t) A^{-1} with
    A = sum_t X_t' O^{-1} X_t, where O is the fitted cross-country
    covariance restricted to the countries present in year t, X the fit's
    design and u its residuals.  With ``[X | u]`` whitened as in GLS,
    A = R'R and the year-t score is the sum of whitened X times whitened u
    over that year; stacking the scores as S gives V = B'B with
    B = S R^-1 R^-T, so no variance is negative.
    """
    design = fit.design
    grid = design.grid
    k = len(design.columns)
    if grid.row.shape[0] < k:
        warnings.warn(
            f"only {grid.row.shape[0]} years for {k} coefficients: sandwich meat matrix is "
            "rank deficient",
            stacklevel=2,
        )
    white = _whiten(grid, grid.fill(np.column_stack([design.X, fit.residuals])), fit.sigma)
    rinv = r_inverse(np.linalg.qr(white[grid.mask], mode="r"), k)
    scores = np.einsum("tck,tc->tk", white[..., :k], white[..., k])
    half = scores @ rinv @ rinv.T
    return half.T @ half
