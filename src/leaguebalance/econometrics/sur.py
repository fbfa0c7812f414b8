"""Pooled estimation with contemporaneously correlated errors across countries.

The attendance equations share slopes across countries (country-specific
intercepts only), so the system collapses to one stacked regression whose
error covariance is block-diagonal by year: within a year, errors of the
countries present are correlated with country-pair covariances estimated
from first-stage residuals over overlapping years.  Iterating the feasible
GLS to convergence gives the maximum-likelihood estimate under normality.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import linalg as sla

from ..errors import InputError, NumericalError
from .base import FitResult
from .design import DesignMatrix
from .ols import ols_fit

_EIG_FLOOR = 1e-10


def _split_residuals(design: DesignMatrix, resid: np.ndarray):
    by_country: dict[str, np.ndarray] = {}
    years: dict[str, np.ndarray] = {}
    for country in design.country_list:
        mask = design.countries == country
        yr = design.years[mask]
        order = np.argsort(yr)
        by_country[country] = resid[mask][order]
        years[country] = yr[order]
    return by_country, years


def pairwise_sigma(
    resid_by_country: dict[str, np.ndarray],
    years_by_country: dict[str, np.ndarray],
    countries: list[str],
) -> np.ndarray:
    """Cross-country residual covariance from overlapping years only."""
    n = len(countries)
    series = {
        c: dict(zip(years_by_country[c].tolist(), resid_by_country[c].tolist()))
        for c in countries
    }
    sigma = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            common = sorted(set(series[countries[i]]) & set(series[countries[j]]))
            if not common:
                continue
            ei = np.array([series[countries[i]][t] for t in common])
            ej = np.array([series[countries[j]][t] for t in common])
            sigma[i, j] = sigma[j, i] = float(ei @ ej) / len(common)
    return sigma


def repair_covariance(sigma: np.ndarray) -> np.ndarray:
    """Floor eigenvalues at 1e-10 so year blocks stay positive definite."""
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("cross-country covariance has non-finite entries; irreparable")
    eigval, eigvec = np.linalg.eigh(sigma)
    if eigval.min() >= _EIG_FLOOR:
        return sigma
    if eigval.max() <= 0.0:
        raise NumericalError("cross-country covariance has no positive eigenvalue; irreparable")
    warnings.warn(
        f"cross-country covariance repaired: eigenvalues floored at {_EIG_FLOOR:g} "
        f"(min was {eigval.min():.3g})",
        stacklevel=2,
    )
    return (eigvec * np.maximum(eigval, _EIG_FLOOR)) @ eigvec.T


def _year_blocks(design: DesignMatrix):
    """Rows grouped by year, ordered by country within the year."""
    country_code = {c: i for i, c in enumerate(design.country_list)}
    codes = np.array([country_code[c] for c in design.countries])
    blocks = []
    for year in np.unique(design.years):
        idx = np.flatnonzero(design.years == year)
        idx = idx[np.argsort(codes[idx])]
        blocks.append((int(year), idx, codes[idx]))
    return blocks


def _gls_pass(design: DesignMatrix, sigma: np.ndarray, blocks):
    k = len(design.columns)
    a = np.zeros((k, k))
    b = np.zeros(k)
    for _, idx, present in blocks:
        omega = sigma[np.ix_(present, present)]
        xt = design.X[idx]
        yt = design.y[idx]
        try:
            cho = sla.cho_factor(omega, lower=True)
        except sla.LinAlgError as exc:
            raise NumericalError(f"year covariance block not positive definite: {exc}") from exc
        oix = sla.cho_solve(cho, xt)
        a += xt.T @ oix
        b += oix.T @ yt
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"GLS normal equations singular: {exc}") from exc
    return beta, a


def _sur_loglik(design: DesignMatrix, sigma: np.ndarray, blocks, resid: np.ndarray) -> float:
    ll = 0.0
    for _, idx, present in blocks:
        omega = sigma[np.ix_(present, present)]
        et = resid[idx]
        cho = sla.cho_factor(omega, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
        ll -= 0.5 * (len(idx) * math.log(2.0 * math.pi) + logdet + float(et @ sla.cho_solve(cho, et)))
    return ll


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
    a: np.ndarray,
    sigma: np.ndarray,
    blocks,
    iterations: int,
    cov_factor: float = 1.0,
) -> FitResult:
    fitted = design.X @ beta
    resid = design.y - fitted
    by_country, years = _split_residuals(design, resid)
    resid_var = {c: float(e @ e) / e.size for c, e in by_country.items()}
    d = np.sqrt(np.diag(sigma))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = sigma / np.outer(d, d)
    corr[~np.isfinite(corr)] = 0.0

    tss = float(np.sum((design.y - design.y.mean()) ** 2))
    rss = float(resid @ resid)
    n, k = design.nobs, len(design.columns)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0

    return FitResult(
        coef_names=list(design.columns),
        beta=beta,
        cov=cov_factor * np.linalg.inv(a),
        residuals=resid,
        fitted=fitted,
        nobs=n,
        k=k,
        loglik=_sur_loglik(design, sigma, blocks, resid),
        r2_adj=1.0 - (1.0 - r2) * (n - 1) / (n - k),
        iterations=iterations,
        residuals_by_country=by_country,
        years_by_country=years,
        resid_var_by_country=resid_var,
        sigma=sigma,
        sigma_countries=list(design.country_list),
        corr=corr,
    )


def sur_egls_fit(
    design: DesignMatrix,
    iterate: bool = True,
    tol: float = 1e-8,
    max_iter: int = 100,
    sigma: np.ndarray | None = None,
) -> FitResult:
    """Feasible GLS for the stacked system with year-blocked error covariance.

    First stage is pooled OLS; the cross-country covariance is estimated
    pairwise over overlapping years, repaired to positive definite if
    needed, and used for GLS.  With ``iterate`` the covariance and
    coefficients are updated until the largest coefficient change falls
    below ``tol`` or ``max_iter`` is hit.  Passing ``sigma`` skips
    estimation and runs a single GLS pass with the given covariance.

    When the covariance is estimated, the classical coefficient covariance
    carries the finite-sample inflation of :func:`_fgls_cov_factor`; with a
    known ``sigma`` the plug-in covariance is exact and used as is.
    """
    if len(design.country_list) < 2:
        raise InputError("system estimation needs at least 2 countries")
    blocks = _year_blocks(design)

    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (len(design.country_list),) * 2:
            raise InputError(
                f"sigma must be {len(design.country_list)}x{len(design.country_list)}"
            )
        beta, a = _gls_pass(design, sigma, blocks)
        return _finalize(design, beta, a, sigma, blocks, iterations=0)

    first = ols_fit(design.y, design.X, design.columns)
    resid = first.residuals
    by_country, years = _split_residuals(design, resid)
    sigma_hat = repair_covariance(pairwise_sigma(by_country, years, design.country_list))

    beta, a = _gls_pass(design, sigma_hat, blocks)
    iterations = 1
    if iterate:
        while iterations < max_iter:
            resid = design.y - design.X @ beta
            by_country, years = _split_residuals(design, resid)
            sigma_hat = repair_covariance(
                pairwise_sigma(by_country, years, design.country_list)
            )
            beta_new, a = _gls_pass(design, sigma_hat, blocks)
            delta = float(np.max(np.abs(beta_new - beta)))
            beta = beta_new
            iterations += 1
            if delta < tol:
                break
    return _finalize(
        design, beta, a, sigma_hat, blocks, iterations=iterations,
        cov_factor=_fgls_cov_factor(design),
    )


def ols_fit_design(design: DesignMatrix) -> FitResult:
    """Pooled OLS on a design, with the per-country residual structure filled in."""
    fit = ols_fit(design.y, design.X, design.columns)
    by_country, years = _split_residuals(design, fit.residuals)
    fit.residuals_by_country = by_country
    fit.years_by_country = years
    fit.resid_var_by_country = {c: float(e @ e) / e.size for c, e in by_country.items()}
    fit.sigma = np.diag([fit.resid_var_by_country[c] for c in design.country_list])
    fit.sigma_countries = list(design.country_list)
    fit.corr = np.eye(len(design.country_list))
    return fit


def white_cross_section_cov(fit: FitResult, design: DesignMatrix) -> np.ndarray:
    """Year-clustered sandwich covariance, robust to cross-country correlation
    and heteroskedasticity.

    V = A^{-1} (sum_t X_t' O^{-1} u_t u_t' O^{-1} X_t) A^{-1} with
    A = sum_t X_t' O^{-1} X_t, where O is the fitted cross-country
    covariance restricted to the countries present in year t.  Raises
    NumericalError when rounding leaves a negative variance on the diagonal.
    """
    if fit.sigma is None or not fit.sigma_countries:
        raise NumericalError("fit carries no cross-country covariance; run the system fit first")
    if fit.residuals is None or fit.residuals.size != design.nobs:
        raise NumericalError("fit residuals do not match the design")
    blocks = _year_blocks(design)
    k = len(design.columns)
    if len(blocks) < k:
        warnings.warn(
            f"only {len(blocks)} years for {k} coefficients: sandwich meat matrix is "
            "rank deficient",
            stacklevel=2,
        )
    a = np.zeros((k, k))
    meat = np.zeros((k, k))
    for _, idx, present in blocks:
        omega = fit.sigma[np.ix_(present, present)]
        cho = sla.cho_factor(omega, lower=True)
        xt = design.X[idx]
        oix = sla.cho_solve(cho, xt)
        a += xt.T @ oix
        score = oix.T @ fit.residuals[idx]
        meat += np.outer(score, score)
    a_inv = np.linalg.inv(a)
    cov = a_inv @ meat @ a_inv
    negative = [name for name, v in zip(design.columns, np.diag(cov)) if v < 0.0]
    if negative:
        raise NumericalError(
            "sandwich covariance has a negative variance for "
            f"{', '.join(negative)}; the GLS normal equations are too ill-conditioned"
        )
    return cov
