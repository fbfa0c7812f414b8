"""Residual diagnostics for the pooled attendance model."""

from __future__ import annotations

import math

import numpy as np

from ..errors import InputError, LeagueBalanceError, NumericalError
from .base import FitResult, TestResult
from .ols import check_rank, r_factor
from .tails import chi2_sf, f2_sf, two_sided_normal


def _grid(fit: FitResult) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The fit's countries, its residual grid zero-filled where a country is
    absent, and the presence mask."""
    design = fit.design
    return design.country_list, design.grid.fill(fit.residuals), design.grid.mask


def breusch_pagan_lm(fit: FitResult) -> TestResult:
    """LM test for zero contemporaneous correlation across country equations.

    lambda = sum_{i<j} T_ij * r_ij^2 with r_ij the residual correlation over
    the T_ij overlapping years of countries i and j; chi-squared with one
    degree of freedom per included pair.  Pairs with fewer than 2
    overlapping years are dropped and noted.
    """
    countries, e, mask = _grid(fit)
    if len(countries) < 2:
        raise InputError("LM test needs residuals from at least 2 countries")
    order = np.argsort(countries, kind="stable")
    countries = [countries[j] for j in order]
    e, m = e[:, order], mask[:, order].astype(float)
    overlap = m.T @ m
    cross = e.T @ e
    ss = (e * e).T @ m  # ss[i, j]: sum of e_i^2 over the years shared with j
    i, j = np.triu_indices(len(countries), 1)
    denom = np.sqrt(ss[i, j] * ss[j, i])
    kept = (overlap[i, j] >= 2) & (denom > 0.0)
    if not kept.any():
        raise InputError("no country pair has overlapping residual years")
    r = cross[i, j][kept] / denom[kept]
    lam = float(np.sum(overlap[i, j][kept] * r * r))
    pairs = int(kept.sum())
    skipped = [f"{countries[a]}/{countries[b]}" for a, b in zip(i[~kept], j[~kept])]
    note = f"excluded pairs without overlap: {', '.join(skipped)}" if skipped else ""
    return TestResult(
        name="breusch_pagan_lm",
        statistic=lam,
        df=pairs,
        p_value=chi2_sf(pairs, lam),
        note=note,
    )


def durbin_watson_panel(fit: FitResult) -> TestResult:
    """Pooled Durbin-Watson statistic over the country residual series.

    d = sum_i sum_{t>=2} (e_it - e_i,t-1)^2 / sum_i sum_t e_it^2, with
    differences taken along the years of the residual grid, within
    countries only.  The p-value uses the normal approximation
    d ~ N(2, 4/N) around the no-autocorrelation value.
    """
    countries, e, mask = _grid(fit)
    for country, count in zip(countries, mask.sum(axis=0)):
        if count < 2:
            raise InputError(f"residual series for {country} shorter than 2")
    both = mask[1:] & mask[:-1]
    num = float(np.sum(np.where(both, np.diff(e, axis=0), 0.0) ** 2))
    den = float(np.sum(e * e))
    if den <= 0.0:
        raise NumericalError("degenerate residuals: zero sum of squares")
    d = num / den
    z = abs(d - 2.0) / math.sqrt(4.0 / int(mask.sum()))
    return TestResult(
        name="durbin_watson_panel",
        statistic=d,
        df=None,
        p_value=two_sided_normal(z),
        note="normal approximation around 2",
    )


def jarque_bera_stat(residuals) -> tuple[float, float]:
    """Jarque-Bera statistic and chi2(2) p-value for one residual series."""
    e = np.asarray(residuals, dtype=float).reshape(-1)
    if e.size < 8:
        raise InputError(f"need at least 8 residuals for Jarque-Bera, got {e.size}")
    e = e - e.mean()
    m2 = float(np.mean(e**2))
    if m2 <= 0.0:
        raise NumericalError("degenerate residuals: zero variance")
    skew = float(np.mean(e**3)) / m2**1.5
    kurt = float(np.mean(e**4)) / m2**2
    jb = e.size / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return jb, chi2_sf(2, jb)


def jarque_bera(resid_by_country) -> dict[str, TestResult]:
    """Per-country Jarque-Bera normality tests."""
    out: dict[str, TestResult] = {}
    for country in sorted(resid_by_country):
        try:
            jb, p = jarque_bera_stat(resid_by_country[country])
        except LeagueBalanceError as exc:
            raise type(exc)(f"residuals for {country}: {exc}") from None
        out[country] = TestResult(name=f"jarque_bera[{country}]", statistic=jb, df=2, p_value=p)
    return out


def ramsey_reset(fit: FitResult) -> TestResult:
    """RESET specification test: F-test that the squared and cubed fitted
    values add nothing to the fit's design.

    One R factor of ``[X | z^2 | z^3 | y]``, with z the standardised fitted
    values and k the columns of X, gives both residual sums of squares: the
    unrestricted one is the sum of squares of R's last column from row
    k + 2 down, and the restricted one exceeds it by r[k, -1]^2 +
    r[k+1, -1]^2.  So the numerator is a sum of squares, never negative.
    """
    design = fit.design
    yhat = design.X @ fit.beta
    scale = float(yhat.std())
    if scale == 0.0:
        raise NumericalError("fitted values are constant; RESET undefined")
    k = len(design.columns)
    dof = design.nobs - k - 2
    if dof < 1:
        raise NumericalError(f"not enough rows ({design.nobs}) for RESET's {k + 2} coefficients")
    z = (yhat - yhat.mean()) / scale  # standardised to keep the powers well conditioned
    r = r_factor(np.column_stack([design.X, z**2, z**3, design.y]))
    try:
        check_rank(r, design.columns + ["fitted^2", "fitted^3"])
    except NumericalError as exc:
        raise NumericalError(f"RESET augmentation is collinear with the design: {exc}") from exc
    qty = r[:, -1]
    rss_u = float(qty[k + 2 :] @ qty[k + 2 :])
    f = (float(qty[k] ** 2 + qty[k + 1] ** 2) / 2) / (rss_u / dof)
    return TestResult(
        name="ramsey_reset",
        statistic=f,
        df=(2, dof),
        p_value=f2_sf(dof, f),
    )
