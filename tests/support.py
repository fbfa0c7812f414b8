"""Shared builders for synthetic league tables and fits used across the test suite."""

from __future__ import annotations

import csv
import io
import math
import re
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from leaguebalance.econometrics import DesignMatrix, FitResult, RegressionSpec
from leaguebalance.econometrics.design import COVARIATES, YearGrid
from leaguebalance.econometrics.ols import qr_solve, r_inverse
from leaguebalance.econometrics.sur import _finalize, _gls, pairwise_sigma
from leaguebalance.econometrics.unitroot import ADF_CASES
from leaguebalance.catalog import IndexValue, check_index_value
from leaguebalance.errors import InputError, NumericalError
from leaguebalance.panel import (
    D97_CUTOFF,
    INDEX_COLUMNS,
    LEAGUE_COLUMNS,
    MACRO_COLUMNS,
    Config,
    LeagueSeason,
    MacroObservation,
    PanelDataset,
    TeamSeasonRecord,
)

HOME, DRAW, AWAY = 0, 1, 2


def drr_matches(n: int) -> list[tuple[int, int]]:
    """Ordered (home, away) pairs of a double round robin: each pair twice."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def season_from_outcomes(
    outcomes,
    country: str = "SIM",
    season: int = 2000,
    K: int = 1,
    I: int = 1,
) -> LeagueSeason:
    """League season implied by one outcome assignment of a double round robin.

    ``outcomes[m]`` is 0 (home win), 1 (draw) or 2 (away win) for the m-th
    match of :func:`drr_matches`.  Teams are ranked by win points (2-1-0),
    ties broken by team id.
    """
    outcomes = list(outcomes)
    n = round((1 + (1 + 4 * len(outcomes)) ** 0.5) / 2)
    assert n * (n - 1) == len(outcomes)
    wins = [0] * n
    draws = [0] * n
    losses = [0] * n
    for (home, away), res in zip(drr_matches(n), outcomes):
        if res == HOME:
            wins[home] += 1
            losses[away] += 1
        elif res == AWAY:
            wins[away] += 1
            losses[home] += 1
        else:
            draws[home] += 1
            draws[away] += 1
    order = sorted(range(n), key=lambda i: (-(2 * wins[i] + draws[i]), i))
    records = tuple(
        TeamSeasonRecord(
            team=f"T{i}",
            rank=r + 1,
            wins=wins[i],
            draws=draws[i],
            losses=losses[i],
            points=2 * wins[i] + draws[i],
        )
        for r, i in enumerate(order)
    )
    return LeagueSeason(country=country, season=season, records=records, K=K, I=I)


def all_draw_season(n: int, country: str = "SIM", season: int = 2000, K: int = 1, I: int = 1):
    """Complete double round robin in which every match is drawn."""
    g = 2 * (n - 1)
    records = tuple(
        TeamSeasonRecord(team=f"T{i}", rank=i + 1, wins=0, draws=g, losses=0, points=g)
        for i in range(n)
    )
    return LeagueSeason(country=country, season=season, records=records, K=K, I=I)


def cu_season(n: int, country: str = "SIM", season: int = 2000, K: int = 1, I: int = 1):
    """Completely unbalanced season: rank i beats all lower-ranked teams twice."""
    records = tuple(
        TeamSeasonRecord(
            team=f"T{i}",
            rank=i + 1,
            wins=2 * (n - 1 - i),
            draws=0,
            losses=2 * i,
            points=4 * (n - 1 - i),
        )
        for i in range(n)
    )
    return LeagueSeason(country=country, season=season, records=records, K=K, I=I)


def relabel(season: LeagueSeason, mapping) -> LeagueSeason:
    """Same table with team ids renamed through ``mapping``."""
    records = tuple(
        TeamSeasonRecord(
            team=mapping[r.team],
            rank=r.rank,
            wins=r.wins,
            draws=r.draws,
            losses=r.losses,
            points=r.points,
        )
        for r in season.records
    )
    return LeagueSeason(
        country=season.country,
        season=season.season,
        records=records,
        K=season.K,
        I=season.I,
    )


def reranked(season: LeagueSeason, new_order, season_year=None) -> LeagueSeason:
    """Season with the same teams placed at ranks given by ``new_order``.

    ``new_order[r]`` is the team (old record index) that ends up at rank r+1.
    W/D/L are taken from a completely unbalanced pattern for the new ranks so
    the table stays internally consistent.
    """
    n = season.n
    teams = [season.records[i].team for i in new_order]
    records = tuple(
        TeamSeasonRecord(
            team=teams[r],
            rank=r + 1,
            wins=2 * (n - 1 - r),
            draws=0,
            losses=2 * r,
            points=4 * (n - 1 - r),
        )
        for r in range(n)
    )
    return LeagueSeason(
        country=season.country,
        season=season.season + 1 if season_year is None else season_year,
        records=records,
        K=season.K,
        I=season.I,
    )


def random_outcomes(n: int, rng: np.random.Generator):
    return rng.integers(0, 3, size=n * (n - 1))


def _sample_match(rng: np.random.Generator, s_home: float, s_away: float, theta: float) -> int:
    d = s_home - s_away
    if math.isinf(theta):
        if d == 0.0:
            return DRAW
        return HOME if d > 0 else AWAY
    p_draw = math.exp(-theta * abs(d))
    p_home = (1.0 - p_draw) / (1.0 + math.exp(-theta * d))
    u = rng.random()
    if u < p_draw:
        return DRAW
    return HOME if u < p_draw + p_home else AWAY


def simulate_league_reference(params, seed: int = 0) -> list[LeagueSeason]:
    """``simulate_league`` played one match at a time, with a per-team
    strength that promoted teams inherit; ``math.exp`` overflows above a
    dispersion of about 709."""
    n = params.n_teams
    teams = [f"T{i:02d}" for i in range(n)]
    strength = {team: (n - 1.0 - i) / (n - 1.0) for i, team in enumerate(teams)}
    fresh = 0
    out: list[LeagueSeason] = []
    for s_idx in range(params.n_seasons):
        rng = np.random.default_rng([seed, s_idx])
        wins = {t: 0 for t in teams}
        draws = {t: 0 for t in teams}
        losses = {t: 0 for t in teams}
        for home in teams:
            for away in teams:
                if home == away:
                    continue
                res = _sample_match(rng, strength[home], strength[away], params.dispersion)
                if res == HOME:
                    wins[home] += 1
                    losses[away] += 1
                elif res == AWAY:
                    wins[away] += 1
                    losses[home] += 1
                else:
                    draws[home] += 1
                    draws[away] += 1
        order = sorted(teams, key=lambda t: (-(2 * wins[t] + draws[t]), t))
        records = tuple(
            TeamSeasonRecord(
                team=t, rank=r + 1, wins=wins[t], draws=draws[t], losses=losses[t],
                points=2 * wins[t] + draws[t],
            )
            for r, t in enumerate(order)
        )
        out.append(
            LeagueSeason(
                country=params.country, season=params.start_season + s_idx, records=records,
                K=params.K, I=params.I,
            )
        )
        for t in order[n - params.churn :]:
            new_team = f"N{fresh:03d}"
            fresh += 1
            strength[new_team] = strength.pop(t)
            teams[teams.index(t)] = new_team
    return out


def fit_from_residuals(resid_by_country: dict[str, np.ndarray], years_by_country=None) -> FitResult:
    """Minimal FitResult wrapping given residual series.  Its design has no
    columns; the design's grid places the series on the year x country grid.

    ``years_by_country`` gives each series' years, by default 0, 1, 2, ...
    """
    countries = list(resid_by_country)
    series = {c: np.asarray(e, dtype=float) for c, e in resid_by_country.items()}
    years = {c: np.arange(series[c].size) for c in countries}
    years.update({c: np.asarray(y) for c, y in (years_by_country or {}).items()})
    stacked = np.concatenate([series[c] for c in countries])
    design = labelled_design(
        y=stacked,
        X=np.empty((stacked.size, 0)),
        columns=[],
        countries=[c for c in countries for _ in range(series[c].size)],
        years=np.concatenate([years[c] for c in countries]),
        country_list=countries,
    )
    return one_pass_fit(design, np.empty(0), np.empty((0, 0)), stacked)


def one_pass_fit(design: DesignMatrix, beta, cov, residuals) -> FitResult:
    """A converged one-pass fit whose cross-country covariance is the
    pairwise one of its residuals."""
    sigma = pairwise_sigma(design.grid.fill(residuals), design.grid.mask)
    return FitResult(design, beta, cov, residuals, sigma=sigma, converged=True)


def with_fields(fit: FitResult, **changes) -> FitResult:
    """A copy of ``fit`` with the given fields replaced."""
    return FitResult(**{**vars(fit), **changes})


def pairwise_oracle(resid_by_country, years_by_country):
    """Per-pair loop reference for the grid computations: pairwise covariance,
    Breusch-Pagan LM (statistic, df, note) and panel Durbin-Watson.

    Countries are taken in sorted order; every series must be sorted by year
    and contiguous.
    """
    countries = sorted(resid_by_country)
    series = {
        c: dict(zip(np.asarray(years_by_country[c]).tolist(), np.asarray(resid_by_country[c]).tolist()))
        for c in countries
    }
    n = len(countries)
    sigma = np.zeros((n, n))
    lam, pairs, skipped = 0.0, 0, []
    for i in range(n):
        for j in range(i, n):
            common = sorted(set(series[countries[i]]) & set(series[countries[j]]))
            ei = np.array([series[countries[i]][t] for t in common])
            ej = np.array([series[countries[j]][t] for t in common])
            if common:
                sigma[i, j] = sigma[j, i] = float(ei @ ej) / len(common)
            if i == j:
                continue
            denom = float(np.sqrt(float(ei @ ei) * float(ej @ ej))) if common else 0.0
            if len(common) < 2 or denom == 0.0:
                skipped.append(f"{countries[i]}/{countries[j]}")
                continue
            r = float(ei @ ej) / denom
            lam += len(common) * r * r
            pairs += 1
    num = sum(float(np.sum(np.diff(resid_by_country[c]) ** 2)) for c in countries)
    den = sum(float(np.asarray(resid_by_country[c]) @ np.asarray(resid_by_country[c])) for c in countries)
    note = f"excluded pairs without overlap: {', '.join(skipped)}" if skipped else ""
    return {"countries": countries, "sigma": sigma, "lm": lam, "df": pairs, "note": note,
            "dw": num / den if den > 0.0 else float("nan")}


def dgp_design(seed: int = 0, params=None, **spec_kw):
    """Design matrix built from one DGP replication."""
    from leaguebalance.econometrics import RegressionSpec, build_adl_design
    from leaguebalance.panel import build_panel
    from leaguebalance.pipeline import series_from_values
    from leaguebalance.simulate import simulate_dgp

    sim = simulate_dgp(params, seed=seed)
    panel = build_panel(sim.macro)
    index_name = sim.indices[0].name
    spec = RegressionSpec(index_name=index_name, **spec_kw)
    design = build_adl_design(panel, series_from_values(sim.indices, index_name), spec)
    return design, sim, spec


def _aligned_series(panel: PanelDataset, index_series, spec: RegressionSpec):
    """Per-country arrays of the panel's seasons, trend, d97 and logs,
    trimmed to the index coverage, with the design's alignment checks."""
    seasons = panel.seasons.tolist()
    out = {}
    for j, country in enumerate(panel.countries):
        rows = np.flatnonzero(panel.present[:, j]).tolist()
        have = [i for i in rows if (country, seasons[i]) in index_series]
        if len(have) < spec.adl_order + 1:
            raise InputError(
                f"alignment error: index {spec.index_name!r} covers only {len(have)} "
                f"season(s) of {country}, need at least {spec.adl_order + 1}"
            )
        for a, b in zip(have, have[1:]):
            if seasons[b] != seasons[a] + 1:
                raise InputError(
                    f"alignment error: index {spec.index_name!r} has a gap for {country} "
                    f"between {seasons[a]} and {seasons[b]}"
                )
        ln_cb = []
        for i in have:
            value = index_series[(country, seasons[i])]
            if value <= 0.0:
                raise InputError(
                    f"log-domain error: index {spec.index_name!r} is {value} "
                    f"for ({country}, {seasons[i]})"
                )
            ln_cb.append(math.log(value))
        out[country] = {
            "season": np.array([seasons[i] for i in have]),
            "t": np.array([seasons[i] - seasons[0] + 1 for i in have], dtype=float),
            "d97": np.array([int(seasons[i] > D97_CUTOFF) for i in have], dtype=float),
            "cb": np.array(ln_cb),
            "att": np.array([float(panel.ln_att[i, j]) for i in have]),
            "pop": np.array([float(panel.ln_pop[i, j]) for i in have]),
            "rgni": np.array([float(panel.ln_rgni[i, j]) for i in have]),
            "un": np.array([float(panel.ln_un[i, j]) for i in have]),
        }
    return out, list(panel.countries)


def _deterministic_block(data, sl, spec: RegressionSpec) -> list[np.ndarray]:
    """d97 and the trend powers of one country, in ``deterministic_columns`` order."""
    d97 = [data["d97"][sl]] if spec.include_d97 else []
    return d97 + [data["t"][sl] ** g for g in range(1, spec.trend_degree + 1)]


def year_grid_reference(countries, years, country_list):
    """The (years, countries) grid worked out from per-row labels: the
    distinct years ascending, ``row[t, j]`` the row of year t and country j
    (-1 where absent), the presence mask, the distinct mask rows in
    ``np.unique`` order and the index of each year's row among them.  The
    reference for the grid ``build_adl_design`` hands to its
    ``DesignMatrix``."""
    years_out, t_idx = np.unique(np.asarray(years), return_inverse=True)
    code = {c: j for j, c in enumerate(country_list)}
    c_idx = np.array([code[c] for c in list(countries)], dtype=int)
    row = np.full((years_out.size, len(code)), -1)
    row[t_idx.reshape(-1), c_idx] = np.arange(c_idx.size)
    mask = row >= 0
    if np.count_nonzero(mask) != c_idx.size:
        raise InputError("design has more than one row for a (country, year)")
    keys, which = np.unique(mask, axis=0, return_inverse=True)
    return years_out, row, mask, keys, which.reshape(-1)


def labelled_design(y, X, columns, countries, years, country_list) -> DesignMatrix:
    """A ``DesignMatrix`` from per-row country and year labels."""
    grid_years, row, *_ = year_grid_reference(countries, years, country_list)
    return DesignMatrix(
        y=y, X=X, columns=columns, country_list=list(country_list),
        grid=YearGrid(grid_years, row),
    )


def gaussian_loglik(residuals: np.ndarray) -> float:
    """Concentrated Gaussian log-likelihood of a residual vector."""
    n = residuals.size
    rss = float(residuals @ residuals)
    if rss <= 0.0:
        return float("inf")
    return -0.5 * n * (math.log(2.0 * math.pi) + math.log(rss / n) + 1.0)


def ols_fit(y, X, names: list[str] | None = None) -> FitResult:
    """Least-squares fit of y on X with classical covariance, carrying a
    one-country design whose rows are the years 0, 1, 2, ...

    Raises a singular-design error naming the linearly dependent columns
    when X is not of full column rank.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise NumericalError(f"design shape {X.shape} does not match response length {y.size}")
    n, k = X.shape
    names = names if names is not None else [f"x{j}" for j in range(k)]
    beta, r = qr_solve(X, y, names)
    rinv = r_inverse(r, k)
    resid = y - X @ beta
    sigma2 = float(resid @ resid) / (n - k)
    return one_pass_fit(
        labelled_design(y, X, list(names), ["A"] * n, np.arange(n), ["A"]),
        beta,
        sigma2 * (rinv @ rinv.T),
        resid,
    )


def ols_fit_design(design: DesignMatrix) -> FitResult:
    """Pooled OLS on a design, carrying the design and the diagonal
    cross-country covariance."""
    fit = ols_fit(design.y, design.X, design.columns)
    sigma = pairwise_sigma(design.grid.fill(fit.residuals), design.grid.mask)
    return with_fields(fit, design=design, sigma=np.diag(np.diag(sigma)))


def known_sigma_gls(design: DesignMatrix, sigma: np.ndarray) -> FitResult:
    """One GLS pass of ``design`` with a given cross-country covariance.

    With ``sigma`` known the plug-in covariance (X' O^-1 X)^-1 is exact, so
    the fit carries no finite-sample factor.
    """
    zgrid = design.grid.fill(np.column_stack([design.X, design.y]))
    beta, r = _gls(design.grid, zgrid, sigma, design.columns)
    return _finalize(design, beta, r, sigma, 1.0, converged=True)


def _stacked(data, countries, spec, var_names, country_columns) -> DesignMatrix:
    """Stack per-country (response, columns) blocks below intercept dummies;
    a d97 column without both values is an input error."""
    q = spec.adl_order
    y_parts, x_parts, country_rows, year_rows = [], [], [], []
    for ci, country in enumerate(countries):
        d = data[country]
        n = d["season"].size
        rows = n - q
        cols = [np.full(rows, 1.0 if cj == ci else 0.0) for cj in range(len(countries))]
        y, more = country_columns(d, n)
        cols.extend(more)
        cols.extend(_deterministic_block(d, slice(q, n), spec))
        y_parts.append(y)
        x_parts.append(np.column_stack(cols))
        country_rows.append(np.full(rows, country, dtype=object))
        year_rows.append(d["season"][q:])
    years = np.concatenate(year_rows).astype(int)
    d97 = {v for c in countries for v in data[c]["d97"][q:].tolist()}
    if spec.include_d97 and len(d97) == 1:
        side = "after" if d97 == {1.0} else "in or before"
        raise InputError(
            f"d97 is constant: the design's seasons {years.min()}-{years.max()} all lie "
            f"{side} {D97_CUTOFF}, where d97 cuts; leave d97 out (--no-d97)"
        )
    return labelled_design(
        y=np.concatenate(y_parts),
        X=np.vstack(x_parts),
        columns=[f"const[{c}]" for c in countries] + var_names + spec.deterministic_columns(),
        countries=np.concatenate(country_rows),
        years=years,
        country_list=countries,
    )


def adl_design_reference(panel: PanelDataset, index_series, spec: RegressionSpec) -> DesignMatrix:
    """Per-country reference for ``build_adl_design``: each country's series
    trimmed to its index coverage, its columns sliced from them, and the
    country blocks stacked."""
    q = spec.adl_order
    data, countries = _aligned_series(panel, index_series, spec)
    var_names: list[str] = []
    for v in COVARIATES:
        var_names += [f"ln_{v}_lag1", f"d_ln_{v}"] + [f"d_ln_{v}_lag{l}" for l in range(1, q)]
    var_names += ["ln_att_lag1"] + [f"d_ln_att_lag{l}" for l in range(1, q)]

    def country_columns(d, n):
        cols = []
        for v in COVARIATES:
            x = d[v]
            dx = np.diff(x)  # dx[i] = x[i+1] - x[i]
            cols.append(x[q - 1 : n - 1])  # x_{t-1}
            cols.append(dx[q - 1 :])  # dx_t
            cols.extend(dx[q - 1 - l : n - 1 - l] for l in range(1, q))
        datt = np.diff(d["att"])
        cols.append(d["att"][q - 1 : n - 1])
        cols.extend(datt[q - 1 - l : n - 1 - l] for l in range(1, q))
        return datt[q - 1 :], cols

    return _stacked(data, countries, spec, var_names, country_columns)


def build_adl_lag_design(panel: PanelDataset, index_series, spec: RegressionSpec) -> DesignMatrix:
    """Plain lag-form design: log attendance on its own lags 1..q and lags
    0..q of every covariate, plus intercepts and deterministics.

    Spans the same column space as ``build_adl_design``, so least
    squares gives identical fitted values and residuals.
    """
    q = spec.adl_order
    data, countries = _aligned_series(panel, index_series, spec)
    var_names = [f"ln_att_lag{l}" for l in range(1, q + 1)]
    for v in COVARIATES:
        var_names += [f"ln_{v}"] + [f"ln_{v}_lag{l}" for l in range(1, q + 1)]

    def country_columns(d, n):
        cols = [d["att"][q - l : n - l] for l in range(1, q + 1)]
        for v in COVARIATES:
            cols.extend(d[v][q - l : n - l] for l in range(0, q + 1))
        return d["att"][q:], cols

    return _stacked(data, countries, spec, var_names, country_columns)


def cumulated_lag_coefficients(fit, spec: RegressionSpec) -> dict[str, float]:
    """B_j(1) and A(1) implied by a lag-form fit: sums of lag coefficients."""
    out: dict[str, float] = {}
    for v in COVARIATES:
        total = fit.coef(f"ln_{v}")
        for l in range(1, spec.adl_order + 1):
            total += fit.coef(f"ln_{v}_lag{l}")
        out[v] = total
    out["att_a1"] = 1.0 - sum(
        fit.coef(f"ln_att_lag{l}") for l in range(1, spec.adl_order + 1)
    )
    return out


def _adf_lag_regression(y: np.ndarray, p: int, case: str):
    """ADF regressors ``[deterministics, y_{t-1}, dy_{t-1..t-p}]`` and response
    ``dy_t`` over the longest sample for lag ``p``."""
    dy = np.diff(y)
    cols = [np.ones(dy.size - p)]
    if case == "ct":
        cols.append(np.arange(p + 1, dy.size + 1, dtype=float))
    cols.append(y[p:-1])
    cols.extend(dy[p - j : dy.size - j] for j in range(1, p + 1))
    return np.column_stack(cols), dy[p:]


def adf_lstsq_reference(y, case: str, max_lag: int) -> tuple[int, float]:
    """Per-lag ``lstsq`` reference for ``adf_test``: (chosen lag, t-statistic).

    Fits every lag 0..max_lag separately on the common sample, picks the SIC
    minimiser with the same 1e-12 tie rule, refits it on its longest sample
    and forms the t-statistic from ``inv(x'x)``.  No rank or exact-fit checks.
    """
    y = np.asarray(y, dtype=float)
    n_det = 1 if case == "c" else 2
    t_common = y.size - 1 - max_lag
    best_p, best_sic = 0, math.inf
    for p in range(max_lag + 1):
        x, resp = _adf_lag_regression(y, p, case)
        x, resp = x[-t_common:], resp[-t_common:]
        coef = np.linalg.lstsq(x, resp, rcond=None)[0]
        resid = resp - x @ coef
        rss = max(float(resid @ resid), np.finfo(float).tiny)
        sic = math.log(rss / t_common) + x.shape[1] * math.log(t_common) / t_common
        if sic < best_sic - 1e-12:
            best_sic, best_p = sic, p
    x, resp = _adf_lag_regression(y, best_p, case)
    coef = np.linalg.lstsq(x, resp, rcond=None)[0]
    resid = resp - x @ coef
    dof = resp.size - x.shape[1]
    se = math.sqrt(float(resid @ resid) / dof * np.linalg.inv(x.T @ x)[n_det, n_det])
    return best_p, float(coef[n_det] / se)


def adf_exact_tstat(y, case: str, lag: int) -> float:
    """t-statistic on y_{t-1} of the ADF regression at ``lag`` over its longest
    sample, solved in exact rational arithmetic on the float inputs.

    The differences are exact too, so the only rounding is the final
    square root of the exact t-squared.
    """
    ys = [Fraction(float(v)) for v in np.asarray(y, dtype=float)]
    dy = [b - a for a, b in zip(ys, ys[1:])]
    rows, resp = [], []
    for t in range(lag, len(dy)):
        row = [Fraction(1)] + ([Fraction(t + 1)] if case == "ct" else [])
        row.append(ys[t])
        row.extend(dy[t - j] for j in range(1, lag + 1))
        rows.append(row)
        resp.append(dy[t])
    k = len(rows[0])
    rho = k - 1 - lag
    xty = [sum(r[i] * v for r, v in zip(rows, resp)) for i in range(k)]
    # normal equations with two right-hand sides: x'y and the unit vector at rho
    a = [
        [sum(r[i] * r[j] for r in rows) for j in range(k)] + [xty[i], Fraction(int(i == rho))]
        for i in range(k)
    ]
    for c in range(k):
        piv = next(i for i in range(c, k) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        for i in range(k):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[c])]
    beta = [a[i][k] / a[i][i] for i in range(k)]
    inv_rho = a[rho][k + 1] / a[rho][rho]
    rss = sum(v * v for v in resp) - sum(b * c for b, c in zip(beta, xty))
    t_squared = beta[rho] ** 2 / (rss / (len(resp) - k) * inv_rho)
    return math.copysign(math.sqrt(t_squared), beta[rho])


# The generator of the shipped ADF quantile table, data/adf_quantiles.csv.
# Its header records the version, the replications and the seed.
ADF_T_GRID = (25, 50, 100, 200, 400)
ADF_TABLE_VERSION = 1
_ADF_TABLE_SEED = 743125
_ADF_TABLE_REPS = 50_000

_QUANT_GRID = np.concatenate(
    [
        [0.0001, 0.0005, 0.001, 0.0025, 0.005],
        np.round(np.arange(0.01, 1.00, 0.01), 2),
        [0.995, 0.9975, 0.999, 0.9995, 0.9999],
    ]
)


def _detrend_rows(z: np.ndarray, case: str) -> np.ndarray:
    """Project the deterministic part (constant / constant+trend) out of each row."""
    n = z.shape[-1]
    z = z - z.mean(axis=-1, keepdims=True)
    if case == "ct":
        tt = np.arange(n, dtype=float)
        tt = tt - tt.mean()
        coef = (z @ tt) / (tt @ tt)
        z = z - coef[..., None] * tt
    return z


def _df_tstats(y: np.ndarray, case: str) -> np.ndarray:
    """Dickey-Fuller t-statistics for each row of a (reps, T) matrix, no lag terms."""
    dy = np.diff(y, axis=-1)
    ylag = y[..., :-1]
    dyt = _detrend_rows(dy, case)
    ylt = _detrend_rows(ylag, case)
    syy = np.einsum("ij,ij->i", ylt, ylt)
    rho = np.einsum("ij,ij->i", ylt, dyt) / syy
    rss = np.einsum("ij,ij->i", dyt, dyt) - rho**2 * syy
    dof = dy.shape[-1] - (2 if case == "c" else 3)
    se = np.sqrt(rss / dof / syy)
    return rho / se


def generate_adf_table(
    reps: int = _ADF_TABLE_REPS,
    seed: int = _ADF_TABLE_SEED,
    t_grid=ADF_T_GRID,
    chunk: int = 5_000,
) -> list[tuple[str, int, float, float]]:
    """Simulate the null distribution of the ADF t-statistic and tabulate quantiles.

    Returns (case, T, quantile, value) rows.  Each (case, T) cell uses its
    own seeded generator, so the table regenerates identically.
    """
    rows: list[tuple[str, int, float, float]] = []
    for case in ADF_CASES:
        for t_len in t_grid:
            rng = np.random.default_rng([seed, ADF_CASES.index(case), t_len])
            stats_out = np.empty(reps)
            done = 0
            while done < reps:
                m = min(chunk, reps - done)
                walk = np.cumsum(rng.standard_normal((m, t_len)), axis=1)
                stats_out[done : done + m] = _df_tstats(walk, case)
                done += m
            values = np.quantile(stats_out, _QUANT_GRID)
            rows.extend((case, t_len, float(q), float(v)) for q, v in zip(_QUANT_GRID, values))
    return rows


def write_adf_table(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# adf_quantiles v{ADF_TABLE_VERSION} "
            f"(reps={_ADF_TABLE_REPS}, seed={_ADF_TABLE_SEED})\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["case", "T", "quantile", "value"])
        for case, t_len, q, v in rows:
            writer.writerow([case, t_len, f"{q:.6g}", f"{v:.10g}"])


def _integer_column(values) -> list[int]:
    """A float column times the power of two that makes every entry an integer."""
    exact = [Fraction(float(v)) for v in values]
    scale = max(v.denominator for v in exact)
    return [int(v * scale) for v in exact]


def _exact_rss(gram, p: int) -> Fraction:
    """Residual sum of squares of the last column on the first ``p``: the
    Schur complement left after eliminating the first ``p`` rows of the
    bordered Gram matrix, in exact rational arithmetic.  The first ``p``
    columns must be of full rank, so every pivot is positive."""
    idx = [*range(p), len(gram) - 1]
    a = [[Fraction(gram[i][j]) for j in idx] for i in idx]
    for c in range(p):
        for i in range(c + 1, p + 1):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [u - f * v for u, v in zip(a[i], a[c])]
    return a[p][p]


def reset_exact_f(fit: FitResult) -> float:
    """RESET's F of ``fit`` on its design in exact arithmetic on the float
    columns ``ramsey_reset`` forms: the standardised fitted values and their
    powers are computed in floating point as it computes them, and both
    residual sums of squares are solved exactly from there.

    A column scaled by a power of two leaves both sums' ratio unchanged, so
    the Gram matrix is built from integer columns.
    """
    design = fit.design
    yhat = design.X @ fit.beta
    z = (yhat - yhat.mean()) / float(yhat.std())
    cols = [_integer_column(c) for c in np.column_stack([design.X, z**2, z**3, design.y]).T]
    gram = [[sum(a * b for a, b in zip(ci, cj)) for cj in cols] for ci in cols]
    k = design.X.shape[1]
    rss_u = _exact_rss(gram, k + 2)
    rss_r = _exact_rss(gram, k)
    dof = design.nobs - k - 2
    return float((rss_r - rss_u) / 2 / (rss_u / dof))


# ---------------------------------------------------------------- CSV readers
# The row-by-row readers of league.csv, macro.csv and indices.csv that the
# column reader of ``leaguebalance.panel`` replaced, kept as the reference of
# its differential tests: the same values, or the same error, for every file.


def _parse_int(value: str, what: str, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: {what} is not an integer: {value!r}") from None


def _parse_float(value: str, what: str, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: {what} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise InputError(f"{where}: {what} is not finite: {value!r}")
    return out


def csv_rows(path, columns):
    """Yield ``(line, fields)`` for every data row of a CSV whose header is ``columns``.

    Blank lines are skipped; a row with more or fewer fields than the header,
    or one the ``csv`` module cannot split, is an InputError naming its line,
    and a file that cannot be read or is not UTF-8 is one naming its path.
    """
    n = len(columns)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != tuple(columns):
            raise InputError(f"{path}: bad header {header}; expected {','.join(columns)}")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != n:
                raise InputError(
                    f"{path}:{reader.line_num}: expected {n} fields, got {len(fields)}"
                )
            yield reader.line_num, fields
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def parse_league_csv_reference(path: str, config: Config | None = None) -> list[LeagueSeason]:
    """Parse a league-table CSV into validated ``LeagueSeason`` values.

    One row per team-season with header ``country,season,team,rank,wins,
    draws,losses,points``.  Promoted sets are computed by diffing the
    rosters of consecutive seasons within each country; K and I come from
    ``config`` (defaults K=3, I=3, shrunk for small leagues).
    """
    config = config or Config()
    groups: dict[tuple[str, int], list[tuple[int, TeamSeasonRecord]]] = {}
    for line, (country, season, team, rank, wins, draws, losses, points) in csv_rows(
        path, LEAGUE_COLUMNS
    ):
        where = f"{path}:{line}"
        country = country.strip()
        if not country:
            raise InputError(f"{where}: empty country")
        if config.countries is not None and country not in config.countries:
            raise InputError(f"{where}: unknown country {country!r}")
        season = _parse_int(season, "season", where)
        team = team.strip()
        if not team:
            raise InputError(f"{where}: empty team id")
        rec = TeamSeasonRecord(
            team=team,
            rank=_parse_int(rank, "rank", where),
            wins=_parse_int(wins, "wins", where),
            draws=_parse_int(draws, "draws", where),
            losses=_parse_int(losses, "losses", where),
            points=_parse_int(points, "points", where),
        )
        if rec.rank < 1:
            raise InputError(f"{where}: rank must be >= 1")
        if min(rec.wins, rec.draws, rec.losses, rec.points) < 0:
            raise InputError(f"{where}: negative count for team {team}")
        groups.setdefault((country, season), []).append((line, rec))

    if not groups:
        raise InputError(f"{path}: no data rows")

    seasons: list[LeagueSeason] = []
    for (country, season), entries in sorted(groups.items()):
        first_line = min(line for line, _ in entries)
        where = f"{path}:{first_line} ({country}, {season})"
        recs = sorted((rec for _, rec in entries), key=lambda r: r.rank)
        n = len(recs)
        if len({r.team for r in recs}) != n:
            raise InputError(f"{where}: duplicate team id")
        # LeagueSeason validates the ranks
        k, i = config.levels_for(country, season, n)
        try:
            seasons.append(
                LeagueSeason(country=country, season=season, records=tuple(recs), K=k, I=i)
            )
        except InputError as exc:
            raise InputError(f"{path}:{first_line}: {exc}") from None
    return seasons


def parse_macro_csv_reference(path: str) -> list[MacroObservation]:
    """Parse the macro covariate CSV (one row per country-season)."""
    out: list[MacroObservation] = []
    seen: set[tuple[str, int]] = set()
    for line, (country, season, attendance, population, rgni, unemployment) in csv_rows(
        path, MACRO_COLUMNS
    ):
        where = f"{path}:{line}"
        country = country.strip()
        if not country:
            raise InputError(f"{where}: empty country")
        season = _parse_int(season, "season", where)
        key = (country, season)
        if key in seen:
            raise InputError(f"{where}: duplicate (country, season) {key}")
        seen.add(key)
        out.append(
            MacroObservation(
                country=country,
                season=season,
                attendance_per_game=_parse_float(attendance, "attendance_avg", where),
                population=_parse_float(population, "population", where),
                rgni=_parse_float(rgni, "rgni_real", where),
                unemployment=_parse_float(unemployment, "unemployment_rate", where),
            )
        )
    if not out:
        raise InputError(f"{path}: no data rows")
    return out


def parse_index_csv_reference(path: str, names: list[str]) -> list[IndexValue]:
    """``parse_index_csv`` one row at a time, checking each row in turn."""
    wanted = frozenset(names)
    out = []
    seen: set[tuple[str, int, str]] = set()
    for line, (country, season, name, value) in csv_rows(path, INDEX_COLUMNS):
        where = f"{path}:{line}"
        country = country.strip()
        if not country:
            raise InputError(f"{where}: empty country")
        season = _parse_int(season, "season", where)
        key = (country, season, name)
        if key in seen:
            raise InputError(f"{where}: duplicate (country, season, index) {key}")
        seen.add(key)
        value = _parse_float(value, "value", where)
        try:
            check_index_value(name, country, season, value)
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
        if name in wanted:
            out.append(IndexValue(name, country, season, value))
    if not seen:
        raise InputError(f"{path}: no data rows")
    return out


# ---------------------------------------------------------------- CSV files with faults
# Texts that int() and float() read in their own way
ODD_SEASONS = [
    "1991.0", "+1991", "1_991", "٣", "１９９１", " 1991", "1991 ", "-5", "x", "", "01991", "0",
    "99999999999999999999", "1991\x1c", "1991\t",
]
# the odd seasons that int() cannot read come up in half the draws
ODD_INTEGERS = st.sampled_from(ODD_SEASONS) | st.sampled_from(["1991.0", "x", "", "1991\x1c"])
ODD_VALUES = [
    "nan", "inf", "-inf", "infinity", "1.5", "-0.25", "abc", "", "0x1p-1", "1_0",
    "٠.٥", "0.5\x1c", "-0", "1e-400", " 0.5", ".5", "5.", "1.0000000001", "-1e-10",
]
# the odd values that are no finite number come up in half the draws
ODD_NUMBERS = st.sampled_from(ODD_VALUES) | st.sampled_from(["nan", "-inf", "abc", "", "0x1p-1"])
# names that need quoting, span two lines, are not ASCII or are long
ODD_NAMES = ["New Zealand", "Ñandú", "Z" * 40, "A,B", "New\nZealand", 'say "hi"']
# blank lines, and blank-looking ones that are rows of one or two fields
BLANK_LINES = ["", "", "", "", " ", "\t", ",", '""']
# at most one fault of the file as a whole, which csv_text makes
FILE_FAULTS = st.lists(st.sampled_from(["fields", "huge", "open_quote", "header"]), max_size=1)


def read_or_error(reader, *args):
    """The reprs of a reader's values, or the type and message of its InputError."""
    try:
        return [repr(v) for v in reader(*args)]
    except InputError as exc:
        return type(exc), str(exc)


def outcome(result) -> str:
    """A short label of what ``read_or_error`` returned, for hypothesis' statistics."""
    if isinstance(result, list):
        return "values"
    message = result[1].split(": ", 1)[-1]  # without the path and line
    message = re.sub(r"^\(.*?\): ", "", message, flags=re.S)  # without (country, season)
    return re.split(r"[:'(\[]", message)[0].strip()


def row_faults(draw, kinds) -> list:
    """The faults of one row: a kind of ``kinds``, which lists a file's row
    faults in the order a row is checked, and some of the three after it.
    The first of them decides the row's error."""
    start = draw(st.integers(0, len(kinds) - 1))
    return [kinds[start], *(kind for kind in kinds[start + 1 : start + 4] if draw(st.booleans()))]


def csv_text(draw, header, rows, faults) -> str:
    """``rows`` of text fields under ``header`` as the text of a CSV file.

    Each of ``faults``, as ``FILE_FAULTS`` draws them, breaks the file once
    on a line of its own: a row with a field too few or too many, a field longer
    than the ``csv`` module's limit, a quote that is not closed, or a bad
    header.  Any field may be quoted and any row may be preceded by a blank
    or blank-looking line; the lines end in \\n, \\r\\n or a bare \\r.
    """
    rows = [list(row) for row in rows]
    for fault in faults:
        if rows and fault in ("fields", "huge"):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "huge":
                row[draw(st.integers(0, len(row) - 1))] = "A" * (csv.field_size_limit() + 1)
            elif draw(st.booleans()):
                row.pop()
            else:
                row.append("x")
    quote = st.integers(0, 7).map(lambda k: k == 0)  # one field in eight is quoted
    lines = [
        ",".join(
            '"' + field.replace('"', '""') + '"'
            if draw(quote) or any(c in field for c in ',"\r\n') else field
            for field in row
        )
        for row in rows
    ]
    if "open_quote" in faults and lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = '"' + lines[i]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    head = ",".join(header)
    if "header" in faults:
        head = draw(st.sampled_from([",".join(header[:-1]), "﻿" + head, head.title(), ""]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join([head, *lines]) + draw(st.sampled_from([ending, ""]))
