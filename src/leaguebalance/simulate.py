"""Synthetic data generators used to verify the pipeline end to end.

``simulate_league`` samples match outcomes from a team-strength model whose
dispersion parameter sweeps from perfect balance (0, every match drawn) to a
frozen completely unbalanced league (inf).  ``simulate_dgp`` simulates the
attendance equation in its levels-and-differences form with known
coefficients and cross-country error correlation, so estimators can be
checked against the truth.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import IndexValue
from .errors import InputError
from .panel import D97_CUTOFF, LeagueSeason, MacroObservation, TeamSeasonRecord
from .record import Record


class LeagueSimParams(Record):
    """Shape of a simulated league.  The class attributes are the defaults,
    which ``simulate-league`` reads for the options it was not given."""

    n_teams = 12
    n_seasons = 10
    dispersion = 2.0  # 0 = all draws, inf = frozen completely unbalanced
    country = "SIM"
    start_season = 1990
    K = 3
    I = 3
    churn = 0  # bottom teams replaced by fresh ids each season

    def __init__(
        self,
        n_teams: int = n_teams,
        n_seasons: int = n_seasons,
        dispersion: float = dispersion,
        country: str = country,
        start_season: int = start_season,
        K: int = K,
        I: int = I,
        churn: int = churn,
    ) -> None:
        self.__dict__.update(
            n_teams=n_teams,
            n_seasons=n_seasons,
            dispersion=dispersion,
            country=country,
            start_season=start_season,
            K=K,
            I=I,
            churn=churn,
        )
        if self.n_teams < 3:
            raise InputError("n_teams must be >= 3")
        if self.n_seasons < 1:
            raise InputError("n_seasons must be >= 1")
        if not self.dispersion >= 0:  # NaN too
            raise InputError("dispersion must be >= 0")
        if not (0 <= self.churn <= self.n_teams // 2):
            raise InputError("churn must be between 0 and n_teams/2")
        if self.K + self.I >= self.n_teams:
            raise InputError("K + I must be < n_teams")


def _sample_match(rng: np.random.Generator, s_home: float, s_away: float, theta: float) -> int:
    """0 = home win, 1 = draw, 2 = away win."""
    d = s_home - s_away
    if math.isinf(theta):
        if d == 0.0:
            return 1
        return 0 if d > 0 else 2
    p_draw = math.exp(-theta * abs(d))
    p_home = (1.0 - p_draw) / (1.0 + math.exp(-theta * d))
    u = rng.random()
    if u < p_draw:
        return 1
    return 0 if u < p_draw + p_home else 2


def simulate_league(params: LeagueSimParams, seed: int = 0) -> list[LeagueSeason]:
    """Simulate seasons of a double round robin under a fixed-strength model.

    Strengths are equally spaced and persist across seasons; with churn the
    bottom teams hand their strength slots to fresh team ids, mimicking
    promotion and relegation.
    """
    n = params.n_teams
    teams = [f"T{i:02d}" for i in range(n)]
    strength = {team: (n - 1.0 - i) / (n - 1.0) for i, team in enumerate(teams)}
    fresh = 0
    out: list[LeagueSeason] = []

    for s_idx in range(params.n_seasons):
        season = params.start_season + s_idx
        rng = np.random.default_rng([seed, s_idx])
        wins = {t: 0 for t in teams}
        draws = {t: 0 for t in teams}
        losses = {t: 0 for t in teams}
        for home in teams:
            for away in teams:
                if home == away:
                    continue
                res = _sample_match(rng, strength[home], strength[away], params.dispersion)
                if res == 0:
                    wins[home] += 1
                    losses[away] += 1
                elif res == 2:
                    wins[away] += 1
                    losses[home] += 1
                else:
                    draws[home] += 1
                    draws[away] += 1
        order = sorted(teams, key=lambda t: (-(2 * wins[t] + draws[t]), t))
        records = tuple(
            TeamSeasonRecord(
                team=t,
                rank=r + 1,
                wins=wins[t],
                draws=draws[t],
                losses=losses[t],
                points=2 * wins[t] + draws[t],
            )
            for r, t in enumerate(order)
        )
        out.append(
            LeagueSeason(
                country=params.country,
                season=season,
                records=records,
                K=params.K,
                I=params.I,
            )
        )
        if params.churn:
            for t in order[-params.churn :]:
                new_team = f"N{fresh:03d}"
                fresh += 1
                strength[new_team] = strength.pop(t)
                teams[teams.index(t)] = new_team
    return out


# The simulated equation's coefficients, keyed by the design column each one
# drives (``build_adl_design`` at the default ``RegressionSpec``): per
# covariate its lagged level, current and lagged difference; then lagged log
# attendance (-A(1)) and its lagged difference, d97 and the trend.
COEFFICIENTS = {
    "ln_cb_lag1": -0.6,
    "d_ln_cb": -0.15,
    "d_ln_cb_lag1": 0.0,
    "ln_pop_lag1": 0.5,
    "d_ln_pop": 0.0,
    "d_ln_pop_lag1": -2.0,
    "ln_rgni_lag1": 0.1,
    "d_ln_rgni": 0.15,
    "d_ln_rgni_lag1": 0.0,
    "ln_un_lag1": 0.03,
    "d_ln_un": 0.0,
    "d_ln_un_lag1": 0.0,
    "ln_att_lag1": -0.6,
    "d_ln_att_lag1": -0.1,
    "d97": 0.08,
    "t": -0.001,
    "t2": 0.00001,
}
_COVARIATES = ("cb", "pop", "rgni", "un")  # design.COVARIATES, not loading the estimator
_A1 = -COEFFICIENTS["ln_att_lag1"]  # the error-correction loading A(1)
# the long-run effect of each level regressor: its coefficient over A(1)
LONG_RUN = {
    **{x: COEFFICIENTS[f"ln_{x}_lag1"] / _A1 for x in _COVARIATES},
    **{name: COEFFICIENTS[name] / _A1 for name in ("d97", "t", "t2")},
}
_BURN_IN = 15  # seasons drawn before the first one kept
_TARGET_LN_ATT = 9.0  # log attendance of the initial steady state
_INDEX_NAME = "sdc_ki"  # the name the simulated index is written under
_MU_CB = math.log(0.5)
_MU_UN = math.log(7.0)


class DgpParams(Record):
    """Shape and noise of a panel of ``simulate_dgp``: the error standard
    deviations run evenly from ``error_sd_min`` to ``error_sd_max``, with
    correlation ``error_corr`` between every pair of countries.  The class
    attributes ``start_season`` and ``n_seasons`` are the defaults of
    ``simulate-dgp``."""

    start_season = 1959
    n_seasons = 50

    def __init__(
        self,
        countries: tuple[str, ...] = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"),
        start_season: int = start_season,
        n_seasons: int = n_seasons,
        error_sd_min: float = 0.008,
        error_sd_max: float = 0.012,
        error_corr: float = 0.4,
    ) -> None:
        self.__dict__.update(
            countries=countries,
            start_season=start_season,
            n_seasons=n_seasons,
            error_sd_min=error_sd_min,
            error_sd_max=error_sd_max,
            error_corr=error_corr,
        )
        if not self.countries:
            raise InputError("countries must name at least one country")
        for name in ("error_sd_min", "error_sd_max"):
            value = self.__dict__[name]
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and > 0, got {value!r}")
        if not (-0.99 < self.error_corr < 0.99):
            raise InputError("error_corr must be in (-0.99, 0.99)")
        if self.n_seasons < 10:
            raise InputError("n_seasons must be >= 10")


class DgpSimulation(Record):
    """A simulated panel: its macro rows and its index values."""

    def __init__(self, macro: list[MacroObservation], indices: list[IndexValue]) -> None:
        self.__dict__.update(macro=macro, indices=indices)


def simulate_dgp(params: DgpParams | None = None, seed: int = 0) -> DgpSimulation:
    """Simulate a panel from the attendance equation with the coefficients
    of ``COEFFICIENTS``; the first ``_BURN_IN`` seasons drawn are dropped."""
    params = params or DgpParams()
    nc = len(params.countries)
    total = _BURN_IN + params.n_seasons
    seasons = np.arange(params.start_season - _BURN_IN, params.start_season + params.n_seasons)
    t_vals = seasons - params.start_season + 1  # matches the panel's trend origin
    d97 = (seasons > D97_CUTOFF).astype(float)
    # the deterministic terms of seasons 1.. in the equation's order
    deterministic = [
        (COEFFICIENTS[name] * col)[1:].tolist()
        for name, col in (("d97", d97), ("t", t_vals), ("t2", t_vals**2))
    ]

    sds = np.linspace(params.error_sd_min, params.error_sd_max, nc)
    sigma = params.error_corr * np.outer(sds, sds)
    np.fill_diagonal(sigma, sds**2)
    chol = np.linalg.cholesky(sigma)
    eps = np.random.default_rng([seed, 0]).standard_normal((total, nc)) @ chol.T

    b_att, b_d_att = COEFFICIENTS["ln_att_lag1"], COEFFICIENTS["d_ln_att_lag1"]
    macro: list[MacroObservation] = []
    indices: list[IndexValue] = []
    for ci, country in enumerate(params.countries):
        rng = np.random.default_rng([seed, 1 + ci])
        ln_cb = np.empty(total)
        ln_cb[0] = _MU_CB
        for t in range(1, total):
            ln_cb[t] = _MU_CB + 0.5 * (ln_cb[t - 1] - _MU_CB) + 0.15 * rng.standard_normal()
        ln_cb = np.minimum(ln_cb, -0.01)

        ln_pop = math.log(4e6 * (ci + 1)) + np.cumsum(0.005 + 0.004 * rng.standard_normal(total))
        ln_rgni = math.log(8e3) + np.cumsum(0.01 + 0.015 * rng.standard_normal(total))
        ln_un = np.empty(total)
        ln_un[0] = _MU_UN
        for t in range(1, total):
            ln_un[t] = _MU_UN + 0.8 * (ln_un[t - 1] - _MU_UN) + 0.1 * rng.standard_normal()
        series = (ln_cb, ln_pop, ln_rgni, ln_un)

        # intercept pinning the initial steady state near the target attendance
        exogenous = _A1 * _TARGET_LN_ATT - sum(
            COEFFICIENTS[f"ln_{x}_lag1"] * s[0] for x, s in zip(_COVARIATES, series)
        )
        # Seasons 1..: each covariate's lagged level and current difference
        # add to the intercept; the lagged differences (none at season 1)
        # add up on their own and come last.
        lagged = 0.0
        for x, s in zip(_COVARIATES, series):
            ds = np.diff(s)
            exogenous = (
                exogenous + COEFFICIENTS[f"ln_{x}_lag1"] * s[:-1] + COEFFICIENTS[f"d_ln_{x}"] * ds
            )
            lagged = lagged + COEFFICIENTS[f"d_ln_{x}_lag1"] * np.concatenate(([0.0], ds[:-1]))

        y = [_TARGET_LN_ATT]
        dy = 0.0
        for x_t, d97_t, t_t, t2_t, e_t, lag_t in zip(
            exogenous.tolist(), *deterministic, eps[1:, ci].tolist(), lagged.tolist()
        ):
            dy = x_t + b_att * y[-1] + b_d_att * dy + d97_t + t_t + t2_t + e_t + lag_t
            y.append(y[-1] + dy)

        for j in range(_BURN_IN, total):
            season = int(seasons[j])
            levels = (y[j], ln_pop[j], ln_rgni[j], ln_un[j])
            macro.append(MacroObservation(country, season, *map(math.exp, levels)))
            indices.append(IndexValue(_INDEX_NAME, country, season, math.exp(ln_cb[j])))
    return DgpSimulation(macro=macro, indices=indices)
