"""Synthetic data generators used to verify the pipeline end to end.

``simulate_league`` samples match outcomes from a team-strength model whose
dispersion parameter sweeps from perfect balance (0, every match drawn) to a
frozen completely unbalanced league (inf, the limit of large values).  The
outcome probabilities of a league's matches are one array, computed once,
and each season is one uniform draw per match.  ``simulate_dgp`` simulates the
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


MAX_TEAMS = 1000  # a season holds O(n_teams**2) arrays: about 8 MB each at 1000
# The DGP's quadratic trend carries log attendance to about 447 at 5000
# seasons and past exp's range (709.8) near 6500.
MAX_DGP_SEASONS = 5000
MAX_DGP_COUNTRIES = 1000  # the countries' error covariance is n x n: 8 MB at 1000


class LeagueSimParams(Record):
    """Shape of a simulated league.  The class attributes are the defaults,
    which ``simulate-league`` reads for the options it was not given;
    ``n_teams`` runs from 3 to ``MAX_TEAMS``."""

    n_teams = 12
    n_seasons = 10
    dispersion = 2.0  # 0 = all draws; inf, the limit of large values, = frozen
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
        if self.n_teams > MAX_TEAMS:
            raise InputError(f"n_teams must be <= {MAX_TEAMS}")
        if self.n_seasons < 1:
            raise InputError("n_seasons must be >= 1")
        if not self.dispersion >= 0:  # NaN too
            raise InputError("dispersion must be >= 0")
        if not (0 <= self.churn <= self.n_teams // 2):
            raise InputError("churn must be between 0 and n_teams/2")
        if self.K + self.I >= self.n_teams:
            raise InputError("K + I must be < n_teams")


def simulate_league(params: LeagueSimParams, seed: int = 0) -> list[LeagueSeason]:
    """Simulate seasons of a double round robin under a fixed-strength model.

    Strengths are equally spaced and belong to slots that persist across
    seasons; with churn the bottom teams hand their slots to fresh team ids,
    mimicking promotion and relegation.  A match between strengths s_h and
    s_a, d = s_h - s_a, is drawn with probability exp(-theta |d|) and
    otherwise won by the home side with odds exp(theta d).  Each season
    plays its n(n-1) matches, home slot i against away slot j != i in
    row-major order, on one uniform draw each from the generator seeded
    ``[seed, season index]``; at theta = inf no draw is made and the
    stronger side wins.
    """
    n = params.n_teams
    strength = (n - 1.0 - np.arange(n)) / (n - 1.0)
    home, away = np.nonzero(~np.eye(n, dtype=bool))  # the play order
    d = strength[home] - strength[away]
    theta = params.dispersion
    p_draw = np.exp(-theta * np.abs(d))
    with np.errstate(over="ignore"):  # exp(-theta d) = inf: a home win's chance is 0
        home_cut = p_draw + (1.0 - p_draw) / (1.0 + np.exp(-theta * d))
    # a match counts in cell 3 * slot + result of both its slots, result 0, 1
    # or 2 = W, D or L; the away side's result is 2 minus the home side's
    cells = np.concatenate((3 * home, 3 * away + 2))
    teams = [f"T{i:02d}" for i in range(n)]  # the team in each slot
    out: list[LeagueSeason] = []

    for s_idx in range(params.n_seasons):
        # theta = inf: thresholds 0 and 0 or 1, so u = 0 lets the stronger side win
        u = 0.0 if math.isinf(theta) else np.random.default_rng([seed, s_idx]).random(d.size)
        result = np.where(u < p_draw, 1, np.where(u < home_cut, 0, 2))  # the home side's
        counts = np.bincount(cells + np.concatenate((result, -result)), minlength=3 * n)
        wins, draws, losses = counts.reshape(n, 3).T.tolist()
        points = [2 * w + dr for w, dr in zip(wins, draws)]
        order = sorted(range(n), key=lambda i: (-points[i], teams[i]))
        records = tuple(
            TeamSeasonRecord(teams[i], r + 1, wins[i], draws[i], losses[i], points[i])
            for r, i in enumerate(order)
        )
        season = params.start_season + s_idx
        out.append(LeagueSeason(params.country, season, records, K=params.K, I=params.I))
        for k, i in enumerate(order[n - params.churn :]):
            teams[i] = f"N{s_idx * params.churn + k:03d}"
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
    ``simulate-dgp``; ``n_seasons`` runs from 10 to ``MAX_DGP_SEASONS`` and
    there are 1 to ``MAX_DGP_COUNTRIES`` countries."""

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
        if len(self.countries) > MAX_DGP_COUNTRIES:
            raise InputError(f"countries must name at most {MAX_DGP_COUNTRIES} countries")
        for name in ("error_sd_min", "error_sd_max"):
            value = self.__dict__[name]
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and > 0, got {value!r}")
        if not (-0.99 < self.error_corr < 0.99):
            raise InputError("error_corr must be in (-0.99, 0.99)")
        if self.n_seasons < 10:
            raise InputError("n_seasons must be >= 10")
        if self.n_seasons > MAX_DGP_SEASONS:
            raise InputError(f"n_seasons must be <= {MAX_DGP_SEASONS}")


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
