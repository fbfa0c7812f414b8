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
    which the CLI's ``simulate --kind league`` reads."""

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


class DgpParams(Record):
    """Known coefficients of the simulated attendance equation.

    The equation is the levels-and-differences form: the change in log
    attendance responds to lagged levels (cumulated lag coefficients), to
    current and lagged differences, to the error-correction term ``a1`` on
    lagged log attendance, plus d97, trend and correlated noise.  The class
    attributes ``start_season`` and ``n_seasons`` are the defaults, which the
    CLI's ``simulate --kind dgp`` reads.
    """

    start_season = 1959
    n_seasons = 50

    def __init__(
        self,
        countries: tuple[str, ...] = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"),
        start_season: int = start_season,
        n_seasons: int = n_seasons,
        burn_in: int = 15,
        index_name: str = "sdc_ki",
        b_cb: float = -0.6,
        d_cb0: float = -0.15,
        d_cb1: float = 0.0,
        b_pop: float = 0.5,
        d_pop0: float = 0.0,
        d_pop1: float = -2.0,
        b_rgni: float = 0.1,
        d_rgni0: float = 0.15,
        d_rgni1: float = 0.0,
        b_un: float = 0.03,
        d_un0: float = 0.0,
        d_un1: float = 0.0,
        a1: float = 0.6,
        theta1: float = 0.1,
        b_d97: float = 0.08,
        b_t: float = -0.001,
        b_t2: float = 0.00001,
        error_sd_min: float = 0.008,
        error_sd_max: float = 0.012,
        error_corr: float = 0.4,
        target_ln_att: float = 9.0,
    ) -> None:
        self.__dict__.update(
            countries=countries,
            start_season=start_season,
            n_seasons=n_seasons,
            burn_in=burn_in,
            index_name=index_name,
            b_cb=b_cb,
            d_cb0=d_cb0,
            d_cb1=d_cb1,
            b_pop=b_pop,
            d_pop0=d_pop0,
            d_pop1=d_pop1,
            b_rgni=b_rgni,
            d_rgni0=d_rgni0,
            d_rgni1=d_rgni1,
            b_un=b_un,
            d_un0=d_un0,
            d_un1=d_un1,
            a1=a1,
            theta1=theta1,
            b_d97=b_d97,
            b_t=b_t,
            b_t2=b_t2,
            error_sd_min=error_sd_min,
            error_sd_max=error_sd_max,
            error_corr=error_corr,
            target_ln_att=target_ln_att,
        )
        if not self.countries:
            raise InputError("countries must name at least one country")
        if abs(self.a1) < 1e-6:
            raise InputError("a1 must be nonzero for a long-run relation to exist")
        if not (-0.99 < self.error_corr < 0.99):
            raise InputError("error_corr must be in (-0.99, 0.99)")
        if self.n_seasons < 10:
            raise InputError("n_seasons must be >= 10")

    def long_run_truth(self) -> dict[str, float]:
        return {
            "cb": self.b_cb / self.a1,
            "pop": self.b_pop / self.a1,
            "rgni": self.b_rgni / self.a1,
            "un": self.b_un / self.a1,
            "d97": self.b_d97 / self.a1,
            "t": self.b_t / self.a1,
            "t2": self.b_t2 / self.a1,
        }

    def coefficient_truth(self) -> dict[str, float]:
        return {
            "ln_cb_lag1": self.b_cb,
            "d_ln_cb": self.d_cb0,
            "d_ln_cb_lag1": self.d_cb1,
            "ln_pop_lag1": self.b_pop,
            "d_ln_pop": self.d_pop0,
            "d_ln_pop_lag1": self.d_pop1,
            "ln_rgni_lag1": self.b_rgni,
            "d_ln_rgni": self.d_rgni0,
            "d_ln_rgni_lag1": self.d_rgni1,
            "ln_un_lag1": self.b_un,
            "d_ln_un": self.d_un0,
            "d_ln_un_lag1": self.d_un1,
            "ln_att_lag1": -self.a1,
            "d_ln_att_lag1": -self.theta1,
            "d97": self.b_d97,
            "t": self.b_t,
            "t2": self.b_t2,
        }


class DgpSimulation(Record):
    """A simulated panel; ``truth`` holds the long-run effects and
    ``coefficients`` the equation's coefficients (empty when not given)."""

    def __init__(
        self,
        macro: list[MacroObservation],
        indices: list[IndexValue],
        truth: dict[str, float] | None = None,
        coefficients: dict[str, float] | None = None,
    ) -> None:
        self.__dict__.update(
            macro=macro,
            indices=indices,
            truth={} if truth is None else truth,
            coefficients={} if coefficients is None else coefficients,
        )


_MU_CB = math.log(0.5)
_MU_UN = math.log(7.0)


def simulate_dgp(params: DgpParams | None = None, seed: int = 0) -> DgpSimulation:
    """Simulate a panel from the attendance equation with known coefficients."""
    params = params or DgpParams()
    nc = len(params.countries)
    total = params.burn_in + params.n_seasons
    seasons = np.arange(params.start_season - params.burn_in, params.start_season + params.n_seasons)
    t_vals = seasons - params.start_season + 1  # matches the panel's trend origin
    d97 = (seasons > D97_CUTOFF).astype(float)

    sds = np.linspace(params.error_sd_min, params.error_sd_max, nc)
    sigma = params.error_corr * np.outer(sds, sds)
    np.fill_diagonal(sigma, sds**2)
    chol = np.linalg.cholesky(sigma)
    eps = np.random.default_rng([seed, 0]).standard_normal((total, nc)) @ chol.T

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

        # intercept pinning the initial steady state near the target attendance
        c_i = params.a1 * params.target_ln_att - (
            params.b_cb * ln_cb[0]
            + params.b_pop * ln_pop[0]
            + params.b_rgni * ln_rgni[0]
            + params.b_un * ln_un[0]
        )

        y = np.empty(total)
        y[0] = params.target_ln_att
        dy_prev = 0.0
        for t in range(1, total):
            dy = (
                c_i
                + params.b_cb * ln_cb[t - 1]
                + params.d_cb0 * (ln_cb[t] - ln_cb[t - 1])
                + params.b_pop * ln_pop[t - 1]
                + params.d_pop0 * (ln_pop[t] - ln_pop[t - 1])
                + params.b_rgni * ln_rgni[t - 1]
                + params.d_rgni0 * (ln_rgni[t] - ln_rgni[t - 1])
                + params.b_un * ln_un[t - 1]
                + params.d_un0 * (ln_un[t] - ln_un[t - 1])
                - params.a1 * y[t - 1]
                - params.theta1 * dy_prev
                + params.b_d97 * d97[t]
                + params.b_t * t_vals[t]
                + params.b_t2 * t_vals[t] ** 2
                + eps[t, ci]
            )
            if t >= 2:
                dy += (
                    params.d_cb1 * (ln_cb[t - 1] - ln_cb[t - 2])
                    + params.d_pop1 * (ln_pop[t - 1] - ln_pop[t - 2])
                    + params.d_rgni1 * (ln_rgni[t - 1] - ln_rgni[t - 2])
                    + params.d_un1 * (ln_un[t - 1] - ln_un[t - 2])
                )
            y[t] = y[t - 1] + dy
            dy_prev = dy

        for j in range(params.burn_in, total):
            macro.append(
                MacroObservation(
                    country=country,
                    season=int(seasons[j]),
                    attendance_per_game=math.exp(y[j]),
                    population=math.exp(ln_pop[j]),
                    rgni=math.exp(ln_rgni[j]),
                    unemployment=math.exp(ln_un[j]),
                )
            )
            indices.append(
                IndexValue(
                    name=params.index_name,
                    country=country,
                    season=int(seasons[j]),
                    value=math.exp(ln_cb[j]),
                )
            )
    return DgpSimulation(
        macro=macro,
        indices=indices,
        truth=params.long_run_truth(),
        coefficients=params.coefficient_truth(),
    )
