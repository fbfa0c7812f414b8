import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import InputError, winning_percentages
from leaguebalance.simulate import (
    COEFFICIENTS,
    LONG_RUN,
    MAX_DGP_COUNTRIES,
    MAX_DGP_SEASONS,
    MAX_TEAMS,
    DgpParams,
    LeagueSimParams,
    simulate_dgp,
    simulate_league,
)
from support import dgp_design, simulate_league_reference


@st.composite
def league_params(draw) -> LeagueSimParams:
    n = draw(st.integers(3, 24))
    return LeagueSimParams(
        n_teams=n,
        n_seasons=draw(st.integers(1, 4)),
        dispersion=draw(st.sampled_from([0.0, 0.3, 2.0, 7.3, 500.0, math.inf])),
        churn=draw(st.integers(0, n // 2)),
        K=1,
        I=1,
    )


class TestLeagueSimulation:
    def test_zero_dispersion_gives_all_draws(self):
        leagues = simulate_league(
            LeagueSimParams(n_teams=8, n_seasons=3, dispersion=0.0), seed=1
        )
        for lg in leagues:
            assert np.allclose(winning_percentages(lg), 0.5)

    def test_infinite_dispersion_freezes_completely_unbalanced_league(self):
        leagues = simulate_league(
            LeagueSimParams(n_teams=8, n_seasons=4, dispersion=math.inf), seed=1
        )
        n = 8
        for lg in leagues:
            w = winning_percentages(lg)
            assert np.allclose(w, [(n - 1 - i) / (n - 1) for i in range(n)])
        tables = [[(r.team, r.rank) for r in lg.records] for lg in leagues]
        assert all(t == tables[0] for t in tables)

    def test_churn_introduces_promoted_teams(self):
        leagues = simulate_league(
            LeagueSimParams(n_teams=10, n_seasons=5, dispersion=2.0, churn=2), seed=3
        )
        for prev, curr in zip(leagues, leagues[1:]):
            promoted = curr.roster() - prev.roster()
            assert len(promoted) == 2
            assert prev.roster() - curr.roster() == {r.team for r in prev.records[-2:]}

    def test_deterministic_per_seed(self):
        params = LeagueSimParams(n_teams=9, n_seasons=4, dispersion=1.5, churn=1)
        assert simulate_league(params, seed=11) == simulate_league(params, seed=11)
        assert simulate_league(params, seed=11) != simulate_league(params, seed=12)

    @settings(max_examples=200, deadline=None)
    @given(league_params(), st.integers(0, 2**32 - 1))
    def test_matches_the_per_match_reference(self, params, seed):
        assert simulate_league(params, seed) == simulate_league_reference(params, seed)

    @pytest.mark.parametrize("dispersion", [1e3, 1e308])
    @pytest.mark.parametrize("n_teams", [3, 12, 24])
    def test_large_dispersion_tends_to_the_frozen_league(self, n_teams, dispersion):
        """No overflow and no warning: the home side's odds exp(theta d)
        overflow for theta |d| above about 709."""
        frozen = simulate_league(
            LeagueSimParams(n_teams=n_teams, dispersion=math.inf, churn=1, K=1, I=1), seed=4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            leagues = simulate_league(
                LeagueSimParams(n_teams=n_teams, dispersion=dispersion, churn=1, K=1, I=1),
                seed=4,
            )
        assert leagues == frozen

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            LeagueSimParams(n_teams=2)
        # the bound on the parameters alone: a season holds O(n_teams**2) arrays
        assert LeagueSimParams(n_teams=MAX_TEAMS).n_teams == MAX_TEAMS
        with pytest.raises(InputError, match=f"n_teams must be <= {MAX_TEAMS}"):
            LeagueSimParams(n_teams=MAX_TEAMS + 1)
        with pytest.raises(InputError):
            LeagueSimParams(dispersion=-1.0)
        with pytest.raises(InputError):
            LeagueSimParams(n_teams=6, K=3, I=3)


class TestDgpSimulation:
    def test_outputs_are_log_safe(self):
        sim = simulate_dgp(seed=0)
        for m in sim.macro:
            assert min(m.attendance_per_game, m.population, m.rgni, m.unemployment) > 0
        for v in sim.indices:
            assert 0.0 < v.value <= 1.0

    def test_shape(self):
        params = DgpParams(countries=("A", "B", "C"), n_seasons=20, start_season=1985)
        sim = simulate_dgp(params, seed=1)
        assert len(sim.macro) == 60
        assert len(sim.indices) == 60
        seasons = sorted({m.season for m in sim.macro})
        assert seasons[0] == 1985 and seasons[-1] == 2004

    def test_truth_matches_parameters(self):
        a1 = -COEFFICIENTS["ln_att_lag1"]
        assert abs(a1) > 1e-6  # a long-run relation exists
        for name in ("cb", "pop", "rgni", "un"):
            assert LONG_RUN[name] == pytest.approx(COEFFICIENTS[f"ln_{name}_lag1"] / a1)
        for name in ("d97", "t", "t2"):
            assert LONG_RUN[name] == pytest.approx(COEFFICIENTS[name] / a1)

    def test_season_count_is_bounded(self):
        """The trend carries log attendance past exp's range near 6500 seasons."""
        sim = simulate_dgp(DgpParams(countries=("C1",), n_seasons=MAX_DGP_SEASONS), seed=1)
        assert all(math.isfinite(m.attendance_per_game) for m in sim.macro)
        with pytest.raises(InputError, match=f"n_seasons must be <= {MAX_DGP_SEASONS}"):
            DgpParams(n_seasons=MAX_DGP_SEASONS + 1)

    def test_country_count_is_bounded(self):
        countries = tuple(f"C{i + 1}" for i in range(MAX_DGP_COUNTRIES + 1))
        with pytest.raises(InputError, match=f"at most {MAX_DGP_COUNTRIES} countries"):
            DgpParams(countries=countries)

    def test_no_countries_is_input_error(self):
        with pytest.raises(InputError, match="at least one country"):
            DgpParams(countries=())

    @pytest.mark.parametrize("name", ["error_sd_min", "error_sd_max"])
    @pytest.mark.parametrize("value", [0.0, -0.01, math.nan, math.inf])
    def test_error_scale_must_be_finite_and_positive(self, name, value):
        with pytest.raises(InputError, match=f"{name} must be finite and > 0, got {value!r}"):
            DgpParams(**{name: value})

    def test_shape_and_noise_are_the_only_settable_values(self):
        assert list(inspect.signature(DgpParams).parameters) == [
            "countries", "start_season", "n_seasons", "error_sd_min", "error_sd_max",
            "error_corr",
        ]

    def test_coefficient_table_is_the_designs_slopes(self):
        design, _, _ = dgp_design(seed=1)  # the default RegressionSpec
        slopes = [c for c in design.columns if not c.startswith("const[")]
        assert list(COEFFICIENTS) == slopes
        assert sorted(LONG_RUN) == sorted(["cb", "pop", "rgni", "un", "d97", "t", "t2"])

    def test_deterministic_per_seed(self):
        assert simulate_dgp(seed=5) == simulate_dgp(seed=5)
        assert simulate_dgp(seed=5) != simulate_dgp(seed=6)
