import math

import numpy as np
import pytest

from leaguebalance import InputError, winning_percentages
from leaguebalance.simulate import DgpParams, LeagueSimParams, simulate_dgp, simulate_league


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

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            LeagueSimParams(n_teams=2)
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
        params = DgpParams()
        sim = simulate_dgp(params, seed=2)
        assert sim.truth["cb"] == pytest.approx(params.b_cb / params.a1)
        assert sim.coefficients["ln_att_lag1"] == pytest.approx(-params.a1)

    def test_no_countries_is_input_error(self):
        with pytest.raises(InputError, match="at least one country"):
            DgpParams(countries=())

    def test_deterministic_per_seed(self):
        assert simulate_dgp(seed=5) == simulate_dgp(seed=5)
        assert simulate_dgp(seed=5) != simulate_dgp(seed=6)
