import numpy as np
import pytest

from leaguebalance import Config, compute_all_indices, series_from_values
from leaguebalance.catalog import (
    ALL_INDEX_NAMES,
    BIDIMENSIONAL_INDEX_NAMES,
    PAIRWISE_INDEX_NAMES,
    PRIZE_LEVELS,
    SEASONAL_INDEX_NAMES,
)
from leaguebalance.simulate import LeagueSimParams, simulate_league
from support import cu_season, reranked


def frozen_league(country="SIM", n=10, start=2000, t=8, k=2, i=2):
    seasons = [cu_season(n, country=country, season=start, K=k, I=i)]
    for j in range(1, t):
        seasons.append(
            reranked(seasons[0], list(range(n)), season_year=start + j)
        )
    return seasons


def test_counts_by_index_kind():
    leagues = frozen_league(t=8)
    values, diags = compute_all_indices(leagues, Config(g_window=5))
    by_name = {}
    for v in values:
        by_name.setdefault(v.name, []).append(v)
    for name in SEASONAL_INDEX_NAMES:
        assert len(by_name[name]) == 8
    for name in PAIRWISE_INDEX_NAMES:
        assert len(by_name[name]) == 7  # start one season late
    assert len(by_name["g"]) == 4  # window ends at seasons 4..7 (0-based)
    for name in BIDIMENSIONAL_INDEX_NAMES:
        assert len(by_name[name]) == 7
    assert len(diags) == 4
    assert {d.season for d in diags} == {v.season for v in by_name["g"]}


def test_frozen_cu_league_scores_one_on_everything_after_first_season():
    leagues = frozen_league(t=6, k=2, i=2)
    values, _ = compute_all_indices(leagues, Config(g_window=5))
    for v in values:
        if v.season >= 2005:
            assert v.value == pytest.approx(1.0, abs=1e-12), v


def test_output_sorted_and_rerun_identical():
    leagues = frozen_league(country="BBB", t=6) + frozen_league(country="AAA", t=7)
    one, d1 = compute_all_indices(leagues, Config())
    two, d2 = compute_all_indices(leagues, Config())
    assert one == two
    assert d1 == d2
    keys = [(v.country, v.season, v.name) for v in one]
    assert keys == sorted(keys)
    assert [(d.country, d.season) for d in d1] == sorted((d.country, d.season) for d in d1)


def test_all_seventeen_names_present():
    leagues = frozen_league(t=8)
    values, _ = compute_all_indices(leagues, Config(g_window=5))
    assert {v.name for v in values} == set(ALL_INDEX_NAMES)


def test_series_extraction():
    leagues = frozen_league(t=6)
    values, _ = compute_all_indices(leagues, Config())
    series = series_from_values(values, "scr_ki")
    assert series[("SIM", 2000)] == pytest.approx(1.0)
    assert len(series) == 6


def test_bidimensional_values_are_the_mean_of_their_components():
    leagues = simulate_league(LeagueSimParams(n_teams=12, n_seasons=10, churn=3), seed=1)
    values, _ = compute_all_indices(leagues)
    found = {(v.season, v.name): v.value for v in values}
    averaged = set()
    for season in range(1991, 2000):
        for level in PRIZE_LEVELS:
            seasonal, dynamic = found[season, level.seasonal], found[season, level.dynamic]
            assert found[season, level.bidimensional] == (seasonal + dynamic) / 2.0
            averaged.add(found[season, level.bidimensional])
    assert sum(v.name in BIDIMENSIONAL_INDEX_NAMES for v in values) == 9 * len(PRIZE_LEVELS)
    assert len(averaged) > 1
