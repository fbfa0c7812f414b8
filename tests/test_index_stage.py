"""The index stage against its season-by-season reference.

``compute_all_indices`` scores each country's seasons in blocks of one
shape; ``support.compute_all_indices_reference`` scores one season and one
season pair at a time with the per-season functions the blocks replaced.
For every league set both give the same values to the bit, the same G
diagnostics, the same warnings and the same first error.
"""

import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import ALL_INDEX_NAMES, compute_all_indices
from leaguebalance import dynamic as dyn
from leaguebalance import seasonal as seas
from leaguebalance.catalog import index_values
from leaguebalance.panel import (
    Config,
    LeagueSeason,
    LevelsRule,
    TeamSeasonRecord,
    winning_percentages,
)
from support import bench_leagues, compute_all_indices_reference

FIT_INDICES = tuple(name for name in ALL_INDEX_NAMES if name != "g")


def run_stage(compute, leagues, config, names):
    """What one run of the index stage shows: its values and G diagnostics
    as hex, or its error, and the multiset of its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values, diags = compute(leagues, config, names)
        except Exception as exc:  # which error is raised is part of the result
            result = ("error", type(exc).__name__, str(exc))
        else:
            result = (
                [(v.name, v.country, v.season, type(v.value).__name__, v.value.hex()) for v in values],
                [(g.country, g.season, g.e_hat.hex()) for g in diags],
            )
    return result, Counter((w.category.__name__, str(w.message)) for w in caught)


def assert_same_as_reference(leagues, config=None, names=None):
    got = run_stage(compute_all_indices, leagues, config, names)
    assert got == run_stage(compute_all_indices_reference, leagues, config, names)
    return got


def table(teams, kind: str, rng: np.random.Generator, ranked: bool):
    """One season's records for ``teams``.

    ``kind`` is ``round-robin`` (a played double round robin, averaging 0.5),
    ``incomplete`` (each team's W/D/L drawn alone), ``all-lost`` (every
    game lost: all-zero winning percentages) or ``no-games``.  ``ranked``
    orders the places by win points; otherwise they keep the roster order.
    """
    n = len(teams)
    games = 2 * (n - 1)
    if kind == "round-robin":
        wins, draws = np.zeros(n, int), np.zeros(n, int)
        for home, away in itertools.permutations(range(n), 2):
            result = rng.integers(3)
            if result == 1:
                draws[[home, away]] += 1
            else:
                wins[home if result == 0 else away] += 1
    elif kind == "incomplete":
        wins = rng.integers(0, games + 1, n)
        draws = rng.integers(0, games - wins + 1)
    else:
        games = 0 if kind == "no-games" else games
        wins, draws = np.zeros(n, int), np.zeros(n, int)
    order = range(n)
    if ranked:
        order = sorted(order, key=lambda i: -(2 * wins[i] + draws[i]))
    return tuple(
        TeamSeasonRecord(
            teams[i], rank, int(wins[i]), int(draws[i]), int(games - wins[i] - draws[i]),
            int(2 * wins[i] + draws[i]),
        )
        for rank, i in enumerate(order, start=1)
    )


KINDS = ["round-robin", "round-robin", "incomplete"]


@st.composite
def league_sets(draw):
    """One to four countries of up to eight seasons each, 3-24 teams that
    change in number and membership, gaps between seasons, and a levels rule
    that changes K and I from some season on.  Churn can leave a season
    pair fewer than two common teams, and a rule's K can reach the size of
    an earlier season in a G window.

    In about half the sets two to four countries keep one team count and
    the default K, I, so that their seasons and pairs share blocks.  In
    about one set of four, a country between two others holds a season that
    no index can score or a pair without a common team, while the first and
    the last country each have an incomplete season that warns."""
    leagues, rules, spans = [], [], []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())
    shared_n = draw(st.integers(3, 24))
    for c in range(draw(st.integers(2, 4) if shared else st.integers(1, 3))):
        country = f"C{c}"
        new_teams = (f"{country}-{k}" for k in itertools.count())
        roster = [next(new_teams) for _ in range(shared_n if shared else draw(st.integers(3, 24)))]
        season = 1990
        sizes, rosters, years = [], [], []
        for _ in range(draw(st.integers(1, 8))):
            n = shared_n
            if not shared:
                n = draw(st.sampled_from([len(roster), draw(st.integers(3, 24))]))
            # no common team at all in about one pair of twenty
            churn = draw(st.integers(0, n if draw(st.integers(0, 19)) == 19 else n // 3))
            kept = draw(st.permutations(roster))[: n - churn]
            roster = kept + [next(new_teams) for _ in range(n - len(kept))]
            rosters.append(roster)
            sizes.append(n)
            years.append(season)
            season += draw(st.sampled_from([1, 1, 1, 1, 2]))
        switch = len(years) if shared else draw(st.integers(0, len(years)))
        if switch < len(years):
            smallest = min(sizes[switch:])
            K = draw(st.integers(1, smallest - 2))
            I = draw(st.integers(1, smallest - 1 - K))
            rules.append(LevelsRule(country, years[switch], years[-1], K, I))
        config = Config(levels=tuple(rules))
        spans.append(range(len(leagues), len(leagues) + len(years)))
        for year, teams in zip(years, rosters):
            records = table(teams, draw(st.sampled_from(KINDS)), rng, ranked=draw(st.booleans()))
            K, I = config.levels_for(country, year, len(teams))
            leagues.append(LeagueSeason(country, year, records, K=K, I=I))

    def remake(at, kind, teams=None):
        lg = leagues[at]
        teams = teams or [r.team for r in lg.records]
        records = table(teams, kind, rng, ranked=kind == "incomplete" and draw(st.booleans()))
        leagues[at] = LeagueSeason(lg.country, lg.season, records, K=lg.K, I=lg.I)

    if len(spans) >= 3 and draw(st.booleans()):
        remake(spans[0][0], "incomplete")
        remake(spans[-1][-1], "incomplete")
        middle = spans[draw(st.integers(1, len(spans) - 2))]
        paired = [i for i in middle[1:] if leagues[i].season == leagues[i - 1].season + 1]
        if paired and draw(st.booleans()):
            at = draw(st.sampled_from(paired))
            fresh = [f"{leagues[at].country}-x{k}" for k in range(leagues[at].n)]
            remake(at, draw(st.sampled_from(["round-robin", "incomplete"])), fresh)
        else:
            remake(draw(st.sampled_from(middle)), draw(st.sampled_from(["all-lost", "no-games"])))
    # a season that no index can score, in about one other league set of four
    elif draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(leagues) - 1))
        remake(at, draw(st.sampled_from(["all-lost", "no-games"])))
    order = draw(st.permutations(range(len(leagues))))
    config = Config(g_window=draw(st.integers(2, 4)), levels=tuple(rules))
    return [leagues[i] for i in order], config


NAMES = st.one_of(
    st.none(),
    st.just(FIT_INDICES),
    st.lists(st.sampled_from(ALL_INDEX_NAMES), min_size=1, unique=True),
)


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(league_sets(), NAMES)
def test_blocks_match_the_season_by_season_reference(case, names):
    leagues, config = case
    assert_same_as_reference(leagues, config, names)


def test_a_thousand_team_league_matches_the_reference():
    # one season's n x n comparisons exceed a chunk: the blocks go season by season
    rng = np.random.default_rng(5)
    teams = [f"T{i}" for i in range(1000)]
    leagues = []
    for year in (2000, 2001, 2002):
        order = rng.permutation(1000)
        teams = [teams[i] for i in order[:990]] + [f"N{year}-{k}" for k in range(10)]
        records = table(teams, "incomplete", rng, ranked=True)
        leagues.append(LeagueSeason("BIG", year, records, K=3, I=3))
    (values, _), warned = assert_same_as_reference(leagues, Config(g_window=3))
    assert len(values) == 7 + 2 * 16 + 1
    assert warned


def test_a_long_block_spanning_chunks_matches_the_reference():
    rng = np.random.default_rng(8)
    teams = [f"T{i}" for i in range(24)]
    leagues = []
    for year in range(1950, 2010):
        teams = list(rng.permutation(teams))
        leagues.append(LeagueSeason("A", year, table(teams, "round-robin", rng, ranked=True)))
    (values, diags), _ = assert_same_as_reference(leagues)
    assert len(values) == 7 * 60 + 9 * 59 + 56 and len(diags) == 56


def test_a_block_scores_each_row_as_one_row_blocks_do():
    rng = np.random.default_rng(11)
    teams = [f"T{i}" for i in range(12)]
    seasons = []
    for year in range(2000, 2009):
        teams = list(rng.permutation(teams[:10])) + [f"N{year}-{k}" for k in range(2)]
        records = table(teams, "round-robin", rng, ranked=True)
        seasons.append(LeagueSeason("A", year, records, K=3, I=2))
    w = np.array([winning_percentages(lg) for lg in seasons])
    pairs = [dyn.SeasonPair(a, b) for a, b in zip(seasons, seasons[1:])]
    calls = [
        (seas.namsi, w, ()), (seas.hhi_star, w, ()), (seas.adjusted_gini, w, ()),
        (seas.ncr_champion, w, ()), (seas.acr_top, w, (3,)), (seas.ncr_relegation, w, (2,)),
        (seas.scr, w, (3, 2)), (dyn.tau_rescaled, pairs, ()), (dyn.dn_champion, pairs, ()),
        (dyn.adn_top, pairs, (3,)), (dyn.dn_relegation, pairs, (2,)), (dyn.sdn, pairs, (3, 2)),
    ]
    for fn, block, args in calls:
        whole = fn(block, *args)
        assert whole.shape == (len(block),)
        rows = np.concatenate([fn(block[i : i + 1], *args) for i in range(len(block))])
        assert whole.tobytes() == rows.tobytes(), fn.__name__


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", ["uniform", "staggered"])
def test_the_bench_league_sets_match_the_reference(shape, seed):
    # the fit workloads write these values to indices.csv: a value one ulp
    # off changes a fit's input
    leagues = bench_leagues(shape, seed)
    for names in (None, FIT_INDICES):
        (values, diags), warned = assert_same_as_reference(leagues, names=names)
        # seven seasonal values a season, nine more from each country's second
        assert len(values) == 7 * len(leagues) + 9 * (len(leagues) - 8) + len(diags)
        assert len(diags) == (0 if names else len(leagues) - 8 * 4)  # G windows of 5 seasons
        assert not warned


def test_a_season_given_twice_keeps_the_sorted_order():
    rng = np.random.default_rng(3)
    teams = [f"T{i}" for i in range(10)]
    leagues = [
        LeagueSeason("A", year, table(teams, "round-robin", rng, ranked=True))
        for year in (2000, 2001, 2001, 2002)
    ]
    assert_same_as_reference(leagues)


def test_the_value_builder_takes_empty_columns():
    assert index_values([], [], [], []) == []


def test_an_empty_league_set_has_no_values():
    assert compute_all_indices([]) == ([], [])


def test_leagues_shorter_than_the_g_window_give_no_g():
    rng = np.random.default_rng(4)
    teams = [f"T{i}" for i in range(8)]
    leagues = [
        LeagueSeason(country, year, table(teams, "round-robin", rng, ranked=True))
        for country in ("A", "B")
        for year in (2000, 2001, 2002)
    ]
    assert compute_all_indices(leagues, Config(g_window=4), names=["g"]) == ([], [])


def test_one_season_leagues_have_no_pairwise_values():
    rng = np.random.default_rng(6)
    leagues = [
        LeagueSeason(country, 2000, table([f"T{i}" for i in range(8)], "round-robin", rng, True))
        for country in ("A", "B", "C")
    ]
    assert compute_all_indices(leagues, names=["tau"]) == ([], [])


def test_a_count_beyond_the_float_range_fails_where_the_reference_does():
    rng = np.random.default_rng(9)
    huge = 10**400
    records = (
        TeamSeasonRecord("X", 1, huge, 0, 0, 2 * huge),
        TeamSeasonRecord("Y", 2, 0, huge, 0, huge),
        TeamSeasonRecord("Z", 3, 0, 0, huge, 0),
    )
    overflow = LeagueSeason("C", 2000, records, K=1, I=1)
    (error, kind, _), _ = assert_same_as_reference([overflow])
    assert (error, kind) == ("error", "OverflowError")
    # an earlier country's unscorable season is the first error
    lost = LeagueSeason("B", 2000, table(["P", "Q", "R"], "all-lost", rng, False), K=1, I=1)
    (error, kind, _), _ = assert_same_as_reference([overflow, lost])
    assert (error, kind) == ("error", "InputError")
