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
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import ALL_INDEX_NAMES, compute_all_indices
from leaguebalance import dynamic as dyn
from leaguebalance import seasonal as seas
from leaguebalance.panel import (
    Config,
    LeagueSeason,
    LevelsRule,
    TeamSeasonRecord,
    winning_percentages,
)
from support import compute_all_indices_reference

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
    """One to three countries of up to eight seasons each, 3-24 teams that
    change in number and membership, gaps between seasons, and a levels rule
    that changes K and I from some season on.  Churn can leave a season
    pair fewer than two common teams, and a rule's K can reach the size of
    an earlier season in a G window."""
    leagues, rules = [], []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for c in range(draw(st.integers(1, 3))):
        country = f"C{c}"
        new_teams = (f"{country}-{k}" for k in itertools.count())
        roster = [next(new_teams) for _ in range(draw(st.integers(3, 24)))]
        season = 1990
        sizes, rosters, years = [], [], []
        for _ in range(draw(st.integers(1, 8))):
            n = draw(st.sampled_from([len(roster), draw(st.integers(3, 24))]))
            # no common team at all in about one pair of twenty
            churn = draw(st.integers(0, n if draw(st.integers(0, 19)) == 19 else n // 3))
            kept = draw(st.permutations(roster))[: n - churn]
            roster = kept + [next(new_teams) for _ in range(n - len(kept))]
            rosters.append(roster)
            sizes.append(n)
            years.append(season)
            season += draw(st.sampled_from([1, 1, 1, 1, 2]))
        switch = draw(st.integers(0, len(years)))
        if switch < len(years):
            smallest = min(sizes[switch:])
            K = draw(st.integers(1, smallest - 2))
            I = draw(st.integers(1, smallest - 1 - K))
            rules.append(LevelsRule(country, years[switch], years[-1], K, I))
        config = Config(levels=tuple(rules))
        for year, teams in zip(years, rosters):
            records = table(teams, draw(st.sampled_from(KINDS)), rng, ranked=draw(st.booleans()))
            K, I = config.levels_for(country, year, len(teams))
            leagues.append(LeagueSeason(country, year, records, K=K, I=I))
    # a season that no index can score, in about one league set of four
    if draw(st.integers(0, 3)) == 3:
        at = draw(st.integers(0, len(leagues) - 1))
        lg = leagues[at]
        kind = draw(st.sampled_from(["all-lost", "no-games"]))
        records = table([r.team for r in lg.records], kind, rng, ranked=False)
        leagues[at] = LeagueSeason(lg.country, lg.season, records, K=lg.K, I=lg.I)
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
