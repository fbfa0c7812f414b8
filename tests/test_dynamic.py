import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import (
    InputError,
    SeasonPair,
    TopKWindow,
    adn_top,
    dn_champion,
    dn_relegation,
    g_index_detail,
    sdn,
    tau_rescaled,
)
from support import all_draw_season, cu_season, relabel, reranked

N11 = 11


def eleven_team_pair(curr_prev_ranks: dict[int, int | None]):
    """Pair of 11-team seasons; curr rank -> prev rank (None = promoted)."""
    from leaguebalance.panel import LeagueSeason, TeamSeasonRecord

    prev = cu_season(N11, season=1999)
    used = {p for p in curr_prev_ranks.values() if p is not None}
    free = [p for p in range(1, N11 + 1) if p not in used]
    new_id = itertools.count()
    records = []
    for r in range(1, N11 + 1):
        if r in curr_prev_ranks:
            p = curr_prev_ranks[r]
            team = f"NEW{next(new_id)}" if p is None else f"T{p - 1}"
        else:
            team = f"T{free.pop() - 1}"
        records.append(
            TeamSeasonRecord(
                team=team, rank=r, wins=2 * (N11 - r), draws=0, losses=2 * (r - 1),
                points=4 * (N11 - r),
            )
        )
    curr = LeagueSeason(
        country=prev.country, season=2000, records=tuple(records), K=prev.K, I=prev.I
    )
    return SeasonPair(prev=prev, curr=curr)


# ---------------------------------------------------------------- tau


def kendall_oracle(x, y):
    # O(n^2) concordant/discordant pair scan (no ties in strict rankings)
    c = d = 0
    for (x1, y1), (x2, y2) in itertools.combinations(zip(x, y), 2):
        s = (x1 - x2) * (y1 - y2)
        c += s > 0
        d += s < 0
    return (c - d) / (c + d)


class TestTauRescaled:
    def test_identical_rankings(self):
        prev = cu_season(4, season=1999)
        curr = reranked(prev, [0, 1, 2, 3])
        assert tau_rescaled(SeasonPair(prev, curr)) == 1.0

    def test_reversed_rankings(self):
        prev = cu_season(4, season=1999)
        curr = reranked(prev, [3, 2, 1, 0])
        assert tau_rescaled(SeasonPair(prev, curr)) == 0.0

    def test_adjacent_swap(self):
        prev = cu_season(4, season=1999)
        curr = reranked(prev, [0, 2, 1, 3])
        tau = kendall_oracle([1, 2, 3, 4], [1, 3, 2, 4])
        assert tau == pytest.approx(2.0 / 3.0)
        assert tau_rescaled(SeasonPair(prev, curr)) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_matches_pair_scan_on_random_permutations(self):
        rng = np.random.default_rng(3)
        prev = cu_season(8, season=1999)
        for _ in range(20):
            order = rng.permutation(8)
            curr = reranked(prev, list(order))
            prev_ranks = [prev.rank_of()[t] for t in sorted(prev.roster())]
            curr_ranks = [curr.rank_of()[t] for t in sorted(prev.roster())]
            expected = (1 + kendall_oracle(prev_ranks, curr_ranks)) / 2
            assert tau_rescaled(SeasonPair(prev, curr)) == pytest.approx(expected, abs=1e-12)

    def test_insufficient_overlap(self):
        prev = cu_season(4, season=1999)
        curr = cu_season(4, season=2000)
        curr = relabel(curr, {f"T{i}": f"X{i}" for i in range(4)})
        with pytest.raises(InputError, match="fewer than 2"):
            tau_rescaled(SeasonPair(prev, curr))

    def test_mismatched_pair_rejected(self):
        with pytest.raises(InputError, match="consecutive"):
            SeasonPair(cu_season(4, season=1999), cu_season(4, season=2001))


# ---------------------------------------------------------------- champion / zones


class TestChampionPersistence:
    def test_repeat_champion(self):
        pair = eleven_team_pair({1: 1})
        assert dn_champion(pair) == 1.0

    def test_promoted_champion_clamps_to_zero(self):
        pair = eleven_team_pair({1: None})
        assert dn_champion(pair) == 0.0

    def test_champion_from_rank_three(self):
        pair = eleven_team_pair({1: 3})
        assert dn_champion(pair) == pytest.approx(0.8, abs=1e-12)


class TestWeightedPersistence:
    def test_adn_identical_top(self):
        pair = eleven_team_pair({1: 1, 2: 2})
        assert adn_top(pair, K=2) == 1.0

    def test_adn_hand_value(self):
        pair = eleven_team_pair({1: 1, 2: 6})
        # champion m=1 (weight 2), runner-up m=1-4/10 (weight 1)
        assert adn_top(pair, K=2) == pytest.approx((2 * 1 + 1 * 0.6) / 3, abs=1e-12)

    def test_adn_all_promoted_is_zero(self):
        pair = eleven_team_pair({1: None, 2: None})
        assert adn_top(pair, K=2) == 0.0

    def test_dn_relegation_hand_value(self):
        pair = eleven_team_pair({10: 5, 11: 11})
        assert dn_relegation(pair, I=2) == pytest.approx(0.75, abs=1e-12)

    def test_dn_relegation_unchanged_zone(self):
        pair = eleven_team_pair({10: 10, 11: 11})
        assert dn_relegation(pair, I=2) == 1.0

    def test_sdn_uses_seasonal_weights(self):
        # K=1: top weight K+2-1 = 2; relegation weight 1
        pair = eleven_team_pair({1: 1, 11: 6})
        assert sdn(pair, K=1, I=1) == pytest.approx((2 * 1 + 1 * 0.5) / 3, abs=1e-12)

    def test_sdn_frozen_tracked_ranks(self):
        pair = eleven_team_pair({1: 1, 2: 2, 10: 10, 11: 11})
        assert sdn(pair, K=2, I=2) == 1.0

    def test_range_checks(self):
        pair = eleven_team_pair({1: 1})
        with pytest.raises(InputError):
            adn_top(pair, K=11)
        with pytest.raises(InputError):
            dn_relegation(pair, I=0)
        with pytest.raises(InputError):
            sdn(pair, K=6, I=5)


def test_all_pairwise_indices_in_unit_interval_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(6, 14))
        prev = cu_season(n, season=1999, K=2, I=2)
        curr = reranked(prev, list(rng.permutation(n)))
        pair = SeasonPair(prev, curr)
        for value in (
            tau_rescaled(pair),
            dn_champion(pair),
            adn_top(pair, 2),
            dn_relegation(pair, 2),
            sdn(pair, 2, 2),
        ):
            assert 0.0 <= value <= 1.0


def test_dn_champion_is_one_iff_champion_repeats():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(4, 12))
        prev = cu_season(n, season=1999)
        curr = reranked(prev, list(rng.permutation(n)))
        pair = SeasonPair(prev, curr)
        repeats = curr.records[0].team == prev.records[0].team
        assert (dn_champion(pair) == 1.0) == repeats


def test_frozen_league_scores_one_everywhere():
    prev = cu_season(8, season=1999, K=2, I=2)
    curr = reranked(prev, list(range(8)))
    pair = SeasonPair(prev, curr)
    assert tau_rescaled(pair) == 1.0
    assert dn_champion(pair) == 1.0
    assert adn_top(pair, 2) == 1.0
    assert dn_relegation(pair, 2) == 1.0
    assert sdn(pair, 2, 2) == 1.0


# ---------------------------------------------------------------- G index


def frozen_window(n=16, t=5, k=3):
    seasons = [cu_season(n, season=2000 + j, K=k, I=3) for j in range(t)]
    return TopKWindow(seasons=tuple(seasons), K=k)


def g_oracle_expectation(rosters, k, reps, seed):
    """Straight-line simulation with the stdlib generator."""
    rng = random.Random(seed)
    total = 0.0
    totsq = 0.0
    for _ in range(reps):
        distinct = set()
        for roster in rosters:
            teams = list(roster)
            rng.shuffle(teams)
            distinct.update(teams[:k])
        total += len(distinct)
        totsq += len(distinct) ** 2
    mean = total / reps
    var = (totsq - total * total / reps) / (reps - 1)
    return mean, (var / reps) ** 0.5


def window_of(rosters, k, start=2000):
    """Window whose season j ranks ``rosters[j]`` in the listed order."""
    seasons = [
        relabel(cu_season(len(teams), season=start + j), {f"T{i}": t for i, t in enumerate(teams)})
        for j, teams in enumerate(rosters)
    ]
    return TopKWindow(seasons=tuple(seasons), K=k)


def g_enumeration_expectation(rosters, k):
    """Mean distinct top-k count over every combination of per-season top-k sets.

    Under a uniform ranking each of a season's C(n, k) top-k subsets is
    equally likely and seasons are independent, so this mean is the exact
    expectation.
    """
    total = 0
    count = 0
    for tops in itertools.product(*(itertools.combinations(r, k) for r in rosters)):
        total += len(set().union(*tops))
        count += 1
    return Fraction(total, count)


class TestGIndex:
    def test_same_top_k_every_season_is_one(self):
        assert g_index_detail(frozen_window()).value == 1.0

    @pytest.mark.parametrize(
        "rosters,k",
        [
            (["ABC", "ABD"], 1),
            (["ABC", "ABD", "BDE"], 2),
            (["ABCD", "ABCE", "BCEFG"], 2),
            (["ABCDE", "ABCFG", "AFGHI"], 2),
            (["ABCDE", "ABCDE", "ABCDE"], 3),
            (["ABCDE", "EDCBA"], 4),
        ],
    )
    def test_expectation_matches_exhaustive_enumeration(self, rosters, k):
        window = window_of([list(r) for r in rosters], k)
        exact = g_enumeration_expectation(rosters, k)
        assert abs(g_index_detail(window).expected - float(exact)) <= 1e-12

    def test_expectation_matches_independent_simulation(self):
        window = frozen_window(n=16, t=5, k=3)
        detail = g_index_detail(window)
        rosters = [tuple(r.team for r in s.records) for s in window.seasons]
        e2, se2 = g_oracle_expectation(rosters, 3, 10_000, seed=99)
        assert abs(detail.expected - e2) <= 3.0 * se2

    def test_full_turnover_scores_near_zero(self):
        # rotate completely distinct top teams through the window
        n, t, k = 12, 4, 2
        seasons = []
        for j in range(t):
            base = cu_season(n, season=2000 + j, K=k, I=2)
            order = list(np.roll(np.arange(n), -k * j))
            seasons.append(reranked(base, order, season_year=2000 + j))
        window = TopKWindow(seasons=tuple(seasons), K=k)
        detail = g_index_detail(window)
        assert detail.observed == k * t
        assert detail.value <= 0.15

    def test_label_invariance_under_consistent_relabeling(self):
        window = frozen_window(n=10, t=3, k=2)
        mapping = {f"T{i}": f"Z{9 - i}" for i in range(10)}
        relabeled = TopKWindow(
            seasons=tuple(relabel(s, mapping) for s in window.seasons), K=2
        )
        assert g_index_detail(window) == g_index_detail(relabeled)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_window_properties(self, data):
        pool = [f"P{i}" for i in range(12)]
        t = data.draw(st.integers(min_value=2, max_value=5))
        rosters = [
            data.draw(st.permutations(pool))[: data.draw(st.integers(min_value=3, max_value=10))]
            for _ in range(t)
        ]
        n_min = min(len(r) for r in rosters)
        k = data.draw(st.integers(min_value=1, max_value=n_min - 1))
        detail = g_index_detail(window_of(rosters, k))
        assert detail.expected - k >= k * (1 - k / len(rosters[0])) - 1e-12
        assert 0.0 <= detail.value <= 1.0
        assert k <= detail.observed <= min(k * t, len(set().union(*rosters)))

        names = data.draw(st.permutations([f"Q{i}" for i in range(12)]))
        mapping = dict(zip(pool, names))
        relabeled = window_of([[mapping[team] for team in r] for r in rosters], k)
        assert g_index_detail(relabeled) == detail

    def test_window_validation(self):
        with pytest.raises(InputError):
            TopKWindow(seasons=(cu_season(6, season=2000),), K=2)
        with pytest.raises(InputError, match="consecutive"):
            TopKWindow(seasons=(cu_season(6, season=2000), cu_season(6, season=2002)), K=2)
