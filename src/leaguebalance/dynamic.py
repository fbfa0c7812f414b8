"""Between-seasons competitive-balance indices.

Pairwise indices score ranking persistence across two consecutive seasons
(1 = the tracked places are frozen, 0 = maximal turnover).  The windowed G
index scores how few distinct teams enter the top K over a multi-season
window relative to their exact expected number under independent random
rankings per season.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import ALL_LEVELS, RELEGATION, TITLE, TOP_K, PrizeLevel
from .errors import InputError
from .panel import LeagueSeason
from .record import Record


class SeasonPair(Record):
    """Two consecutive seasons of the same league."""

    def __init__(self, prev: LeagueSeason, curr: LeagueSeason) -> None:
        self.__dict__.update(prev=prev, curr=curr)
        if self.prev.country != self.curr.country:
            raise InputError(
                f"season pair mixes countries {self.prev.country!r} and {self.curr.country!r}"
            )
        if self.curr.season != self.prev.season + 1:
            raise InputError(
                f"({self.curr.country}): seasons {self.prev.season} and {self.curr.season} "
                "are not consecutive"
            )


class TopKWindow(Record):
    """T consecutive seasons of one league, tracked at the top K places."""

    def __init__(self, seasons: tuple[LeagueSeason, ...], K: int) -> None:
        self.__dict__.update(seasons=seasons, K=K)
        if len(self.seasons) < 2:
            raise InputError("top-K window needs at least 2 seasons")
        country = self.seasons[0].country
        for a, b in zip(self.seasons, self.seasons[1:]):
            if b.country != country:
                raise InputError("top-K window mixes countries")
            if b.season != a.season + 1:
                raise InputError(
                    f"({country}): window seasons {a.season} and {b.season} are not consecutive"
                )
        if any(self.K >= s.n for s in self.seasons):
            raise InputError(f"K={self.K} not below every season size in the window")
        if self.K < 1:
            raise InputError("K must be >= 1")

    @property
    def country(self) -> str:
        return self.seasons[0].country

    @property
    def end_season(self) -> int:
        return self.seasons[-1].season


def tau_rescaled(pair: SeasonPair) -> float:
    """Rank correlation of consecutive-season standings, rescaled to [0, 1].

    Kendall's tau over the teams present in both seasons, mapped through
    (1 + tau) / 2 so that 1 means identical ordering (imbalance) and 0 a
    fully reversed one.
    """
    prev_ranks = pair.prev.rank_of()
    curr_ranks = pair.curr.rank_of()
    common = set(prev_ranks) & set(curr_ranks)
    n = len(common)
    if n < 2:
        raise InputError(
            f"({pair.curr.country}, {pair.curr.season}): fewer than 2 teams present in "
            "both seasons"
        )
    # a season's ranks are a permutation of 1..n, so no pair ties: in the
    # previous season's order, a pair is concordant iff its current ranks rise
    curr = [curr_ranks[t] for t in sorted(common, key=prev_ranks.__getitem__)]
    conc = 0
    for i, a in enumerate(curr):
        for b in curr[i + 1 :]:
            conc += a < b
    n0 = n * (n - 1) // 2
    return (1.0 + (conc - (n0 - conc)) / n0) / 2.0


def _persistence(prev_rank: int | None, rank: int, n_prev: int) -> float:
    """Rank persistence in [0, 1]: 1 = same place, 0 = absent or maximally moved."""
    if prev_rank is None:
        return 0.0
    return 1.0 - min(abs(prev_rank - rank), n_prev - 1) / (n_prev - 1.0)


def _weighted_persistence(pair: SeasonPair, level: PrizeLevel, K: int, I: int) -> float:
    """sum_r v_r * persistence_r / sum_r v_r over the level's weighted places
    of the current season, with the level's rank weights v."""
    curr = pair.curr
    top, bottom = level.weights(K, I, curr.n)
    ranks = list(range(1, top.size + 1)) + list(range(curr.n - bottom.size + 1, curr.n + 1))
    prev_ranks = pair.prev.rank_of()
    n_prev = pair.prev.n
    num = 0.0
    den = 0.0
    for r, v in zip(ranks, np.concatenate([top, bottom])):
        num += v * _persistence(prev_ranks.get(curr.records[r - 1].team), r, n_prev)
        den += v
    return float(num / den)


def dn_champion(pair: SeasonPair) -> float:
    """Champion persistence across two seasons; 1 iff the champion repeats,
    0 for a champion promoted from outside the league."""
    return _weighted_persistence(pair, TITLE, 0, 0)


def adn_top(pair: SeasonPair, K: int) -> float:
    """Weighted persistence of the current top K places (``catalog.TOP_K``)."""
    return _weighted_persistence(pair, TOP_K, K, 0)


def dn_relegation(pair: SeasonPair, I: int) -> float:
    """Mean persistence of the current relegation-zone places."""
    return _weighted_persistence(pair, RELEGATION, 0, I)


def sdn(pair: SeasonPair, K: int, I: int) -> float:
    """Weighted persistence over top-K and relegation places, using the same
    rank weights as the seasonal three-level concentration ratio."""
    return _weighted_persistence(pair, ALL_LEVELS, K, I)


class GIndexResult(Record):
    """G index value with the two counts it compares."""

    def __init__(self, value: float, observed: int, expected: float) -> None:
        self.__dict__.update(value=value, observed=observed, expected=expected)


def g_index_detail(window: TopKWindow) -> GIndexResult:
    """G index: scarcity of distinct top-K entrants over the window.

    Let A be the observed number of distinct teams entering the top K and E
    its expectation when every season's ranking is an independent uniform
    permutation of that season's observed roster.  A team on the roster in
    seasons S misses the top K in all of them with probability
    prod_{s in S} (1 - K/n_s), so by linearity of expectation

        E = sum_team [1 - prod_{s in S(team)} (1 - K/n_s)],

    the open-league form of N(1 - (1 - K/N)^T) in Buzzacchi, Szymanski and
    Valletti (2003).  Returns clamp_0^1((E - A) / (E - K)): 1 when the same K
    teams hold the top K every season, about 0 when turnover matches the
    balanced expectation.  With at least two seasons and K < n_s everywhere,
    E - K >= K (1 - K/n_1) > 0.
    """
    K = window.K
    miss: dict[str, float] = {}
    for s in window.seasons:
        q = (s.n - K) / s.n
        for rec in s.records:
            miss[rec.team] = miss.get(rec.team, 1.0) * q
    # fsum is correctly rounded, so E does not depend on the team order
    expected = math.fsum(1.0 - m for m in miss.values())
    observed = len({rec.team for s in window.seasons for rec in s.records[:K]})
    raw = (expected - observed) / (expected - K)
    return GIndexResult(
        value=float(min(1.0, max(0.0, raw))), observed=observed, expected=expected
    )

