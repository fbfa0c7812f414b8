"""Between-seasons competitive-balance indices and their bi-dimensional averages.

Pairwise indices score ranking persistence across two consecutive seasons
(1 = the tracked places are frozen, 0 = maximal turnover).  The windowed G
index scores how few distinct teams enter the top K over a multi-season
window relative to their exact expected number under independent random
rankings per season.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ALL_LEVELS, PRIZE_LEVELS, RELEGATION, TITLE, TOP_K, IndexValue, PrizeLevel
from .errors import InputError
from .panel import LeagueSeason


@dataclass(frozen=True)
class SeasonPair:
    """Two consecutive seasons of the same league."""

    prev: LeagueSeason
    curr: LeagueSeason

    def __post_init__(self) -> None:
        if self.prev.country != self.curr.country:
            raise InputError(
                f"season pair mixes countries {self.prev.country!r} and {self.curr.country!r}"
            )
        if self.curr.season != self.prev.season + 1:
            raise InputError(
                f"({self.curr.country}): seasons {self.prev.season} and {self.curr.season} "
                "are not consecutive"
            )


@dataclass(frozen=True)
class TopKWindow:
    """T consecutive seasons of one league, tracked at the top K places."""

    seasons: tuple[LeagueSeason, ...]
    K: int

    def __post_init__(self) -> None:
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


def kendall_tau_b(x, y) -> float:
    """Kendall tau-b by integer pair counts (exact at the +/-1 endpoints)."""
    n = len(x)
    if n != len(y) or n < 2:
        raise InputError("tau-b needs two equally long sequences of length >= 2")
    conc = disc = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    if ties_x == n0 or ties_y == n0:
        raise InputError("tau-b undefined: one ranking is entirely tied")
    if ties_x == 0 and ties_y == 0:
        return (conc - disc) / n0
    return (conc - disc) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def tau_rescaled(pair: SeasonPair) -> float:
    """Rank correlation of consecutive-season standings, rescaled to [0, 1].

    Kendall tau-b over the teams present in both seasons, mapped through
    (1 + tau) / 2 so that 1 means identical ordering (imbalance) and 0 a
    fully reversed one.
    """
    prev_ranks = pair.prev.rank_of()
    curr_ranks = pair.curr.rank_of()
    common = sorted(set(prev_ranks) & set(curr_ranks))
    if len(common) < 2:
        raise InputError(
            f"({pair.curr.country}, {pair.curr.season}): fewer than 2 teams present in "
            "both seasons"
        )
    x = [prev_ranks[t] for t in common]
    y = [curr_ranks[t] for t in common]
    return (1.0 + kendall_tau_b(x, y)) / 2.0


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


@dataclass(frozen=True)
class GIndexResult:
    """G index value with the two counts it compares."""

    value: float
    observed: int
    expected: float


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


def combine_bidimensional(seasonal: IndexValue, dynamic: IndexValue) -> IndexValue:
    """Average a seasonal index with its dynamic counterpart.

    Valid pairings are the prize levels of ``catalog.PRIZE_LEVELS``:
    (ncr1, dn1) -> dc1, (acr_k, adn_k) -> adc_k, (ncr_i, dn_i) -> dc_i,
    (scr_ki, sdn_ki) -> sdc_ki.
    """
    for level in PRIZE_LEVELS:
        if (seasonal.name, dynamic.name) == (level.seasonal, level.dynamic):
            break
    else:
        raise InputError(
            f"cannot pair seasonal index {seasonal.name!r} with dynamic index {dynamic.name!r}"
        )
    if (seasonal.country, seasonal.season) != (dynamic.country, dynamic.season):
        raise InputError(
            f"pairing error: {seasonal.name} is for ({seasonal.country}, {seasonal.season}) "
            f"but {dynamic.name} is for ({dynamic.country}, {dynamic.season})"
        )
    return IndexValue(
        name=level.bidimensional,
        country=seasonal.country,
        season=seasonal.season,
        value=(seasonal.value + dynamic.value) / 2.0,
    )
