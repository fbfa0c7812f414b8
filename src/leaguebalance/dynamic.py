"""Between-seasons competitive-balance indices.

Pairwise indices score ranking persistence across two consecutive seasons
(1 = the tracked places are frozen, 0 = maximal turnover).  Each pairwise
function scores a block of season pairs in one call, a ``PairRanks`` or a
sequence of ``SeasonPair``s whose seasons share their team counts, and
returns one value per pair.  The windowed G index scores how few distinct
teams enter the top K over a multi-season window relative to their exact
expected number under independent random rankings per season.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import ALL_LEVELS, RELEGATION, TITLE, TOP_K, PrizeLevel
from .errors import InputError
from .panel import LeagueSeason
from .record import Record
from .seasonal import CHUNK_VALUES


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


class PairRanks(Record):
    """A block of consecutive-season pairs, each as the previous ranks of its
    current season's places.

    ``prev_ranks[p, r - 1]`` is the rank that the team at place r of pair
    p's current season held the season before, 0 for a team that was not in
    the league then.  Every previous season of the block has ``n_prev``
    teams; ``where[p]`` names pair p's current season in messages.
    """

    def __init__(self, prev_ranks: np.ndarray, n_prev: int, where: tuple[str, ...]) -> None:
        self.__dict__.update(prev_ranks=prev_ranks, n_prev=n_prev, where=where)


def previous_ranks(prev: LeagueSeason, curr: LeagueSeason) -> list[int]:
    """The rank in ``prev`` of each team of ``curr`` in place order, 0 for a
    team new to the league."""
    before = prev.rank_of()
    return [before.get(rec.team, 0) for rec in curr.records]


def _as_ranks(pairs) -> PairRanks:
    """``pairs`` as one block: a ``PairRanks`` as it is, or a sequence of
    ``SeasonPair``s that share both seasons' team counts."""
    if isinstance(pairs, PairRanks):
        return pairs
    shapes = {(pair.prev.n, pair.curr.n) for pair in pairs}
    if len(shapes) != 1:
        raise InputError("a block of season pairs needs one team count per season of the pair")
    ((n_prev, n),) = shapes
    return PairRanks(
        np.array([previous_ranks(pair.prev, pair.curr) for pair in pairs]).reshape(-1, n),
        n_prev,
        tuple(f"({pair.curr.country}, {pair.curr.season})" for pair in pairs),
    )


def tau_rescaled(pairs) -> np.ndarray:
    """Rank correlation of consecutive-season standings, rescaled to [0, 1].

    Kendall's tau over the teams present in both seasons, mapped through
    (1 + tau) / 2 so that 1 means identical ordering (imbalance) and 0 a
    fully reversed one.
    """
    block = _as_ranks(pairs)
    ranks = block.prev_ranks
    common = np.count_nonzero(ranks, axis=1)
    for p in np.flatnonzero(common < 2)[:1]:
        raise InputError(f"{block.where[p]}: fewer than 2 teams present in both seasons")
    # a season's ranks are a permutation of 1..n, so no pair ties: places
    # i < j held both seasons are concordant iff their previous ranks rise
    seasons, n = ranks.shape
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    step = max(1, CHUNK_VALUES // (n * n))
    conc = np.empty(seasons, dtype=np.int64)
    for start in range(0, seasons, step):
        chunk = ranks[start : start + step]
        before = chunk[:, :, None]
        conc[start : start + step] = np.count_nonzero(
            (0 < before) & (before < chunk[:, None, :]) & later, axis=(1, 2)
        )
    n0 = common * (common - 1) // 2
    return (1.0 + (conc - (n0 - conc)) / n0) / 2.0


def _weighted_persistence(pairs, level: PrizeLevel, K: int, I: int) -> np.ndarray:
    """sum_r v_r * persistence_r / sum_r v_r over the level's weighted places
    of each current season, with the level's rank weights v.

    A place's persistence is 1 when its team held the same rank the season
    before and 0 when the team is new or moved as far as the previous
    season allows.  The terms are added place by place in one season's order.
    """
    block = _as_ranks(pairs)
    ranks = block.prev_ranks
    n = ranks.shape[1]
    n_prev = block.n_prev
    top, bottom = level.weights(K, I, n)
    places = list(range(1, top.size + 1)) + list(range(n - bottom.size + 1, n + 1))
    num = 0.0
    den = 0.0
    for r, v in zip(places, np.concatenate([top, bottom])):
        prev = ranks[:, r - 1]
        moved = 1.0 - np.minimum(np.abs(prev - r), n_prev - 1) / (n_prev - 1.0)
        num = num + v * np.where(prev == 0, 0.0, moved)
        den += v
    return num / den


def dn_champion(pairs) -> np.ndarray:
    """Champion persistence across two seasons; 1 iff the champion repeats,
    0 for a champion promoted from outside the league."""
    return _weighted_persistence(pairs, TITLE, 0, 0)


def adn_top(pairs, K: int) -> np.ndarray:
    """Weighted persistence of the current top K places (``catalog.TOP_K``)."""
    return _weighted_persistence(pairs, TOP_K, K, 0)


def dn_relegation(pairs, I: int) -> np.ndarray:
    """Mean persistence of the current relegation-zone places."""
    return _weighted_persistence(pairs, RELEGATION, 0, I)


def sdn(pairs, K: int, I: int) -> np.ndarray:
    """Weighted persistence over top-K and relegation places, using the same
    rank weights as the seasonal three-level concentration ratio."""
    return _weighted_persistence(pairs, ALL_LEVELS, K, I)


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

