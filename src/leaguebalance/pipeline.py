"""Compute every configured index for every country-season of a league set.

Every index is a deterministic function of the league tables and the
config: G compares against its exact expectation under random rankings.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter

import numpy as np

from . import dynamic as dyn
from . import seasonal as seas
from .catalog import (
    ALL_INDEX_NAMES,
    PAIRWISE_INDEX_NAMES,
    PRIZE_LEVELS,
    SEASONAL_INDEX_NAMES,
    IndexValue,
)
from .errors import InputError
from .panel import Config, LeagueSeason, winning_percentages
from .record import Record


class GDiagnostic(Record):
    """Per-window expected distinct top-K count behind the G index."""

    def __init__(self, country: str, season: int, e_hat: float) -> None:
        self.__dict__.update(country=country, season=season, e_hat=e_hat)


def compute_all_indices(
    leagues: list[LeagueSeason],
    config: Config | None = None,
    names=None,
) -> tuple[list[IndexValue], list[GDiagnostic]]:
    """All seventeen indices for every country-season where they are defined.

    Seasonal indices exist for every season; pairwise dynamic indices start
    one season late; G is recorded at the end of every full ``g_window``;
    each prize level's bi-dimensional index, the mean of its seasonal index
    and its dynamic twin, exists where both do.  Output is sorted by
    (country, season, index).

    A country's seasons are scored in blocks of one shape: one call of each
    seasonal function per (teams, K, I) and of each pairwise function per
    (previous teams, teams, K, I).  The values, the first error and the
    warnings are those of scoring the seasons one by one in season order.

    ``names`` restricts the output, but every seasonal and pairwise index
    is computed for every season, so a season's first error and warnings do
    not depend on it; G windows are only scored when g is requested.
    """
    config = config or Config()
    requested = set(ALL_INDEX_NAMES) if names is None else set(names)
    unknown = requested - set(ALL_INDEX_NAMES)
    if unknown:
        raise InputError(f"unknown index name(s): {sorted(unknown)}")
    by_country: dict[str, list[LeagueSeason]] = {}
    for lg in leagues:
        by_country.setdefault(lg.country, []).append(lg)
    for country in by_country:
        by_country[country].sort(key=lambda s: s.season)

    values: list[IndexValue] = []
    g_diags: list[GDiagnostic] = []
    for country in sorted(by_country):
        seasons = by_country[country]
        blocks, pair_blocks, fault = _layout(country, seasons)
        found, paired = _score(country, seasons, blocks, pair_blocks)
        if fault is not None:
            raise fault
        years = [lg.season for lg in seasons]
        for name in ALL_INDEX_NAMES:
            if name in requested and name in found:
                defined = [True] * len(years) if name in SEASONAL_INDEX_NAMES else paired
                values.extend(
                    map(
                        IndexValue,
                        repeat(name),
                        repeat(country),
                        compress(years, defined),
                        compress(found[name].tolist(), defined),
                    )
                )
        if "g" in requested:
            t = config.g_window
            for end in range(t - 1, len(seasons)):
                chunk = seasons[end - t + 1 : end + 1]
                if chunk[-1].season - chunk[0].season == t - 1:
                    window = dyn.TopKWindow(seasons=tuple(chunk), K=chunk[-1].K)
                    detail = dyn.g_index_detail(window)
                    values.append(
                        IndexValue(
                            name="g", country=country, season=window.end_season,
                            value=detail.value,
                        )
                    )
                    g_diags.append(GDiagnostic(country, window.end_season, detail.expected))

    values.sort(key=attrgetter("country", "season", "name"))
    return values, g_diags


def _layout(country: str, seasons: list[LeagueSeason]):
    """One country's seasons, in season order, as the rows of its blocks.

    Returns ``blocks``, (n, K, I) -> [(position, checked winning
    percentages)], ``pair_blocks``, (n_prev, n, K, I) -> [(position of the
    current season, previous ranks)] for each season that follows its
    predecessor, and the fault.  The walk stops at the first fault: an
    exception from a season's percentages, which is returned to be raised
    once the seasons before it are scored, or a pair with fewer than two
    teams in common, which is kept as the last pair, for ``tau_rescaled``
    to raise after its season's seasonal indices.
    """
    blocks: dict[tuple, list] = {}
    pair_blocks: dict[tuple, list] = {}
    prev = None
    for i, lg in enumerate(seasons):
        try:
            w = seas.check_percentages(winning_percentages(lg), f"({country}, {lg.season})")
        except Exception as exc:  # raised by the caller once the seasons before it are scored
            return blocks, pair_blocks, exc
        blocks.setdefault((lg.n, lg.K, lg.I), []).append((i, w))
        if prev is not None and lg.season == prev.season + 1:
            ranks = dyn.previous_ranks(prev, lg)
            pair_blocks.setdefault((prev.n, lg.n, lg.K, lg.I), []).append((i, ranks))
            if len(ranks) - ranks.count(0) < 2:
                break
        prev = lg
    return blocks, pair_blocks, None


def _score(country: str, seasons: list[LeagueSeason], blocks: dict, pair_blocks: dict):
    """Every index but G of the laid-out seasons, as name -> one value per
    season, and which seasons have a pair; one call per function and block."""
    count = len(seasons)
    found = {name: np.zeros(count) for name in SEASONAL_INDEX_NAMES + PAIRWISE_INDEX_NAMES}
    for (_, K, I), rows in blocks.items():
        at = [i for i, _ in rows]
        w = seas.CheckedPercentages(np.array([percentages for _, percentages in rows]))
        found["namsi"][at] = seas.namsi(w)
        found["hhi_star"][at] = seas.hhi_star(w)
        found["agini"][at] = seas.adjusted_gini(w)
        found["ncr1"][at] = seas.ncr_champion(w)
        found["acr_k"][at] = seas.acr_top(w, K)
        found["ncr_i"][at] = seas.ncr_relegation(w, I)
        found["scr_ki"][at] = seas.scr(w, K, I)
    paired = [False] * count
    for (n_prev, _, K, I), rows in pair_blocks.items():
        at = [i for i, _ in rows]
        where = tuple(f"({country}, {seasons[i].season})" for i in at)
        pairs = dyn.PairRanks(np.array([ranks for _, ranks in rows]), n_prev, where)
        found["tau"][at] = dyn.tau_rescaled(pairs)
        found["dn1"][at] = dyn.dn_champion(pairs)
        found["adn_k"][at] = dyn.adn_top(pairs, K)
        found["dn_i"][at] = dyn.dn_relegation(pairs, I)
        found["sdn_ki"][at] = dyn.sdn(pairs, K, I)
        for i in at:
            paired[i] = True
    for level in PRIZE_LEVELS:
        found[level.bidimensional] = (found[level.seasonal] + found[level.dynamic]) / 2.0
    return found, paired


def series_from_values(values: list[IndexValue], name: str) -> dict[tuple[str, int], float]:
    """Extract one index as a {(country, season): value} series."""
    return {(v.country, v.season): v.value for v in values if v.name == name}
