"""Compute every configured index for every country-season of a league set.

Every index is a deterministic function of the league tables and the
config: G compares against its exact expectation under random rankings.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, repeat
from operator import attrgetter

import numpy as np

from . import dynamic as dyn
from . import seasonal as seas
from .catalog import (
    ALL_INDEX_NAMES,
    PRIZE_LEVELS,
    SEASONAL_INDEX_NAMES,
    IndexValue,
    index_values,
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

    The seasons of all countries are scored in blocks of one shape: one call
    of each seasonal function per (teams, K, I) and of each pairwise
    function per (previous teams, teams, K, I).  The values, the first error
    and the warnings are those of scoring the countries one by one in sorted
    order, each country's seasons one by one in season order.

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
    countries = [sorted(by_country[c], key=attrgetter("season")) for c in sorted(by_country)]
    seasons = [lg for country in countries for lg in country]
    blocks: dict[tuple, list[int]] = {}
    for position, lg in enumerate(seasons):
        blocks.setdefault((lg.n, lg.K, lg.I), []).append(position)
    percentages, pending = {}, {}  # pending: the rows of the seasons checked alone
    for key, at in blocks.items():
        percentages[key], passed = _percentages([seasons[i] for i in at])
        pending.update((at[r], percentages[key][r]) for r in np.flatnonzero(~passed))
    g_window = config.g_window if "g" in requested else 0
    count, pair_blocks, g_found, g_diags, fault = _walk(countries, pending, g_window)

    table = np.zeros((count, len(_OUTPUT_ORDER)))
    for (n, K, I), at in blocks.items():
        at = at[: bisect_left(at, count)]
        if not at:
            continue
        w = seas.CheckedPercentages(percentages[n, K, I][: len(at)])
        table[at, _COLUMN["namsi"]] = seas.namsi(w)
        table[at, _COLUMN["hhi_star"]] = seas.hhi_star(w)
        table[at, _COLUMN["agini"]] = seas.adjusted_gini(w)
        table[at, _COLUMN["ncr1"]] = seas.ncr_champion(w)
        table[at, _COLUMN["acr_k"]] = seas.acr_top(w, K)
        table[at, _COLUMN["ncr_i"]] = seas.ncr_relegation(w, I)
        table[at, _COLUMN["scr_ki"]] = seas.scr(w, K, I)
    defined = np.zeros((3, count), dtype=bool)  # every season, paired seasons, G window ends
    defined[0] = True
    for (n_prev, _, K, I), rows in pair_blocks.items():
        at = [i for i, _ in rows]
        where = tuple(f"({seasons[i].country}, {seasons[i].season})" for i in at)
        pairs = dyn.PairRanks(np.array([ranks for _, ranks in rows]), n_prev, where)
        table[at, _COLUMN["tau"]] = dyn.tau_rescaled(pairs)
        table[at, _COLUMN["dn1"]] = dyn.dn_champion(pairs)
        table[at, _COLUMN["adn_k"]] = dyn.adn_top(pairs, K)
        table[at, _COLUMN["dn_i"]] = dyn.dn_relegation(pairs, I)
        table[at, _COLUMN["sdn_ki"]] = dyn.sdn(pairs, K, I)
        defined[1, at] = True
    if fault is not None:
        raise fault
    for level in PRIZE_LEVELS:
        table[:, _COLUMN[level.bidimensional]] = (
            table[:, _COLUMN[level.seasonal]] + table[:, _COLUMN[level.dynamic]]
        ) / 2.0
    for i, value in g_found:
        table[i, _COLUMN["g"]] = value
        defined[2, i] = True

    columns = [j for j, name in enumerate(_OUTPUT_ORDER) if name in requested]
    defined = defined[_DEFINED_BY[columns]].T
    per_season = defined.sum(axis=1).tolist()
    values = index_values(
        list(compress([_OUTPUT_ORDER[j] for j in columns] * count, defined.ravel().tolist())),
        list(chain.from_iterable(map(repeat, (lg.country for lg in seasons), per_season))),
        list(chain.from_iterable(map(repeat, (lg.season for lg in seasons), per_season))),
        table[:, columns][defined].tolist(),
    )
    if len({(lg.country, lg.season) for lg in seasons[:count]}) < count:
        values.sort(key=attrgetter("country", "season", "name"))  # a season given twice
    return values, g_diags


# The indices in output order, and the seasons that define each: 0 every
# season, 1 those that follow their predecessor, 2 those ending a G window.
_OUTPUT_ORDER = tuple(sorted(ALL_INDEX_NAMES))
_COLUMN = {name: j for j, name in enumerate(_OUTPUT_ORDER)}
_DEFINED_BY = np.array([(n not in SEASONAL_INDEX_NAMES) + (n == "g") for n in _OUTPUT_ORDER])


def _percentages(block: list[LeagueSeason]) -> tuple[np.ndarray, np.ndarray]:
    """``winning_percentages`` of seasons of one team count, one row each
    with the bits of a one-season call, and which rows ``check_percentages``
    passes through as they are.  The other rows are left to the walk."""
    n = block[0].n
    try:
        wins = np.array([r.wins for lg in block for r in lg.records], dtype=float)
        draws = np.array([r.draws for lg in block for r in lg.records], dtype=float)
        games = np.array([lg.games for lg in block], dtype=float)
    except OverflowError:  # a count beyond the float range, raised by the walk
        return np.zeros((len(block), n)), np.zeros(len(block), dtype=bool)
    with np.errstate(all="ignore"):  # a season without games is left to the walk
        w = (2.0 * wins + draws).reshape(-1, n) / (2.0 * games)[:, None]
        mean = w.sum(axis=1) / n  # each row summed as one season's is
        passed = (np.abs(mean - 0.5) <= seas._RANGE_TOL) & (w.min(axis=1) >= 0.0)
    return w, passed


def _walk(countries: list[list[LeagueSeason]], pending: dict, g_window: int):
    """Walk the seasons as scoring them one by one meets them: country by
    country, each in season order.  A season in ``pending``, by position, is
    checked alone, with its warnings, into its row of block percentages.

    Returns the number of seasons laid out, the pairs as (n_prev, n, K, I)
    -> [(position, previous ranks)], the G values as (position, value) with
    their diagnostics, and the fault.  The walk stops before a season whose
    percentages raise, after the country of a G window that raises, and
    after a pair with fewer than two teams in common, for ``tau_rescaled``
    to raise.  Faults are raised once the seasons before them are scored.
    """
    pair_blocks: dict[tuple, list] = {}
    g_found: list[tuple[int, float]] = []
    g_diags: list[GDiagnostic] = []
    i = 0
    for seasons in countries:
        prev = None
        for lg in seasons:
            if i in pending:
                try:
                    pending[i][:] = seas.check_percentages(
                        winning_percentages(lg), f"({lg.country}, {lg.season})"
                    )
                except Exception as exc:
                    return i, pair_blocks, g_found, g_diags, exc
            if prev is not None and lg.season == prev.season + 1:
                ranks = dyn.previous_ranks(prev, lg)
                pair_blocks.setdefault((prev.n, lg.n, lg.K, lg.I), []).append((i, ranks))
                if len(ranks) - ranks.count(0) < 2:
                    return i + 1, pair_blocks, g_found, g_diags, None
            prev = lg
            i += 1
        if not g_window:
            continue
        for end in range(g_window - 1, len(seasons)):
            chunk = seasons[end - g_window + 1 : end + 1]
            if chunk[-1].season - chunk[0].season == g_window - 1:
                try:
                    window = dyn.TopKWindow(seasons=tuple(chunk), K=chunk[-1].K)
                except InputError as exc:
                    return i, pair_blocks, g_found, g_diags, exc
                detail = dyn.g_index_detail(window)
                g_found.append((i - len(seasons) + end, detail.value))
                g_diags.append(GDiagnostic(window.country, window.end_season, detail.expected))
    return i, pair_blocks, g_found, g_diags, None


def series_from_values(values: list[IndexValue], name: str) -> dict[tuple[str, int], float]:
    """Extract one index as a {(country, season): value} series."""
    return {(v.country, v.season): v.value for v in values if v.name == name}
