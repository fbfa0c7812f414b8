"""Compute every configured index for every country-season of a league set.

Every index is a deterministic function of the league tables and the
config: G compares against its exact expectation under random rankings.
"""

from __future__ import annotations

from . import dynamic as dyn
from . import seasonal as seas
from .catalog import ALL_INDEX_NAMES, PRIZE_LEVELS, IndexValue
from .errors import InputError
from .panel import Config, LeagueSeason, winning_percentages
from .record import Record


class GDiagnostic(Record):
    """Per-window expected distinct top-K count behind the G index."""

    def __init__(self, country: str, season: int, e_hat: float) -> None:
        self.__dict__.update(country=country, season=season, e_hat=e_hat)


def compute_seasonal(season: LeagueSeason) -> list[IndexValue]:
    """The seven within-season indices for one league table."""
    w = seas.check_percentages(winning_percentages(season), f"({season.country}, {season.season})")
    values = {
        "namsi": seas.namsi(w),
        "hhi_star": seas.hhi_star(w),
        "agini": seas.adjusted_gini(w),
        "ncr1": seas.ncr_champion(w),
        "acr_k": seas.acr_top(w, season.K),
        "ncr_i": seas.ncr_relegation(w, season.I),
        "scr_ki": seas.scr(w, season.K, season.I),
    }
    return [
        IndexValue(name=name, country=season.country, season=season.season, value=v)
        for name, v in values.items()
    ]


def compute_pairwise(pair: dyn.SeasonPair) -> list[IndexValue]:
    """The five consecutive-season indices, recorded at the current season."""
    curr = pair.curr
    values = {
        "tau": dyn.tau_rescaled(pair),
        "dn1": dyn.dn_champion(pair),
        "adn_k": dyn.adn_top(pair, curr.K),
        "dn_i": dyn.dn_relegation(pair, curr.I),
        "sdn_ki": dyn.sdn(pair, curr.K, curr.I),
    }
    return [
        IndexValue(name=name, country=curr.country, season=curr.season, value=v)
        for name, v in values.items()
    ]


def compute_all_indices(
    leagues: list[LeagueSeason],
    config: Config | None = None,
    names=None,
) -> tuple[list[IndexValue], list[GDiagnostic]]:
    """All seventeen indices for every country-season where they are defined.

    Seasonal indices exist for every season; pairwise dynamic indices start
    one season late; G is recorded at the end of every full ``g_window``;
    bi-dimensional averages exist where both components do.  Output is
    sorted by (country, season, index).

    ``names`` restricts the output; G windows are only scored when g is
    requested.
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
        prev = None
        for lg in seasons:
            season_values = compute_seasonal(lg)
            if prev is not None and lg.season == prev.season + 1:
                season_values += compute_pairwise(dyn.SeasonPair(prev=prev, curr=lg))
                by_name = {v.name: v for v in season_values}
                season_values += [
                    dyn.combine_bidimensional(by_name[level.seasonal], by_name[level.dynamic])
                    for level in PRIZE_LEVELS
                    if level.bidimensional in requested
                ]
            values.extend(season_values)
            prev = lg
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

    out = sorted(
        (v for v in values if v.name in requested),
        key=lambda v: (v.country, v.season, v.name),
    )
    return out, g_diags


def series_from_values(values: list[IndexValue], name: str) -> dict[tuple[str, int], float]:
    """Extract one index as a {(country, season): value} series."""
    return {(v.country, v.season): v.value for v in values if v.name == name}
