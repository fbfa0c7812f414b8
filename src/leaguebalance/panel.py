"""League tables, macro covariates, index values, and panel assembly.

Ingests final league tables, country-level macro series and index values
from CSV, validates them, and assembles the (possibly unbalanced)
country-by-season panel of log attendance and log covariates used by the
regression stage.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, lt, ne, or_
from typing import NoReturn

import numpy as np

from .catalog import IndexValue, check_index_values, collection_paused, index_values
from .errors import ConfigError, InputError
from .record import Record

LEAGUE_COLUMNS = ("country", "season", "team", "rank", "wins", "draws", "losses", "points")
MACRO_COLUMNS = ("country", "season", "attendance_avg", "population", "rgni_real", "unemployment_rate")
INDEX_COLUMNS = ("country", "season", "index", "value")

D97_CUTOFF = 1997  # first treated season is 1998


class TeamSeasonRecord(Record):
    """One team's row in a final league table."""

    def __init__(
        self, team: str, rank: int, wins: int, draws: int, losses: int, points: int
    ) -> None:
        self.__dict__.update(
            team=team, rank=rank, wins=wins, draws=draws, losses=losses, points=points
        )

    @property
    def games(self) -> int:
        return self.wins + self.draws + self.losses


class LeagueSeason(Record):
    """A country-season final table plus its prize/punishment level structure.

    ``K`` is the number of ranking places qualifying for continental play,
    ``I`` the number of relegation places.
    """

    def __init__(
        self,
        country: str,
        season: int,
        records: tuple[TeamSeasonRecord, ...],
        K: int = 3,
        I: int = 3,
    ) -> None:
        self.__dict__.update(country=country, season=season, records=records, K=K, I=I)
        n = len(self.records)
        where = f"({self.country}, {self.season})"
        if n < 3:
            raise InputError(f"{where}: league needs at least 3 teams, got {n}")
        ranks = [r.rank for r in self.records]
        if ranks != sorted(ranks):
            raise InputError(f"{where}: records must be sorted by rank ascending")
        if sorted(ranks) != list(range(1, n + 1)):
            dup = {r for r in ranks if ranks.count(r) > 1}
            if dup:
                raise InputError(f"{where}: duplicate rank {min(dup)}")
            raise InputError(f"{where}: ranks are not a permutation of 1..{n}")
        games = {r.games for r in self.records}
        if len(games) != 1:
            raise InputError(f"{where}: inconsistent games played across teams: {sorted(games)}")
        for r in self.records:
            if min(r.wins, r.draws, r.losses) < 0:
                raise InputError(f"{where}: negative W/D/L for team {r.team}")
        if self.K < 1 or self.I < 1 or self.K + self.I >= n:
            raise InputError(
                f"{where}: invalid level structure K={self.K}, I={self.I} for n={n} "
                "(requires 1 <= K, 1 <= I, K + I < n)"
            )

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def games(self) -> int:
        return self.records[0].games

    def roster(self) -> frozenset[str]:
        return frozenset(r.team for r in self.records)

    def rank_of(self) -> dict[str, int]:
        return {r.team: r.rank for r in self.records}


def league_seasons(heads, team, rank, wins, draws, losses, points) -> list[LeagueSeason]:
    """The ``LeagueSeason``s of a set of final tables given as row columns.

    ``heads`` holds each season's ``(country, season, n, K, I)``.  The six
    lists hold the fields of ``TeamSeasonRecord``: the n rows of a season,
    in table order, follow those of the season before.  Every rule of
    ``LeagueSeason`` is checked once over the columns, and the records are
    made without checking them again.  When a rule fails, the seasons are
    made one at a time by ``LeagueSeason``, which raises the first bad
    season's error.
    """
    sizes = [head[2] for head in heads]
    firsts = list(accumulate(sizes, initial=0))[:-1]
    games = list(map(add, map(add, wins, draws), losses))
    checked = (
        min(sizes, default=3) >= 3
        and rank == _table_ranks(heads)
        and games == list(chain.from_iterable(map(repeat, map(games.__getitem__, firsts), sizes)))
        and min(chain(wins, draws, losses), default=0) >= 0
        and all(1 <= K and 1 <= I and K + I < n for _, _, n, K, I in heads)
    )
    record, league = (
        (_checked_record, _checked_season) if checked else (TeamSeasonRecord, LeagueSeason)
    )
    with collection_paused():  # the new records all stay alive
        records = list(map(record, team, rank, wins, draws, losses, points))
        return [
            league(country, season, tuple(records[a : a + n]), K, I)
            for a, (country, season, n, K, I) in zip(firsts, heads)
        ]


def _checked_record(
    team: str, rank: int, wins: int, draws: int, losses: int, points: int
) -> TeamSeasonRecord:
    record = object.__new__(TeamSeasonRecord)
    fields = record.__dict__
    fields["team"] = team
    fields["rank"] = rank
    fields["wins"] = wins
    fields["draws"] = draws
    fields["losses"] = losses
    fields["points"] = points
    return record


def _checked_season(
    country: str, season: int, records: tuple[TeamSeasonRecord, ...], K: int, I: int
) -> LeagueSeason:
    league = object.__new__(LeagueSeason)
    fields = league.__dict__
    fields["country"] = country
    fields["season"] = season
    fields["records"] = records
    fields["K"] = K
    fields["I"] = I
    return league


class MacroObservation(Record):
    """Country-season macro covariates: attendance, population, income, unemployment."""

    def __init__(
        self,
        country: str,
        season: int,
        attendance_per_game: float,
        population: float,
        rgni: float,
        unemployment: float,
    ) -> None:
        self.__dict__.update(
            country=country,
            season=season,
            attendance_per_game=attendance_per_game,
            population=population,
            rgni=rgni,
            unemployment=unemployment,
        )


class PanelDataset(Record):
    """Unbalanced country-by-season panel on one (seasons, countries) grid.

    ``countries`` is sorted and ``seasons`` runs consecutively from the first
    to the last season of any country.  ``present[i, j]`` marks the seasons
    country j has; within a country they are consecutive.  The four log
    series are (seasons, countries) arrays, NaN where a country is absent.
    The trend counts calendar seasons from ``seasons[0]``, so the same season
    has the same trend value everywhere.  Two panels are equal only when
    they are the same object.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        countries: tuple[str, ...],
        seasons: np.ndarray,
        present: np.ndarray,
        ln_att: np.ndarray,
        ln_pop: np.ndarray,
        ln_rgni: np.ndarray,
        ln_un: np.ndarray,
    ) -> None:
        self.__dict__.update(
            countries=countries,
            seasons=seasons,
            present=present,
            ln_att=ln_att,
            ln_pop=ln_pop,
            ln_rgni=ln_rgni,
            ln_un=ln_un,
        )


class LevelsRule(Record):
    """K/I override for one country over an inclusive season range."""

    def __init__(self, country: str, from_season: int, to_season: int, K: int, I: int) -> None:
        self.__dict__.update(
            country=country, from_season=from_season, to_season=to_season, K=K, I=I
        )
        if self.K < 1 or self.I < 1:
            raise ConfigError(f"K and I must be >= 1, got K={self.K}, I={self.I}")
        if self.from_season > self.to_season:
            raise ConfigError(f"from {self.from_season} is after to {self.to_season}")


def _json_int(value) -> int:
    """A JSON integer as given: a float, a string or a boolean is no integer."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {json.dumps(value)}")
    return value


def _json_str(value) -> str:
    """A JSON string as given: a number is no country name."""
    if type(value) is not str:
        raise TypeError(f"expected a JSON string, got {json.dumps(value)}")
    return value


def _json_list(value) -> list:
    if type(value) is not list:
        raise TypeError(f"expected a JSON list, got {json.dumps(value)}")
    return value


def _countries(value) -> tuple[str, ...] | None:
    return None if value is None else tuple(map(_json_str, _json_list(value)))


class Config(Record):
    """Run configuration: level structure, G window, trend degree."""

    def __init__(
        self,
        default_K: int = 3,
        default_I: int = 3,
        g_window: int = 5,
        trend_degree: int = 2,
        levels: tuple[LevelsRule, ...] = (),
        countries: tuple[str, ...] | None = None,
    ) -> None:
        self.__dict__.update(
            default_K=default_K,
            default_I=default_I,
            g_window=g_window,
            trend_degree=trend_degree,
            levels=levels,
            countries=countries,
        )
        if self.default_K < 1 or self.default_I < 1:
            raise ConfigError("default K and I must be >= 1")
        if self.g_window < 2:
            raise ConfigError("g_window must be >= 2")
        if self.trend_degree < 0:
            raise ConfigError("trend_degree must be >= 0")

    @classmethod
    def from_json(cls, path: str) -> "Config":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        convert = {
            "default_K": _json_int, "default_I": _json_int, "g_window": _json_int,
            "trend_degree": _json_int, "levels": _json_list, "countries": _countries,
        }
        unknown = set(raw) - set(convert)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        fields = {}
        for key, value in raw.items():
            try:
                fields[key] = convert[key](value)
            except TypeError as exc:
                raise ConfigError(f"{path}: bad {key}: {exc}") from exc
        rules = []
        for i, entry in enumerate(fields.pop("levels", [])):
            try:
                if type(entry) is not dict:
                    raise TypeError(f"expected a JSON object, got {json.dumps(entry)}")
                rules.append(
                    LevelsRule(
                        country=_json_str(entry["country"]),
                        from_season=_json_int(entry["from"]),
                        to_season=_json_int(entry["to"]),
                        K=_json_int(entry["K"]),
                        I=_json_int(entry["I"]),
                    )
                )
            except (KeyError, TypeError, ConfigError) as exc:
                raise ConfigError(f"{path}: bad levels entry #{i}: {exc}") from exc
        return cls(levels=tuple(rules), **fields)

    def levels_for(self, country: str, season: int, n_teams: int) -> tuple[int, int]:
        """Resolve (K, I) for a country-season, shrinking defaults to fit small leagues.

        An explicit rule is taken verbatim and must satisfy K + I < n.
        """
        for rule in self.levels:
            if rule.country == country and rule.from_season <= season <= rule.to_season:
                if rule.K + rule.I >= n_teams:
                    raise ConfigError(
                        f"levels rule for {country} {rule.from_season}-{rule.to_season} has "
                        f"K+I={rule.K + rule.I} but the {season} league has only {n_teams} teams"
                    )
                return rule.K, rule.I
        k = max(1, min(self.default_K, (n_teams - 1) // 2))
        i = max(1, min(self.default_I, n_teams - 1 - k))
        return k, i


def _read_csv(path: str, columns: tuple[str, ...], check) -> tuple[str, tuple]:
    """The text of the CSV at ``path`` and its data rows as the columns that
    ``check`` converts.

    The header must be ``columns`` and blank lines are skipped.
    ``check(fields, seen)`` converts and validates text columns, one list of
    texts per column, and raises InputError at a fault; ``seen`` holds the
    keys of the rows before.  The whole file is checked as columns at once;
    only a file with a fault is walked again row by row, by ``_first_fault``,
    to name its first bad line.  A file that cannot be read or is not UTF-8
    is an InputError naming its path.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    # The split makes one list per row, and the transpose and the checks keep
    # their fields, so the young collections they would trigger walk them all
    # for nothing.  Collection is off while they run and back in the caller's
    # state after: on fit-paper's indices.csv, in a fresh process after
    # ``import leaguebalance.cli``, the read took 9.3-10.0 ms against
    # 11.3-13.5 ms with collection on (medians of 15 runs, 2-vCPU host).
    with collection_paused():
        try:
            if next(reader, None) == list(columns):
                fields = list(zip(*filter(None, reader), strict=True))
                if len(fields) == len(columns):
                    return text, check(fields, set())
        except (csv.Error, ValueError, InputError):  # ValueError: rows of unequal length
            pass
    _first_fault(path, text, columns, check)


def _first_fault(path: str, text: str, columns: tuple[str, ...], check) -> NoReturn:
    """Raise the InputError of the first bad line of a CSV ``text``.

    The rows are checked one at a time, in file order: a row that ``check``
    rejects, a row with more or fewer fields than the header and one that
    the ``csv`` module cannot split each end the walk.  A file with no bad
    line has no data rows.
    """
    n = len(columns)
    seen: set = set()
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise InputError(f"{path}: bad header {header}; expected {','.join(columns)}")
        for fields in filter(None, reader):
            if len(fields) != n:
                raise InputError(
                    f"{path}:{reader.line_num}: expected {n} fields, got {len(fields)}"
                )
            try:
                check([[field] for field in fields], seen)
            except InputError as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    raise InputError(f"{path}: no data rows")


def _line_of(text: str, row: int) -> int:
    """The line of a CSV ``text`` on which data row ``row`` (0 is the first) ends."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(islice(filter(None, reader), row + 1, None))  # the header, then ``row`` rows
    return reader.line_num


def _stripped(column, message: str) -> list[str]:
    """The texts of a column without surrounding white space; an empty one
    is an InputError."""
    names = list(map(str.strip, column))
    if not all(names):
        raise InputError(message)
    return names


def _unreadable(kind, column) -> str:
    """The first text of a column that ``kind``, int or float, has failed to read."""
    for text in column:
        try:
            kind(text)
        except ValueError:
            return text


def _ints(column, what: str) -> list[int]:
    try:
        return list(map(int, column))
    except ValueError:
        raise InputError(f"{what} is not an integer: {_unreadable(int, column)!r}") from None


def _floats(column, what: str) -> list[float]:
    try:
        values = list(map(float, column))
    except ValueError:
        raise InputError(f"{what} is not a number: {_unreadable(float, column)!r}") from None
    if not all(map(math.isfinite, values)):
        bad = next(text for text, v in zip(column, values) if not math.isfinite(v))
        raise InputError(f"{what} is not finite: {bad!r}")
    return values


def _distinct(keys: list, seen: set, what: str) -> None:
    """Add ``keys`` to ``seen``, the keys of the rows before; the first key
    met twice is an InputError."""
    distinct = set(keys)
    if len(distinct) == len(keys) and seen.isdisjoint(distinct):
        seen |= distinct
        return
    for key in keys:
        if key in seen:
            raise InputError(f"{what} {key}")
        seen.add(key)


def _check_league(config: Config, fields, seen: set) -> tuple:
    """The checks of league.csv's rows, in the order a row meets them."""
    country, season, team, *counts = fields
    country = _stripped(country, "empty country")
    if config.countries is not None and not set(config.countries).issuperset(country):
        unknown = next(c for c in country if c not in config.countries)
        raise InputError(f"unknown country {unknown!r}")
    season = _ints(season, "season")
    team = _stripped(team, "empty team id")
    rank, wins, draws, losses, points = (
        _ints(column, what) for column, what in zip(counts, LEAGUE_COLUMNS[3:])
    )
    if min(rank) < 1:
        raise InputError("rank must be >= 1")
    if min(map(min, (wins, draws, losses, points))) < 0:
        bad = next(t for t, *counts in zip(team, wins, draws, losses, points) if min(counts) < 0)
        raise InputError(f"negative count for team {bad}")
    return country, season, team, rank, wins, draws, losses, points


def parse_league_csv(path: str, config: Config | None = None) -> list[LeagueSeason]:
    """Parse a league-table CSV into validated ``LeagueSeason`` values.

    One row per team-season with header ``country,season,team,rank,wins,
    draws,losses,points``.  Promoted sets are computed by diffing the
    rosters of consecutive seasons within each country; K and I come from
    ``config`` (defaults K=3, I=3, shrunk for small leagues).
    """
    config = config or Config()
    text, columns = _read_csv(path, LEAGUE_COLUMNS, partial(_check_league, config))
    ordered = columns  # the columns in (country, season, rank) order
    firsts, heads = _runs(*ordered[:2])
    if not (all(map(lt, heads, heads[1:])) and ordered[3] == _table_ranks(heads)):
        keys = list(zip(*columns[:2], columns[3]))
        rows = sorted(range(len(keys)), key=keys.__getitem__)
        ordered = [list(map(column.__getitem__, rows)) for column in columns]
        firsts, heads = _runs(*ordered[:2])
    team = ordered[2]
    try:
        seasons = [(*head, *config.levels_for(*head)) for head in heads]
    except ConfigError:
        seasons = None
    tables = map(team.__getitem__, map(slice, firsts, firsts[1:]))
    if seasons is not None and sum(map(len, map(set, tables))) == len(team):
        try:
            return league_seasons(seasons, *ordered[2:])
        except InputError:
            pass  # named with its line below
    return _season_by_season(path, text, config, *columns)


def _runs(country: list[str], season: list[int]) -> tuple[list[int], list[tuple[str, int, int]]]:
    """The first row of each run of rows of one (country, season), then the
    number of rows; and each run's (country, season, number of rows)."""
    changes = map(or_, map(ne, country[1:], country), map(ne, season[1:], season))
    firsts = [0, *compress(range(1, len(season)), changes), len(season)]
    starts = firsts[:-1]
    heads = zip(map(country.__getitem__, starts), map(season.__getitem__, starts))
    return firsts, [(*head, b - a) for head, a, b in zip(heads, starts, firsts[1:])]


def _table_ranks(heads) -> list[int]:
    """The ranks 1 to n of each season in ``heads``, whose third fields are the n."""
    return list(chain.from_iterable(map(range, repeat(1), [head[2] + 1 for head in heads])))


def _season_by_season(
    path: str, text: str, config: Config, country, season, *fields
) -> list[LeagueSeason]:
    """``parse_league_csv`` one season at a time, in (country, season)
    order, from row columns in file order: the first bad season raises its
    error, with the line of its first row."""
    records = list(map(TeamSeasonRecord, *fields))
    groups: dict[tuple[str, int], list[int]] = {}
    for row, key in enumerate(zip(country, season)):
        groups.setdefault(key, []).append(row)

    seasons: list[LeagueSeason] = []
    for (country, season), rows in sorted(groups.items()):
        recs = sorted((records[row] for row in rows), key=lambda r: r.rank)
        n = len(recs)
        if len({r.team for r in recs}) != n:
            where = f"{path}:{_line_of(text, rows[0])} ({country}, {season})"
            raise InputError(f"{where}: duplicate team id")
        # LeagueSeason validates the ranks
        k, i = config.levels_for(country, season, n)
        try:
            seasons.append(
                LeagueSeason(country=country, season=season, records=tuple(recs), K=k, I=i)
            )
        except InputError as exc:
            raise InputError(f"{path}:{_line_of(text, rows[0])}: {exc}") from None
    return seasons


def _check_macro(fields, seen: set) -> tuple:
    """The checks of macro.csv's rows, in the order a row meets them."""
    country, season, *values = fields
    country = _stripped(country, "empty country")
    season = _ints(season, "season")
    _distinct(list(zip(country, season)), seen, "duplicate (country, season)")
    return country, season, *(_floats(v, what) for v, what in zip(values, MACRO_COLUMNS[2:]))


def parse_macro_csv(path: str) -> list[MacroObservation]:
    """Parse the macro covariate CSV (one row per country-season)."""
    return list(map(MacroObservation, *_read_csv(path, MACRO_COLUMNS, _check_macro)[1]))


def _check_indices(fields, seen: set) -> tuple:
    """The checks of indices.csv's rows, in the order a row meets them."""
    country, season, name, value = fields
    country = _stripped(country, "empty country")
    season = _ints(season, "season")
    _distinct(list(zip(country, season, name)), seen, "duplicate (country, season, index)")
    value = _floats(value, "value")
    check_index_values(name, country, season, value)
    return name, country, season, value


def parse_index_csv(path: str, names: list[str]) -> list[IndexValue]:
    """The values of the indices in ``names`` from an ``indices.csv``, in file order.

    Every row is validated, requested or not; each (country, season, index)
    may appear once.
    """
    columns = _read_csv(path, INDEX_COLUMNS, _check_indices)[1]
    wanted = list(map(frozenset(names).__contains__, columns[0]))
    return index_values(*(list(compress(column, wanted)) for column in columns))


def winning_percentages(season: LeagueSeason) -> np.ndarray:
    """Winning percentages by rank under the 2-1-0 win-point scheme.

    w_i = (2*wins_i + draws_i) / (2*games).  The same 2-point scheme is
    applied regardless of the league's official points rule so that index
    bounds do not shift when leagues change their scoring.
    """
    games = season.games
    if games == 0:
        raise InputError(f"({season.country}, {season.season}): degenerate season with 0 games")
    return np.array([(2.0 * r.wins + r.draws) / (2.0 * games) for r in season.records])


def build_panel(macro: list[MacroObservation]) -> PanelDataset:
    """Assemble the regression panel from macro observations.

    Logs all four macro series onto the (seasons, countries) grid.  Which
    seasons an index covers is checked when the design is built.
    """
    if not macro:
        raise InputError("empty macro data")
    keyed: dict[tuple[str, int], MacroObservation] = {}
    for obs in macro:
        key = (obs.country, obs.season)
        if key in keyed:
            raise InputError(f"duplicate macro row for {key}")
        keyed[key] = obs

    by_country: dict[str, list[MacroObservation]] = {}
    for key in sorted(keyed):
        by_country.setdefault(key[0], []).append(keyed[key])
    for country, obs_list in by_country.items():
        seasons = [o.season for o in obs_list]
        for a, b in zip(seasons, seasons[1:]):
            if b != a + 1:
                raise InputError(f"season gap for {country} between {a} and {b}")

    first = min(o.season for o in keyed.values())
    last = max(o.season for o in keyed.values())
    present = np.zeros((last - first + 1, len(by_country)), dtype=bool)
    logs = np.full((4, *present.shape), np.nan)
    for j, (country, obs_list) in enumerate(by_country.items()):
        for obs in obs_list:
            values = (obs.attendance_per_game, obs.population, obs.rgni, obs.unemployment)
            for what, value in zip(MACRO_COLUMNS[2:], values):
                if value <= 0.0:
                    raise InputError(
                        f"log-domain error: non-positive {what} for ({country}, {obs.season})"
                    )
            present[obs.season - first, j] = True
            logs[:, obs.season - first, j] = [math.log(v) for v in values]
    return PanelDataset(tuple(by_country), np.arange(first, last + 1), present, *logs)
