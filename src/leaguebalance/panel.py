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

import numpy as np

from .catalog import IndexValue, check_index_value, valid_index_values
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


def _parse_int(value: str, what: str, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: {what} is not an integer: {value!r}") from None


def _parse_float(value: str, what: str, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: {what} is not a number: {value!r}") from None
    if not math.isfinite(out):
        raise InputError(f"{where}: {what} is not finite: {value!r}")
    return out


def csv_rows(path, columns):
    """Yield ``(line, fields)`` for every data row of a CSV whose header is ``columns``.

    Blank lines are skipped; a row with more or fewer fields than the header,
    or one the ``csv`` module cannot split, is an InputError naming its line,
    and a file that cannot be read or is not UTF-8 is one naming its path.
    """
    n = len(columns)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None or tuple(header) != tuple(columns):
            raise InputError(f"{path}: bad header {header}; expected {','.join(columns)}")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != n:
                raise InputError(
                    f"{path}:{reader.line_num}: expected {n} fields, got {len(fields)}"
                )
            yield reader.line_num, fields
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None


def parse_league_csv(path: str, config: Config | None = None) -> list[LeagueSeason]:
    """Parse a league-table CSV into validated ``LeagueSeason`` values.

    One row per team-season with header ``country,season,team,rank,wins,
    draws,losses,points``.  Promoted sets are computed by diffing the
    rosters of consecutive seasons within each country; K and I come from
    ``config`` (defaults K=3, I=3, shrunk for small leagues).
    """
    config = config or Config()
    groups: dict[tuple[str, int], list[tuple[int, TeamSeasonRecord]]] = {}
    for line, (country, season, team, rank, wins, draws, losses, points) in csv_rows(
        path, LEAGUE_COLUMNS
    ):
        where = f"{path}:{line}"
        country = country.strip()
        if not country:
            raise InputError(f"{where}: empty country")
        if config.countries is not None and country not in config.countries:
            raise InputError(f"{where}: unknown country {country!r}")
        season = _parse_int(season, "season", where)
        team = team.strip()
        if not team:
            raise InputError(f"{where}: empty team id")
        rec = TeamSeasonRecord(
            team=team,
            rank=_parse_int(rank, "rank", where),
            wins=_parse_int(wins, "wins", where),
            draws=_parse_int(draws, "draws", where),
            losses=_parse_int(losses, "losses", where),
            points=_parse_int(points, "points", where),
        )
        if rec.rank < 1:
            raise InputError(f"{where}: rank must be >= 1")
        if min(rec.wins, rec.draws, rec.losses, rec.points) < 0:
            raise InputError(f"{where}: negative count for team {team}")
        groups.setdefault((country, season), []).append((line, rec))

    if not groups:
        raise InputError(f"{path}: no data rows")

    seasons: list[LeagueSeason] = []
    for (country, season), entries in sorted(groups.items()):
        first_line = min(line for line, _ in entries)
        where = f"{path}:{first_line} ({country}, {season})"
        recs = sorted((rec for _, rec in entries), key=lambda r: r.rank)
        n = len(recs)
        if len({r.team for r in recs}) != n:
            raise InputError(f"{where}: duplicate team id")
        # LeagueSeason validates the ranks
        k, i = config.levels_for(country, season, n)
        try:
            seasons.append(
                LeagueSeason(country=country, season=season, records=tuple(recs), K=k, I=i)
            )
        except InputError as exc:
            raise InputError(f"{path}:{first_line}: {exc}") from None
    return seasons


def parse_macro_csv(path: str) -> list[MacroObservation]:
    """Parse the macro covariate CSV (one row per country-season)."""
    out: list[MacroObservation] = []
    seen: set[tuple[str, int]] = set()
    for line, (country, season, attendance, population, rgni, unemployment) in csv_rows(
        path, MACRO_COLUMNS
    ):
        where = f"{path}:{line}"
        country = country.strip()
        if not country:
            raise InputError(f"{where}: empty country")
        season = _parse_int(season, "season", where)
        key = (country, season)
        if key in seen:
            raise InputError(f"{where}: duplicate (country, season) {key}")
        seen.add(key)
        out.append(
            MacroObservation(
                country=country,
                season=season,
                attendance_per_game=_parse_float(attendance, "attendance_avg", where),
                population=_parse_float(population, "population", where),
                rgni=_parse_float(rgni, "rgni_real", where),
                unemployment=_parse_float(unemployment, "unemployment_rate", where),
            )
        )
    if not out:
        raise InputError(f"{path}: no data rows")
    return out


# A row of indices.csv as numpy's C text reader stores it, every field but
# the value as text.  A field that fills its slot may have been cut to fit:
# its last code point is not NUL.
_NAME_WIDTH, _SEASON_WIDTH = 16, 8
_INDEX_ROW = np.dtype(
    [
        ("country", f"U{_NAME_WIDTH}"),
        ("season", f"U{_SEASON_WIDTH}"),
        ("index", f"U{_NAME_WIDTH}"),
        ("value", np.float64),
    ]
)


def _chars(field: str) -> range:
    """The columns of a text field in a row of ``_INDEX_ROW`` seen as code points."""
    dtype, offset = _INDEX_ROW.fields[field][:2]
    return range(offset // 4, (offset + dtype.itemsize) // 4)


_SEASON_CHARS = _chars("season")
_LAST_CHARS = [_chars(field)[-1] for field in ("country", "season", "index")]
# The bytes whose lines the C reader splits and converts as the csv module
# and float() do: printable ASCII but the quote, and line ends.  Numpy's
# number reader skips \x1c-\x1f as white space, where float() stops.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\r\n"


def parse_index_csv(path: str, names: list[str]) -> list[IndexValue]:
    """The values of the indices in ``names`` from an ``indices.csv``, in file order.

    Every row is validated, requested or not; each (country, season, index)
    may appear once.  A plain file (printable ASCII without quotes, names
    under 16 characters, seasons of 1 to 7 digits), as ``indices`` writes
    it, is read in one call of numpy's C text reader and checked as
    columns.  Any other file, and any file that pass finds fault with, is
    read row by row, which names the first bad line; both give the same
    values and the same errors.
    """
    values = _index_columns(path, names)
    return _parse_index_rows(path, names) if values is None else values


def _index_columns(path: str, names: list[str]) -> list[IndexValue] | None:
    """``parse_index_csv`` read as columns, or None where the row reader must
    decide: a file that is not plain, or one with a fault."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if data.translate(None, _PLAIN_BYTES):
        return None
    # in plain text, str.splitlines ends a line where the csv module does:
    # at \r\n, \n or a bare \r
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != ",".join(INDEX_COLUMNS) or not any(lines[1:]):
        return None
    try:
        table = np.loadtxt(
            lines, dtype=_INDEX_ROW, delimiter=",", skiprows=1, quotechar=None,
            comments=None, ndmin=1,
        )
    except ValueError:  # a field count or a value that is no number
        return None
    chars = table.view(np.uint32).reshape(len(table), -1)
    if chars[:, _LAST_CHARS].any():
        return None
    season = _digit_strings(chars[:, _SEASON_CHARS])
    country, name, value = table["country"], table["index"], table["value"]
    if season is None or not (
        valid_index_values(name, value).all() and _distinct(country, season, name)
    ):
        return None
    pick = np.flatnonzero(np.isin(name, names))
    return [
        IndexValue(*row)
        for row in zip(
            name[pick].tolist(), country[pick].tolist(), season[pick].tolist(),
            value[pick].tolist(),
        )
    ]


def _digit_strings(chars: np.ndarray) -> np.ndarray | None:
    """The integers written in ``chars``, one row of NUL-padded code points
    each, or None unless every row holds one or more ASCII digits.

    int() reads those the same way; a season with a sign, spaces, "_" or
    other digits is left to it.  Numpy's own integer reader would differ:
    it takes non-ASCII characters for digits, and numpy 1.x reads "1991.0"
    as 1991.
    """
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    length = digit.sum(axis=1)
    if not ((length > 0) & (length == np.count_nonzero(chars, axis=1))).all():
        return None
    # left-aligned: read every row as all its slots, then drop the padding's zeros
    width = chars.shape[1]
    digits = np.where(digit, chars, ord("0")).astype(np.int64) - ord("0")
    return (digits @ 10 ** np.arange(width - 1, -1, -1)) // 10 ** (width - length)


def _distinct(*keys: np.ndarray) -> bool:
    """Whether no two rows have the same key, a tuple of the columns ``keys``.

    Keys in strictly increasing order, as ``indices`` writes them, are
    distinct; a set settles any other order.
    """
    increasing = np.zeros(len(keys[0]) - 1, dtype=bool)
    tied = ~increasing
    for key in keys:
        before, after = key[:-1], key[1:]
        increasing |= tied & (after > before)
        tied &= after == before
    return bool(increasing.all()) or len(set(zip(*(key.tolist() for key in keys)))) == len(keys[0])


def _parse_index_rows(path: str, names: list[str]) -> list[IndexValue]:
    """``parse_index_csv`` one row at a time, checking each row in turn."""
    wanted = frozenset(names)
    out = []
    seen: set[tuple[str, int, str]] = set()
    for line, (country, season, name, value) in csv_rows(path, INDEX_COLUMNS):
        where = f"{path}:{line}"
        season = _parse_int(season, "season", where)
        key = (country, season, name)
        if key in seen:
            raise InputError(f"{where}: duplicate (country, season, index) {key}")
        seen.add(key)
        value = _parse_float(value, "value", where)
        try:
            check_index_value(name, country, season, value)
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from None
        if name in wanted:
            out.append(IndexValue(name, country, season, value))
    if not seen:
        raise InputError(f"{path}: no data rows")
    return out


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
