"""The column reader of league.csv against the row-by-row reader it replaced.

``parse_league_csv`` must give the league seasons, or the error, of
``parse_league_csv_reference`` for every file and every ``countries`` of
the config.
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from leaguebalance.panel import LEAGUE_COLUMNS, Config, parse_league_csv
from support import (
    FILE_FAULTS,
    ODD_NAMES,
    ODD_INTEGERS,
    csv_text,
    outcome,
    parse_league_csv_reference,
    read_or_error,
    row_faults,
)

COUNTRIES = ["C1", "C2", " C1", *ODD_NAMES]
TEAMS = ["T1", "T2", "T3", "T4", "T5", "T6", *ODD_NAMES]
ROW_FAULTS = ("country", "season", "team", "count", "rank", "negative")  # in checking order
TABLE_FAULTS = ("same_team", "same_rank", "games", "drop")  # faults of a season's table


@st.composite
def league_files(draw):
    """The text of a league.csv with faults of several kinds on several
    lines, and the config it is read with."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(COUNTRIES), st.integers(1950, 2010)),
            unique=True, min_size=1, max_size=4,
        )
    )
    rows = []
    for country, season in keys:
        n = draw(st.integers(3, 6))
        games = draw(st.integers(1, 10))
        for rank, team in enumerate(draw(st.permutations(TEAMS))[:n], 1):
            wins = draw(st.integers(0, games))
            drawn = draw(st.integers(0, games - wins))
            counts = (rank, wins, drawn, games - wins - drawn, 2 * wins + drawn)
            rows.append([country, str(season), team, *map(str, counts)])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    # faults on up to two rows, up to two of tables and perhaps one of the file
    for row in [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]:
        for fault in row_faults(draw, ROW_FAULTS):
            if fault in ("country", "team"):
                row[0 if fault == "country" else 2] = draw(st.sampled_from(["", " ", "\t"]))
            elif fault == "season":
                row[1] = draw(ODD_INTEGERS)
            elif fault == "count":
                row[draw(st.integers(3, 7))] = draw(ODD_INTEGERS)
            elif fault == "rank":
                row[3] = draw(st.sampled_from(["0", "-1"]))
            elif fault == "negative":
                row[draw(st.integers(4, 7))] = "-1"
    for fault in draw(st.lists(st.sampled_from(TABLE_FAULTS), max_size=2)):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        if fault in ("same_team", "same_rank"):  # a fault where rows i and j share a season
            k = 2 if fault == "same_team" else 3
            rows[i][k] = rows[j][k]
        elif fault == "games":
            rows[i][5] += "1"
        elif fault == "drop" and len(rows) > 1:
            del rows[i]
    # the config's countries, if any, may leave one country of the file out
    used = sorted({country.strip() for country, _ in keys})
    countries = draw(st.none() | st.sets(st.sampled_from([*used, "C9"]), min_size=len(used)))
    config = Config(countries=None if countries is None else tuple(sorted(countries)))
    return csv_text(draw, LEAGUE_COLUMNS, rows, draw(FILE_FAULTS)), config


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("league") / "league.csv"


def table(**edits) -> str:
    """A three-team table of C1 in 1990 whose first row has ``edits``."""
    rows = [["C1", "1990", f"T{rank}", str(rank), "1", "0", "1", "2"] for rank in (1, 2, 3)]
    for column, text in edits.items():
        rows[0][LEAGUE_COLUMNS.index(column)] = text
    return "".join(",".join(row) + "\n" for row in [LEAGUE_COLUMNS, *rows])


# a row with two faults, one example for each two checks that follow each other
@example((table(country=" ", season="x"), Config()))
@example((table(country="C9", season="x"), Config(countries=("C1",))))
@example((table(season="x", team=""), Config()))
@example((table(team="", rank="x"), Config()))
@example((table(losses="x", points="x"), Config()))
@example((table(points="x", rank="0"), Config()))
@example((table(rank="0", wins="-1"), Config()))
@settings(max_examples=4 * settings.default.max_examples, deadline=None)
@given(league_files())
def test_league_reader_agrees_with_the_row_reader(scratch, case):
    text, config = case
    scratch.write_bytes(text.encode("utf-8"))
    expected = read_or_error(parse_league_csv_reference, scratch, config)
    event(outcome(expected))
    assert read_or_error(parse_league_csv, scratch, config) == expected
