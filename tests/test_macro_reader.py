"""The column reader of macro.csv against the row-by-row reader it replaced.

``parse_macro_csv`` must give the values, or the error, of
``parse_macro_csv_reference`` for every file.
"""

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from leaguebalance.panel import MACRO_COLUMNS, parse_macro_csv
from leaguebalance.reports import fmt
from support import (
    FILE_FAULTS,
    ODD_NAMES,
    ODD_INTEGERS,
    ODD_NUMBERS,
    csv_text,
    outcome,
    parse_macro_csv_reference,
    read_or_error,
    row_faults,
)

COUNTRIES = ["C1", "C2", "AAA", *ODD_NAMES]
ROW_FAULTS = ("country", "season", "duplicate", "value")  # in checking order


@st.composite
def macro_files(draw):
    """The text of a macro.csv with faults of several kinds on several lines."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(COUNTRIES), st.integers(1950, 2010)),
            unique=True, min_size=1, max_size=20,
        )
    )
    if draw(st.booleans()):
        keys.sort()
    values = st.floats(1e-3, 1e9).map(fmt) | st.sampled_from(["1", "7.5", " 8000", "1e3"])
    rows = [[c, str(s), *(draw(values) for _ in range(4))] for c, s in keys]
    # faults on up to two rows, and perhaps a fault of the file; a duplicate
    # comes first, so that its row's other faults meet it
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        row = rows[i]
        for fault in sorted(row_faults(draw, ROW_FAULTS), key=lambda f: f != "duplicate"):
            if fault == "country":
                row[0] = draw(st.sampled_from(["", " ", "\t"]))
            elif fault == "season":
                row[1] = draw(ODD_INTEGERS)
            elif fault == "duplicate":  # its key on an earlier row, written the same or otherwise
                country = draw(st.sampled_from([row[0], f" {row[0]}", f"{row[0]} "]))
                season = draw(st.sampled_from([row[1], f"+{row[1]}"]))
                copy = [country, season, *(draw(values) for _ in range(4))]
                rows.insert(draw(st.integers(0, i)), copy)
            elif fault == "value":
                row[draw(st.integers(2, 5))] = draw(ODD_NUMBERS)
    return csv_text(draw, MACRO_COLUMNS, rows, draw(FILE_FAULTS))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("macro") / "macro.csv"


# a row with two faults, one example for each two checks that follow each other
@example(",".join(MACRO_COLUMNS) + "\n ,x,1,1,1,1\n")
@example(",".join(MACRO_COLUMNS) + "\nC1,1990,1,1,1,1\nC1,x,nan,1,1,1\n")
@example(",".join(MACRO_COLUMNS) + "\nC1,1990,1,1,1,1\nC1,1990,nan,1,1,1\n")
@example(",".join(MACRO_COLUMNS) + "\nC1,1990,inf,x,1,1\n")
@settings(max_examples=4 * settings.default.max_examples, deadline=None)
@given(macro_files())
def test_macro_reader_agrees_with_the_row_reader(scratch, text):
    scratch.write_bytes(text.encode("utf-8"))
    expected = read_or_error(parse_macro_csv_reference, scratch)
    event(outcome(expected))
    assert read_or_error(parse_macro_csv, scratch) == expected
