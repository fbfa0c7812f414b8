"""The column reader of indices.csv against the row-by-row reader it replaced.

``parse_index_csv`` converts and checks a whole file as columns and walks
it row by row only to name the first bad line.  It must give the values,
or the error, of ``parse_index_csv_reference`` for every file.
"""

import csv

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from leaguebalance import panel
from leaguebalance.catalog import ALL_INDEX_NAMES
from leaguebalance.panel import INDEX_COLUMNS, parse_index_csv
from leaguebalance.reports import fmt
from support import (
    FILE_FAULTS,
    ODD_NAMES,
    ODD_INTEGERS,
    ODD_NUMBERS,
    csv_text,
    outcome,
    parse_index_csv_reference,
    read_or_error,
    row_faults,
)

COUNTRIES = ["C1", "C2", "AAA", "", " C1", *ODD_NAMES]
ODD_INDEX_NAMES = ["foo", "tau ", "TAU", "hhi_star_long_name", "", "ñ"]
ROW_FAULTS = ("season", "duplicate", "value", "name")  # in checking order


@st.composite
def index_files(draw):
    """The text of an indices.csv with faults of several kinds on several
    lines, and the names asked for."""
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(COUNTRIES),
                st.integers(1950, 2010),
                st.sampled_from(ALL_INDEX_NAMES),
            ),
            unique=True, min_size=1, max_size=25,
        )
    )
    if draw(st.booleans()):
        keys.sort()
    values = st.floats(0.0, 1.0).map(fmt) | st.sampled_from(["0", "1", "0.5", " 0.5", "1e-400"])
    rows = [[c, str(s), n, draw(values)] for c, s, n in keys]
    # faults on up to two rows, and perhaps a fault of the file; a duplicate
    # comes first, so that its row's other faults meet it
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        row = rows[i]
        for fault in sorted(row_faults(draw, ROW_FAULTS), key=lambda f: f != "duplicate"):
            if fault == "season":
                row[1] = draw(ODD_INTEGERS)
            elif fault == "duplicate":  # its key on an earlier row, perhaps written otherwise
                season = draw(st.sampled_from([row[1], f"+{row[1]}", f" {row[1]}"]))
                rows.insert(draw(st.integers(0, i)), [row[0], season, row[2], draw(values)])
            elif fault == "value":
                row[3] = draw(ODD_NUMBERS)
            elif fault == "name":
                row[2] = draw(st.sampled_from(ODD_INDEX_NAMES))
    names = draw(st.lists(st.sampled_from(ALL_INDEX_NAMES), min_size=1, max_size=3))
    return csv_text(draw, INDEX_COLUMNS, rows, draw(FILE_FAULTS)), names


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("indices") / "indices.csv"


# a row with two faults, one example for each two checks that follow each other
@example((",".join(INDEX_COLUMNS) + "\nC1,x,agini,nan\n", ["agini"]))
@example((",".join(INDEX_COLUMNS) + "\nC1,1990,agini,0.5\nC1,1990,agini,abc\n", ["agini"]))
@example((",".join(INDEX_COLUMNS) + "\nC1,1990,foo,inf\n", ["agini"]))
@example((",".join(INDEX_COLUMNS) + "\nC1,1990,foo,1.5\n", ["agini"]))
@settings(max_examples=4 * settings.default.max_examples, deadline=None)
@given(index_files())
def test_columns_and_rows_agree(scratch, case):
    text, names = case
    scratch.write_bytes(text.encode("utf-8"))
    expected = read_or_error(parse_index_csv_reference, scratch, names)
    event(outcome(expected))
    assert read_or_error(parse_index_csv, scratch, names) == expected


def plain_file(path, lineterminator="\r\n"):
    rng = np.random.default_rng(3)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(INDEX_COLUMNS)
        for country in ("C1", "C2", "C3"):
            for season in range(1959, 2009):
                for name in sorted(ALL_INDEX_NAMES):
                    writer.writerow([country, season, name, fmt(float(rng.random()))])


@pytest.fixture
def no_walk(monkeypatch):
    """A file with no fault is read without walking it row by row."""

    def walk(*args):
        raise AssertionError("a file with no fault was walked row by row")

    monkeypatch.setattr(panel, "_first_fault", walk)


@pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"])
def test_a_written_file_is_read_as_columns(tmp_path, no_walk, ending):
    path = tmp_path / "indices.csv"
    plain_file(path, ending)
    names = ["sdc_ki", "tau"]
    columns = parse_index_csv(path, names)
    assert len(columns) == 3 * 50 * 2
    assert columns == parse_index_csv_reference(path, names)


def test_rows_in_any_order_are_read_as_columns(tmp_path, no_walk):
    path = tmp_path / "indices.csv"
    plain_file(path)
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(lines)]) + "\n")
    assert parse_index_csv(path, ["agini"]) == parse_index_csv_reference(path, ["agini"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("C2,", '"C2",', 1),  # a quote
        lambda text: text.replace("C2,", "Ñ,"),  # non-ASCII
        lambda text: text.replace("C2,", "C2\t,"),  # a control character
        lambda text: text.replace("C2,", "C" * 16 + ","),  # a long name
        lambda text: text.replace("C2,1960,agini,", "C2,1959,agini,"),  # a duplicate
    ],
    ids=["quote", "non_ascii", "tab", "long_name", "duplicate"],
)
def test_other_files_agree_with_the_row_reader(tmp_path, edit):
    path = tmp_path / "indices.csv"
    plain_file(path)
    path.write_bytes(edit(path.read_text()).encode("utf-8"))
    assert read_or_error(parse_index_csv, path, ["agini"]) == read_or_error(
        parse_index_csv_reference, path, ["agini"]
    )
