"""The columnar reader of indices.csv against the row-by-row reader.

``parse_index_csv`` reads a plain file as columns and hands any other file,
and any file with a fault, to ``_parse_index_rows``.  Both must give the
same values, or the same error, for every file.
"""

import csv

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from leaguebalance.catalog import ALL_INDEX_NAMES
from leaguebalance.errors import InputError
from leaguebalance.panel import _index_columns, _parse_index_rows, parse_index_csv
from leaguebalance.reports import fmt

HEADER = "country,season,index,value"

PLAIN_COUNTRIES = ["C1", "C2", "AAA", "New Zealand", "X" * 15, ""]
COUNTRIES = PLAIN_COUNTRIES + ["Ñandú", "Y" * 16, "Z" * 40]
# int() and numpy's integer reader disagree on some of these
ODD_SEASONS = [
    "1991.0", "+1991", "1_991", "٣", "１９９１", " 1991", "1991 ", "-5", "x", "", "01991", "0",
    "99999999999999999999", "1991\x1c", "1991\t",
]
ODD_VALUES = [
    "nan", "inf", "-inf", "infinity", "1.5", "-0.25", "abc", "", "0x1p-1", "1_0",
    "٠.٥", "0.5\x1c", "-0", "1e-400", " 0.5", ".5", "5.", "1.0000000001", "-1e-10",
]
ODD_NAMES = ["foo", "tau ", "TAU", "hhi_star_long_name", "", "ñ"]


def read(reader, path, names):
    """The reader's values, or the type and message of its error."""
    try:
        return [repr(v) for v in reader(path, names)]
    except InputError as exc:
        return type(exc), str(exc)


@st.composite
def index_files(draw):
    """The lines of an indices.csv, with at most one fault, and the names asked for."""
    countries = draw(st.sampled_from([PLAIN_COUNTRIES, COUNTRIES]))
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(countries),
                st.integers(1950, 2010),
                st.sampled_from(ALL_INDEX_NAMES),
            ),
            unique=True,
            min_size=1,
            max_size=25,
        )
    )
    if draw(st.booleans()):
        keys.sort()
    values = st.floats(0.0, 1.0).map(fmt) | st.sampled_from(["0", "1", "0.5"])
    rows = [[c, str(s), n, draw(values)] for c, s, n in keys]
    fault = draw(
        st.sampled_from(["none"] * 6 + ["season", "duplicate", "value", "name", "fields", "header"])
    )
    if rows and fault != "none":
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "season":
            rows[i][1] = draw(st.sampled_from(ODD_SEASONS))
        elif fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), [*rows[i][:3], draw(values)])
        elif fault == "value":
            rows[i][3] = draw(st.sampled_from(ODD_VALUES))
        elif fault == "name":
            rows[i][2] = draw(st.sampled_from(ODD_NAMES))
        elif fault == "fields":
            rows[i] = rows[i][:3] if draw(st.booleans()) else [*rows[i], "x"]
    change = draw(st.sampled_from(["none", "none", "quote", "space"]))  # the format
    if rows and change != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(row) - 1))
        row[j] = f'"{row[j]}"' if change == "quote" else f" {row[j]}"
    header = HEADER if fault != "header" else draw(
        st.sampled_from(["country,season,index", "﻿" + HEADER, "Country,season,index,value"])
    )
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    names = draw(st.lists(st.sampled_from(ALL_INDEX_NAMES), min_size=1, max_size=3))
    return text, names


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("indices") / "indices.csv"


@settings(max_examples=400, deadline=None)
@given(index_files())
def test_columns_and_rows_agree(scratch, case):
    text, names = case
    scratch.write_bytes(text.encode("utf-8"))
    rows = read(_parse_index_rows, scratch, names)
    assert read(parse_index_csv, scratch, names) == rows
    columns = _index_columns(scratch, names)
    event("read as columns" if columns is not None else "read by rows")
    if columns is not None:  # the columns are read only where the rows read cleanly
        assert [repr(v) for v in columns] == rows


def plain_file(path, lineterminator="\r\n"):
    rng = np.random.default_rng(3)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(HEADER.split(","))
        for country in ("C1", "C2", "C3"):
            for season in range(1959, 2009):
                for name in sorted(ALL_INDEX_NAMES):
                    writer.writerow([country, season, name, fmt(float(rng.random()))])


@pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"])
def test_a_written_file_is_read_as_columns(tmp_path, ending):
    path = tmp_path / "indices.csv"
    plain_file(path, ending)
    names = ["sdc_ki", "tau"]
    columns = _index_columns(path, names)
    assert columns is not None and len(columns) == 3 * 50 * 2
    assert columns == _parse_index_rows(path, names)


def test_rows_in_any_order_are_read_as_columns(tmp_path):
    path = tmp_path / "indices.csv"
    plain_file(path)
    header, *lines = path.read_text().splitlines()
    path.write_text("\n".join([header, *reversed(lines)]) + "\n")
    columns = _index_columns(path, ["agini"])
    assert columns is not None and columns == _parse_index_rows(path, ["agini"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("C2,", '"C2",', 1),  # a quote
        lambda text: text.replace("C2,", "Ñ,"),  # non-ASCII
        lambda text: text.replace("C2,", "C2\t,"),  # a control character
        lambda text: text.replace("C2,", "C" * 16 + ","),  # a name that may be cut
        lambda text: text.replace("C2,1960,agini,", "C2,1959,agini,"),  # a duplicate
    ],
    ids=["quote", "non_ascii", "tab", "long_name", "duplicate"],
)
def test_other_files_are_read_by_rows(tmp_path, edit):
    path = tmp_path / "indices.csv"
    plain_file(path)
    path.write_bytes(edit(path.read_text()).encode("utf-8"))
    assert _index_columns(path, ["agini"]) is None
    assert read(parse_index_csv, path, ["agini"]) == read(_parse_index_rows, path, ["agini"])
