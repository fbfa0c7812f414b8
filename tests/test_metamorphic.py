"""Metamorphic relations of ``fit``: changes to its input files that must
leave its output files as they are.

Each relation runs ``fit --index sdc_ki --iterate-sur`` on a small simulated
panel and on a transformed copy of its files, and compares the output
trees.  ``manifest.json`` records the input files' hashes, so it is left out
of every comparison.
"""

import csv
import io
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance.panel import parse_index_csv
from leaguebalance.econometrics import RegressionSpec, build_adl_design
from leaguebalance.panel import build_panel, parse_macro_csv
from leaguebalance.pipeline import series_from_values
from test_cli import run, tree_bytes


def data_lines(path) -> tuple[str, list[str]]:
    header, *rows = Path(path).read_text().splitlines(keepends=True)
    return header, rows


def write_lines(path, header: str, rows) -> Path:
    Path(path).write_text(header + "".join(rows))
    return Path(path)


def shifted(line: str, k: int) -> str:
    country, season, rest = line.split(",", 2)
    return f"{country},{int(season) + k},{rest}"


def numbers(table: bytes, columns) -> dict[str, tuple[float, ...]]:
    """The named columns of a written CSV as floats, keyed by its first column."""
    reader = csv.DictReader(io.StringIO(table.decode()))
    return {row[reader.fieldnames[0]]: tuple(float(row[c]) for c in columns) for row in reader}


COEFFICIENTS = "fit_sdc_ki_coefficients.csv"
COEFFICIENT_COLUMNS = ("coef", "se_classical", "se_robust")
LONGRUN = "fit_sdc_ki_longrun.csv"
LONGRUN_COLUMNS = ("elasticity", "se")


def fit_outputs(macro, indices, out, *extra) -> dict[str, bytes]:
    """The files of one fit except the manifest."""
    assert run(
        "fit", "--macro", macro, "--indices", indices, "--index", "sdc_ki",
        "--iterate-sur", "--out-dir", out, *extra,
    ) == 0
    return {k: v for k, v in tree_bytes(out).items() if k != "manifest.json"}


@pytest.fixture(scope="module")
def dgp(tmp_path_factory):
    """A simulated 3-country panel, 1959-2003, and its fits with and without d97."""
    root = tmp_path_factory.mktemp("dgp")
    assert run(
        "simulate-dgp", "--n-countries", 3, "--n-seasons", 45,
        "--seed", 4, "--out-dir", root,
    ) == 0
    macro, indices = root / "macro.csv", root / "indices.csv"
    return {
        "macro": macro,
        "indices": indices,
        "fit": fit_outputs(macro, indices, root / "fit"),
        "fit_no_d97": fit_outputs(macro, indices, root / "fit_no_d97", "--no-d97"),
    }


def test_panel_fits_converge(dgp):
    # the relations below compare fits that reach their fixed point
    for key in ("fit", "fit_no_d97"):
        assert b"converged,1," in dgp[key]["fit_sdc_ki_diagnostics.csv"]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_row_order_changes_no_output(dgp, data):
    macro_header, macro_rows = data_lines(dgp["macro"])
    index_header, index_rows = data_lines(dgp["indices"])
    macro_rows = data.draw(st.permutations(macro_rows))
    index_rows = data.draw(st.permutations(index_rows))
    with tempfile.TemporaryDirectory() as tmp:
        macro = write_lines(Path(tmp) / "macro.csv", macro_header, macro_rows)
        indices = write_lines(Path(tmp) / "indices.csv", index_header, index_rows)
        assert fit_outputs(macro, indices, Path(tmp) / "out") == dgp["fit"]


@settings(max_examples=10, deadline=None)
@given(st.integers(-300, 300))
def test_season_shift_changes_no_output_without_d97(dgp, k):
    # without d97 no regressor depends on the calendar, and the trend
    # counts from the panel's first season
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for name in ("macro", "indices"):
            header, rows = data_lines(dgp[name])
            files.append(write_lines(Path(tmp) / f"{name}.csv", header, [shifted(r, k) for r in rows]))
        assert fit_outputs(*files, Path(tmp) / "out", "--no-d97") == dgp["fit_no_d97"]


def with_earlier_first_row(macro, out) -> Path:
    """``macro`` plus a copy of C1's first row one season before it."""
    header, rows = data_lines(macro)
    first = min((r for r in rows if r.startswith("C1,")), key=lambda r: int(r.split(",")[1]))
    return write_lines(out, header, [shifted(first, -1), *rows])


def test_earlier_macro_row_changes_no_design_row(dgp, tmp_path):
    # the premise of the relation below: no design row reads the added
    # season, and every column but the trend keeps its values
    index_values = series_from_values(parse_index_csv(str(dgp["indices"]), ["sdc_ki"]), "sdc_ki")
    spec = RegressionSpec("sdc_ki")
    designs = [
        build_adl_design(build_panel(parse_macro_csv(str(m))), index_values, spec)
        for m in (dgp["macro"], with_earlier_first_row(dgp["macro"], tmp_path / "m.csv"))
    ]
    assert designs[0].columns == designs[1].columns
    assert np.array_equal(designs[0].y, designs[1].y)
    assert np.array_equal(designs[0].grid.row, designs[1].grid.row)
    assert np.array_equal(designs[0].grid.years, designs[1].grid.years)
    keep = [i for i, c in enumerate(designs[0].columns) if c not in ("t", "t2")]
    assert np.array_equal(designs[0].X[:, keep], designs[1].X[:, keep])


@pytest.mark.xfail(
    strict=True,
    reason="build_adl_design counts the trend from the panel's first macro season, "
    "which no design row reads, so the row moves t and the intercepts "
    "(CHANGES.md FOUND on the trend origin, ROADMAP smaller item 1)",
)
def test_earlier_macro_row_changes_no_output(dgp, tmp_path):
    macro = with_earlier_first_row(dgp["macro"], tmp_path / "macro.csv")
    assert fit_outputs(macro, dgp["indices"], tmp_path / "out") == dgp["fit"]



def with_attendance_times_1000(line: str) -> str:
    """A macro row whose attendance is multiplied by 1000 exactly, in decimal."""
    country, season, attendance, rest = line.split(",", 3)
    return f"{country},{season},{Decimal(attendance).scaleb(3):f},{rest}"


def test_attendance_scale_moves_only_the_intercepts(dgp, tmp_path):
    # log attendance shifts by log 1000: its differences keep their values,
    # and each country's intercept absorbs the shift of the lagged level
    header, rows = data_lines(dgp["macro"])
    macro = write_lines(tmp_path / "macro.csv", header, map(with_attendance_times_1000, rows))
    out = fit_outputs(macro, dgp["indices"], tmp_path / "out")
    for table, columns in ((COEFFICIENTS, COEFFICIENT_COLUMNS), (LONGRUN, LONGRUN_COLUMNS)):
        got, ref = (numbers(files[table], columns) for files in (out, dgp["fit"]))
        assert list(got) == list(ref)
        for term in ref:
            if term.startswith("const["):
                assert got[term][0] != pytest.approx(ref[term][0], rel=1e-3), term
            else:
                assert got[term] == pytest.approx(ref[term], rel=1e-9, abs=0), term


def with_c1_renamed(line: str) -> str:
    return "Z1" + line[2:] if line.startswith("C1,") else line


def test_country_rename_permutes_the_intercepts(dgp, tmp_path):
    files = []
    for name in ("macro", "indices"):
        header, rows = data_lines(dgp[name])
        files.append(write_lines(tmp_path / f"{name}.csv", header, map(with_c1_renamed, rows)))
    out = fit_outputs(*files, tmp_path / "out")
    assert b"converged,1," in out["fit_sdc_ki_diagnostics.csv"]
    for table, columns in ((COEFFICIENTS, COEFFICIENT_COLUMNS), (LONGRUN, LONGRUN_COLUMNS)):
        got = numbers(out[table], columns)
        ref = {
            term.replace("[C1]", "[Z1]"): values
            for term, values in numbers(dgp["fit"][table], columns).items()
        }
        assert sorted(got) == sorted(ref)
        for term in ref:
            assert got[term] == pytest.approx(ref[term], rel=1e-9, abs=0), term
    # the countries are sorted, so Z1's intercept moves from first to last
    intercepts = [term for term in numbers(out[COEFFICIENTS], ()) if term.startswith("const[")]
    assert intercepts == ["const[C2]", "const[C3]", "const[Z1]"]
