"""``fit --index all`` and ``report --index all`` fit one index at a time.

The panel's ``dn_i`` has an exact zero, which the log specification
rejects.  Every other index is fitted and written as its single-index run
writes it, ``fit_status.csv`` lists each requested index once, in request
order, and the run exits 5.  When every index fails, the run fails as a
single-index run does: the first failure's exit code and stderr line, no
fit and no manifest.
"""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import leaguebalance
from leaguebalance.catalog import ALL_INDEX_NAMES
from leaguebalance.cli import _write_league_csv, _write_macro_csv, main
from leaguebalance.panel import INDEX_COLUMNS
from leaguebalance.pipeline import compute_all_indices
from leaguebalance.reports import write_csv
from leaguebalance.simulate import DgpParams, LeagueSimParams, simulate_dgp, simulate_league
from support import bench_leagues

COUNTRIES = ("C1", "C2", "C3")
FITTED = [name for name in ALL_INDEX_NAMES if name != "dn_i"]
FIT_SUFFIXES = ("_coefficients.csv", "_longrun.csv", "_diagnostics.csv", ".txt")
ENTRY = "import sys; from leaguebalance.cli import main; sys.exit(main())"
SRC = str(Path(leaguebalance.__file__).resolve().parent.parent)


def run(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command, warnings silenced."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def tree(out_dir: Path) -> dict[str, bytes]:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in files}


def fit_files(out_dir: Path, name: str) -> dict[str, bytes]:
    return {s: (out_dir / f"fit_{name}{s}").read_bytes() for s in FIT_SUFFIXES}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_manifest_lists_the_tree(out_dir: Path) -> None:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(set(tree(out_dir)) - {"manifest.json"})


@pytest.fixture(scope="module")
def zero_panel(tmp_path_factory):
    """Three 10-team leagues, 1980-2003, whose dn_i is 0.0 for (C1, 1982)."""
    root = tmp_path_factory.mktemp("zero_panel")
    leagues = []
    for i, country in enumerate(COUNTRIES):
        params = LeagueSimParams(
            n_teams=10, n_seasons=24, dispersion=2.0, churn=3, country=country,
            start_season=1980,
        )
        leagues.extend(simulate_league(params, seed=10 + i))
    dgp = simulate_dgp(DgpParams(countries=COUNTRIES, start_season=1980, n_seasons=24), seed=1)
    _write_league_csv(root / "league.csv", leagues)
    _write_macro_csv(root / "macro.csv", dgp.macro)
    return {"league": root / "league.csv", "macro": root / "macro.csv"}


@pytest.fixture(scope="module")
def dn_i_failure(zero_panel, tmp_path_factory):
    """The single-index fit of dn_i: its exit code and stderr line."""
    out = tmp_path_factory.mktemp("dn_i") / "fit"
    code, stdout, stderr = run(
        "fit", "--league", zero_panel["league"], "--macro", zero_panel["macro"],
        "--index", "dn_i", "--iterate-sur", "--out-dir", out,
    )
    assert (code, stdout) == (2, "")
    assert stderr.startswith("input error: log-domain error: index 'dn_i' is 0.0 for (C1, ")
    assert not out.exists()
    return code, stderr


def assert_status(out_dir: Path, stderr: str) -> None:
    rows = read_rows(out_dir / "fit_status.csv")
    assert [row["index"] for row in rows] == list(ALL_INDEX_NAMES)
    failed = {row["index"]: row for row in rows if row["status"] == "failed"}
    assert list(failed) == ["dn_i"]
    assert all(row == {"index": row["index"], "status": "fitted", "error": "", "message": ""}
               for row in rows if row["index"] != "dn_i")
    assert failed["dn_i"]["error"] == "InputError"
    # the single-index run prints the same message after its "input error: " prefix
    assert f"input error: {failed['dn_i']['message']}\n" == stderr
    assert [row["index"] for row in read_rows(out_dir / "longrun_summary.csv")] == FITTED
    assert not list(out_dir.glob("fit_dn_i*"))


@pytest.mark.parametrize("command", ["fit", "report"])
def test_all_writes_every_index_that_fits_and_exits_5(command, zero_panel, dn_i_failure, tmp_path):
    source = ["--league", zero_panel["league"], "--macro", zero_panel["macro"], "--iterate-sur"]
    out = tmp_path / "all"
    code, stdout, stderr = run(command, *source, "--index", "all", "--out-dir", out)
    assert code == 5
    assert stderr == "fit failed for dn_i; see fit_status.csv\n"
    assert stdout == (
        f"fitted 16 model(s): {', '.join(FITTED)}\n" if command == "fit" else "report complete\n"
    )
    assert_status(out, dn_i_failure[1])
    assert_manifest_lists_the_tree(out)
    assert "fit_status.csv" in json.loads((out / "manifest.json").read_text())["artifacts"]

    files = tree(out)
    for name in FITTED:
        single = tmp_path / name
        assert run(command, *source, "--index", name, "--out-dir", single)[0] == 0, name
        assert fit_files(out, name) == fit_files(single, name), name
        if command == "report":
            effects = f"effects_{name}/"
            assert {k: v for k, v in files.items() if k.startswith(effects)} == {
                k: v for k, v in tree(single).items() if k.startswith(effects)
            }, name
    if command == "report":
        # the single-index report of dn_i fails as before, without a manifest
        single = tmp_path / "dn_i"
        assert run(command, *source, "--index", "dn_i", "--out-dir", single)[::2] == dn_i_failure
        assert sorted(tree(single)) == ["g_diagnostics.csv", "indices.csv", "unit_root.csv",
                                        "unit_root.txt"]


@pytest.mark.parametrize("command", ["fit", "report"])
def test_all_failing_raises_the_first_failure(command, zero_panel, tmp_path):
    # 24 seasons cannot hold an order-30 lag: every index fails, namsi first
    source = ["--league", zero_panel["league"], "--macro", zero_panel["macro"], "--adl-order", "30"]
    first = run(command, *source, "--index", "namsi", "--out-dir", tmp_path / "namsi")
    assert first[0] == 2
    assert first[2].startswith("input error: alignment error: index 'namsi' covers only ")
    out = tmp_path / "all"
    assert run(command, *source, "--index", "all", "--out-dir", out) == first
    if command == "fit":
        assert not out.exists()
    else:
        assert not (out / "manifest.json").exists()
        assert not list(out.glob("fit_*")) and not list(out.glob("longrun_summary*"))


def test_exit_5_survives_a_fresh_interpreter(zero_panel, tmp_path):
    argv = (
        "fit", "--league", zero_panel["league"], "--macro", zero_panel["macro"],
        "--index", "all", "--iterate-sur",
    )
    env = dict(os.environ, PYTHONWARNINGS="ignore")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # stdout is a pipe, so block-buffered: it must still be flushed at exit
    fresh = subprocess.run(
        [sys.executable, "-c", ENTRY, *map(str, argv), "--out-dir", str(tmp_path / "fresh")],
        env=env, capture_output=True, text=True,
    )
    assert fresh.returncode == 5, fresh.stderr
    assert fresh.stdout == f"fitted 16 model(s): {', '.join(FITTED)}\n"
    assert fresh.stderr == "fit failed for dn_i; see fit_status.csv\n"
    assert run(*argv, "--out-dir", tmp_path / "in_process")[0] == 5
    assert tree(tmp_path / "fresh") == tree(tmp_path / "in_process")


def test_report_whose_effects_fail_keeps_the_fit_files(zero_panel, tmp_path):
    # C3 has league tables but no macro rows: it is left out of every fit,
    # and then no index has C3's attendance for its effects
    lines = zero_panel["macro"].read_text().splitlines(keepends=True)
    macro = tmp_path / "macro.csv"
    macro.write_text("".join(line for line in lines if not line.startswith("C3,")))
    argv = ["report", "--league", zero_panel["league"], "--macro", macro]
    first = run(*argv, "--index", "namsi", "--out-dir", tmp_path / "namsi")
    assert first[::2] == (2, "input error: no attendance data for C3\n")
    out = tmp_path / "all"
    assert run(*argv, "--index", "all", "--out-dir", out) == first
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("longrun_summary*"))
    assert fit_files(out, "namsi") == fit_files(tmp_path / "namsi", "namsi")
    written = sorted(out / f"fit_{name}{s}" for name in FITTED for s in FIT_SUFFIXES)
    assert sorted(out.glob("fit_*")) == written


@pytest.fixture(scope="module")
def bench_fit_inputs(tmp_path_factory):
    """The inputs of the benchmark's fit-paper workload at seed 1: 8 countries
    x 50 seasons x 18 teams, and an indices.csv of the 16 indices other
    than g, whose dn1 is 0.0 for (C2, 1964) and dn_i for (C1, 1968)."""
    root = tmp_path_factory.mktemp("fit_paper")
    leagues = bench_leagues("uniform", 1)
    countries = tuple(f"C{i + 1}" for i in range(8))
    dgp_seed = int(np.random.SeedSequence([1, 2]).generate_state(1)[0])
    dgp = simulate_dgp(DgpParams(countries=countries), seed=dgp_seed)
    values, _ = compute_all_indices(leagues, names=[n for n in ALL_INDEX_NAMES if n != "g"])
    _write_macro_csv(root / "macro.csv", dgp.macro)
    write_csv(root / "indices.csv", INDEX_COLUMNS,
              [(v.country, v.season, v.name, v.value) for v in values])
    return {"macro": root / "macro.csv", "indices": root / "indices.csv"}


def test_all_from_an_indices_file_fits_the_indices_it_holds(bench_fit_inputs, tmp_path):
    source = ["--macro", bench_fit_inputs["macro"], "--indices", bench_fit_inputs["indices"]]
    out = tmp_path / "all"
    code, stdout, stderr = run("fit", *source, "--index", "all", "--iterate-sur", "--out-dir", out)
    held = [name for name in ALL_INDEX_NAMES if name != "g"]
    fitted = [name for name in held if name not in ("dn1", "dn_i")]
    assert code == 5
    assert stderr == "fit failed for dn1, dn_i; see fit_status.csv\n"
    assert stdout == f"fitted 14 model(s): {', '.join(fitted)}\n"
    rows = read_rows(out / "fit_status.csv")
    assert [row["index"] for row in rows] == held
    assert {row["index"]: row["message"] for row in rows if row["status"] == "failed"} == {
        "dn1": "log-domain error: index 'dn1' is 0.0 for (C2, 1964)",
        "dn_i": "log-domain error: index 'dn_i' is 0.0 for (C1, 1968)",
    }
    assert_manifest_lists_the_tree(out)


def test_all_from_a_file_of_one_index_fits_that_index(bench_fit_inputs, tmp_path):
    lines = bench_fit_inputs["indices"].read_text().splitlines(keepends=True)
    indices = tmp_path / "indices.csv"
    indices.write_text(lines[0] + "".join(line for line in lines if ",sdc_ki," in line))
    argv = ["fit", "--macro", bench_fit_inputs["macro"], "--indices", indices]
    assert run(*argv, "--index", "all", "--out-dir", tmp_path / "all") == (
        0, "fitted 1 model(s): sdc_ki\n", ""
    )
    run(*argv, "--index", "sdc_ki", "--out-dir", tmp_path / "one")
    assert tree(tmp_path / "all") == tree(tmp_path / "one")
