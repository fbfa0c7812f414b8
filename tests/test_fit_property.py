"""Every fit of a random simulated league either succeeds or fails typed.

Random leagues reach corners that the fixed test panels do not: exact
zeros of an index (rejected by the log specification), too few rows for a
fit's coefficients, covariances that need repair.  Whatever happens, the
CLI exits 0, 2 or 3; a failure prints one typed error line, and a success
writes every file of the fit.
"""

import contextlib
import csv
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance.catalog import ALL_INDEX_NAMES
from leaguebalance.cli import _write_league_csv, _write_macro_csv, main
from leaguebalance.simulate import DgpParams, LeagueSimParams, simulate_dgp, simulate_league

START = 1990  # every drawn span straddles d97's cut after 1997

league_params = st.fixed_dictionaries(
    {
        "n_teams": st.integers(8, 18),
        "dispersion": st.floats(0.3, 4.0),
        "churn": st.integers(0, 3),
    }
)


def run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process command, warnings silenced."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@settings(max_examples=6, deadline=None)
@given(
    countries=st.lists(league_params, min_size=2, max_size=4),
    n_seasons=st.integers(14, 24),
    seed=st.integers(0, 2**16),
)
def test_every_index_fits_or_fails_typed(countries, n_seasons, seed):
    names = [f"C{i + 1}" for i in range(len(countries))]
    leagues = []
    for i, (country, kw) in enumerate(zip(names, countries)):
        params = LeagueSimParams(country=country, n_seasons=n_seasons, start_season=START, **kw)
        leagues.extend(simulate_league(params, seed=seed + i))
    dgp = simulate_dgp(
        DgpParams(countries=tuple(names), start_season=START, n_seasons=n_seasons), seed=seed
    )
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        league, macro = root / "league.csv", root / "macro.csv"
        _write_league_csv(league, leagues)
        _write_macro_csv(macro, dgp.macro)

        assert run("indices", "--league", league, "--out-dir", root / "idx") == (0, "")
        with open(root / "idx" / "indices.csv", newline="") as fh:
            values = [float(row["value"]) for row in csv.DictReader(fh)]
        assert values and all(0.0 <= v <= 1.0 for v in values)

        for name in ALL_INDEX_NAMES:
            out = root / name
            code, err = run(
                "fit", "--league", league, "--macro", macro, "--index", name,
                "--iterate-sur", "--out-dir", out,
            )
            assert code in (0, 2, 3), (name, code, err)
            if code:
                (line,) = err.splitlines()
                assert line.startswith({2: "input error: ", 3: "numerical error: "}[code]), line
            else:
                for suffix in ("_coefficients.csv", "_longrun.csv", "_diagnostics.csv", ".txt"):
                    assert (out / f"fit_{name}{suffix}").exists(), (name, suffix)
