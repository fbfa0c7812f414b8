import csv
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from leaguebalance.cli import _write_league_csv
from leaguebalance.simulate import LeagueSimParams, simulate_league

# HYPOTHESIS_PROFILE=ci runs ten times hypothesis' default number of examples;
# a test that sets its own count as a multiple of settings.default.max_examples
# scales with it.  Without the variable the counts are the default profile's.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """League + macro CSVs for three synthetic countries, 1980-2003."""
    root = tmp_path_factory.mktemp("data")
    leagues = []
    for i, (country, teams, disp, churn) in enumerate(
        [("AAA", 12, 2.0, 2), ("BBB", 10, 3.0, 1), ("CCC", 14, 1.5, 2)]
    ):
        leagues.extend(
            simulate_league(
                LeagueSimParams(
                    n_teams=teams,
                    n_seasons=24,
                    dispersion=disp,
                    country=country,
                    start_season=1980,
                    churn=churn,
                ),
                seed=100 + i,
            )
        )
    league_path = root / "league.csv"
    _write_league_csv(league_path, leagues)

    rng = np.random.default_rng(7)
    macro_path = root / "macro.csv"
    with open(macro_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["country", "season", "attendance_avg", "population", "rgni_real", "unemployment_rate"]
        )
        for ci, country in enumerate(("AAA", "BBB", "CCC")):
            att, pop, rgni, un = 8000.0 * (ci + 1), 5e6 * (ci + 1), 15000.0, 8.0
            for season in range(1980, 2004):
                att *= math.exp(0.03 * rng.standard_normal())
                pop *= math.exp(0.004 + 0.002 * rng.standard_normal())
                rgni *= math.exp(0.01 + 0.01 * rng.standard_normal())
                un = max(1.0, un * math.exp(0.05 * rng.standard_normal()))
                writer.writerow(
                    [country, season, f"{att:.6f}", f"{pop:.3f}", f"{rgni:.6f}", f"{un:.6f}"]
                )
    return {"league": str(league_path), "macro": str(macro_path), "root": root}
