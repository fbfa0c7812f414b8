"""README's "Library use" code block runs as written."""

import re
from pathlib import Path

from leaguebalance.cli import _write_league_csv, _write_macro_csv
from leaguebalance.simulate import DgpParams, LeagueSimParams, simulate_dgp, simulate_league

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    leagues = [
        season
        for i, country in enumerate(("C1", "C2"))
        for season in simulate_league(
            LeagueSimParams(country=country, start_season=1959, n_seasons=50), seed=i
        )
    ]
    _write_league_csv(tmp_path / "league.csv", leagues)
    _write_macro_csv(
        tmp_path / "macro.csv", simulate_dgp(DgpParams(countries=("C1", "C2"))).macro
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and lines[0].split()[0] == "cb"
