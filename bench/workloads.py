"""Workloads of the leaguebalance benchmark and their seeded inputs.

Each workload is a list of CLI operations over inputs that the in-repo
simulators generate from the workload seed.  Only ``simulate_league``,
``simulate_dgp`` and ``compute_all_indices`` are called from the program;
the CSV files are written here, so the program receives nothing but files.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from leaguebalance.pipeline import compute_all_indices
from leaguebalance.simulate import DgpParams, LeagueSimParams, simulate_dgp, simulate_league

# The paper's seventeen indices, spelled out here so a renamed index fails
# the output checks instead of silently changing the workload.
SEASONAL = ("namsi", "hhi_star", "agini", "ncr1", "acr_k", "ncr_i", "scr_ki")
PAIRWISE = ("tau", "dn1", "adn_k", "dn_i", "sdn_ki")
BIDIMENSIONAL = ("dc1", "adc_k", "dc_i", "sdc_ki")
ALL_INDICES = SEASONAL + ("g",) + PAIRWISE + BIDIMENSIONAL
# g is left out of the fit workloads: its value comes from the G stage that
# the indices workload measures, and leaving it out keeps fit inputs stable.
FIT_INDICES = tuple(name for name in ALL_INDICES if name != "g")
G_WINDOW = 5  # the program's default window for the G index
LAST_SEASON = 2008  # the paper's last season


@dataclass(frozen=True)
class LeagueSpec:
    """Generator parameters of one country's league."""

    country: str
    start_season: int
    n_seasons: int
    n_teams: int
    churn: int = 3
    dispersion: float = 2.0

    def seasons(self) -> range:
        return range(self.start_season, self.start_season + self.n_seasons)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    leagues: tuple[LeagueSpec, ...]
    fit: bool  # True: 16 per-index fits plus unit-root; False: one indices run


@dataclass(frozen=True)
class Operation:
    """One CLI invocation; ``expect_reject`` marks inputs the model cannot take."""

    name: str
    argv: tuple[str, ...]  # CLI arguments before --out-dir
    expect_reject: bool = False


def _uniform(n_countries: int, n_seasons: int, n_teams: int) -> tuple[LeagueSpec, ...]:
    start = LAST_SEASON - n_seasons + 1
    return tuple(
        LeagueSpec(f"C{i + 1}", start, n_seasons, n_teams) for i in range(n_countries)
    )


def _staggered(
    n_countries: int, span: int, entry_step: int, base_teams: int
) -> tuple[LeagueSpec, ...]:
    # country i enters entry_step * i seasons late with base_teams + i teams
    start = LAST_SEASON - span + 1
    return tuple(
        LeagueSpec(f"C{i + 1}", start + entry_step * i, span - entry_step * i, base_teams + i)
        for i in range(n_countries)
    )


WHY = {
    "indices-short": "indices stage at the paper's league shape over 5 seasons: "
    "G Monte Carlo, the 16 other indices, CSV parse and writers; no estimation",
    "fit-paper": "estimation stage on the balanced 8x50 paper panel: 16 per-index "
    "fits and unit-root, one presence pattern, 17 interpreter start-ups",
    "fit-staggered": "the same 17 operations on an unbalanced panel: countries enter "
    "4 seasons apart with 12-19 teams, 8 presence patterns per year grid",
}

SCALES = {
    "paper": {
        # one G window per country: the paper's 50 seasons (368 windows) take
        # about 150 s per operation at the default replications
        "indices-short": _uniform(8, 5, 18),
        "fit-paper": _uniform(8, 50, 18),
        "fit-staggered": _staggered(8, 50, 4, 12),
    },
    # toy size for the self-test; the fit panels need 16 seasons because
    # the 19-coefficient model is not estimable on fewer rows
    "tiny": {
        "indices-short": _uniform(2, 8, 8),
        "fit-paper": _uniform(2, 16, 8),
        "fit-staggered": _staggered(2, 16, 2, 8),
    },
}
WORKLOAD_NAMES = tuple(WHY)


def get_workload(name: str, scale: str = "paper") -> Workload:
    leagues = SCALES[scale][name]
    return Workload(name, WHY[name], leagues, fit=name.startswith("fit"))


def derived_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one generator, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def fmt(value) -> str:
    return format(value, ".12g") if isinstance(value, float) else str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def generate_inputs(workload: Workload, seed: int, out: Path) -> dict[str, str]:
    """Write the workload's input files into ``out``; returns {name: sha256}."""
    out.mkdir(parents=True, exist_ok=True)
    leagues = []
    for i, spec in enumerate(workload.leagues):
        params = LeagueSimParams(
            n_teams=spec.n_teams,
            n_seasons=spec.n_seasons,
            dispersion=spec.dispersion,
            country=spec.country,
            start_season=spec.start_season,
            churn=spec.churn,
        )
        leagues.extend(simulate_league(params, seed=derived_seed(seed, 1, i)))
    files = {"league.csv": out / "league.csv"}
    _write_csv(
        files["league.csv"],
        ("country", "season", "team", "rank", "wins", "draws", "losses", "points"),
        [
            (lg.country, lg.season, r.team, r.rank, r.wins, r.draws, r.losses, r.points)
            for lg in leagues
            for r in lg.records
        ],
    )
    if workload.fit:
        first = min(s.start_season for s in workload.leagues)
        span = max(LAST_SEASON - first + 1, 10)  # simulate_dgp needs 10 seasons
        sim = simulate_dgp(
            DgpParams(
                countries=tuple(s.country for s in workload.leagues),
                start_season=LAST_SEASON - span + 1,
                n_seasons=span,
            ),
            seed=derived_seed(seed, 2),
        )
        present = {(s.country, season) for s in workload.leagues for season in s.seasons()}
        files["macro.csv"] = out / "macro.csv"
        _write_csv(
            files["macro.csv"],
            ("country", "season", "attendance_avg", "population", "rgni_real",
             "unemployment_rate"),
            [
                (m.country, m.season, m.attendance_per_game, m.population, m.rgni,
                 m.unemployment)
                for m in sim.macro
                if (m.country, m.season) in present
            ],
        )
        values, _ = compute_all_indices(leagues, names=FIT_INDICES)
        files["indices.csv"] = out / "indices.csv"
        _write_csv(
            files["indices.csv"],
            ("country", "season", "index", "value"),
            [(v.country, v.season, v.name, v.value) for v in values],
        )
    return {name: sha256_file(path) for name, path in files.items()}


def zero_indices(indices_csv: Path) -> set[str]:
    """Index names with an exact zero somewhere, as written to the CSV.

    The attendance model takes the log of the index, so the program must
    reject these fits with a typed input error.
    """
    with open(indices_csv, newline="", encoding="utf-8") as fh:
        return {row["index"] for row in csv.DictReader(fh) if float(row["value"]) <= 0.0}


def operations(workload: Workload, inputs: Path, zeros=frozenset()) -> list[Operation]:
    """The workload's CLI operations, all at the program's defaults.

    ``zeros`` names the indices whose fit must be rejected (see
    :func:`zero_indices`).
    """
    if not workload.fit:
        return [Operation("indices", ("indices", "--league", str(inputs / "league.csv")))]
    macro = str(inputs / "macro.csv")
    indices = str(inputs / "indices.csv")
    ops = [
        Operation(
            f"fit:{name}",
            ("fit", "--macro", macro, "--indices", indices, "--index", name, "--iterate-sur"),
            expect_reject=name in zeros,
        )
        for name in FIT_INDICES
    ]
    ops.append(Operation("unit-root", ("unit-root", "--macro", macro)))
    return ops


def expected_index_keys(workload: Workload) -> set[tuple[str, int, str]]:
    """(country, season, index) keys that ``indices`` must write.

    Seasonal indices exist every season, pairwise and bi-dimensional ones
    from the second season, and G at the end of every full window.
    """
    keys = set()
    for spec in workload.leagues:
        for k, season in enumerate(spec.seasons()):
            names = SEASONAL
            if k >= 1:
                names += PAIRWISE + BIDIMENSIONAL
            if k >= G_WINDOW - 1:
                names += ("g",)
            keys.update((spec.country, season, name) for name in names)
    return keys


def expected_shape(workload: Workload) -> dict[str, int]:
    """Per-layer counts that the generator parameters fix: the league rows the
    indices operation parses, or the country-presence patterns of a fit panel."""
    if not workload.fit:
        return {"panel.league_rows": sum(s.n_teams * s.n_seasons for s in workload.leagues)}
    present: dict[int, set[str]] = {}
    for spec in workload.leagues:
        for season in spec.seasons():
            present.setdefault(season, set()).add(spec.country)
    return {"sur.presence_patterns": len({frozenset(c) for c in present.values()})}


def describe(workload: Workload) -> dict:
    """Generator parameters and command list, kept in every run record."""
    return {
        "name": workload.name,
        "why": workload.why,
        "leagues": [asdict(s) for s in workload.leagues],
        "macro": "simulate_dgp over the league span; rows without a league dropped"
        if workload.fit
        else None,
        "operations": [
            ["leaguebalance", *op.argv, "--out-dir", "<fresh dir>"]
            for op in operations(workload, Path("<inputs>"))
        ],
    }
