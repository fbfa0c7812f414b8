import gc
import math

import numpy as np
import pytest

from leaguebalance import (
    Config,
    InputError,
    LeagueSeason,
    LevelsRule,
    MacroObservation,
    TeamSeasonRecord,
    build_panel,
    parse_league_csv,
    winning_percentages,
)
from leaguebalance.econometrics import RegressionSpec, build_adl_design
from leaguebalance.panel import league_seasons
from support import all_draw_season, cu_season, random_outcomes, season_from_outcomes

LEAGUE_HEADER = "country,season,team,rank,wins,draws,losses,points\n"


def write_league(tmp_path, rows, name="league.csv"):
    path = tmp_path / name
    path.write_text(LEAGUE_HEADER + "".join(r + "\n" for r in rows))
    return str(path)


def four_team_rows(country="BEL", season=1990):
    # double round robin, 6 games each
    return [
        f"{country},{season},A,1,5,1,0,11",
        f"{country},{season},B,2,3,1,2,7",
        f"{country},{season},C,3,2,0,4,4",
        f"{country},{season},D,4,0,2,4,2",
    ]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("good", [True, False])
def test_a_read_leaves_collection_as_the_caller_had_it(tmp_path, enabled, good):
    rows = four_team_rows() if good else four_team_rows()[:3] + ["BEL,1990,D,4,0,2,4"]
    path = write_league(tmp_path, rows)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if good:
            assert len(parse_league_csv(path)) == 1
        else:
            with pytest.raises(InputError, match="expected 8 fields"):
                parse_league_csv(path)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestParseLeagueCsv:
    def test_minimal_four_team_season(self, tmp_path):
        leagues = parse_league_csv(write_league(tmp_path, four_team_rows()))
        assert len(leagues) == 1
        assert leagues[0].n == 4
        assert leagues[0].country == "BEL"
        assert [r.team for r in leagues[0].records] == ["A", "B", "C", "D"]

    def test_duplicate_rank(self, tmp_path):
        rows = four_team_rows()
        rows[3] = rows[3].replace(",4,", ",3,", 1)
        with pytest.raises(InputError, match="duplicate rank"):
            parse_league_csv(write_league(tmp_path, rows))

    def test_non_permutation_ranks(self, tmp_path):
        rows = four_team_rows()
        rows[3] = rows[3].replace(",4,", ",7,", 1)
        with pytest.raises(InputError, match="permutation"):
            parse_league_csv(write_league(tmp_path, rows))

    def test_inconsistent_games(self, tmp_path):
        rows = four_team_rows()
        rows[0] = "BEL,1990,A,1,5,1,3,11"
        with pytest.raises(InputError, match="inconsistent games"):
            parse_league_csv(write_league(tmp_path, rows))

    def test_unknown_country_with_allowlist(self, tmp_path):
        config = Config(countries=("ENG",))
        with pytest.raises(InputError, match="unknown country"):
            parse_league_csv(write_league(tmp_path, four_team_rows()), config)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("country,season\nBEL,1990\n")
        with pytest.raises(InputError, match="header"):
            parse_league_csv(str(path))

    def test_levels_rule_applied(self, tmp_path):
        config = Config(levels=(LevelsRule("BEL", 1980, 1995, K=1, I=2),))
        leagues = parse_league_csv(write_league(tmp_path, four_team_rows()), config)
        assert (leagues[0].K, leagues[0].I) == (1, 2)

    def test_default_levels_shrink_for_small_leagues(self, tmp_path):
        leagues = parse_league_csv(write_league(tmp_path, four_team_rows()))
        assert leagues[0].K >= 1 and leagues[0].I >= 1
        assert leagues[0].K + leagues[0].I < leagues[0].n

    def test_table1_style_ranges_yield_expected_counts(self, tmp_path):
        ranges = {"BEL": (1966, 2008), "ENG": (1959, 2008), "GER": (1963, 2008)}
        rows = []
        for country, (lo, hi) in ranges.items():
            for season in range(lo, hi + 1):
                rows.extend(four_team_rows(country, season))
        leagues = parse_league_csv(write_league(tmp_path, rows))
        counts = {}
        for lg in leagues:
            counts[lg.country] = counts.get(lg.country, 0) + 1
        assert counts == {"BEL": 43, "ENG": 50, "GER": 46}


class TestWinningPercentages:
    def test_all_draws_give_half(self):
        w = winning_percentages(all_draw_season(6))
        assert np.allclose(w, 0.5)

    def test_completely_unbalanced_four_teams(self):
        w = winning_percentages(cu_season(4))
        assert np.allclose(w, [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])

    def test_hand_arithmetic(self):
        # 10 wins, 5 draws, 15 losses in 30 games -> (2*10+5)/(2*30)
        records = (
            TeamSeasonRecord("X", 1, 20, 5, 5, 45),
            TeamSeasonRecord("Y", 2, 10, 5, 15, 25),
            TeamSeasonRecord("Z", 3, 5, 10, 15, 20),
        )
        season = LeagueSeason("SIM", 2000, records, K=1, I=1)
        w = winning_percentages(season)
        assert w[1] == pytest.approx(25.0 / 60.0)

    def test_sum_is_half_n_for_complete_double_round_robin(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5, 6):
            season = season_from_outcomes(random_outcomes(n, rng))
            w = winning_percentages(season)
            assert float(w.sum()) == pytest.approx(n / 2.0, abs=1e-12)

    def test_zero_games_is_degenerate(self):
        records = tuple(
            TeamSeasonRecord(f"T{i}", i + 1, 0, 0, 0, 0) for i in range(4)
        )
        season = LeagueSeason("SIM", 2000, records, K=1, I=1)
        with pytest.raises(InputError, match="degenerate"):
            winning_percentages(season)


def macro_rows(country, seasons, un=8.0):
    return [
        MacroObservation(country, s, attendance_per_game=10_000.0 + s, population=1e7,
                         rgni=20_000.0, unemployment=un)
        for s in seasons
    ]


class TestBuildPanel:
    def test_d97_cutoff(self):
        panel = build_panel(macro_rows("BEL", range(1995, 2001)))
        series = {("BEL", s): 0.5 for s in range(1995, 2001)}
        design = build_adl_design(panel, series, RegressionSpec("scr_ki", adl_order=1))
        column = design.X[:, design.columns.index("d97")]
        by_season = dict(zip(design.years.tolist(), column.tolist()))
        assert by_season[1997] == 0
        assert by_season[1998] == 1
        t = design.X[:, design.columns.index("t")]
        assert np.array_equal(design.X[:, design.columns.index("t2")], t * t)

    def test_log_domain_error_names_key(self):
        rows = macro_rows("BEL", range(1995, 2000))
        rows[2] = MacroObservation("BEL", 1997, 10_000.0, 1e7, 20_000.0, 0.0)
        with pytest.raises(InputError, match=r"unemployment_rate for \(BEL, 1997\)"):
            build_panel(rows)

    def test_season_gap_is_an_error(self):
        rows = macro_rows("BEL", [1995, 1996, 1998])
        with pytest.raises(InputError, match="season gap"):
            build_panel(rows)

    def test_trend_shared_across_countries(self):
        panel = build_panel(macro_rows("BEL", [1990, 1991]) + macro_rows("ENG", [1989, 1990, 1991]))
        # the design's trend is the season's row on the grid, counted from 1
        t = {
            (c, s): i + 1
            for i, s in enumerate(panel.seasons.tolist())
            for j, c in enumerate(panel.countries)
            if panel.present[i, j]
        }
        assert t[("ENG", 1989)] == 1
        assert t[("BEL", 1990)] == t[("ENG", 1990)] == 2

    def test_logs_match_inputs(self):
        panel = build_panel(macro_rows("BEL", [1990]))
        assert panel.ln_att[0, 0] == pytest.approx(math.log(10_000.0 + 1990))
        assert panel.ln_un[0, 0] == pytest.approx(math.log(8.0))

    def test_deterministic(self):
        rows = macro_rows("BEL", range(1980, 2000)) + macro_rows("SWE", range(1985, 1999))
        a, b = build_panel(rows), build_panel(rows)
        assert a.countries == b.countries
        for name in ("seasons", "present", "ln_att", "ln_pop", "ln_rgni", "ln_un"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name

    def test_unbalanced_counts(self):
        table1 = {
            "BEL": (1966, 2008), "ENG": (1959, 2008), "FRA": (1959, 2008),
            "GER": (1963, 2008), "GRE": (1959, 2008), "ITA": (1959, 2008),
            "NOR": (1963, 2008), "SWE": (1959, 2008),
        }
        rows = []
        for country, (lo, hi) in table1.items():
            rows.extend(macro_rows(country, range(lo, hi + 1)))
        panel = build_panel(rows)
        assert panel.countries == ("BEL", "ENG", "FRA", "GER", "GRE", "ITA", "NOR", "SWE")
        assert panel.present.sum(axis=0).tolist() == [43, 50, 50, 46, 50, 50, 46, 50]
        assert panel.seasons.tolist() == list(range(1959, 2009))
        for name in ("ln_att", "ln_pop", "ln_rgni", "ln_un"):
            assert np.array_equal(np.isnan(getattr(panel, name)), ~panel.present), name


# three final tables as league_seasons takes them: (country, season, n, K, I)
# per season, then each season's n rows
HEADS = [("A", 2000, 4, 1, 2), ("A", 2001, 4, 2, 1), ("B", 2000, 3, 1, 1)]
ROWS = [
    ("T1", 1, 5, 1, 0, 11), ("T2", 2, 3, 1, 2, 7), ("T3", 3, 2, 0, 4, 4), ("T4", 4, 0, 2, 4, 2),
    ("T2", 1, 4, 2, 0, 10), ("T1", 2, 3, 1, 2, 7), ("T4", 3, 2, 1, 3, 5), ("T5", 4, 0, 2, 4, 2),
    ("X", 1, 2, 2, 0, 6), ("Y", 2, 1, 2, 1, 4), ("Z", 3, 0, 2, 2, 2),
]


def columns(rows=ROWS):
    return [list(column) for column in zip(*rows)]


def constructed(heads=HEADS, rows=ROWS) -> list[LeagueSeason]:
    out, first = [], 0
    for country, season, n, K, I in heads:
        records = tuple(TeamSeasonRecord(*row) for row in rows[first : first + n])
        out.append(LeagueSeason(country, season, records, K=K, I=I))
        first += n
    return out


class TestLeagueSeasons:
    """``league_seasons`` builds from checked columns what ``LeagueSeason``
    builds from records."""

    def test_built_seasons_equal_constructed_ones(self):
        built = league_seasons(HEADS, *columns())
        reference = constructed()
        assert built == reference
        assert list(map(repr, built)) == list(map(repr, reference))
        assert list(map(hash, built)) == list(map(hash, reference))
        for lg, ref in zip(built, reference):
            assert list(vars(lg)) == list(vars(ref)) == ["country", "season", "records", "K", "I"]
            for rec, ref_rec in zip(lg.records, ref.records):
                assert type(rec) is TeamSeasonRecord
                assert list(vars(rec)) == list(vars(ref_rec))
                assert repr(rec) == repr(ref_rec) and rec.games == ref_rec.games
        with pytest.raises(AttributeError):
            built[0].K = 2
        with pytest.raises(AttributeError):
            built[0].records[0].rank = 2

    def test_checked_columns_make_no_season_one_at_a_time(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LeagueSeason.__init__ called")

        monkeypatch.setattr(LeagueSeason, "__init__", refuse)
        assert len(league_seasons(HEADS, *columns())) == 3

    def test_no_seasons(self):
        assert league_seasons([], [], [], [], [], [], []) == []

    @pytest.mark.parametrize(
        "head_edits, row_edits, message",
        [
            ({2: ("B", 2000, 3, 2, 1)}, {},
             r"\(B, 2000\): invalid level structure K=2, I=1 for n=3"),
            ({0: ("A", 2000, 4, 0, 2)}, {}, r"\(A, 2000\): invalid level structure K=0"),
            ({}, {6: ROWS[7], 7: ROWS[6]},
             r"\(A, 2001\): records must be sorted by rank ascending"),
            ({}, {7: ("T5", 5, 0, 2, 4, 2)}, r"\(A, 2001\): ranks are not a permutation of 1..4"),
            ({}, {7: ("T5", 3, 0, 2, 4, 2)}, r"\(A, 2001\): duplicate rank 3"),
            ({}, {10: ("Z", 3, 0, 2, 3, 2)},
             r"\(B, 2000\): inconsistent games played across teams: \[4, 5\]"),
            ({}, {9: ("Y", 2, 1, 4, -1, 4)}, r"\(B, 2000\): negative W/D/L for team Y"),
            ({2: ("B", 2000, 2, 1, 1)}, {10: None},
             r"\(B, 2000\): league needs at least 3 teams, got 2"),
        ],
        ids=["levels", "zero_K", "rank_order", "rank_gap", "rank_twice", "games", "negative",
             "small"],
    )
    def test_a_failed_check_raises_the_constructors_error(self, head_edits, row_edits, message):
        heads = [head_edits.get(i, head) for i, head in enumerate(HEADS)]
        rows = [row_edits.get(i, row) for i, row in enumerate(ROWS)]
        rows = [row for row in rows if row is not None]  # None drops a row
        with pytest.raises(InputError, match=message) as built:
            league_seasons(heads, *columns(rows))
        with pytest.raises(InputError) as reference:
            constructed(heads, rows)
        assert str(built.value) == str(reference.value)
