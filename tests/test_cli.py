import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import leaguebalance
from leaguebalance.cli import main
from leaguebalance.errors import ConfigError
from leaguebalance.manifest import sha256_file, sha256_text
from leaguebalance.panel import INDEX_COLUMNS, LEAGUE_COLUMNS, MACRO_COLUMNS, Config


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_bytes(path) -> bytes:
    return Path(path).read_bytes()


def tree_bytes(out_dir) -> dict[str, bytes]:
    out_dir = Path(out_dir)
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def macro_cut(small_dataset, tmp_path, first: int) -> Path:
    """The test macro with CCC's rows before season ``first`` dropped."""
    lines = Path(small_dataset["macro"]).read_text().splitlines(keepends=True)
    macro = tmp_path / f"macro_{first}.csv"
    macro.write_text(
        "".join(l for l in lines if not (l.startswith("CCC,") and int(l.split(",")[1]) < first))
    )
    return macro


class TestIndicesCommand:
    def test_writes_indices_and_diagnostics(self, small_dataset, tmp_path):
        out = tmp_path / "idx"
        assert run(
            "indices", "--league", small_dataset["league"], "--out-dir", out,
        ) == 0
        with open(out / "indices.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = {r["index"] for r in rows}
        assert len(names) == 17
        assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)
        assert (out / "g_diagnostics.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "indices"
        assert "league" in manifest["inputs"]

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,season\nBEL,1990\n")
        assert run("indices", "--league", bad, "--out-dir", tmp_path / "o") == 2

    def test_config_error_exit_code(self, small_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"unexpected_key": 1}')
        assert run(
            "indices", "--league", small_dataset["league"], "--config", cfg,
            "--out-dir", tmp_path / "o",
        ) == 4

    @pytest.mark.parametrize(
        "entry",
        [
            '"default_K": [3]',
            '"default_I": {"K": 3}',
            '"g_window": "five"',
            '"g_window": 1e400',
            '"trend_degree": null',
            '"countries": 5',
            '"countries": "C1"',
            '"countries": ["C1", null]',
            '"countries": {"C1": 1}',
            '"levels": 3',
            '"g_window": 2.7',
            '"g_window": "4"',
            '"trend_degree": true',
            '"trend_degree": 1.0',
            '"default_K": "2"',
        ],
    )
    def test_bad_config_value_is_config_error(self, small_dataset, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + entry + "}")
        assert run(
            "indices", "--league", small_dataset["league"], "--config", cfg,
            "--out-dir", tmp_path / "o",
        ) == 4
        key = entry.split('"')[1]
        assert f"config error: {cfg}: bad {key}: " in capsys.readouterr().err

    def test_config_integer_keys_take_json_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"g_window": 4, "trend_degree": 1, "default_K": 1, "countries": null}')
        config = Config.from_json(str(cfg))
        assert (config.g_window, config.trend_degree, config.default_K) == (4, 1, 1)
        assert config.countries is None and config.default_I == 3 and config.levels == ()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"levels": {"AAA": 1}}', 'bad levels: expected a JSON list, got {"AAA": 1}'),
            ('{"levels": ["AAA"]}', 'bad levels entry #0: expected a JSON object, got "AAA"'),
            ('{"countries": [5, 6.5]}', "bad countries: expected a JSON string, got 5"),
            (
                '{"levels": [{"country": 5, "from": 1980, "to": 2003, "K": 2, "I": 2}]}',
                "bad levels entry #0: expected a JSON string, got 5",
            ),
        ],
    )
    def test_config_takes_lists_as_given(self, tmp_path, entry, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(entry)
        with pytest.raises(ConfigError) as info:
            Config.from_json(str(cfg))
        assert str(info.value) == f"{cfg}: {message}"

    @pytest.mark.parametrize(
        "rule, message",
        [
            ('"from": 1980, "to": 2003, "K": 0, "I": 2', "K and I must be >= 1, got K=0, I=2"),
            ('"from": 1980, "to": 2003, "K": 2, "I": -1', "K and I must be >= 1, got K=2, I=-1"),
            ('"from": 2003, "to": 1980, "K": 2, "I": 2', "from 2003 is after to 1980"),
            ('"from": 1980, "to": 2003, "K": "2", "I": 2', 'expected a JSON integer, got "2"'),
            ('"from": 1980.0, "to": 2003, "K": 2, "I": 2', "expected a JSON integer, got 1980.0"),
            ('"from": 1980, "to": 2003, "K": true, "I": 2', "expected a JSON integer, got true"),
        ],
        ids=["K0", "I-1", "from-after-to", "K-string", "from-float", "K-bool"],
    )
    def test_bad_levels_rule_is_config_error(self, small_dataset, tmp_path, capsys, rule, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"levels": [{"country": "AAA", "from": 1980, "to": 2003, "K": 4, "I": 2},'
            ' {"country": "BBB", ' + rule + "}]}"
        )
        assert run(
            "indices", "--league", small_dataset["league"], "--config", cfg,
            "--out-dir", tmp_path / "o",
        ) == 4
        assert capsys.readouterr().err == (
            f"config error: {cfg}: bad levels entry #1: {message}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_config_levels_applied(self, small_dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"levels": [{"country": "AAA", "from": 1980, "to": 2003, "K": 4, "I": 2}],'
            ' "g_window": 4}'
        )
        out = tmp_path / "idx"
        assert run(
            "indices", "--league", small_dataset["league"], "--config", cfg,
            "--out-dir", out,
        ) == 0
        with open(out / "g_diagnostics.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["country"] == "AAA"]
        # windows of 4 over 24 seasons -> 21 end-seasons
        assert len(rows) == 21

    def test_extra_field_is_input_error(self, small_dataset, tmp_path, capsys):
        lines = Path(small_dataset["league"]).read_text().splitlines()
        lines[2] += ",9"
        league = tmp_path / "league.csv"
        league.write_text("\n".join(lines) + "\n")
        assert run("indices", "--league", league, "--out-dir", tmp_path / "o") == 2
        assert f"input error: {league}:3: expected 8 fields, got 9" in capsys.readouterr().err

    def test_byte_determinism_across_runs(self, small_dataset, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(
                "indices", "--league", small_dataset["league"], "--out-dir", out,
            ) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]

    def test_g_diagnostics_columns(self, small_dataset, tmp_path):
        out = tmp_path / "idx"
        assert run("indices", "--league", small_dataset["league"], "--out-dir", out) == 0
        with open(out / "g_diagnostics.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["country", "season", "E_hat"]
        # default 5-season windows over 24 seasons in each of 3 countries
        assert len(rows) == 3 * 20
        with open(out / "indices.csv", newline="") as fh:
            g_keys = [(r["country"], r["season"]) for r in csv.DictReader(fh) if r["index"] == "g"]
        assert [(r["country"], r["season"]) for r in rows] == g_keys


class TestUnitRootCommand:
    def test_report_shape(self, small_dataset, tmp_path):
        out = tmp_path / "ur"
        assert run("unit-root", "--macro", small_dataset["macro"], "--out-dir", out) == 0
        with open(out / "unit_root.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 4 variables x 2 deterministic cases
        assert {r["variable"] for r in rows} == {"ln_att", "ln_pop", "ln_rgni", "ln_un"}
        for r in rows:
            assert 0.0 <= float(r["p_value"]) <= 1.0
            assert "-" in r["lags"]

    @staticmethod
    def straight_line_pop(small_dataset, tmp_path) -> Path:
        """The test macro with population growing exactly 1 % a season, so
        ln_pop is a straight line."""
        lines = Path(small_dataset["macro"]).read_text().splitlines()
        rows = [lines[0]]
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            fields[3] = f"{5e6 * 1.01 ** (k % 24):.6f}"
            rows.append(",".join(fields))
        macro = tmp_path / "macro.csv"
        macro.write_text("\n".join(rows) + "\n")
        return macro

    def test_deterministic_trend_is_numerical_error(self, small_dataset, tmp_path, capsys):
        macro = self.straight_line_pop(small_dataset, tmp_path)
        assert run("unit-root", "--macro", macro, "--out-dir", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "numerical error: ln_pop for AAA" in err
        assert "rank deficient" in err

    def test_exact_fit_at_lag_zero_is_numerical_error(self, small_dataset, tmp_path, capsys):
        # at lag 0 the regressors [1, y_{t-1}] have full rank, but they fit
        # the constant differences exactly
        macro = self.straight_line_pop(small_dataset, tmp_path)
        assert run(
            "unit-root", "--macro", macro, "--max-lag", 0, "--out-dir", tmp_path / "o"
        ) == 3
        err = capsys.readouterr().err
        assert "numerical error: ln_pop for AAA: ADF regression at lag 0 fits exactly" in err

    def test_negative_max_lag_is_input_error(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(
            "unit-root", "--macro", small_dataset["macro"], "--max-lag", -3, "--out-dir", out
        ) == 2
        assert "input error: max_lag must be >= 0, got -3" in capsys.readouterr().err
        assert not (out / "unit_root.csv").exists()

    def test_short_series_names_its_variable_and_country(self, small_dataset, tmp_path, capsys):
        # six seasons are enough for the constant case, not for constant+trend
        macro = macro_cut(small_dataset, tmp_path, 1998)
        assert run("unit-root", "--macro", macro, "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "input error: ln_att for CCC: series of length 6 too short for the ADF test, "
            "need at least 7\n"
        )

    def test_extra_field_is_input_error(self, small_dataset, tmp_path, capsys):
        lines = Path(small_dataset["macro"]).read_text().splitlines()
        lines[1] += ",9"
        macro = tmp_path / "macro.csv"
        macro.write_text("\n".join(lines) + "\n")
        assert run("unit-root", "--macro", macro, "--out-dir", tmp_path / "o") == 2
        assert f"input error: {macro}:2: expected 6 fields, got 7" in capsys.readouterr().err

    def test_empty_macro_is_input_error(self, tmp_path):
        empty = tmp_path / "macro.csv"
        empty.write_text(
            "country,season,attendance_avg,population,rgni_real,unemployment_rate\n"
        )
        assert run("unit-root", "--macro", empty, "--out-dir", tmp_path / "o") == 2


class TestFitCommand:
    def test_fit_from_league(self, small_dataset, tmp_path):
        out = tmp_path / "fit"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--league", small_dataset["league"],
            "--index", "scr_ki", "--iterate-sur", "--out-dir", out,
        ) == 0
        for name in (
            "fit_scr_ki_coefficients.csv", "fit_scr_ki_longrun.csv",
            "fit_scr_ki_diagnostics.csv", "fit_scr_ki.txt", "longrun_summary.csv",
        ):
            assert (out / name).exists(), name
        with open(out / "fit_scr_ki_longrun.csv", newline="") as fh:
            rows = {r["variable"]: r for r in csv.DictReader(fh)}
        assert set(rows) == {"cb", "pop", "rgni", "un", "d97", "t", "t2"}

    @pytest.mark.parametrize(
        "sources, message",
        [
            (("--indices", "indices.csv", "--league", "/nonexistent.csv"),
             "argument --league: not allowed with argument --indices"),
            ((), "one of the arguments --league --indices is required"),
        ],
        ids=["both", "neither"],
    )
    def test_one_index_source(self, small_dataset, tmp_path, capsys, sources, message):
        out = tmp_path / "fit"
        with pytest.raises(SystemExit) as exc:
            run("fit", "--macro", small_dataset["macro"], *sources, "--out-dir", out)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diagnostics_record_convergence(self, small_dataset, tmp_path):
        out = tmp_path / "fit"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--league", small_dataset["league"],
            "--index", "scr_ki", "--iterate-sur", "--out-dir", out,
        ) == 0
        with open(out / "fit_scr_ki_diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["name"] for r in rows[-3:]] == ["iterations", "converged", "final_delta"]
        converged, final_delta = rows[-2]["statistic"], float(rows[-1]["statistic"])
        assert converged in ("0", "1")
        assert (final_delta < 1e-8) == (converged == "1")

    def test_no_d97_removes_row(self, small_dataset, tmp_path):
        out = tmp_path / "fit"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--league", small_dataset["league"],
            "--index", "scr_ki", "--no-d97", "--out-dir", out,
        ) == 0
        with open(out / "fit_scr_ki_longrun.csv", newline="") as fh:
            rows = {r["variable"] for r in csv.DictReader(fh)}
        assert "d97" not in rows
        with open(out / "fit_scr_ki_coefficients.csv", newline="") as fh:
            terms = {r["term"] for r in csv.DictReader(fh)}
        assert "d97" not in terms

    def test_constant_index_is_numerical_error(self, small_dataset, tmp_path, capsys):
        indices = tmp_path / "flat.csv"
        with open(small_dataset["macro"], newline="") as fh:
            keys = [(r["country"], r["season"]) for r in csv.DictReader(fh)]
        with open(indices, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["country", "season", "index", "value"])
            for country, season in keys:
                writer.writerow([country, season, "scr_ki", "0.5"])
        assert run(
            "fit", "--macro", small_dataset["macro"], "--indices", indices,
            "--index", "scr_ki", "--out-dir", tmp_path / "o",
        ) == 3
        # the index level is then a sum of the country intercepts
        assert "singular design: dependent columns ln_cb_lag1" in capsys.readouterr().err

    def test_index_constant_in_one_country_is_estimable(self, tmp_path):
        # slopes are shared across countries, so a flat index in one country
        # leaves ln_cb_lag1 identified by the others
        from leaguebalance.cli import _write_macro_csv
        from leaguebalance.panel import INDEX_COLUMNS
        from leaguebalance.reports import write_csv
        from leaguebalance.simulate import simulate_dgp

        sim = simulate_dgp(seed=1)
        macro, indices = tmp_path / "macro.csv", tmp_path / "indices.csv"
        _write_macro_csv(macro, sim.macro)
        write_csv(indices, INDEX_COLUMNS, [
            (v.country, v.season, v.name, 0.4 if v.country == "C3" else v.value)
            for v in sim.indices
        ])
        out = tmp_path / "fit"
        assert run(
            "fit", "--macro", macro, "--indices", indices, "--index", "sdc_ki",
            "--iterate-sur", "--out-dir", out,
        ) == 0
        with open(out / "fit_sdc_ki_coefficients.csv", newline="") as fh:
            rows = {r["term"]: r for r in csv.DictReader(fh)}
        coef, se = float(rows["ln_cb_lag1"]["coef"]), float(rows["ln_cb_lag1"]["se_robust"])
        assert abs(coef - (-0.6)) < 3.0 * se

    @pytest.mark.parametrize("degree", [1, 3])
    def test_longrun_summary_follows_trend_degree(self, small_dataset, tmp_path, degree):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trend_degree": degree}))
        out = tmp_path / "fit"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--league", small_dataset["league"],
            "--config", cfg, "--index", "scr_ki", "--out-dir", out,
        ) == 0
        trend = ["t", "t2", "t3"][:degree]
        with open(out / "longrun_summary.csv", newline="") as fh:
            (summary,) = list(csv.DictReader(fh))
        expected = ["index"]
        for var in ["cb", "pop", "rgni", "un", *trend, "d97"]:
            expected += [var, f"{var}_stars"]
        assert list(summary) == expected
        with open(out / "fit_scr_ki_longrun.csv", newline="") as fh:
            longrun = {r["variable"]: r for r in csv.DictReader(fh)}
        for var in trend:
            assert summary[var] == longrun[var]["elasticity"]
            assert summary[f"{var}_stars"] == longrun[var]["stars"]

    def test_macro_seasons_before_the_league_are_ignored(self, small_dataset, tmp_path):
        # BBB's league starts a season after its macro rows do
        lines = Path(small_dataset["league"]).read_text().splitlines(keepends=True)
        league = tmp_path / "league.csv"
        league.write_text("".join(l for l in lines if not l.startswith("BBB,1980,")))
        lines = Path(small_dataset["macro"]).read_text().splitlines(keepends=True)
        short = tmp_path / "macro.csv"
        short.write_text("".join(l for l in lines if not l.startswith("BBB,1980,")))
        trees = []
        for command, macro in [("fit", short), ("fit", small_dataset["macro"]),
                               ("report", small_dataset["macro"])]:
            out = tmp_path / f"{command}-{len(trees)}"
            assert run(
                command, "--macro", macro, "--league", league, "--index", "sdc_ki",
                "--iterate-sur", "--out-dir", out,
            ) == 0
            trees.append({k: v for k, v in tree_bytes(out).items() if k.startswith("fit_")})
        assert len(trees[0]) == 4
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize(
        "first, notes",
        [
            (1995, {
                "jarque_bera[CCC]":
                    "residuals for CCC: need at least 8 residuals for Jarque-Bera, got 7",
            }),
            (1997, {
                "resid_adf_fisher_constant": "residuals for CCC: series of length 5 too short "
                                             "for the ADF test, need at least 6",
                "resid_adf_fisher_trend": "residuals for CCC: series of length 5 too short "
                                          "for the ADF test, need at least 7",
                "jarque_bera[CCC]":
                    "residuals for CCC: need at least 8 residuals for Jarque-Bera, got 5",
            }),
        ],
        ids=["jarque_bera", "residual_adf"],
    )
    def test_short_residual_series_names_its_country(
        self, small_dataset, tmp_path, capsys, first, notes
    ):
        # a diagnostic that cannot be computed leaves its row empty, names
        # the reason in its note and keeps the fit
        macro = macro_cut(small_dataset, tmp_path, first)
        out = tmp_path / "o"
        assert run(
            "fit", "--macro", macro, "--league", small_dataset["league"], "--index", "sdc_ki",
            "--iterate-sur", "--out-dir", out,
        ) == 0
        assert "error" not in capsys.readouterr().err
        with open(out / "fit_sdc_ki_diagnostics.csv", newline="") as fh:
            rows = {r["name"]: r for r in csv.DictReader(fh)}
        assert {"jarque_bera[AAA]", "jarque_bera[BBB]", "jarque_bera[CCC]"} <= set(rows)
        for name, row in rows.items():
            if name in notes:
                assert (row["statistic"], row["df"], row["p_value"]) == ("", "", "")
                assert row["note"] == notes[name]
            else:
                assert row["statistic"] != "", name
        for name in ("fit_sdc_ki_coefficients.csv", "fit_sdc_ki_longrun.csv",
                     "longrun_summary.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_covariance_repair_warns_once_per_fit(self, small_dataset, tmp_path):
        # with CCC's rows from 1995 on, the pairwise covariance is floored
        # on many GLS passes of the one fit
        macro = macro_cut(small_dataset, tmp_path, 1995)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(
                "fit", "--macro", macro, "--league", small_dataset["league"],
                "--index", "sdc_ki", "--iterate-sur", "--out-dir", tmp_path / "o",
            )
        repaired = [
            str(w.message) for w in caught
            if str(w.message).startswith("cross-country covariance repaired")
        ]
        assert len(repaired) == 1
        assert " of 100 GLS passes: eigenvalues floored at 1e-10 (smallest was " in repaired[0]

    def test_index_country_without_macro_rows_is_named(self, tmp_path):
        root = tmp_path / "dgp"
        assert run("simulate-dgp", "--n-seasons", 45, "--out-dir", root) == 0
        header, *rows = (root / "macro.csv").read_text().splitlines(keepends=True)
        macro = tmp_path / "macro.csv"
        macro.write_text(header + "".join(r for r in rows if not r.startswith("C8,")))
        header, *rows = (root / "indices.csv").read_text().splitlines(keepends=True)
        indices = tmp_path / "indices.csv"
        indices.write_text(header + "".join(r for r in rows if not r.startswith("C8,")))
        args = ("--index", "sdc_ki", "--iterate-sur", "--macro", macro)
        with pytest.warns(UserWarning, match=r"index 'sdc_ki' has values for C8 but the macro"):
            assert run("fit", *args, "--indices", root / "indices.csv", "--out-dir", tmp_path / "a") == 0
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="index .* has values for")
            assert run("fit", *args, "--indices", indices, "--out-dir", tmp_path / "b") == 0
        trees = [tree_bytes(tmp_path / d) for d in "ab"]
        for tree in trees:
            del tree["manifest.json"]
        assert trees[0] == trees[1]

    def test_index_country_is_read_stripped(self, small_dataset, tmp_path):
        assert run("indices", "--league", small_dataset["league"], "--out-dir", tmp_path) == 0
        header, *rows = (tmp_path / "indices.csv").read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(header + "".join(" " + r for r in rows))
        args = ("fit", "--macro", small_dataset["macro"], "--index", "sdc_ki", "--iterate-sur")
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="index .* has values for")
            assert run(*args, "--indices", tmp_path / "indices.csv", "--out-dir", tmp_path / "a") == 0
            assert run(*args, "--indices", spaced, "--out-dir", tmp_path / "b") == 0
        trees = [tree_bytes(tmp_path / d) for d in "ab"]
        for tree in trees:
            del tree["manifest.json"]
        assert trees[0] == trees[1]

    def test_fit_composes_with_indices_command(self, small_dataset, tmp_path):
        idx_out = tmp_path / "idx"
        assert run(
            "indices", "--league", small_dataset["league"], "--out-dir", idx_out,
        ) == 0
        direct = tmp_path / "direct"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--league", small_dataset["league"],
            "--index", "namsi", "--out-dir", direct,
        ) == 0
        via_csv = tmp_path / "via_csv"
        assert run(
            "fit", "--macro", small_dataset["macro"], "--indices", idx_out / "indices.csv",
            "--index", "namsi", "--out-dir", via_csv,
        ) == 0
        assert read_bytes(direct / "fit_namsi_coefficients.csv") == read_bytes(
            via_csv / "fit_namsi_coefficients.csv"
        )


class TestEffectsCommand:
    def test_effects_table(self, small_dataset, tmp_path):
        idx_out = tmp_path / "idx"
        run(
            "indices", "--league", small_dataset["league"], "--out-dir", idx_out,
        )
        out = tmp_path / "eff"
        assert run(
            "effects", "--indices", idx_out / "indices.csv", "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.142", "--out-dir", out,
        ) == 0
        with open(out / "effects.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["country"] for r in rows} == {"AAA", "BBB", "CCC"}
        for r in rows:
            assert float(r["best_value"]) <= float(r["worst_value"])
            expected = (
                1.142
                * (float(r["worst_value"]) - float(r["best_value"]))
                / float(r["worst_value"])
                * float(r["avg_attendance"])
            )
            assert float(r["fans_per_game"]) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_elasticity_is_input_error(self, small_dataset, tmp_path, capsys, value):
        idx_out = tmp_path / "idx"
        run("indices", "--league", small_dataset["league"], "--out-dir", idx_out)
        out = tmp_path / "eff"
        assert run(
            "effects", "--indices", idx_out / "indices.csv", "--macro", small_dataset["macro"],
            "--index", "scr_ki", f"--elasticity={value}", "--out-dir", out,
        ) == 2
        assert "input error: elasticity must be finite" in capsys.readouterr().err
        assert not (out / "effects.csv").exists()

    def test_effect_past_the_float_range_is_input_error(self, small_dataset, tmp_path, capsys):
        indices = tmp_path / "i.csv"
        indices.write_text("country,season,index,value\nAAA,1990,scr_ki,0.4\nAAA,1991,scr_ki,0.6\n")
        out = tmp_path / "eff"
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "1e308", "--out-dir", out,
        ) == 2
        assert "input error: effect of elasticity 1e+308 on attendance" in capsys.readouterr().err
        assert not (out / "effects.csv").exists()

    def test_missing_attendance_is_input_error(self, small_dataset, tmp_path):
        indices = tmp_path / "i.csv"
        indices.write_text(
            "country,season,index,value\nZZZ,1990,scr_ki,0.4\nZZZ,1991,scr_ki,0.6\n"
        )
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2

    def test_avg_attendance_is_the_mean_of_every_macro_row(self, small_dataset, tmp_path):
        # AAA's index covers 1990-1995; its average attendance is taken over
        # all of its macro rows, 1980-2003
        indices = tmp_path / "i.csv"
        indices.write_text(
            "country,season,index,value\n"
            + "".join(f"AAA,{s},scr_ki,{0.3 + 0.01 * (s - 1990)}\n" for s in range(1990, 1996))
        )
        out = tmp_path / "o"
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", out,
        ) == 0
        with open(small_dataset["macro"], newline="") as fh:
            att = {
                int(r["season"]): float(r["attendance_avg"])
                for r in csv.DictReader(fh) if r["country"] == "AAA"
            }
        with open(out / "effects.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert len(att) == 24
        covered = sum(att[s] for s in range(1990, 1996)) / 6
        assert float(row["avg_attendance"]) == pytest.approx(sum(att.values()) / 24, rel=1e-11)
        assert float(row["avg_attendance"]) != pytest.approx(covered, rel=1e-3)


    def test_duplicate_index_row_is_input_error(self, small_dataset, tmp_path, capsys):
        indices = tmp_path / "i.csv"
        indices.write_text(
            "country,season,index,value\nAAA,1990,scr_ki,0.4\nAAA,1991,scr_ki,0.6\n"
            "AAA,1990,scr_ki,0.999\n"
        )
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2
        err = capsys.readouterr().err
        assert f"{indices}:4: duplicate (country, season, index)" in err

    @pytest.mark.parametrize("value", ["nan", "1.5", "abc"])
    def test_duplicate_is_reported_before_a_bad_value(self, small_dataset, tmp_path, capsys, value):
        indices = tmp_path / "i.csv"
        indices.write_text(
            "country,season,index,value\nAAA,1990,scr_ki,0.4\nAAA,1991,scr_ki,0.6\n"
            f"AAA,1990,scr_ki,{value}\n"
        )
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2
        assert (
            f"input error: {indices}:4: "
            "duplicate (country, season, index) ('AAA', 1990, 'scr_ki')\n"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            (",1991,scr_ki,0.6", "empty country"),
            ("AAA,1991,foo,0.6", "unknown index name 'foo'"),
            ("AAA,1991,scr_ki,1.5", "out of [0, 1]"),
            ("AAA,1991,dn1,1.5", "out of [0, 1]"),  # rows of other indices are checked too
            ("AAA,1991,scr_ki,-0.25", "scr_ki for (AAA, 1991) out of [0, 1]: -0.25"),
            ("AAA,x1991,scr_ki,0.6", "season is not an integer: 'x1991'"),
            ("AAA,1991.0,scr_ki,0.6", "season is not an integer: '1991.0'"),
            ("AAA,1991,scr_ki,abc", "value is not a number: 'abc'"),
            ("AAA,1991,scr_ki,", "value is not a number: ''"),
            ("AAA,1991,scr_ki,nan", "value is not finite: 'nan'"),
            ("AAA,1991,scr_ki,inf", "value is not finite: 'inf'"),
            ("AAA,1991,scr_ki,-inf", "value is not finite: '-inf'"),
            # the country is checked first, the season before the value, the
            # value before the name
            (" ,x1991,scr_ki,nan", "empty country"),
            ("AAA,x1991,scr_ki,nan", "season is not an integer: 'x1991'"),
            ("AAA,1991,foo,nan", "value is not finite: 'nan'"),
            ("AAA,1991,foo,1.5", "unknown index name 'foo'"),
        ],
    )
    def test_rejected_index_value_names_its_line(self, small_dataset, tmp_path, capsys, row, message):
        indices = tmp_path / "i.csv"
        indices.write_text(f"country,season,index,value\nAAA,1990,scr_ki,0.4\n{row}\n")
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2
        err = capsys.readouterr().err
        assert f"input error: {indices}:3: " in err and message in err


    @pytest.mark.parametrize(
        "row, count",
        [("AAA,1991,scr_ki,0.6,x", 5), ("AAA,1991,scr_ki", 3)],
    )
    def test_field_count_is_input_error(self, small_dataset, tmp_path, capsys, row, count):
        indices = tmp_path / "i.csv"
        indices.write_text(f"country,season,index,value\nAAA,1990,scr_ki,0.4\n{row}\n")
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2
        assert f"input error: {indices}:3: expected 4 fields, got {count}" in capsys.readouterr().err

    def test_header_only_file_is_input_error(self, small_dataset, tmp_path, capsys):
        indices = tmp_path / "i.csv"
        indices.write_text("country,season,index,value\n\n")
        assert run(
            "effects", "--indices", indices, "--macro", small_dataset["macro"],
            "--index", "scr_ki", "--elasticity", "-1.0", "--out-dir", tmp_path / "o",
        ) == 2
        assert f"input error: {indices}: no data rows" in capsys.readouterr().err


class TestReportCommand:
    def test_end_to_end(self, small_dataset, tmp_path):
        out = tmp_path / "rep"
        assert run(
            "report", "--league", small_dataset["league"], "--macro", small_dataset["macro"],
            "--index", "sdc_ki", "--iterate-sur", "--out-dir", out,
        ) == 0
        for name in (
            "indices.csv", "unit_root.csv", "fit_sdc_ki_longrun.csv",
            "longrun_summary.csv",
        ):
            assert (out / name).exists(), name
        assert (out / "effects_sdc_ki" / "effects.csv").exists()

    def test_manifest_lists_the_whole_run(self, small_dataset, tmp_path):
        out = tmp_path / "rep"
        assert run(
            "report", "--league", small_dataset["league"], "--macro", small_dataset["macro"],
            "--index", "sdc_ki", "--out-dir", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["inputs"] == {
            "league": sha256_file(small_dataset["league"]),
            "macro": sha256_file(small_dataset["macro"]),
        }
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert set(manifest["artifacts"]) == files - {"manifest.json"}
        assert "effects_sdc_ki/effects.csv" in files and "unit_root.csv" in files

    @pytest.mark.parametrize("problem", ["missing", "not_utf8", "zero_attendance"])
    def test_bad_macro_writes_nothing(self, small_dataset, tmp_path, capsys, problem):
        """``--macro`` is read and checked before the index stage writes."""
        macro = tmp_path / "macro.csv"
        message = "input error: cannot read"
        if problem == "not_utf8":
            macro.write_bytes(b"country,season\n\xff\xfe,1990\n")
        elif problem == "zero_attendance":
            message = "log-domain error: non-positive attendance_avg"
            header, first, *rest = Path(small_dataset["macro"]).read_text().splitlines()
            fields = first.split(",")
            fields[2] = "0"
            macro.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        out = tmp_path / "rep"
        assert run(
            "report", "--league", small_dataset["league"], "--macro", macro, "--out-dir", out,
        ) == 2
        assert message in capsys.readouterr().err
        assert not (out / "indices.csv").exists()
        assert not (out / "g_diagnostics.csv").exists()

    def test_matches_the_single_commands(self, small_dataset, tmp_path):
        macro = small_dataset["macro"]
        out = tmp_path / "rep"
        assert run(
            "report", "--league", small_dataset["league"], "--macro", macro,
            "--index", "sdc_ki", "--out-dir", out,
        ) == 0
        fit = tmp_path / "fit"
        assert run(
            "fit", "--macro", macro, "--indices", out / "indices.csv", "--index", "sdc_ki",
            "--out-dir", fit,
        ) == 0
        for name, data in tree_bytes(fit).items():
            if name != "manifest.json":
                assert read_bytes(out / name) == data, name
        with open(fit / "fit_sdc_ki_longrun.csv", newline="") as fh:
            cb = next(r for r in csv.DictReader(fh) if r["variable"] == "cb")["elasticity"]
        effects = tmp_path / "effects"
        assert run(
            "effects", "--indices", out / "indices.csv", "--macro", macro, "--index", "sdc_ki",
            "--elasticity", cb, "--out-dir", effects,
        ) == 0
        assert tree_bytes(out / "effects_sdc_ki") == tree_bytes(effects)
        effects_manifest = json.loads((effects / "manifest.json").read_text())
        assert effects_manifest["config_hash"] == sha256_text(
            f"elasticity={float(cb)!r},index=sdc_ki"
        )

    def test_report_deterministic(self, small_dataset, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert run(
                "report", "--league", small_dataset["league"], "--macro", small_dataset["macro"],
                "--out-dir", out,
            ) == 0
            outs.append(tree_bytes(out))
        assert outs[0] == outs[1]


class TestSimulateCommand:
    def test_league_csv_round_trips(self, tmp_path):
        out = tmp_path / "sim"
        assert run(
            "simulate-league", "--n-teams", 8, "--n-seasons", 6,
            "--dispersion", "1.0", "--churn", 1, "--out-dir", out, "--seed", 8,
        ) == 0
        from leaguebalance import parse_league_csv

        leagues = parse_league_csv(str(out / "league.csv"))
        assert len(leagues) == 6
        assert all(lg.n == 8 for lg in leagues)

    @pytest.mark.parametrize("value, code", [("abc", 2), ("nan", 2), ("-1", 2), ("inf", 0)])
    def test_dispersion_is_a_number_or_inf(self, tmp_path, value, code):
        out = tmp_path / "sim"
        try:
            got = run(
                "simulate-league", "--n-teams", 6, "--n-seasons", 2,
                "--dispersion", value, "--out-dir", out,
            )
        except SystemExit as exc:  # argparse rejects a value that is no float
            got = exc.code
        assert got == code
        assert (out / "league.csv").exists() == (code == 0)

    @pytest.mark.parametrize("count", [0, -2])
    def test_dgp_without_countries_is_input_error(self, tmp_path, capsys, count):
        out = tmp_path / "dgp"
        assert run("simulate-dgp", "--n-countries", count, "--out-dir", out) == 2
        assert "input error: countries must name at least one country" in capsys.readouterr().err
        assert not (out / "macro.csv").exists() and not (out / "indices.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-league", "--n-teams", 2),
            # one more than MAX_SEASONS, and a count that would run out of memory
            ("simulate-league", "--n-seasons", 5_001),
            ("simulate-league", "--n-seasons", 10**9),
            ("simulate-dgp", "--n-countries", 0),
            # the trend would carry log attendance past exp's range
            ("simulate-dgp", "--n-seasons", 10_000),
            # one more than MAX_DGP_COUNTRIES: the error covariance is n x n
            ("simulate-dgp", "--n-countries", 1_001),
        ],
        ids=[
            "league", "league_seasons", "league_seasons_huge", "dgp", "dgp_seasons",
            "dgp_countries",
        ],
    )
    def test_rejected_parameters_create_no_out_dir(self, tmp_path, argv):
        out = tmp_path / "d"
        assert run(*argv, "--out-dir", out) == 2
        assert not out.exists()

    # sha256 of each simulated file: a changed byte anywhere changes every
    # input that is simulated from a seed
    PINNED = {
        ("simulate-league", "--n-teams", 18, "--n-seasons", 50, "--churn", 3, "--country", "C1",
         "--start-season", 1959, "--seed", 1): {
            "league.csv": "3f367d9aa9ad17c6d4e450972fe7a95777c39d701bd9b82805cc6a96f37efb33",
        },
        ("simulate-league", "--n-teams", 40, "--n-seasons", 12, "--dispersion", 0.7,
         "--churn", 5, "--seed", 7): {
            "league.csv": "4a12ff5c6cbfaf2024ebb66e530af8fd4b59a40e769f38d5495fa559b5f8f175",
        },
        ("simulate-dgp", "--seed", 1): {
            "indices.csv": "e41ea19b59f776731e2637c8370d9459aebd92b340d8f07a259f890fb15a3820",
            "macro.csv": "878f96417fcb8dc30d9caab776754fdb373ceb89ad9bfcd7e7436f3f2bfb0e46",
            "truth.json": "73b36178a39e3411019fc0d0b283e1070fd8dd7160e7e5b0444512082da42570",
        },
        ("simulate-dgp", "--n-countries", 3, "--start-season", 1970, "--n-seasons", 40,
         "--seed", 9): {
            "indices.csv": "c3628004755c232418b0e0535ce1fce79ea6a0335977d996c886d3b073e91ec3",
            "macro.csv": "c87b60e5502bcaf9b8b00f99b693f96dad68a68d01bffe0c449e3da266ca7b6b",
            "truth.json": "73b36178a39e3411019fc0d0b283e1070fd8dd7160e7e5b0444512082da42570",
        },
    }

    @pytest.mark.parametrize(
        "argv", list(PINNED), ids=["league_2_blocks", "league_3_blocks", "dgp", "dgp_short"]
    )
    def test_simulated_files_keep_their_bytes(self, tmp_path, argv):
        out = tmp_path / "sim"
        assert run(*argv, "--out-dir", out) == 0
        files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert {name: sha256_file(out / name) for name in files} == self.PINNED[argv]

    def test_dgp_honours_start_season(self, tmp_path):
        out = tmp_path / "dgp"
        assert run(
            "simulate-dgp", "--start-season", 1970, "--n-seasons", 40, "--out-dir", out,
        ) == 0
        for name in ("macro.csv", "indices.csv"):
            with open(out / name, newline="") as fh:
                seasons = {int(row["season"]) for row in csv.DictReader(fh)}
            assert seasons == set(range(1970, 2010)), name
        assert run(
            "fit", "--macro", out / "macro.csv", "--indices", out / "indices.csv",
            "--index", "sdc_ki", "--out-dir", tmp_path / "fit",
        ) == 0

    @pytest.mark.parametrize(
        "argv, first",
        [(("simulate-league",), 1990), (("simulate-dgp", "--n-countries", 1), 1959)],
        ids=["league", "dgp"],
    )
    def test_default_start_season(self, tmp_path, argv, first):
        out = tmp_path / "sim"
        assert run(*argv, "--n-seasons", 10, "--out-dir", out) == 0
        name = "league.csv" if argv[0] == "simulate-league" else "macro.csv"
        with open(out / name, newline="") as fh:
            seasons = {int(row["season"]) for row in csv.DictReader(fh)}
        assert seasons == set(range(first, first + 10))

    @pytest.mark.parametrize(
        "kind, option, value",
        [
            ("dgp", "--n-teams", 2),
            ("dgp", "--dispersion", 9),
            ("dgp", "--churn", 1),
            ("dgp", "--country", "XYZ"),
            ("league", "--n-countries", 0),
            ("league", "--n-countries", 3),
        ],
    )
    def test_option_of_the_other_kind_is_input_error(self, tmp_path, capsys, kind, option, value):
        """Each simulator's command declares only the options it reads."""
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            run(f"simulate-{kind}", option, value, "--seed", 1, "--out-dir", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-league", "--n-teams", 8, "--dispersion", 1.0, "--churn", 1,
             "--country", "XYZ"),
            ("simulate-dgp", "--n-countries", 2),
        ],
        ids=["league", "dgp"],
    )
    def test_options_of_the_own_kind_apply(self, tmp_path, argv):
        out = tmp_path / "sim"
        assert run(*argv, "--n-seasons", 10, "--start-season", 1980, "--out-dir", out) == 0
        league = argv[0] == "simulate-league"
        name = "league.csv" if league else "macro.csv"
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {int(row["season"]) for row in rows} == set(range(1980, 1990))
        countries = {row["country"] for row in rows}
        assert countries == ({"XYZ"} if league else {"C1", "C2"})

    def test_dgp_truth_file(self, tmp_path):
        out = tmp_path / "dgp"
        assert run(
            "simulate-dgp", "--n-seasons", 20, "--n-countries", 3, "--out-dir", out,
            "--seed", 9,
        ) == 0
        from leaguebalance.simulate import COEFFICIENTS, LONG_RUN, DgpParams

        truth = json.loads((out / "truth.json").read_text())
        assert truth == {"long_run": LONG_RUN, "coefficients": COEFFICIENTS}
        assert (out / "macro.csv").exists() and (out / "indices.csv").exists()
        # the manifest's hash covers the coefficients with the settable values
        params = DgpParams(countries=("C1", "C2", "C3"), n_seasons=20)
        hashed = json.dumps(dict(vars(params), coefficients=COEFFICIENTS), sort_keys=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == sha256_text(hashed)


class TestOptionsAndManifests:
    """Only the simulators draw random numbers, so only their commands take a seed."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fit", "--macro", "m.csv", "--indices", "i.csv", "--seed", 1),
             "unrecognized arguments: --seed 1"),
            (("unit-root", "--macro", "m.csv", "--config", "c.json"),
             "unrecognized arguments: --config c.json"),
            (("simulate", "--kind", "dgp"), "invalid choice: 'simulate'"),
        ],
        ids=["fit_seed", "unit_root_config", "simulate_kind"],
    )
    def test_removed_option_is_unknown(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out-dir", tmp_path / "o")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command",
        ["indices", "unit-root", "fit", "effects", "report", "simulate-league", "simulate-dgp"],
    )
    def test_manifest_names_its_command_and_seed(self, small_dataset, tmp_path, command):
        league, macro = small_dataset["league"], small_dataset["macro"]
        if command == "effects":
            assert run("indices", "--league", league, "--out-dir", tmp_path / "indices") == 0
        argv = {
            "indices": ("--league", league),
            "unit-root": ("--macro", macro),
            "fit": ("--macro", macro, "--league", league, "--index", "scr_ki"),
            "effects": ("--indices", tmp_path / "indices" / "indices.csv", "--macro", macro,
                        "--index", "scr_ki", "--elasticity", "-1.0"),
            "report": ("--league", league, "--macro", macro, "--index", "scr_ki"),
            "simulate-league": ("--n-seasons", 12, "--seed", 17),
            "simulate-dgp": ("--n-seasons", 12, "--n-countries", 2, "--seed", 17),
        }[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        seed = 17 if command.startswith("simulate-") else None
        assert (manifest["command"], manifest["seed"]) == (command, seed)
        if command == "report":
            effects = json.loads((out / "effects_scr_ki" / "manifest.json").read_text())
            assert (effects["command"], effects["seed"]) == ("effects", None)
        if command == "unit-root":
            assert manifest["config_hash"] == sha256_text("default")

    @pytest.mark.parametrize("command", ["simulate-league", "simulate-dgp"])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            run(command, "--seed", -1, "--out-dir", out)
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option",
        [
            ("indices", "--league"),
            ("indices", "--config"),
            ("unit-root", "--macro"),
            ("fit", "--macro"),
            ("fit", "--indices"),
            ("fit", "--league"),
            ("fit", "--config"),
            ("effects", "--indices"),
            ("effects", "--macro"),
            ("report", "--league"),
            ("report", "--macro"),
            ("report", "--config"),
        ],
    )
    @pytest.mark.parametrize("problem", ["missing", "directory", "not_utf8"])
    def test_unreadable_input_is_a_typed_error(
        self, small_dataset, tmp_path, capsys, command, option, problem
    ):
        """A file that cannot be read is an input error (exit 2), or a
        config error (exit 4) for ``--config``, never a traceback."""
        bad = tmp_path / "bad"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not_utf8":
            bad.write_bytes(b"country,season\n\xff\xfe,1990\n")
        indices = tmp_path / "indices.csv"
        indices.write_text("country,season,index,value\nAAA,1990,sdc_ki,0.5\n")
        inputs = {
            "--league": small_dataset["league"], "--macro": small_dataset["macro"],
            "--indices": indices,
        }
        options = {
            "indices": ("--league",),
            "unit-root": ("--macro",),
            "fit": ("--macro", "--league" if option == "--league" else "--indices"),
            "effects": ("--indices", "--macro"),
            "report": ("--league", "--macro"),
        }[command]
        argv = [a for name in options for a in (name, bad if name == option else inputs[name])]
        if option == "--config":
            argv += ["--config", bad]
        if command == "effects":
            argv += ["--elasticity", "-1.0"]
        code, message = (
            (4, "config error: cannot read config") if option == "--config"
            else (2, "input error: cannot read")
        )
        assert run(command, *argv, "--out-dir", tmp_path / "o") == code
        assert f"{message} {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option", [("indices", "--league"), ("unit-root", "--macro"), ("fit", "--indices")]
    )
    def test_oversized_field_is_a_typed_error(
        self, small_dataset, tmp_path, capsys, command, option
    ):
        """A field longer than the csv module's limit is an input error
        naming its line, never a traceback."""
        header = {
            "--league": LEAGUE_COLUMNS, "--macro": MACRO_COLUMNS, "--indices": INDEX_COLUMNS,
        }[option]
        big = tmp_path / "big.csv"
        big.write_text(",".join(header) + "\n" + "A" * 200_000 + ",1" * (len(header) - 1) + "\n")
        argv = [option, big]
        if command == "fit":
            argv += ["--macro", small_dataset["macro"], "--index", "sdc_ki"]
        assert run(command, *argv, "--out-dir", tmp_path / "o") == 2
        assert (
            f"input error: {big}:2: field larger than field limit" in capsys.readouterr().err
        )

    @pytest.mark.parametrize("kind", ["league", "dgp"])
    def test_simulate_default_season_count_is_the_simulators(self, tmp_path, kind):
        from leaguebalance.simulate import DgpParams, LeagueSimParams

        out = tmp_path / kind
        countries = ("--n-countries", 1) if kind == "dgp" else ()
        assert run(f"simulate-{kind}", *countries, "--out-dir", out) == 0
        name = "league.csv" if kind == "league" else "macro.csv"
        with open(out / name, newline="") as fh:
            seasons = {int(row["season"]) for row in csv.DictReader(fh)}
        params = LeagueSimParams if kind == "league" else DgpParams
        assert len(seasons) == params.n_seasons


class TestD97Cut:
    """d97 needs design seasons on both sides of its cut after 1997."""

    @pytest.mark.parametrize(
        "start, message",
        [
            (1959, "the design's seasons 1961-1978 all lie in or before 1997"),
            (1998, "the design's seasons 2000-2017 all lie after 1997"),
        ],
        ids=["before", "after"],
    )
    def test_constant_d97_is_input_error(self, tmp_path, capsys, start, message):
        sim = tmp_path / "sim"
        assert run(
            "simulate-dgp", "--start-season", start, "--n-seasons", 20,
            "--n-countries", 3, "--seed", 1, "--out-dir", sim,
        ) == 0
        argv = ("fit", "--macro", sim / "macro.csv", "--indices", sim / "indices.csv",
                "--index", "sdc_ki")
        capsys.readouterr()
        assert run(*argv, "--out-dir", tmp_path / "fit") == 2
        assert capsys.readouterr().err == (
            f"input error: d97 is constant: {message}, where d97 cuts; "
            "leave d97 out (--no-d97)\n"
        )
        assert not (tmp_path / "fit").exists()
        assert run(*argv, "--no-d97", "--out-dir", tmp_path / "no_d97") == 0
        assert (tmp_path / "no_d97" / "fit_sdc_ki_coefficients.csv").exists()


class TestFreshProcess:
    """Commands as the console script runs them: a fresh interpreter whose
    import of the CLI froze the collector's generations, leaving through
    ``sys.exit(main())``."""

    ENTRY = "import sys; from leaguebalance.cli import main; sys.exit(main())"
    SRC = str(Path(leaguebalance.__file__).resolve().parent.parent)

    def run_fresh(self, *argv) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", self.ENTRY, *map(str, argv)],
            env=env, capture_output=True, text=True,
        )

    @pytest.fixture
    def indices(self, small_dataset, tmp_path):
        out = tmp_path / "idx"
        assert run("indices", "--league", small_dataset["league"], "--out-dir", out) == 0
        return out / "indices.csv"

    def test_fit_writes_the_tree_of_an_in_process_run(self, small_dataset, indices, tmp_path):
        argv = (
            "fit", "--macro", small_dataset["macro"], "--indices", indices,
            "--index", "sdc_ki", "--iterate-sur",
        )
        fresh = self.run_fresh(*argv, "--out-dir", tmp_path / "fresh")
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout == "fitted 1 model(s): sdc_ki\n"
        assert run(*argv, "--out-dir", tmp_path / "in_process") == 0
        assert len(tree_bytes(tmp_path / "fresh")) == 7
        assert tree_bytes(tmp_path / "fresh") == tree_bytes(tmp_path / "in_process")

    def test_exact_zero_index_exits_2(self, small_dataset, indices, tmp_path):
        with open(indices, newline="") as fh:
            rows = list(csv.reader(fh))
        first = next(i for i, row in enumerate(rows) if row[2] == "sdc_ki")
        rows[first][3] = "0.0"
        zero = tmp_path / "zero.csv"
        with open(zero, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        fresh = self.run_fresh(
            "fit", "--macro", small_dataset["macro"], "--indices", zero, "--index", "sdc_ki",
            "--out-dir", tmp_path / "fit",
        )
        assert fresh.returncode == 2
        assert fresh.stdout == ""
        assert fresh.stderr.startswith("input error: log-domain error: index 'sdc_ki' is 0.0 for (")


def loaded_modules(prefix: str) -> list[str]:
    """Modules starting with ``prefix`` that a fresh ``import leaguebalance.cli`` loads."""
    code = (
        "import json, sys, leaguebalance.cli; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def test_cli_import_loads_no_scipy():
    assert loaded_modules("scipy") == []


def test_cli_import_loads_no_simulators():
    assert "leaguebalance.simulate" not in loaded_modules("leaguebalance")
    assert "leaguebalance.econometrics" in loaded_modules("leaguebalance")
