"""Command-line driver: indices, unit-root, fit, effects, simulate-league,
simulate-dgp, report.

Only the two simulators draw random numbers, so only ``simulate-league`` and
``simulate-dgp`` take ``--seed``; every other command's manifest records
``"seed": null``.

Exit codes: 0 success, 2 input or schema error, 3 numerical failure,
4 configuration error, 5 some index fits failed: the others are written, and
the failed indices are named on one stderr line and in fit_status.csv.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .catalog import ALL_INDEX_NAMES, IndexValue, index_values as checked_values
from .econometrics import (
    LongRunEffect,
    RegressionSpec,
    adf_test,
    attendance_effect,
    breusch_pagan_lm,
    build_adl_design,
    durbin_watson_panel,
    fisher_panel_unit_root,
    jarque_bera,
    long_run_effects,
    ramsey_reset,
    sur_egls_fit,
    white_cross_section_cov,
)
from .econometrics.design import COVARIATES, trend_columns
from .econometrics.tails import two_sided_normal
from .errors import ConfigError, InputError, LeagueBalanceError, NumericalError
from .manifest import sha256_file, sha256_text, write_manifest
from .panel import (
    INDEX_COLUMNS,
    LEAGUE_COLUMNS,
    MACRO_COLUMNS,
    Config,
    build_panel,
    parse_index_csv,
    parse_league_csv,
    parse_macro_csv,
)
from .pipeline import compute_all_indices, series_from_values
from .reports import fmt, stars, write_csv, write_text_table

# The objects imported above live until the process exits.  Frozen, they
# leave the collector's generations, so the full collections at interpreter
# exit, and any during a run, no longer traverse them; on a 2-vCPU host that
# was 29 ms of a 265 ms fit.  Objects made later are collected as before,
# and every artifact is written and closed before ``main`` returns, so no
# output depends on when a collection runs.
gc.freeze()

PANEL_VARIABLES = ("ln_att", "ln_pop", "ln_rgni", "ln_un")


def _load_config(args) -> tuple[Config, str]:
    if args.config:
        return Config.from_json(args.config), sha256_file(args.config)
    return Config(), sha256_text("default")


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _index_names(arg: str) -> list[str]:
    if arg == "all":
        return list(ALL_INDEX_NAMES)
    if arg not in ALL_INDEX_NAMES:
        raise InputError(f"unknown index {arg!r}; choose one of {', '.join(ALL_INDEX_NAMES)} or all")
    return [arg]


# ---------------------------------------------------------------- indices


def _indices(league_path, config: Config, out_dir) -> tuple[list[IndexValue], list[str]]:
    """All indices of a league CSV, written to indices.csv and g_diagnostics.csv."""
    leagues = parse_league_csv(league_path, config)
    values, diags = compute_all_indices(leagues, config)
    out = _out_dir(out_dir)
    artifacts = [
        write_csv(
            out / "indices.csv",
            INDEX_COLUMNS,
            [(v.country, v.season, v.name, v.value) for v in values],
        ),
        write_csv(
            out / "g_diagnostics.csv",
            ("country", "season", "E_hat"),
            [(d.country, d.season, d.e_hat) for d in diags],
        ),
    ]
    return values, artifacts


def cmd_indices(args) -> int:
    config, config_hash = _load_config(args)
    values, artifacts = _indices(args.league, config, args.out_dir)
    inputs = {"league": sha256_file(args.league)}
    write_manifest(args.out_dir, "indices", inputs, config_hash, artifacts)
    print(f"wrote {len(values)} index values for {len(set(v.country for v in values))} countries")
    return 0


# ---------------------------------------------------------------- unit root


def _adf_fisher(label: str, series: dict[str, np.ndarray], case: str, max_lag=None):
    """ADF test of each country's series, in ``series`` order, and their
    Fisher combination; returns the combined test and the chosen lags.  A
    failure keeps its type and names the series and the country."""
    results = []
    for country, y in series.items():
        try:
            results.append(adf_test(y, case, max_lag))
        except LeagueBalanceError as exc:
            raise type(exc)(f"{label} for {country}: {exc}") from None
    return fisher_panel_unit_root([r.p_value for r in results]), [r.lag for r in results]


def _unit_root(panel, max_lag, out_dir) -> list[str]:
    """ADF-Fisher tests of the panel variables, written to unit_root.csv and .txt."""
    if max_lag is not None and max_lag < 0:  # the option's fault, not a series'
        raise InputError(f"max_lag must be >= 0, got {max_lag}")
    rows = []
    for variable in PANEL_VARIABLES:
        grid = getattr(panel, variable)
        series = {c: grid[panel.present[:, j], j] for j, c in enumerate(panel.countries)}
        for case in ("c", "ct"):
            combined, lags = _adf_fisher(variable, series, case, max_lag)
            rows.append(
                (
                    variable,
                    {"c": "constant", "ct": "constant+trend"}[case],
                    combined.statistic,
                    combined.df,
                    combined.p_value,
                    stars(combined.p_value),
                    f"{min(lags)}-{max(lags)}",
                )
            )
    out = _out_dir(out_dir)
    header = ("variable", "case", "fisher_stat", "df", "p_value", "stars", "lags")
    return [
        write_csv(out / "unit_root.csv", header, rows),
        write_text_table(
            out / "unit_root.txt",
            "ADF-Fisher panel unit root tests",
            header,
            rows,
            footer="lag length per country chosen by the Schwarz information criterion",
        ),
    ]


def cmd_unit_root(args) -> int:
    panel = build_panel(parse_macro_csv(args.macro))
    artifacts = _unit_root(panel, args.max_lag, args.out_dir)
    inputs = {"macro": sha256_file(args.macro)}
    # no Config key touches an ADF test
    write_manifest(args.out_dir, "unit-root", inputs, sha256_text("default"), artifacts)
    print("wrote unit-root report")
    return 0


# ---------------------------------------------------------------- fit


def _diagnostic(label: str, compute) -> tuple:
    """The diagnostics row of the test that ``compute()`` returns or, when a
    typed error stops it, an empty row whose note is the error."""
    try:
        test = compute()
    except LeagueBalanceError as exc:
        return (label, "", "", "", str(exc))
    df = ";".join(map(str, test.df)) if isinstance(test.df, tuple) else test.df
    return (label, test.statistic, "" if df is None else df, test.p_value, test.note)


def _fit_index(panel, index_values, spec: RegressionSpec, iterate: bool, out_dir):
    """Fit one index's model, then write its four ``fit_<index>_*`` files;
    returns the long-run effects and the files.  No file before the fit."""
    tag = spec.index_name
    series = series_from_values(index_values, tag)
    if not series:
        raise InputError(f"no values for index {tag!r}")
    design = build_adl_design(panel, series, spec)
    fit = sur_egls_fit(design, iterate=iterate)
    cov_robust = white_cross_section_cov(fit)
    effects = long_run_effects(fit, spec, cov_robust)

    # Each diagnostic is computed on its own, so one that cannot be computed
    # costs its row, not the fit.  The lambdas look the tests up in this
    # module's globals when they run.
    resid = fit.residual_series()  # the design's countries, sorted
    diag_rows = [
        _diagnostic("durbin_watson", lambda: durbin_watson_panel(fit)),
        _diagnostic("lm_sur", lambda: breusch_pagan_lm(fit)),
        _diagnostic("ramsey_reset", lambda: ramsey_reset(fit)),
    ]
    for case, label in (("c", "resid_adf_fisher_constant"), ("ct", "resid_adf_fisher_trend")):
        diag_rows.append(_diagnostic(label, lambda: _adf_fisher("residuals", resid, case)[0]))
    for country, e in resid.items():
        diag_rows.append(
            _diagnostic(f"jarque_bera[{country}]", lambda: jarque_bera({country: e})[country])
        )
    diag_rows.append(("r2_adj", fit.r2_adj, "", "", ""))
    diag_rows.append(("iterations", fit.iterations, "", "", ""))
    diag_rows.append(("converged", fit.converged, "", "", ""))
    diag_rows.append(("final_delta", fit.final_delta, "", "", ""))

    coef_rows = []
    for i, term in enumerate(fit.design.columns):
        se_c = math.sqrt(fit.cov[i, i])
        se_r = math.sqrt(cov_robust[i, i])
        z = fit.beta[i] / se_r if se_r > 0 else float("inf")
        p = two_sided_normal(z)
        coef_rows.append((term, float(fit.beta[i]), se_c, se_r, z, p, stars(p)))
    out = _out_dir(out_dir)
    return effects, [
        write_csv(
            out / f"fit_{tag}_coefficients.csv",
            ("term", "coef", "se_classical", "se_robust", "z", "p_value", "stars"),
            coef_rows,
        ),
        write_csv(
            out / f"fit_{tag}_longrun.csv",
            ("variable", "elasticity", "se", "z", "p_value", "stars"),
            [(e.variable, e.estimate, e.se, e.z, e.p_value, stars(e.p_value)) for e in effects],
        ),
        write_csv(
            out / f"fit_{tag}_diagnostics.csv",
            ("name", "statistic", "df", "p_value", "note"),
            diag_rows,
        ),
        write_text_table(
            out / f"fit_{tag}.txt",
            f"EGLS system fit, index {tag} (N={fit.design.nobs}, "
            f"adj. R2={fmt(fit.r2_adj)}, iterations={fit.iterations})",
            ("term", "coef", "se_robust", "stars"),
            [(term, coef, se_r, star) for term, coef, _, se_r, _, _, star in coef_rows],
            footer="robust standard errors clustered by year",
        ),
    ]


def _quantised(values: list[IndexValue]) -> list[IndexValue]:
    """Index values at the CSV precision, so fitting from files is identical."""
    rows = [(v.name, v.country, v.season, float(fmt(v.value))) for v in values]
    return checked_values(*zip(*rows)) if rows else []


def _fit(panel, index_values, names: list[str], args, config: Config, out_dir, effects_of=None):
    """Fit the indices in ``names`` one at a time: each is fitted, its files
    written and, for ``report``, its effects written by ``effects_of(name,
    effects)`` before the next starts, and a typed error fails its index
    alone.  Writes the long-run summary of the fitted indices and, when some
    failed, fit_status.csv; returns the artifacts and the failed names.
    When every index fails, the first failure is raised."""
    summary_vars = [*COVARIATES, *trend_columns(config.trend_degree), "d97"]
    artifacts, summary_rows, status, failures = [], [], [], []
    for name in names:
        spec = RegressionSpec(
            index_name=name,
            adl_order=args.adl_order,
            trend_degree=config.trend_degree,
            include_d97=not args.no_d97,
        )
        try:
            effects, files = _fit_index(panel, index_values, spec, args.iterate_sur, out_dir)
            artifacts += files
            if effects_of is not None:
                artifacts += effects_of(name, effects)
        except LeagueBalanceError as exc:
            failures.append(exc)
            status.append((name, "failed", type(exc).__name__, str(exc)))
            continue
        status.append((name, "fitted", "", ""))
        by_var = {e.variable: e for e in effects}
        row = [name]
        for var in summary_vars:
            e = by_var.get(var)
            row += [e.estimate, stars(e.p_value)] if e else ["", ""]
        summary_rows.append(row)
    if len(failures) == len(names):
        raise failures[0]

    out = Path(out_dir)
    summary_header = ["index"]
    for var in summary_vars:
        summary_header += [var, f"{var}_stars"]
    artifacts.append(write_csv(out / "longrun_summary.csv", summary_header, summary_rows))
    artifacts.append(
        write_text_table(
            out / "longrun_summary.txt",
            "Long-run elasticities by index model",
            summary_header,
            summary_rows,
            footer="* p<0.1, ** p<0.05, *** p<0.01 (robust, delta method)",
        )
    )
    if failures:
        header = ("index", "status", "error", "message")
        artifacts.append(write_csv(out / "fit_status.csv", header, status))
    return artifacts, [row[0] for row in status if row[1] == "failed"]


def _exit_code(failed: list[str]) -> int:
    """0, or 5 with one stderr line when some indices could not be fitted."""
    if not failed:
        return 0
    print(f"fit failed for {', '.join(failed)}; see fit_status.csv", file=sys.stderr)
    return 5


def cmd_fit(args) -> int:
    config, config_hash = _load_config(args)
    names = _index_names(args.index)
    macro = parse_macro_csv(args.macro)
    inputs = {"macro": sha256_file(args.macro)}

    if args.indices is not None:
        index_values = parse_index_csv(args.indices, names)
        inputs["indices"] = sha256_file(args.indices)
        if args.index == "all":  # the indices the file holds
            held = {v.name for v in index_values}
            names = [name for name in names if name in held]
    else:
        leagues = parse_league_csv(args.league, config)
        inputs["league"] = sha256_file(args.league)
        index_values, _ = compute_all_indices(leagues, config, names=names)
        index_values = _quantised(index_values)

    panel = build_panel(macro)
    artifacts, failed = _fit(panel, index_values, names, args, config, args.out_dir)
    write_manifest(args.out_dir, "fit", inputs, config_hash, artifacts)
    fitted = [name for name in names if name not in failed]
    print(f"fitted {len(fitted)} model(s): {', '.join(fitted)}")
    return _exit_code(failed)


# ---------------------------------------------------------------- effects


def _effects(index_values, macro, index: str, elasticity: float, out_dir, inputs) -> list[str]:
    """Best-vs-worst season effects of one index, written with their own manifest."""
    series = series_from_values(index_values, index)
    if not series:
        raise InputError(f"no values for index {index!r}")
    att: dict[str, list[float]] = {}
    for obs in macro:
        att.setdefault(obs.country, []).append(obs.attendance_per_game)
    rows = []
    for country in sorted({c for c, _ in series}):
        if country not in att:
            raise InputError(f"no attendance data for {country}")
        values = {season: v for (c, season), v in series.items() if c == country}
        best_season = min(values, key=lambda s: (values[s], s))
        worst_season = max(values, key=lambda s: (values[s], -s))
        avg = float(np.mean(att[country]))
        effect = attendance_effect(elasticity, values[best_season], values[worst_season], avg)
        rows.append(
            (
                country,
                best_season,
                values[best_season],
                worst_season,
                values[worst_season],
                avg,
                effect.percent,
                effect.fans_per_game,
            )
        )
    out = _out_dir(out_dir)
    header = (
        "country", "best_season", "best_value", "worst_season", "worst_value",
        "avg_attendance", "percent", "fans_per_game",
    )
    artifacts = [
        write_csv(out / "effects.csv", header, rows),
        write_text_table(
            out / "effects.txt",
            f"Attendance effect of best-vs-worst balance ({index}, "
            f"elasticity {fmt(elasticity)})",
            header,
            rows,
        ),
    ]
    config_hash = sha256_text(f"elasticity={elasticity!r},index={index}")
    artifacts.append(write_manifest(out, "effects", inputs, config_hash, artifacts))
    return artifacts


def cmd_effects(args) -> int:
    index_values = parse_index_csv(args.indices, [args.index])
    macro = parse_macro_csv(args.macro)
    inputs = {"indices": sha256_file(args.indices), "macro": sha256_file(args.macro)}
    _effects(index_values, macro, args.index, args.elasticity, args.out_dir, inputs)
    print(f"wrote effects of {args.index} to {args.out_dir}")
    return 0


# ---------------------------------------------------------------- simulate


def _write_league_csv(path, leagues) -> str:
    rows = []
    for lg in leagues:
        for rec in lg.records:
            rows.append(
                (lg.country, lg.season, rec.team, rec.rank, rec.wins, rec.draws,
                 rec.losses, rec.points)
            )
    return write_csv(path, LEAGUE_COLUMNS, rows)


def _write_macro_csv(path, macro) -> str:
    return write_csv(
        path,
        MACRO_COLUMNS,
        [
            (m.country, m.season, m.attendance_per_game, m.population, m.rgni, m.unemployment)
            for m in macro
        ],
    )


def _given(args, names: tuple[str, ...]) -> dict:
    """The options in ``names`` that the command line gave; the simulator's
    own defaults stand for the others."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_simulate_league(args) -> int:
    # imported here: the simulators serve the simulate commands only
    from .simulate import LeagueSimParams, simulate_league

    given = _given(args, ("n_teams", "n_seasons", "dispersion", "churn", "country", "start_season"))
    # the prize levels follow the league's shape, the simulator's where not given
    country, season, n_teams = (
        given.get(name, getattr(LeagueSimParams, name))
        for name in ("country", "start_season", "n_teams")
    )
    K, I = Config().levels_for(country, season, n_teams)
    params = LeagueSimParams(**given, K=K, I=I)
    leagues = simulate_league(params, seed=args.seed)
    out = _out_dir(args.out_dir)
    artifacts = [_write_league_csv(out / "league.csv", leagues)]
    config_hash = sha256_text(json.dumps(vars(params), default=str, sort_keys=True))
    write_manifest(out, "simulate-league", {}, config_hash, artifacts, seed=args.seed)
    print(f"wrote league simulation to {out}")
    return 0


def cmd_simulate_dgp(args) -> int:
    from .simulate import COEFFICIENTS, LONG_RUN, MAX_DGP_COUNTRIES, DgpParams, simulate_dgp

    given = _given(args, ("start_season", "n_seasons"))
    if args.n_countries is not None:
        if args.n_countries > MAX_DGP_COUNTRIES:
            raise InputError(f"n_countries must be <= {MAX_DGP_COUNTRIES}")
        given["countries"] = tuple(f"C{i + 1}" for i in range(args.n_countries))
    params = DgpParams(**given)
    sim = simulate_dgp(params, seed=args.seed)
    out = _out_dir(args.out_dir)
    artifacts = [
        _write_macro_csv(out / "macro.csv", sim.macro),
        write_csv(
            out / "indices.csv",
            INDEX_COLUMNS,
            [(v.country, v.season, v.name, v.value) for v in sim.indices],
        ),
    ]
    truth_path = out / "truth.json"
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"long_run": LONG_RUN, "coefficients": COEFFICIENTS}, fh, indent=2, sort_keys=True
        )
        fh.write("\n")
    artifacts.append(str(truth_path))
    # the hash covers the equation's coefficients, not only the settable values
    hashed = dict(vars(params), coefficients=COEFFICIENTS)
    config_hash = sha256_text(json.dumps(hashed, default=str, sort_keys=True))
    write_manifest(out, "simulate-dgp", {}, config_hash, artifacts, seed=args.seed)
    print(f"wrote dgp simulation to {out}")
    return 0


# ---------------------------------------------------------------- report


def cmd_report(args) -> int:
    """indices, unit-root, fit and effects in one run, passing results in memory."""
    config, config_hash = _load_config(args)
    names = _index_names(args.index)
    out = Path(args.out_dir)
    macro = parse_macro_csv(args.macro)  # a bad macro file stops the run before any write
    panel = build_panel(macro)
    values, artifacts = _indices(args.league, config, out)
    artifacts += _unit_root(panel, None, out)
    index_values = _quantised([v for v in values if v.name in names])
    inputs = {"league": sha256_file(args.league), "macro": sha256_file(args.macro)}
    effects_inputs = {"indices": sha256_file(out / "indices.csv"), "macro": inputs["macro"]}

    def effects_of(name: str, effects: list[LongRunEffect]) -> list[str]:
        cb = next(e.estimate for e in effects if e.variable == "cb")
        return _effects(
            index_values, macro, name, float(fmt(cb)), out / f"effects_{name}", effects_inputs
        )

    fit_artifacts, failed = _fit(panel, index_values, names, args, config, out, effects_of)
    artifacts += fit_artifacts
    write_manifest(out, "report", inputs, config_hash, artifacts)
    print("report complete")
    return _exit_code(failed)


# ---------------------------------------------------------------- parser


def non_negative_int(text: str) -> int:
    seed = int(text)
    if seed < 0:  # numpy seeds only from non-negative integers
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaguebalance",
        description="Competitive-balance indices and their effect on attendance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", required=True, help="output directory")

    def model_options(p):
        """The options that ``fit`` and ``report`` pass to every index's model."""
        p.add_argument("--config", default=None)
        p.add_argument("--index", default="sdc_ki", help="index name or 'all'")
        p.add_argument("--adl-order", type=int, default=RegressionSpec.adl_order)
        p.add_argument("--no-d97", action="store_true")
        p.add_argument("--iterate-sur", action="store_true")

    p = sub.add_parser("indices", help="compute all indices from a league CSV")
    p.add_argument("--league", required=True)
    p.add_argument("--config", default=None)
    common(p)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("unit-root", help="ADF-Fisher panel unit-root tests")
    p.add_argument("--macro", required=True)
    p.add_argument("--max-lag", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_unit_root)

    p = sub.add_parser("fit", help="pooled EGLS system fit per index")
    p.add_argument("--macro", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--league")
    source.add_argument("--indices", help="indices.csv from the indices command")
    model_options(p)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("effects", help="best-vs-worst season attendance effects")
    p.add_argument("--indices", required=True)
    p.add_argument("--macro", required=True)
    p.add_argument("--index", default="sdc_ki")
    p.add_argument("--elasticity", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_effects)

    def simulate_options(p, func):
        """The options that both simulators read; each gives its own defaults."""
        p.add_argument("--n-seasons", type=int, default=None)
        p.add_argument("--start-season", type=int, default=None)
        p.add_argument("--seed", type=non_negative_int, default=0, help="an integer >= 0")
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("simulate-league", help="simulate league tables")
    p.add_argument("--n-teams", type=int, default=None)
    p.add_argument("--dispersion", type=float, default=None, help="float or 'inf'")
    p.add_argument("--churn", type=int, default=None)
    p.add_argument("--country", default=None)
    simulate_options(p, cmd_simulate_league)

    p = sub.add_parser("simulate-dgp", help="simulate a known-coefficient attendance panel")
    p.add_argument("--n-countries", type=int, default=None, help="countries C1, C2, ...")
    simulate_options(p, cmd_simulate_dgp)

    p = sub.add_parser("report", help="full pipeline: indices, unit root, fit, effects")
    p.add_argument("--league", required=True)
    p.add_argument("--macro", required=True)
    model_options(p)
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except LeagueBalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
