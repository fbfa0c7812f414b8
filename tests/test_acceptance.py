"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines with the measured values.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from leaguebalance import (
    Config,
    TopKWindow,
    acr_top,
    adjusted_gini,
    adn_top,
    build_panel,
    compute_all_indices,
    dn_champion,
    dn_relegation,
    g_index_detail,
    hhi_star,
    namsi,
    ncr_champion,
    ncr_relegation,
    parse_league_csv,
    scr,
    sdn,
    tau_rescaled,
    winning_percentages,
)
from leaguebalance.cli import _write_league_csv, main as cli_main
from leaguebalance.econometrics import (
    FitResult,
    RegressionSpec,
    adf_test,
    attendance_effect,
    breusch_pagan_lm,
    build_adl_design,
    durbin_watson_panel,
    fisher_panel_unit_root,
    long_run_effects,
    ramsey_reset,
    sur_egls_fit,
    white_cross_section_cov,
)
from leaguebalance.econometrics.diagnostics import jarque_bera_stat
from leaguebalance.panel import MacroObservation
from leaguebalance.pipeline import series_from_values
from leaguebalance.simulate import (
    COEFFICIENTS,
    DgpParams,
    LeagueSimParams,
    simulate_dgp,
    simulate_league,
)
from support import (
    all_draw_season,
    build_adl_lag_design,
    cu_season,
    cumulated_lag_coefficients,
    drr_matches,
    fit_from_residuals,
    gaussian_loglik,
    known_sigma_gls,
    ols_fit,
    ols_fit_design,
    reranked,
)
from test_longrun import EFFECT_TABLE, reference_fit
from test_sur import stacked_design

TABLE1_RANGES = {
    "BEL": (1966, 2008), "ENG": (1959, 2008), "FRA": (1959, 2008), "GER": (1963, 2008),
    "GRE": (1959, 2008), "ITA": (1959, 2008), "NOR": (1963, 2008), "SWE": (1959, 2008),
}
TABLE1_COUNTS = (43, 50, 50, 46, 50, 50, 46, 50)


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def levels_for(n):
    k = max(1, min(3, (n - 1) // 2))
    return k, max(1, min(3, n - 1 - k))


# ------------------------------------------------------------------ 1


def test_c01_longrun_solver_crosscheck():
    fit = reference_fit()
    spec = RegressionSpec(index_name="sdc_ki", include_d97=False)
    expected = {
        "cb": (-1.142, 0.005),
        "pop": (4.591, 0.005),
        "rgni": (0.534, 0.005),
        "un": (0.141, 0.01),
        "t": (-0.082, 0.02),
    }
    effects = {e.variable: e.estimate for e in long_run_effects(fit, spec, fit.cov)}
    for var, (target, rel) in expected.items():
        assert effects[var] == pytest.approx(target, rel=rel), var
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        long_run_effects(fit, spec, fit.cov)
        timings.append(time.perf_counter() - t0)
    runtime = min(timings)
    assert runtime < 1e-3
    report(
        "1 (long-run cross-check)",
        f"cb={effects['cb']:.4f} pop={effects['pop']:.4f} rgni={effects['rgni']:.4f} "
        f"un={effects['un']:.4f} t={effects['t']:.4f}; runtime {runtime * 1e6:.0f}us",
    )


# ------------------------------------------------------------------ 2


def test_c02_effect_table_crosscheck():
    worst_err = 0.0
    for country, (best, worst, avg, expected) in sorted(EFFECT_TABLE.items()):
        result = attendance_effect(-1.142, best, worst, avg)
        err = abs(result.fans_per_game - expected) / expected
        worst_err = max(worst_err, err)
        assert err <= 0.01, country
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        for best, worst, avg, _ in EFFECT_TABLE.values():
            attendance_effect(-1.142, best, worst, avg)
        timings.append(time.perf_counter() - t0)
    runtime = min(timings)
    assert runtime < 1e-3
    report(
        "2 (effect-table cross-check)",
        f"8 countries within 1% (worst rel err {worst_err:.3%}); runtime {runtime * 1e6:.0f}us",
    )


# ------------------------------------------------------------------ 3


def test_c03_index_endpoints():
    tol = 1e-12
    for n in (3, 4, 6, 16, 20):
        k, i = levels_for(n)
        draw = all_draw_season(n, K=k, I=i)
        values, _ = compute_all_indices([draw])
        assert len(values) == 7
        for v in values:
            assert abs(v.value) < tol, (n, v.name)

        prev = cu_season(n, season=1999, K=k, I=i)
        curr = reranked(prev, list(range(n)))
        values, _ = compute_all_indices([prev, curr])
        # the seven seasonal, five pairwise and four bi-dimensional indices
        at_curr = [v for v in values if v.season == curr.season]
        assert len(at_curr) == 16
        for v in at_curr:
            assert abs(v.value - 1.0) < tol, (n, v.name)
        g = g_index_detail(TopKWindow(seasons=(prev, curr), K=k))
        assert abs(g.value - 1.0) < tol
    report(
        "3 (index endpoints)",
        "all-draw season = 0 on the 7 seasonal indices and frozen CU pair = 1 on all 17, "
        "n in {3,4,6,16,20}, |err| < 1e-12",
    )


# ------------------------------------------------------------------ 4


def _season_stats(outcomes: np.ndarray, n: int):
    """Vectorised rank-sorted winning percentages for outcome matrices."""
    matches = drr_matches(n)
    s = outcomes.shape[0]
    points = np.zeros((s, n))
    for m, (home, away) in enumerate(matches):
        o = outcomes[:, m]
        points[:, home] += 2.0 * (o == 0) + (o == 1)
        points[:, away] += 2.0 * (o == 2) + (o == 1)
    w = points / (2.0 * 2.0 * (n - 1))
    return -np.sort(-w, axis=1)


def _vector_indices(w: np.ndarray, k: int, i: int):
    """Independent vectorised evaluation of the seven seasonal indices."""
    s, n = w.shape
    w_cu = (n - 1.0 - np.arange(n)) / (n - 1.0)
    dev = w - 0.5
    out = {}
    out["namsi"] = np.sqrt(np.sum(dev**2, axis=1) / np.sum((w_cu - 0.5) ** 2))
    shares = w / w.sum(axis=1, keepdims=True)
    share_cu = w_cu / w_cu.sum()
    hhi_cu = float(np.sum(share_cu**2))
    out["hhi_star"] = (np.sum(shares**2, axis=1) - 1.0 / n) / (hhi_cu - 1.0 / n)
    gini_num = np.abs(w[:, :, None] - w[:, None, :]).sum(axis=(1, 2))
    gini_cu = float(np.abs(w_cu[:, None] - w_cu[None, :]).sum())
    out["agini"] = (gini_num / w.sum(axis=1)) / (gini_cu / w_cu.sum())
    out["ncr1"] = 2.0 * (w[:, 0] - 0.5)
    v = np.arange(k, 0, -1, dtype=float)
    out["acr_k"] = (w[:, :k] @ v - 0.5 * v.sum()) / (w_cu[:k] @ v - 0.5 * v.sum())
    floor = i * (i - 1) / (2.0 * (n - 1))
    out["ncr_i"] = (0.5 * i - w[:, n - i:].sum(axis=1)) / (0.5 * i - floor)
    omega = np.zeros(n)
    omega[:k] = k + 2 - np.arange(1, k + 1)
    omega[n - i:] = 1.0

    def spread(x):
        return x[:, :k] @ omega[:k] - x[:, n - i:] @ omega[n - i:] + omega[n - i:].sum() * 0.5 - 0.5 * omega[:k].sum()

    cu2 = w_cu[None, :]
    out["scr_ki"] = spread(w) / spread(cu2)[0]
    return out


def test_c04_exhaustive_range_oracle():
    tol = 1e-12
    library = {
        "namsi": lambda w, k, i: namsi([w])[0],
        "hhi_star": lambda w, k, i: hhi_star([w])[0],
        "agini": lambda w, k, i: adjusted_gini([w])[0],
        "ncr1": lambda w, k, i: ncr_champion([w])[0],
        "acr_k": lambda w, k, i: acr_top([w], k)[0],
        "ncr_i": lambda w, k, i: ncr_relegation([w], i)[0],
        "scr_ki": lambda w, k, i: scr([w], k, i)[0],
    }
    checked = 0
    for n, sampler in ((3, None), (4, 1_000_000)):
        k, i = levels_for(n)
        n_matches = n * (n - 1)
        if sampler is None:
            outcomes = np.array(list(itertools.product((0, 1, 2), repeat=n_matches)))
        else:
            rng = np.random.default_rng(2024)
            outcomes = rng.integers(0, 3, size=(sampler, n_matches))
        # ensure the completely unbalanced assignment is present: the home
        # side of each ordered pair wins iff it is the stronger team
        cu_row = np.array(
            [0 if home < away else 2 for home, away in drr_matches(n)]
        )
        outcomes = np.vstack([outcomes, cu_row])
        w = _season_stats(outcomes, n)
        values = _vector_indices(w, k, i)
        for name, arr in values.items():
            assert arr.min() >= -tol, (n, name, arr.min())
            assert arr.max() <= 1.0 + tol, (n, name, arr.max())
        # ACR and SCR attain their maximum at the CU configuration
        for name in ("acr_k", "scr_ki"):
            assert values[name][-1] == pytest.approx(1.0, abs=tol)
            assert values[name].max() <= 1.0 + tol
        # tie the independent oracle to the library on a subsample
        rng = np.random.default_rng(7)
        subsample = rng.choice(len(outcomes), size=200, replace=False)
        for idx in subsample:
            for name, fn in library.items():
                assert fn(w[idx], k, i) == pytest.approx(values[name][idx], abs=1e-9)
        checked += len(outcomes)
    report(
        "4 (exhaustive range oracle)",
        f"{checked} outcome assignments for n=3 (full) and n=4 (sampled): all seven "
        "seasonal indices in [0,1], ACR/SCR maximal at CU",
    )


# ------------------------------------------------------------------ 5


def test_c05_reparameterization_equivalence():
    params = DgpParams(countries=("C1", "C2", "C3", "C4"), n_seasons=30, start_season=1975)
    spec = RegressionSpec(index_name="sdc_ki")
    worst = 0.0
    for seed in range(100):
        sim = simulate_dgp(params, seed=seed)
        panel = build_panel(sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        levels = build_adl_design(panel, series, spec)
        lags = build_adl_lag_design(panel, series, spec)
        f1 = ols_fit(levels.y, levels.X, levels.columns)
        f2 = ols_fit(lags.y, lags.X, lags.columns)
        resid_gap = float(np.max(np.abs(f1.residuals - f2.residuals)))
        sigma_gap = abs(
            float(f1.residuals @ f1.residuals) / (f1.design.nobs - len(f1.design.columns))
            - float(f2.residuals @ f2.residuals) / (f2.design.nobs - len(f2.design.columns))
        )
        ll_gap = abs(gaussian_loglik(f1.residuals) - gaussian_loglik(f2.residuals))
        sums = cumulated_lag_coefficients(f2, spec)
        coef_gap = max(
            abs(f1.coef(f"ln_{v}_lag1") - sums[v]) for v in ("cb", "pop", "rgni", "un")
        )
        coef_gap = max(coef_gap, abs(-f1.coef("ln_att_lag1") - sums["att_a1"]))
        worst = max(worst, resid_gap, sigma_gap, ll_gap, coef_gap)
        assert resid_gap < 1e-8 and sigma_gap < 1e-8 and ll_gap < 1e-8 and coef_gap < 1e-8
    report(
        "5 (reparameterization equivalence)",
        f"100 simulated panels: residuals, sigma, log-likelihood and cumulated lag "
        f"coefficients agree across forms (worst gap {worst:.2e} < 1e-8)",
    )


# ------------------------------------------------------------------ 6


def test_c06_dgp_recovery():
    params = DgpParams()  # 8 countries x 50 seasons, error correlation 0.4
    spec = RegressionSpec(index_name="sdc_ki")
    truth = COEFFICIENTS["ln_cb_lag1"] / -COEFFICIENTS["ln_att_lag1"]
    hits = 0
    times = []
    for seed in range(200):
        sim = simulate_dgp(params, seed=seed)
        panel = build_panel(sim.macro)
        design = build_adl_design(panel, series_from_values(sim.indices, "sdc_ki"), spec)
        t0 = time.perf_counter()
        fit = sur_egls_fit(design, iterate=True)
        times.append(time.perf_counter() - t0)
        effect = {e.variable: e for e in long_run_effects(fit, spec, fit.cov)}["cb"]
        if abs(effect.estimate - truth) <= 1.96 * effect.se:
            hits += 1
    coverage = hits / 200
    median_time = float(np.median(times))
    assert 0.90 <= coverage <= 1.00
    assert median_time < 1.0
    report(
        "6 (DGP recovery)",
        f"iterated system fit on 8x50 panels with error correlation 0.4: 95% CI "
        f"coverage {coverage:.1%} (nominal 95% +/- 5pp) from the classical covariance "
        f"(the CLI reports the robust one, ROADMAP direction 7), "
        f"median fit {median_time * 1e3:.0f}ms",
    )


# ------------------------------------------------------------------ 7


def test_c07_zellner_equivalences():
    design = stacked_design(
        ("A", "B", "C"),
        40,
        x_maker=lambda rng: rng.standard_normal((40, 2)),
        y_maker=lambda rng, x: x @ np.array([1.0, -0.5]) + rng.standard_normal(40),
        shared_slopes=True,
        seed=21,
    )
    gls = known_sigma_gls(design, 0.5 * np.eye(3))
    ols = ols_fit(design.y, design.X, design.columns)
    diag_gap = float(np.max(np.abs(gls.beta - ols.beta)))
    assert diag_gap < 1e-6

    rng = np.random.default_rng(22)
    shared_x = rng.standard_normal((35, 2))
    design2 = stacked_design(
        ("A", "B"),
        35,
        x_maker=lambda _rng: shared_x,
        y_maker=lambda _rng, x: x @ _rng.standard_normal(2) + _rng.standard_normal(35),
        shared_slopes=False,
        seed=23,
    )
    fgls = sur_egls_fit(design2, iterate=True)
    ident_gap = 0.0
    for c in ("A", "B"):
        mask = design2.countries == c
        x_eq = np.column_stack([np.ones(35), shared_x])
        beta_eq, *_ = np.linalg.lstsq(x_eq, design2.y[mask], rcond=None)
        mine = np.array([fgls.coef(f"const[{c}]"), fgls.coef(f"x0[{c}]"), fgls.coef(f"x1[{c}]")])
        ident_gap = max(ident_gap, float(np.max(np.abs(mine - beta_eq))))
    assert ident_gap < 1e-8
    report(
        "7 (Zellner equivalences)",
        f"GLS = OLS under diagonal sigma (gap {diag_gap:.2e} < 1e-6); system fit = "
        f"per-equation OLS under identical regressors (gap {ident_gap:.2e} < 1e-8)",
    )


# ------------------------------------------------------------------ 8


def test_c08_diagnostic_size_and_power():
    # ADF size on random walks at the 10% level
    size_hits = 0
    for seed in range(200):
        rng = np.random.default_rng([811, seed])
        y = np.cumsum(rng.standard_normal(200))
        size_hits += adf_test(y, "c").p_value > 0.10
    adf_size = size_hits / 200
    assert adf_size >= 0.85

    # ADF power on white noise at the 5% level
    power_hits = 0
    for seed in range(120):
        rng = np.random.default_rng([822, seed])
        power_hits += adf_test(rng.standard_normal(200), "c").p_value < 0.05
    adf_power = power_hits / 120
    assert adf_power >= 0.95

    # Fisher statistic closed form
    fisher = fisher_panel_unit_root([0.5] * 8)
    fisher_gap = abs(fisher.statistic - 16.0 * np.log(2.0))
    assert fisher_gap < 1e-9

    # LM size
    rng = np.random.default_rng(833)
    lm_rej = 0
    for _ in range(500):
        fit = fit_from_residuals({f"C{i}": rng.standard_normal(60) for i in range(5)})
        lm_rej += breusch_pagan_lm(fit).p_value < 0.05
    lm_size = lm_rej / 500
    assert abs(lm_size - 0.05) <= 0.03

    # JB size at T=50
    rng = np.random.default_rng(844)
    jb_rej = 0
    for _ in range(1000):
        jb_rej += jarque_bera_stat(rng.standard_normal(50))[1] < 0.05
    jb_size = jb_rej / 1000
    assert abs(jb_size - 0.05) <= 0.03

    # RESET size on a correctly specified linear model
    reset_rej = 0
    for seed in range(500):
        design = stacked_design(
            ("A", "B"),
            60,
            x_maker=lambda rng: rng.standard_normal((60, 2)),
            y_maker=lambda rng, x: x @ np.array([1.0, -0.5]) + rng.standard_normal(60),
            shared_slopes=True,
            seed=10_000 + seed,
        )
        fit = ols_fit_design(design)
        reset_rej += ramsey_reset(fit).p_value < 0.05
    reset_size = reset_rej / 500
    assert abs(reset_size - 0.05) <= 0.03

    # panel Durbin-Watson near 2 on white noise
    rng = np.random.default_rng(0)
    e = rng.standard_normal((4000, 8, 48))
    e = e - e.mean(axis=2, keepdims=True)
    inside = 0
    for r in range(4000):
        resid = {f"C{i}": e[r, i] for i in range(8)}
        d = durbin_watson_panel(fit_from_residuals(resid)).statistic
        inside += 1.8 <= d <= 2.2
    dw_rate = inside / 4000
    assert dw_rate >= 0.95
    report(
        "8 (diagnostic size/power)",
        f"ADF size {adf_size:.1%} (>=85%), power {adf_power:.1%} (>=95%); Fisher gap "
        f"{fisher_gap:.1e}; sizes LM {lm_size:.1%} JB {jb_size:.1%} RESET {reset_size:.1%} "
        f"(5% +/- 3pp); DW in [1.8,2.2] {dw_rate:.2%} (>=95%)",
    )


# ------------------------------------------------------------------ 9


@pytest.fixture(scope="module")
def table1_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("table1")
    leagues = []
    for i, (country, (lo, hi)) in enumerate(sorted(TABLE1_RANGES.items())):
        leagues.extend(
            simulate_league(
                LeagueSimParams(
                    n_teams=10,
                    n_seasons=hi - lo + 1,
                    dispersion=2.0,
                    country=country,
                    start_season=lo,
                    churn=1,
                ),
                seed=500 + i,
            )
        )
    league_path = root / "league.csv"
    _write_league_csv(league_path, leagues)
    macro = [
        MacroObservation(lg.country, lg.season, 1e4, 1e7, 2e4, 8.0) for lg in leagues
    ]
    return str(league_path), leagues, macro


def test_c09_structural_counts(table1_dataset):
    league_path, _, macro = table1_dataset
    leagues = parse_league_csv(league_path)
    counts = {}
    for lg in leagues:
        counts[lg.country] = counts.get(lg.country, 0) + 1
    observed = tuple(counts[c] for c in ("BEL", "ENG", "FRA", "GER", "GRE", "ITA", "NOR", "SWE"))
    assert observed == TABLE1_COUNTS

    values, _ = compute_all_indices(leagues, Config(), names={"dn1", "scr_ki"})
    champion_pairs = sum(1 for v in values if v.name == "dn1")
    assert champion_pairs == 377

    panel = build_panel(macro)
    design = build_adl_design(
        panel, series_from_values(values, "scr_ki"), RegressionSpec(index_name="scr_ki")
    )
    assert design.nobs == 369
    report(
        "9 (structural counts)",
        f"season counts {observed}; champion pairs {champion_pairs}; "
        f"order-2 stacked design rows {design.nobs}",
    )


# ------------------------------------------------------------------ 10


def test_c10_cli_determinism(small_dataset, tmp_path):
    def tree(out_dir):
        out_dir = Path(out_dir)
        return {
            str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }

    league, macro = small_dataset["league"], small_dataset["macro"]
    commands = {
        "simulate-league": lambda out: [
            "simulate-league", "--n-teams", "8", "--n-seasons", "6",
            "--dispersion", "1.5", "--churn", "1", "--seed", "11", "--out-dir", out,
        ],
        "simulate-dgp": lambda out: [
            "simulate-dgp", "--n-seasons", "20", "--n-countries", "3",
            "--seed", "12", "--out-dir", out,
        ],
        "indices": lambda out: [
            "indices", "--league", league, "--out-dir", out,
        ],
        "unit-root": lambda out: [
            "unit-root", "--macro", macro, "--out-dir", out,
        ],
        "fit": lambda out: [
            "fit", "--macro", macro, "--league", league, "--index", "all",
            "--iterate-sur", "--out-dir", out,
        ],
        "report": lambda out: [
            "report", "--league", league, "--macro", macro, "--index", "sdc_ki",
            "--out-dir", out,
        ],
    }
    for name, argv in commands.items():
        runs = []
        for j in range(2):
            out = tmp_path / f"{name}-{j}"
            assert cli_main([str(a) for a in argv(str(out))]) == 0, name
            runs.append(tree(out))
        assert all(r == runs[0] for r in runs[1:]), f"{name} not byte-reproducible"

    # effects needs an indices file from the runs above
    idx_csv = tmp_path / "indices-0" / "indices.csv"
    runs = []
    for j in range(2):
        out = tmp_path / f"effects-{j}"
        assert cli_main(
            ["effects", "--indices", str(idx_csv), "--macro", macro, "--index", "sdc_ki",
             "--elasticity", "-1.142", "--out-dir", str(out)]
        ) == 0
        runs.append(tree(out))
    assert runs[0] == runs[1]
    report(
        "10 (CLI determinism)",
        "simulate-league/simulate-dgp/indices/unit-root/fit/effects/report byte-identical "
        "across reruns",
    )
