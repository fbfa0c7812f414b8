import numpy as np
import pytest

from leaguebalance import InputError, NumericalError, build_panel
from leaguebalance.econometrics import (
    RegressionSpec,
    build_adl_design,
    ols_fit,
)
from leaguebalance.panel import MacroObservation
from leaguebalance.pipeline import series_from_values
from leaguebalance.simulate import DgpParams, simulate_dgp
from support import build_adl_lag_design, cumulated_lag_coefficients, dgp_design


class TestOlsFit:
    def test_exact_linear_relation_has_zero_residuals(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(50), rng.standard_normal(50)])
        y = x @ np.array([1.5, -2.0])
        fit = ols_fit(y, x)
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_intercept_only_gives_mean(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        fit = ols_fit(y, np.ones((4, 1)))
        assert fit.beta[0] == pytest.approx(y.mean())

    def test_slope_recovery_within_three_ses(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(500)
        y = 2.0 * x + 0.1 * rng.standard_normal(500)
        fit = ols_fit(y, np.column_stack([np.ones(500), x]), ["const", "x"])
        assert abs(fit.coef("x") - 2.0) <= 3.0 * fit.se("x")

    def test_singular_design_names_columns(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(30)
        x = np.column_stack([np.ones(30), a, 2.0 * a])
        with pytest.raises(NumericalError, match="dependent columns.*x2"):
            ols_fit(rng.standard_normal(30), x, ["const", "x1", "x2"])

    def test_loglik_matches_formula(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([np.ones(80), rng.standard_normal(80)])
        y = x @ np.array([0.3, 1.0]) + rng.standard_normal(80)
        fit = ols_fit(y, x)
        rss = float(fit.residuals @ fit.residuals)
        expected = -0.5 * 80 * (np.log(2 * np.pi) + np.log(rss / 80) + 1.0)
        assert fit.loglik == pytest.approx(expected, abs=1e-10)


def table1_macro():
    table1 = {
        "BEL": (1966, 2008), "ENG": (1959, 2008), "FRA": (1959, 2008),
        "GER": (1963, 2008), "GRE": (1959, 2008), "ITA": (1959, 2008),
        "NOR": (1963, 2008), "SWE": (1959, 2008),
    }
    rows = []
    for country, (lo, hi) in table1.items():
        for season in range(lo, hi + 1):
            rows.append(
                MacroObservation(country, season, 1e4 + season - lo, 1e7, 2e4, 8.0)
            )
    return rows


class TestDesign:
    def test_lag_trimming_counts(self):
        design, _, _ = dgp_design(seed=0)
        # 8 countries x 50 seasons, order 2
        assert design.nobs == 8 * 48

    def test_table1_panel_has_369_rows(self):
        macro = table1_macro()
        panel = build_panel([], macro)
        series = {(m.country, m.season): 0.5 for m in macro}
        design = build_adl_design(panel, series, RegressionSpec(index_name="scr_ki"))
        assert design.nobs == 369

    def test_no_d97_design_lacks_column(self):
        design, _, _ = dgp_design(seed=0, include_d97=False)
        assert "d97" not in design.columns
        with_d97, _, _ = dgp_design(seed=0)
        assert "d97" in with_d97.columns
        assert len(with_d97.columns) == len(design.columns) + 1

    def test_column_count_matches_order(self):
        d1, _, _ = dgp_design(seed=0, adl_order=1)
        d2, _, _ = dgp_design(seed=0, adl_order=2)
        d3, _, _ = dgp_design(seed=0, adl_order=3)
        # each extra order adds one difference lag per covariate plus one
        # lagged attendance difference
        assert len(d2.columns) - len(d1.columns) == 5
        assert len(d3.columns) - len(d2.columns) == 5

    def test_alignment_error_on_missing_index_keys(self):
        sim = simulate_dgp(seed=0)
        panel = build_panel([], sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        series = {k: v for k, v in series.items() if k[0] != "C3"}
        with pytest.raises(InputError, match="alignment error"):
            build_adl_design(panel, series, RegressionSpec(index_name="sdc_ki"))

    def test_log_domain_error_on_zero_index(self):
        sim = simulate_dgp(seed=0)
        panel = build_panel([], sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        key = ("C1", 1975)
        series[key] = 0.0
        with pytest.raises(InputError, match="log-domain"):
            build_adl_design(panel, series, RegressionSpec(index_name="sdc_ki"))


class TestReparameterization:
    """The lag form and the levels-and-differences form span the same space."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_residuals_sigma_loglik(self, seed):
        params = DgpParams(countries=("C1", "C2", "C3", "C4"), n_seasons=30, start_season=1975)
        sim = simulate_dgp(params, seed=seed)
        panel = build_panel([], sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        spec = RegressionSpec(index_name="sdc_ki")
        levels = build_adl_design(panel, series, spec)
        lags = build_adl_lag_design(panel, series, spec)
        f1 = ols_fit(levels.y, levels.X, levels.columns)
        f2 = ols_fit(lags.y, lags.X, lags.columns)
        assert np.max(np.abs(f1.residuals - f2.residuals)) < 1e-8
        rss1 = float(f1.residuals @ f1.residuals) / (f1.nobs - f1.k)
        rss2 = float(f2.residuals @ f2.residuals) / (f2.nobs - f2.k)
        assert rss1 == pytest.approx(rss2, abs=1e-8)
        assert f1.loglik == pytest.approx(f2.loglik, abs=1e-8)
        # fitted attendance levels agree once the lagged level is added back
        att_lag = levels.X[:, levels.columns.index("ln_att_lag1")]
        assert np.max(np.abs((f1.fitted + att_lag) - f2.fitted)) < 1e-8

    def test_level_coefficients_equal_lag_sums(self):
        sim = simulate_dgp(
            DgpParams(countries=("C1", "C2", "C3"), n_seasons=40, start_season=1970), seed=5
        )
        panel = build_panel([], sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        spec = RegressionSpec(index_name="sdc_ki")
        f_levels = ols_fit(*_xy(build_adl_design(panel, series, spec)))
        lag_design = build_adl_lag_design(panel, series, spec)
        f_lags = ols_fit(lag_design.y, lag_design.X, lag_design.columns)
        sums = cumulated_lag_coefficients(f_lags, spec)
        for v in ("cb", "pop", "rgni", "un"):
            assert f_levels.coef(f"ln_{v}_lag1") == pytest.approx(sums[v], abs=1e-8)
        assert -f_levels.coef("ln_att_lag1") == pytest.approx(sums["att_a1"], abs=1e-8)

    def test_long_run_elasticities_agree_across_forms(self):
        from leaguebalance.econometrics import long_run_effects

        sim = simulate_dgp(
            DgpParams(countries=("C1", "C2", "C3"), n_seasons=40, start_season=1970), seed=8
        )
        panel = build_panel([], sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        spec = RegressionSpec(index_name="sdc_ki")
        levels = build_adl_design(panel, series, spec)
        f_levels = ols_fit(levels.y, levels.X, levels.columns)
        effects = {e.variable: e.estimate for e in long_run_effects(f_levels, spec)}
        lag_design = build_adl_lag_design(panel, series, spec)
        sums = cumulated_lag_coefficients(
            ols_fit(lag_design.y, lag_design.X, lag_design.columns), spec
        )
        for v in ("cb", "pop", "rgni", "un"):
            assert effects[v] == pytest.approx(sums[v] / sums["att_a1"], abs=1e-6)


def _xy(design):
    return design.y, design.X, design.columns
