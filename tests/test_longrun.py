import numpy as np
import pytest

from leaguebalance import InputError, NumericalError
from leaguebalance.econometrics import FitResult, RegressionSpec, attendance_effect, long_run_effects
from leaguebalance.reports import stars
from support import labelled_design, one_pass_fit

# pooled attendance-model estimates used as an arithmetic cross-check:
# change in log attendance on lagged levels, differences, d97 and trend
REFERENCE_COEFS = {
    "ln_cb_lag1": -0.213,
    "d_ln_cb": -0.174,
    "ln_pop_lag1": 0.856,
    "d_ln_pop_lag1": -3.799,
    "ln_rgni_lag1": 0.099,
    "d_ln_rgni": 0.157,
    "ln_un_lag1": 0.026,
    "ln_att_lag1": -0.186,
    "d_ln_att_lag1": -0.109,
    "t": -0.015,
    "t2": 0.0002,
}


def reference_fit(coefs=None) -> FitResult:
    coefs = dict(REFERENCE_COEFS if coefs is None else coefs)
    names = list(coefs)
    beta = np.array([coefs[n] for n in names])
    k = len(names)
    design = labelled_design(np.zeros(1), np.zeros((1, k)), names, ["A"], [0], ["A"])
    return one_pass_fit(design, beta, 0.01 * np.eye(k), np.zeros(1))


class TestLongRunEffects:
    def test_reference_elasticities(self):
        fit = reference_fit()
        spec = RegressionSpec(index_name="sdc_ki", include_d97=False)
        effects = {e.variable: e.estimate for e in long_run_effects(fit, spec, fit.cov)}
        assert effects["cb"] == pytest.approx(-0.213 / 0.186, abs=1e-12)
        assert effects["cb"] == pytest.approx(-1.142, rel=0.005)
        assert effects["pop"] == pytest.approx(4.591, rel=0.005)
        assert effects["rgni"] == pytest.approx(0.534, rel=0.005)
        assert effects["un"] == pytest.approx(0.141, rel=0.01)
        assert effects["t"] == pytest.approx(-0.082, rel=0.02)

    def test_unit_loading_returns_raw_coefficient(self):
        coefs = dict(REFERENCE_COEFS, ln_att_lag1=-1.0)
        fit = reference_fit(coefs)
        spec = RegressionSpec(index_name="sdc_ki", include_d97=False)
        effects = {e.variable: e.estimate for e in long_run_effects(fit, spec, fit.cov)}
        assert effects["cb"] == pytest.approx(coefs["ln_cb_lag1"], abs=1e-12)

    def test_no_error_correction_raises(self):
        fit = reference_fit(dict(REFERENCE_COEFS, ln_att_lag1=-1e-12))
        with pytest.raises(NumericalError, match="no long-run relation"):
            long_run_effects(fit, RegressionSpec(index_name="sdc_ki"), fit.cov)

    def test_delta_method_matches_manual_gradient(self):
        fit = reference_fit()
        i = fit.design.columns.index("ln_cb_lag1")
        j = fit.design.columns.index("ln_att_lag1")
        cov = np.zeros((len(fit.design.columns),) * 2)
        cov[i, i], cov[j, j], cov[i, j] = 0.0004, 0.0009, 0.0001
        cov[j, i] = cov[i, j]
        spec = RegressionSpec(index_name="sdc_ki", include_d97=False)
        effect = {e.variable: e for e in long_run_effects(fit, spec, cov)}["cb"]
        b, c = -0.213, -0.186
        grad = np.zeros(len(fit.design.columns))
        grad[i] = -1.0 / c
        grad[j] = b / c**2
        assert effect.se == pytest.approx(float(np.sqrt(grad @ cov @ grad)), abs=1e-12)

    def test_stars_thresholds(self):
        for p, expected in (
            (0.0, "***"), (0.0099, "***"), (0.01, "**"), (0.0499, "**"),
            (0.05, "*"), (0.0999, "*"), (0.1, ""), (0.9, ""),
        ):
            assert stars(p) == expected, p
        fit = reference_fit()
        spec = RegressionSpec(index_name="sdc_ki", include_d97=False)
        for e in long_run_effects(fit, spec, fit.cov):
            assert stars(e.p_value) in ("", "*", "**", "***")


# effect of moving from the worst to the best balance season per country:
# (best value, worst value, average attendance, expected extra fans)
EFFECT_TABLE = {
    "Belgium": (0.513, 0.762, 9421, 3510),
    "England": (0.390, 0.755, 27737, 15333),
    "France": (0.311, 0.724, 12855, 8373),
    "Germany": (0.425, 0.699, 26668, 11942),
    "Greece": (0.528, 0.800, 7280, 2829),
    "Italy": (0.510, 0.716, 29219, 9591),
    "Norway": (0.270, 0.700, 5892, 4138),
    "Sweden": (0.273, 0.711, 7645, 5375),
}


class TestAttendanceEffect:
    @pytest.mark.parametrize("country", sorted(EFFECT_TABLE))
    def test_reference_effects_within_one_percent(self, country):
        best, worst, avg, expected = EFFECT_TABLE[country]
        result = attendance_effect(-1.142, best, worst, avg)
        assert result.fans_per_game == pytest.approx(expected, rel=0.01)

    def test_greece_percent(self):
        result = attendance_effect(-1.142, 0.528, 0.800, 7280)
        assert result.percent == pytest.approx(0.388, abs=0.001)

    def test_zero_elasticity(self):
        result = attendance_effect(0.0, 0.3, 0.7, 10_000)
        assert result.percent == 0.0
        assert result.fans_per_game == 0.0

    def test_equal_best_worst(self):
        result = attendance_effect(-1.0, 0.5, 0.5, 10_000)
        assert result.fans_per_game == 0.0

    @pytest.mark.parametrize("elasticity", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_elasticity_is_input_error(self, elasticity):
        with pytest.raises(InputError, match="elasticity must be finite"):
            attendance_effect(elasticity, 0.3, 0.7, 10_000)

    def test_effect_past_the_float_range_is_input_error(self):
        with pytest.raises(InputError, match="effect of elasticity -1e[+]308 .* is not finite"):
            attendance_effect(-1e308, 0.3, 0.7, 10_000)

    def test_argument_order_error(self):
        with pytest.raises(InputError, match="argument order"):
            attendance_effect(-1.0, 0.8, 0.5, 10_000)

    def test_positive_inputs_required(self):
        with pytest.raises(InputError):
            attendance_effect(-1.0, 0.0, 0.0, 10_000)
        with pytest.raises(InputError):
            attendance_effect(-1.0, 0.3, 0.7, -5.0)
