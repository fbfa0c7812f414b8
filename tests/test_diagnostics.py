import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import InputError, NumericalError
from leaguebalance.econometrics import (
    FitResult,
    breusch_pagan_lm,
    durbin_watson_panel,
    jarque_bera,
    ramsey_reset,
    sur_egls_fit,
)
from leaguebalance.econometrics.diagnostics import jarque_bera_stat
from leaguebalance.econometrics.sur import pairwise_sigma
from support import (
    dgp_design,
    fit_from_residuals,
    labelled_design,
    ols_fit_design,
    pairwise_oracle,
    reset_exact_f,
)
from test_sur import stacked_design, unbalanced_design


class TestBreuschPaganLm:
    def test_identical_residual_series_hit_overlap_bound(self):
        e = np.sin(np.arange(30.0)) + 1.0
        fit = fit_from_residuals({c: e.copy() for c in "ABCD"})
        result = breusch_pagan_lm(fit)
        # all correlations are 1, so the statistic is the sum of overlaps
        assert result.statistic == pytest.approx(6 * 30, abs=1e-8)
        assert result.df == 6  # n(n-1)/2 pairs for n=4

    def test_eight_countries_have_28_degrees_of_freedom(self):
        rng = np.random.default_rng(0)
        fit = fit_from_residuals({f"C{i}": rng.standard_normal(40) for i in range(8)})
        assert breusch_pagan_lm(fit).df == 28

    def test_size_close_to_nominal(self):
        rng = np.random.default_rng(515)
        reps, rejections = 500, 0
        for _ in range(reps):
            fit = fit_from_residuals({f"C{i}": rng.standard_normal(60) for i in range(5)})
            rejections += breusch_pagan_lm(fit).p_value < 0.05
        assert abs(rejections / reps - 0.05) <= 0.03

    def test_detects_strong_correlation(self):
        rng = np.random.default_rng(2)
        common = rng.standard_normal(60)
        fit = fit_from_residuals(
            {f"C{i}": common + 0.3 * rng.standard_normal(60) for i in range(4)}
        )
        assert breusch_pagan_lm(fit).p_value < 1e-6

    def test_non_overlapping_pair_noted(self):
        fit = fit_from_residuals(
            {"A": np.sin(np.arange(10.0)), "B": np.cos(np.arange(10.0))},
            years_by_country={"B": np.arange(100, 110)},
        )
        with pytest.raises(InputError, match="no country pair"):
            breusch_pagan_lm(fit)

    def test_partial_overlap_reduces_df_with_note(self):
        rng = np.random.default_rng(3)
        fit = fit_from_residuals(
            {c: rng.standard_normal(12) for c in "ABC"},
            years_by_country={"C": np.arange(200, 212)},  # no overlap with A or B
        )
        result = breusch_pagan_lm(fit)
        assert result.df == 1  # only the A/B pair remains
        assert "A/C" in result.note and "B/C" in result.note

    def test_needs_two_countries(self):
        fit = fit_from_residuals({"A": np.sin(np.arange(10.0))})
        with pytest.raises(InputError, match="at least 2"):
            breusch_pagan_lm(fit)


@st.composite
def unbalanced_residuals(draw):
    """Residual series on a random unbalanced presence grid: one contiguous
    span of years per country, countries in random name order."""
    names = draw(st.permutations(["C0", "C1", "C2", "C3", "C4", "C5"]))
    n = draw(st.integers(2, 6))
    resid, years = {}, {}
    for name in names[:n]:
        start = draw(st.integers(0, 12))
        length = draw(st.integers(2, 14))
        values = draw(st.lists(st.integers(-1000, 1000), min_size=length, max_size=length))
        resid[name] = np.array(values) / 100.0
        years[name] = np.arange(start, start + length)
    return resid, years


class TestResidualGrid:
    """The grid computations equal a per-pair loop over the country series."""

    @settings(max_examples=200, deadline=None)
    @given(unbalanced_residuals())
    def test_grid_matches_per_pair_loop(self, case):
        resid, years = case
        oracle = pairwise_oracle(resid, years)
        fit = fit_from_residuals(resid, years_by_country=years)
        grid = fit.design.grid
        order = [fit.design.country_list.index(c) for c in oracle["countries"]]
        sigma = pairwise_sigma(grid.fill(fit.residuals), grid.mask)
        assert np.allclose(sigma[np.ix_(order, order)], oracle["sigma"], rtol=1e-12, atol=1e-12)

        if oracle["df"] == 0:
            with pytest.raises(InputError, match="no country pair"):
                breusch_pagan_lm(fit)
        else:
            lm = breusch_pagan_lm(fit)
            assert lm.statistic == pytest.approx(oracle["lm"], rel=1e-10, abs=1e-12)
            assert lm.df == oracle["df"]
            assert lm.note == oracle["note"]

        if np.isnan(oracle["dw"]):
            with pytest.raises(NumericalError, match="degenerate"):
                durbin_watson_panel(fit)
        else:
            dw = durbin_watson_panel(fit)
            assert dw.statistic == pytest.approx(oracle["dw"], rel=1e-12)


class TestDurbinWatson:
    def test_alternating_residuals(self):
        t = 40
        e = np.array([1.0, -1.0] * (t // 2))
        fit = fit_from_residuals({"A": e})
        expected = 4.0 * (t - 1) / t
        assert durbin_watson_panel(fit).statistic == pytest.approx(expected, abs=1e-12)

    def test_white_noise_stays_near_two(self):
        rng = np.random.default_rng(99)
        inside = 0
        reps = 400
        for _ in range(reps):
            resid = {}
            for c in range(8):
                e = rng.standard_normal(48)
                resid[f"C{c}"] = e - e.mean()
            d = durbin_watson_panel(fit_from_residuals(resid)).statistic
            inside += 1.8 <= d <= 2.2
        assert inside / reps >= 0.9

    def test_positive_autocorrelation_drops_below_one(self):
        rng = np.random.default_rng(4)
        lows = 0
        for _ in range(20):
            resid = {}
            for c in range(8):
                e = np.empty(48)
                e[0] = rng.standard_normal()
                for t in range(1, 48):
                    e[t] = 0.9 * e[t - 1] + rng.standard_normal() * 0.4
                resid[f"C{c}"] = e
            lows += durbin_watson_panel(fit_from_residuals(resid)).statistic < 1.0
        assert lows >= 18

    def test_zero_residuals_degenerate(self):
        fit = fit_from_residuals({"A": np.zeros(10)})
        with pytest.raises(NumericalError, match="degenerate"):
            durbin_watson_panel(fit)


class TestJarqueBera:
    def test_symmetric_residuals_have_zero_skew_term(self):
        e = np.concatenate([np.arange(1, 11.0), -np.arange(1, 11.0)])
        jb, _ = jarque_bera_stat(e)
        m2 = np.mean((e - e.mean()) ** 2)
        kurt = np.mean((e - e.mean()) ** 4) / m2**2
        assert jb == pytest.approx(e.size / 6.0 * ((kurt - 3.0) ** 2 / 4.0), abs=1e-10)

    def test_size_close_to_nominal_at_t50(self):
        rng = np.random.default_rng(77)
        reps, rejections = 1000, 0
        for _ in range(reps):
            _, p = jarque_bera_stat(rng.standard_normal(50))
            rejections += p < 0.05
        assert abs(rejections / reps - 0.05) <= 0.03

    def test_power_against_heavy_tails(self):
        rng = np.random.default_rng(88)
        reps, rejections = 200, 0
        for _ in range(reps):
            _, p = jarque_bera_stat(rng.standard_t(3, size=200))
            rejections += p < 0.05
        assert rejections / reps > 0.5

    def test_per_country_results(self):
        rng = np.random.default_rng(5)
        out = jarque_bera({"A": rng.standard_normal(50), "B": rng.standard_normal(50)})
        assert set(out) == {"A", "B"}
        for r in out.values():
            assert r.df == 2
            assert 0.0 <= r.p_value <= 1.0

    def test_short_series_rejected(self):
        with pytest.raises(InputError, match="at least 8"):
            jarque_bera_stat(np.arange(5.0))

    def test_zero_variance_degenerate(self):
        with pytest.raises(NumericalError):
            jarque_bera_stat(np.ones(20))


def reset_on(x, y, beta):
    """RESET on a one-country design ``x``, ``y`` with coefficients ``beta``."""
    n, k = x.shape
    design = labelled_design(y, x, [f"x{j}" for j in range(k)], ["A"] * n, np.arange(n), ["A"])
    fit = FitResult(design=design, beta=beta, cov=np.eye(k), residuals=y - x @ beta)
    return ramsey_reset(fit)


class TestRamseyReset:
    def _design(self, seed, quadratic=False):
        def maker(rng, x):
            y = x @ np.array([1.0, -0.5]) + 0.5 * rng.standard_normal(len(x))
            if quadratic:
                y = y + 0.6 * x[:, 0] ** 2
            return y

        return stacked_design(
            ("A", "B"),
            60,
            x_maker=lambda rng: rng.standard_normal((60, 2)),
            y_maker=maker,
            shared_slopes=True,
            seed=seed,
        )

    def test_size_on_correct_specification(self):
        high_p = 0
        reps = 200
        for seed in range(reps):
            design = self._design(seed)
            fit = ols_fit_design(design)
            high_p += ramsey_reset(fit).p_value > 0.10
        assert high_p / reps >= 0.84

    def test_power_against_omitted_quadratic(self):
        rejections = 0
        reps = 100
        for seed in range(reps):
            design = self._design(seed, quadratic=True)
            fit = ols_fit_design(design)
            rejections += ramsey_reset(fit).p_value < 0.05
        assert rejections / reps > 0.8

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dgp_design(seed=6)[0],
            lambda: unbalanced_design(3, n_countries=5, span=40, k=3),
            lambda: TestRamseyReset._design(None, 4, quadratic=True),
        ],
        ids=["dgp", "unbalanced", "quadratic"],
    )
    def test_f_matches_exact_arithmetic(self, make):
        design = make()
        fit = sur_egls_fit(design, iterate=False)
        exact = reset_exact_f(fit)
        assert ramsey_reset(fit).statistic == pytest.approx(exact, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 60),
        k=st.integers(2, 5),
        weight=st.sampled_from([0.0, 1e-9, 1.0]),
    )
    def test_f_and_p_valid_even_when_the_powers_add_nothing(self, seed, n, k, weight):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
        beta = rng.standard_normal(k)
        fitted = x @ beta
        z = (fitted - fitted.mean()) / fitted.std()
        aug = np.column_stack([x, z**2, z**3])
        e = rng.standard_normal(n)
        e -= aug @ np.linalg.lstsq(aug, e, rcond=None)[0]  # orthogonal to both powers
        power = z**2 - x @ np.linalg.lstsq(x, z**2, rcond=None)[0]
        result = reset_on(x, fitted + e + weight * power, beta)
        assert result.statistic >= 0.0
        assert 0.0 <= result.p_value <= 1.0

    def test_too_few_rows_is_numerical_error(self):
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
        with pytest.raises(NumericalError, match=r"not enough rows \(5\) for RESET's 5"):
            reset_on(x, rng.standard_normal(5), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("dependent", ["fitted^2, fitted^3", "fitted^3"])
    def test_collinear_power_is_named(self, dependent):
        rng = np.random.default_rng(5)
        group = np.repeat([1.0, 0.0], 15)
        x = np.column_stack([group, 1.0 - group, rng.standard_normal(30)])
        if dependent.startswith("fitted^2"):
            # two fitted levels, 2 and 1: z^2 is constant, z^3 a multiple of z
            beta = np.array([2.0, 1.0, 0.0])
        else:
            fitted = x[:, 2].copy()
            z = (fitted - fitted.mean()) / fitted.std()
            x = np.column_stack([x, z**3])
            beta = np.array([0.0, 0.0, 1.0, 0.0])
        fitted = x @ beta
        message = (
            "RESET augmentation is collinear with the design: "
            "singular design: dependent columns "
        )
        with pytest.raises(NumericalError, match=re.escape(message + dependent) + "$"):
            reset_on(x, fitted + rng.standard_normal(30), beta)

    def test_runs_on_system_fit(self):
        design, _, _ = dgp_design(seed=6)
        fit = sur_egls_fit(design, iterate=False)
        result = ramsey_reset(fit)
        assert result.df[0] == 2
        assert 0.0 <= result.p_value <= 1.0
