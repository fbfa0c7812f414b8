import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import InputError, NumericalError
from leaguebalance.econometrics import adf_test, fisher_panel_unit_root
from leaguebalance.econometrics.unitroot import ADF_CASES, adf_p_value
from support import adf_exact_tstat, adf_lstsq_reference, generate_adf_table, write_adf_table


class TestFisherCombination:
    def test_all_ones_give_zero_statistic(self):
        result = fisher_panel_unit_root([1.0] * 5)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_eight_halves(self):
        result = fisher_panel_unit_root([0.5] * 8)
        assert result.statistic == pytest.approx(16.0 * math.log(2.0), abs=1e-9)
        assert result.df == 16

    def test_monotone_in_each_input(self):
        base = fisher_panel_unit_root([0.5, 0.5, 0.5]).statistic
        for smaller in ([0.4, 0.5, 0.5], [0.5, 0.2, 0.5], [0.5, 0.5, 0.499]):
            assert fisher_panel_unit_root(smaller).statistic > base

    def test_zero_p_sentinel(self):
        result = fisher_panel_unit_root([0.5, 0.0, 0.7])
        assert math.isinf(result.statistic)
        assert result.p_value == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            fisher_panel_unit_root([0.5, 1.2])
        with pytest.raises(InputError):
            fisher_panel_unit_root([])


class TestAdfPValueTable:
    def test_p_monotone_in_statistic(self):
        for case in ADF_CASES:
            ps = [adf_p_value(s, case, 200) for s in (-5.0, -3.0, -2.0, -1.0, 0.0, 1.0)]
            assert ps == sorted(ps)
            assert ps[0] < 0.01 < 0.99 < ps[-1] or ps[0] < ps[-1]

    def test_interpolates_between_sample_sizes(self):
        p50 = adf_p_value(-2.9, "c", 50)
        p100 = adf_p_value(-2.9, "c", 100)
        p75 = adf_p_value(-2.9, "c", 75)
        assert min(p50, p100) <= p75 <= max(p50, p100)

    def test_small_regeneration_matches_shipped_table(self):
        # coarse check: 4000-rep regeneration reproduces the shipped
        # quantiles to Monte Carlo accuracy at the 5% point
        rows = generate_adf_table(reps=4000, t_grid=(200,))
        med = {
            (case, q): v for case, t, q, v in rows if abs(q - 0.05) < 1e-12
        }
        for case in ADF_CASES:
            lo, hi = -6.0, 2.0
            for _ in range(50):
                mid = (lo + hi) / 2
                if adf_p_value(mid, case, 200) < 0.05:
                    lo = mid
                else:
                    hi = mid
            assert med[(case, 0.05)] == pytest.approx(lo, abs=0.08)

    def test_regenerated_table_matches_shipped_bytes(self, tmp_path):
        # both cases and every T bucket, at the reps and seed of its header
        path = tmp_path / "adf_quantiles.csv"
        write_adf_table(generate_adf_table(), path)
        shipped = resources.files("leaguebalance").joinpath("data/adf_quantiles.csv")
        assert path.read_bytes() == shipped.read_bytes()


class TestAdfTest:
    def test_constant_series_degenerate(self):
        with pytest.raises(NumericalError, match="constant"):
            adf_test(np.ones(50))

    @pytest.mark.parametrize("case", ["c", "ct"])
    def test_deterministic_trend_is_rank_deficient(self, case):
        with pytest.raises(NumericalError, match="rank deficient"):
            adf_test(np.arange(30.0), case)

    def test_exact_fit_with_full_rank_regressors_is_rejected(self):
        # [1, y_{t-1}] has full rank on a straight line, but the constant
        # alone fits the differences: the residual is rounding noise
        with pytest.raises(NumericalError, match="lag 0 fits exactly"):
            adf_test(np.arange(30.0), "c", max_lag=0)
        with pytest.raises(NumericalError, match="fits exactly"):
            adf_test(0.3 + 0.01 * np.arange(40.0), "c", max_lag=0)

    @pytest.mark.parametrize("case", ADF_CASES)
    def test_scale_invariant(self, case):
        w = np.cumsum(np.random.default_rng(3).standard_normal(48))
        base = adf_test(w, case)
        for scale in (1e-12, 1e-8, 1.0, 1e8, 1e12):
            result = adf_test(scale * w, case)
            assert result.lag == base.lag
            assert result.statistic == pytest.approx(base.statistic, rel=1e-12, abs=0.0)

    def test_statistic_matches_exact_arithmetic(self):
        # a log population: the level is large against the deviations from
        # its trend, which the normal equations lose digits on
        rng = np.random.default_rng(48)
        y = 16.5 + 0.005 * np.arange(48.0) + 0.001 * rng.standard_normal(48)
        result = adf_test(y, "ct")
        exact = adf_exact_tstat(y, "ct", result.lag)
        assert result.statistic == pytest.approx(exact, rel=1e-11, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=20, max_value=80),
        st.sampled_from(ADF_CASES),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_lag_choice_matches_per_lag_lstsq(self, t_len, case, seed):
        y = np.cumsum(np.random.default_rng(seed).standard_normal(t_len))
        result = adf_test(y, case)
        n_det = 1 if case == "c" else 2
        default_max_lag = min(int(12 * (t_len / 100.0) ** 0.25), (t_len - n_det - 5) // 2)
        lag, statistic = adf_lstsq_reference(y, case, default_max_lag)
        assert result.lag == lag
        assert result.statistic == pytest.approx(statistic, rel=1e-8, abs=0.0)

    def test_too_short(self):
        with pytest.raises(InputError, match="too short"):
            adf_test(np.arange(8.0), max_lag=6)

    @pytest.mark.parametrize("max_lag", [-1, -3])
    def test_negative_max_lag_is_input_error(self, max_lag):
        y = np.cumsum(np.random.default_rng(0).standard_normal(60))
        with pytest.raises(InputError, match=rf"max_lag must be >= 0, got {max_lag}$"):
            adf_test(y, "c", max_lag=max_lag)

    def test_reports_chosen_lag(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.standard_normal(120))
        result = adf_test(y, "c", max_lag=6)
        assert 0 <= result.lag <= 6

    def test_random_walk_size(self):
        # null is true: p > 0.10 should happen in at least 85% of replications
        count = 0
        reps = 200
        for seed in range(reps):
            rng = np.random.default_rng([101, seed])
            y = np.cumsum(rng.standard_normal(200))
            count += adf_test(y, "c").p_value > 0.10
        assert count / reps >= 0.85

    def test_white_noise_power(self):
        count = 0
        reps = 120
        for seed in range(reps):
            rng = np.random.default_rng([202, seed])
            y = rng.standard_normal(200)
            count += adf_test(y, "c").p_value < 0.05
        assert count / reps >= 0.95

    def test_stationary_ar_rejected_often(self):
        count = 0
        reps = 60
        for seed in range(reps):
            rng = np.random.default_rng([303, seed])
            e = rng.standard_normal(200)
            y = np.empty(200)
            y[0] = e[0]
            for t in range(1, 200):
                y[t] = 0.5 * y[t - 1] + e[t]
            count += adf_test(y, "c").p_value < 0.05
        assert count / reps >= 0.9

    def test_trend_case_runs(self):
        rng = np.random.default_rng(7)
        y = 0.05 * np.arange(150) + rng.standard_normal(150)
        result = adf_test(y, "ct")
        assert result.name == "adf_ct"
        assert 0.0 <= result.p_value <= 1.0
