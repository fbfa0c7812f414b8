import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import InputError, NumericalError
from leaguebalance.econometrics import (
    long_run_effects,
    sur_egls_fit,
    white_cross_section_cov,
)
from leaguebalance.econometrics.sur import _lower_inverse, pairwise_sigma, repair_covariance
from support import dgp_design, labelled_design, ols_fit, ols_fit_design


def stacked_design(countries, t_len, x_maker, y_maker, shared_slopes=False, seed=0):
    """Hand-built stacked design with country-interacted or shared columns."""
    rng = np.random.default_rng(seed)
    blocks_x, blocks_y, rows_c, rows_t = [], [], [], []
    x_all = {c: x_maker(rng) for c in countries}
    for c in countries:
        blocks_y.append(y_maker(rng, x_all[c]))
        rows_c.extend([c] * t_len)
        rows_t.extend(range(1980, 1980 + t_len))
    k = x_all[countries[0]].shape[1]
    if shared_slopes:
        columns = [f"const[{c}]" for c in countries] + [f"x{j}" for j in range(k)]
        x_full = np.zeros((t_len * len(countries), len(columns)))
        for ci, c in enumerate(countries):
            sl = slice(ci * t_len, (ci + 1) * t_len)
            x_full[sl, ci] = 1.0
            x_full[sl, len(countries):] = x_all[c]
    else:
        columns = []
        for c in countries:
            columns += [f"const[{c}]"] + [f"x{j}[{c}]" for j in range(k)]
        width = 1 + k
        x_full = np.zeros((t_len * len(countries), width * len(countries)))
        for ci, c in enumerate(countries):
            sl = slice(ci * t_len, (ci + 1) * t_len)
            x_full[sl, ci * width] = 1.0
            x_full[sl, ci * width + 1 : (ci + 1) * width] = x_all[c]
    return labelled_design(
        y=np.concatenate(blocks_y),
        X=x_full,
        columns=columns,
        countries=np.array(rows_c, dtype=object),
        years=np.array(rows_t),
        country_list=list(countries),
    )


def unbalanced_design(seed, n_countries=4, span=30, k=2):
    """Shared-slope stacked design on which each country covers one random
    contiguous span of years, so several presence patterns occur."""
    rng = np.random.default_rng(seed)
    countries = [f"C{j}" for j in range(n_countries)]
    columns = [f"const[{c}]" for c in countries] + [f"x{j}" for j in range(k)]
    xs, ys, rows_c, rows_t = [], [], [], []
    for ci, c in enumerate(countries):
        start = int(rng.integers(0, span // 3))
        stop = span - int(rng.integers(0, span // 3))
        t = stop - start
        x = np.zeros((t, len(columns)))
        x[:, ci] = 1.0
        x[:, n_countries:] = rng.standard_normal((t, k))
        xs.append(x)
        ys.append(x[:, n_countries:] @ np.linspace(1.0, -1.0, k) + rng.standard_normal(t))
        rows_c.extend([c] * t)
        rows_t.extend(range(1980 + start, 1980 + stop))
    return labelled_design(
        y=np.concatenate(ys),
        X=np.vstack(xs),
        columns=columns,
        countries=np.array(rows_c, dtype=object),
        years=np.array(rows_t),
        country_list=countries,
    )


def per_year_gls(design, sigma, resid=None):
    """Reference GLS by per-year Cholesky normal equations: coefficients,
    (X' O^-1 X)^-1 and, given residuals, the year-clustered sandwich."""
    k = len(design.columns)
    a, b, meat = np.zeros((k, k)), np.zeros(k), np.zeros((k, k))
    for year in np.unique(design.years):
        idx = np.flatnonzero(design.years == year)
        present = [design.country_list.index(c) for c in design.countries[idx]]
        chol = np.linalg.cholesky(sigma[np.ix_(present, present)])
        oix = np.linalg.solve(chol.T, np.linalg.solve(chol, design.X[idx]))
        a += design.X[idx].T @ oix
        b += oix.T @ design.y[idx]
        if resid is not None:
            score = oix.T @ resid[idx]
            meat += np.outer(score, score)
    a_inv = np.linalg.inv(a)
    return np.linalg.solve(a, b), a_inv, a_inv @ meat @ a_inv


def random_sigma(rng, n):
    root = rng.standard_normal((n, n))
    return root @ root.T / n + np.diag(rng.uniform(0.5, 2.0, n))


class TestZellnerEquivalences:
    def test_gls_equals_ols_under_diagonal_equal_sigma(self):
        design = stacked_design(
            ("A", "B", "C"),
            40,
            x_maker=lambda rng: rng.standard_normal((40, 2)),
            y_maker=lambda rng, x: x @ np.array([1.0, -0.5]) + rng.standard_normal(40),
            shared_slopes=True,
        )
        sigma = 0.7 * np.eye(3)
        gls = sur_egls_fit(design, sigma=sigma)
        ols = ols_fit(design.y, design.X, design.columns)
        assert np.max(np.abs(gls.beta - ols.beta)) < 1e-6

    def test_identical_regressors_unrestricted_equals_per_equation_ols(self):
        rng = np.random.default_rng(3)
        shared_x = rng.standard_normal((35, 2))
        design = stacked_design(
            ("A", "B"),
            35,
            x_maker=lambda _rng: shared_x,
            y_maker=lambda _rng, x: x @ _rng.standard_normal(2) + _rng.standard_normal(35),
            shared_slopes=False,
            seed=9,
        )
        fgls = sur_egls_fit(design, iterate=True)
        for ci, c in enumerate(("A", "B")):
            mask = design.countries == c
            x_eq = np.column_stack([np.ones(35), shared_x])
            beta_eq, *_ = np.linalg.lstsq(x_eq, design.y[mask], rcond=None)
            assert fgls.coef(f"const[{c}]") == pytest.approx(beta_eq[0], abs=1e-8)
            assert fgls.coef(f"x0[{c}]") == pytest.approx(beta_eq[1], abs=1e-8)
            assert fgls.coef(f"x1[{c}]") == pytest.approx(beta_eq[2], abs=1e-8)


class TestSurOnDgp:
    def test_coefficients_within_three_robust_ses(self):
        design, sim, spec = dgp_design(seed=12)
        fit = sur_egls_fit(design, iterate=True)
        fit.cov_robust = white_cross_section_cov(fit)
        for name, truth in sim.coefficients.items():
            assert abs(fit.coef(name) - truth) <= 3.0 * fit.se(name, robust=True), name

    def test_iteration_converges(self):
        design, _, _ = dgp_design(seed=1)
        fit = sur_egls_fit(design, iterate=True, tol=1e-8, max_iter=100)
        assert 1 < fit.iterations < 100
        assert fit.converged and fit.final_delta < 1e-8

    def test_stopping_at_max_iter_is_recorded(self):
        design, _, _ = dgp_design(seed=1)
        with pytest.warns(UserWarning, match="max_iter=2 without converging"):
            fit = sur_egls_fit(design, iterate=True, max_iter=2)
        assert fit.iterations == 2
        assert not fit.converged
        assert fit.final_delta >= 1e-8

    def test_two_step_close_to_iterated_under_weak_correlation(self):
        from leaguebalance.simulate import DgpParams

        params = DgpParams(error_corr=0.0, error_sd_min=0.01, error_sd_max=0.01)
        design, _, _ = dgp_design(seed=2, params=params)
        two_step = sur_egls_fit(design, iterate=False)
        iterated = sur_egls_fit(design, iterate=True)
        scale = np.maximum(np.abs(iterated.beta), 1.0)
        assert np.max(np.abs(two_step.beta - iterated.beta) / scale) < 1e-2

    def test_needs_two_countries(self):
        solo = stacked_design(
            ("A",),
            30,
            x_maker=lambda rng: rng.standard_normal((30, 2)),
            y_maker=lambda rng, x: rng.standard_normal(30),
        )
        with pytest.raises(InputError, match="at least 2"):
            sur_egls_fit(solo)

    def test_residual_means_near_zero_per_country(self):
        design, _, _ = dgp_design(seed=3)
        fit = sur_egls_fit(design, iterate=True)
        for c, e in fit.residual_series().items():
            assert abs(float(e.mean())) < 5e-3, c


class TestGridGls:
    """Per-pattern whitening plus QR against per-year normal equations."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_year_normal_equations(self, seed):
        design = unbalanced_design(seed)
        sigma = random_sigma(np.random.default_rng(seed), len(design.country_list))
        fit = sur_egls_fit(design, sigma=sigma)
        beta, cov, _ = per_year_gls(design, sigma)
        assert len({tuple(design.countries[design.years == t]) for t in design.years}) > 1
        assert np.allclose(fit.beta, beta, rtol=1e-10, atol=1e-10)
        assert np.allclose(fit.cov, cov, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich_matches_per_year_scores(self, seed):
        design = unbalanced_design(seed)
        sigma = random_sigma(np.random.default_rng(seed), len(design.country_list))
        fit = sur_egls_fit(design, sigma=sigma)
        *_, sandwich = per_year_gls(design, sigma, fit.residuals)
        assert np.allclose(white_cross_section_cov(fit), sandwich, rtol=1e-10, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-12, 1.0))
    def test_robust_variances_are_nonnegative(self, seed, scale):
        # a badly scaled covariance and arbitrary residuals: the sandwich is
        # B'B, so no rounding can make a variance negative
        rng = np.random.default_rng(seed)
        design = unbalanced_design(seed % 1000)
        n = len(design.country_list)
        spread = np.logspace(0, -3, n)
        fit = sur_egls_fit(design, sigma=random_sigma(rng, n) * np.outer(spread, spread) * scale)
        fit.residuals = rng.standard_normal(design.nobs) * rng.uniform(0.0, 1e3, design.nobs)
        assert np.all(np.diag(white_cross_section_cov(fit)) >= 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_lower_inverse_matches_triangular_solve(n, seed):
    from scipy.linalg import solve_triangular

    b = np.random.default_rng(seed).standard_normal((n, n))
    chol = np.linalg.cholesky(b @ b.T + n * np.eye(n))
    inv = _lower_inverse(chol)
    assert np.all(inv[np.triu_indices(n, 1)] == 0.0)
    ref = solve_triangular(chol, np.eye(n), lower=True)
    assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSigmaEstimation:
    def test_pairwise_overlap_only(self):
        # years 1990-1993 by countries A, B; B is present in 1992-1993 only
        resid = np.array([[1.0, np.nan], [1.0, np.nan], [1.0, 2.0], [1.0, 2.0]])
        sigma = pairwise_sigma(resid, ~np.isnan(resid))
        assert sigma[0, 0] == pytest.approx(1.0)
        assert sigma[1, 1] == pytest.approx(4.0)
        assert sigma[0, 1] == pytest.approx(2.0)  # overlap years 1992-1993 only

    def test_repair_floors_eigenvalues(self):
        bad = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        with pytest.warns(UserWarning, match="repaired"):
            fixed = repair_covariance(bad)
        assert np.linalg.eigvalsh(fixed).min() >= 1e-10
        with pytest.raises(NumericalError, match="irreparable"):
            repair_covariance(np.full((2, 2), np.nan))


class TestWhiteCrossSectionCov:
    def test_doubling_residuals_scales_covariance_by_four(self):
        design, _, _ = dgp_design(seed=4)
        fit = sur_egls_fit(design, iterate=True)
        v1 = white_cross_section_cov(fit)
        doubled = copy.deepcopy(fit)
        doubled.residuals = 2.0 * doubled.residuals
        v2 = white_cross_section_cov(doubled)
        assert np.allclose(v2, 4.0 * v1, rtol=1e-12)

    def test_single_country_reduces_to_hc0(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 2))
        design = stacked_design(
            ("A",),
            60,
            x_maker=lambda _rng: x,
            y_maker=lambda _rng, xx: xx @ np.array([1.0, 2.0]) + _rng.standard_normal(60) * (1 + np.abs(xx[:, 0])),
            shared_slopes=True,
            seed=8,
        )
        fit = ols_fit_design(design)
        v = white_cross_section_cov(fit)
        xs = design.X
        u = fit.residuals
        bread = np.linalg.inv(xs.T @ xs)
        meat = xs.T @ (xs * (u**2)[:, None])
        hc0 = bread @ meat @ bread
        assert np.allclose(v, hc0, rtol=1e-10)

    def test_robust_close_to_classical_under_homoskedasticity(self):
        ratios = []
        for seed in range(20):
            design = stacked_design(
                ("A", "B", "C", "D"),
                50,
                x_maker=lambda rng: rng.standard_normal((50, 2)),
                y_maker=lambda rng, x: x @ np.array([1.0, -1.0]) + rng.standard_normal(50),
                shared_slopes=True,
                seed=seed,
            )
            fit = sur_egls_fit(design, iterate=False)
            robust = np.sqrt(np.diag(white_cross_section_cov(fit)))
            classical = np.sqrt(np.diag(fit.cov))
            ratios.append(float(np.mean(robust / classical)))
        assert abs(np.mean(ratios) - 1.0) < 0.25

    def test_warns_when_fewer_years_than_coefficients(self):
        design = stacked_design(
            tuple("ABCDEF"),
            4,
            x_maker=lambda rng: rng.standard_normal((4, 2)),
            y_maker=lambda rng, x: rng.standard_normal(4),
            shared_slopes=True,
            seed=2,
        )
        fit = sur_egls_fit(design, iterate=False)
        with pytest.warns(UserWarning, match="rank deficient"):
            white_cross_section_cov(fit)
