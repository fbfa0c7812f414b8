import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import InputError, NumericalError, build_panel
from leaguebalance.econometrics import (
    DesignMatrix,
    RegressionSpec,
    build_adl_design,
)
from leaguebalance.econometrics.design import YearGrid
from leaguebalance.panel import MacroObservation
from leaguebalance.pipeline import series_from_values
from leaguebalance.simulate import DgpParams, simulate_dgp
from support import (
    adl_design_reference,
    build_adl_lag_design,
    cumulated_lag_coefficients,
    dgp_design,
    gaussian_loglik,
    labelled_design,
    ols_fit,
    year_grid_reference,
)


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
        assert gaussian_loglik(fit.residuals) == pytest.approx(expected, abs=1e-10)


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
        panel = build_panel(macro)
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
        panel = build_panel(sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        series = {k: v for k, v in series.items() if k[0] != "C3"}
        with pytest.raises(InputError, match="alignment error"):
            build_adl_design(panel, series, RegressionSpec(index_name="sdc_ki"))

    def test_log_domain_error_on_zero_index(self):
        sim = simulate_dgp(seed=0)
        panel = build_panel(sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        key = ("C1", 1975)
        series[key] = 0.0
        with pytest.raises(InputError, match="log-domain"):
            build_adl_design(panel, series, RegressionSpec(index_name="sdc_ki"))


@st.composite
def unbalanced_inputs(draw):
    """A random unbalanced panel, an index series over it and a spec.

    Countries enter and leave at random seasons around the 1997 cutoff; each
    country's index coverage is its seasons trimmed at either end.  A country
    may carry one fault: coverage too short for the lag order, a gap, a
    non-positive value, or keys outside the panel that the design must ignore.
    """
    names = draw(st.permutations(["ITA", "BEL", "SWE", "ENG", "GRE"]))
    countries = names[: draw(st.integers(1, 4))]
    q = draw(st.integers(1, 3))
    spec = RegressionSpec(
        "sdc_ki",
        adl_order=q,
        trend_degree=draw(st.integers(0, 3)),
        include_d97=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    faults = [None] * 6 + ["short", "gap", "zero", "outside"]
    macro, series = [], {}
    for country in countries:
        start, length = draw(st.integers(1985, 2000)), draw(st.integers(10, 16))
        seasons = list(range(start, start + length))
        for season in seasons:
            att, pop, rgni, un = rng.uniform(0.5, 2.0, size=4) * (1e4, 1e7, 2e4, 8.0)
            macro.append(MacroObservation(country, season, att, pop, rgni, un))
        fault = draw(st.sampled_from(faults))
        lo = draw(st.integers(0, 3))
        hi = lo + draw(st.integers(1, q)) if fault == "short" else length - draw(st.integers(0, 3))
        covered = seasons[lo:hi]
        for season in covered:
            series[(country, season)] = float(rng.uniform(0.05, 1.0))
        if fault == "gap":
            del series[(country, draw(st.sampled_from(covered[1:-1])))]
        elif fault == "zero":
            series[(country, draw(st.sampled_from(covered)))] = draw(st.sampled_from([0.0, -0.25]))
        elif fault == "outside":
            series[(country, start - 1)] = series[(country, start + length)] = 0.5
            series[("XYZ", start)] = 0.5
    return build_panel(macro), series, spec


def _design_or_error(builder, panel, series, spec):
    try:
        return builder(panel, series, spec)
    except InputError as exc:
        return str(exc)


class TestDesignAgainstReference:
    """The grid builder against the per-country reference in ``support``."""

    @settings(max_examples=300, deadline=None)
    @given(unbalanced_inputs())
    def test_same_design_or_same_error(self, inputs):
        panel, series, spec = inputs
        got = _design_or_error(build_adl_design, panel, series, spec)
        want = _design_or_error(adl_design_reference, panel, series, spec)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        for name in ("y", "X"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert got.columns == want.columns
        assert got.countries.tolist() == want.countries.tolist()
        assert got.years.tolist() == want.years.tolist()
        assert got.country_list == want.country_list

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dgp_design_matches_reference(self, seed):
        sim = simulate_dgp(seed=seed)
        panel = build_panel(sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        spec = RegressionSpec(index_name="sdc_ki")
        got = build_adl_design(panel, series, spec)
        want = adl_design_reference(panel, series, spec)
        assert got.X.tobytes() == want.X.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.columns == want.columns


def assert_grid_matches_reference(design, want):
    """``design.grid`` equals the grid worked out from ``want``'s per-row
    labels, and no year of it is all-absent."""
    years, row, mask, patterns = year_grid_reference(want.countries, want.years, want.country_list)
    grid = design.grid
    assert grid.years.tolist() == years.tolist()
    assert grid.row.tolist() == row.tolist()
    assert grid.mask.tolist() == mask.tolist()
    assert [(p.tolist(), t.tolist()) for p, t in grid.patterns] == [
        (p.tolist(), t.tolist()) for p, t in patterns
    ]
    assert grid.mask.any(axis=1).all()


class TestDesignGrid:
    """The (years, countries) grid the design carries for SUR."""

    @settings(max_examples=150, deadline=None)
    @given(unbalanced_inputs())
    def test_grid_matches_label_reference(self, inputs):
        panel, series, spec = inputs
        try:
            want = adl_design_reference(panel, series, spec)
        except InputError:
            return
        assert_grid_matches_reference(build_adl_design(panel, series, spec), want)

    def test_disjoint_countries_leave_no_empty_year(self):
        spans = {"ITA": range(1985, 1995), "BEL": range(2000, 2010)}
        macro = [
            MacroObservation(c, s, 1e4 + s, 1e7, 2e4, 8.0)
            for c, span in spans.items()
            for s in span
        ]
        panel = build_panel(macro)
        series = {(m.country, m.season): 0.5 for m in macro}
        spec = RegressionSpec("sdc_ki")
        design = build_adl_design(panel, series, spec)
        assert_grid_matches_reference(design, adl_design_reference(panel, series, spec))
        assert design.grid.years.tolist() == list(range(1987, 1995)) + list(range(2002, 2010))
        assert [p.tolist() for p, _ in design.grid.patterns] == [[1], [0]]

    def test_labels_round_trip_in_any_row_order(self):
        rng = np.random.default_rng(4)
        countries = ["A", "B", "C"]
        cells = [(c, t) for c in countries for t in range(1990, 2000) if (c, t) != ("B", 1993)]
        order = rng.permutation(len(cells))
        labels_c = np.array([cells[i][0] for i in order], dtype=object)
        labels_t = np.array([cells[i][1] for i in order])
        design = labelled_design(
            y=rng.standard_normal(order.size),
            X=rng.standard_normal((order.size, 2)),
            columns=["x0", "x1"],
            countries=labels_c,
            years=labels_t,
            country_list=countries,
        )
        assert design.countries.tolist() == labels_c.tolist()
        assert design.years.tolist() == labels_t.tolist()
        assert len(design.grid.patterns) == 2

    def test_grid_must_hold_each_row_once(self):
        design, _, _ = dgp_design(seed=0)
        row = design.grid.row.copy()
        row[0, 0] = row[0, 1]
        with pytest.raises(NumericalError, match="design grid"):
            DesignMatrix(
                y=design.y, X=design.X, columns=design.columns,
                country_list=design.country_list, grid=YearGrid(design.grid.years, row),
            )


class TestReparameterization:
    """The lag form and the levels-and-differences form span the same space."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_residuals_sigma_loglik(self, seed):
        params = DgpParams(countries=("C1", "C2", "C3", "C4"), n_seasons=30, start_season=1975)
        sim = simulate_dgp(params, seed=seed)
        panel = build_panel(sim.macro)
        series = series_from_values(sim.indices, "sdc_ki")
        spec = RegressionSpec(index_name="sdc_ki")
        levels = build_adl_design(panel, series, spec)
        lags = build_adl_lag_design(panel, series, spec)
        f1 = ols_fit(levels.y, levels.X, levels.columns)
        f2 = ols_fit(lags.y, lags.X, lags.columns)
        assert np.max(np.abs(f1.residuals - f2.residuals)) < 1e-8
        rss1 = float(f1.residuals @ f1.residuals) / (f1.design.nobs - len(f1.design.columns))
        rss2 = float(f2.residuals @ f2.residuals) / (f2.design.nobs - len(f2.design.columns))
        assert rss1 == pytest.approx(rss2, abs=1e-8)
        ll1, ll2 = gaussian_loglik(f1.residuals), gaussian_loglik(f2.residuals)
        assert ll1 == pytest.approx(ll2, abs=1e-8)
        # fitted attendance levels agree once the lagged level is added back
        att_lag = levels.X[:, levels.columns.index("ln_att_lag1")]
        fitted1, fitted2 = levels.X @ f1.beta, lags.X @ f2.beta
        assert np.max(np.abs((fitted1 + att_lag) - fitted2)) < 1e-8

    def test_level_coefficients_equal_lag_sums(self):
        sim = simulate_dgp(
            DgpParams(countries=("C1", "C2", "C3"), n_seasons=40, start_season=1970), seed=5
        )
        panel = build_panel(sim.macro)
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
        panel = build_panel(sim.macro)
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
