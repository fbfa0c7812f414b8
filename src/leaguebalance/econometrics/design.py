"""ADL design matrices for the pooled attendance regression.

The autoregressive distributed lag relation is fitted in its
levels-and-differences form: each covariate enters as one lagged level (its
cumulated lag coefficient) plus current and lagged first differences, and
lagged attendance enters with a free coefficient whose negation is the
error-correction loading A(1).  It spans the same column space as the plain
lag form (levels of every variable at lags 0..q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError, NumericalError
from ..panel import PanelDataset

COVARIATES = ("cb", "pop", "rgni", "un")

_PANEL_FIELD = {"pop": "ln_pop", "rgni": "ln_rgni", "un": "ln_un"}


@dataclass(frozen=True)
class RegressionSpec:
    """What to regress: which index, lag order, trend degree, d97 switch."""

    index_name: str
    adl_order: int = 2
    trend_degree: int = 2
    include_d97: bool = True
    countries: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.adl_order < 1:
            raise InputError("adl_order must be >= 1")
        if self.trend_degree < 0:
            raise InputError("trend_degree must be >= 0")


@dataclass(frozen=True)
class DesignMatrix:
    """Stacked regression rows with country and year labels per row."""

    y: np.ndarray
    X: np.ndarray
    columns: list[str]
    countries: np.ndarray  # per-row country id
    years: np.ndarray  # per-row season
    spec: RegressionSpec
    country_list: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.X.shape != (self.y.size, len(self.columns)):
            raise NumericalError("design matrix shape does not match columns/response")

    @property
    def nobs(self) -> int:
        return int(self.y.size)


def trend_columns(degree: int) -> list[str]:
    return [f"t{g}" if g > 1 else "t" for g in range(1, degree + 1)]


def _aligned_series(panel: PanelDataset, index_series, spec: RegressionSpec):
    """Per-country aligned arrays of ln values, trimmed to index coverage."""
    by_country = panel.by_country()
    countries = list(by_country)
    if spec.countries is not None:
        missing = [c for c in spec.countries if c not in by_country]
        if missing:
            raise InputError(f"countries not in panel: {missing}")
        countries = list(spec.countries)

    out = {}
    for country in countries:
        rows = by_country[country]
        have = [r for r in rows if (country, r.season) in index_series]
        if len(have) < spec.adl_order + 1:
            raise InputError(
                f"alignment error: index {spec.index_name!r} covers only {len(have)} "
                f"season(s) of {country}, need at least {spec.adl_order + 1}"
            )
        seasons = [r.season for r in have]
        for a, b in zip(seasons, seasons[1:]):
            if b != a + 1:
                raise InputError(
                    f"alignment error: index {spec.index_name!r} has a gap for {country} "
                    f"between {a} and {b}"
                )
        ln_cb = []
        for r in have:
            value = index_series[(country, r.season)]
            if value <= 0.0:
                raise InputError(
                    f"log-domain error: index {spec.index_name!r} is {value} "
                    f"for ({country}, {r.season})"
                )
            ln_cb.append(math.log(value))
        out[country] = {
            "season": np.array(seasons),
            "t": np.array([r.t for r in have], dtype=float),
            "d97": np.array([r.d97 for r in have], dtype=float),
            "cb": np.array(ln_cb),
            "att": np.array([r.ln_att for r in have]),
            "pop": np.array([r.ln_pop for r in have]),
            "rgni": np.array([r.ln_rgni for r in have]),
            "un": np.array([r.ln_un for r in have]),
        }
    return out, countries


def _deterministic_block(data, sl, spec: RegressionSpec):
    cols: list[np.ndarray] = []
    names: list[str] = []
    if spec.include_d97:
        cols.append(data["d97"][sl])
        names.append("d97")
    for g in range(1, spec.trend_degree + 1):
        cols.append(data["t"][sl] ** g)
        names.append(trend_columns(spec.trend_degree)[g - 1])
    return cols, names


def build_adl_design(panel: PanelDataset, index_series, spec: RegressionSpec) -> DesignMatrix:
    """Levels-and-differences design for the attendance model.

    Response is the first difference of log attendance.  Regressors per
    covariate x: x_{t-1} in levels plus differences dx_t, dx_{t-1}, ...,
    dx_{t-q+1}; lagged log attendance and its lagged differences; country
    intercepts; d97 and polynomial trend.  The first q rows of each country
    are dropped for lag availability.

    ``index_series`` maps (country, season) to the raw index value, which
    enters in logs.
    """
    q = spec.adl_order
    data, countries = _aligned_series(panel, index_series, spec)

    var_names: list[str] = [f"const[{c}]" for c in countries]
    for v in COVARIATES:
        var_names.append(f"ln_{v}_lag1")
        var_names.append(f"d_ln_{v}")
        var_names.extend(f"d_ln_{v}_lag{l}" for l in range(1, q))
    var_names.append("ln_att_lag1")
    var_names.extend(f"d_ln_att_lag{l}" for l in range(1, q))
    det_names = (["d97"] if spec.include_d97 else []) + trend_columns(spec.trend_degree)
    var_names.extend(det_names)

    y_parts, x_parts, country_rows, year_rows = [], [], [], []
    for ci, country in enumerate(countries):
        d = data[country]
        n = d["season"].size
        sl = slice(q, n)
        rows = n - q
        cols: list[np.ndarray] = []
        for cj in range(len(countries)):
            cols.append(np.full(rows, 1.0 if cj == ci else 0.0))
        for v in COVARIATES:
            x = d[v]
            dx = np.diff(x)  # dx[i] = x[i+1] - x[i]
            cols.append(x[q - 1 : n - 1])  # x_{t-1}
            cols.append(dx[q - 1 :])  # dx_t
            for l in range(1, q):
                cols.append(dx[q - 1 - l : n - 1 - l])
        att = d["att"]
        datt = np.diff(att)
        cols.append(att[q - 1 : n - 1])
        for l in range(1, q):
            cols.append(datt[q - 1 - l : n - 1 - l])
        det_cols, _ = _deterministic_block(d, sl, spec)
        cols.extend(det_cols)

        y_parts.append(datt[q - 1 :])
        x_parts.append(np.column_stack(cols))
        country_rows.append(np.full(rows, country, dtype=object))
        year_rows.append(d["season"][sl])

    return DesignMatrix(
        y=np.concatenate(y_parts),
        X=np.vstack(x_parts),
        columns=var_names,
        countries=np.concatenate(country_rows),
        years=np.concatenate(year_rows).astype(int),
        spec=spec,
        country_list=countries,
    )
