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
import warnings

import numpy as np

from ..errors import InputError, NumericalError
from ..panel import D97_CUTOFF, PanelDataset
from ..record import Record

COVARIATES = ("cb", "pop", "rgni", "un")


def trend_columns(degree: int) -> list[str]:
    return [f"t{g}" if g > 1 else "t" for g in range(1, degree + 1)]


class RegressionSpec(Record):
    """What to regress: which index, lag order, trend degree, d97 switch.

    The class attribute ``adl_order`` is the default lag order, which the
    CLI's ``--adl-order`` reads."""

    adl_order = 2

    def __init__(
        self,
        index_name: str,
        adl_order: int = adl_order,
        trend_degree: int = 2,
        include_d97: bool = True,
    ) -> None:
        self.__dict__.update(
            index_name=index_name,
            adl_order=adl_order,
            trend_degree=trend_degree,
            include_d97=include_d97,
        )
        if self.adl_order < 1:
            raise InputError("adl_order must be >= 1")
        if self.trend_degree < 0:
            raise InputError("trend_degree must be >= 0")

    def deterministic_columns(self) -> list[str]:
        """The deterministic regressors in design order: d97 when included,
        then the trend powers t, t2, ..."""
        return (["d97"] if self.include_d97 else []) + trend_columns(self.trend_degree)


class YearGrid:
    """The design rows on a dense (years, countries) grid.

    ``row[t, j]`` is the design row of season ``years[t]`` and country j
    (``country_list`` order), -1 where the country has no row that season
    (``mask`` False).  ``years`` holds only seasons with at least one row.
    ``patterns`` pairs each distinct presence pattern (the columns present)
    with its years, in ``np.unique(mask, axis=0)`` order.
    """

    def __init__(self, years: np.ndarray, row: np.ndarray) -> None:
        self.years, self.row, self.mask = years, row, row >= 0
        keys, which = np.unique(self.mask, axis=0, return_inverse=True)
        which = which.reshape(-1)
        self.patterns = [
            (np.flatnonzero(key), np.flatnonzero(which == p)) for p, key in enumerate(keys)
        ]

    def fill(self, values: np.ndarray) -> np.ndarray:
        """Per-row ``values`` (design rows along axis 0) placed on the grid,
        zero in the cells without a row."""
        out = np.zeros(self.row.shape + values.shape[1:])
        out[self.mask] = values[self.row[self.mask]]
        return out

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid year and country index of each design row, in row order."""
        t, j = np.nonzero(self.mask)
        order = np.argsort(self.row[t, j])
        return t[order], j[order]


class DesignMatrix(Record):
    """Stacked regression rows and the grid cell of each row."""

    def __init__(
        self,
        y: np.ndarray,
        X: np.ndarray,
        columns: list[str],
        country_list: list[str],
        grid: YearGrid,
    ) -> None:
        self.__dict__.update(y=y, X=X, columns=columns, country_list=country_list, grid=grid)
        if self.X.shape != (self.y.size, len(self.columns)):
            raise NumericalError("design matrix shape does not match columns/response")
        if not np.array_equal(np.sort(self.grid.row[self.grid.mask]), np.arange(self.nobs)):
            raise NumericalError("design grid must hold each row in exactly one cell")

    @property
    def nobs(self) -> int:
        return int(self.y.size)

    @property
    def countries(self) -> np.ndarray:
        """Per-row country label."""
        return np.array(self.country_list, dtype=object)[self.grid.cells()[1]]

    @property
    def years(self) -> np.ndarray:
        """Per-row season."""
        return self.grid.years[self.grid.cells()[0]]


def build_adl_design(panel: PanelDataset, index_series, spec: RegressionSpec) -> DesignMatrix:
    """Levels-and-differences design for the attendance model, read off the
    panel's (seasons, countries) grid.

    Response is the first difference of log attendance.  Regressors per
    covariate x: x_{t-1} in levels plus differences dx_t, dx_{t-1}, ...,
    dx_{t-q+1}; lagged log attendance and its lagged differences; country
    intercepts; d97 and polynomial trend.  A grid cell is a row when its
    country has the index in that season and in the q seasons before, so
    the first q seasons of each country's index coverage are dropped.  Rows
    run country by country, seasons ascending; the design's grid maps them
    to their (season, country) cells.

    ``index_series`` maps (country, season) to the raw index value, which
    enters in logs.  Every country's coverage must be at least q+1
    consecutive seasons of the panel.  An index country without macro rows
    has no panel column, so it is left out, with a warning naming it.  With
    d97 included, the design's seasons must lie on both sides of
    ``D97_CUTOFF``: a constant d97 is an input error.
    """
    dropped = sorted({country for country, _ in index_series} - set(panel.countries))
    if dropped:
        warnings.warn(
            f"index {spec.index_name!r} has values for {', '.join(dropped)} but the macro "
            "data has no rows for them; left out of the fit",
            stacklevel=2,
        )
    q = spec.adl_order
    seasons = panel.seasons.tolist()
    covered = np.zeros(panel.present.shape, dtype=bool)
    cb = np.full(panel.present.shape, np.nan)
    for j, country in enumerate(panel.countries):
        have = [
            i for i in np.flatnonzero(panel.present[:, j]).tolist()
            if (country, seasons[i]) in index_series
        ]
        if len(have) < q + 1:
            raise InputError(
                f"alignment error: index {spec.index_name!r} covers only {len(have)} "
                f"season(s) of {country}, need at least {q + 1}"
            )
        for a, b in zip(have, have[1:]):
            if b != a + 1:
                raise InputError(
                    f"alignment error: index {spec.index_name!r} has a gap for {country} "
                    f"between {seasons[a]} and {seasons[b]}"
                )
        for i in have:
            value = index_series[(country, seasons[i])]
            if value <= 0.0:
                raise InputError(
                    f"log-domain error: index {spec.index_name!r} is {value} "
                    f"for ({country}, {seasons[i]})"
                )
            cb[i, j] = math.log(value)
        covered[have, j] = True

    usable = np.zeros_like(covered)
    usable[q:] = np.all([covered[q - l : covered.shape[0] - l] for l in range(q + 1)], axis=0)
    jj, ii = np.nonzero(usable.T)  # country-major, seasons ascending
    row = np.full(usable.shape, -1)
    row[ii, jj] = np.arange(ii.size)
    keep = usable.any(axis=1)  # a season without rows is no year of the grid

    columns: list[str] = [f"const[{c}]" for c in panel.countries]
    cols = [(jj == j).astype(float) for j in range(len(panel.countries))]
    for v, grid in zip(COVARIATES, (cb, panel.ln_pop, panel.ln_rgni, panel.ln_un)):
        diff = np.diff(grid, axis=0, prepend=np.nan)  # diff[i] = grid[i] - grid[i-1]
        columns += [f"ln_{v}_lag1", f"d_ln_{v}"] + [f"d_ln_{v}_lag{l}" for l in range(1, q)]
        cols += [grid[ii - 1, jj]] + [diff[ii - l, jj] for l in range(q)]
    datt = np.diff(panel.ln_att, axis=0, prepend=np.nan)
    columns += ["ln_att_lag1"] + [f"d_ln_att_lag{l}" for l in range(1, q)]
    cols += [panel.ln_att[ii - 1, jj]] + [datt[ii - l, jj] for l in range(1, q)]
    years = panel.seasons[ii]
    after = years > D97_CUTOFF
    if spec.include_d97 and after.all() == after.any():
        side = "after" if after.all() else "in or before"
        raise InputError(
            f"d97 is constant: the design's seasons {years.min()}-{years.max()} all lie "
            f"{side} {D97_CUTOFF}, where d97 cuts; leave d97 out (--no-d97)"
        )
    trend = (years - panel.seasons[0] + 1).astype(float)
    det = {"d97": after.astype(float)}
    det.update((name, trend**g) for g, name in enumerate(trend_columns(spec.trend_degree), 1))
    columns += spec.deterministic_columns()
    cols += [det[name] for name in spec.deterministic_columns()]

    return DesignMatrix(
        y=datt[ii, jj],
        X=np.column_stack(cols),
        columns=columns,
        country_list=list(panel.countries),
        grid=YearGrid(panel.seasons[keep], row[keep]),
    )
