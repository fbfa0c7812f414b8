"""Augmented Dickey-Fuller tests with simulated p-values, and panel combination.

ADF p-values come from a seeded one-time simulation of the test statistic
under the random-walk null, cached as a quantile table (one grid per
deterministic case and sample-size bucket, interpolated in between).  The
table ships with the package as ``data/adf_quantiles.csv``, whose header
records the replications and the seed; the test suite regenerates it byte
for byte.

Per-country p-values combine into the panel statistic -2 * sum(log p),
referred to a chi-squared distribution with 2n degrees of freedom.
"""

from __future__ import annotations

import bisect
import functools
import math
from importlib import resources

import numpy as np

from ..errors import InputError, NumericalError
from .base import TestResult
from .tails import chi2_sf

ADF_CASES = ("c", "ct")

# A unit-norm regressor closer than this to the span of the ones before it
# leaves x'x (condition number squared) with no correct digit, and the
# t-statistic's variance is noise.
_RANK_TOL = math.sqrt(np.finfo(float).eps)
# The same bound on the residual: at or below sqrt(eps) of the response's
# norm (RSS below eps times its sum of squares) the regression fits exactly
# up to rounding and the residual variance is noise.
_RSS_TOL = np.finfo(float).eps


class AdfResult(TestResult):
    """ADF outcome: t-statistic on the lagged level, simulated p-value, chosen lag."""

    def __init__(
        self,
        name: str,
        statistic: float,
        df: int | tuple[int, int] | None,
        p_value: float,
        note: str = "",
        lag: int = 0,
    ) -> None:
        super().__init__(name, statistic, df, p_value, note)
        self.__dict__.update(lag=lag)


_TABLE_ROW = np.dtype(
    [("case", "U2"), ("T", np.int64), ("quantile", np.float64), ("value", np.float64)]
)


@functools.cache
def _quantile_table() -> dict[str, tuple[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]]]:
    """The shipped quantile table, parsed once: per case, the sorted T buckets
    and each bucket's (values, quantiles) arrays in quantile order."""
    ref = resources.files("leaguebalance").joinpath("data/adf_quantiles.csv")
    with ref.open("r", encoding="utf-8", newline="") as fh:
        rows = np.loadtxt(  # past the version comment and the column names
            fh, dtype=_TABLE_ROW, delimiter=",", skiprows=2, quotechar=None, comments=None
        )
    table = {}
    for case in ADF_CASES:
        cells = rows[rows["case"] == case]
        buckets = tuple(sorted(set(cells["T"].tolist())))
        grids = []
        for t_len in buckets:
            grid = cells[cells["T"] == t_len]
            order = np.lexsort((grid["value"], grid["quantile"]))
            grids.append((grid["value"][order], grid["quantile"][order]))
        table[case] = (buckets, grids)
    return table


def adf_p_value(statistic: float, case: str, t_len: int) -> float:
    """Left-tail p-value of an ADF statistic from the cached quantile table.

    Interpolates linearly in the quantile grid and in 1/T between sample-size
    buckets; outside the tabulated range the boundary quantile is returned.
    """
    if case not in ADF_CASES:
        raise InputError(f"unknown deterministic case {case!r}")
    buckets, grids = _quantile_table()[case]

    def p_at(i: int) -> float:
        vs, qs = grids[i]
        return float(np.interp(statistic, vs, qs))

    if t_len <= buckets[0]:
        return p_at(0)
    if t_len >= buckets[-1]:
        return p_at(-1)
    hi = bisect.bisect_left(buckets, t_len)
    if buckets[hi] == t_len:
        return p_at(hi)
    lo_t, hi_t = buckets[hi - 1], buckets[hi]
    w = (1.0 / t_len - 1.0 / lo_t) / (1.0 / hi_t - 1.0 / lo_t)
    return (1.0 - w) * p_at(hi - 1) + w * p_at(hi)


def _lagged_design(y: np.ndarray, dy: np.ndarray, lags: int, case: str) -> np.ndarray:
    """``[deterministics, y_{t-1}, dy_{t-1}, ..., dy_{t-lags}, dy_t]`` over the
    observations t >= lags, one row each.

    y_{t-1} is taken relative to its first value.  The constant is a
    regressor, so the shift moves only the intercept; for a series far from
    zero, such as a log population near 16.5, it keeps the QR from spending
    the digits of the level on the small deviations from trend.
    """
    t = np.arange(lags, dy.size, dtype=float)
    cols = [np.ones(t.size)]
    if case == "ct":
        cols.append(t + 1.0)
    cols.append(y[lags:-1] - y[lags])
    cols.extend(dy[lags - j : dy.size - j] for j in range(1, lags + 1))
    cols.append(dy[lags:])
    return np.column_stack(cols)


def _scaled_r(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R factor of ``[X | y]`` with every column of X scaled to unit norm,
    and |diag R| of the X block.

    Scaling a regressor changes neither the residuals nor the t-statistics,
    and with unit columns |r_ii| <= 1 is the distance of column i from the
    span of the ones before it: a scale-free rank measure.
    """
    norms = np.linalg.norm(z[:, :-1], axis=0)
    norms[norms == 0.0] = 1.0
    r = np.linalg.qr(z / np.append(norms, 1.0), mode="r")
    return r, np.abs(np.diag(r)[:-1])


def _rank_deficient(p: int) -> NumericalError:
    return NumericalError(
        f"ADF regression at lag {p} is rank deficient: "
        "the series is a deterministic trend up to rounding"
    )


def adf_test(series, deterministic: str = "c", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test with lag order chosen by the Schwarz
    information criterion.

    Fits dy_t = a (+ b*t) + rho*y_{t-1} + sum_j gamma_j dy_{t-j} + e for lag
    counts 0..max_lag over a common sample, picks the SIC minimiser, refits
    it on the longest available sample, and converts the t-statistic on rho
    into a simulated p-value.

    The lag search takes one R factor of the max-lag design on the common
    sample: the lag columns come last, so lag p's residual sum of squares is
    the tail sum of squares of R's last column below its first k_p rows.
    The refit takes one more, with rho last among the regressors: the last
    row of R^-1 is then 1/r_rho,rho, so the t-statistic is
    r_rho,y / |r_rho,rho| over the residual standard error.
    """
    y = np.asarray(series, dtype=float).reshape(-1)
    if deterministic not in ADF_CASES:
        raise InputError(f"deterministic must be one of {ADF_CASES}, got {deterministic!r}")
    if max_lag is not None and max_lag < 0:
        raise InputError(f"max_lag must be >= 0, got {max_lag}")
    if not np.all(np.isfinite(y)):
        raise InputError("series contains non-finite values")
    if np.ptp(y) == 0.0:
        raise NumericalError("degenerate series: constant input")
    n_det = 1 if deterministic == "c" else 2
    # largest lag leaving >= 3 residual dof in the longest candidate regression
    cap = (y.size - 1 - n_det - 1 - 3) // 2
    if max_lag is None:
        if cap < 0:
            raise InputError(
                f"series of length {y.size} too short for the ADF test, need at least {n_det + 5}"
            )
        max_lag = min(int(12 * (y.size / 100.0) ** 0.25), cap)
    if max_lag > cap or y.size <= max_lag + 3 + n_det:
        raise InputError(f"series of length {y.size} too short for max_lag={max_lag}")

    # lag choice on the common sample implied by max_lag
    dy = np.diff(y)
    t_common = dy.size - max_lag
    r, diag = _scaled_r(_lagged_design(y, dy, max_lag, deterministic))
    weak = np.flatnonzero(diag <= _RANK_TOL)
    if weak.size:
        # column i enters the regressions at lag i - n_det
        raise _rank_deficient(max(0, int(weak[0]) - n_det))
    qty = r[:, -1]
    best_p, best_sic = 0, math.inf
    for p in range(max_lag + 1):
        k = n_det + 1 + p
        rss = float(qty[k:] @ qty[k:])
        if rss <= 0.0:
            rss = np.finfo(float).tiny
        sic = math.log(rss / t_common) + k * math.log(t_common) / t_common
        if sic < best_sic - 1e-12:
            best_sic, best_p = sic, p

    z = _lagged_design(y, dy, best_p, deterministic)
    k = z.shape[1] - 1
    rho_last = [*range(n_det), *range(n_det + 1, k), n_det, k]
    r, diag = _scaled_r(z[:, rho_last])
    if diag.min() <= _RANK_TOL:
        raise _rank_deficient(best_p)
    resp = z[:, -1]
    rss = float(r[k, k] ** 2)
    if rss <= _RSS_TOL * float(resp @ resp):
        raise NumericalError(
            f"ADF regression at lag {best_p} fits exactly: "
            "the series is a deterministic trend up to rounding"
        )
    t_eff = resp.size
    tstat = math.copysign(1.0, r[k - 1, k - 1]) * float(r[k - 1, k]) / math.sqrt(rss / (t_eff - k))
    p_value = adf_p_value(tstat, deterministic, t_eff + 1)
    return AdfResult(
        name=f"adf_{deterministic}",
        statistic=tstat,
        df=None,
        p_value=p_value,
        lag=best_p,
    )


def fisher_panel_unit_root(p_values) -> TestResult:
    """Combine per-country unit-root p-values: -2 * sum(log p) ~ chi2(2n).

    A zero p-value yields an infinite statistic with combined p-value 0.
    """
    ps = np.asarray(list(p_values), dtype=float)
    if ps.size == 0:
        raise InputError("no p-values to combine")
    if np.any(ps < 0.0) or np.any(ps > 1.0):
        raise InputError("p-values must lie in [0, 1]")
    df = 2 * ps.size
    if np.any(ps == 0.0):
        return TestResult(
            name="adf_fisher",
            statistic=float("inf"),
            df=df,
            p_value=0.0,
            note="zero p-value input: infinite-statistic sentinel",
        )
    lam = float(-2.0 * np.sum(np.log(ps)))
    return TestResult(
        name="adf_fisher",
        statistic=lam,
        df=df,
        p_value=chi2_sf(df, lam),
    )
