"""Augmented Dickey-Fuller tests with simulated p-values, and panel combination.

ADF p-values come from a seeded one-time simulation of the test statistic
under the random-walk null, cached as a quantile table (one grid per
deterministic case and sample-size bucket, interpolated in between).  The
table ships with the package and can be regenerated bit-identically.

Per-country p-values combine into the panel statistic -2 * sum(log p),
referred to a chi-squared distribution with 2n degrees of freedom.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import InputError, NumericalError
from .base import TestResult
from .ols import r_factor
from .tails import chi2_sf

ADF_CASES = ("c", "ct")
ADF_T_GRID = (25, 50, 100, 200, 400)
ADF_TABLE_VERSION = 1
_ADF_TABLE_SEED = 743125
_ADF_TABLE_REPS = 50_000

_QUANT_GRID = np.concatenate(
    [
        [0.0001, 0.0005, 0.001, 0.0025, 0.005],
        np.round(np.arange(0.01, 1.00, 0.01), 2),
        [0.995, 0.9975, 0.999, 0.9995, 0.9999],
    ]
)

# A unit-norm regressor closer than this to the span of the ones before it
# leaves x'x (condition number squared) with no correct digit, and the
# t-statistic's variance is noise.
_RANK_TOL = math.sqrt(np.finfo(float).eps)
# The same bound on the residual: at or below sqrt(eps) of the response's
# norm (RSS below eps times its sum of squares) the regression fits exactly
# up to rounding and the residual variance is noise.
_RSS_TOL = np.finfo(float).eps


@dataclass
class AdfResult(TestResult):
    """ADF outcome: t-statistic on the lagged level, simulated p-value, chosen lag."""

    lag: int = 0


def _detrend_rows(z: np.ndarray, case: str) -> np.ndarray:
    """Project the deterministic part (constant / constant+trend) out of each row."""
    n = z.shape[-1]
    z = z - z.mean(axis=-1, keepdims=True)
    if case == "ct":
        tt = np.arange(n, dtype=float)
        tt = tt - tt.mean()
        coef = (z @ tt) / (tt @ tt)
        z = z - coef[..., None] * tt
    return z


def _df_tstats(y: np.ndarray, case: str) -> np.ndarray:
    """Dickey-Fuller t-statistics for each row of a (reps, T) matrix, no lag terms."""
    dy = np.diff(y, axis=-1)
    ylag = y[..., :-1]
    dyt = _detrend_rows(dy, case)
    ylt = _detrend_rows(ylag, case)
    syy = np.einsum("ij,ij->i", ylt, ylt)
    rho = np.einsum("ij,ij->i", ylt, dyt) / syy
    rss = np.einsum("ij,ij->i", dyt, dyt) - rho**2 * syy
    dof = dy.shape[-1] - (2 if case == "c" else 3)
    se = np.sqrt(rss / dof / syy)
    return rho / se


def generate_adf_table(
    reps: int = _ADF_TABLE_REPS,
    seed: int = _ADF_TABLE_SEED,
    t_grid=ADF_T_GRID,
    chunk: int = 5_000,
) -> list[tuple[str, int, float, float]]:
    """Simulate the null distribution of the ADF t-statistic and tabulate quantiles.

    Returns (case, T, quantile, value) rows.  Each (case, T) cell uses its
    own seeded generator, so the table regenerates identically.
    """
    rows: list[tuple[str, int, float, float]] = []
    for case in ADF_CASES:
        for t_len in t_grid:
            rng = np.random.default_rng([seed, ADF_CASES.index(case), t_len])
            stats_out = np.empty(reps)
            done = 0
            while done < reps:
                m = min(chunk, reps - done)
                walk = np.cumsum(rng.standard_normal((m, t_len)), axis=1)
                stats_out[done : done + m] = _df_tstats(walk, case)
                done += m
            values = np.quantile(stats_out, _QUANT_GRID)
            rows.extend((case, t_len, float(q), float(v)) for q, v in zip(_QUANT_GRID, values))
    return rows


def write_adf_table(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# adf_quantiles v{ADF_TABLE_VERSION} "
            f"(reps={_ADF_TABLE_REPS}, seed={_ADF_TABLE_SEED})\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["case", "T", "quantile", "value"])
        for case, t_len, q, v in rows:
            writer.writerow([case, t_len, f"{q:.6g}", f"{v:.10g}"])


@functools.cache
def _quantile_table() -> dict[str, tuple[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]]]:
    """The shipped quantile table, parsed once: per case, the sorted T buckets
    and each bucket's (values, quantiles) arrays in quantile order."""
    cells: dict[tuple[str, int], list[tuple[float, float]]] = {}
    ref = resources.files("leaguebalance").joinpath("data/adf_quantiles.csv")
    with ref.open("r", encoding="utf-8", newline="") as fh:
        next(fh), next(fh)  # the version comment and the column names
        for case, t_len, q, v in csv.reader(fh):
            cells.setdefault((case, int(t_len)), []).append((float(q), float(v)))
    table = {}
    for case in ADF_CASES:
        buckets = tuple(sorted(t for c, t in cells if c == case))
        grids = []
        for t_len in buckets:
            qs, vs = zip(*sorted(cells[(case, t_len)]))
            grids.append((np.array(vs), np.array(qs)))
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
    r = r_factor(z / np.append(norms, 1.0))
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
