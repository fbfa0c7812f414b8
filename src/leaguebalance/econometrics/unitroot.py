"""Augmented Dickey-Fuller tests with simulated p-values, and panel combination.

ADF p-values come from a seeded one-time simulation of the test statistic
under the random-walk null, cached as a quantile table (one grid per
deterministic case and sample-size bucket, interpolated in between).  The
table ships with the package and can be regenerated bit-identically.

Per-country p-values combine into the panel statistic -2 * sum(log p),
referred to a chi-squared distribution with 2n degrees of freedom.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import InputError, NumericalError
from .base import TestResult
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

_table_cache: dict | None = None

# Below this ratio of extreme singular values, x'x (condition number squared)
# has no correct digit left and the t-statistic's variance is noise.
_RANK_TOL = math.sqrt(np.finfo(float).eps)
# The same bound on the residual: at or below sqrt(eps) of the response's
# norm (RSS below eps times its sum of squares) the regression fits exactly
# up to rounding and the residual variance is noise.
_RSS_TOL = np.finfo(float).eps


@dataclass
class AdfResult(TestResult):
    """ADF outcome: t-statistic on the lagged level, simulated p-value, chosen lag."""

    lag: int = 0
    case: str = "c"
    nobs: int = 0


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


def _load_table() -> dict:
    global _table_cache
    if _table_cache is not None:
        return _table_cache
    table: dict[tuple[str, int], list[tuple[float, float]]] = {}
    ref = resources.files("leaguebalance").joinpath("data/adf_quantiles.csv")
    with ref.open("r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    for row in csv.DictReader(lines):
        key = (row["case"], int(row["T"]))
        table.setdefault(key, []).append((float(row["quantile"]), float(row["value"])))
    for key in table:
        table[key].sort()
    _table_cache = table
    return table


def adf_p_value(statistic: float, case: str, t_len: int) -> float:
    """Left-tail p-value of an ADF statistic from the cached quantile table.

    Interpolates linearly in the quantile grid and in 1/T between sample-size
    buckets; outside the tabulated range the boundary quantile is returned.
    """
    if case not in ADF_CASES:
        raise InputError(f"unknown deterministic case {case!r}")
    table = _load_table()

    def p_at(t_bucket: int) -> float:
        grid = table[(case, t_bucket)]
        qs = np.array([q for q, _ in grid])
        vs = np.array([v for _, v in grid])
        return float(np.interp(statistic, vs, qs))

    ts = sorted({t for c, t in table if c == case})
    if t_len <= ts[0]:
        return p_at(ts[0])
    if t_len >= ts[-1]:
        return p_at(ts[-1])
    hi = min(t for t in ts if t >= t_len)
    lo = max(t for t in ts if t <= t_len)
    if lo == hi:
        return p_at(lo)
    w = (1.0 / t_len - 1.0 / lo) / (1.0 / hi - 1.0 / lo)
    return (1.0 - w) * p_at(lo) + w * p_at(hi)


def _lstsq(x: np.ndarray, resp: np.ndarray, p: int) -> np.ndarray:
    """Least-squares coefficients; NumericalError if x is numerically rank deficient."""
    coef, _, _, sv = np.linalg.lstsq(x, resp, rcond=None)
    if sv[-1] <= sv[0] * _RANK_TOL:
        raise NumericalError(
            f"ADF regression at lag {p} is rank deficient: "
            "the series is a deterministic trend up to rounding"
        )
    return coef


def _adf_regression(y: np.ndarray, p: int, case: str):
    """Regress dy_t on deterministics, y_{t-1} and p lagged differences."""
    dy = np.diff(y)
    t_eff = dy.size - p
    rows = []
    rows.append(np.ones(t_eff))
    if case == "ct":
        rows.append(np.arange(p + 1, dy.size + 1, dtype=float))
    rows.append(y[p:-1])
    for j in range(1, p + 1):
        rows.append(dy[p - j : dy.size - j])
    x = np.column_stack(rows)
    resp = dy[p:]
    coef = _lstsq(x, resp, p)
    resid = resp - x @ coef
    rss = float(resid @ resid)
    return x, resp, coef, rss


def adf_test(series, deterministic: str = "c", max_lag: int | None = None) -> AdfResult:
    """Augmented Dickey-Fuller test with lag order chosen by the Schwarz
    information criterion.

    Fits dy_t = a (+ b*t) + rho*y_{t-1} + sum_j gamma_j dy_{t-j} + e for lag
    counts 0..max_lag over a common sample, picks the SIC minimiser, refits
    it on the longest available sample, and converts the t-statistic on rho
    into a simulated p-value.
    """
    y = np.asarray(series, dtype=float).reshape(-1)
    if deterministic not in ADF_CASES:
        raise InputError(f"deterministic must be one of {ADF_CASES}, got {deterministic!r}")
    if not np.all(np.isfinite(y)):
        raise InputError("series contains non-finite values")
    if np.ptp(y) == 0.0:
        raise NumericalError("degenerate series: constant input")
    n_det = 1 if deterministic == "c" else 2
    # largest lag leaving >= 3 residual dof in the longest candidate regression
    cap = (y.size - 1 - n_det - 1 - 3) // 2
    if max_lag is None:
        max_lag = max(0, min(int(12 * (y.size / 100.0) ** 0.25), cap))
    max_lag = max(0, max_lag)
    if max_lag > cap or y.size <= max_lag + 3 + n_det:
        raise InputError(f"series of length {y.size} too short for max_lag={max_lag}")

    # lag choice on the common sample implied by max_lag
    dy = np.diff(y)
    t_common = dy.size - max_lag
    best_p, best_sic = 0, math.inf
    for p in range(max_lag + 1):
        x_all, resp_all, _, _ = _adf_regression(y, p, deterministic)
        x = x_all[-t_common:]
        resp = resp_all[-t_common:]
        coef = _lstsq(x, resp, p)
        resid = resp - x @ coef
        rss = float(resid @ resid)
        if rss <= 0.0:
            rss = np.finfo(float).tiny
        sic = math.log(rss / t_common) + x.shape[1] * math.log(t_common) / t_common
        if sic < best_sic - 1e-12:
            best_sic, best_p = sic, p

    x, resp, coef, rss = _adf_regression(y, best_p, deterministic)
    if rss <= _RSS_TOL * float(resp @ resp):
        raise NumericalError(
            f"ADF regression at lag {best_p} fits exactly: "
            "the series is a deterministic trend up to rounding"
        )
    t_eff = resp.size
    k = x.shape[1]
    rho_idx = n_det
    xtx_inv = np.linalg.inv(x.T @ x)
    se = math.sqrt(rss / (t_eff - k) * xtx_inv[rho_idx, rho_idx])
    tstat = float(coef[rho_idx] / se)
    p_value = adf_p_value(tstat, deterministic, t_eff + 1)
    return AdfResult(
        name=f"adf_{deterministic}",
        statistic=tstat,
        df=None,
        p_value=p_value,
        note=f"lags={best_p}",
        lag=best_p,
        case=deterministic,
        nobs=t_eff,
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
