"""Within-season competitive-balance indices.

Every index runs from 0 (perfect balance) to 1 (complete imbalance) and is
normalised against the completely unbalanced reference season, in which the
rank-i team beats every lower-ranked team in both legs, giving winning
percentages (n-i)/(n-1).

The concentration-ratio family weights ranking places by their sporting
value: the title race, the K continental-qualification places and the I
relegation places.  Each prize level's rank weights come from
``catalog.PRIZE_LEVELS``, shared with the dynamic twins.

Every index function scores a block of seasons in one call: ``w`` holds one
row of winning percentages by rank per season, all rows of one length, and
the result holds one value per row.  The seasons of a block share K and I.
Each value has the bits that scoring its season alone gives: every sum runs
along a row in the order a single season's does.
"""

from __future__ import annotations

import warnings

import numpy as np

from .catalog import ALL_LEVELS, RELEGATION, TITLE, TOP_K, PrizeLevel
from .errors import InputError
from .record import Record


class IndexRangeWarning(UserWarning):
    """An index left [0, 1] by more than tolerance and was clamped."""


class IncompleteScheduleWarning(UserWarning):
    """Winning percentages do not average 0.5; deviations were renormalised."""


_RANGE_TOL = 1e-9

# Pairwise comparisons of a block's places (the Gini's differences, tau's
# concordant pairs) are made for this many values at a time, or for one
# season's n x n when that is more: 32 KiB of floats, below the 128 KiB from
# which glibc's allocator maps fresh pages for an array.
CHUNK_VALUES = 1 << 12


def cu_percentages(n: int) -> np.ndarray:
    """Winning percentages of the completely unbalanced n-team season."""
    if n < 2:
        raise InputError(f"degenerate league with n={n} (need n >= 2)")
    return (n - 1.0 - np.arange(n)) / (n - 1.0)


class CheckedPercentages(Record):
    """A (seasons, teams) block of winning percentages whose rows
    :func:`check_percentages` has validated and renormalised; every index
    function takes it as it is, so the seven indices of a block check their
    input once."""

    def __init__(self, values: np.ndarray) -> None:
        self.__dict__.update(values=values)


def check_percentages(w, name: str) -> np.ndarray:
    """One season's winning-percentage vector, validated and renormalised to
    a mean of 0.5, with ``name`` in the messages.

    A complete double round robin always averages exactly 0.5 and is passed
    through untouched.  Other inputs (abandoned schedules, foreign point
    scales) are rescaled so deviation formulas stay comparable, with a
    warning.
    """
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InputError(f"{name}: degenerate league (need a vector of >= 2 winning percentages)")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise InputError(f"{name}: winning percentages must be finite and non-negative")
    mean = arr.sum() / arr.size  # arr.mean() to the bit, without its Python wrapper
    if mean <= 0.0:
        raise InputError(f"{name}: degenerate all-zero winning percentages")
    if abs(mean - 0.5) <= _RANGE_TOL:
        return arr
    warnings.warn(
        f"{name}: winning percentages average {mean:.6g} instead of 0.5 "
        "(incomplete schedule?); deviations renormalised",
        IncompleteScheduleWarning,
        stacklevel=2,
    )
    return arr * (0.5 / mean)


def _as_block(w, name: str) -> np.ndarray:
    """``w`` as a (seasons, teams) array, each row put through
    :func:`check_percentages` unless the block is checked already."""
    if isinstance(w, CheckedPercentages):
        return w.values
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"{name}: need one row of winning percentages per season")
    return np.array([check_percentages(row, name) for row in arr]).reshape(arr.shape)


def _clamp01(values: np.ndarray, name: str) -> np.ndarray:
    """``values`` clamped into [0, 1] as ``min(1.0, max(0.0, v))`` clamps a
    float, NaN to 0, with a warning for each value beyond tolerance."""
    for value in values[(values < -_RANGE_TOL) | (values > 1.0 + _RANGE_TOL)].tolist():
        warnings.warn(
            f"{name}={value:.6g} outside [0, 1]; clamped (check input data)",
            IndexRangeWarning,
            stacklevel=3,
        )
    floored = np.where(values > 0.0, values, 0.0)
    return np.where(floored < 1.0, floored, 1.0)


def namsi(w) -> np.ndarray:
    """Ratio of the observed winning-percentage standard deviation to the
    completely unbalanced one.

    sqrt( sum (w_i - 0.5)^2 / sum (w_cu_i - 0.5)^2 ).
    """
    arr = _as_block(w, "namsi")
    w_cu = cu_percentages(arr.shape[1])
    num = np.sum((arr - 0.5) ** 2, axis=1)
    den = float(np.sum((w_cu - 0.5) ** 2))
    return _clamp01(np.sqrt(num / den), "namsi")


def hhi_star(w) -> np.ndarray:
    """Normalised Herfindahl-Hirschman concentration of win-point shares.

    (HHI - 1/n) / (HHI_cu - 1/n) with shares s_i = w_i / sum(w); the
    completely unbalanced HHI equals 2(2n-1) / (3n(n-1)).
    """
    arr = _as_block(w, "hhi_star")
    n = arr.shape[1]
    shares = arr / arr.sum(axis=1, keepdims=True)
    hhi = np.sum(shares**2, axis=1)
    w_cu = cu_percentages(n)
    hhi_cu = float(np.sum((w_cu / w_cu.sum()) ** 2))
    return _clamp01((hhi - 1.0 / n) / (hhi_cu - 1.0 / n), "hhi_star")


def _gini(x: np.ndarray) -> np.ndarray:
    """The Gini coefficient of each row of ``x``."""
    seasons, n = x.shape
    step = max(1, CHUNK_VALUES // (n * n))
    sums = np.empty(seasons)
    for start in range(0, seasons, step):
        chunk = x[start : start + step]
        # one contiguous n x n block per season, summed as one season's is
        sums[start : start + step] = np.abs(chunk[:, :, None] - chunk[:, None, :]).sum(axis=(1, 2))
    return sums / (2.0 * n**2 * x.mean(axis=1))


def adjusted_gini(w) -> np.ndarray:
    """Gini coefficient of winning percentages relative to the completely
    unbalanced season: Gini(w) / Gini(w_cu)."""
    arr = _as_block(w, "adjusted_gini")
    w_cu = cu_percentages(arr.shape[1])
    return _clamp01(_gini(arr) / _gini(w_cu[None])[0], "adjusted_gini")


def _spread(x: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """sum_r v_r s_r (x_r - 0.5) of each row of ``x``, by one 1-D dot per row
    and side: BLAS rounds a matrix product otherwise than the dots."""
    n = x.shape[1]
    total = np.zeros(x.shape[0])
    if top.size:
        total += [top @ d for d in x[:, : top.size] - 0.5]
    if bottom.size:
        total += [bottom @ d for d in 0.5 - x[:, n - bottom.size :]]
    return total


def _concentration(w, level: PrizeLevel, K: int, I: int, name: str) -> np.ndarray:
    """Concentration ratio of one prize level.

    sum_r v_r s_r (w_r - 0.5) / sum_r v_r s_r (w_cu_r - 0.5) over the
    level's rank weights v, with s = +1 on top places and -1 on relegation
    places: the level's excess over the balanced season relative to the
    completely unbalanced one.
    """
    arr = _as_block(w, name)
    n = arr.shape[1]
    top, bottom = level.weights(K, I, n)
    cu = _spread(cu_percentages(n)[None], top, bottom)
    return _clamp01(_spread(arr, top, bottom) / cu, name)


def ncr_champion(w) -> np.ndarray:
    """Concentration ratio for the champion: 2 * (w_rank1 - 0.5)."""
    return _concentration(w, TITLE, 0, 0, "ncr_champion")


def acr_top(w, K: int) -> np.ndarray:
    """Adjusted concentration ratio over the top K ranking places (``catalog.TOP_K``)."""
    return _concentration(w, TOP_K, K, 0, "acr_top")


def ncr_relegation(w, I: int) -> np.ndarray:
    """Concentration ratio for the bottom I (relegation) places.

    Equals (0.5*I - B) / (0.5*I - I(I-1)/(2(n-1))) with B the bottom-I sum
    of winning percentages; the floor term is what the bottom I teams
    collect from playing each other.
    """
    return _concentration(w, RELEGATION, 0, I, "ncr_relegation")


def scr(w, K: int, I: int) -> np.ndarray:
    """Special concentration ratio over all three prize levels (``catalog.ALL_LEVELS``)."""
    return _concentration(w, ALL_LEVELS, K, I, "scr")
