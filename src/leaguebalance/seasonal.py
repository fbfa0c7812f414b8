"""Within-season competitive-balance indices.

Every index runs from 0 (perfect balance) to 1 (complete imbalance) and is
normalised against the completely unbalanced reference season, in which the
rank-i team beats every lower-ranked team in both legs, giving winning
percentages (n-i)/(n-1).

The concentration-ratio family weights ranking places by their sporting
value: the title race, the K continental-qualification places and the I
relegation places.  Each prize level's rank weights come from
``catalog.PRIZE_LEVELS``, shared with the dynamic twins.
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


def cu_percentages(n: int) -> np.ndarray:
    """Winning percentages of the completely unbalanced n-team season."""
    if n < 2:
        raise InputError(f"degenerate league with n={n} (need n >= 2)")
    return (n - 1.0 - np.arange(n)) / (n - 1.0)


class CheckedPercentages(Record):
    """A winning-percentage vector that :func:`check_percentages` has
    validated and renormalised; every index function takes it as it is, so
    the seven indices of one season check their input once."""

    def __init__(self, values: np.ndarray) -> None:
        self.__dict__.update(values=values)


def check_percentages(w, name: str) -> CheckedPercentages:
    """``w`` validated and renormalised as the index functions do it, with
    ``name`` in the messages."""
    return CheckedPercentages(_as_percentages(w, name))


def _as_percentages(w, name: str) -> np.ndarray:
    """Validate a winning-percentage vector and renormalise its mean to 0.5.

    A complete double round robin always averages exactly 0.5 and is passed
    through untouched.  Other inputs (abandoned schedules, foreign point
    scales) are rescaled so deviation formulas stay comparable, with a
    warning.
    """
    if isinstance(w, CheckedPercentages):
        return w.values
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise InputError(f"{name}: degenerate league (need a vector of >= 2 winning percentages)")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InputError(f"{name}: winning percentages must be finite and non-negative")
    mean = arr.mean()
    if mean <= 0.0:
        raise InputError(f"{name}: degenerate all-zero winning percentages")
    if abs(mean - 0.5) <= _RANGE_TOL:
        return arr
    warnings.warn(
        f"{name}: winning percentages average {mean:.6g} instead of 0.5 "
        "(incomplete schedule?); deviations renormalised",
        IncompleteScheduleWarning,
        stacklevel=3,
    )
    return arr * (0.5 / mean)


def _clamp01(value: float, name: str) -> float:
    if value < -_RANGE_TOL or value > 1.0 + _RANGE_TOL:
        warnings.warn(
            f"{name}={value:.6g} outside [0, 1]; clamped (check input data)",
            IndexRangeWarning,
            stacklevel=3,
        )
    return float(min(1.0, max(0.0, value)))


def namsi(w) -> float:
    """Ratio of the observed winning-percentage standard deviation to the
    completely unbalanced one.

    sqrt( sum (w_i - 0.5)^2 / sum (w_cu_i - 0.5)^2 ).
    """
    arr = _as_percentages(w, "namsi")
    w_cu = cu_percentages(arr.size)
    num = float(np.sum((arr - 0.5) ** 2))
    den = float(np.sum((w_cu - 0.5) ** 2))
    return _clamp01(np.sqrt(num / den), "namsi")


def hhi_star(w) -> float:
    """Normalised Herfindahl-Hirschman concentration of win-point shares.

    (HHI - 1/n) / (HHI_cu - 1/n) with shares s_i = w_i / sum(w); the
    completely unbalanced HHI equals 2(2n-1) / (3n(n-1)).
    """
    arr = _as_percentages(w, "hhi_star")
    n = arr.size
    shares = arr / arr.sum()
    hhi = float(np.sum(shares**2))
    w_cu = cu_percentages(n)
    hhi_cu = float(np.sum((w_cu / w_cu.sum()) ** 2))
    return _clamp01((hhi - 1.0 / n) / (hhi_cu - 1.0 / n), "hhi_star")


def _gini(x: np.ndarray) -> float:
    diffs = np.abs(x[:, None] - x[None, :])
    return float(diffs.sum() / (2.0 * x.size**2 * x.mean()))


def adjusted_gini(w) -> float:
    """Gini coefficient of winning percentages relative to the completely
    unbalanced season: Gini(w) / Gini(w_cu)."""
    arr = _as_percentages(w, "adjusted_gini")
    w_cu = cu_percentages(arr.size)
    return _clamp01(_gini(arr) / _gini(w_cu), "adjusted_gini")


def _concentration(w, level: PrizeLevel, K: int, I: int, name: str) -> float:
    """Concentration ratio of one prize level.

    sum_r v_r s_r (w_r - 0.5) / sum_r v_r s_r (w_cu_r - 0.5) over the
    level's rank weights v, with s = +1 on top places and -1 on relegation
    places: the level's excess over the balanced season relative to the
    completely unbalanced one.
    """
    arr = _as_percentages(w, name)
    n = arr.size
    top, bottom = level.weights(K, I, n)

    def spread(x: np.ndarray) -> float:
        return float(top @ (x[: top.size] - 0.5) + bottom @ (0.5 - x[n - bottom.size :]))

    return _clamp01(spread(arr) / spread(cu_percentages(n)), name)


def ncr_champion(w) -> float:
    """Concentration ratio for the champion: 2 * (w_rank1 - 0.5)."""
    return _concentration(w, TITLE, 0, 0, "ncr_champion")


def acr_top(w, K: int) -> float:
    """Adjusted concentration ratio over the top K ranking places (``catalog.TOP_K``)."""
    return _concentration(w, TOP_K, K, 0, "acr_top")


def ncr_relegation(w, I: int) -> float:
    """Concentration ratio for the bottom I (relegation) places.

    Equals (0.5*I - B) / (0.5*I - I(I-1)/(2(n-1))) with B the bottom-I sum
    of winning percentages; the floor term is what the bottom I teams
    collect from playing each other.
    """
    return _concentration(w, RELEGATION, 0, I, "ncr_relegation")


def scr(w, K: int, I: int) -> float:
    """Special concentration ratio over all three prize levels (``catalog.ALL_LEVELS``)."""
    return _concentration(w, ALL_LEVELS, K, I, "scr")
