"""Names and value records for the seventeen competitive-balance indices,
and the prize-level table of the concentration family."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InputError
from .record import Record


class PrizeLevel(Record):
    """One prize level of the concentration family and its three indices.

    ``weights(K, I, n)`` gives the rank weights of an n-team league as
    ``(top, bottom)``: ``top[j]`` weights rank j + 1 and ``bottom[j]``
    weights rank n - len(bottom) + j + 1.  The seasonal index and its
    dynamic twin use the same weights; outside the level's domain of K and
    I the call raises InputError.
    """

    def __init__(
        self,
        seasonal: str,
        dynamic: str,
        bidimensional: str,
        weights: Callable[[int, int, int], tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.__dict__.update(
            seasonal=seasonal, dynamic=dynamic, bidimensional=bidimensional, weights=weights
        )


_NO_PLACES = np.zeros(0)


def _check_places(what: str, count: int, n: int) -> None:
    if not (1 <= count < n):
        raise InputError(f"{what}={count} out of range for n={n}")


def _title(K: int, I: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(1), _NO_PLACES


def _top_k(K: int, I: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    _check_places("K", K, n)
    return np.arange(K, 0, -1.0), _NO_PLACES  # K + 1 - r


def _relegation(K: int, I: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    _check_places("I", I, n)
    return _NO_PLACES, np.ones(I)


def _all_levels(K: int, I: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # K + 2 - r keeps every top weight above the relegation weight 1
    _check_places("K", K, n)
    _check_places("I", I, n)
    if K + I >= n:
        raise InputError(f"K+I={K + I} must be < n={n}")
    return np.arange(K + 1, 1, -1.0), np.ones(I)


PRIZE_LEVELS = (
    PrizeLevel("ncr1", "dn1", "dc1", _title),
    PrizeLevel("acr_k", "adn_k", "adc_k", _top_k),
    PrizeLevel("ncr_i", "dn_i", "dc_i", _relegation),
    PrizeLevel("scr_ki", "sdn_ki", "sdc_ki", _all_levels),
)
TITLE, TOP_K, RELEGATION, ALL_LEVELS = PRIZE_LEVELS

SEASONAL_INDEX_NAMES = ("namsi", "hhi_star", "agini") + tuple(lv.seasonal for lv in PRIZE_LEVELS)
PAIRWISE_INDEX_NAMES = ("tau",) + tuple(lv.dynamic for lv in PRIZE_LEVELS)
DYNAMIC_INDEX_NAMES = ("g",) + PAIRWISE_INDEX_NAMES

# bi-dimensional index -> (seasonal component, dynamic component)
BIDIMENSIONAL_PAIRS = {lv.bidimensional: (lv.seasonal, lv.dynamic) for lv in PRIZE_LEVELS}
BIDIMENSIONAL_INDEX_NAMES = tuple(BIDIMENSIONAL_PAIRS)

ALL_INDEX_NAMES = SEASONAL_INDEX_NAMES + DYNAMIC_INDEX_NAMES + BIDIMENSIONAL_INDEX_NAMES

_KNOWN_NAMES = frozenset(ALL_INDEX_NAMES)
_VALUE_TOL = 1e-9


def check_index_value(name: str, country: str, season: int, value: float) -> None:
    """Raise InputError unless ``name`` is a known index and ``value`` lies in [0, 1]."""
    if name not in _KNOWN_NAMES:
        raise InputError(f"unknown index name {name!r}")
    if not (-_VALUE_TOL <= value <= 1.0 + _VALUE_TOL):
        raise InputError(f"{name} for ({country}, {season}) out of [0, 1]: {value}")


def check_index_values(names, countries, seasons, values) -> None:
    """``check_index_value`` over columns of finite values: the first row
    that fails raises its InputError."""
    if not (
        _KNOWN_NAMES.issuperset(names)
        and -_VALUE_TOL <= min(values)
        and max(values) <= 1.0 + _VALUE_TOL
    ):
        for row in zip(names, countries, seasons, values):
            check_index_value(*row)


class IndexValue(Record):
    """One index value for one country-season, on the 0=balance..1=imbalance scale."""

    def __init__(self, name: str, country: str, season: int, value: float) -> None:
        self.__dict__.update(name=name, country=country, season=season, value=value)
        check_index_value(name, country, season, value)
