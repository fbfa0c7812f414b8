"""The prize-level weight table and the eight concentration-family indices
built on it, checked against per-index formulas written out by hand."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import (
    BIDIMENSIONAL_PAIRS,
    PRIZE_LEVELS,
    InputError,
    SeasonPair,
    acr_top,
    adn_top,
    dn_champion,
    dn_relegation,
    ncr_champion,
    ncr_relegation,
    scr,
    sdn,
    winning_percentages,
)
from leaguebalance.catalog import ALL_LEVELS, RELEGATION, TITLE, TOP_K
from leaguebalance.seasonal import IndexRangeWarning
from leaguebalance.simulate import LeagueSimParams, simulate_league

# ---------------------------------------------------------------- the table


def test_all_levels_weights_strict_ordering():
    for n, k, i in [(6, 2, 2), (12, 3, 3), (20, 5, 4)]:
        top, bottom = ALL_LEVELS.weights(k, i, n)
        assert top.size == k and bottom.size == i
        assert np.all(np.diff(top) < 0)
        assert top[-1] > 1.0  # lowest top weight above relegation weight
        assert np.all(bottom == 1.0)


def test_single_level_weights():
    top, bottom = TITLE.weights(0, 0, 6)
    assert list(top) == [1.0] and bottom.size == 0
    top, bottom = TOP_K.weights(3, 0, 6)
    assert list(top) == [3.0, 2.0, 1.0] and bottom.size == 0
    top, bottom = RELEGATION.weights(0, 2, 6)
    assert top.size == 0 and list(bottom) == [1.0, 1.0]


def test_prize_level_weights_reject_bad_levels():
    n = 6
    for level, K, I in [
        (ALL_LEVELS, 3, 3),
        (ALL_LEVELS, 0, 1),
        (ALL_LEVELS, 1, 0),
        (TOP_K, 0, 0),
        (TOP_K, 6, 0),
        (RELEGATION, 0, 0),
        (RELEGATION, 0, 6),
    ]:
        with pytest.raises(InputError):
            level.weights(K, I, n)


def test_bidimensional_pairs_follow_the_table():
    assert BIDIMENSIONAL_PAIRS == {
        "dc1": ("ncr1", "dn1"),
        "adc_k": ("acr_k", "adn_k"),
        "dc_i": ("ncr_i", "dn_i"),
        "sdc_ki": ("scr_ki", "sdn_ki"),
    }
    assert [lv.bidimensional for lv in PRIZE_LEVELS] == list(BIDIMENSIONAL_PAIRS)


# ---------------------------------------------------------------- oracles


def _clamp(x):
    return min(1.0, max(0.0, x))


def seasonal_oracles(w, K, I):
    """ncr1, acr_k, ncr_i and scr_ki from their per-index formulas."""
    n = len(w)
    w_cu = [(n - 1 - j) / (n - 1) for j in range(n)]
    v = [K + 1 - r for r in range(1, K + 1)]
    acr_num = sum(vr * wr for vr, wr in zip(v, w)) - 0.5 * sum(v)
    acr_den = sum(vr * wr for vr, wr in zip(v, w_cu)) - 0.5 * sum(v)
    floor = I * (I - 1) / (2 * (n - 1))
    ncr_i = (0.5 * I - sum(w[n - I :])) / (0.5 * I - floor)

    def spread(x):
        top = sum((K + 2 - r) * (x[r - 1] - 0.5) for r in range(1, K + 1))
        return top + sum(0.5 - x[r - 1] for r in range(n - I + 1, n + 1))

    return {
        "ncr1": _clamp(2 * (w[0] - 0.5)),
        "acr_k": _clamp(acr_num / acr_den),
        "ncr_i": _clamp(ncr_i),
        "scr_ki": _clamp(spread(w) / spread(w_cu)),
    }


def dynamic_oracles(prev, curr, K, I):
    """dn1, adn_k, dn_i and sdn_ki from their per-index formulas."""
    n, n_prev = curr.n, prev.n
    before = {rec.team: rec.rank for rec in prev.records}

    def m(r):
        p = before.get(curr.records[r - 1].team)
        return 0.0 if p is None else 1 - min(abs(p - r), n_prev - 1) / (n_prev - 1)

    top = range(1, K + 1)
    bottom = range(n - I + 1, n + 1)
    return {
        "dn1": m(1),
        "adn_k": sum((K + 1 - r) * m(r) for r in top) / sum(K + 1 - r for r in top),
        "dn_i": sum(m(r) for r in bottom) / I,
        "sdn_ki": (sum((K + 2 - r) * m(r) for r in top) + sum(m(r) for r in bottom))
        / (sum(K + 2 - r for r in top) + I),
    }


@st.composite
def league_pairs(draw):
    """Consecutive seasons of random size; the current one churns teams, so
    some of its teams were absent the season before."""
    n_prev = draw(st.integers(4, 20))
    n = draw(st.integers(4, 20))
    churn = draw(st.integers(0, n // 2))
    dispersion = draw(st.floats(0.2, 5.0))
    prev = simulate_league(
        LeagueSimParams(n_teams=n_prev, n_seasons=1, start_season=1999, K=1, I=1,
                        dispersion=dispersion),
        seed=draw(st.integers(0, 2**32 - 1)),
    )[0]
    curr = simulate_league(
        LeagueSimParams(n_teams=n, n_seasons=2, start_season=1999, K=1, I=1,
                        dispersion=dispersion, churn=churn),
        seed=draw(st.integers(0, 2**32 - 1)),
    )[1]
    K = draw(st.integers(1, n - 2))
    I = draw(st.integers(1, n - 1 - K))
    return SeasonPair(prev=prev, curr=curr), K, I


@settings(max_examples=150, deadline=None)
@given(league_pairs())
def test_concentration_family_matches_per_index_oracles(case):
    pair, K, I = case
    w = winning_percentages(pair.curr)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IndexRangeWarning)
        got = {
            "ncr1": ncr_champion([w])[0],
            "acr_k": acr_top([w], K)[0],
            "ncr_i": ncr_relegation([w], I)[0],
            "scr_ki": scr([w], K, I)[0],
        }
    got.update(
        dn1=dn_champion([pair])[0],
        adn_k=adn_top([pair], K)[0],
        dn_i=dn_relegation([pair], I)[0],
        sdn_ki=sdn([pair], K, I)[0],
    )
    expected = seasonal_oracles(list(w), K, I) | dynamic_oracles(pair.prev, pair.curr, K, I)
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, abs=1e-12), name
