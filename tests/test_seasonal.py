import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaguebalance import (
    InputError,
    LeagueSeason,
    TeamSeasonRecord,
    acr_top,
    adjusted_gini,
    compute_all_indices,
    cu_percentages,
    hhi_star,
    namsi,
    ncr_champion,
    ncr_relegation,
    scr,
    winning_percentages,
)
from leaguebalance.seasonal import IncompleteScheduleWarning, IndexRangeWarning
from support import random_outcomes, season_from_outcomes

W4 = np.array([0.75, 0.5, 0.5, 0.25])

ALL_SEASONAL = [
    ("namsi", lambda w, K, I: namsi(w)),
    ("hhi_star", lambda w, K, I: hhi_star(w)),
    ("agini", lambda w, K, I: adjusted_gini(w)),
    ("ncr1", lambda w, K, I: ncr_champion(w)),
    ("acr_k", lambda w, K, I: acr_top(w, K)),
    ("ncr_i", lambda w, K, I: ncr_relegation(w, I)),
    ("scr_ki", lambda w, K, I: scr(w, K, I)),
]


def levels_for(n):
    k = max(1, min(3, (n - 1) // 2))
    return k, max(1, min(3, n - 1 - k))


# ---------------------------------------------------------------- oracles


def gini_oracle(x):
    x = list(x)
    total = sum(abs(a - b) for a, b in itertools.product(x, x))
    return total / (2 * len(x) ** 2 * (sum(x) / len(x)))


def namsi_oracle(w):
    w_cu = [(len(w) - 1 - i) / (len(w) - 1) for i in range(len(w))]
    num = sum((wi - 0.5) ** 2 for wi in w)
    den = sum((wi - 0.5) ** 2 for wi in w_cu)
    return (num / den) ** 0.5


# ---------------------------------------------------------------- endpoints


@pytest.mark.parametrize("n", [3, 4, 6, 16, 20])
@pytest.mark.parametrize("name,fn", ALL_SEASONAL)
def test_balanced_season_scores_zero(n, name, fn):
    k, i = levels_for(n)
    assert fn(np.full(n, 0.5), k, i) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6, 16, 20])
@pytest.mark.parametrize("name,fn", ALL_SEASONAL)
def test_completely_unbalanced_season_scores_one(n, name, fn):
    k, i = levels_for(n)
    assert fn(cu_percentages(n), k, i) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- frozen hand values


def test_namsi_hand_value():
    expected = namsi_oracle(W4)
    assert expected == pytest.approx(0.474341649, abs=1e-9)
    assert namsi(W4) == pytest.approx(expected, abs=1e-12)


def test_hhi_star_hand_value():
    shares = W4 / W4.sum()
    hhi = float(np.sum(shares**2))
    assert hhi == pytest.approx(0.28125)
    expected = (hhi - 0.25) / (14.0 / 36.0 - 0.25)
    assert expected == pytest.approx(0.225)
    assert hhi_star(W4) == pytest.approx(expected, abs=1e-12)


def test_adjusted_gini_hand_value():
    w3 = [0.75, 0.5, 0.25]
    expected = gini_oracle(w3) / gini_oracle([1.0, 0.5, 0.0])
    assert expected == pytest.approx(0.5)
    assert adjusted_gini(w3) == pytest.approx(expected, abs=1e-12)


def test_ncr_champion_linear():
    assert ncr_champion([0.75, 0.5, 0.5, 0.25]) == pytest.approx(0.5)
    assert ncr_champion([0.5, 0.5, 0.5]) == 0.0
    assert ncr_champion([1.0, 0.5, 0.0]) == 1.0


def test_acr_top_hand_value():
    # S = 2*0.75 + 0.5 = 2.0, PB = 1.5, CU = 2 + 2/3
    expected = (2.0 - 1.5) / (2.0 + 2.0 / 3.0 - 1.5)
    assert expected == pytest.approx(3.0 / 7.0)
    assert acr_top(W4, K=2) == pytest.approx(expected, abs=1e-12)


def test_ncr_relegation_hand_value():
    expected = (1.0 - 0.75) / (1.0 - 1.0 / 3.0)
    assert expected == pytest.approx(0.375)
    assert ncr_relegation(W4, I=2) == pytest.approx(expected, abs=1e-12)


def test_scr_hand_value():
    w = [0.8, 0.6, 0.5, 0.5, 0.35, 0.25]
    # top weights 3, 2; relegation weights 1, 1
    s = 3 * 0.3 + 2 * 0.1 + 1 * 0.15 + 1 * 0.25
    s_cu = 3 * 0.5 + 2 * 0.3 + 1 * 0.3 + 1 * 0.5
    assert (s, s_cu) == (pytest.approx(1.5), pytest.approx(2.9))
    assert scr(w, K=2, I=2) == pytest.approx(s / s_cu, abs=1e-12)


# ---------------------------------------------------------------- errors & clamps


def test_degenerate_inputs_raise():
    with pytest.raises(InputError):
        namsi([0.5])
    with pytest.raises(InputError):
        hhi_star([0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        acr_top(W4, K=4)
    with pytest.raises(InputError):
        ncr_relegation(W4, I=0)


def test_rank_w_mismatch_is_clamped_with_warning():
    # champion (rank 1) below the mean: linear form goes negative, clamps at 0
    with pytest.warns(IndexRangeWarning):
        assert ncr_champion([0.2, 0.5, 0.8]) == 0.0


def test_incomplete_schedule_renormalises_with_warning():
    with pytest.warns(IncompleteScheduleWarning):
        value = namsi([0.9, 0.6, 0.3])  # mean 0.6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert value == pytest.approx(namsi(np.array([0.9, 0.6, 0.3]) * (0.5 / 0.6)), abs=1e-12)


def test_compute_seasonal_checks_the_season_once():
    # wins and losses do not balance: the percentages average 27/48
    records = tuple(
        TeamSeasonRecord(f"T{rank}", rank, wins, draws, 6 - wins - draws, 2 * wins + draws)
        for rank, (wins, draws) in enumerate([(5, 1), (4, 0), (3, 0), (1, 0)], start=1)
    )
    season = LeagueSeason("AAA", 1990, records, K=1, I=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = {v.name: v.value for v in compute_all_indices([season])[0]}
    assert [str(c.message) for c in caught if c.category is IncompleteScheduleWarning] == [
        "(AAA, 1990): winning percentages average 0.5625 instead of 0.5 "
        "(incomplete schedule?); deviations renormalised"
    ]
    w = winning_percentages(season)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteScheduleWarning)
        assert values == {name: fn(w, 1, 1) for name, fn in ALL_SEASONAL}


# ---------------------------------------------------------------- properties


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_every_index_in_unit_interval_on_round_robins(n, seed):
    rng = np.random.default_rng(seed)
    season = season_from_outcomes(random_outcomes(n, rng))
    w = winning_percentages(season)
    k, i = levels_for(n)
    for name, fn in ALL_SEASONAL:
        value = fn(w, k, i)
        assert 0.0 <= value <= 1.0, (name, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_only_at_balance(n, seed):
    rng = np.random.default_rng(seed)
    season = season_from_outcomes(random_outcomes(n, rng))
    w = winning_percentages(season)
    if not np.allclose(w, 0.5):
        assert namsi(w) > 0.0
        assert hhi_star(w) > 0.0
        assert adjusted_gini(w) > 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_scale_invariance(n, seed, c):
    rng = np.random.default_rng(seed)
    season = season_from_outcomes(random_outcomes(n, rng))
    w = winning_percentages(season)
    k, i = levels_for(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteScheduleWarning)
        for name, fn in ALL_SEASONAL:
            assert fn(w * c, k, i) == pytest.approx(fn(w, k, i), abs=1e-9), name


def test_label_invariance():
    rng = np.random.default_rng(11)
    season = season_from_outcomes(random_outcomes(5, rng))
    w = winning_percentages(season)
    # indices consume only the rank-indexed vector: same w, same values
    assert namsi(list(w)) == namsi(tuple(w)) == namsi(np.asarray(w))
