import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from leaguebalance import InputError, NumericalError
from leaguebalance.econometrics.tails import chi2_sf, f2_sf, two_sided_normal

# relative agreement is required above this; nearer the underflow limit the
# oracle's own intermediate terms lose digits
_FLOOR = 1e-290


def assert_close(got: float, ref: float, rel: float) -> None:
    assert 0.0 <= got <= 1.0
    if ref >= _FLOOR:
        assert abs(got - ref) <= rel * ref, (got, ref)


@st.composite
def chi2_points(draw):
    df = draw(st.integers(1, 400))
    return df, draw(st.floats(0.0, 20.0 * df + 50.0))


@settings(max_examples=400, deadline=None)
@given(chi2_points())
def test_chi2_matches_scipy(point):
    df, x = point
    assert_close(chi2_sf(df, x), float(special.chdtrc(df, x)), 1e-12)


def f2_oracle(d: int, f: float) -> float:
    """scipy's F(2, d) tail.  fdtrc rounds x = d / (d + 2f) and so loses the
    tail when f is tiny; where the tail is above 1/2 it is taken as
    1 - I_y(1, d/2) at y = 2f / (d + 2f) instead."""
    ref = float(special.fdtrc(2, d, f))
    if ref > 0.5:
        ref = 1.0 - float(special.betainc(1.0, 0.5 * d, 2.0 * f / (d + 2.0 * f)))
    return ref


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3000), st.floats(0.0, 1e3))
def test_f_matches_scipy(d, f):
    assert_close(f2_sf(d, f), f2_oracle(d, f), 1e-11)


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 40.0))
def test_normal_matches_scipy(z):
    ref = float(2.0 * special.ndtr(-z))
    assert_close(two_sided_normal(z), ref, 1e-12)
    assert two_sided_normal(-z) == two_sided_normal(z)


@pytest.mark.parametrize("x", [0.1, 1.0, 7.5, 60.0, 700.0])
def test_chi2_two_df_is_exponential(x):
    assert chi2_sf(2, x) == pytest.approx(math.exp(-x / 2.0), rel=1e-14)


@pytest.mark.parametrize(
    "tail",
    [
        lambda s: chi2_sf(1, s),
        lambda s: chi2_sf(400, s),
        lambda s: f2_sf(1, s),
        lambda s: f2_sf(3000, s),
        lambda s: two_sided_normal(s),
    ],
)
def test_endpoints(tail):
    assert tail(0.0) == 1.0
    assert tail(math.inf) == 0.0
    with pytest.raises(NumericalError, match="nan"):
        tail(math.nan)


@pytest.mark.parametrize("f", [-1e-14, -0.5, -math.inf])
def test_f_statistic_below_zero_has_tail_one(f):
    # a caller's statistic may round below 0; the tail is still defined
    assert f2_sf(30, f) == 1.0


def test_f_huge_statistic_has_tail_zero():
    assert f2_sf(1, 1e308) == 0.0


@pytest.mark.parametrize("call", [lambda: chi2_sf(0, 1.0), lambda: f2_sf(0, 1.0)])
def test_degrees_of_freedom_below_one_rejected(call):
    with pytest.raises(InputError, match="degrees of freedom"):
        call()
