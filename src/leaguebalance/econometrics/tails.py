"""Upper-tail probabilities of the normal, chi-squared and F(2, d) distributions.

The chi-squared tail is the regularized upper incomplete gamma function,
by its power series below ``a + 1`` and by a modified-Lentz continued
fraction above (Numerical Recipes, 3rd ed., section 6.2).  The only F test
here, RESET, has two numerator degrees of freedom, where the tail has the
closed form (1 + 2f/d)^(-d/2).
"""

from __future__ import annotations

import math

from ..errors import InputError, NumericalError

_EPS = 2.0**-53
# Also the smallest statistic that is not trivial: below it every tail here
# is 1 in double precision (the lower tail is at most about its square root)
_TINY = 1e-300
_MAX_ITER = 10_000
# From here up, Stirling's series to z^-9 has an error below 3e-16
_STIRLING_MIN = 15.0


def two_sided_normal(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    z = abs(z)
    if _is_trivial(z):
        return _trivial(z)
    return math.erfc(z / math.sqrt(2.0))


def chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-squared with ``df`` degrees of freedom."""
    if df < 1:
        raise InputError(f"chi-squared degrees of freedom must be >= 1, got {df}")
    if _is_trivial(x):
        return _trivial(x)
    return _unit(_gamma_q(0.5 * df, 0.5 * x))


def f2_sf(d: int, f: float) -> float:
    """P(F > f) for F with (2, ``d``) degrees of freedom: (1 + 2f/d)^(-d/2)."""
    if d < 1:
        raise InputError(f"F degrees of freedom must be >= 1, got (2, {d})")
    if _is_trivial(f):
        return _trivial(f)
    return _unit(math.exp(-0.5 * d * math.log1p(2.0 * f / d)))


def _is_trivial(stat: float) -> bool:
    if math.isnan(stat):
        raise NumericalError("test statistic is nan")
    return stat <= _TINY or math.isinf(stat)


def _trivial(stat: float) -> float:
    return 1.0 if stat <= _TINY else 0.0


def _unit(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def _nonzero(v: float) -> float:
    """Lentz's guard against a zero denominator."""
    return v if abs(v) >= _TINY else _TINY


def _not_converged(what: str, a: float, x: float):
    return NumericalError(f"{what} did not converge in {_MAX_ITER} terms at ({a}, {x})")


def _stirling_err(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= _STIRLING_MIN."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _gamma_q(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a, x > 0."""
    if a < _STIRLING_MIN:
        log_front = a * math.log(x) - x - math.lgamma(a)
    else:
        # x^a e^-x / Gamma(a) = sqrt(a / 2 pi) (x/a)^a e^(a-x) / e^stirling_err(a):
        # no large terms to cancel
        log_front = (
            0.5 * math.log(a / (2.0 * math.pi)) + a * math.log(x / a) - (x - a) - _stirling_err(a)
        )
    front = math.exp(log_front)
    if x < a + 1.0:
        # P(a, x) = front * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _EPS:
                return 1.0 - front * total
        raise _not_converged("incomplete gamma series", a, x)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return front * h
    raise _not_converged("incomplete gamma continued fraction", a, x)

