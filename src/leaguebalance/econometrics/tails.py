"""Upper-tail probabilities of the normal, chi-squared and F distributions.

The chi-squared tail is the regularized upper incomplete gamma function,
by its power series below ``a + 1`` and by a modified-Lentz continued
fraction above; the F tail is the regularized incomplete beta function by
continued fraction (Numerical Recipes, 3rd ed., sections 6.2 and 6.4).
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


def f_sf(d1: int, d2: int, f: float) -> float:
    """P(F > f) for F with (``d1``, ``d2``) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise InputError(f"F degrees of freedom must be >= 1, got ({d1}, {d2})")
    if _is_trivial(f):
        return _trivial(f)
    # P(F > f) = I_x(d2/2, d1/2) at x = d2 / (d2 + d1 f); 1 - x is formed
    # from d1 f directly, because 1 - x loses the tail when f is tiny
    ratio = d1 * f / d2
    if math.isinf(ratio):
        return 0.0
    x, y = 1.0 / (1.0 + ratio), ratio / (1.0 + ratio)
    a, b = 0.5 * d2, 0.5 * d1
    # x^a y^b / B(a, b), shared by I_x(a, b) and I_y(b, a) = 1 - I_x(a, b)
    front = math.exp(b * math.log(ratio) - (a + b) * math.log1p(ratio) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return _unit(front * _beta_cf(a, b, x) / a)
    return _unit(1.0 - front * _beta_cf(b, a, y) / b)


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


def _log_beta(a: float, b: float) -> float:
    small, big = sorted((a, b))
    if big < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lgamma(big + small) - lgamma(big) without the cancellation of two
    # large lgamma values
    shift = (
        (big - 0.5) * math.log1p(small / big)
        + small * (math.log(big + small) - 1.0)
        + _stirling_err(big + small)
        - _stirling_err(big)
    )
    return math.lgamma(small) - shift


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


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * cf;
    converges fast for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _MAX_ITER):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise _not_converged("incomplete beta continued fraction", a, x)
