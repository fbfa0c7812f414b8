"""Long-run elasticities from the levels-and-differences fit, and the
best-versus-worst-season attendance effect."""

from __future__ import annotations

import math

import numpy as np

from ..errors import InputError, NumericalError
from ..record import Record
from .base import FitResult
from .design import COVARIATES, RegressionSpec
from .tails import two_sided_normal

_A1_TOL = 1e-8


class LongRunEffect(Record):
    def __init__(self, variable: str, estimate: float, se: float, z: float, p_value: float) -> None:
        self.__dict__.update(variable=variable, estimate=estimate, se=se, z=z, p_value=p_value)


class EffectResult(Record):
    def __init__(self, percent: float, fans_per_game: float) -> None:
        self.__dict__.update(percent=percent, fans_per_game=fans_per_game)


def _delta_ratio(fit: FitResult, num_name: str, att_name: str, cov: np.ndarray):
    """Estimate and delta-method SE of beta_num / (-beta_att)."""
    i = fit.design.columns.index(num_name)
    j = fit.design.columns.index(att_name)
    b = float(fit.beta[i])
    c = float(fit.beta[j])  # coefficient on lagged log attendance, equals -A(1)
    est = -b / c
    grad_b = -1.0 / c
    grad_c = b / c**2
    var = (
        grad_b * grad_b * cov[i, i]
        + 2.0 * grad_b * grad_c * cov[i, j]
        + grad_c * grad_c * cov[j, j]
    )
    return est, math.sqrt(max(var, 0.0))


def long_run_effects(fit: FitResult, spec: RegressionSpec) -> list[LongRunEffect]:
    """Equilibrium effects once all first differences are set to zero.

    For each covariate j the long-run elasticity is B_j(1) / A(1), where
    A(1) is the magnitude of the lagged-log-attendance coefficient; trend
    and dummy effects are their coefficients divided by A(1).  Standard
    errors use the delta method on the robust covariance when available.
    """
    att_name = "ln_att_lag1"
    if att_name not in fit.design.columns:
        raise InputError("fit has no lagged attendance level; not a levels-and-differences fit")
    a1 = -fit.coef(att_name)
    if abs(a1) < _A1_TOL:
        raise NumericalError(
            f"no error correction: |A(1)|={abs(a1):.3g} < {_A1_TOL:g}, no long-run relation"
        )
    cov = fit.cov_robust if fit.cov_robust is not None else fit.cov
    targets = [(v, f"ln_{v}_lag1") for v in COVARIATES]
    targets.extend((name, name) for name in spec.deterministic_columns())

    out = []
    for label, col in targets:
        est, se = _delta_ratio(fit, col, att_name, cov)
        z = est / se if se > 0 else float("inf")
        out.append(
            LongRunEffect(
                variable=label,
                estimate=est,
                se=se,
                z=z,
                p_value=two_sided_normal(z),
            )
        )
    return out


def attendance_effect(
    elasticity: float,
    cb_best: float,
    cb_worst: float,
    avg_attendance: float,
) -> EffectResult:
    """Attendance gain implied by moving from the worst to the best balance season.

    percent = |elasticity| * (cb_worst - cb_best) / cb_worst, and
    fans_per_game = percent * avg_attendance.
    """
    if not math.isfinite(elasticity):
        raise InputError(f"elasticity must be finite, got {elasticity}")
    if cb_worst <= 0.0:
        raise InputError(f"cb_worst must be positive, got {cb_worst}")
    if cb_best > cb_worst:
        raise InputError(
            f"argument order error: cb_best={cb_best} exceeds cb_worst={cb_worst}"
        )
    if avg_attendance <= 0.0:
        raise InputError(f"avg_attendance must be positive, got {avg_attendance}")
    percent = abs(elasticity) * (cb_worst - cb_best) / cb_worst
    fans_per_game = percent * avg_attendance
    if not (math.isfinite(percent) and math.isfinite(fans_per_game)):
        raise InputError(
            f"effect of elasticity {elasticity} on attendance {avg_attendance} is not finite"
        )
    return EffectResult(percent=percent, fans_per_game=fans_per_game)
