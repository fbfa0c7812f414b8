"""Estimation pipeline: unit roots, pooled ADL regression by iterated
feasible GLS with cross-equation correlation, diagnostics, and long-run
effects."""

from .base import FitResult, TestResult
from .design import DesignMatrix, RegressionSpec, build_adl_design
from .diagnostics import breusch_pagan_lm, durbin_watson_panel, jarque_bera, ramsey_reset
from .longrun import EffectResult, LongRunEffect, attendance_effect, long_run_effects
from .sur import sur_egls_fit, white_cross_section_cov
from .unitroot import AdfResult, adf_test, fisher_panel_unit_root

__all__ = [
    "AdfResult",
    "DesignMatrix",
    "EffectResult",
    "FitResult",
    "LongRunEffect",
    "RegressionSpec",
    "TestResult",
    "adf_test",
    "attendance_effect",
    "breusch_pagan_lm",
    "build_adl_design",
    "durbin_watson_panel",
    "fisher_panel_unit_root",
    "jarque_bera",
    "long_run_effects",
    "sur_egls_fit",
    "white_cross_section_cov",
]
