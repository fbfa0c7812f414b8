"""Result containers shared by the estimation and testing routines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .design import DesignMatrix


@dataclass
class TestResult:
    """A test statistic with its reference distribution and p-value."""

    name: str
    statistic: float
    df: int | tuple[int, int] | None
    p_value: float
    note: str = ""

    def __post_init__(self) -> None:
        if np.isfinite(self.p_value) and not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"{self.name}: p-value {self.p_value} outside [0, 1]")


@dataclass
class FitResult:
    """Pooled regression estimates and the design they were estimated on.

    ``residuals`` and ``fitted`` are stacked in design row order; the
    design's grid places them on the (years, countries) grid.  ``sigma`` is
    the cross-country residual covariance in ``design.country_list`` order;
    ``cov`` is the classical coefficient covariance and ``cov_robust`` the
    year-clustered sandwich when set.  ``iterations`` counts GLS passes;
    ``converged`` is False when an iterated fit stopped at its limit;
    ``final_delta`` is the largest coefficient change of the last iteration
    (NaN without iteration).
    """

    coef_names: list[str]
    beta: np.ndarray
    cov: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    nobs: int = 0
    r2_adj: float = float("nan")
    iterations: int = 0
    converged: bool = True
    final_delta: float = float("nan")
    design: DesignMatrix | None = None
    sigma: np.ndarray | None = None
    cov_robust: np.ndarray | None = None

    def coef(self, name: str) -> float:
        return float(self.beta[self.coef_names.index(name)])

    def se(self, name: str, robust: bool = False) -> float:
        cov = self.cov_robust if (robust and self.cov_robust is not None) else self.cov
        return float(np.sqrt(cov[self.coef_names.index(name), self.coef_names.index(name)]))

    def fitted_design(self) -> DesignMatrix:
        """The design of this fit, for the routines that read its grid."""
        if self.design is None:
            raise InputError("fit carries no design; fit a design first")
        return self.design

    def residual_series(self) -> dict[str, np.ndarray]:
        """Each country's residuals in year order, read from the grid's columns."""
        design = self.fitted_design()
        resid, mask = design.grid.fill(self.residuals).T, design.grid.mask.T
        return {c: e[m] for c, e, m in zip(design.country_list, resid, mask)}
