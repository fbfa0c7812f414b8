"""Result containers shared by the estimation and testing routines."""

from __future__ import annotations

import numpy as np

from ..record import Record
from .design import DesignMatrix


class TestResult(Record):
    """A test statistic with its reference distribution and p-value."""

    def __init__(
        self,
        name: str,
        statistic: float,
        df: int | tuple[int, int] | None,
        p_value: float,
        note: str = "",
    ) -> None:
        self.__dict__.update(name=name, statistic=statistic, df=df, p_value=p_value, note=note)
        if np.isfinite(self.p_value) and not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"{self.name}: p-value {self.p_value} outside [0, 1]")


class FitResult(Record):
    """Pooled regression estimates and the design they were estimated on.

    The design owns the coefficient names (``design.columns``), the row
    count and the grid; ``residuals`` are stacked in design row order.
    ``sigma`` is the cross-country residual covariance in
    ``design.country_list`` order; ``cov`` is the classical coefficient
    covariance and ``cov_robust`` the year-clustered sandwich when set.
    ``iterations`` counts GLS passes; ``converged`` is False when an
    iterated fit stopped at its limit; ``final_delta`` is the largest
    coefficient change of the last iteration (NaN without iteration).
    A fit is mutable, so that ``cov_robust`` can be set after it.
    """

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        design: DesignMatrix,
        beta: np.ndarray,
        cov: np.ndarray,
        residuals: np.ndarray,
        r2_adj: float = float("nan"),
        iterations: int = 0,
        converged: bool = True,
        final_delta: float = float("nan"),
        sigma: np.ndarray | None = None,
        cov_robust: np.ndarray | None = None,
    ) -> None:
        self.__dict__.update(
            design=design,
            beta=beta,
            cov=cov,
            residuals=residuals,
            r2_adj=r2_adj,
            iterations=iterations,
            converged=converged,
            final_delta=final_delta,
            sigma=sigma,
            cov_robust=cov_robust,
        )

    def coef(self, name: str) -> float:
        return float(self.beta[self.design.columns.index(name)])

    def se(self, name: str, robust: bool = False) -> float:
        cov = self.cov_robust if (robust and self.cov_robust is not None) else self.cov
        return float(np.sqrt(np.diag(cov)[self.design.columns.index(name)]))

    def residual_series(self) -> dict[str, np.ndarray]:
        """Each country's residuals in year order, read from the grid's columns."""
        grid = self.design.grid
        resid, mask = grid.fill(self.residuals).T, grid.mask.T
        return {c: e[m] for c, e, m in zip(self.design.country_list, resid, mask)}
