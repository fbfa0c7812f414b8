"""Competitive-balance indices for football leagues and their effect on attendance.

The package computes seventeen balance indices from final league tables
(seven within-season, six between-seasons, four bi-dimensional averages),
assembles a country-by-season panel of log attendance and macro covariates,
and estimates the pooled attendance regression by iterated feasible GLS
with cross-equation correlation, including unit-root pretests, residual
diagnostics, long-run elasticities and best-versus-worst season effects.
"""

from .catalog import (
    ALL_INDEX_NAMES,
    BIDIMENSIONAL_INDEX_NAMES,
    BIDIMENSIONAL_PAIRS,
    DYNAMIC_INDEX_NAMES,
    SEASONAL_INDEX_NAMES,
    PRIZE_LEVELS,
    IndexValue,
    PrizeLevel,
)
from .dynamic import (
    GIndexResult,
    SeasonPair,
    TopKWindow,
    adn_top,
    combine_bidimensional,
    dn_champion,
    dn_relegation,
    g_index,
    g_index_detail,
    sdn,
    tau_rescaled,
)
from .errors import ConfigError, InputError, LeagueBalanceError, NumericalError
from .panel import (
    Config,
    LeagueSeason,
    LevelsRule,
    MacroObservation,
    PanelDataset,
    TeamSeasonRecord,
    build_panel,
    parse_league_csv,
    parse_macro_csv,
    winning_percentages,
)
from .pipeline import compute_all_indices, compute_pairwise, compute_seasonal, series_from_values
from .seasonal import (
    acr_top,
    adjusted_gini,
    cu_percentages,
    hhi_star,
    namsi,
    ncr_champion,
    ncr_relegation,
    scr,
)

__version__ = "0.1.0"
