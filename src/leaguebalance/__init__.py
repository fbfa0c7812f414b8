"""Competitive-balance indices for football leagues and their effect on attendance.

The package computes seventeen balance indices from final league tables
(seven within-season, six between-seasons, four bi-dimensional averages),
assembles a country-by-season panel of log attendance and macro covariates,
and estimates the pooled attendance regression by iterated feasible GLS
with cross-equation correlation, including unit-root pretests, residual
diagnostics, long-run elasticities and best-versus-worst season effects.
"""

import gc
import os
import sys

# The imports below make tens of thousands of objects and free almost none,
# so the collections they would trigger walk those objects for nothing (and
# a program that imports leaguebalance.cli freezes them right after).
# Collection is off while they run and back in the caller's state after.
# Freezing and at once unfreezing moves every tracked object to the oldest
# generation without walking it, which spares the young collection that
# would otherwise walk them all as soon as collection is back on; it is
# skipped when the caller has frozen objects, which unfreezing would release.
# On a 2-vCPU host the collections during ``import leaguebalance.cli`` took
# 4-5 ms with collection on throughout and 0.2 ms this way.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    # Every operation is one short batch job whose largest matrix is 384 x 25,
    # so OpenBLAS's thread pool only costs start-up time and wakes idle
    # workers: on a 2-vCPU host a fresh ``import numpy`` took 189 ms wall and
    # 187 ms CPU by default and 129 ms / 125 ms with one thread (medians of
    # 15 interleaved runs).  So numpy is imported with one BLAS thread unless
    # the caller already chose a count through any variable OpenBLAS reads.
    # The variable is removed again, so child processes and the rest of the
    # caller's program see the environment they started with.
    _BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401  (OpenBLAS reads the variable when it loads)
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]

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
    from .pipeline import (
        compute_all_indices,
        compute_pairwise,
        compute_seasonal,
        series_from_values,
    )
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
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

__version__ = "0.1.0"
