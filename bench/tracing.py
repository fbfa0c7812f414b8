"""In-process traced replay of a workload, for the per-layer metrics.

Each listed public function is wrapped at the attribute through which the
program calls it.  A wrapper passes arguments and results through
unchanged and records a span (name, start, end, parent, operation id) in
memory; spans are written once, when the run ends.  Counts come only from
public fields of results: ``FitResult.iterations`` and ``DesignMatrix``'s
``nobs``, ``columns``, ``countries`` and ``years``.  A function or field that
no longer exists makes its metrics missing; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass

# span group -> (module, attribute) pairs wrapped for it
GROUPS = {
    "panel.parse_league_csv": [("leaguebalance.cli", "parse_league_csv")],
    "panel.parse_macro_csv": [("leaguebalance.cli", "parse_macro_csv")],
    "panel.build_panel": [("leaguebalance.cli", "build_panel")],
    "panel.winning_percentages": [("leaguebalance.pipeline", "winning_percentages")],
    "seasonal": [
        ("leaguebalance.seasonal", name)
        for name in ("namsi", "hhi_star", "adjusted_gini", "ncr_champion", "acr_top",
                     "ncr_relegation", "scr")
    ],
    "dynamic.pairwise": [
        ("leaguebalance.dynamic", name)
        for name in ("tau_rescaled", "dn_champion", "adn_top", "dn_relegation", "sdn")
    ],
    "dynamic.g_index_detail": [("leaguebalance.dynamic", "g_index_detail")],
    "pipeline.compute_all_indices": [("leaguebalance.cli", "compute_all_indices")],
    "design.build_adl_design": [("leaguebalance.cli", "build_adl_design")],
    "sur.sur_egls_fit": [("leaguebalance.cli", "sur_egls_fit")],
    "sur.white_cross_section_cov": [("leaguebalance.cli", "white_cross_section_cov")],
    "diagnostics": [
        ("leaguebalance.cli", name)
        for name in ("durbin_watson_panel", "breusch_pagan_lm", "ramsey_reset", "jarque_bera")
    ],
    "unitroot.adf_test": [("leaguebalance.cli", "adf_test")],
    "longrun.long_run_effects": [("leaguebalance.cli", "long_run_effects")],
    "reports.write": [
        ("leaguebalance.cli", "write_csv"),
        ("leaguebalance.cli", "write_text_table"),
    ],
    "manifest.write_manifest": [("leaguebalance.cli", "write_manifest")],
}
MAIN = "cli.main"

# per_layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "python.startup_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "panel.parse_league_csv.s": "s",
    "panel.parse_macro_csv.s": "s",
    "panel.build_panel.s": "s",
    "panel.winning_percentages.s": "s",
    "panel.league_rows": "count",
    "seasonal.s": "s",
    "seasonal.calls": "count",
    "dynamic.pairwise.s": "s",
    "dynamic.pairwise.calls": "count",
    "dynamic.g_index_detail.s": "s",
    "dynamic.g_index_detail.calls": "count",
    "pipeline.compute_all_indices.s": "s",
    "pipeline.compute_all_indices.self_s": "s",
    "design.build_adl_design.s": "s",
    "design.build_adl_design.calls": "count",
    "design.build_adl_design.errors": "count",
    "design.rows": "count",
    "design.cols": "count",
    "sur.sur_egls_fit.s": "s",
    "sur.sur_egls_fit.calls": "count",
    "sur.iterations": "count",
    "sur.year_blocks": "count",
    "sur.presence_patterns": "count",
    "sur.white_cross_section_cov.s": "s",
    "diagnostics.s": "s",
    "unitroot.adf_test.s": "s",
    "unitroot.adf_test.calls": "count",
    "longrun.long_run_effects.s": "s",
    "reports.write.s": "s",
    "reports.bytes": "count",
    "manifest.write_manifest.s": "s",
    "ops.fail_ratio": "1",
    "ops.rejected": "count",
    "ops.crashes": "count",
    "trace.overhead_ratio": "1",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    error: bool = False


class Tracer:
    """Installs span-recording wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, int, float]] = []  # (name, op id, value)
        self.missing: set[str] = set()
        self.op = 0
        self._stack: list[int] = []  # indices of the open spans
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.op, value))

    # ------------------------------------------------------------ installing

    def _wrap(self, group: str, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(group, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "panel.parse_league_csv": self._count_league_rows,
            "design.build_adl_design": self._count_design,
            "sur.sur_egls_fit": self._count_fit,
            "reports.write": self._count_bytes,
        }
        for group, sites in GROUPS.items():
            try:
                modules = [importlib.import_module(m) for m, _ in sites]
            except ImportError:
                modules = []
            if not modules or not all(
                hasattr(mod, attr) for mod, (_, attr) in zip(modules, sites)
            ):
                self.missing.add(group)
                continue
            for mod, (_, attr) in zip(modules, sites):
                original = getattr(mod, attr)
                setattr(mod, attr, self._wrap(group, original, hooks.get(group)))
                self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------ count hooks

    def _field(self, obj, field: str, *metrics: str):
        """``obj.field``, or None with ``metrics`` marked missing when it is gone."""
        if not hasattr(obj, field):
            self.missing.update(metrics)
            return None
        return getattr(obj, field)

    def _count_league_rows(self, seasons) -> None:
        rows = [self._field(s, "records", "panel.league_rows") for s in seasons]
        if None not in rows:
            self.count("panel.league_rows", sum(len(r) for r in rows))

    def _count_design(self, design) -> None:
        nobs = self._field(design, "nobs", "design.rows")
        if nobs is not None:
            self.count("design.rows", nobs)
        columns = self._field(design, "columns", "design.cols")
        if columns is not None:
            self.count("design.cols", len(columns))
        grid = ("sur.year_blocks", "sur.presence_patterns")
        years = self._field(design, "years", *grid)
        countries = self._field(design, "countries", *grid)
        if years is None or countries is None:
            return
        present: dict[int, set] = {}
        for year, country in zip(years.tolist(), countries.tolist()):
            present.setdefault(year, set()).add(country)
        self.count("sur.year_blocks", len(present))
        self.count("sur.presence_patterns", len({frozenset(c) for c in present.values()}))

    def _count_fit(self, fit) -> None:
        iterations = self._field(fit, "iterations", "sur.iterations")
        if iterations is not None:
            self.count("sur.iterations", iterations)

    def _count_bytes(self, path) -> None:
        if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
            self.count("reports.bytes", os.path.getsize(path))
        else:
            self.missing.add("reports.bytes")


# ---------------------------------------------------------------- aggregation


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def pass_metrics(tracer: Tracer, ops: set[int]) -> dict[str, float]:
    """Per-layer metrics of one pass, made of the operations ``ops``."""
    picked = [(i, s) for i, s in enumerate(tracer.spans) if s.op in ops]
    children: dict[int, list[Span]] = {}
    for _, s in picked:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def outermost(s: Span) -> bool:
        # a call nested in a call of the same group is already in its time
        p = s.parent
        while p is not None:
            if tracer.spans[p].name == s.name:
                return False
            p = tracer.spans[p].parent
        return True

    out: dict[str, float] = {}
    for group in [MAIN, *GROUPS]:
        mine = [(i, s) for i, s in picked if s.name == group and outermost(s)]
        out[f"{group}.s"] = sum(s.end - s.start for _, s in mine)
        out[f"{group}.self_s"] = sum(
            (s.end - s.start) - _union_length([(k.start, k.end) for k in children.get(i, [])])
            for i, s in mine
        )
        out[f"{group}.calls"] = len(mine)
        out[f"{group}.errors"] = sum(s.error for _, s in mine)

    values: dict[str, list[float]] = {}
    for name, op, value in tracer.counts:
        if op in ops:
            values.setdefault(name, []).append(value)
    for name in ("panel.league_rows", "reports.bytes"):
        out[name] = sum(values.get(name, ()))
    for name in ("design.rows", "design.cols", "sur.year_blocks", "sur.presence_patterns"):
        out[name] = max(values.get(name, ()), default=0)
    # iterations of a typical fit: every index's fit sees the same panel
    out["sur.iterations"] = statistics.median(values.get("sur.iterations") or [0])
    return out


# counts that describe the workload's shape rather than its cost: they must
# not move between passes, and a change that moves them changes the workload
SHAPE_COUNTS = (
    "panel.league_rows", "design.rows", "design.cols", "sur.year_blocks",
    "sur.presence_patterns", "reports.bytes",
)

# count metric -> the span group whose results it is read from
COUNT_GROUP = {
    "panel.league_rows": "panel.parse_league_csv",
    "design.rows": "design.build_adl_design",
    "design.cols": "design.build_adl_design",
    "sur.year_blocks": "design.build_adl_design",
    "sur.presence_patterns": "design.build_adl_design",
    "sur.iterations": "sur.sur_egls_fit",
    "reports.bytes": "reports.write",
}


def is_missing(tracer: Tracer, metric: str) -> bool:
    """True when the function or field a metric is read from no longer exists."""
    group = COUNT_GROUP.get(metric) or next(
        (g for g in GROUPS if metric.startswith(g + ".")), None
    )
    return metric in tracer.missing or group in tracer.missing
