"""The program surface the benchmark tracer (``bench/tracing.py``) reads.

The tracer wraps functions at the module attributes through which the
program calls them and reads a few public fields of their results; a name
that goes away turns its per-layer metrics into ``missing``, and only a
benchmark run would show it.  These tests fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from leaguebalance.econometrics import sur_egls_fit
from leaguebalance.simulate import DgpParams
from support import dgp_design

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_attribute_resolves(tracing):
    sites = [site for group in tracing.GROUPS.values() for site in group]
    assert sites
    unresolved = [
        (module, attr) for module, attr in sites
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert unresolved == []


def test_results_carry_the_traced_fields(tracing):
    params = DgpParams(countries=("C1", "C2", "C3"), n_seasons=24, start_season=1980)
    design, _, _ = dgp_design(seed=3, params=params)
    fit = sur_egls_fit(design, iterate=False)
    for field in ("nobs", "columns", "countries", "years"):
        assert hasattr(design, field), field
    assert hasattr(fit, "iterations")

    tracer = tracing.Tracer()
    tracer._count_design(design)
    tracer._count_fit(fit)
    assert tracer.missing == set()
    counts = {name: value for name, _, value in tracer.counts}
    assert counts == {
        "design.rows": design.nobs,
        "design.cols": len(design.columns),
        "sur.year_blocks": len(design.grid.years),
        "sur.presence_patterns": 1,
        "sur.iterations": fit.iterations,
    }
