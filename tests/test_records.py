"""The package's value records: immutability, value equality and hash,
the defaults the CLI reads from them, and what importing the package leaves
behind."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leaguebalance
from leaguebalance.catalog import PRIZE_LEVELS, IndexValue, PrizeLevel
from leaguebalance.cli import IndexFitReport, build_parser
from leaguebalance.dynamic import GIndexResult, SeasonPair, TopKWindow
from leaguebalance.econometrics import FitResult, LongRunEffect, RegressionSpec, TestResult
from leaguebalance.econometrics.design import DesignMatrix, YearGrid
from leaguebalance.econometrics.longrun import EffectResult
from leaguebalance.econometrics.unitroot import AdfResult
from leaguebalance.panel import (
    Config,
    LeagueSeason,
    LevelsRule,
    MacroObservation,
    PanelDataset,
    TeamSeasonRecord,
)
from leaguebalance.pipeline import GDiagnostic
from leaguebalance.seasonal import CheckedPercentages
from leaguebalance.simulate import DgpParams, DgpSimulation, LeagueSimParams

SRC = str(Path(leaguebalance.__file__).resolve().parent.parent)
WEIGHTS = np.array([0.7, 0.5, 0.3])


def team(name: str, rank: int) -> TeamSeasonRecord:
    return TeamSeasonRecord(name, rank, 5 - rank, 0, rank - 1, 3 * (5 - rank))


def season(year: int) -> LeagueSeason:
    return LeagueSeason("A", year, tuple(team(f"T{r}", r) for r in range(1, 6)), K=1, I=1)


def design() -> DesignMatrix:
    grid = YearGrid(np.array([2000, 2001]), np.array([[0], [1]]))
    return DesignMatrix(np.zeros(2), np.ones((2, 1)), ["c"], ["A"], grid)


def fit() -> FitResult:
    return FitResult(design(), np.zeros(1), np.eye(1), np.zeros(2))


# name -> a function that builds a record from equal field values: fresh
# where a field compares by value, the same array where it holds one.  The
# hashable ones are the records whose fields all hash.
HASHABLE = {
    "PrizeLevel": lambda: PrizeLevel("ncr1", "dn1", "dc1", PRIZE_LEVELS[0].weights),
    "IndexValue": lambda: IndexValue("namsi", "A", 2000, 0.25),
    "TeamSeasonRecord": lambda: team("T1", 1),
    "LeagueSeason": lambda: season(2000),
    "MacroObservation": lambda: MacroObservation("A", 2000, 9000.0, 5e6, 15000.0, 7.5),
    "LevelsRule": lambda: LevelsRule("A", 1990, 1999, 2, 3),
    "Config": lambda: Config(levels=(LevelsRule("A", 1990, 1999, 2, 3),), countries=("A",)),
    "SeasonPair": lambda: SeasonPair(season(2000), season(2001)),
    "TopKWindow": lambda: TopKWindow((season(2000), season(2001)), 1),
    "GIndexResult": lambda: GIndexResult(0.5, 3, 4.5),
    "GDiagnostic": lambda: GDiagnostic("A", 2004, 4.5),
    "TestResult": lambda: TestResult("lm", 3.5, (2, 10), 0.25, "note"),
    "AdfResult": lambda: AdfResult("adf_c", -2.5, None, 0.1, lag=2),
    "RegressionSpec": lambda: RegressionSpec("sdc_ki", adl_order=3),
    "LongRunEffect": lambda: LongRunEffect("cb", -1.0, 0.5, -2.0, 0.05),
    "EffectResult": lambda: EffectResult(-3.5, -350.0),
    "LeagueSimParams": lambda: LeagueSimParams(n_teams=8, country="B"),
    "DgpParams": lambda: DgpParams(countries=("C1", "C2"), n_seasons=20),
}
UNHASHABLE = {
    "CheckedPercentages": lambda: CheckedPercentages(WEIGHTS),
    "DesignMatrix": lambda: DesignMatrix(DESIGN.y, DESIGN.X, ["c"], ["A"], DESIGN.grid),
    "IndexFitReport": lambda: IndexFitReport("namsi", FIT, [], [("dw", 2.0, "", 0.5, "")]),
    "DgpSimulation": lambda: DgpSimulation([], [IndexValue("namsi", "C1", 2000, 0.25)]),
}
DESIGN = design()
FIT = fit()
FROZEN = {**HASHABLE, **UNHASHABLE}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_assigning_or_deleting_a_field_raises(name):
    record = FROZEN[name]()
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert next(iter(vars(record))) == field and vars(record)[field] is not None


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_fields_compare_and_hash_equal(name):
    a, b = HASHABLE[name](), HASHABLE[name]()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b) == hash(tuple(vars(a).values()))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_equal_fields_compare_equal(name):
    a, b = UNHASHABLE[name](), UNHASHABLE[name]()
    assert a is not b and a == b


def test_a_changed_field_or_another_class_is_unequal():
    assert IndexValue("namsi", "A", 2000, 0.25) != IndexValue("namsi", "A", 2001, 0.25)
    assert RegressionSpec("sdc_ki") != RegressionSpec("sdc_ki", include_d97=False)
    test = TestResult("adf_c", -2.5, None, 0.1)
    assert test != AdfResult("adf_c", -2.5, None, 0.1) and test != ("adf_c", -2.5, None, 0.1)


def test_repr_names_the_fields_in_order():
    assert repr(IndexValue("namsi", "A", 2000, 0.25)) == (
        "IndexValue(name='namsi', country='A', season=2000, value=0.25)"
    )
    assert repr(AdfResult("adf_c", -2.5, None, 0.1, lag=2)) == (
        "AdfResult(name='adf_c', statistic=-2.5, df=None, p_value=0.1, note='', lag=2)"
    )


def test_constructors_keep_positional_order_and_checks():
    assert vars(AdfResult("adf_c", -2.5, None, 0.1, "n", 2)) == {
        "name": "adf_c", "statistic": -2.5, "df": None, "p_value": 0.1, "note": "n", "lag": 2,
    }
    with pytest.raises(ValueError, match="p-value 1.5 outside"):
        AdfResult("adf_c", -2.5, None, 1.5)
    assert vars(DgpSimulation([], [IndexValue("namsi", "C1", 2000, 0.25)])) == {
        "macro": [], "indices": [IndexValue("namsi", "C1", 2000, 0.25)],
    }


def test_panel_compares_by_identity():
    fields = (("A",), np.arange(2000, 2003), np.ones((3, 1), bool)) + (np.zeros((3, 1)),) * 4
    a, b = PanelDataset(*fields), PanelDataset(*fields)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.countries = ("B",)


def test_fit_result_is_mutable():
    result = fit()
    assert result.cov_robust is None
    result.cov_robust = np.eye(1)
    assert result.cov_robust[0, 0] == 1.0
    assert list(vars(result))[-1] == "cov_robust"
    assert math.isnan(result.r2_adj) and result.converged
    with pytest.raises(TypeError):
        hash(result)


def test_class_defaults_match_the_constructors():
    def default(cls, name):
        return inspect.signature(cls).parameters[name].default

    assert RegressionSpec.adl_order == default(RegressionSpec, "adl_order")
    assert RegressionSpec.adl_order == RegressionSpec("sdc_ki").adl_order
    fit_args = build_parser().parse_args(
        ["fit", "--macro", "m.csv", "--indices", "i.csv", "--out-dir", "o"]
    )
    assert fit_args.adl_order == RegressionSpec.adl_order
    for name in inspect.signature(LeagueSimParams).parameters:
        assert getattr(LeagueSimParams, name) == default(LeagueSimParams, name), name
        assert getattr(LeagueSimParams(), name) == getattr(LeagueSimParams, name), name
    for name in ("n_seasons", "start_season"):
        assert getattr(DgpParams, name) == default(DgpParams, name), name
        assert getattr(DgpParams(), name) == getattr(DgpParams, name), name


def run_fresh(code: str) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_import_defines_no_generated_records_and_leaves_collection_on():
    state = run_fresh(
        "import gc, json, sys\n"
        "import leaguebalance.cli, leaguebalance.simulate\n"
        "modules = [m for n, m in list(sys.modules.items())\n"
        "           if n.split('.')[0] == 'leaguebalance']\n"
        "generated = sorted(f'{m.__name__}.{k}' for m in modules for k, v in vars(m).items()\n"
        "                   if isinstance(v, type) and hasattr(v, '__dataclass_fields__'))\n"
        "print(json.dumps({'modules': len(modules), 'generated': generated,\n"
        "                  'gc': gc.isenabled()}))"
    )
    assert state["modules"] > 10
    assert state["generated"] == []
    assert state["gc"] is True


def test_import_keeps_collection_off_when_the_caller_turned_it_off():
    state = run_fresh(
        "import gc, json\n"
        "gc.disable()\n"
        "import leaguebalance\n"
        "print(json.dumps({'gc': gc.isenabled()}))"
    )
    assert state["gc"] is False


def test_import_keeps_the_callers_frozen_objects_frozen():
    state = run_fresh(
        "import gc, json\n"
        "gc.freeze()\n"
        "frozen = gc.get_freeze_count()\n"
        "import leaguebalance\n"
        "print(json.dumps({'before': frozen, 'after': gc.get_freeze_count()}))"
    )
    assert state["before"] > 0
    assert state["after"] == state["before"]
