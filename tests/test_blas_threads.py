"""``import leaguebalance`` loads numpy with one OpenBLAS thread unless the
caller chose a thread count, and leaves the environment as it found it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import leaguebalance

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SRC = str(Path(leaguebalance.__file__).resolve().parent.parent)

# the state of a fresh process after the code under test: the three
# variables and the number of its threads
REPORT = (
    "import json, os; print(json.dumps({'env': {v: os.environ.get(v) for v in %r}, "
    "'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None}))"
    % (THREAD_VARS,)
)


def run_fresh(code: str, **preset: str) -> dict:
    """Run ``code`` then REPORT in a fresh interpreter whose environment has
    none of the thread variables except ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(preset)
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def numpy_uses_openblas() -> bool:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower()


def test_import_pins_one_thread_and_restores_the_environment():
    pinned = run_fresh("import leaguebalance")
    assert pinned["env"] == dict.fromkeys(THREAD_VARS)
    if not (
        sys.platform.startswith("linux")
        and min(os.cpu_count() or 1, len(os.sched_getaffinity(0))) >= 2
        and numpy_uses_openblas()
    ):
        pytest.skip("thread count needs Linux, OpenBLAS and at least 2 CPUs")
    two = run_fresh("import leaguebalance", OPENBLAS_NUM_THREADS="2")
    assert pinned["threads"] < two["threads"]


@pytest.mark.parametrize("var", THREAD_VARS)
def test_preset_thread_count_survives(var):
    state = run_fresh("import leaguebalance", **{var: "2"})
    assert state["env"] == {v: "2" if v == var else None for v in THREAD_VARS}


def test_import_after_numpy_leaves_environment_unchanged():
    code = (
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import leaguebalance\n"
        "assert dict(os.environ) == before, 'environment changed'"
    )
    assert run_fresh(code)["env"] == dict.fromkeys(THREAD_VARS)
