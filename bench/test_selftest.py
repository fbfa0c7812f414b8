"""Self-test of the benchmark harness at toy size.

    python3 -m pytest -q bench/test_selftest.py

Checks the harness, not the program: every metric in BENCHMARK.json must
appear with its unit, and the run must report its operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    # exit 1 means an output check failed; the result line is still printed
    assert proc.returncode in (0, 1), proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    # a metric whose function or field is gone is listed as missing, value null
    missing = set()
    for line in proc.stdout.splitlines():
        if line.startswith("missing "):
            missing.update(line.split()[1:])
    for name, metric in result["metrics"].items():
        if name in missing:
            assert metric["value"] is None, name
        else:
            assert isinstance(metric["value"], (int, float)), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_removed_function_or_field_is_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import leaguebalance.cli as cli
    import tracing

    monkeypatch.delattr(cli, "white_cross_section_cov")
    monkeypatch.setattr(cli, "sur_egls_fit", lambda design: object())  # no .iterations
    original = cli.sur_egls_fit
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = cli.sur_egls_fit(None)
    finally:
        tracer.uninstall()
    assert type(result) is object  # the wrapper passes the result through
    assert cli.sur_egls_fit is original  # and is removed again
    assert tracing.is_missing(tracer, "sur.white_cross_section_cov.s")
    assert tracing.is_missing(tracer, "sur.iterations")
    assert not tracing.is_missing(tracer, "sur.sur_egls_fit.s")
    metrics = tracing.pass_metrics(tracer, {0})
    assert metrics["sur.sur_egls_fit.calls"] == 1


def test_expected_rejection_must_be_the_log_domain_error(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from checks import check_operation, outcome
    from workloads import Operation

    op = Operation("fit:dn_i", (), expect_reject=True)
    cases = {
        (2, "input error: log-domain error: index 'dn_i' is 0.0 for (C1, 1970)"): None,
        (3, "numerical error: singular matrix"): "rejected for another reason",
        (2, "input error: no values for index 'dn_i'"): "rejected for another reason",
        (1, "Traceback (most recent call last):\nValueError: boom"): "ValueError: boom",
    }
    for (rc, stderr), failure in cases.items():
        got, problems = check_operation(op, outcome(rc, stderr), rc, stderr, tmp_path, {}, set())
        assert problems == []
        assert (got is None) if failure is None else failure in got, (rc, stderr, got)
