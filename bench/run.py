#!/usr/bin/env python3
"""Benchmark of the leaguebalance command-line tool.

    python3 bench/run.py --workload fit-paper --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` with the in-repo simulators,
then runs the workload's CLI operations one at a time, each in a fresh
interpreter started from this one process (a closed loop with one client),
for about ``--seconds`` seconds, and checks every operation's outputs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the
workload in this process with span-recording wrappers around each module's
public functions and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an output check fails
(see ``checks.py`` for what counts as a failed operation and as wrong output).
Each run writes a record with machine facts, input digests and per-operation
output-tree digests to ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# what the installed `leaguebalance` console script runs
ENTRY = "import sys; from leaguebalance.cli import main; sys.exit(main())"
# The host's speed drifts by up to 1.8x over minutes (see README.md).  So after
# each operation the run repeats the set-up until it has taken SETUP_SHARE of the
# operations' time, and takes reference samples for REFERENCE_SHARE of it; the
# times are scaled to a host on which one reference sample takes NOMINAL_REFERENCE_S
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.10
REFERENCE_SHARE = 0.10
NOMINAL_REFERENCE_S = 0.25
IMPORT_REPS = 3  # fresh-interpreter repeats for cli.import_s and python.startup_s
RUN_LIMIT_S = 165.0  # children still running past this are killed
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class OpRecord:
    op: str
    pass_no: int
    wall_s: float
    returncode: int
    outcome: str
    digest: str
    failure: str | None = None  # why an operation that should succeed did not
    problems: list[str] = field(default_factory=list)  # wrong outputs
    cpu_s: float | None = None
    rss_mib: float | None = None


# ---------------------------------------------------------------- helpers


def program_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources importable."""
    env = dict(os.environ)
    # let the warm-up write the bytecode cache that an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, deadline: float, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion; returns (exit code, wall s, cpu s, max RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def median_child_wall(argv, reps: int, deadline: float) -> float:
    return statistics.median(run_child(argv, deadline)[1] for _ in range(reps))


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources, so stored output
    digests belong to one program and one definition of the inputs."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    files = [*(SRC / "leaguebalance").rglob("*"), *bench.glob("*.py")]
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError):  # older numpy prints its configuration instead
        blas = None
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


# ---------------------------------------------------------------- host speed


def reference_sample(deadline: float) -> float:
    """Seconds for a fixed piece of work that runs no program code: a fresh
    interpreter importing numpy, then arithmetic and allocation in this one."""
    t = time.perf_counter()
    run_child([sys.executable, "-c", "import numpy"], deadline)
    x, table = 0, {}
    for k in range(60_000):
        x += k * k
        table[str(k)] = (k, [x])
    return time.perf_counter() - t


# ---------------------------------------------------------------- set-up


class SetUp:
    """Generates the workload's inputs once for the run, then again to time it."""

    def __init__(self, workload, seed: int, run_dir: Path):
        from workloads import generate_inputs

        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.times: list[float] = []  # seconds per timed repeat
        self.problems: list[str] = []
        self.inputs = run_dir / "inputs"
        self.digests = generate_inputs(workload, seed, self.inputs)

    def repeat(self) -> None:
        from workloads import generate_inputs

        out = self.run_dir / "inputs-repeat"
        t = time.perf_counter()
        digests = generate_inputs(self.workload, self.seed, out)
        self.times.append(time.perf_counter() - t)
        shutil.rmtree(out)
        if digests != self.digests and not self.problems:
            self.problems.append("the same seed generated different inputs")


# ---------------------------------------------------------------- determinism


def check_determinism(records: list[OpRecord], key: str, input_digests: dict) -> list[str]:
    """Repeats of an operation, in this run and in earlier runs of the same
    program with the same seed, must leave byte-identical output trees."""
    seen: dict[str, tuple[int, str]] = {}
    problems = []
    for rec in records:
        result = (rec.returncode, rec.digest)
        if seen.setdefault(rec.op, result) != result:
            problems.append(f"{rec.op}: outputs differ between repeats in one run")
    store = WORK / "digests" / f"{key}.json"
    current = {"inputs": input_digests, "ops": {k: list(v) for k, v in sorted(seen.items())}}
    if store.is_file():
        earlier = json.loads(store.read_text())
        if earlier["inputs"] != input_digests:
            problems.append("inputs differ from an earlier run with the same seed")
        for op, result in current["ops"].items():
            if op in earlier["ops"] and earlier["ops"][op] != result:
                problems.append(f"{op}: outputs differ from an earlier run with the same seed")
        current["ops"] = {**earlier["ops"], **current["ops"]}
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(current, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


# ---------------------------------------------------------------- timed run


def schedule(ops, seconds: float, samples: dict[str, list[OpRecord]]):
    """Passes over ``ops`` until the next operation would make the operations'
    total time overrun ``seconds``; the first pass always completes."""
    yield from ((0, op) for op in ops)
    for pass_no in itertools.count(1):
        for op in ops:
            spent = sum(r.wall_s for recs in samples.values() for r in recs)
            typical = statistics.median(r.wall_s for r in samples[op.name])
            if spent + typical > seconds:
                return
            yield pass_no, op


def timed_run(workload, ops, setup: SetUp, run_dir, seconds, deadline):
    from checks import check_operation, outcome, tree_digest
    from workloads import expected_index_keys

    expected = expected_index_keys(workload)
    py = sys.executable
    # untimed warm-up: byte-compiles the program and loads it into the page cache
    run_child([py, "-c", ENTRY, "--help"], deadline)
    samples: dict[str, list[OpRecord]] = {op.name: [] for op in ops}
    records = []
    spent = 0.0
    reference: list[float] = []
    for seq, (pass_no, op) in enumerate(schedule(ops, seconds, samples)):
        op_dir = run_dir / f"op{seq:04d}"
        op_dir.mkdir()
        out = op_dir / "out"
        with open(op_dir / "stderr", "wb") as err:
            rc, wall, cpu, rss = run_child(
                [py, "-c", ENTRY, *op.argv, "--out-dir", str(out)], deadline, stderr=err
            )
        stderr = (op_dir / "stderr").read_text(errors="replace")
        result = outcome(rc, stderr)
        rec = OpRecord(
            op.name, pass_no, wall, rc, result, tree_digest(out), cpu_s=cpu, rss_mib=rss
        )
        rec.failure, rec.problems = check_operation(
            op, result, rc, stderr, out, setup.digests, expected
        )
        shutil.rmtree(op_dir)
        records.append(rec)
        samples[op.name].append(rec)
        spent += wall
        while sum(setup.times) < SETUP_SHARE * spent:
            setup.repeat()
        while sum(reference) < REFERENCE_SHARE * spent:
            reference.append(reference_sample(deadline))
    while len(setup.times) < SETUP_MIN_REPS:
        setup.repeat()

    # one pass, estimated from every sample: the per-operation time on this
    # kind of shared host is bimodal, and over a run the mean is steadier
    # than the median
    def per_pass(attr):
        return sum(statistics.fmean(getattr(r, attr) for r in samples[op.name]) for op in ops)

    speed = NOMINAL_REFERENCE_S / statistics.fmean(reference)
    raw = {
        "wall_s": per_pass("wall_s"),
        "cpu_s": per_pass("cpu_s"),
        "setup_s": statistics.fmean(setup.times),
        "reference": reference,
    }
    metrics = {
        "wall_s": raw["wall_s"] * speed,
        "cpu_s": raw["cpu_s"] * speed,
        "peak_rss_mb": max(r.rss_mib for r in records),
        "setup_s": raw["setup_s"] * speed,
    }
    return records, metrics, raw


# ---------------------------------------------------------------- traced run


def call_main(cli, tracer, argv) -> tuple[int, str]:
    """Run one CLI operation in this process; returns (exit code, stderr)."""
    from tracing import MAIN

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.span(MAIN, cli.main, list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the operation crashed: keep the traceback as its stderr
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def traced_run(workload, ops, digests, run_dir, seconds, deadline):
    from checks import check_operation, outcome, tree_digest
    from tracing import PER_LAYER_UNITS, SHAPE_COUNTS, Tracer, is_missing, pass_metrics
    from workloads import expected_index_keys, expected_shape

    import leaguebalance.cli as cli

    expected = expected_index_keys(workload)
    py = sys.executable
    start = time.perf_counter()
    reference = {
        "cli.import_s": median_child_wall(
            [py, "-c", "import leaguebalance.cli"], IMPORT_REPS, deadline
        ),
        "python.startup_s": median_child_wall([py, "-c", "pass"], IMPORT_REPS, deadline),
    }
    records: list[OpRecord] = []
    seq = itertools.count()

    def one_pass(pass_no, tracer) -> tuple[float, set[int]]:
        """Runs every operation once; returns the pass time and operation ids."""
        t0 = time.perf_counter()
        op_ids = set()
        for op in ops:
            op_id = next(seq)
            op_ids.add(op_id)
            if tracer is not None:
                tracer.op = op_id
            out = run_dir / f"op{op_id:04d}"
            t = time.perf_counter()
            rc, stderr = call_main(cli, tracer, [*op.argv, "--out-dir", str(out)])
            wall = time.perf_counter() - t
            rec = OpRecord(op.name, pass_no, wall, rc, outcome(rc, stderr), tree_digest(out))
            rec.failure, rec.problems = check_operation(
                op, rec.outcome, rc, stderr, out, digests, expected
            )
            shutil.rmtree(out, ignore_errors=True)
            records.append(rec)
        return time.perf_counter() - t0, op_ids

    tracer = Tracer()
    tracer.install()
    traced_walls, passes = [], []
    try:
        for pass_no in itertools.count():
            wall, op_ids = one_pass(pass_no, tracer)
            traced_walls.append(wall)
            passes.append(op_ids)
            # stop while there is still time for one untraced pass
            if time.perf_counter() - start + 2 * statistics.median(traced_walls) > seconds:
                break
    finally:
        tracer.uninstall()
    untraced, _ = one_pass(len(passes), None)

    per_pass = [pass_metrics(tracer, ops_of_pass) for ops_of_pass in passes]
    problems = [
        f"{name} is {per_pass[0][name]}; the workload's inputs give {value}"
        for name, value in expected_shape(workload).items()
        if not is_missing(tracer, name) and per_pass[0][name] != value
    ] + [
        f"{name} differs between traced passes"
        for name in SHAPE_COUNTS
        if len({p[name] for p in per_pass}) > 1
    ]
    metrics = dict(reference)
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    traced_records = [r for r in records if r.pass_no < len(passes)]
    bad = [r for r in traced_records if r.outcome != "ok"]
    metrics["ops.fail_ratio"] = len(bad) / len(traced_records)
    metrics["ops.rejected"] = sum(r.outcome == "rejected" for r in traced_records) / len(passes)
    metrics["ops.crashes"] = sum(r.outcome == "crash" for r in traced_records) / len(passes)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / untraced
    metrics = {
        name: None if is_missing(tracer, name) else metrics.get(name)
        for name in PER_LAYER_UNITS
    }
    spans = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
         "error": s.error}
        for s in tracer.spans
    ]
    return records, metrics, spans, problems


# ---------------------------------------------------------------- main


def parse_args(argv):
    from workloads import SCALES, WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="paper",
                        help="tiny: toy inputs for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    run_start = time.monotonic()
    # a terminated run unwinds, so the running operation is stopped and cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "leaguebalance" / "cli.py").is_file():
        print(f"bench: no leaguebalance sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import leaguebalance
    from tracing import PER_LAYER_UNITS
    from workloads import describe, get_workload, operations, zero_indices

    if Path(leaguebalance.__file__).resolve().parent != SRC / "leaguebalance":
        print(f"bench: leaguebalance imported from {leaguebalance.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)

    deadline = run_start + RUN_LIMIT_S
    workload = get_workload(args.workload, args.scale)
    facts = machine_facts()
    load_before = os.getloadavg()
    label = f"{args.scale}-{args.workload}-seed{args.seed}"
    run_dir = WORK / f"run-{label}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # only the timed run repeats the set-up, to time it
        setup = SetUp(workload, args.seed, run_dir)
        inputs, digests = setup.inputs, setup.digests
        ops = operations(
            workload, inputs, zero_indices(inputs / "indices.csv") if workload.fit else frozenset()
        )
        spans = raw = None
        if args.trace:
            records, metrics, spans, problems = traced_run(
                workload, ops, digests, run_dir, args.seconds, deadline
            )
            units = PER_LAYER_UNITS
        else:
            records, metrics, raw = timed_run(
                workload, ops, setup, run_dir, args.seconds, deadline
            )
            units = END_TO_END_UNITS
            problems = []
        problems += setup.problems + check_determinism(
            records, f"{label}-{source_digest()[:16]}", digests
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems += [f"{r.op} (pass {r.pass_no}): {p}" for r in records for p in r.problems]
    summary = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(records),
        "passes": len({r.pass_no for r in records}),
        "outcomes": {o: sum(r.outcome == o for r in records) for o in ("ok", "rejected", "crash")},
        "setup_reps": len(setup.times),
    }
    record = {
        "summary": summary,
        "machine": {**facts, "load_before": load_before, "load_after": os.getloadavg()},
        "inputs": {"params": describe(workload), "sha256": digests},
        "problems": problems,
        "operations": [r.__dict__ for r in records],
        "metrics": metrics,
        "unscaled": raw,
        "spans": spans,
    }
    record_path = WORK / "records" / f"{run_dir.name}-{int(time.time())}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1))
    report(record, record_path, units)
    return 1 if problems else 0


def report(record: dict, record_path: Path, units: dict[str, str]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    records = record["operations"]
    print("machine " + json.dumps(record["machine"]))
    print("run " + json.dumps(record["summary"]))
    by_op: dict[str, list[dict]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    for name, recs in by_op.items():
        mean_wall = statistics.fmean(r["wall_s"] for r in recs)
        print(
            f"op {name:16s} n={len(recs)} mean_wall_s={mean_wall:.4f} outcome={recs[0]['outcome']} "
            f"exit={recs[0]['returncode']} tree={recs[0]['digest'][:16]}"
        )
    raw = record["unscaled"]
    if raw:
        print(
            f"unscaled wall_s={raw['wall_s']:.4f} cpu_s={raw['cpu_s']:.4f} "
            f"setup_s={raw['setup_s']:.4f} "
            f"reference_mean_s={statistics.fmean(raw['reference']):.4f} "
            f"reference_samples={len(raw['reference'])}"
        )
    for r in records:
        if r["failure"]:
            print(f"failed {r['op']} (pass {r['pass_no']}): {r['failure']}")
    for problem in record["problems"]:
        print(f"problem {problem}")
    metrics = record["metrics"]
    missing = sorted(name for name, value in metrics.items() if value is None)
    if missing:
        print("missing " + " ".join(missing))
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": len(records),
        "failed": sum(r["failure"] is not None for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
