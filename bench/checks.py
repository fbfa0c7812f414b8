"""Output checks for one CLI operation, and output-tree digests.

An operation ends in one of three outcomes:

* ``ok``: exit 0 with a valid output tree;
* ``rejected``: a typed exit (2 input, 3 numerical, 4 config) whose stderr
  carries the matching prefix and no traceback;
* ``crash``: anything else, such as exit 1, a signal or a traceback.

A fit of an index with an exact zero must be rejected with exit 2 and an
``input error: log-domain error``, because the model takes the log of the
index; every other operation must succeed.  An operation that crashes, is
rejected although it should succeed, or is rejected for another reason,
*failed*.
Outputs are *wrong* when a written file is invalid, or when the program
accepted an index whose log is undefined.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import ALL_INDICES, sha256_file

TYPED_PREFIX = {2: "input error:", 3: "numerical error:", 4: "config error:"}


def outcome(returncode: int, stderr: str) -> str:
    if "Traceback (most recent call last)" in stderr:
        return "crash"
    if returncode == 0:
        return "ok"
    prefix = TYPED_PREFIX.get(returncode)
    if prefix and any(line.startswith(prefix) for line in stderr.splitlines()):
        return "rejected"
    return "crash"


def tree_digest(out_dir: Path) -> str:
    """sha256 over the sorted (relative path, file sha256) pairs of a tree."""
    digest = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            digest.update(f"{path.relative_to(out_dir).as_posix()}\0{sha256_file(path)}\n".encode())
    return digest.hexdigest()


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(out_dir: Path, input_digests: dict[str, str]) -> list[str]:
    problems = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    files = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    listed = set(manifest.get("artifacts") or ())
    if listed | {"manifest.json"} != files:
        problems.append(f"manifest artifacts {sorted(listed)} do not match files {sorted(files)}")
    for kind, recorded in (manifest.get("inputs") or {}).items():
        if input_digests.get(f"{kind}.csv") not in (None, recorded):
            problems.append(f"manifest digest of input {kind} does not match the file")
    return problems


def _check_indices(out_dir: Path, expected_keys: set) -> list[str]:
    rows = _read_csv(out_dir / "indices.csv")
    problems = []
    keys = set()
    for row in rows:
        keys.add((row["country"], int(row["season"]), row["index"]))
        if not (_is_finite(row["value"]) and 0.0 <= float(row["value"]) <= 1.0):
            problems.append(f"indices.csv value {row['value']!r} for {row['index']} not in [0, 1]")
            break
    if len(keys) != len(rows):
        problems.append("indices.csv repeats a (country, season, index) key")
    if keys != expected_keys:
        missing, extra = expected_keys - keys, keys - expected_keys
        problems.append(
            f"indices.csv key set differs: {len(missing)} missing (e.g. {sorted(missing)[:2]}), "
            f"{len(extra)} unexpected (e.g. {sorted(extra)[:2]})"
        )
    unknown = {k[2] for k in keys} - set(ALL_INDICES)
    if unknown:
        problems.append(f"indices.csv has unknown indices {sorted(unknown)}")
    return problems


def _check_fit(out_dir: Path, index: str) -> list[str]:
    problems = []
    coef = _read_csv(out_dir / f"fit_{index}_coefficients.csv")
    if not coef or not all(
        _is_finite(r[c]) for r in coef for c in ("coef", "se_classical", "se_robust")
    ):
        problems.append(f"fit_{index}_coefficients.csv is empty or not finite")
    summary = _read_csv(out_dir / "longrun_summary.csv")
    if [r["index"] for r in summary] != [index] or not _is_finite(summary[0]["cb"]):
        problems.append("longrun_summary.csv lacks a finite cb elasticity for the index")
    return problems


def _check_unit_root(out_dir: Path) -> list[str]:
    rows = _read_csv(out_dir / "unit_root.csv")
    if len(rows) != 8 or not all(
        _is_finite(r["p_value"]) and 0.0 <= float(r["p_value"]) <= 1.0 for r in rows
    ):
        return ["unit_root.csv does not hold 8 tests with p-values in [0, 1]"]
    return []


def is_log_domain_rejection(returncode: int, stderr: str) -> bool:
    """The typed input error with which the program refuses the log of a zero."""
    return returncode == 2 and any(
        line.startswith("input error:") and "log-domain error" in line
        for line in stderr.splitlines()
    )


def check_operation(
    op, result: str, returncode: int, stderr: str, out_dir: Path,
    input_digests: dict[str, str], expected_keys: set,
) -> tuple[str | None, list[str]]:
    """Returns (why the operation failed or None, problems with its outputs)."""
    lines = stderr.strip().splitlines()
    if result == "crash":
        return (lines[-1] if lines else "crashed without a message"), []
    if result == "rejected":
        if not op.expect_reject:
            return f"rejected valid inputs: {lines[-1]}", []
        if not is_log_domain_rejection(returncode, stderr):
            return f"rejected for another reason than the log of a zero: {lines[-1]}", []
        return None, []
    if op.expect_reject:
        return None, ["accepted an index with an exact zero, whose log is undefined"]
    try:
        problems = _check_manifest(out_dir, input_digests)
        if op.name == "indices":
            problems += _check_indices(out_dir, expected_keys)
        elif op.name == "unit-root":
            problems += _check_unit_root(out_dir)
        else:
            problems += _check_fit(out_dir, op.name.split(":", 1)[1])
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return None, problems
