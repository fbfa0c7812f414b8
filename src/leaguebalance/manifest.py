"""Run manifests: input digests, seed and versions for byte-reproducible runs."""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy

from . import __version__


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(out_dir, command: str, inputs: dict, config_hash: str, artifacts, seed=None) -> str:
    """Write manifest.json; identical inputs (and, for a simulation, seed)
    give identical bytes.  ``seed`` is None for a command that draws no
    random number.

    Artifact paths are stored relative to the output directory so reruns
    into different directories stay byte-comparable.
    """
    out = Path(out_dir)
    rel = []
    for a in artifacts:
        p = Path(a)
        try:
            rel.append(str(p.relative_to(out)))
        except ValueError:
            rel.append(p.name)
    payload = {
        "command": command,
        "seed": seed,
        "config_hash": config_hash,
        "inputs": dict(sorted(inputs.items())),
        "artifacts": sorted(rel),
        "versions": {
            "leaguebalance": __version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
        },
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)
