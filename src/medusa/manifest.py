"""Run manifests: every CLI command records what it read, wrote and ran with."""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path

import numpy as np

from . import __version__
from .table import write_json

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: str | Path,
    command: str,
    args: dict,
    inputs,
    outputs,
    sha256,
    seed: int | None = None,
    elapsed_s: float | None = None,
) -> Path:
    """Write the single manifest.json describing one command run.

    The config hash covers the command, its arguments and the input file
    digests; timings and timestamps stay outside the hash so reruns with
    identical inputs hash identically.  ``sha256`` gives each input's digest.
    """
    out_dir = Path(out_dir)
    input_records = [
        {"path": str(p), "sha256": sha256(p)} for p in inputs if Path(p).is_file()
    ]
    hashed = {
        "command": command,
        # a callable (argparse's ``func``) serialises with its address, which
        # differs between processes
        "args": {k: args[k] for k in sorted(args) if not callable(args[k])},
        "inputs": input_records,
        "seed": seed,
    }
    config_hash = hashlib.sha256(
        json.dumps(hashed, sort_keys=True, default=str).encode()
    ).hexdigest()
    manifest = {
        "command": command,
        "args": hashed["args"],
        "config_hash": config_hash,
        "seed": seed,
        "inputs": input_records,
        "outputs": [str(p) for p in outputs],
        "versions": {
            "medusa": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "elapsed_s": elapsed_s,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = out_dir / MANIFEST_NAME
    write_json(path, manifest)
    return path
