"""Record the values the output checks compare against, per workload seed.

    python3 perfbench/record.py [--seeds 0-19]

Runs one untimed pipeline pass and one cohort pass per seed and writes
``reference.json`` next to this file: train/predict R2 and soc fit
exponents for ``pipeline``, cross-training matrices and ESP indices for
``cohort``.  The checked-in file was recorded at the commit that
introduced the benchmark; re-record only when a change is meant to move
these numbers, and say so.  Seeds without a record get every other check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import run

REFERENCE = run.HERE / "reference.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(workload: str, seed: int) -> dict:
    a = argparse.Namespace(workload=workload, seed=seed, size="full", seconds=0.0, trace=0)
    d = run.ROOT / ".perfbench_work" / f"record-{workload}-{seed}-{os.getpid()}"
    d.mkdir(parents=True)
    try:
        r = run.Runner(d)
        r.work("setup", a, reps=1)
        if workload == "pipeline":
            _, _, result = run.pipeline_pass(r, a, "record")
        else:
            result, _ = r.work("run", a, seconds=0.0)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    for err in result["errors"]:
        print(f"  {workload} seed {seed}: check failed: {err}")
    return result["values"]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    a = p.parse_args()
    # start empty so that earlier records cannot fail (or pass) the checks
    REFERENCE.unlink(missing_ok=True)
    reference = {"pipeline": {}, "cohort": {}}
    for seed in seed_range(a.seeds):
        for workload in reference:
            reference[workload][str(seed)] = record(workload, seed)
            print(f"recorded {workload} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
