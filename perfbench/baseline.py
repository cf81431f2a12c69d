"""Measure the end-to-end baseline: every workload over a range of seeds.

    python3 perfbench/baseline.py [--seeds 0-9] [--workloads pipeline,cohort]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time,
prints each metric's median and the spread between its quartiles as a
share of the median, and writes ``baseline.json`` next to this file with
the environment, every value, the median and the quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import record
import spec

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    env = next(json.loads(line[len("# env: "):]) for line in lines if line.startswith("# env: "))
    return json.loads(lines[-1]), env


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    a = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = record.seed_range(a.seeds)
    baseline = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in a.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, baseline["env"] = run_once(workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed")
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
            print(f"  {workload:<9} {name:<12} median {median:12.6g}  "
                  f"(q3-q1)/median {(q3 - q1) / median:.4f}")
        baseline["workloads"][workload] = summary
    Path(a.out).write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
