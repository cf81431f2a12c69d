"""Reduced-size smoke test of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs every workload at ``--size smoke`` untraced and traced and asserts
that each metric listed in BENCHMARK.json is emitted with its unit, a
finite value and a sample count, that the outputs checked out, and that
the harness fails cleanly where there are no sources to measure.  Not
named ``test_*`` so the tier-1 test run does not collect it.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROW = re.compile(r"^# (\S+)\s+(\S+) (\S+)\s+n=(\d+)")


def run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace),
                           "--size", "smoke"], capture_output=True, text=True, timeout=180, cwd=cwd)


def check_result(workload: str, trace: int, expected: dict) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    samples = {m.group(1): (m.group(3), int(m.group(4))) for m in map(ROW.match, lines) if m}
    for name, unit in expected.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, entry)
        assert "missing" not in entry, (name, entry)
        assert samples.get(name, (None, 0))[0] == unit and samples[name][1] >= 1, (name, samples.get(name))
    print(f"ok  {workload:<9} trace={trace}  {len(expected)} metrics, "
          f"{result['attempted']} operations checked")


def check_no_sources() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    scratch = HERE.parent / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        root = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("cohort", 0, cwd=root)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  no sources: exit code", proc.returncode)


def main() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == spec.END_TO_END, end_to_end
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in spec.WORKLOADS:
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
    check_no_sources()


if __name__ == "__main__":
    main()
