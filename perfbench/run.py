"""medusa benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload {pipeline,cohort} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Workloads (closed loop, one operation at a time, one
process at a time, single-threaded BLAS):

* ``pipeline``: a 600 s stimulated trial (tau 2.0 s, seed N; N = 7 is the
  ROADMAP reference trial) projected into three view CSVs, then the ten
  CLI commands synth .. report, each in a fresh ``python -m medusa.cli``.
  A checked operation is one command.
* ``cohort``: acceptance gate c08's shape, in-process and without I/O:
  20 seeds x 4 conditions x 150 s, shared mux scale, hybrid reservoir
  features and cross_predict per seed, the first seed's spontaneous model
  exported compact and stepped one muxed row at a time, ESP per
  condition, ANOVA and pairwise tests.  The checked operations are the 20
  matrices, the compact deployment, 4 ESP indices and the statistics.

Set-up (input generation plus warm-up) happens before the timed part and
is repeated; ``setup_s`` is the median repetition plus the warm-up.  The
timed part repeats whole passes until they add up to ``--seconds`` (at
least one pass); ``wall_s`` is the mean pass.  ``peak_rss_mb`` is the
largest ``ru_maxrss`` of the child processes doing the timed work.
Outputs are checked after each pass; an operation fails if it exits
non-zero or fails its check.

``--trace 1`` reports the per-layer metrics instead: spans around calls
into medusa's public functions (see ``tracing.py``), subprocess times and
memory per CLI command, and ``trace.overhead_s``.  Span dumps go to
``.perfbench_out/``; scratch files live in ``.perfbench_work/`` and are
removed at exit.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts one child process at a time and reaps it with its rusage."""

    def __init__(self, d: Path):
        self.d = d
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.log = d / "log.txt"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        # single-threaded BLAS: on a 2-core shared virtual machine a second
        # BLAS thread made train slower and every command's time noisier
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, argv):
        """Run argv to completion: (exit code, wall seconds, resource usage)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time budget of {RUN_BUDGET_S:g} s exhausted")
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
        timer = threading.Timer(left, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"time budget of {RUN_BUDGET_S:g} s exhausted")
        return proc.returncode, elapsed, usage

    def work(self, step: str, a, **options) -> tuple[dict, object]:
        out = self.d / f"{step}.json"
        argv = [sys.executable, str(HERE / "work.py"), step, "--workload", a.workload,
                "--seed", str(a.seed), "--size", a.size, "--dir", str(self.d), "--out", str(out)]
        for key, value in options.items():
            if value is True:
                argv.append(f"--{key.replace('_', '-')}")
            elif value is not None and value is not False:
                argv += [f"--{key.replace('_', '-')}", str(value)]
        code, _, usage = self.child(argv)
        if code != 0:
            raise BenchError(f"work.py {step} exited with {code}:\n{self.tail()}")
        return json.loads(out.read_text()), usage

    def tail(self, n: int = 15) -> str:
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-n:])


def rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024.0     # Linux reports kilobytes


def pipeline_pass(r: Runner, a, tag: str):
    """Ten CLI commands, each in a fresh interpreter; then the output check."""
    pdir = r.d / f"pass_{tag}"
    shutil.rmtree(pdir, ignore_errors=True)
    times, rss, codes = {}, {}, {}
    for name, argv in spec.pipeline_commands(str(r.d / "in"), str(pdir / "runs"),
                                             str(pdir / "report"), a.seed,
                                             spec.SIZES[a.size]["trial_s"]):
        codes[name], times[name], usage = r.child([sys.executable, "-m", "medusa.cli"] + argv)
        rss[name] = rss_mb(usage)
    check, _ = r.work("check", a, pass_dir=pdir, exit_codes=json.dumps(codes))
    shutil.rmtree(pdir)
    return times, rss, check


def measure(r: Runner, a) -> dict:
    """Untraced run: the end-to-end metrics."""
    size = spec.SIZES[a.size]
    setup, _ = r.work("setup", a, reps=size["setup_reps"])
    res = {"env": setup["env"], "errors": []}
    if a.workload == "pipeline":
        code, warmup_s, _ = r.child([sys.executable, "-c", "import medusa.cli"])
        if code != 0:
            raise BenchError(f"importing medusa.cli failed:\n{r.tail()}")
        walls, peak, n_rss = [], 0.0, 0
        attempted = failed = 0
        while not walls or sum(walls) < a.seconds:
            times, rss, check = pipeline_pass(r, a, str(len(walls)))
            walls.append(sum(times.values()))
            peak, n_rss = max(peak, *rss.values()), n_rss + len(rss)
            attempted += check["attempted"]
            failed += check["failed"]
            res["errors"] += check["errors"]
    else:
        run, usage = r.work("run", a, seconds=a.seconds)
        warmup_s, walls, peak, n_rss = run["warmup_s"], run["walls"], rss_mb(usage), 1
        attempted, failed = run["attempted"], run["failed"]
        res["errors"] += run["errors"]
        res["notes"] = {"working_set_kb": run["working_set_kb"]}
    values = {
        "setup_s": (statistics.median(setup["times"]) + warmup_s, len(setup["times"])),
        "wall_s": (statistics.fmean(walls), len(walls)),
        "peak_rss_mb": (peak, n_rss),
    }
    res["metrics"] = {k: {"value": v, "unit": spec.END_TO_END[k]} for k, (v, _) in values.items()}
    res["samples"] = {k: n for k, (_, n) in values.items()}
    res["attempted"], res["failed"] = attempted, failed
    return res


def import_seconds(r: Runner, reps: int = 3) -> float:
    """Median time to import medusa.cli in a fresh interpreter, after one
    import that fills the bytecode and page caches."""
    out = r.d / "import.txt"
    code = ("import time; t = time.perf_counter(); import medusa.cli; "
            f"open({str(out)!r}, 'w').write(repr(time.perf_counter() - t))")
    samples = []
    for _ in range(reps + 1):
        if r.child([sys.executable, "-c", code])[0] != 0:
            raise BenchError(f"importing medusa.cli failed:\n{r.tail()}")
        samples.append(float(out.read_text()))
    return statistics.median(samples[1:])


def measure_layers(r: Runner, a) -> dict:
    """Traced run: the per-layer metrics."""
    setup, _ = r.work("setup", a, reps=1, trace=True)
    res = {"env": setup["env"], "errors": []}
    # the CLI layers do no work on cohort
    layers = {name: {"value": 0.0, "unit": unit} for name, unit in spec.CLI_LAYER_UNITS.items()}
    attempted = failed = 0
    if a.workload == "pipeline":
        layers["cli.import_s"]["value"] = import_seconds(r)
        times, rss, check = pipeline_pass(r, a, "subprocess")
        for name in spec.CLI_COMMANDS:
            layers[f"cli.{name}.proc_s"]["value"] = times[name]
            layers[f"cli.{name}.rss_mb"]["value"] = rss[name]
        layers["cli.bytes_written"]["value"] = check["bytes_written"]
        attempted, failed = check["attempted"], check["failed"]
        res["errors"] += check["errors"]
    traced, _ = r.work("trace", a)
    attempted += traced["attempted"]
    failed += traced["failed"]
    res["errors"] += traced["errors"]
    layers.update(traced["layers"])
    gen = setup["layers"]["synthgen.gen_s"]
    layers["synthgen.gen_s"] = dict(layers["synthgen.gen_s"],
                                    value=layers["synthgen.gen_s"]["value"] + gen["value"])
    res["metrics"] = {name: layers[name] for name in per_layer_units()}
    res["samples"] = {name: 1 for name in res["metrics"]}
    res["attempted"], res["failed"] = attempted, failed
    return res


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric in report order, with its unit."""
    return {**spec.CLI_LAYER_UNITS, **dict(sorted(tracing.metric_units().items())),
            "trace.overhead_s": "s"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(spec.SIZES), default="full")
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "medusa" / "__init__.py").is_file():
        print(f"error: no medusa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a SIGTERM unwinds like an interrupt, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".perfbench_work"
    d = work_root / f"{a.workload}-{a.seed}-{os.getpid()}"
    d.mkdir(parents=True)
    r = Runner(d)
    try:
        res = (measure_layers if a.trace else measure)(r, a)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(d, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    print(f"# medusa benchmark: workload={a.workload} seed={a.seed} size={a.size} "
          f"trace={a.trace} seconds={a.seconds:g}")
    print("# env: " + json.dumps(res["env"], sort_keys=True))
    for name, entry in res["metrics"].items():
        note = f"  missing: {entry['missing']}" if "missing" in entry else ""
        print(f"# {name:<28} {entry['value']:>16.6f} {entry['unit']:<6} n={res['samples'][name]}{note}")
    for name, value in res.get("notes", {}).items():
        print(f"# {name:<28} {value:>16.6f} (exact)")
    print(f"# failed_frac {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']}/{res['attempted']} operations)")
    for err in res["errors"]:
        print(f"# check failed: {err}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
