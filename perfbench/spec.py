"""Workload shapes, the pipeline's command lines and the reported metric names.

Standard library only: both the orchestrator (`run.py`) and the child
processes (`work.py`) import it.
"""

from __future__ import annotations

FS = 60.0
TAU_S = 2.0
WORKLOADS = ("pipeline", "cohort")

# ``full`` is what the benchmark measures; ``smoke`` is the reduced size
# that `smoke.py` runs to check the harness itself.
SIZES = {
    "full": {"trial_s": 600.0, "cohort_seeds": 20, "setup_reps": 3},
    "smoke": {"trial_s": 120.0, "cohort_seeds": 3, "setup_reps": 2},
}
COHORT_TRIAL_S = 150.0
COHORT_CONDITIONS = (("spon", None), ("t05", 0.5), ("t15", 1.5), ("t20", 2.0))
# Acceptance gate c08: the ordering must hold in at least 18 of 20 seeds.
COHORT_ORDER_SHARE = 0.9
RECORDED_TOL = 1e-6       # absolute, against values recorded at the seed commit

CLI_COMMANDS = ("synth", "ingest", "kinematics", "soc", "phase", "train", "predict",
                "search-sensors", "export-model", "report")


def pipeline_commands(inputs: str, runs: str, report: str, seed: int, trial_s: float):
    """The ten CLI invocations of one pipeline pass, as (name, argv) pairs.

    ``inputs`` holds the generated view CSVs; every command but ``report``
    writes under ``runs``, which ``report`` then summarizes.
    """
    analysis = f"{runs}/kinematics/analysis.csv"
    model = f"{runs}/train/model.npz"
    argv = {
        "synth": ["synth", "--tau", str(TAU_S), "--seconds", f"{trial_s:g}", "--seed", str(seed)],
        "ingest": ["ingest", "--input", f"{inputs}/trial"],
        "kinematics": ["kinematics", "--input", f"{runs}/ingest/trial.csv"],
        "soc": ["soc", "--input", analysis],
        "phase": ["phase", "--input", analysis],
        "train": ["train", "--input", analysis, "--pulsatile"],
        "predict": ["predict", "--model", model, "--input", analysis],
        "search-sensors": ["search-sensors", "--input", analysis, "--kmax", "5"],
        "export-model": ["export-model", "--model", model],
        "report": ["report", "--input", runs],
    }
    return [(name, argv[name] + ["--out", report if name == "report" else f"{runs}/{name}"])
            for name in CLI_COMMANDS]


END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics measured from outside the CLI processes, with units.
CLI_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"cli.{c}.proc_s": "s" for c in CLI_COMMANDS},
    **{f"cli.{c}.self_s": "s" for c in CLI_COMMANDS},
    **{f"cli.{c}.rss_mb": "MB" for c in CLI_COMMANDS},
    "cli.bytes_written": "B",
}
