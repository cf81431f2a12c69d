"""Child-process side of the benchmark: input generation, timed passes and checks.

`run.py` starts this file once per step, with ``PYTHONPATH`` pointing at
the checkout's ``src``; each step writes its result as JSON to ``--out``:

    setup     generate a workload's inputs ``--reps`` times (set-up time)
    run       timed cohort passes until they add up to ``--seconds``
    check     check one pipeline pass's output files
    trace     in-process passes: untraced, traced, untraced again
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import medusa  # noqa: E402

if Path(medusa.__file__).resolve().parent != ROOT / "src" / "medusa":
    raise SystemExit(f"medusa imported from {medusa.__file__}, not from {ROOT / 'src'}")

from medusa import esp, kinematics, response, synthgen  # noqa: E402
from medusa import reservoir as rc  # noqa: E402

import spec  # noqa: E402
from tracing import Tracer  # noqa: E402

FS = spec.FS


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "machine": platform.machine(),
    }


def gen_trial(seed: int, tau: float | None, seconds: float):
    """One synthetic trial exactly as ``medusa synth`` draws it."""
    schedule = synthgen.pwm_schedule(tau, seconds) if tau else None
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    return synthgen.gen_jellyfish(params, schedule, seconds)[0]


def pipeline_sensors(trial):
    """The CLI's default four sensors, standardized, and local velocities."""
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    sensors = kinematics.standardize(np.column_stack([
        pose.inner_radius, pose.outer_radius,
        lengths.channel("Y2-O1"), lengths.channel("R2-O2"),
    ]))
    return sensors, v, lengths


def load_reference(workload: str, seed: int, size: str):
    if size != "full":
        return None
    path = HERE / "reference.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def compare(errors: list, label: str, got, want, tol: float = spec.RECORDED_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{label}: shape {got.shape} != recorded {want.shape}")
    elif not np.all(np.abs(got - want) <= tol):
        errors.append(f"{label}: max |diff| {np.abs(got - want).max():.3g} > {tol:g}")


# ---------------------------------------------------------------------------
# pipeline: inputs in the real view-CSV format
# ---------------------------------------------------------------------------

# Face (mm) -> image (px) transforms, one per view; fixed and non-identity so
# that ingest really solves and applies a homography.
VIEW_TRANSFORMS = {
    "top": np.array([[3.02, 0.11, 41.0], [-0.07, 2.94, 27.5], [1.1e-4, -0.8e-4, 1.0]]),
    "behind": np.array([[2.61, -0.16, 102.0], [0.05, 2.73, 18.0], [-0.9e-4, 1.3e-4, 1.0]]),
    "right": np.array([[2.88, 0.21, 64.0], [0.12, 2.57, 33.0], [0.6e-4, 0.9e-4, 1.0]]),
}
VIEW_AXES = {"top": (0, 1), "behind": (0, 2), "right": (1, 2)}
TANK_MM = 150.0
LED_HIGH, LED_LOW = 200.0, 20.0


def _project(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    homog = pts @ h[:, :2].T + h[:, 2]
    return homog[..., :2] / homog[..., 2:3]


def _view_header() -> str:
    cols = ["frame"]
    for p in ("c1", "c2", "c3", "c4", "R1", "R2", "Y1", "Y2", "O1", "O2", "B1", "B2"):
        cols += [f"{p}_x", f"{p}_y", f"{p}_conf"]
    return ",".join(cols + ["led_on", "led_off"])


def write_view_csv(path: Path, view: str, positions: np.ndarray, stim: np.ndarray) -> None:
    """One camera view in the documented 12-point layout, full confidence."""
    h = VIEW_TRANSFORMS[view]
    face = np.array([[0.0, 0.0], [TANK_MM, 0.0], [TANK_MM, TANK_MM], [0.0, TANK_MM]])
    corners = ",".join(f"{x:.9g},{y:.9g},1" for x, y in _project(h, face))
    markers = _project(h, positions[:, :, VIEW_AXES[view]])          # (n, 8, 2)
    led_on = np.where(stim > 0, LED_HIGH, LED_LOW)
    n = positions.shape[0]
    table = np.column_stack([np.arange(n), markers.reshape(n, 16), led_on, LED_HIGH + LED_LOW - led_on])
    row = "%d," + corners + "," + ",".join(["%.9g,%.9g,1"] * 8) + ",%.9g,%.9g"
    with open(path, "w") as fh:
        fh.write(_view_header() + "\n")
        fh.write("\n".join(row % tuple(r) for r in table.tolist()))
        fh.write("\n")


def setup_pipeline(seed: int, size: dict, d: Path) -> None:
    trial = gen_trial(seed, spec.TAU_S, size["trial_s"])
    inputs = d / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    for view in VIEW_TRANSFORMS:
        write_view_csv(inputs / f"trial_{view}.csv", view, trial.positions, trial.stimulus)
    (inputs / "trial.json").write_text(json.dumps({
        "animal_id": f"SYN{seed}", "condition": "stimulated",
        "period_s": spec.TAU_S, "frame_rate": FS}) + "\n")
    np.savez(d / "truth.npz", positions=trial.positions, stim=trial.stimulus)


# ---------------------------------------------------------------------------
# cohort: acceptance gate c08's cross-training shape, plus ESP and statistics
# ---------------------------------------------------------------------------

def setup_cohort(seed: int, size: dict, d: Path) -> None:
    sensors, vz, lengths = [], [], []
    for k in range(size["cohort_seeds"]):
        row_s, row_v, row_l = [], [], []
        for i, (_, tau) in enumerate(spec.COHORT_CONDITIONS):
            trial = gen_trial(seed * 1000 + k * 10 + i, tau, spec.COHORT_TRIAL_S)
            s, v, lens = pipeline_sensors(trial)
            row_s.append(s)
            row_v.append(v[:, 2])
            row_l.append(kinematics.standardize(np.column_stack([lens.radial, lens.coronal])))
        sensors.append(row_s)
        vz.append(row_v)
        lengths.append(row_l)
    np.savez(d / "cohort.npz", sensors=np.array(sensors), vz=np.array(vz),
             lengths=np.array(lengths))


def deploy_compact(features: np.ndarray, target: np.ndarray, mux_values: np.ndarray,
                   cfg) -> tuple[np.ndarray, np.ndarray, int]:
    """Train a hybrid readout, export it compact, reload it and step it one
    muxed row at a time; returns the float32 outputs, the float64 readout's
    predictions and the evaluator's working set in bytes."""
    model = rc.train_readout(features, target, washout=rc.PULSATILE_WASHOUT_SAMPLES,
                             architecture="hybrid")
    evaluator = rc.CompactEvaluator(rc.load_compact(rc.export_compact(model, cfg, rc.esn_init(cfg))))
    out = evaluator.run(mux_values.astype(np.float32))
    return out, model.predict(features).reshape(out.shape), evaluator.working_set_bytes


def cohort_pass(inp: dict) -> dict:
    """One cohort pass; returns the results to check."""
    cfg = rc.ReservoirConfig(architecture="hybrid", seed=42, n_sensors=4)
    tags = [tag for tag, _ in spec.COHORT_CONDITIONS]
    matrices, deployed = [], None
    for sensors, vz in zip(inp["sensors"], inp["vz"]):
        scale = rc.shared_mux_scale(list(sensors), 2.0, 6, FS)
        datasets = {tag: (rc.reservoir_features(s, cfg, mux_scale=scale), y)
                    for tag, s, y in zip(tags, sensors, vz)}
        matrices.append(rc.cross_predict(datasets, washout=rc.PULSATILE_WASHOUT_SAMPLES).matrix)
        if deployed is None:
            # the first seed's spontaneous-trained model, as a device would run it
            mux = rc.build_mux(sensors[0], cfg.mux_horizon_s, cfg.mux_stride, FS, scale=scale)
            deployed = deploy_compact(datasets["spon"][0], vz[0], mux.values, cfg)
    params = esp.EspParams(transient_s=2.0, horizon_s=30.0)
    indices = [esp.esp_index(list(inp["lengths"][:, c]), params, FS) for c in range(len(tags))]
    samples = [r.pair_deltas for r in indices]
    f_stat, p_val = response.one_way_anova(samples)
    pairs = response.pairwise_tests(samples, seed=0)
    return {
        "matrices": np.array(matrices),
        "esp": np.array([r.value for r in indices]),
        "stats": [f_stat, p_val] + [v for r in pairs for v in (r.p_welch, r.p_adjusted)],
        "compact": deployed,
    }


def check_cohort(out: dict, reference) -> tuple[int, int, list, dict]:
    """(attempted, failed, errors, values): one operation per matrix, ESP
    index, statistics table and compact deployment."""
    m = out["matrices"]
    k = m.shape[0]
    errors, bad = [], set()
    for i in range(k):
        if not np.all(np.isfinite(m[i])):
            bad.add(("matrix", i))
            errors.append(f"matrix {i} has non-finite entries")
    # spontaneous-trained row (0) must score 1.5 s and 2.0 s data above 0.5 s data
    ordered = (m[:, 0, 2] > m[:, 0, 1]) & (m[:, 0, 3] > m[:, 0, 1])
    if ordered.sum() < math.ceil(spec.COHORT_ORDER_SHARE * k):
        errors.append(f"c08 ordering held in {int(ordered.sum())}/{k} seeds")
        bad |= {("matrix", i) for i in np.flatnonzero(~ordered)}
    stats = np.array(out["stats"])
    if not (np.all(np.isfinite(stats)) and np.all((stats[1:] >= 0) & (stats[1:] <= 1))):
        bad.add(("stats", 0))
        errors.append("statistics are not finite probabilities")
    if reference is not None:
        for i in range(k):
            e = []
            compare(e, f"matrix {i}", m[i], reference["matrices"][i])
            if e:
                bad.add(("matrix", i))
                errors += e
        for c in range(len(out["esp"])):
            e = []
            compare(e, f"esp index {c}", out["esp"][c], reference["esp"][c])
            if e:
                bad.add(("esp", c))
                errors += e
    compact_out, compact_ref, _ = out["compact"]
    if not within_c10(compact_out, compact_ref):
        bad.add(("compact", 0))
        errors.append("compact model off its float64 readout by more than 1e-4 relative")
    values = {"matrices": m.tolist(), "esp": out["esp"].tolist()}
    return k + len(out["esp"]) + 2, len(bad), errors, values


def within_c10(out: np.ndarray, ref: np.ndarray) -> bool:
    """Acceptance rule c10: every float32 output within 1e-4 of the float64
    readout, relative to the largest float64 output."""
    return bool(np.abs(out - ref).max() <= 1e-4 * np.abs(ref).max())


# ---------------------------------------------------------------------------
# pipeline output checks
# ---------------------------------------------------------------------------

EXPECTED_OUTPUTS = {
    "synth": ["trial.csv", "trial.json"],
    "ingest": ["trial.csv", "trial.json"],
    "kinematics": ["analysis.csv", "analysis.json"],
    "soc": ["psd.csv", "events.csv", "fits.csv", "psd_loglog.svg"],
    "phase": ["phase.csv", "phase_means.svg", "phase_ribbon_vz.svg"],
    "train": ["model.npz", "train_scores.csv"],
    "predict": ["predictions.csv", "scores.csv", "r2_heatmap.svg"],
    "search-sensors": ["search_best.csv", "search_tally.csv", "search_summary.json"],
    "export-model": ["model.bin"],
    "report": ["report.json"],
}
_NONFINITE = re.compile(rb"(?:^|,)[-+]?(?:nan|inf(?:inity)?)(?=,|\r?$)", re.M | re.I)


def _read_csv(path: Path):
    """Header and rows of a small CSV as strings."""
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def direct_subset_r2(x: np.ndarray, y: np.ndarray, ridge: float = 1e-8) -> tuple[float, float]:
    """R2 of one sensor subset by a direct (QR/SVD) least-squares fit.

    Solves the search's documented objective, ``|F w - y|^2 + ridge |w|^2``
    over standardized sensors plus an intercept, as an augmented
    least-squares system rather than through normal equations, and scores
    it as the search does (penalty included).  Also returns cond(F).
    """
    f = np.column_stack([x, np.ones(x.shape[0])])
    k = f.shape[1]
    w, *_ = np.linalg.lstsq(np.vstack([f, np.sqrt(ridge) * np.eye(k)]),
                            np.concatenate([y, np.zeros(k)]), rcond=None)
    sse = np.sum((f @ w - y) ** 2) + ridge * np.sum(w ** 2)
    return float(1.0 - sse / np.sum((y - y.mean()) ** 2)), float(np.linalg.cond(f))


def r2_tolerance(printed: str, cond: float) -> float:
    """1e-9, or the normal-equation error bound cond^2 * eps where that is
    larger (nearly collinear subsets), plus the rounding of the printed
    9-significant-digit value."""
    value = abs(float(printed))
    rounding = 0.5 * 10.0 ** (math.floor(math.log10(value)) - 8) if value > 0 else 0.0
    return max(1e-9, cond ** 2 * np.finfo(float).eps) + rounding


def _check_trial(errors, path: Path, truth, atol: float) -> None:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n = truth["positions"].shape[0]
    pos = data[:, 2:26].reshape(-1, 8, 3)
    if pos.shape[0] != n:
        errors.append(f"{path.name}: {pos.shape[0]} frames, expected {n}")
        return
    err = np.abs(pos - truth["positions"]).max()
    if not err <= atol:
        errors.append(f"{path.name}: positions off truth by {err:.3g} mm > {atol:g}")
    if not np.array_equal(data[:, 26], truth["stim"]):
        errors.append(f"{path.name}: stimulus column differs from the generated schedule")
    if not np.all(data[:, 27] == 1):
        errors.append(f"{path.name}: invalid frames in a gap-free trial")


def check_pipeline(runs: Path, report: Path, d: Path, seed: int, size: str,
                   exit_codes: dict) -> tuple[int, int, list, dict]:
    """Check one pipeline pass; one operation per command."""
    dirs = {name: (report if name == "report" else runs / name) for name in spec.CLI_COMMANDS}
    errors = {name: [] for name in spec.CLI_COMMANDS}
    values: dict = {}
    truth = np.load(d / "truth.npz")
    reference = load_reference("pipeline", seed, size)

    for name, files in EXPECTED_OUTPUTS.items():
        if exit_codes.get(name) != 0:
            errors[name].append(f"exit code {exit_codes.get(name)}")
        for f in files + ["manifest.json"]:
            if not (dirs[name] / f).is_file():
                errors[name].append(f"missing output {f}")
        for csv_path in sorted(dirs[name].glob("*.csv")):
            body = csv_path.read_bytes()
            hit = _NONFINITE.search(body, body.find(b"\n") + 1)
            if hit:
                errors[name].append(f"{csv_path.name}: non-finite field {hit.group().decode()!r}")

    analysis_cache = []

    def _analysis():
        if not analysis_cache:
            path = dirs["kinematics"] / "analysis.csv"
            with open(path) as fh:
                names = fh.readline().strip().split(",")
            analysis_cache.append((names, np.loadtxt(path, delimiter=",", skiprows=1)))
        return analysis_cache[0]

    def guarded(name, fn):
        if errors[name]:
            return
        try:
            fn(errors[name])
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its command
            errors[name].append(f"check raised {exc.__class__.__name__}: {exc}")

    guarded("synth", lambda e: _check_trial(e, dirs["synth"] / "trial.csv", truth, 1e-6))
    # view CSVs carry 9 significant digits of pixel coordinates
    guarded("ingest", lambda e: _check_trial(e, dirs["ingest"] / "trial.csv", truth, 1e-5))

    def kin(e):
        with open(dirs["kinematics"] / "analysis.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != truth["positions"].shape[0]:
            e.append(f"analysis.csv has {rows} rows")
    guarded("kinematics", kin)

    def soc(e):
        _, rows = _read_csv(dirs["soc"] / "fits.csv")
        values["soc_alpha"] = {f"{r[0]}/{r[1]}": float(r[2]) for r in rows}
        if not rows:
            e.append("no power-law fits")
        if reference:
            compare(e, "soc fit exponents",
                    [values["soc_alpha"].get(k, np.nan) for k in reference["soc_alpha"]],
                    list(reference["soc_alpha"].values()))
            if set(values["soc_alpha"]) != set(reference["soc_alpha"]):
                e.append("soc fits differ in channel/kind from the recorded run")
    guarded("soc", soc)

    def phase(e):
        _, rows = _read_csv(dirs["phase"] / "phase.csv")
        if not rows:
            e.append("phase.csv is empty")
    guarded("phase", phase)

    def train(e):
        _, rows = _read_csv(dirs["train"] / "train_scores.csv")
        values["train_r2"] = [float(r[1]) for r in rows]
        if reference:
            compare(e, "train R2", values["train_r2"], reference["train_r2"])
    guarded("train", train)

    def predict(e):
        _, rows = _read_csv(dirs["predict"] / "scores.csv")
        values["predict_r2"] = {f"{r[0]}@{r[1]}": float(r[2]) for r in rows}
        if reference:
            compare(e, "predict R2", [values["predict_r2"].get(k, np.nan)
                                      for k in reference["predict_r2"]],
                    list(reference["predict_r2"].values()))
        # predict on the training input reproduces train's in-sample scores
        if "train_r2" in values:
            horizons = sorted({float(r[1]) for r in rows})
            means = [np.mean([float(r[2]) for r in rows if float(r[1]) == h]) for h in horizons]
            if len(means) != len(values["train_r2"]) or not np.allclose(
                    means, values["train_r2"], rtol=0, atol=1e-8):
                e.append("predict R2 disagrees with train's in-sample R2")
        model = np.load(dirs["train"] / "model.npz")
        n_rows = truth["positions"].shape[0] - int(model["washout"])
        expected = sum(n_rows - int(h) for h in model["horizon_samples"]) * len(model["target_names"])
        with open(dirs["predict"] / "predictions.csv", "rb") as fh:
            got = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
        if got != expected:
            e.append(f"predictions.csv has {got} rows, expected {expected}")
    guarded("predict", predict)

    def search(e):
        summary = json.loads((dirs["search-sensors"] / "search_summary.json").read_text())
        if summary["n_subsets"] != 174_436:
            e.append(f"n_subsets {summary['n_subsets']} != 174436")
        names, data = _analysis()
        pool = list(kinematics.PAIR_NAMES) + ["inner_radius", "outer_radius"]
        x = kinematics.standardize(data[:, [names.index(s) for s in pool]])
        _, rows = _read_csv(dirs["search-sensors"] / "search_best.csv")
        for task, subset, r2 in rows:
            cols = [pool.index(s) for s in subset.split("+")]
            direct, cond = direct_subset_r2(x[1000:, cols], data[1000:, names.index(task)])
            if abs(direct - float(r2)) > r2_tolerance(r2, cond):
                e.append(f"task {task}: reported R2 {r2} vs direct fit {direct!r} (cond {cond:.3g})")
    guarded("search-sensors", search)

    def export(e):
        model = np.load(dirs["train"] / "model.npz")
        cfg_dict = json.loads(str(model["config"]))
        cfg_dict.pop("__class__", None)
        cfg = rc.ReservoirConfig(**cfg_dict)
        names, data = _analysis()
        sensors = kinematics.standardize(data[:, [names.index(str(s)) for s in model["sensor_names"]]])
        n = 3000
        mux = rc.build_mux(sensors[:n], cfg.mux_horizon_s, cfg.mux_stride, cfg.frame_rate,
                           scale=float(model["mux_scale"]))
        feats = rc.assemble_features(cfg.architecture, rc.esn_run(rc.esn_init(cfg), mux), mux)
        w = model["weights"][list(model["horizon_samples"]).index(0)]
        ref = feats @ w[:-1] + w[-1]
        evaluator = rc.CompactEvaluator(rc.load_compact((dirs["export-model"] / "model.bin").read_bytes()))
        out = evaluator.run(mux.values.astype(np.float32))
        if not within_c10(out, ref):
            rel = np.abs(out - ref).max() / np.abs(ref).max()
            e.append(f"exported blob off by {rel:.3g} relative (> 1e-4)")
    guarded("export-model", export)

    def report_check(e):
        summary = json.loads((dirs["report"] / "report.json").read_text())
        if summary["n_runs"] != len(spec.CLI_COMMANDS) - 1:
            e.append(f"report found {summary['n_runs']} runs")
    guarded("report", report_check)

    flat = [f"{name}: {msg}" for name, msgs in errors.items() for msg in msgs]
    return len(errors), sum(1 for msgs in errors.values() if msgs), flat, values


def bytes_written(d: Path) -> int:
    return sum(p.stat().st_size for p in d.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

SETUP = {"pipeline": setup_pipeline, "cohort": setup_cohort}


def step_setup(a) -> dict:
    size = spec.SIZES[a.size]
    d = Path(a.dir)
    times = []
    tracer = Tracer() if a.trace else None
    if tracer:
        tracer.install(["synthgen.gen_jellyfish"])
    for _ in range(a.reps):
        t0 = time.perf_counter()
        SETUP[a.workload](a.seed, size, d)
        # flush the inputs now rather than in background writeback during the timed part
        for path in d.rglob("*"):
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())
        times.append(time.perf_counter() - t0)
    result = {"times": times, "env": environment()}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
    return result


def _load(workload: str, d: Path) -> dict:
    with np.load(d / f"{workload}.npz") as z:
        return {k: z[k] for k in z.files}


def run_cohort(a, inp: dict, seconds: float) -> dict:
    """Timed cohort passes until they add up to ``seconds``; each checked after timing."""
    reference = load_reference("cohort", a.seed, a.size)
    res = {"walls": [], "attempted": 0, "failed": 0, "errors": []}
    while not res["walls"] or sum(res["walls"]) < seconds:
        t0 = time.perf_counter()
        out = cohort_pass(inp)
        res["walls"].append(time.perf_counter() - t0)
        n, f, e, res["values"] = check_cohort(out, reference)
        res["attempted"], res["failed"], res["errors"] = (
            res["attempted"] + n, res["failed"] + f, res["errors"] + e)
    res["working_set_kb"] = out["compact"][2] / 1024
    return res


def step_run(a) -> dict:
    inp = _load(a.workload, Path(a.dir))
    t0 = time.perf_counter()
    # warm-up: one short pass over the same code paths, outside the timed part
    cohort_pass({k: v[:1] for k, v in inp.items()} | {"lengths": inp["lengths"][:3]})
    warmup_s = time.perf_counter() - t0
    res = run_cohort(a, inp, a.seconds)
    res["errors"] = res["errors"][:20]
    return res | {"warmup_s": warmup_s}


def _pipeline_in_process(a, d: Path, tag: str, tracer=None):
    """One pipeline pass through ``cli.main`` in this process."""
    from medusa import cli
    pdir = d / f"pass_{tag}"
    runs, report = pdir / "runs", pdir / "report"
    codes = {}
    t0 = time.perf_counter()
    for name, argv in spec.pipeline_commands(str(d / "in"), str(runs), str(report),
                                             a.seed, spec.SIZES[a.size]["trial_s"]):
        sid = tracer.begin(f"command:{name}") if tracer else None
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes[name] = cli.main(argv)
        if tracer:
            tracer.end(sid)
    return time.perf_counter() - t0, codes, runs, report, pdir


def step_trace(a) -> dict:
    """Untraced, traced, untraced: the traced pass gives the layers; the first
    pass warms lazy imports and first calls, the last is the baseline for
    the tracing overhead."""
    d = Path(a.dir)
    tracer = Tracer()
    if a.workload == "pipeline":
        from medusa import cli  # noqa: F401 - import cost stays out of the passes

        def one_pass(tag, traced):
            wall, codes, runs, report, pdir = _pipeline_in_process(a, d, tag, tracer if traced else None)

            def check():
                if traced:
                    checked = check_pipeline(runs, report, d, a.seed, a.size, codes)[:3]
                else:
                    bad = [f"{k}: exit code {c}" for k, c in codes.items() if c != 0]
                    checked = (len(codes), len(bad), bad)
                shutil.rmtree(pdir)
                return checked
            return wall, check
    else:
        inp = _load(a.workload, d)

        def one_pass(tag, traced):
            res = run_cohort(a, inp, 0.0)      # its checks call no traced function
            return res["walls"][0], lambda: (res["attempted"], res["failed"], res["errors"])

    walls, attempted, failed, errors = {}, 0, 0, []
    for tag in ("plain_a", "traced", "plain_b"):
        if tag == "traced":
            tracer.install()
        try:
            walls[tag], check = one_pass(tag, tag == "traced")
        finally:
            tracer.uninstall()
        # checks run untraced, so their own calls into medusa stay out of the layers
        n, f, e = check()
        attempted, failed, errors = attempted + n, failed + f, errors + e

    layers = tracer.layer_metrics()
    if a.workload == "pipeline":
        for span, (self_s, total, child) in tracer.self_times("command:").items():
            name = span.split(":", 1)[1]
            # self time plus the wrapped child spans must account for the command
            if abs(self_s + child - total) > 1e-9:
                errors.append(f"{name}: self {self_s} + children {child} != {total}")
                failed += 1
            layers[f"cli.{name}.self_s"] = {"value": self_s, "unit": "s"}
    layers["trace.overhead_s"] = {"value": walls["traced"] - walls["plain_b"], "unit": "s"}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace_{a.workload}_{a.seed}.json", {"walls": walls})
    return {"layers": layers, "walls": walls, "attempted": attempted, "failed": failed,
            "errors": errors[:20]}


def step_check(a) -> dict:
    d = Path(a.dir)
    pdir = Path(a.pass_dir)
    n, f, e, values = check_pipeline(pdir / "runs", pdir / "report", d, a.seed, a.size,
                                     json.loads(a.exit_codes))
    return {"attempted": n, "failed": f, "errors": e[:20], "values": values,
            "bytes_written": bytes_written(pdir)}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("step", choices=("setup", "run", "check", "trace"))
    p.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(spec.SIZES), default="full")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--pass-dir")
    p.add_argument("--exit-codes", default="{}")
    a = p.parse_args()
    step = {"setup": step_setup, "run": step_run, "check": step_check, "trace": step_trace}[a.step]
    result = step(a)
    Path(a.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
