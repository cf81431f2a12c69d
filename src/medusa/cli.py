"""Command-line front end: orchestrates the pipeline and writes reports/plots.

Every command reads canonical CSV/JSON, writes CSV results plus SVG plots
into ``--out``, and records a manifest.json describing inputs, arguments
and versions.  Exit codes: 0 success, 2 argument/input validation error,
1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, criticality, ingest, kinematics, sensorsearch, svgplot, synthgen
from . import esp as esp_mod
from . import reservoir as rc
from .errors import MedusaError, ValidationError, ZeroVariance, require_finite
from .manifest import write_manifest
from .table import read_csv, write_csv

DATA_DIR_ENV = "MEDUSA_DATA_DIR"
DEFAULT_SENSORS = "inner_radius,outer_radius,Y2-O1,R2-O2"
DEFAULT_HORIZONS = "0,0.5,1.0,1.5,2.0"
SOC_LENGTH_CHANNELS = kinematics.RADIAL_PAIR_NAMES + kinematics.CORONAL_PAIR_NAMES
VELOCITY_CHANNELS = ("vx", "vy", "vz")


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------

def _resolve_input(path_str: str) -> Path:
    path = Path(path_str)
    if not path.exists() and not path.is_absolute():
        root = os.environ.get(DATA_DIR_ENV)
        if root and (Path(root) / path).exists():
            return Path(root) / path
    if not path.exists():
        raise ValidationError(f"input not found: {path_str}")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


ANALYSIS_COLUMNS = (
    ("t",)
    + kinematics.PAIR_NAMES
    + ("inner_radius", "outer_radius", "ea", "eb", "eg", "vx", "vy", "vz", "stim", "valid")
)


class AnalysisTable:
    """Canonical per-trial analysis series loaded back from CSV."""

    def __init__(self, data: np.ndarray, meta: dict):
        self.data = data
        self.meta = meta

    @classmethod
    def read(cls, csv_path: Path) -> "AnalysisTable":
        data = read_csv(csv_path, ANALYSIS_COLUMNS)
        json_path = csv_path.with_suffix(".json")
        meta = json.loads(json_path.read_text()) if json_path.exists() else {}
        return cls(data, meta)

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def frame_rate(self) -> float:
        if "frame_rate" in self.meta:
            return float(self.meta["frame_rate"])
        return float(1.0 / np.median(np.diff(self.t)))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, ANALYSIS_COLUMNS.index(name)]

    def columns(self, names) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    @property
    def stim(self) -> np.ndarray:
        return self.column("stim").astype(np.uint8)

    def stim_onsets(self) -> np.ndarray:
        active = self.stim > 0
        rising = active & ~np.concatenate(([False], active[:-1]))
        return np.flatnonzero(rising)


def _write_analysis(out: Path, table: dict[str, np.ndarray], meta: dict) -> list[Path]:
    csv_path = out / "analysis.csv"
    data = np.column_stack([table[name] for name in ANALYSIS_COLUMNS])
    write_csv(csv_path, ANALYSIS_COLUMNS, data.T)
    json_path = out / "analysis.json"
    json_path.write_text(json.dumps(meta, indent=2, default=str) + "\n")
    return [csv_path, json_path]


def _lowpass_valid_segments(x: np.ndarray, valid: np.ndarray, fs: float) -> np.ndarray:
    """Filter each contiguous valid stretch; short stretches pass through."""
    out = x.copy()
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return out
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    for run in np.split(idx, splits):
        seg = slice(run[0], run[-1] + 1)
        try:
            out[seg] = kinematics.lowpass_3hz(x[seg], fs)
        except MedusaError:
            pass
    return out


def _parse_labeled_inputs(items) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"expected label=path, got {item!r}")
        label, path = item.split("=", 1)
        out[label] = _resolve_input(path)
    if len(out) < 2:
        raise ValidationError("need at least two label=path datasets")
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    outputs = []
    schedule = synthgen.pwm_schedule(args.tau, args.seconds) if args.tau else None
    for i in range(args.trials):
        params = synthgen.SyntheticJellyfishParams(
            seed=args.seed + i, noise_sd_mm=args.noise_sd
        )
        trial, _ = synthgen.gen_jellyfish(params, schedule, args.seconds)
        stem = "trial" if args.trials == 1 else f"trial_{i:03d}"
        csv_path = out / f"{stem}.csv"
        ingest.write_trial_csv(trial, csv_path)
        outputs += [csv_path, csv_path.with_suffix(".json")]
    write_manifest(out, "synth", vars(args), [], outputs,
                   seed=args.seed, elapsed_s=time.perf_counter() - started)
    print(f"synth: wrote {args.trials} trial(s) to {out}")
    return 0


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    prefix = args.input
    paths = {}
    for view in ingest.VIEW_NAMES:
        paths[view] = _resolve_input(f"{prefix}_{view}.csv")
    meta_path = _resolve_input(f"{prefix}.json")
    meta = json.loads(Path(meta_path).read_text())
    frame_rate = float(meta.get("frame_rate", ingest.DEFAULT_FRAME_RATE))

    views = {
        name: ingest.rectify_view(ingest.read_view_csv(paths[name], name, frame_rate))
        for name in ingest.VIEW_NAMES
    }
    trial = ingest.assemble_3d(
        views["top"], views["behind"], views["right"],
        animal_id=meta.get("animal_id", ""),
        condition=meta.get("condition", "spontaneous"),
        period_s=meta.get("period_s"),
    )
    led = views["top"].led[:, 0]
    if trial.condition == "stimulated":
        threshold = 0.5 * (led.max() + led.min())
        active, _ = ingest.align_stimulus(led, threshold, frame_rate)
        trial = replace(trial, stimulus=active)
    trial = ingest.interpolate_gaps(trial, args.max_gap)

    csv_path = out / "trial.csv"
    ingest.write_trial_csv(trial, csv_path)
    outputs = [csv_path, csv_path.with_suffix(".json")]
    write_manifest(out, "ingest", vars(args),
                   list(paths.values()) + [meta_path], outputs,
                   elapsed_s=time.perf_counter() - started)
    n_valid = int(trial.valid_mask.sum())
    print(f"ingest: {trial.n_frames} frames ({n_valid} valid) -> {csv_path}")
    return 0


def cmd_kinematics(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    trial_path = _resolve_input(args.input)
    trial = ingest.read_trial_csv(trial_path)
    fs = trial.frame_rate

    if not args.no_filter:
        flat = trial.positions.reshape(trial.n_frames, -1)
        filtered = np.column_stack(
            [_lowpass_valid_segments(flat[:, c], trial.valid_mask, fs) for c in range(24)]
        )
        trial = replace(trial, positions=filtered.reshape(trial.n_frames, 8, 3))

    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v_local = kinematics.local_velocities(trial, pose)

    table = {"t": trial.times}
    for i, name in enumerate(lengths.names):
        table[name] = lengths.values[:, i]
    table["inner_radius"] = pose.inner_radius
    table["outer_radius"] = pose.outer_radius
    table["ea"], table["eb"], table["eg"] = pose.euler_zyz.T
    table["vx"], table["vy"], table["vz"] = v_local.T
    table["stim"] = trial.stimulus.astype(float)
    table["valid"] = trial.valid_mask.astype(float)
    meta = {
        "animal_id": trial.animal_id,
        "condition": trial.condition,
        "period_s": trial.period_s,
        "frame_rate": fs,
        "filtered": not args.no_filter,
    }
    outputs = _write_analysis(out, table, meta)
    write_manifest(out, "kinematics", vars(args), [trial_path], outputs,
                   elapsed_s=time.perf_counter() - started)
    print(f"kinematics: {trial.n_frames} frames -> {outputs[0]}")
    return 0


def _soc_channels(table: AnalysisTable) -> dict[str, np.ndarray]:
    channels: dict[str, np.ndarray] = {}
    for name in SOC_LENGTH_CHANNELS + ("inner_radius", "outer_radius"):
        try:
            channels[name] = kinematics.standardize(table.column(name))
        except ZeroVariance:
            continue
    for name in VELOCITY_CHANNELS:
        channels[name] = table.column(name)
    return channels


def cmd_soc(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    path = _resolve_input(args.input)
    table = AnalysisTable.read(path)
    fs = table.frame_rate

    channels = _soc_channels(table)
    # checked before the loop: its MedusaError handlers would drop the error
    # and a NaN sample poisons every Welch segment that holds it
    require_finite(np.column_stack(list(channels.values())), "soc input")
    psd_rows, event_rows, fit_rows = [], [], []
    psd_curves: dict[str, np.ndarray] = {}
    freqs = None
    for name, series in channels.items():
        try:
            est = criticality.psd(series, fs)
        except MedusaError:
            continue
        freqs = est.freqs
        psd_curves[name] = est.power
        psd_rows += [(name, float(f), float(p)) for f, p in zip(est.freqs, est.power)]
        try:
            fit = criticality.fit_power_law_psd(est)
            fit_rows.append((name, "psd", fit.alpha, fit.intercept,
                             fit.fit_range[0], fit.fit_range[1], fit.r2_loglog, fit.n_points))
        except MedusaError:
            pass
        events = criticality.extract_pulses(series, frame_rate=fs)
        event_rows += [(name, e.onset_s, e.duration_s, e.size) for e in events]
        for kind in ("duration", "size"):
            try:
                fit = criticality.fit_power_law_events(events, kind)
                fit_rows.append((name, kind, fit.alpha, fit.intercept,
                                 fit.fit_range[0], fit.fit_range[1], fit.r2_loglog, fit.n_points))
            except MedusaError:
                pass

    outputs = []
    p = out / "psd.csv"
    write_csv(p, ["channel", "freq_hz", "power"], zip(*psd_rows))
    outputs.append(p)
    p = out / "events.csv"
    write_csv(p, ["channel", "onset_s", "duration_s", "size"], zip(*event_rows))
    outputs.append(p)
    p = out / "fits.csv"
    write_csv(p, ["channel", "kind", "alpha", "intercept", "lo", "hi", "r2_loglog", "n_points"],
              zip(*fit_rows))
    outputs.append(p)
    if freqs is not None:
        p = out / "psd_loglog.svg"
        show = {k: v for k, v in psd_curves.items() if k in SOC_LENGTH_CHANNELS}
        svgplot.line_plot(p, freqs, show or psd_curves, title="power spectral density",
                          xlabel="frequency [Hz]", ylabel="power", log_x=True, log_y=True)
        outputs.append(p)
    write_manifest(out, "soc", vars(args), [path], outputs,
                   elapsed_s=time.perf_counter() - started)
    print(f"soc: {len(psd_curves)} channels, {len(event_rows)} events, "
          f"{len(fit_rows)} fits -> {out}")
    return 0


def cmd_phase(args) -> int:
    from . import response  # loads scipy.stats, which only phase and esp need

    out = _out_dir(args)
    started = time.perf_counter()
    path = _resolve_input(args.input)
    table = AnalysisTable.read(path)
    fs = table.frame_rate
    onsets = table.stim_onsets() / fs
    if onsets.size < 2:
        raise ValidationError("trial has fewer than 2 stimulus onsets; nothing to segment")

    rows = []
    ribbons = {}
    for name in SOC_LENGTH_CHANNELS + VELOCITY_CHANNELS:
        series = table.column(name)
        if name not in VELOCITY_CHANNELS:
            try:
                series = kinematics.standardize(series)
            except ZeroVariance:
                continue
        pr = response.phase_response(series, onsets, fs)
        ribbons[name] = pr
        rows += [
            (name, float(ph), float(m), float(s), pr.n_segments)
            for ph, m, s in zip(pr.phase, pr.mean, pr.sd)
        ]

    outputs = []
    p = out / "phase.csv"
    write_csv(p, ["channel", "phase", "mean", "sd", "n_segments"], zip(*rows))
    outputs.append(p)
    p = out / "phase_means.svg"
    svgplot.line_plot(
        p,
        next(iter(ribbons.values())).phase,
        {name: pr.mean for name, pr in ribbons.items()},
        title=f"phase response (period {next(iter(ribbons.values())).period_s:.2f} s)",
        xlabel="phase", ylabel="mean response",
    )
    outputs.append(p)
    pick = args.ribbon_channel
    if pick in ribbons:
        pr = ribbons[pick]
        p = out / f"phase_ribbon_{pick}.svg"
        svgplot.ribbon_plot(p, pr.phase, pr.mean, pr.sd,
                            title=f"{pick} phase response", xlabel="phase", ylabel=pick)
        outputs.append(p)
    write_manifest(out, "phase", vars(args), [path], outputs,
                   elapsed_s=time.perf_counter() - started)
    print(f"phase: {len(ribbons)} channels over {next(iter(ribbons.values())).n_segments} "
          f"segments -> {out}")
    return 0


def _esp_channel_sets(tables, n) -> dict[str, list[np.ndarray]]:
    channel_sets: dict[str, list[np.ndarray]] = {"lengths": []}
    for axis in VELOCITY_CHANNELS:
        channel_sets[axis] = []
    for t in tables:
        lengths = t.columns(SOC_LENGTH_CHANNELS)[:n]
        channel_sets["lengths"].append(kinematics.standardize(lengths))
        for axis in VELOCITY_CHANNELS:
            channel_sets[axis].append(kinematics.standardize(t.column(axis)[:n]))
    return channel_sets


def _esp_one_condition(paths, params):
    tables = [AnalysisTable.read(p) for p in paths]
    conditions = {t.meta.get("condition", "?") for t in tables}
    if len(conditions) > 1:
        raise ValidationError(f"trials mix conditions: {sorted(conditions)}")
    fs = tables[0].frame_rate
    n = min(t.data.shape[0] for t in tables)
    results = {
        name: esp_mod.esp_index(trials, params, fs)
        for name, trials in _esp_channel_sets(tables, n).items()
    }
    return conditions.pop(), results


def cmd_esp(args) -> int:
    from . import response

    out = _out_dir(args)
    started = time.perf_counter()
    params = esp_mod.EspParams(transient_s=args.transient, horizon_s=args.horizon)

    grouped = all("=" in item for item in args.inputs)
    if grouped:
        groups = {}
        all_paths = []
        for item in args.inputs:
            label, listed = item.split("=", 1)
            paths = [_resolve_input(p) for p in listed.split(",")]
            if len(paths) < 2:
                raise ValidationError(f"group {label!r} needs at least two trials")
            groups[label] = paths
            all_paths += paths
    else:
        if any("=" in item for item in args.inputs):
            raise ValidationError("mix of plain paths and label=paths inputs")
        paths = [_resolve_input(p) for p in args.inputs]
        if len(paths) < 2:
            raise ValidationError("esp needs at least two trial analyses")
        all_paths = paths
        groups = None

    rows = []
    stats_rows = []
    if groups is None:
        condition, results = _esp_one_condition(all_paths, params)
        per_label = {condition: results}
    else:
        per_label = {}
        for label, group_paths in groups.items():
            _, per_label[label] = _esp_one_condition(group_paths, params)
        # compare per-pair distances across groups, per channel set
        labels = list(per_label)
        for channel_set in next(iter(per_label.values())):
            samples = [per_label[g][channel_set].pair_deltas for g in labels]
            if all(s.size >= 2 for s in samples):
                f_stat, p_val = response.one_way_anova(samples)
                stats_rows.append(("anova", channel_set, "|".join(labels),
                                   f_stat, p_val, ""))
                for row in response.pairwise_tests(samples, seed=0):
                    i, j = row.pair
                    stats_rows.append((
                        "welch+tukey-perm", channel_set,
                        f"{labels[i]}:{labels[j]}",
                        row.t_statistic, row.p_welch, row.p_adjusted,
                    ))

    for label, results in per_label.items():
        for name, result in results.items():
            rows.append((label, name, "pooled", result.n_comparisons, result.value))

    outputs = []
    p = out / "esp.csv"
    write_csv(p, ["condition", "channel_set", "reference", "P", "index"], zip(*rows))
    outputs.append(p)
    if stats_rows:
        p = out / "stats.csv"
        write_csv(p, ["test", "channel_set", "groups", "statistic", "p", "p_adjusted"],
                  zip(*stats_rows))
        outputs.append(p)
    p = out / "esp_bars.svg"
    svgplot.bar_chart(
        p,
        [f"{label}:{name}" for label in per_label for name in per_label[label]],
        [r.value for label in per_label for r in per_label[label].values()],
        errors=[r.pair_deltas.std() for label in per_label
                for r in per_label[label].values()],
        title="response consistency index",
        ylabel="index",
    )
    outputs.append(p)
    write_manifest(out, "esp", vars(args), all_paths, outputs,
                   seed=None, elapsed_s=time.perf_counter() - started)
    summary = ", ".join(
        f"{label}/{name}={r.value:.3f}"
        for label in per_label for name, r in per_label[label].items()
    )
    print(f"esp: {summary}")
    return 0


def _parse_names(names: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in names.split(",") if s.strip())


def _targets_from_table(table: AnalysisTable, target_names, pulsatile: bool):
    velocity_names = tuple(n for n in target_names if n in VELOCITY_CHANNELS)
    if not velocity_names:
        raise ValidationError("targets must include at least one of vx, vy, vz")
    v = table.columns(velocity_names)
    if pulsatile:
        onsets = table.stim_onsets()
        if onsets.size == 0:
            onsets = rc.detect_pulse_onsets(
                kinematics.standardize(table.column("vz")), table.frame_rate
            )
        euler = table.columns(["ea", "eb", "eg"])
        return rc.build_targets(v, table.frame_rate, onset_indices=onsets,
                                euler=euler, pulsatile=True,
                                velocity_names=velocity_names)
    return rc.build_targets(v, table.frame_rate, pulsatile=False,
                            velocity_names=velocity_names)


def _config_from_args(args, n_sensors: int, frame_rate: float) -> rc.ReservoirConfig:
    return rc.ReservoirConfig(
        n_nodes=args.nodes,
        spectral_radius=args.rho,
        mux_horizon_s=args.mux,
        mux_stride=args.stride,
        leak=args.leak,
        architecture=args.arch,
        seed=args.seed,
        n_sensors=n_sensors,
        frame_rate=frame_rate,
    )


def _washout_value(args, pulsatile: bool) -> int:
    if args.washout != "auto":
        return int(args.washout)
    return rc.PULSATILE_WASHOUT_SAMPLES if pulsatile else rc.AGGREGATE_WASHOUT_SAMPLES


def cmd_train(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    path = _resolve_input(args.input)
    table = AnalysisTable.read(path)
    fs = table.frame_rate
    sensor_names = _parse_names(args.sensors)
    target_names = _parse_names(args.targets)
    sensors = kinematics.standardize(table.columns(sensor_names))
    targets = _targets_from_table(table, target_names, args.pulsatile)
    config = _config_from_args(args, len(sensor_names), fs)
    washout = _washout_value(args, args.pulsatile)
    horizons = [float(h) for h in _parse_names(args.horizons)]

    mux_scale = rc.shared_mux_scale([sensors], config.mux_horizon_s, config.mux_stride, fs)
    features = rc.reservoir_features(sensors, config, mux_scale=mux_scale)
    model = rc.train_horizons(
        features, targets.values, horizons, washout, fs,
        architecture=config.architecture, target_names=targets.names,
    )
    scores = rc.evaluate_horizons(model, features, targets.values)

    model_path = out / "model.npz"
    np.savez(
        model_path,
        config=json.dumps(vars(config) | {"__class__": "ReservoirConfig"}),
        horizons_s=np.array(model.horizons_s),
        horizon_samples=np.array(model.horizon_samples),
        weights=model.weights,
        mux_scale=mux_scale,
        sensor_names=np.array(sensor_names),
        target_names=np.array(targets.names),
        washout=washout,
        ridge=rc.RIDGE_DEFAULT,
        pulsatile=args.pulsatile,
    )
    outputs = [model_path]
    p = out / "train_scores.csv"
    write_csv(p, ["horizon_s", "r2_insample"],
              [model.horizons_s, [scores[h] for h in model.horizons_s]])
    outputs.append(p)
    write_manifest(out, "train", vars(args), [path], outputs,
                   seed=args.seed, elapsed_s=time.perf_counter() - started)
    print("train: in-sample R2 " + ", ".join(f"{h:g}s={scores[h]:.3f}"
                                             for h in model.horizons_s))
    return 0


def _load_model(path: Path):
    data = np.load(path, allow_pickle=False)
    cfg_dict = json.loads(str(data["config"]))
    cfg_dict.pop("__class__", None)
    config = rc.ReservoirConfig(**cfg_dict)
    model = rc.Readout(
        weights=data["weights"],
        horizons_s=tuple(float(h) for h in data["horizons_s"]),
        frame_rate=config.frame_rate,
        washout=int(data["washout"]),
        architecture=config.architecture,
        target_names=tuple(str(t) for t in data["target_names"]),
    )
    extras = {
        "mux_scale": float(data["mux_scale"]),
        "sensor_names": tuple(str(s) for s in data["sensor_names"]),
        "pulsatile": bool(data["pulsatile"]),
    }
    return config, model, extras


def cmd_predict(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    model_path = _resolve_input(args.model)
    config, model, extras = _load_model(model_path)
    path = _resolve_input(args.input)
    table = AnalysisTable.read(path)
    sensors = kinematics.standardize(table.columns(extras["sensor_names"]))
    targets = _targets_from_table(table, model.target_names, extras["pulsatile"])
    if tuple(targets.names) != tuple(model.target_names):
        raise ValidationError(
            f"rebuilt targets {targets.names} do not match the model's "
            f"{model.target_names}"
        )
    # the mux lags and the horizon shifts are counted in the model's samples
    if not math.isclose(table.frame_rate, config.frame_rate, rel_tol=1e-9):
        raise ValidationError(
            f"{path} is at {table.frame_rate:g} Hz but the model was trained at "
            f"{config.frame_rate:g} Hz"
        )
    features = rc.reservoir_features(sensors, config, mux_scale=extras["mux_scale"])
    predictions = rc.predict_horizons(model, features)

    t = table.t
    shifts = dict(zip(model.horizons_s, model.horizon_samples))
    parts = []      # per (horizon, target): the five predictions.csv columns
    score_rows = []
    heat = np.full((len(targets.names), len(model.horizons_s)), np.nan)
    for col, h_s in enumerate(sorted(predictions)):
        pred = np.atleast_2d(predictions[h_s].T).T
        h = shifts[h_s]
        stop = pred.shape[0] - h
        for row, name in enumerate(targets.names):
            actual = targets.values[model.washout + h:, row]
            est = pred[model.washout:stop, row]
            kept = slice(0, est.shape[0], max(1, args.stride_out))
            predicted = est[kept]
            parts.append((t[model.washout:][kept], np.full(predicted.size, name, dtype=object),
                          np.full(predicted.size, h_s), predicted, actual[kept]))
            score = rc.r2(est, actual)
            heat[row, col] = score
            score_rows.append((name, h_s, score))

    outputs = []
    p = out / "predictions.csv"
    write_csv(p, ["t", "target", "horizon_s", "predicted", "actual"],
              [np.concatenate(column) for column in zip(*parts)])
    outputs.append(p)
    p = out / "scores.csv"
    write_csv(p, ["target", "horizon_s", "r2"], zip(*score_rows))
    outputs.append(p)
    p = out / "r2_heatmap.svg"
    svgplot.heatmap(p, heat, targets.names, [f"{h:g}s" for h in sorted(predictions)],
                    title="R2 by target and horizon")
    outputs.append(p)
    write_manifest(out, "predict", vars(args), [model_path, path], outputs,
                   elapsed_s=time.perf_counter() - started)
    mean_r2 = float(np.nanmean(heat))
    print(f"predict: mean R2 {mean_r2:.3f} over {heat.size} target/horizon cells")
    return 0


def cmd_confusion(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    labeled = _parse_labeled_inputs(args.inputs)
    target_names = _parse_names(args.targets)
    sensor_names = _parse_names(args.sensors)

    sets = {}
    fs = None
    for label, path in labeled.items():
        table = AnalysisTable.read(path)
        fs = fs or table.frame_rate
        sensors = kinematics.standardize(table.columns(sensor_names))
        targets = _targets_from_table(table, target_names, pulsatile=False)
        sets[label] = (sensors, targets.values)

    config = _config_from_args(args, len(sensor_names), fs)
    # cross-family sets are single trials; 'auto' takes the short washout
    washout = _washout_value(args, pulsatile=True)
    scale = rc.shared_mux_scale([s for s, _ in sets.values()],
                                config.mux_horizon_s, config.mux_stride, fs)
    datasets = {
        label: (rc.reservoir_features(s, config, mux_scale=scale), y)
        for label, (s, y) in sets.items()
    }
    result = rc.cross_predict(datasets, washout)

    outputs = []
    p = out / "confusion.csv"
    header = ["train\\eval"] + result.names
    write_csv(p, header, [result.names, *result.matrix.astype(float).T])
    outputs.append(p)
    p = out / "confusion_heatmap.svg"
    svgplot.heatmap(p, result.matrix, result.names, result.names,
                    title="cross-training R2 (rows: trained on)")
    outputs.append(p)
    write_manifest(out, "confusion", vars(args), list(labeled.values()), outputs,
                   seed=args.seed, elapsed_s=time.perf_counter() - started)
    print(f"confusion: {len(result.names)}x{len(result.names)} matrix -> {out}")
    return 0


def cmd_search_sensors(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    path = _resolve_input(args.input)
    table = AnalysisTable.read(path)
    pool_cols = list(kinematics.PAIR_NAMES) + ["inner_radius", "outer_radius"]
    data = kinematics.standardize(table.columns(pool_cols))

    tasks: dict[str, np.ndarray] = {a: table.column(a) for a in VELOCITY_CHANNELS}
    stim = table.column("stim")
    if stim.std() > 0:
        tasks["stim"] = stim

    report = sensorsearch.search_best(
        data, tasks, washout=args.washout, k_max=args.kmax, n_workers=args.threads
    )
    outputs = []
    p = out / "search_best.csv"
    write_csv(p, ["task", "best_subset", "r2"],
              zip(*[(t, "+".join(r.subset), r.r2) for t, r in report.best.items()]))
    outputs.append(p)
    p = out / "search_tally.csv"
    write_csv(p, ["sensor", "tally"],
              [report.pool_names, [report.tally[name] for name in report.pool_names]])
    outputs.append(p)
    summary = {
        "n_subsets": report.n_subsets,
        "n_tasks": report.n_tasks,
        "elapsed_s": report.elapsed_s,
        "n_workers": report.n_workers,
        "top_sensors": sensorsearch.top_sensors(report, 4),
        "stats": report.stats,
    }
    p = out / "search_summary.json"
    p.write_text(json.dumps(summary, indent=2) + "\n")
    outputs.append(p)
    write_manifest(out, "search-sensors", vars(args), [path], outputs,
                   elapsed_s=time.perf_counter() - started)
    print(f"search-sensors: evaluated {report.n_subsets} subsets over "
          f"{report.n_tasks} tasks in {report.elapsed_s:.1f} s "
          f"({report.n_workers} workers); top: {', '.join(summary['top_sensors'])}")
    return 0


def cmd_export_model(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    model_path = _resolve_input(args.model)
    config, model, _ = _load_model(model_path)
    readout = model if args.all_horizons else model.at(args.horizon)
    state = None if config.architecture == "prc" else rc.esn_init(config)
    blob = rc.export_compact(readout, config, state)
    blob_path = out / "model.bin"
    blob_path.write_bytes(blob)
    evaluator = rc.CompactEvaluator(rc.load_compact(blob))
    outputs = [blob_path]
    write_manifest(out, "export-model", vars(args), [model_path], outputs,
                   elapsed_s=time.perf_counter() - started)
    print(f"export-model: {len(blob)} byte blob, "
          f"{evaluator.working_set_bytes} byte working set -> {blob_path}")
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    started = time.perf_counter()
    root = _resolve_input(args.input)
    records = []
    for manifest_path in sorted(Path(root).rglob("manifest.json")):
        data = json.loads(manifest_path.read_text())
        records.append({
            "dir": str(manifest_path.parent),
            "command": data.get("command"),
            "config_hash": data.get("config_hash"),
            "elapsed_s": data.get("elapsed_s"),
            "outputs": data.get("outputs", []),
        })
    summary = {"root": str(root), "n_runs": len(records), "runs": records}
    p = out / "report.json"
    p.write_text(json.dumps(summary, indent=2) + "\n")
    write_manifest(out, "report", vars(args), [], [p],
                   elapsed_s=time.perf_counter() - started)
    for r in records:
        print(f"{r['command']:>16}  {r['dir']}")
    print(f"report: {len(records)} runs -> {p}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_reservoir_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", choices=rc.ARCHITECTURES, default="hybrid")
    p.add_argument("--nodes", type=int, default=100, help="reservoir size")
    p.add_argument("--rho", type=float, default=rc.DEFAULT_SPECTRAL_RADIUS,
                   help="spectral radius of the recurrent weights")
    p.add_argument("--mux", type=float, default=2.0, help="input history span [s]")
    p.add_argument("--stride", type=int, default=6, help="mux lag stride [samples]")
    p.add_argument("--leak", type=float, default=0.0, help="input leak in [0,1)")
    p.add_argument("--washout", default="auto",
                   help="washout samples, or 'auto' (1e4 aggregate / 1e3 pulsatile)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sensors", default=DEFAULT_SENSORS,
                   help="comma-separated sensor channel names")
    p.add_argument("--targets", default="vx,vy,vz",
                   help="comma-separated velocity targets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medusa",
        description="Motion-capture analysis and reservoir-computing prediction pipeline",
    )
    parser.add_argument("--version", action="version", version=f"medusa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic trials")
    p.add_argument("--tau", type=float, default=None, help="stimulus period [s]; omit for spontaneous")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=0.05, help="marker noise SD [mm]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="rectify views and assemble a 3D trial")
    p.add_argument("--input", required=True,
                   help="path prefix: expects <prefix>_top/behind/right.csv and <prefix>.json")
    p.add_argument("--max-gap", type=int, default=5, help="longest gap to interpolate [frames]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("kinematics", help="lengths, body frame and local velocities")
    p.add_argument("--input", required=True, help="trial CSV")
    p.add_argument("--no-filter", action="store_true", help="skip the 3 Hz low-pass")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kinematics)

    p = sub.add_parser("soc", help="spectra, pulse statistics and power-law fits")
    p.add_argument("--input", required=True, help="analysis CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soc)

    p = sub.add_parser("phase", help="stimulus-locked phase response")
    p.add_argument("--input", required=True, help="analysis CSV")
    p.add_argument("--ribbon-channel", default="vz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("esp", help="response-consistency index over repeated trials")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="analysis CSVs of one condition, or label=a.csv,b.csv,... "
                        "groups to compare conditions (adds stats.csv)")
    p.add_argument("--transient", type=float, default=2.0)
    p.add_argument("--horizon", type=float, default=esp_mod.DEFAULT_HORIZON_S)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_esp)

    p = sub.add_parser("train", help="train horizon readouts on one trial")
    p.add_argument("--input", required=True, help="analysis CSV")
    p.add_argument("--horizons", default=DEFAULT_HORIZONS)
    p.add_argument("--pulsatile", action="store_true",
                   help="add dead-reckoned pulse targets and use the short washout")
    _add_reservoir_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a trained model")
    p.add_argument("--model", required=True, help="model.npz from train")
    p.add_argument("--input", required=True, help="analysis CSV")
    p.add_argument("--stride-out", type=int, default=1,
                   help="write every k-th prediction row")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("confusion", help="cross-train/evaluate R2 matrix")
    p.add_argument("--inputs", nargs="+", required=True, help="label=analysis.csv pairs")
    _add_reservoir_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_confusion)

    p = sub.add_parser("search-sensors", help="exhaustive best-subset sensor search")
    p.add_argument("--input", required=True, help="analysis CSV")
    p.add_argument("--kmax", type=int, default=sensorsearch.DEFAULT_K_MAX)
    p.add_argument("--washout", type=int, default=1_000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search_sensors)

    p = sub.add_parser("export-model", help="write the compact inference blob")
    p.add_argument("--model", required=True, help="model.npz from train")
    p.add_argument("--horizon", type=float, default=0.0)
    p.add_argument("--all-horizons", action="store_true",
                   help="stack every trained horizon into the blob outputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_model)

    p = sub.add_parser("report", help="summarize run manifests under a directory")
    p.add_argument("--input", required=True, help="directory to scan")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MedusaError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
