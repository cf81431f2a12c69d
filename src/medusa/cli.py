"""Command-line front end: orchestrates the pipeline and writes reports/plots.

Every command reads canonical CSV/JSON through its `Run` and writes CSV
results plus SVG plots into ``--out`` through it; `main` then records the
run in a manifest.json describing inputs, outputs, arguments and versions.
Exit codes: 0 success, 2 argument/input validation error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import zipfile
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__  # medusa's other modules where a command runs them
from .errors import (
    MedusaError, PeriodTooShort, UntrainedHorizon, ValidationError, ZeroVariance, require_finite,
)
from .manifest import sha256_file, write_manifest
from .series import runs
from .table import float_cells, read_csv, read_json, sidecar_path, write_csv, write_json

DATA_DIR_ENV = "MEDUSA_DATA_DIR"
DEFAULT_SENSORS = "inner_radius,outer_radius,Y2-O1,R2-O2"
DEFAULT_HORIZONS = "0,0.5,1.0,1.5,2.0"
VELOCITY_CHANNELS = ("vx", "vy", "vz")
# the least value of each numeric flag, checked before a command reads anything
# (synth checks --seconds against the generator's least duration)
FLAG_MINIMA = {"max_gap": 0, "stride_out": 1, "kmax": 1, "trials": 1, "noise_sd": 0}
# the flag that sets each EspParams/ReservoirConfig field a command takes from one
FIELD_FLAGS = {"transient_s": "--transient", "horizon_s": "--horizon", "n_nodes": "--nodes",
               "spectral_radius": "--rho", "mux_horizon_s": "--mux", "mux_stride": "--stride",
               "leak": "--leak"}


# ---------------------------------------------------------------------------
# small I/O helpers
# ---------------------------------------------------------------------------

class Run:
    """The files one command reads and writes, in order; `main` records them
    in the run's manifest.json."""

    def __init__(self, out: str):
        self.out = Path(out)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        self.sha256 = functools.cache(sha256_file)     # each file is hashed once

    def input(self, path_str: str) -> Path:
        """Resolve an input path, relative ones also under $MEDUSA_DATA_DIR."""
        path = Path(path_str)
        if not path.exists() and not path.is_absolute():
            root = os.environ.get(DATA_DIR_ENV)
            if root and (Path(root) / path).exists():
                path = Path(root) / path
        if not path.exists():
            raise ValidationError(f"input not found: {path_str}")
        self.inputs.append(path)
        return path

    def table(self, path_str: str) -> Path:
        """Resolve a table's CSV as `input` does and record it, then its sidecar."""
        path = self.input(path_str)
        self.input(str(sidecar_path(path)))
        return path

    def output(self, name: str) -> Path:
        """The path of result file ``name``; ``--out`` is made at the first one."""
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        self.outputs.append(path)
        return path

    def output_table(self, name: str) -> Path:
        """The path of result table ``name``, recorded with its sidecar."""
        path = self.output(name)
        self.output(sidecar_path(name))
        return path


class AnalysisTable:
    """Canonical per-trial analysis series loaded back from CSV."""

    def __init__(self, data: np.ndarray, meta: dict):
        self.data = data
        self.meta = meta

    @classmethod
    def read(cls, csv_path: Path, run: Run) -> "AnalysisTable":
        """The table at ``csv_path``: loaded from the analysis.npy beside it when
        the sidecar's csv_sha256 and npy_sha256 match both files, else parsed
        from the CSV text.  ``run`` hashes the files and records a npy it loads."""
        from .ingest import read_sidecar
        from .kinematics import ANALYSIS_COLUMNS
        npy_path = csv_path.with_suffix(".npy")
        data = None
        try:    # a missing file, any mismatch or a malformed npy reads the text instead
            meta = read_json(sidecar_path(csv_path))
            if (meta.get("csv_sha256") == run.sha256(csv_path)
                    and meta.get("npy_sha256") == run.sha256(npy_path)):
                with open(npy_path, "rb") as fh:    # an array, never a pickle or an npz
                    data = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValidationError, OSError, ValueError, EOFError):
            pass
        if data is None or data.dtype != np.float64 or data.shape[1:] != (len(ANALYSIS_COLUMNS),):
            data = read_csv(csv_path, ANALYSIS_COLUMNS)
        else:
            run.input(str(npy_path))
        # the rate cannot be recovered from the nine-digit times: at 60 Hz
        # over 300 s their median spacing reads 59.99988 Hz
        return cls(data, read_sidecar(sidecar_path(csv_path)))

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def frame_rate(self) -> float:
        return self.meta["frame_rate"]

    def column(self, name: str) -> np.ndarray:
        from .kinematics import ANALYSIS_COLUMNS
        return self.data[:, ANALYSIS_COLUMNS.index(name)]

    def columns(self, names) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    def stim_onsets(self) -> np.ndarray:
        return runs(self.column("stim") > 0)[0]


def _length_channels() -> tuple[str, ...]:
    """The lengths soc fits and phase and esp compare: radial, then coronal."""
    from .kinematics import CORONAL_PAIR_NAMES, RADIAL_PAIR_NAMES
    return RADIAL_PAIR_NAMES + CORONAL_PAIR_NAMES


def _tally(counts: Counter, what: str) -> str:
    """'; <what>: <n> (<error class> <count>, ...)' for a summary line, or ''."""
    if not counts:
        return ""
    by_class = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
    return f"; {what}: {sum(counts.values())} ({by_class})"


def _lowpass_valid_segments(x: np.ndarray, valid: np.ndarray, fs: float) -> Counter:
    """Filter each contiguous run of valid rows of ``x`` in place, all
    channels in one call.  Short runs pass through: counted per error class."""
    from . import kinematics
    unfiltered = Counter()
    for start, stop in zip(*runs(valid)):
        try:
            x[start:stop] = kinematics.lowpass_3hz(x[start:stop], fs)
        except MedusaError as exc:
            unfiltered[type(exc).__name__] += 1
    return unfiltered


def _require_rate(path: Path, rate: float, expected: float, source: str) -> None:
    """Exit 2 naming ``path`` unless it is at the ``expected`` frame rate: mux
    lags, washouts and horizons are counted in samples."""
    if not math.isclose(rate, expected, rel_tol=1e-9):
        raise ValidationError(f"{path} is at {rate:g} Hz but {source} {expected:g} Hz")


def _labeled_inputs(run: Run, items) -> dict[str, list[Path]]:
    """label -> input paths of ``label=a.csv,b.csv,...`` items."""
    out: dict[str, list[Path]] = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"expected label=path, got {item!r}")
        label, listed = item.split("=", 1)
        if label in out:
            raise ValidationError(f"label {label!r} given twice")
        out[label] = [run.table(path) for path in listed.split(",")]
    return out


def _check_flags(args, minima=FLAG_MINIMA) -> None:
    """Exit 2 naming the flag unless every float flag is finite and every
    flag of ``minima`` is at least its least value."""
    for dest, value in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value}")
        if dest in minima and not value >= minima[dest]:
            raise ValidationError(f"{flag} must be at least {minima[dest]}, got {value}")


@contextmanager
def _flag_errors(args):
    """Exit 2 on a ValueError from checking flag values, naming the flags
    behind the fields its message names."""
    try:
        yield
    except ValueError as exc:
        flags = [f"{flag} {getattr(args, flag[2:])}" for field, flag in FIELD_FLAGS.items()
                 if field in str(exc).split()]
        raise ValidationError(f"{', '.join(flags)}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(args, run: Run) -> None:
    from . import ingest, synthgen
    _check_flags(args, {"seconds": synthgen.MIN_DURATION_S})
    try:
        schedule = None if args.tau is None else synthgen.pwm_schedule(args.tau, args.seconds)
    except PeriodTooShort as exc:
        raise ValidationError(f"--tau {args.tau}: {exc}") from None
    for i in range(args.trials):
        params = synthgen.SyntheticJellyfishParams(
            seed=args.seed + i, noise_sd_mm=args.noise_sd
        )
        trial, _ = synthgen.gen_jellyfish(params, schedule, args.seconds)
        stem = "trial" if args.trials == 1 else f"trial_{i:03d}"
        ingest.write_trial_csv(trial, run.output_table(f"{stem}.csv"))
    print(f"synth: wrote {args.trials} trial(s) to {run.out}")


def cmd_ingest(args, run: Run) -> None:
    from . import ingest
    prefix = args.input
    paths = {view: run.input(f"{prefix}_{view}.csv") for view in ingest.VIEW_NAMES}
    meta = ingest.read_sidecar(run.input(f"{prefix}.json"), ingest.DEFAULT_FRAME_RATE)
    frame_rate = meta.pop("frame_rate")     # the views carry it into the trial

    views = {}
    for name in ingest.VIEW_NAMES:   # one whole view at a time: the others are reduced
        view = ingest.rectify_view(ingest.read_view_csv(paths[name], name, frame_rate))
        if name == "top":
            led = view.led[:, 0].copy()
        views[name] = view.markers_only()
        del view
    if len({view.n_frames for view in views.values()}) > 1:
        raise ValidationError("views do not share one frame count: " + ", ".join(
            f"{paths[name]} has {view.n_frames} frames" for name, view in views.items()))
    trial = ingest.assemble_3d(views["top"], views["behind"], views["right"], **meta)
    del views   # the trial and its LED column are all the write reads
    if trial.condition == "stimulated":
        threshold = 0.5 * (led.max() + led.min())
        active, _ = ingest.align_stimulus(led, threshold, frame_rate)
        trial = replace(trial, stimulus=active)
    trial = ingest.interpolate_gaps(trial, args.max_gap)

    csv_path = run.output_table("trial.csv")
    ingest.write_trial_csv(trial, csv_path)
    n_valid = int(trial.valid_mask.sum())
    print(f"ingest: {trial.n_frames} frames ({n_valid} valid) -> {csv_path}")


def cmd_kinematics(args, run: Run) -> None:
    from . import ingest, kinematics
    trial = ingest.read_trial_csv(run.table(args.input))
    fs = trial.frame_rate

    unfiltered = Counter()
    if not args.no_filter:     # in place: the unfiltered positions have no later reader
        unfiltered = _lowpass_valid_segments(trial.positions, trial.valid_mask, fs)

    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v_local = kinematics.local_velocities(trial, pose)

    csv_path = run.output("analysis.csv")
    write_csv(csv_path, kinematics.ANALYSIS_COLUMNS, [    # lengths.names are PAIR_NAMES
        trial.times, *lengths.values.T, pose.inner_radius, pose.outer_radius,
        *pose.euler_zyz.T, *v_local.T, trial.stimulus.astype(float),
        trial.valid_mask.astype(float),
    ])
    meta = ingest.sidecar_fields(trial) | {"filtered": not args.no_filter}
    del trial, lengths, pose, v_local   # the table read back below is the peak
    # the table as every reader parses the text, bit for bit: AnalysisTable.read loads it
    data = read_csv(csv_path, kinematics.ANALYSIS_COLUMNS)
    np.save(npy_path := run.output("analysis.npy"), data)
    write_json(run.output(sidecar_path("analysis.csv")), meta | {
        "csv_sha256": run.sha256(csv_path), "npy_sha256": run.sha256(npy_path)})
    print(f"kinematics: {len(data)} frames -> {csv_path}"
          + _tally(unfiltered, "valid runs left unfiltered"))


def _channels(table: AnalysisTable, lengths) -> tuple[dict[str, np.ndarray], str]:
    """The ``lengths`` columns standardized, constant ones left out, then
    the velocities as they are; and the summary-line count of those left out."""
    from . import kinematics
    channels: dict[str, np.ndarray] = {}
    left_out = Counter()
    for name in lengths:
        try:
            channels[name] = kinematics.standardize(table.column(name))
        except ZeroVariance as exc:
            left_out[type(exc).__name__] += 1
    for name in VELOCITY_CHANNELS:
        channels[name] = table.column(name)
    return channels, _tally(left_out, "constant channels left out")


def cmd_soc(args, run: Run) -> None:
    from . import criticality, svgplot
    table = AnalysisTable.read(run.table(args.input), run)
    fs = table.frame_rate

    lengths = _length_channels()
    channels, left_out = _channels(table, lengths + ("inner_radius", "outer_radius"))
    # checked before the loop: its MedusaError handlers would drop the error
    # and a NaN sample poisons every Welch segment that holds it
    require_finite(np.column_stack(list(channels.values())), "soc input")
    psd_rows, event_rows, fit_rows = [], [], []
    psd_curves: dict[str, np.ndarray] = {}
    freqs = None
    dropped = {"channels": Counter(), "fits": Counter()}    # per error class
    for name, series in channels.items():
        try:
            est = criticality.psd(series, fs)
        except MedusaError as exc:
            dropped["channels"][type(exc).__name__] += 1
            continue
        freqs = est.freqs
        psd_curves[name] = est.power
        psd_rows += [(name, float(f), float(p)) for f, p in zip(est.freqs, est.power)]
        events = criticality.extract_pulses(series, frame_rate=fs)
        event_rows += [(name, e.onset_s, e.duration_s, e.size) for e in events]
        for kind in ("psd", "duration", "size"):
            try:
                fit = (criticality.fit_power_law_psd(est) if kind == "psd"
                       else criticality.fit_power_law_events(events, kind))
            except MedusaError as exc:
                dropped["fits"][type(exc).__name__] += 1
                continue
            fit_rows.append((name, kind, fit.alpha, fit.intercept, *fit.fit_range,
                             fit.r2_loglog, fit.n_points))

    write_csv(run.output("psd.csv"), ["channel", "freq_hz", "power"], zip(*psd_rows))
    write_csv(run.output("events.csv"), ["channel", "onset_s", "duration_s", "size"],
              zip(*event_rows))
    write_csv(run.output("fits.csv"),
              ["channel", "kind", "alpha", "intercept", "lo", "hi", "r2_loglog", "n_points"],
              zip(*fit_rows))
    if freqs is not None:
        show = {k: v for k, v in psd_curves.items() if k in lengths}
        svgplot.line_plot(run.output("psd_loglog.svg"), freqs, show or psd_curves,
                          title="power spectral density", xlabel="frequency [Hz]",
                          ylabel="power", log_x=True, log_y=True)
    print(f"soc: {len(psd_curves)} channels, {len(event_rows)} events, "
          f"{len(fit_rows)} fits -> {run.out}{left_out}"
          + "".join(_tally(counts, f"{what} dropped") for what, counts in dropped.items()))


def cmd_phase(args, run: Run) -> None:
    from . import response, svgplot
    from .kinematics import ANALYSIS_COLUMNS
    pick = args.ribbon_channel
    lengths = _length_channels()
    written = lengths + VELOCITY_CHANNELS    # as `_channels` gives them, constant ones aside
    if pick not in written:
        raise ValidationError(f"--ribbon-channel: {pick!r} is not one of {', '.join(written)}")
    table = AnalysisTable.read(run.table(args.input), run)
    fs = table.frame_rate
    onsets = table.stim_onsets()
    if onsets.size < 2:
        raise ValidationError("trial has fewer than 2 stimulus onsets; nothing to segment")
    # the cycles are resampled from these rows: one NaN would turn phase points NaN
    span = slice(onsets[0], onsets[-1] + 1)
    require_finite(table.data[span, [ANALYSIS_COLUMNS.index(c) for c in written]],
                   "phase span", first_row=span.start)
    onsets = onsets / fs

    rows = []
    ribbons = {}
    channels, left_out = _channels(table, lengths)
    for name, series in channels.items():
        pr = response.phase_response(series, onsets, fs)
        ribbons[name] = pr
        rows += [
            (name, float(ph), float(m), float(s), pr.n_segments)
            for ph, m, s in zip(pr.phase, pr.mean, pr.sd)
        ]

    write_csv(run.output("phase.csv"), ["channel", "phase", "mean", "sd", "n_segments"],
              zip(*rows))
    first = next(iter(ribbons.values()))
    svgplot.line_plot(run.output("phase_means.svg"), first.phase,
                      {name: pr.mean for name, pr in ribbons.items()},
                      title=f"phase response (period {first.period_s:.2f} s)",
                      xlabel="phase", ylabel="mean response")
    if pick in ribbons:     # a constant length has no ribbon
        pr = ribbons[pick]
        svgplot.ribbon_plot(run.output(f"phase_ribbon_{pick}.svg"), pr.phase, pr.mean, pr.sd,
                            title=f"{pick} phase response", xlabel="phase", ylabel=pick)
    print(f"phase: {len(ribbons)} channels over {first.n_segments} segments -> {run.out}{left_out}")


def _esp_trial(path: Path, run: Run) -> tuple[dict, np.ndarray]:
    """A trial's sidecar fields and its lengths then velocities; the table is let go."""
    table = AnalysisTable.read(path, run)
    return table.meta, table.columns(_length_channels() + VELOCITY_CHANNELS)


def _esp_channel_sets(columns, n) -> dict[str, list[np.ndarray]]:
    """Per channel set, each trial's first ``n`` rows standardized."""
    from . import kinematics
    k = len(_length_channels())
    channel_sets = {"lengths": [kinematics.standardize(c[:n, :k]) for c in columns]}
    for i, axis in enumerate(VELOCITY_CHANNELS, k):
        channel_sets[axis] = [kinematics.standardize(c[:n, i]) for c in columns]
    return channel_sets


def _esp_one_condition(run: Run, paths, params):
    from . import esp as esp_mod
    metas, columns = zip(*(_esp_trial(path, run) for path in paths))
    conditions = {meta["condition"] for meta in metas}
    if len(conditions) > 1:
        raise ValidationError(f"trials mix conditions: {sorted(conditions)}")
    fs = metas[0]["frame_rate"]
    period = metas[0]["period_s"]
    for path, meta in zip(paths[1:], metas[1:]):
        _require_rate(path, meta["frame_rate"], fs, f"{paths[0]} is at")
        # the index compares responses to one input; period_s is null if unstimulated
        other = meta["period_s"]
        if other != period and not (other and period and math.isclose(other, period)):
            raise ValidationError(f"{path} has period_s {json.dumps(other)} but {paths[0]} has "
                                  f"period_s {json.dumps(period)}: esp compares trials of one "
                                  "stimulus")
    n = min(c.shape[0] for c in columns)
    # a NaN row in the window would turn every index of its set NaN
    rows = esp_mod.evaluation_rows(n, params, fs)
    for path, c in zip(paths, columns):
        require_finite(c[rows], f"esp window of {path}", first_row=rows.start)
    results = {
        name: esp_mod.esp_index(trials, params, fs)
        for name, trials in _esp_channel_sets(columns, n).items()
    }
    return conditions.pop(), results


def cmd_esp(args, run: Run) -> None:
    from . import esp as esp_mod, response, svgplot
    with _flag_errors(args):
        params = esp_mod.EspParams(transient_s=args.transient, horizon_s=args.horizon)
    labeled = ["=" in item for item in args.inputs]
    if any(labeled) and not all(labeled):
        raise ValidationError("mix of plain paths and label=paths inputs")
    # plain inputs are one group, labelled by the trials' condition
    groups = (_labeled_inputs(run, args.inputs) if all(labeled)
              else {None: [run.table(p) for p in args.inputs]})
    for label, paths in groups.items():
        if len(paths) < 2:
            raise ValidationError("esp needs at least two trial analyses" if label is None
                                  else f"group {label!r} needs at least two trials")

    per_label = {}
    for label, paths in groups.items():
        condition, results = _esp_one_condition(run, paths, params)
        per_label[condition if label is None else label] = results
    flat = [(label, name, r) for label, results in per_label.items()
            for name, r in results.items()]
    rows = [(label, name, "pooled", r.n_comparisons, r.value) for label, name, r in flat]
    # compare per-pair distances across groups, per channel set
    labels = list(per_label)
    stats_rows = []
    for channel_set in per_label[labels[0]]:
        samples = [per_label[g][channel_set].pair_deltas for g in labels]
        if len(labels) > 1 and all(s.size >= 2 for s in samples):
            f_stat, p_val = response.one_way_anova(samples)
            stats_rows.append(("anova", channel_set, "|".join(labels), f_stat, p_val, ""))
            for row in response.pairwise_tests(samples, seed=0):
                i, j = row.pair
                stats_rows.append((
                    "welch+tukey-perm", channel_set, f"{labels[i]}:{labels[j]}",
                    row.t_statistic, row.p_welch, row.p_adjusted,
                ))

    write_csv(run.output("esp.csv"), ["condition", "channel_set", "reference", "P", "index"],
              zip(*rows))
    if stats_rows:
        write_csv(run.output("stats.csv"),
                  ["test", "channel_set", "groups", "statistic", "p", "p_adjusted"],
                  zip(*stats_rows))
    svgplot.bar_chart(
        run.output("esp_bars.svg"),
        [f"{label}:{name}" for label, name, _ in flat],
        [r.value for *_, r in flat],
        errors=[r.pair_deltas.std() for *_, r in flat],
        title="response consistency index",
        ylabel="index",
    )
    print("esp: " + ", ".join(f"{label}/{name}={r.value:.3f}" for label, name, r in flat))


def _flag_items(args, dest: str, allowed=None) -> tuple[str, ...]:
    """The comma-separated items of ``--dest``; exit 2 naming the flag when
    it lists none, or an item not in ``allowed``."""
    flag, value = "--" + dest, getattr(args, dest)
    items = tuple(s.strip() for s in value.split(",") if s.strip())
    if not items:
        raise ValidationError(f"{flag} lists nothing, got {value!r}")
    for item in items:
        if allowed is not None and item not in allowed:
            raise ValidationError(f"{flag}: {item!r} is not one of {', '.join(allowed)}")
    return items


def _horizons(args, frame_rate: float) -> list[float]:
    """--horizons in seconds, each finite, at least 0 and a number of samples
    at ``frame_rate`` that no other one rounds to."""
    horizons, items = [], {}     # samples -> the item that rounds to them
    for item in _flag_items(args, "horizons"):
        try:
            h = float(item)
        except ValueError:
            h = math.nan
        if not 0 <= h < math.inf:
            raise ValidationError(f"--horizons: {item!r} is not a number of seconds >= 0")
        n = round(h * frame_rate)
        if n in items:
            raise ValidationError(f"--horizons: {items[n]!r} and {item!r} are both {n} "
                                  f"samples at {frame_rate:g} Hz")
        items[n] = item
        horizons.append(h)
    return horizons


def _targets_from_table(table: AnalysisTable, target_names, pulsatile: bool):
    """The targets named, rebuilt from their velocities (and, when
    ``pulsatile``, the pulse onsets and pose)."""
    from . import kinematics, reservoir as rc
    velocity_names = tuple(n for n in target_names if n in VELOCITY_CHANNELS)
    onsets = euler = None
    if pulsatile:
        onsets = table.stim_onsets()
        if onsets.size == 0:
            onsets = rc.detect_pulse_onsets(kinematics.standardize(table.column("vz")),
                                            table.frame_rate)
        euler = table.columns(["ea", "eb", "eg"])
    return rc.build_targets(table.columns(velocity_names), table.frame_rate,
                            onset_indices=onsets, euler=euler, pulsatile=pulsatile,
                            velocity_names=velocity_names)


def _config_from_args(args, n_sensors: int, frame_rate: float) -> rc.ReservoirConfig:
    from . import reservoir as rc
    with _flag_errors(args):
        config = rc.ReservoirConfig(
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
        config.n_lags   # checks that the span is a whole number of strides
    return config


def _washout_value(args, pulsatile: bool, n_rows: int) -> int:
    """--washout in samples, at least 0 and below ``n_rows``; 'auto' is the
    washout of the target kind."""
    try:
        washout = int(args.washout)
    except ValueError:
        if args.washout != "auto":
            raise ValidationError(
                f"--washout must be an integer or 'auto', got {args.washout!r}") from None
        from . import reservoir as rc
        washout = rc.PULSATILE_WASHOUT_SAMPLES if pulsatile else rc.AGGREGATE_WASHOUT_SAMPLES
    if not 0 <= washout < n_rows:
        shown = f"auto ({washout})" if args.washout == "auto" else washout
        raise ValidationError(f"--washout {shown} must be at least 0 and below the "
                              f"{n_rows} rows of the analysis")
    return washout


def _model_inputs(table: AnalysisTable, sensor_names, target_names, pulsatile: bool):
    """A model's standardized sensor columns and its targets, from ``table``."""
    from . import kinematics
    sensors = kinematics.standardize(table.columns(sensor_names))
    return sensors, _targets_from_table(table, target_names, pulsatile)


def cmd_train(args, run: Run) -> None:
    from . import reservoir as rc
    from .kinematics import ANALYSIS_COLUMNS
    sensor_names = _flag_items(args, "sensors", ANALYSIS_COLUMNS)
    target_names = _flag_items(args, "targets", VELOCITY_CHANNELS)
    table = AnalysisTable.read(run.table(args.input), run)
    fs = table.frame_rate
    horizons = _horizons(args, fs)
    sensors, targets = _model_inputs(table, sensor_names, target_names, args.pulsatile)
    config = _config_from_args(args, len(sensor_names), fs)
    washout = _washout_value(args, args.pulsatile, table.data.shape[0])
    del table   # the readout reads the sensors and targets only

    # the stream steps the reservoir on every read: neither the fit nor the
    # scores hold the states, the feature matrix or a horizon's predictions
    mux_scale = rc.shared_mux_scale([sensors], config.mux_horizon_s, config.mux_stride, fs)
    features = rc.reservoir_features(sensors, config, mux_scale)
    model = rc.train_horizons(
        features, targets.values, horizons, washout, fs,
        architecture=config.architecture, target_names=targets.names,
    )
    scores = rc.evaluate_horizons(model, features, targets.values)

    np.savez(
        run.output("model.npz"),
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
    write_csv(run.output("train_scores.csv"), ["horizon_s", "r2_insample"],
              [model.horizons_s, [scores[h] for h in model.horizons_s]])
    print("train: in-sample R2 " + ", ".join(f"{h:g}s={scores[h]:.3f}"
                                             for h in model.horizons_s))


def _load_model(path: Path):
    """A model.npz from `cmd_train` as (config, readout, extras); exit 2
    naming ``path`` and the array or config field that makes it not one."""
    from . import reservoir as rc
    try:    # a .npy file loads as one array, which no `with` takes: TypeError
        with np.load(path, allow_pickle=False) as npz:
            data = dict(npz)
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path} is not an npz file: {exc}") from None
    for name in ("config", "weights", "horizons_s", "washout", "target_names", "mux_scale",
                 "sensor_names", "pulsatile"):
        if name not in data:
            raise ValidationError(f"{path} is not a model from train: it has no {name!r} array")
    cfg_dict = json.loads(str(data["config"]))
    cfg_dict.pop("__class__", None)
    for name in sorted(cfg_dict.keys() ^ {f.name for f in fields(rc.ReservoirConfig)}):
        state = "is not one this version takes" if name in cfg_dict else "is missing"
        raise ValidationError(f"{path}: its config field {name!r} {state}; retrain the model")
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


def _predict_inputs(path: Path, run: Run, config: rc.ReservoirConfig, model: rc.Readout,
                    extras):
    """The times, sensors and targets ``model`` predicts from; the table
    they come from is let go on return."""
    table = AnalysisTable.read(path, run)
    rows = table.data.shape[0]
    h_s, h = max(zip(model.horizons_s, model.horizon_samples), key=lambda hs: hs[1])
    if rows <= model.washout + h + 1:     # r2 scores at least 2 rows per horizon
        raise ValidationError(f"{path} has {rows} rows, but the model's washout of "
                              f"{model.washout} and its {h_s:g} s horizon ({h} samples) "
                              f"need more than {model.washout + h + 1}")
    sensors, targets = _model_inputs(table, extras["sensor_names"], model.target_names,
                                     extras["pulsatile"])
    if tuple(targets.names) != tuple(model.target_names):
        raise ValidationError(
            f"rebuilt targets {targets.names} do not match the model's "
            f"{model.target_names}"
        )
    _require_rate(path, table.frame_rate, config.frame_rate, "the model was trained at")
    return table.t.copy(), sensors, targets


def cmd_predict(args, run: Run) -> None:
    from . import reservoir as rc, svgplot
    config, model, extras = _load_model(run.input(args.model))
    t, sensors, targets = _predict_inputs(run.table(args.input), run, config, model, extras)
    # the reservoir states are the peak: only the predictions outlive them
    predictions = rc.predict_horizons(
        model, rc.reservoir_features(sensors, config, extras["mux_scale"]))

    # t and each actual series repeat in every block: format them once
    t_cells = float_cells(t)
    actual_cells = [float_cells(series) for series in targets.values.T]
    shifts = dict(zip(model.horizons_s, model.horizon_samples))
    blocks = []     # per (horizon, target): its rows of predictions.csv
    score_rows = []
    heat = np.full((len(targets.names), len(model.horizons_s)), np.nan)
    for col, (h_s, pred) in enumerate(sorted(predictions.items())):
        h = shifts[h_s]
        stop = pred.shape[0] - h
        kept = slice(model.washout, stop, args.stride_out)   # input rows written
        for row, name in enumerate(targets.names):
            actual = targets.values[model.washout + h:, row]
            est = pred[model.washout:stop, row]
            blocks.append((t_cells[kept], name, h_s, pred[kept, row],
                           actual_cells[row][h:][kept]))
            score = rc.r2(est, actual)
            heat[row, col] = score
            score_rows.append((name, h_s, score))

    write_csv(run.output("predictions.csv"), ["t", "target", "horizon_s", "predicted", "actual"],
              *blocks)
    write_csv(run.output("scores.csv"), ["target", "horizon_s", "r2"], zip(*score_rows))
    svgplot.heatmap(run.output("r2_heatmap.svg"), heat, targets.names,
                    [f"{h:g}s" for h in sorted(predictions)], title="R2 by target and horizon")
    mean_r2 = float(np.nanmean(heat))
    print(f"predict: mean R2 {mean_r2:.3f} over {heat.size} target/horizon cells")


def cmd_confusion(args, run: Run) -> None:
    from . import reservoir as rc, svgplot
    from .kinematics import ANALYSIS_COLUMNS
    target_names = _flag_items(args, "targets", VELOCITY_CHANNELS)
    sensor_names = _flag_items(args, "sensors", ANALYSIS_COLUMNS)
    labeled = _labeled_inputs(run, args.inputs)
    if len(labeled) < 2 or any(len(paths) != 1 for paths in labeled.values()):
        raise ValidationError("confusion takes two or more label=analysis.csv datasets, "
                              "one analysis per label")

    sensors, targets = {}, {}
    fs = None
    for label, (path,) in labeled.items():
        table = AnalysisTable.read(path, run)
        if fs is None:
            first, fs = path, table.frame_rate
        _require_rate(path, table.frame_rate, fs, f"{first} is at")
        sensors[label], targets[label] = _model_inputs(table, sensor_names, target_names,
                                                       pulsatile=False)

    config = _config_from_args(args, len(sensor_names), fs)
    # cross-family sets are single trials; 'auto' takes the short washout
    washout = _washout_value(args, True, min(len(s) for s in sensors.values()))
    scale = rc.shared_mux_scale(list(sensors.values()), config.mux_horizon_s,
                                config.mux_stride, fs)
    datasets = {label: (rc.reservoir_features(s, config, mux_scale=scale), targets[label].values)
                for label, s in sensors.items()}
    result = rc.cross_predict(datasets, washout)

    header = ["train\\eval"] + result.names
    write_csv(run.output("confusion.csv"), header,
              [result.names, *result.matrix.astype(float).T])
    svgplot.heatmap(run.output("confusion_heatmap.svg"), result.matrix, result.names,
                    result.names, title="cross-training R2 (rows: trained on)")
    print(f"confusion: {len(result.names)}x{len(result.names)} matrix -> {run.out}")


def cmd_search_sensors(args, run: Run) -> None:
    from . import kinematics, sensorsearch
    table = AnalysisTable.read(run.table(args.input), run)
    data = kinematics.standardize(table.columns(sensorsearch.POOL_NAMES))
    names = VELOCITY_CHANNELS + ("stim",)
    # the task columns are copied out, so that the search runs without the table
    tasks = dict(zip(names, table.columns(names).T))
    del table
    if not tasks["stim"].std() > 0:     # no stimulus task on an unstimulated trial
        del tasks["stim"]

    report = sensorsearch.search_best(
        data, tasks, sensorsearch.POOL_NAMES, washout=_washout_value(args, True, len(data)),
        k_max=args.kmax)
    write_csv(run.output("search_best.csv"), ["task", "best_subset", "r2"],
              zip(*[(t, "+".join(r.subset), r.r2) for t, r in report.best.items()]))
    write_csv(run.output("search_tally.csv"), ["sensor", "tally"],
              [report.pool_names, [report.tally[name] for name in report.pool_names]])
    summary = {
        "n_subsets": report.n_subsets,
        "n_tasks": report.n_tasks,
        "top_sensors": sensorsearch.top_sensors(report, 4),
        "stats": report.stats,
    }
    write_json(run.output("search_summary.json"), summary)
    print(f"search-sensors: evaluated {report.n_subsets} subsets over "
          f"{report.n_tasks} tasks in {report.elapsed_s:.1f} s; "
          f"top: {', '.join(summary['top_sensors'])}")


def cmd_export_model(args, run: Run) -> None:
    from . import reservoir as rc
    config, model, _ = _load_model(run.input(args.model))
    try:
        readout = model if args.all_horizons else model.at(args.horizon)
    except UntrainedHorizon:
        raise ValidationError(f"--horizon {args.horizon:g} is not on the trained grid of "
                              f"{', '.join(f'{h:g}' for h in model.horizons_s)} s") from None
    blob = rc.export_compact(readout, config)
    blob_path = run.output("model.bin")
    blob_path.write_bytes(blob)
    evaluator = rc.CompactEvaluator(rc.load_compact(blob))
    print(f"export-model: {len(blob)} byte blob, "
          f"{evaluator.working_set_bytes} byte working set -> {blob_path}")


def cmd_report(args, run: Run) -> None:
    root = run.input(args.input)
    records = []
    for manifest_path in sorted(Path(root).rglob("manifest.json")):
        data = read_json(run.input(str(manifest_path)))
        records.append({
            "dir": str(manifest_path.parent),
            "command": data.get("command"),
            "config_hash": data.get("config_hash"),
            "elapsed_s": data.get("elapsed_s"),
            "outputs": data.get("outputs", []),
        })
    summary = {"root": str(root), "n_runs": len(records), "runs": records}
    p = run.output("report.json")
    write_json(p, summary)
    for r in records:
        print(f"{r['command']:>16}  {r['dir']}")
    print(f"report: {len(records)} runs -> {p}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_reservoir_flags(p: argparse.ArgumentParser) -> None:
    from . import reservoir as rc
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


def build_parser(parsed: str | None = None) -> argparse.ArgumentParser:
    """The parser; given ``parsed``, the command line's first word that is no flag, only
    that command gets its flags, so that no other command's module is imported."""
    parser = argparse.ArgumentParser(
        prog="medusa",
        description="Motion-capture analysis and reservoir-computing prediction pipeline",
    )
    parser.add_argument("--version", action="version", version=f"medusa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="directory for the results and manifest.json")

    def command(name, func, help):
        p = sub.add_parser(name, parents=[out], help=help)
        p.set_defaults(func=func)
        return p if parsed in (None, name) else None

    if p := command("synth", cmd_synth, "generate synthetic trials"):
        p.add_argument("--tau", type=float, default=None,
                       help="stimulus period [s]; omit for spontaneous")
        p.add_argument("--seconds", type=float, default=60.0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--noise-sd", type=float, default=0.05, help="marker noise SD [mm]")
        p.add_argument("--seed", type=int, default=0)

    if p := command("ingest", cmd_ingest, "rectify views and assemble a 3D trial"):
        p.add_argument("--input", required=True,
                       help="path prefix: expects <prefix>_top/behind/right.csv and <prefix>.json")
        p.add_argument("--max-gap", type=int, default=5,
                       help="longest gap to interpolate [frames]")

    if p := command("kinematics", cmd_kinematics, "lengths, body frame and local velocities"):
        p.add_argument("--input", required=True, help="trial CSV")
        p.add_argument("--no-filter", action="store_true", help="skip the 3 Hz low-pass")

    if p := command("soc", cmd_soc, "spectra, pulse statistics and power-law fits"):
        p.add_argument("--input", required=True, help="analysis CSV")

    if p := command("phase", cmd_phase, "stimulus-locked phase response"):
        p.add_argument("--input", required=True, help="analysis CSV")
        p.add_argument("--ribbon-channel", default="vz")

    if p := command("esp", cmd_esp, "response-consistency index over repeated trials"):
        p.add_argument("--inputs", nargs="+", required=True,
                       help="analysis CSVs of one condition, or label=a.csv,b.csv,... "
                            "groups to compare conditions (two or more add stats.csv)")
        p.add_argument("--transient", type=float, default=2.0)
        from . import esp as esp_mod
        p.add_argument("--horizon", type=float, default=esp_mod.DEFAULT_HORIZON_S)

    if p := command("train", cmd_train, "train horizon readouts on one trial"):
        p.add_argument("--input", required=True, help="analysis CSV")
        p.add_argument("--horizons", default=DEFAULT_HORIZONS)
        p.add_argument("--pulsatile", action="store_true",
                       help="add dead-reckoned pulse targets and use the short washout")
        _add_reservoir_flags(p)

    if p := command("predict", cmd_predict, "predict with a trained model"):
        p.add_argument("--model", required=True, help="model.npz from train")
        p.add_argument("--input", required=True, help="analysis CSV")
        p.add_argument("--stride-out", type=int, default=1,
                       help="write every k-th prediction row")

    if p := command("confusion", cmd_confusion, "cross-train/evaluate R2 matrix"):
        p.add_argument("--inputs", nargs="+", required=True, help="label=analysis.csv pairs")
        _add_reservoir_flags(p)

    if p := command("search-sensors", cmd_search_sensors, "exhaustive best-subset sensor search"):
        p.add_argument("--input", required=True, help="analysis CSV")
        from . import sensorsearch
        p.add_argument("--kmax", type=int, default=sensorsearch.DEFAULT_K_MAX)
        p.add_argument("--washout", type=int, default=1_000)

    if p := command("export-model", cmd_export_model, "write the compact inference blob"):
        p.add_argument("--model", required=True, help="model.npz from train")
        p.add_argument("--horizon", type=float, default=0.0)
        p.add_argument("--all-horizons", action="store_true",
                       help="stack every trained horizon into the blob outputs")

    if p := command("report", cmd_report, "summarize run manifests under a directory"):
        p.add_argument("--input", required=True, help="directory to scan")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    run = Run(args.out)
    started = time.perf_counter()
    try:
        _check_flags(args)
        args.func(args, run)
        run.out.mkdir(parents=True, exist_ok=True)
        write_manifest(run.out, args.command, vars(args), run.inputs, run.outputs,
                       run.sha256, seed=getattr(args, "seed", None),
                       elapsed_s=time.perf_counter() - started)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
