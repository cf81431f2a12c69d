"""Spans around calls into medusa's public functions, installed from outside.

The benchmark never edits the program.  `Tracer.install` replaces module
and class attributes (``medusa.ingest.read_view_csv``,
``medusa.cli.write_manifest``, ``medusa.cli.AnalysisTable.read`` ...) with
wrappers that record a span per call: name, start, end and parent.  Spans
stay in memory until `Tracer.dump`.  Per-layer metrics are then derived
from the spans and from counters computed on each call's arguments and
result.

A name bound elsewhere with ``from module import name`` keeps the original
function, so such aliases are listed as targets of their own
(``cli.write_manifest``).  A target that no longer exists (renamed or
merged away), or a counter whose argument or result field is gone, is not
an error: every metric that reads it is reported with a ``missing`` reason.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _esn_gflop(a, r):
    n, w = a["state"].input_weights.shape
    return 2.0 * n * (n + w) * len(r) / 1e9


def _gram_gflop_horizons(a, r):
    n, d = a["features"].shape
    rows = sum(n - round(float(h) * a["frame_rate"]) - a["washout"] for h in a["horizons_s"])
    return 2.0 * rows * (d + 1) ** 2 / 1e9


def _gram_gflop_readout(a, r):
    n, d = a["features"].shape
    return 2.0 * (n - a["washout"]) * (d + 1) ** 2 / 1e9


# target -> counters fed by each call: (metric, fn(bound_args, result)).
COUNTERS = {
    "ingest.read_view_csv": [("ingest.rows_read", lambda a, r: r.n_frames)],
    "ingest.read_trial_csv": [("ingest.rows_read", lambda a, r: r.n_frames)],
    "criticality.extract_pulses": [("criticality.events", lambda a, r: len(r))],
    "response.pairwise_tests": [("response.permutations", lambda a, r: a["n_permutations"])],
    "esp.esp_index": [("esp.pairs", lambda a, r: len(r.pair_deltas))],
    "reservoir.esn_run": [("reservoir.esn_steps", lambda a, r: len(r)),
                          ("reservoir.esn_gflop", _esn_gflop)],
    "reservoir.reservoir_features": [("reservoir.features_mb", lambda a, r: r.nbytes / 1e6)],
    "reservoir.train_horizons": [("reservoir.gram_gflop", _gram_gflop_horizons),
                                 ("reservoir.readout_solves", lambda a, r: len(a["horizons_s"]))],
    "reservoir.train_readout": [("reservoir.gram_gflop", _gram_gflop_readout),
                                ("reservoir.readout_solves", lambda a, r: 1)],
    "sensorsearch.search_best": [("sensorsearch.subsets", lambda a, r: r.n_subsets)],
    "reservoir.CompactEvaluator.__init__": [
        ("reservoir.working_set_kb", lambda a, r: a["self"].working_set_bytes / 1024)],
}
# Counters that report the largest value seen rather than the sum.
MAX_COUNTERS = {"reservoir.working_set_kb"}

# Time metrics: summed span durations of the listed targets.
TIME_METRICS = {
    "cli.analysis_read_s": ["cli.AnalysisTable.read"],
    "ingest.read_view_s": ["ingest.read_view_csv"],
    "ingest.assemble_s": ["ingest.rectify_view", "ingest.assemble_3d",
                          "ingest.align_stimulus", "ingest.interpolate_gaps"],
    "ingest.write_trial_s": ["ingest.write_trial_csv"],
    "ingest.read_trial_s": ["ingest.read_trial_csv"],
    "kinematics.lowpass_s": ["kinematics.lowpass_3hz"],
    "kinematics.lengths_s": ["kinematics.pairwise_lengths"],
    "kinematics.body_frame_s": ["kinematics.body_frame"],
    "kinematics.velocities_s": ["kinematics.local_velocities"],
    "kinematics.standardize_s": ["kinematics.standardize"],
    "criticality.psd_s": ["criticality.psd"],
    "criticality.pulses_s": ["criticality.extract_pulses"],
    "criticality.fit_s": ["criticality.fit_power_law_psd", "criticality.fit_power_law_events"],
    "response.phase_s": ["response.phase_response"],
    "response.anova_s": ["response.one_way_anova"],
    "response.pairwise_s": ["response.pairwise_tests"],
    "esp.index_s": ["esp.esp_index"],
    "reservoir.esn_run_s": ["reservoir.esn_run"],
    "reservoir.mux_s": ["reservoir.build_mux"],
    "reservoir.train_s": ["reservoir.train_horizons"],
    "reservoir.predict_s": ["reservoir.predict_horizons"],
    "reservoir.cross_predict_s": ["reservoir.cross_predict"],
    "reservoir.step_s": ["reservoir.CompactEvaluator.step"],
    "reservoir.export_s": ["reservoir.export_compact"],
    "sensorsearch.search_s": ["sensorsearch.search_best"],
    "synthgen.gen_s": ["synthgen.gen_jellyfish"],
    "svgplot.plot_s": ["svgplot.line_plot", "svgplot.ribbon_plot",
                       "svgplot.heatmap", "svgplot.bar_chart"],
    "manifest.write_s": ["cli.write_manifest", "manifest.write_manifest"],
}
# Call-count metrics: number of spans of the listed targets.
CALL_METRICS = {"reservoir.steps": ["reservoir.CompactEvaluator.step"]}

COUNT_UNITS = {
    "ingest.rows_read": "count", "criticality.events": "count",
    "response.permutations": "count", "esp.pairs": "count",
    "reservoir.esn_steps": "count", "reservoir.esn_gflop": "GFLOP",
    "reservoir.features_mb": "MB", "reservoir.gram_gflop": "GFLOP",
    "reservoir.readout_solves": "count", "sensorsearch.subsets": "count",
    "reservoir.working_set_kb": "KiB",
}


def all_targets():
    targets = {t for ts in TIME_METRICS.values() for t in ts}
    targets |= {t for ts in CALL_METRICS.values() for t in ts}
    return sorted(targets | set(COUNTERS))


def metric_units():
    """Unit of every span- or counter-derived layer metric, by name."""
    units = {m: "s" for m in TIME_METRICS}
    units.update({m: "count" for m in CALL_METRICS})
    units.update(COUNT_UNITS)
    units["sensorsearch.subsets_per_s"] = "1/s"
    return units


def _metric_targets():
    out = {m: list(ts) for m, ts in TIME_METRICS.items()}
    out.update({m: list(ts) for m, ts in CALL_METRICS.items()})
    for target, counters in COUNTERS.items():
        for metric, _ in counters:
            out.setdefault(metric, []).append(target)
    return out


class Tracer:
    """Records spans of wrapped calls; one per process, single-threaded."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]; index is the id
        self.counts = defaultdict(float)
        self.missing = {}        # target -> reason
        self._stack = []
        self._saved = []         # (owner, attr, original static attribute)

    # -- spans ---------------------------------------------------------
    def begin(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, counters):
        sig = inspect.signature(func) if counters else None
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(sid)
            if counters:
                tracer._count(name, counters, _bound(sig, args, kwargs), result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count(self, target, counters, bound, result):
        for metric, fn in counters:
            try:
                value = fn(bound, result)
            except (AttributeError, KeyError, TypeError) as exc:
                # a renamed argument or result field loses the counter, not the call
                self.missing[target] = f"counter {metric} failed ({exc.__class__.__name__}: {exc})"
                continue
            if metric in MAX_COUNTERS:
                self.counts[metric] = max(self.counts[metric], value)
            else:
                self.counts[metric] += value

    # -- installation --------------------------------------------------
    def install(self, targets=None):
        """Wrap each ``module.attr[.attr]`` target under ``medusa``."""
        for target in targets or all_targets():
            module_name, *attrs = target.split(".")
            try:
                owner = importlib.import_module(f"medusa.{module_name}")
                for attr in attrs[:-1]:
                    owner = getattr(owner, attr)
                static = inspect.getattr_static(owner, attrs[-1])
            except (ImportError, AttributeError) as exc:
                self.missing[target] = f"medusa.{target} not found ({exc.__class__.__name__})"
                continue
            counters = COUNTERS.get(target, [])
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(self._wrap(target, static.__func__, counters))
            elif callable(static):
                wrapped = self._wrap(target, static, counters)
            else:
                self.missing[target] = f"medusa.{target} is not callable"
                continue
            setattr(owner, attrs[-1], wrapped)
            self._saved.append((owner, attrs[-1], static))

    def uninstall(self):
        for owner, attr, static in reversed(self._saved):
            setattr(owner, attr, static)
        self._saved.clear()

    # -- derived metrics -----------------------------------------------
    def durations(self):
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return total, calls

    def self_times(self, prefix):
        """Self time of each span named ``prefix*``: duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, (name, start, end, _) in enumerate(self.spans):
            if name.startswith(prefix):
                out[name] = (end - start - child[sid], end - start, child[sid])
        return out

    def layer_metrics(self):
        """Every span- and counter-derived layer metric, with missing reasons."""
        total, calls = self.durations()
        metrics = {}
        for metric, targets in _metric_targets().items():
            if metric in TIME_METRICS:
                value, unit = sum(total[t] for t in targets), "s"
            elif metric in CALL_METRICS:
                value, unit = sum(calls[t] for t in targets), "count"
            else:
                value, unit = self.counts[metric], COUNT_UNITS[metric]
            entry = {"value": value, "unit": unit}
            gone = [self.missing[t] for t in targets if t in self.missing]
            if gone:
                entry["missing"] = "; ".join(gone)
            metrics[metric] = entry
        search = metrics["sensorsearch.search_s"]["value"]
        subsets = metrics["sensorsearch.subsets"]["value"]
        metrics["sensorsearch.subsets_per_s"] = {
            "value": subsets / search if search > 0 else 0.0, "unit": "1/s"}
        if "missing" in metrics["sensorsearch.search_s"]:
            metrics["sensorsearch.subsets_per_s"]["missing"] = metrics["sensorsearch.search_s"]["missing"]
        return metrics

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "missing": self.missing, **(extra or {})}, fh)
