import importlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from medusa import cli, ingest, kinematics
from medusa import reservoir as rc
from medusa.manifest import sha256_file
from medusa.table import write_csv
from test_ingest import make_views, random_projective, ring_positions, write_view_csv


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def synth_trial(tmp_path, name="raw", tau=2.0, seconds=45.0, seed=3, trials=1):
    out = tmp_path / name
    code = run("synth", "--tau", tau, "--seconds", seconds, "--seed", seed,
               "--trials", trials, "--out", out)
    assert code == 0
    return out


def analysis_for(tmp_path, trial_csv, name="kin"):
    out = tmp_path / name
    assert run("kinematics", "--input", trial_csv, "--out", out) == 0
    return out / "analysis.csv"


def test_full_pipeline_smoke(tmp_path):
    raw = synth_trial(tmp_path, seconds=60.0)
    analysis = analysis_for(tmp_path, raw / "trial.csv")
    assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 0
    assert run("phase", "--input", analysis, "--out", tmp_path / "phase") == 0
    assert (tmp_path / "soc" / "psd.csv").exists()
    assert (tmp_path / "soc" / "psd_loglog.svg").exists()
    assert (tmp_path / "phase" / "phase.csv").exists()


def test_esp_command(tmp_path):
    raw = synth_trial(tmp_path, name="trials", seconds=35.0, trials=3, seed=9)
    analyses = []
    for i in range(3):
        analyses.append(analysis_for(tmp_path, raw / f"trial_{i:03d}.csv", name=f"kin{i}"))
    assert run("esp", "--inputs", *analyses, "--horizon", 30.0,
               "--out", tmp_path / "esp") == 0
    rows = (tmp_path / "esp" / "esp.csv").read_text().strip().splitlines()
    assert rows[0] == "condition,channel_set,reference,P,index"
    assert len(rows) == 5  # lengths + three velocity axes


def test_esp_grouped_conditions_emit_stats(tmp_path):
    groups = {}
    for label, (tau, seed) in {"t15": (1.5, 20), "t20": (2.0, 40)}.items():
        raw = synth_trial(tmp_path, name=f"g{label}", tau=tau, seconds=35.0,
                          trials=3, seed=seed)
        paths = [
            analysis_for(tmp_path, raw / f"trial_{i:03d}.csv", name=f"g{label}k{i}")
            for i in range(3)
        ]
        groups[label] = ",".join(str(p) for p in paths)
    out = tmp_path / "espg"
    assert run("esp", "--inputs", f"t15={groups['t15']}", f"t20={groups['t20']}",
               "--horizon", 30.0, "--out", out) == 0
    stats = (out / "stats.csv").read_text().strip().splitlines()
    assert stats[0] == "test,channel_set,groups,statistic,p,p_adjusted"
    kinds = {line.split(",")[0] for line in stats[1:]}
    assert kinds == {"anova", "welch+tukey-perm"}
    esp_rows = (out / "esp.csv").read_text().strip().splitlines()
    assert len(esp_rows) == 1 + 2 * 4  # two groups x four channel sets


def test_esp_results_do_not_depend_on_the_trial_order_within_a_group(tmp_path):
    groups = {}
    for label, (tau, seed) in {"t15": (1.5, 11), "t20": (2.0, 21)}.items():
        raw = synth_trial(tmp_path, name=f"g{label}", tau=tau, seconds=40.0,
                          trials=3, seed=seed)
        groups[label] = [analysis_for(tmp_path, raw / f"trial_{i:03d}.csv", name=f"g{label}k{i}")
                         for i in range(3)]
    results = []
    for name, orders in {"given": ((0, 1, 2), (0, 1, 2)),
                         "permuted": ((2, 0, 1), (1, 2, 0))}.items():
        inputs = [f"{label}=" + ",".join(str(paths[i]) for i in order)
                  for (label, paths), order in zip(groups.items(), orders)]
        assert run("esp", "--inputs", *inputs, "--out", tmp_path / name) == 0
        results.append([(tmp_path / name / f).read_bytes() for f in ("esp.csv", "stats.csv")])
    assert results[0] == results[1]


def test_commands_do_not_mutate_inputs(tmp_path):
    raw = synth_trial(tmp_path, seconds=45.0, seed=8)
    trial_csv = raw / "trial.csv"
    before = trial_csv.read_bytes()
    analysis = analysis_for(tmp_path, trial_csv, name="imm")
    assert trial_csv.read_bytes() == before
    analysis_before = analysis.read_bytes()
    assert run("soc", "--input", analysis, "--out", tmp_path / "immsoc") == 0
    assert analysis.read_bytes() == analysis_before


def test_esp_too_short_is_runtime_error(tmp_path):
    raw = synth_trial(tmp_path, name="short", seconds=20.0, trials=2, seed=1)
    analyses = [
        analysis_for(tmp_path, raw / f"trial_{i:03d}.csv", name=f"skin{i}")
        for i in range(2)
    ]
    assert run("esp", "--inputs", *analyses, "--out", tmp_path / "esp2") == 1


def test_train_predict_export(tmp_path):
    raw = synth_trial(tmp_path, seconds=70.0)
    analysis = analysis_for(tmp_path, raw / "trial.csv")
    model_dir = tmp_path / "model"
    assert run("train", "--input", analysis, "--pulsatile",
               "--horizons", "0,0.5", "--out", model_dir) == 0
    assert (model_dir / "model.npz").exists()
    scores = (model_dir / "train_scores.csv").read_text().splitlines()
    assert scores[0] == "horizon_s,r2_insample"
    assert len(scores) == 3

    pred_dir = tmp_path / "pred"
    assert run("predict", "--model", model_dir / "model.npz", "--input", analysis,
               "--stride-out", 20, "--out", pred_dir) == 0
    assert (pred_dir / "predictions.csv").exists()
    assert (pred_dir / "r2_heatmap.svg").exists()

    export_dir = tmp_path / "export"
    assert run("export-model", "--model", model_dir / "model.npz",
               "--out", export_dir) == 0
    blob = (export_dir / "model.bin").read_bytes()
    assert blob[:4] == b"MDS1"

    stacked_dir = tmp_path / "export_all"
    assert run("export-model", "--model", model_dir / "model.npz",
               "--all-horizons", "--out", stacked_dir) == 0
    stacked = (stacked_dir / "model.bin").read_bytes()
    assert len(stacked) > len(blob)  # one output channel per (target, horizon)

    assert run("export-model", "--model", model_dir / "model.npz",
               "--horizon", 1.7, "--out", tmp_path / "export_bad") == 2


def _train_pulsatile(tmp_path, horizons="0,0.5,1"):
    analysis = analysis_for(tmp_path, synth_trial(tmp_path, seconds=60.0) / "trial.csv")
    model_dir = tmp_path / "model"
    assert run("train", "--input", analysis, "--pulsatile", "--horizons", horizons,
               "--out", model_dir) == 0
    return analysis, model_dir / "model.npz"


def test_saved_model_predicts_like_the_trained_readout(tmp_path, monkeypatch):
    trained = {}

    def capture(features, *args, train=rc.train_horizons, **kwargs):
        trained["features"] = features
        trained["model"] = train(features, *args, **kwargs)
        return trained["model"]

    monkeypatch.setattr(rc, "train_horizons", capture)
    _, model_path = _train_pulsatile(tmp_path)
    _, loaded, _ = cli._load_model(model_path)
    model, features = trained["model"], trained["features"]
    # train fits from a stream of feature blocks, which predict reads too
    assert isinstance(features, rc.FeatureStream)
    assert loaded.horizons_s == model.horizons_s == (0.0, 0.5, 1.0)
    assert loaded.horizon_samples == model.horizon_samples == (0, 30, 60)
    assert (loaded.washout, loaded.target_names) == (model.washout, model.target_names)
    assert np.array_equal(loaded.predict(features), model.predict(features))


def test_all_horizons_blob_steps_like_readout_predict(tmp_path):
    analysis, model_path = _train_pulsatile(tmp_path)
    assert run("export-model", "--model", model_path, "--all-horizons",
               "--out", tmp_path / "export") == 0
    config, model, extras = cli._load_model(model_path)
    sensors = kinematics.standardize(
        cli.AnalysisTable.read(analysis, cli.Run(tmp_path)).columns(extras["sensor_names"]))
    mux = rc.build_mux(sensors, config.mux_horizon_s, config.mux_stride,
                       config.frame_rate, scale=extras["mux_scale"])
    n = 1000
    ref = model.predict(rc.reservoir_features(sensors, config, extras["mux_scale"]).matrix()[:n])
    blob = (tmp_path / "export" / "model.bin").read_bytes()
    out = rc.CompactEvaluator(rc.load_compact(blob)).run(mux.values[:n].astype(np.float32))
    assert out.shape == ref.shape == (n, 3 * len(model.target_names))
    # c10's rule per output column: within 1e-4 of the largest float64 output
    assert (np.abs(out - ref).max(axis=0) <= 1e-4 * np.abs(ref).max()).all()


def test_predict_rejects_an_analysis_at_another_frame_rate(tmp_path, capsys):
    analysis, model_path = _train_pulsatile(tmp_path, horizons="0,2")
    meta = json.loads(analysis.with_suffix(".json").read_text())
    assert meta["frame_rate"] == 60.0
    other = tmp_path / "at50"
    other.mkdir()
    (other / "analysis.csv").write_bytes(analysis.read_bytes())
    (other / "analysis.json").write_text(json.dumps(meta | {"frame_rate": 50.0}))
    capsys.readouterr()
    assert run("predict", "--model", model_path, "--input", other / "analysis.csv",
               "--out", tmp_path / "pred") == 2
    assert "is at 50 Hz but the model was trained at 60 Hz" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


@pytest.fixture(scope="module")
def two_horizon_model(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("two_horizon")
    return _train_pulsatile(tmp_path, horizons="0,0.5")


def _whole_column_predictions(path, model_path, analysis, stride_out):
    """Write predictions.csv as predict did before it streamed blocks: five
    concatenated columns through one write_csv call.  Returns the block
    lengths before striding."""
    config, model, extras = cli._load_model(model_path)
    table = cli.AnalysisTable.read(analysis, cli.Run(path.parent))
    sensors = kinematics.standardize(table.columns(extras["sensor_names"]))
    targets = cli._targets_from_table(table, model.target_names, extras["pulsatile"])
    features = rc.reservoir_features(sensors, config, mux_scale=extras["mux_scale"]).matrix()
    predictions = rc.predict_horizons(model, features)
    shifts = dict(zip(model.horizons_s, model.horizon_samples))
    parts, lengths = [], []
    for h_s in sorted(predictions):
        pred = np.atleast_2d(predictions[h_s].T).T
        h = shifts[h_s]
        for row, name in enumerate(targets.names):
            actual = targets.values[model.washout + h:, row]
            est = pred[model.washout:pred.shape[0] - h, row]
            kept = slice(0, est.shape[0], stride_out)
            predicted = est[kept]
            parts.append((table.t[model.washout:][kept], np.full(predicted.size, name, dtype=object),
                          np.full(predicted.size, h_s), predicted, actual[kept]))
            lengths.append(est.shape[0])
    write_csv(path, ["t", "target", "horizon_s", "predicted", "actual"],
              [np.concatenate(column) for column in zip(*parts)])
    return lengths


@pytest.mark.parametrize("stride_out", [1, 7])
def test_streamed_predictions_match_the_whole_column_writer(tmp_path, two_horizon_model,
                                                            stride_out):
    analysis, model_path = two_horizon_model
    assert run("predict", "--model", model_path, "--input", analysis,
               "--stride-out", stride_out, "--out", tmp_path / "pred") == 0
    lengths = _whole_column_predictions(tmp_path / "reference.csv", model_path, analysis,
                                        stride_out)
    assert len(lengths) == 2 * 9 and len(set(lengths)) == 2
    assert stride_out == 1 or all(n % stride_out for n in lengths)
    assert ((tmp_path / "pred" / "predictions.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def _bad_model(tmp_path, analysis, model_path, case):
    """A --model path that is not a model.npz from train, and what its error says."""
    if case == "not an npz":
        return analysis, "is not an npz file"
    with np.load(model_path) as data:
        arrays = dict(data)
    if case == "no config":
        del arrays["config"]
        message = "has no 'config' array"
    elif case == "missing field":   # its default would stand in for the trained seed
        config = json.loads(str(arrays["config"]))
        del config["seed"]
        arrays["config"] = json.dumps(config)
        message = "config field 'seed' is missing; retrain"
    else:   # as train wrote it while ReservoirConfig had an input_scale
        arrays["config"] = json.dumps(json.loads(str(arrays["config"])) | {"input_scale": 1.0})
        message = "config field 'input_scale' is not one this version takes; retrain"
    path = tmp_path / "bad" / "model.npz"
    path.parent.mkdir()
    np.savez(path, **arrays)
    return path, message


@pytest.mark.parametrize("command", ["predict", "export-model"])
@pytest.mark.parametrize("case", ["not an npz", "no config", "old config", "missing field"])
def test_a_file_that_is_not_a_model_exits_2_naming_it(tmp_path, capsys, two_horizon_model,
                                                     command, case):
    analysis, model_path = two_horizon_model
    path, message = _bad_model(tmp_path, analysis, model_path, case)
    inputs = ["--input", analysis] if command == "predict" else []
    capsys.readouterr()
    assert run(command, "--model", path, *inputs, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"error: {path}" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stride_out", [0, -3])
def test_predict_rejects_a_stride_out_below_one(tmp_path, capsys, two_horizon_model, stride_out):
    analysis, model_path = two_horizon_model
    capsys.readouterr()
    assert run("predict", "--model", model_path, "--input", analysis,
               "--stride-out", stride_out, "--out", tmp_path / "pred") == 2
    assert "--stride-out" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("extra, code", [(0, 2), (1, 0)])
def test_predict_needs_two_rows_past_the_washout_and_horizon(tmp_path, capsys,
                                                             two_horizon_model, extra, code):
    analysis, model_path = two_horizon_model
    _, model, _ = cli._load_model(model_path)
    need = model.washout + max(model.horizon_samples) + 1    # 1 000 + 30 + 1
    short = tmp_path / "short" / "analysis.csv"
    short.parent.mkdir()
    lines = analysis.read_bytes().split(b"\r\n")
    short.write_bytes(b"\r\n".join(lines[:1 + need + extra]) + b"\r\n")
    short.with_suffix(".json").write_bytes(analysis.with_suffix(".json").read_bytes())
    capsys.readouterr()
    assert run("predict", "--model", model_path, "--input", short, "--out", tmp_path / "pred") == code
    if code == 2:
        err = capsys.readouterr().err
        assert f"{short} has {need} rows" in err
        assert "washout of 1000 and its 0.5 s horizon (30 samples) need more than 1031" in err
        assert not (tmp_path / "pred").exists()


def _out_of_range(d, flag):
    """argv that sets ``flag`` out of its range, and what the error must say."""
    a = d / "kin" / "analysis.csv"
    b0, b1 = (d / f"b{i}" / "analysis.csv" for i in range(2))
    train = ["train", "--input", a, "--pulsatile", "--horizons", "0"]
    return {
        "--kmax": (["search-sensors", "--input", a, "--kmax", 0], "--kmax must be at least 1"),
        "--max-gap": (["ingest", "--input", d / "jf", "--max-gap", -1],
                      "--max-gap must be at least 0, got -1"),
        "--transient": (["esp", "--inputs", b0, b1, "--transient", 5, "--horizon", 3],
                        "--transient 5.0, --horizon 3.0: "),
        "--rho": (train + ["--rho", 1.5], "--rho 1.5: "),
        "--leak": (train + ["--leak", 1.0], "--leak 1.0: "),
        "--stride": (train + ["--stride", 0], "--stride 0: "),
        "--mux": (train + ["--mux", 0.05], "--mux 0.05, --stride 6: "),
        "--nodes": (train + ["--nodes", 0], "--nodes 0: "),
        "--washout": (train + ["--washout", "abc"], "--washout must be an integer or 'auto'"),
        # --tau is omitted or longer than the 0.1 s burst
        "--tau 0": (["synth", "--tau", 0], "--tau 0.0: period 0.0 s must exceed the 0.1 s burst"),
        "--tau 0.05": (["synth", "--tau", 0.05], "--tau 0.05: period 0.05 s must exceed"),
        "--tau -1": (["synth", "--tau", -1], "--tau -1.0: period -1.0 s must exceed"),
        "--noise-sd -1": (["synth", "--noise-sd", -1], "--noise-sd must be at least 0, got -1.0"),
        # every float flag is finite
        "--tau inf": (["synth", "--tau", "inf"], "--tau must be finite, got inf"),
        "--tau nan": (["synth", "--tau", "nan"], "--tau must be finite, got nan"),
        "--noise-sd nan": (["synth", "--noise-sd", "nan"], "--noise-sd must be finite, got nan"),
        "--seconds inf": (["synth", "--seconds", "inf"], "--seconds must be finite, got inf"),
        "--mux inf": (train + ["--mux", "inf"], "--mux must be finite, got inf"),
        "--mux nan": (train + ["--mux", "nan"], "--mux must be finite, got nan"),
    }[flag]


@pytest.mark.parametrize("flag", ["--kmax", "--max-gap", "--transient", "--rho",
                                  "--leak", "--stride", "--mux", "--nodes", "--washout",
                                  "--tau 0", "--tau 0.05", "--tau -1", "--noise-sd -1",
                                  "--tau inf", "--tau nan", "--noise-sd nan", "--seconds inf",
                                  "--mux inf", "--mux nan"])
def test_search_sensors_rejects_a_bound_below_one(tmp_path, capsys, inventory_dir, flag):
    argv, message = _out_of_range(inventory_dir, flag)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "search") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "search").exists()


@pytest.mark.parametrize("case", ["confusion", "confusion_swapped", "esp", "esp_grouped"])
def test_inputs_at_two_frame_rates_exit_2_naming_them(tmp_path, capsys, inventory_dir, case):
    a = [inventory_dir / f"a{i}" / "analysis.csv" for i in range(3)]
    b = [inventory_dir / f"b{i}" / "analysis.csv" for i in range(3)]
    at50 = tmp_path / "at50" / "analysis.csv"
    at50.parent.mkdir()
    at50.write_bytes(a[2].read_bytes())
    meta = json.loads(a[2].with_suffix(".json").read_text())
    at50.with_suffix(".json").write_text(json.dumps(meta | {"frame_rate": 50.0}))
    inputs = {
        "confusion": ["confusion", "--inputs", f"a={a[0]}", f"b={at50}"],
        "confusion_swapped": ["confusion", "--inputs", f"b={at50}", f"a={a[0]}"],
        "esp": ["esp", "--inputs", a[0], a[1], at50],
        "esp_grouped": ["esp", "--inputs", f"a={a[0]},{a[1]},{at50}",
                        "b=" + ",".join(map(str, b))],
    }[case]
    capsys.readouterr()
    assert run(*inputs, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert str(at50) in err and str(a[0]) in err
    assert "50 Hz" in err and "60 Hz" in err
    assert not (tmp_path / "out").exists()


def _bad_argument(d, case):
    """argv with one bad argument, and the strings the error must hold."""
    a, a0, b0 = (d / name / "analysis.csv" for name in ("kin", "a0", "b0"))
    train = ["train", "--input", a, "--pulsatile", "--horizons", "0"]
    return {
        # the 70 s analysis has 4200 rows, the 35 s ones 2100
        "train_washout_negative": (train + ["--washout", -5], ["--washout -5", "4200 rows"]),
        "train_washout_long": (train + ["--washout", 999999], ["--washout 999999", "4200 rows"]),
        "train_washout_auto": (["train", "--input", a0, "--horizons", "0"],
                               ["--washout auto (10000)", "2100 rows"]),
        "confusion_washout": (["confusion", "--inputs", f"x={a}", f"y={a0}", "--arch", "prc",
                               "--washout", -3], ["--washout -3", "2100 rows"]),
        "search_washout": (["search-sensors", "--input", a, "--kmax", 1, "--washout", -5],
                           ["--washout -5", "4200 rows"]),
        "search_washout_long": (["search-sensors", "--input", a, "--kmax", 1,
                                 "--washout", 999999], ["--washout 999999", "4200 rows"]),
        "horizons_word": (train[:-1] + ["abc"], ["--horizons", "'abc'"]),
        "horizons_negative": (train[:-1] + ["0,-1"], ["--horizons", "'-1'"]),
        "horizons_nan": (train[:-1] + ["nan"], ["--horizons", "'nan'"]),
        "sensors_empty": (train + ["--sensors", ","], ["--sensors lists nothing"]),
        "sensors_unknown": (train + ["--sensors", "inner_radius,foo"], ["--sensors", "'foo'"]),
        "targets_unknown": (train + ["--targets", "vx,foo"], ["--targets", "'foo'"]),
        "confusion_targets": (["confusion", "--inputs", f"x={a}", f"y={a0}",
                               "--targets", "vz,px"], ["--targets", "'px'"]),
        "synth_seconds": (["synth", "--seconds", 5], ["--seconds must be at least 10", "5.0"]),
        "synth_trials": (["synth", "--trials", 0], ["--trials must be at least 1, got 0"]),
        "esp_periods": (["esp", "--inputs", a0, b0],
                        [str(a0), str(b0), "period_s 1.5", "period_s 2.0"]),
        "esp_group_periods": (["esp", "--inputs", f"g={a0},{b0}", f"h={b0},{a0}"],
                              [str(a0), str(b0), "period_s 1.5", "period_s 2.0"]),
        # two horizons of one sample count would train one slab twice
        "horizons_repeated": (train[:-1] + ["0.5,0,0.5"],
                              ["--horizons", "'0.5' and '0.5' are both 30 samples at 60 Hz"]),
        "horizons_one_sample": (train[:-1] + ["0,0.001"],
                                ["--horizons", "'0' and '0.001' are both 0 samples"]),
        "export_horizon": (["export-model", "--model", d / "train" / "model.npz",
                            "--horizon", 0.3], ["--horizon 0.3", "grid of 0, 0.5 s"]),
        "ribbon_channel": (["phase", "--input", a, "--ribbon-channel", "nosuch"],
                           ["--ribbon-channel", "'nosuch'", "R1-Y1", "vz"]),
    }[case]


@pytest.mark.parametrize("case", [
    "train_washout_negative", "train_washout_long", "train_washout_auto", "confusion_washout",
    "search_washout", "search_washout_long", "horizons_word", "horizons_negative",
    "horizons_nan", "sensors_empty", "sensors_unknown", "targets_unknown", "confusion_targets",
    "synth_seconds", "synth_trials", "esp_periods", "esp_group_periods", "horizons_repeated",
    "horizons_one_sample", "export_horizon", "ribbon_channel"])
def test_a_bad_argument_exits_2_naming_it(tmp_path, capsys, inventory_dir, case):
    argv, messages = _bad_argument(inventory_dir, case)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert not (tmp_path / "out").exists()


def test_confusion_command(tmp_path):
    a = synth_trial(tmp_path, name="a", tau=2.0, seconds=45.0, seed=5)
    b = synth_trial(tmp_path, name="b", tau=1.5, seconds=45.0, seed=6)
    ka = analysis_for(tmp_path, a / "trial.csv", name="ka")
    kb = analysis_for(tmp_path, b / "trial.csv", name="kb")
    out = tmp_path / "conf"
    assert run("confusion", "--inputs", f"a={ka}", f"b={kb}", "--arch", "prc",
               "--targets", "vz", "--out", out) == 0
    rows = (out / "confusion.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert (out / "confusion_heatmap.svg").exists()


def test_search_sensors_full_pool_count(tmp_path, capsys):
    raw = synth_trial(tmp_path, seconds=60.0, seed=2)
    analysis = analysis_for(tmp_path, raw / "trial.csv")
    assert run("search-sensors", "--input", analysis, "--kmax", 5,
               "--out", tmp_path / "search") == 0
    text = capsys.readouterr().out
    assert "174436" in text
    summary = json.loads((tmp_path / "search" / "search_summary.json").read_text())
    assert summary["n_subsets"] == 174436
    assert len(summary["top_sensors"]) == 4


def test_search_sensors_reruns_give_identical_result_files(tmp_path, inventory_dir):
    analysis = inventory_dir / "kin" / "analysis.csv"
    for name in ("s1", "s2"):
        assert run("search-sensors", "--input", analysis, "--kmax", 2,
                   "--out", tmp_path / name) == 0
    names = sorted(p.name for p in (tmp_path / "s1").iterdir() if p.name != "manifest.json")
    assert "search_summary.json" in names
    for name in names:
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("soc", "--bogus-flag", "x", "--out", tmp_path / "o")
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        run("frobnicate")
    assert err.value.code == 2


def test_missing_input_exits_2(tmp_path):
    assert run("soc", "--input", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2
    assert not (tmp_path / "o").exists()


# sidecar frame rates that are not a finite positive number, as JSON text
BAD_RATES = {"nan": "NaN", "negative": "-60", "string": '"sixty"', "null": "null", "zero": "0",
             "overflow": "1e400"}
# other sidecar fields that fail their checks
BAD_FIELDS = {"condition": {"condition": "bogus"}, "period_string": {"period_s": "two"},
              "period_zero": {"period_s": 0}, "period_list": {"period_s": [2.0]},
              "stimulated_without_period": {"condition": "stimulated", "period_s": None}}


def _malformed_input(tmp_path, case):
    """Write one malformed input; return (argv, the file to be named)."""
    trial = ingest.TrialRecording("JF1", "spontaneous", ring_positions(30), np.zeros(30), 60.0)
    trial_csv = tmp_path / "trial.csv"
    ingest.write_trial_csv(trial, trial_csv)
    lines = trial_csv.read_bytes().decode().split("\r\n")
    kinematics_argv = ["kinematics", "--input", trial_csv]
    if case == "analysis_header_only":
        bad = tmp_path / "analysis.csv"
        bad.write_bytes((",".join(kinematics.ANALYSIS_COLUMNS) + "\r\n").encode())
        bad.with_suffix(".json").write_text(json.dumps({"frame_rate": 60.0}))
        return ["soc", "--input", bad], bad
    if case == "trial_ragged_row":
        lines[5] = lines[5].rsplit(",", 1)[0]
    elif case == "trial_header":
        lines[0] = lines[0].replace("R1_x", "R1_X")
    elif case == "trial_missing_sidecar":
        trial_csv.with_suffix(".json").unlink()
        return kinematics_argv, trial_csv.with_suffix(".json")
    elif case == "analysis_missing_sidecar":
        analysis = analysis_for(tmp_path, trial_csv)
        analysis.with_suffix(".json").unlink()
        argv = ["train", "--input", analysis, "--pulsatile", "--horizons", "0"]
        return argv, analysis.with_suffix(".json")
    elif case == "analysis_truncated_sidecar":
        bad = analysis_for(tmp_path, trial_csv).with_suffix(".json")
        bad.write_text(bad.read_text()[:20])
        return ["soc", "--input", bad.with_suffix(".csv")], bad
    elif case == "trial_truncated_sidecar":
        bad = trial_csv.with_suffix(".json")
        bad.write_text(bad.read_text()[:20])
        return kinematics_argv, bad
    elif case.startswith(("analysis_rate_", "trial_rate_")):
        on_analysis = case.startswith("analysis")
        csv = analysis_for(tmp_path, trial_csv) if on_analysis else trial_csv
        bad = csv.with_suffix(".json")
        rate = BAD_RATES[case.rsplit("_", 1)[1]]
        bad.write_text(bad.read_text().replace('"frame_rate": 60.0', f'"frame_rate": {rate}'))
        return (["soc", "--input", csv] if on_analysis else kinematics_argv), bad
    elif case.startswith(("analysis_field_", "trial_field_")):
        on_analysis = case.startswith("analysis")
        csv = analysis_for(tmp_path, trial_csv) if on_analysis else trial_csv
        bad = csv.with_suffix(".json")
        bad.write_text(json.dumps(json.loads(bad.read_text()) | BAD_FIELDS[case.split("_", 2)[2]]))
        return (["soc", "--input", csv] if on_analysis else kinematics_argv), bad
    elif case in ("view_header", "view_truncated_sidecar", "view_rate_string", "view_condition",
                  "view_frame_count"):
        prefix = tmp_path / "jf"
        for name, view in make_views(ring_positions(30)).items():
            write_view_csv(f"{prefix}_{name}.csv", view)
        (tmp_path / "jf.json").write_text(json.dumps({"condition": "spontaneous"}))
        if case == "view_rate_string":
            bad = tmp_path / "jf.json"
            bad.write_text(json.dumps({"condition": "spontaneous", "frame_rate": "sixty"}))
        elif case == "view_condition":
            bad = tmp_path / "jf.json"
            bad.write_text(json.dumps({"condition": "bogus"}))
        elif case == "view_truncated_sidecar":
            bad = tmp_path / "jf.json"
            bad.write_text(bad.read_text()[:-1])
        elif case == "view_frame_count":    # its last row deleted: 29 frames against 30
            bad = tmp_path / "jf_top.csv"
            bad.write_bytes(b"".join(bad.read_bytes().splitlines(keepends=True)[:-1]))
        else:
            bad = tmp_path / "jf_behind.csv"
            bad.write_bytes(bad.read_bytes().replace(b"led_on", b"led_1", 1))
        return ["ingest", "--input", prefix], bad
    trial_csv.write_bytes("\r\n".join(lines).encode())
    return kinematics_argv, trial_csv


@pytest.mark.parametrize("case", ["analysis_header_only", "analysis_missing_sidecar",
                                  "trial_ragged_row", "trial_header", "trial_missing_sidecar",
                                  "view_header", "analysis_truncated_sidecar",
                                  "trial_truncated_sidecar", "view_truncated_sidecar",
                                  *(f"analysis_rate_{r}" for r in BAD_RATES),
                                  "trial_rate_string", "trial_rate_negative", "view_rate_string",
                                  *(f"trial_field_{f}" for f in BAD_FIELDS),
                                  "analysis_field_condition", "analysis_field_period_string",
                                  "view_condition", "view_frame_count"])
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, case):
    argv, bad = _malformed_input(tmp_path, case)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reruns_are_bit_identical(tmp_path):
    out1 = synth_trial(tmp_path, name="r1", seed=11)
    out2 = synth_trial(tmp_path, name="r2", seed=11)
    assert (out1 / "trial.csv").read_bytes() == (out2 / "trial.csv").read_bytes()
    k1 = analysis_for(tmp_path, out1 / "trial.csv", name="k1")
    k2 = analysis_for(tmp_path, out2 / "trial.csv", name="k2")
    assert k1.read_bytes() == k2.read_bytes()


def test_manifest_written_once_with_stable_hash(tmp_path):
    out = synth_trial(tmp_path, name="m1", seed=4)
    manifest_1 = json.loads((out / "manifest.json").read_text())
    run("synth", "--tau", 2.0, "--seconds", 45.0, "--seed", 4, "--trials", 1,
        "--out", out)
    manifest_2 = json.loads((out / "manifest.json").read_text())
    assert manifest_1["config_hash"] == manifest_2["config_hash"]
    assert len(list(out.glob("manifest.json"))) == 1
    assert manifest_1["command"] == "synth"
    assert manifest_1["versions"]["medusa"]


@pytest.fixture(scope="module")
def inventory_dir(tmp_path_factory):
    """One input of each kind the commands read, under one directory."""
    d = tmp_path_factory.mktemp("inventory")
    synth_trial(d, seconds=70.0, seed=7)
    analysis_for(d, d / "raw" / "trial.csv")
    for label, tau, seed in (("a", 1.5, 20), ("b", 2.0, 40)):
        raw = synth_trial(d, name=f"raw_{label}", tau=tau, seconds=35.0, seed=seed, trials=3)
        for i in range(3):
            analysis_for(d, raw / f"trial_{i:03d}.csv", name=f"{label}{i}")
    for name, view in make_views(ring_positions(400)).items():
        write_view_csv(d / f"jf_{name}.csv", view)
    (d / "jf.json").write_text(json.dumps({"condition": "spontaneous", "frame_rate": 60.0}))
    assert run("train", "--input", d / "kin" / "analysis.csv", "--pulsatile",
               "--horizons", "0,0.5", "--out", d / "train") == 0
    return d


def _inventory(d):
    """command -> (its arguments, the files it reads, the files it writes in
    order, the seed its manifest records)."""
    a = d / "kin" / "analysis.csv"
    model = d / "train" / "model.npz"
    group = {label: [d / f"{label}{i}" / "analysis.csv" for i in range(3)] for label in "ab"}
    views = [d / f"jf_{name}.csv" for name in ingest.VIEW_NAMES] + [d / "jf.json"]

    def tables(*csvs):    # each table is recorded with its sidecar after it
        return [path for csv in csvs for path in (csv, csv.with_suffix(".json"))]

    def read(*csvs):    # then each analysis.npy as it is loaded in place of the text
        return tables(*csvs) + [csv.with_suffix(".npy") for csv in csvs]

    return {
        "synth": (["--tau", 2.0, "--seconds", 10.0, "--trials", 2, "--seed", 5], [],
                  ["trial_000.csv", "trial_000.json", "trial_001.csv", "trial_001.json"], 5),
        "ingest": (["--input", d / "jf"], views, ["trial.csv", "trial.json"], None),
        "kinematics": (["--input", d / "raw" / "trial.csv"], tables(d / "raw" / "trial.csv"),
                       ["analysis.csv", "analysis.npy", "analysis.json"], None),
        "soc": (["--input", a], read(a), ["psd.csv", "events.csv", "fits.csv", "psd_loglog.svg"],
                None),
        "phase": (["--input", a], read(a),
                  ["phase.csv", "phase_means.svg", "phase_ribbon_vz.svg"], None),
        "esp": (["--inputs", *(f"{label}=" + ",".join(map(str, paths))
                               for label, paths in group.items()), "--horizon", 30.0],
                read(*group["a"], *group["b"]), ["esp.csv", "stats.csv", "esp_bars.svg"], None),
        "train": (["--input", a, "--pulsatile", "--horizons", "0,0.5", "--seed", 3], read(a),
                  ["model.npz", "train_scores.csv"], 3),
        "predict": (["--model", model, "--input", a, "--stride-out", 50], [model, *read(a)],
                    ["predictions.csv", "scores.csv", "r2_heatmap.svg"], None),
        "confusion": (["--inputs", f"x={a}", f"y={group['a'][0]}", "--arch", "prc",
                       "--targets", "vz", "--seed", 2], read(a, group["a"][0]),
                      ["confusion.csv", "confusion_heatmap.svg"], 2),
        "search-sensors": (["--input", a, "--kmax", 1], read(a),
                           ["search_best.csv", "search_tally.csv", "search_summary.json"], None),
        "export-model": (["--model", model], [model], ["model.bin"], None),
        # the directory is not hashed; each manifest read under it is
        "report": (["--input", d / "kin"], [d / "kin" / "manifest.json"], ["report.json"],
                   None),
    }


@pytest.mark.parametrize("command", ["synth", "ingest", "kinematics", "soc", "phase", "esp",
                                     "train", "predict", "confusion", "search-sensors",
                                     "export-model", "report"])
def test_manifest_lists_what_the_command_read_and_wrote(tmp_path, inventory_dir, command):
    argv, inputs, outputs, seed = _inventory(inventory_dir)[command]
    out = tmp_path / "out"
    assert run(command, *argv, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == [str(out / name) for name in outputs]
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
    assert manifest["inputs"] == [{"path": str(p), "sha256": sha256_file(p)} for p in inputs]
    assert manifest["seed"] == seed


# the medusa modules each command loads beyond those `import medusa.cli` loads
TABLES = {"ingest", "kinematics"}     # the modules of the trial and analysis tables
COMMAND_MODULES = {
    "synth": {"synthgen"} | TABLES, "ingest": {"ingest"}, "kinematics": TABLES, "report": set(),
    "soc": {"criticality", "svgplot"} | TABLES, "phase": {"response", "svgplot"} | TABLES,
    "esp": {"esp", "response", "svgplot"} | TABLES,
    "search-sensors": {"sensorsearch", "reservoir"} | TABLES,
    "train": {"reservoir"} | TABLES, "export-model": {"reservoir"},
    "predict": {"reservoir", "svgplot"} | TABLES, "confusion": {"reservoir", "svgplot"} | TABLES,
}
LOADED_MODULES_CODE = """
import json, sys
from medusa import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("medusa."))]))
"""


def _loaded_modules(*argv) -> set[str]:
    """The medusa modules a fresh interpreter holds after ``cli.main(argv)``."""
    out = subprocess.run([sys.executable, "-c", LOADED_MODULES_CODE, *map(str, argv)],
                         capture_output=True, text=True, check=True).stdout
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0
    return {m.removeprefix("medusa.") for m in modules}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, inventory_dir):
    # each command is a fresh process: a module it never runs is compiled for nothing
    base = _loaded_modules()
    assert base == {"cli", "errors", "manifest", "series", "table"}
    for command, (argv, *_) in _inventory(inventory_dir).items():
        loaded = _loaded_modules(command, *argv, "--out", tmp_path / command)
        assert loaded - base == COMMAND_MODULES[command], command


def test_config_hash_changes_with_the_sidecar_alone(tmp_path, inventory_dir):
    analysis = tmp_path / "copy" / "analysis.csv"
    analysis.parent.mkdir()
    analysis.write_bytes((inventory_dir / "a0" / "analysis.csv").read_bytes())
    meta = json.loads((inventory_dir / "a0" / "analysis.json").read_text())
    runs = []
    for rate in (60.0, 50.0):
        analysis.with_suffix(".json").write_text(json.dumps(meta | {"frame_rate": rate}))
        assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 0
        manifest = json.loads((tmp_path / "soc" / "manifest.json").read_text())
        runs.append((manifest["config_hash"], (tmp_path / "soc" / "psd.csv").read_bytes()))
    # the rate changes the result, so the hash of what was read must change too
    assert runs[0][1] != runs[1][1]
    assert runs[0][0] != runs[1][0]


@pytest.mark.parametrize("command", ["confusion", "esp"])
def test_a_label_given_twice_exits_2(tmp_path, capsys, inventory_dir, command):
    a, b, c = (inventory_dir / f"a{i}" / "analysis.csv" for i in range(3))
    # esp groups list trials, confusion labels one analysis each
    items = ([f"x={a},{b}", f"x={b},{c}", f"y={a},{c}"] if command == "esp"
             else [f"x={a}", f"x={b}", f"y={c}"])
    assert run(command, "--inputs", *items, "--out", tmp_path / "out") == 2
    assert "label 'x' given twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_confusion_takes_one_analysis_per_label(tmp_path, capsys, inventory_dir):
    a0, a1, b0 = (inventory_dir / name / "analysis.csv" for name in ("a0", "a1", "b0"))
    assert run("confusion", "--inputs", f"x={a0},{a1}", f"y={b0}",
               "--out", tmp_path / "out") == 2
    assert "one analysis per label" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("targets", ["vx,vy,vz", "vz"])
def test_swapping_confusion_labels_permutes_its_matrix(tmp_path, inventory_dir, targets):
    a0, a1 = (inventory_dir / name / "analysis.csv" for name in ("a0", "a1"))
    tables = []
    for inputs in ([f"x={a0}", f"y={a1}"], [f"y={a1}", f"x={a0}"]):
        out = tmp_path / inputs[0][0]
        assert run("confusion", "--inputs", *inputs, "--targets", targets, "--out", out) == 0
        tables.append([row.split(",") for row in
                       (out / "confusion.csv").read_text().splitlines()])
    xy, yx = tables
    assert xy[0] == ["train\\eval", "x", "y"]
    # the labels' rows and columns trade places, each entry as printed
    assert [[row[0], row[2], row[1]] for row in (xy[0], xy[2], xy[1])] == yx


def test_a_single_labelled_esp_group_is_the_plain_esp_without_stats(tmp_path, inventory_dir):
    paths = [inventory_dir / f"b{i}" / "analysis.csv" for i in range(3)]
    assert run("esp", "--inputs", "b=" + ",".join(map(str, paths)), "--horizon", 30.0,
               "--out", tmp_path / "one") == 0
    assert run("esp", "--inputs", *paths, "--horizon", 30.0, "--out", tmp_path / "plain") == 0
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == [
        "esp.csv", "esp_bars.svg", "manifest.json"]
    plain = (tmp_path / "plain" / "esp.csv").read_text()
    assert plain.count("\nstimulated,") == 4
    assert (tmp_path / "one" / "esp.csv").read_text() == plain.replace("\nstimulated,", "\nb,")


def test_env_data_dir_resolves_relative_inputs(tmp_path, monkeypatch):
    raw = synth_trial(tmp_path, name="envraw", seconds=45.0)
    analysis = analysis_for(tmp_path, raw / "trial.csv", name="envkin")
    monkeypatch.chdir(tmp_path / "envraw")  # cwd does not contain the analysis
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(analysis.parent))
    assert run("soc", "--input", "analysis.csv", "--out", tmp_path / "envsoc") == 0


def test_ingest_cli_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    pos = ring_positions(400)
    pos[:, :, 2] += 2.0 * np.sin(np.arange(400) / 60.0)[:, None]
    led = np.zeros((400, 2))
    for onset in (0, 120, 240, 360):
        led[onset:onset + 6, 0] = 1.0
    pixel_h = {name: random_projective(rng, scale=150.0) for name in ingest.VIEW_NAMES}
    views = make_views(pos, led=led, pixel_h=pixel_h)
    prefix = tmp_path / "jf"
    for name, view in views.items():
        write_view_csv(f"{prefix}_{name}.csv", view)
    (tmp_path / "jf.json").write_text(json.dumps({
        "animal_id": "JF9", "condition": "stimulated", "period_s": 2.0,
        "frame_rate": 60.0,
    }))
    out = tmp_path / "ingested"
    assert run("ingest", "--input", prefix, "--out", out) == 0
    trial = ingest.read_trial_csv(out / "trial.csv")
    np.testing.assert_allclose(trial.positions, pos, atol=1e-5)
    assert trial.stimulus.sum() == 4 * 6
    assert trial.animal_id == "JF9"


def test_unfiltered_kinematics_on_a_four_frame_trial(tmp_path):
    raw = synth_trial(tmp_path, seconds=10.0)
    trial = ingest.read_trial_csv(raw / "trial.csv")
    short = tmp_path / "short" / "trial.csv"
    short.parent.mkdir()
    ingest.write_trial_csv(replace(trial, positions=trial.positions[:4],
                                   stimulus=trial.stimulus[:4], valid_mask=None), short)
    out = tmp_path / "kin"
    assert run("kinematics", "--input", short, "--no-filter", "--out", out) == 0
    data = np.loadtxt(out / "analysis.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 4
    assert np.isfinite(data).all()


def test_report_lists_runs(tmp_path, capsys):
    synth_trial(tmp_path, name="runA", seed=0)
    synth_trial(tmp_path, name="runB", seed=1)
    assert run("report", "--input", tmp_path, "--out", tmp_path / "rep") == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["n_runs"] >= 2
    assert "synth" in capsys.readouterr().out


def _gappy_analysis(tmp_path, gap=slice(1500, 1520)):
    """A stimulated trial with one marker missing for the 20 frames of
    ``gap``, as kinematics sees it."""
    raw = synth_trial(tmp_path, name="gappy_raw", seconds=60.0, seed=4)
    trial = ingest.read_trial_csv(raw / "trial.csv")
    positions = trial.positions.copy()
    positions[gap, 0] = np.nan
    valid = trial.valid_mask.copy()
    valid[gap] = False
    ingest.write_trial_csv(replace(trial, positions=positions, valid_mask=valid),
                           raw / "trial.csv")
    analysis = analysis_for(tmp_path, raw / "trial.csv", name="gappy_kin")
    data = np.loadtxt(analysis, delimiter=",", skiprows=1)
    assert 0 < np.isnan(data).any(axis=1).sum() < 100
    return analysis


def test_kinematics_counts_the_valid_runs_it_leaves_unfiltered(tmp_path, capsys):
    raw = synth_trial(tmp_path, seconds=60.0, seed=4)
    trial = ingest.read_trial_csv(raw / "trial.csv")
    valid = trial.valid_mask.copy()
    valid[1500:1520] = valid[1580:1590] = False     # rows 1520-1579: too short to filter
    positions = np.where(valid[:, None, None], trial.positions, np.nan)
    ingest.write_trial_csv(replace(trial, positions=positions, valid_mask=valid), raw / "trial.csv")
    capsys.readouterr()
    analysis = analysis_for(tmp_path, raw / "trial.csv")
    assert capsys.readouterr().out == (f"kinematics: 3600 frames -> {analysis}; "
                                       "valid runs left unfiltered: 1 (TooShort 1)\n")
    assert run("kinematics", "--input", raw / "trial.csv", "--no-filter",
               "--out", tmp_path / "nofilter") == 0
    assert capsys.readouterr().out.endswith("nofilter/analysis.csv\n")     # no count to give


def test_soc_counts_the_fits_it_drops_per_error_class(tmp_path, capsys):
    analysis = analysis_for(tmp_path, synth_trial(tmp_path, seconds=60.0, seed=7) / "trial.csv")
    capsys.readouterr()
    assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 0
    fits = (tmp_path / "soc" / "fits.csv").read_text().splitlines()[1:]
    # 13 channels fitted three ways each: every fit that fits.csv lacks is counted
    assert len(fits) == 2
    assert capsys.readouterr().out.endswith(
        f"2 fits -> {tmp_path / 'soc'}; fits dropped: 37 (InsufficientBins 13, "
        "InsufficientEvents 24)\n")


def test_soc_and_phase_count_the_constant_lengths_they_leave_out(tmp_path, capsys):
    analysis = analysis_for(tmp_path, synth_trial(tmp_path, seconds=60.0, seed=7) / "trial.csv")
    lines = analysis.read_text().splitlines()
    flat = lines[0].split(",").index(cli._length_channels()[0])
    # the sidecar's digests no longer match: every reader parses the edited text
    analysis.write_text("\n".join([lines[0]] + [",".join(
        "1" if i == flat else v for i, v in enumerate(line.split(",")))
        for line in lines[1:]]) + "\n")
    capsys.readouterr()
    assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 0
    assert run("phase", "--input", analysis, "--out", tmp_path / "phase") == 0
    soc_line, phase_line = capsys.readouterr().out.splitlines()
    left_out = "; constant channels left out: 1 (ZeroVariance 1)"
    assert f"-> {tmp_path / 'soc'}{left_out}; " in soc_line
    assert phase_line.endswith(f"-> {tmp_path / 'phase'}{left_out}")
    for name in ("soc/psd.csv", "phase/phase.csv"):
        channels = {row.split(",")[0] for row in (tmp_path / name).read_text().splitlines()[1:]}
        assert cli._length_channels()[0] not in channels
        assert cli._length_channels()[1] in channels


def test_train_on_invalid_frames_exits_1_naming_them(tmp_path, capsys):
    analysis = _gappy_analysis(tmp_path)
    assert run("train", "--input", analysis, "--pulsatile", "--horizons", "0",
               "--out", tmp_path / "model") == 1
    err = capsys.readouterr().err
    assert "InvalidFrames: sensor input has 20 non-finite rows of 3600 (first at row 1500)" in err
    assert not (tmp_path / "model" / "model.npz").exists()


def test_predict_on_invalid_frames_exits_1_naming_them(tmp_path, capsys):
    clean = analysis_for(tmp_path, synth_trial(tmp_path, seconds=60.0) / "trial.csv")
    model_dir = tmp_path / "model"
    assert run("train", "--input", clean, "--pulsatile", "--horizons", "0",
               "--out", model_dir) == 0
    analysis = _gappy_analysis(tmp_path)
    capsys.readouterr()
    assert run("predict", "--model", model_dir / "model.npz", "--input", analysis,
               "--out", tmp_path / "pred") == 1
    err = capsys.readouterr().err
    assert "InvalidFrames: sensor input has 20 non-finite rows of 3600 (first at row 1500)" in err
    assert not (tmp_path / "pred" / "predictions.csv").exists()


NO_SCIPY_CODE = """
import importlib, pkgutil, sys
import numpy as np


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import medusa
for info in pkgutil.iter_modules(medusa.__path__):
    importlib.import_module(f"medusa.{info.name}")
from medusa import criticality, kinematics, response

rng = np.random.default_rng(0)
x = rng.normal(size=(2000, 24))
kinematics.lowpass_3hz(x, 60.0)
criticality.psd(x[:, 0], 60.0)
groups = [rng.normal(k, 1.0, size=8) for k in range(3)]
response.one_way_anova(groups)
response.pairwise_tests(groups, n_permutations=100)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_medusa_module_imports_scipy():
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_CODE], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_thread_pool():
    # each command is a fresh process: an unused import is paid at every start
    code = "import sys, medusa.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_every_perfbench_trace_target_resolves(monkeypatch):
    # the benchmark wraps medusa's functions by name and reports a renamed
    # one as missing rather than failing
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
    finally:
        tracer.uninstall()


def test_soc_on_invalid_frames_exits_1_naming_them(tmp_path, capsys):
    analysis = _gappy_analysis(tmp_path)
    assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 1
    err = capsys.readouterr().err
    assert "InvalidFrames: soc input has 25 non-finite rows of 3600 (first at row 1497)" in err
    assert not (tmp_path / "soc" / "psd.csv").exists()


def test_esp_on_invalid_frames_exits_1_naming_the_trial(tmp_path, capsys):
    analysis = _gappy_analysis(tmp_path)
    clean = analysis_for(tmp_path, synth_trial(tmp_path, seconds=60.0) / "trial.csv")
    assert run("esp", "--inputs", clean, analysis, "--out", tmp_path / "esp") == 1
    err = capsys.readouterr().err
    assert (f"InvalidFrames: esp window of {analysis} has 25 non-finite rows of 1680 "
            "(first at row 1497)") in err
    assert not (tmp_path / "esp").exists()
    # a window that ends before the gap compares valid rows only
    assert run("esp", "--inputs", clean, analysis, "--horizon", 20.0,
               "--out", tmp_path / "early") == 0
    rows = (tmp_path / "early" / "esp.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 and "nan" not in "".join(rows)


def test_phase_on_invalid_frames_exits_1_naming_them(tmp_path, capsys):
    # the first onset is row 0 and the last row 3480 (58 s at 60 Hz)
    analysis = _gappy_analysis(tmp_path)
    assert run("phase", "--input", analysis, "--out", tmp_path / "phase") == 1
    err = capsys.readouterr().err
    assert "InvalidFrames: phase span has 25 non-finite rows of 3481 (first at row 1497)" in err
    assert not (tmp_path / "phase").exists()


def test_phase_resamples_valid_rows_past_an_invalid_tail(tmp_path):
    analysis = _gappy_analysis(tmp_path, gap=slice(3540, 3560))
    assert run("phase", "--input", analysis, "--out", tmp_path / "phase") == 0
    rows = (tmp_path / "phase" / "phase.csv").read_text().splitlines()[1:]
    assert len(rows) == 11 * 64 and "nan" not in "".join(rows)


def test_search_sensors_checks_only_the_rows_it_uses(tmp_path, capsys):
    analysis = _gappy_analysis(tmp_path)
    assert run("search-sensors", "--input", analysis, "--kmax", 2,
               "--out", tmp_path / "search") == 1
    err = capsys.readouterr().err
    assert ("InvalidFrames: post-washout sensor input has 20 non-finite rows of 2600 "
            "(first at row 1500)") in err
    assert not (tmp_path / "search" / "search_best.csv").exists()
    # a washout past the gap leaves only valid rows in the search
    assert run("search-sensors", "--input", analysis, "--kmax", 2, "--washout", 1600,
               "--out", tmp_path / "late") == 0
    rows = (tmp_path / "late" / "search_best.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        task, subset, r2 = row.split(",")
        assert subset and np.isfinite(float(r2))


def test_config_hash_equal_across_processes(tmp_path):
    hashes = []
    for _ in range(2):
        subprocess.run([sys.executable, "-m", "medusa.cli", "synth", "--tau", "2.0",
                        "--seconds", "10", "--seed", "1", "--out", str(tmp_path / "s")],
                       check=True, capture_output=True)
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert "func" not in manifest["args"]
        hashes.append(manifest["config_hash"])
    assert hashes[0] == hashes[1]


def test_report_on_a_truncated_manifest_exits_2_naming_it(tmp_path, capsys):
    synth_trial(tmp_path / "runs", name="runA", seconds=10.0, seed=0)
    bad = tmp_path / "runs" / "runA" / "manifest.json"
    bad.write_text(bad.read_text()[:40])
    capsys.readouterr()
    assert run("report", "--input", tmp_path / "runs", "--out", tmp_path / "rep") == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_records_the_manifests_it_reads(tmp_path):
    root = tmp_path / "runs"
    synth_trial(root, name="runA", seconds=10.0, seed=0)
    synth_trial(root, name="runB", seconds=10.0, seed=1)
    manifests = sorted(root.rglob("manifest.json"))

    def report_manifest():
        assert run("report", "--input", root, "--out", tmp_path / "rep") == 0
        return json.loads((tmp_path / "rep" / "manifest.json").read_text())

    first = report_manifest()
    assert first["inputs"] == [{"path": str(p), "sha256": sha256_file(p)} for p in manifests]
    assert report_manifest()["config_hash"] == first["config_hash"]
    synth_trial(root, name="runB", seconds=10.0, seed=2)
    assert report_manifest()["config_hash"] != first["config_hash"]
