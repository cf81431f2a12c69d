import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from medusa import cli, ingest, kinematics
from medusa import reservoir as rc
from test_ingest import make_views, random_projective, ring_positions


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
               "--horizon", 1.7, "--out", tmp_path / "export_bad") == 1


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
        cli.AnalysisTable.read(analysis).columns(extras["sensor_names"]))
    mux = rc.build_mux(sensors, config.mux_horizon_s, config.mux_stride,
                       config.frame_rate, scale=extras["mux_scale"])
    n = 1000
    ref = model.predict(rc.reservoir_features(sensors, config, extras["mux_scale"])[:n])
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
               "--threads", 2, "--out", tmp_path / "search") == 0
    text = capsys.readouterr().out
    assert "174436" in text
    summary = json.loads((tmp_path / "search" / "search_summary.json").read_text())
    assert summary["n_subsets"] == 174436
    assert len(summary["top_sensors"]) == 4


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


def _malformed_input(tmp_path, case):
    """Write one malformed input; return (argv, the file to be named)."""
    trial = ingest.TrialRecording("JF1", "spontaneous", ring_positions(30), np.zeros(30))
    trial_csv = tmp_path / "trial.csv"
    ingest.write_trial_csv(trial, trial_csv)
    lines = trial_csv.read_bytes().decode().split("\r\n")
    kinematics = ["kinematics", "--input", trial_csv]
    if case == "analysis_header_only":
        bad = tmp_path / "analysis.csv"
        bad.write_bytes((",".join(cli.ANALYSIS_COLUMNS) + "\r\n").encode())
        return ["soc", "--input", bad], bad
    if case == "trial_ragged_row":
        lines[5] = lines[5].rsplit(",", 1)[0]
    elif case == "trial_header":
        lines[0] = lines[0].replace("R1_x", "R1_X")
    elif case == "trial_missing_sidecar":
        trial_csv.with_suffix(".json").unlink()
        return kinematics, trial_csv.with_suffix(".json")
    elif case == "view_header":
        prefix = tmp_path / "jf"
        for name, view in make_views(ring_positions(30)).items():
            ingest.write_view_csv(f"{prefix}_{name}.csv", view)
        (tmp_path / "jf.json").write_text(json.dumps({"condition": "spontaneous"}))
        bad = tmp_path / "jf_behind.csv"
        bad.write_bytes(bad.read_bytes().replace(b"led_on", b"led_1", 1))
        return ["ingest", "--input", prefix], bad
    trial_csv.write_bytes("\r\n".join(lines).encode())
    return kinematics, trial_csv


@pytest.mark.parametrize("case", ["analysis_header_only", "trial_ragged_row", "trial_header",
                                  "trial_missing_sidecar", "view_header"])
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, case):
    argv, bad = _malformed_input(tmp_path, case)
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert str(bad) in capsys.readouterr().err


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
        ingest.write_view_csv(f"{prefix}_{name}.csv", view)
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


def test_report_lists_runs(tmp_path, capsys):
    synth_trial(tmp_path, name="runA", seed=0)
    synth_trial(tmp_path, name="runB", seed=1)
    assert run("report", "--input", tmp_path, "--out", tmp_path / "rep") == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["n_runs"] >= 2
    assert "synth" in capsys.readouterr().out


def _gappy_analysis(tmp_path):
    """A stimulated trial with one marker missing for 20 frames, as kinematics sees it."""
    raw = synth_trial(tmp_path, name="gappy_raw", seconds=60.0, seed=4)
    trial = ingest.read_trial_csv(raw / "trial.csv")
    positions = trial.positions.copy()
    positions[1500:1520, 0] = np.nan
    valid = trial.valid_mask.copy()
    valid[1500:1520] = False
    ingest.write_trial_csv(replace(trial, positions=positions, valid_mask=valid),
                           raw / "trial.csv")
    analysis = analysis_for(tmp_path, raw / "trial.csv", name="gappy_kin")
    data = np.loadtxt(analysis, delimiter=",", skiprows=1)
    assert 0 < np.isnan(data).any(axis=1).sum() < 100
    return analysis


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


def test_light_commands_do_not_import_scipy_submodules():
    code = ("import sys; import medusa.cli; "
            "from medusa import synthgen, kinematics, reservoir, sensorsearch; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_soc_on_invalid_frames_exits_1_naming_them(tmp_path, capsys):
    analysis = _gappy_analysis(tmp_path)
    assert run("soc", "--input", analysis, "--out", tmp_path / "soc") == 1
    err = capsys.readouterr().err
    assert "InvalidFrames: soc input has 25 non-finite rows of 3600 (first at row 1497)" in err
    assert not (tmp_path / "soc" / "psd.csv").exists()


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
