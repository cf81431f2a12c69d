"""Acceptance suite: every release gate with its stated tolerance and budget.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
live).  Budgets are wall-clock seconds on a desktop-class machine.
"""

import time

import numpy as np
import pytest
from scipy import stats as sp_stats

from medusa import criticality, esp, kinematics, response, sensorsearch, synthgen
from medusa import reservoir as rc
from medusa.esp import EspParams

FS = 60.0


class Gate:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.started = time.perf_counter()

    def done(self, ok: bool, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.started
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        print(
            f"{status} criterion {self.number:2d} "
            f"({elapsed:6.1f}s < {self.budget_s:g}s): {self.description}"
            + (f" [{detail}]" if detail else "")
        )
        assert ok, f"criterion {self.number}: {self.description} [{detail}]"
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.1f}s)"
        )


def pipeline_sensors(trial):
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    sensors = kinematics.standardize(np.column_stack([
        pose.inner_radius, pose.outer_radius,
        lengths.channel("Y2-O1"), lengths.channel("R2-O2"),
    ]))
    return sensors, v


def length_channels(trial):
    lengths = kinematics.pairwise_lengths(trial)
    return kinematics.standardize(np.column_stack([lengths.radial, lengths.coronal]))


def test_c01_subset_enumeration_count():
    gate = Gate(1, "pool 30, k<=5 search scores exactly 174,436 subsets", 1.0)
    x = np.random.default_rng(1).normal(size=(200, 30))
    report = sensorsearch.search_best(x, {"y": x @ np.arange(30.0)}, washout=0, k_max=5)
    gate.done(report.n_subsets == 174_436, f"count={report.n_subsets}")


def test_c02_spectral_radius():
    gate = Gate(2, "recurrent weights rescaled to spectral radius 0.35 +/- 1e-6", 5.0)
    errs = []
    for seed in range(10):
        cfg = rc.ReservoirConfig(seed=seed)
        state = rc.esn_init(cfg)
        errs.append(abs(rc.spectral_radius(state.recurrent_weights) - 0.35))
    gate.done(max(errs) < 1e-6, f"max err={max(errs):.2e}")


def test_c03_echo_state_convergence():
    gate = Gate(3, "state distance < 1e-6 after 1e3 steps at radius 0.35", 10.0)
    dists = []
    for seed in range(10):
        cfg = rc.ReservoirConfig(seed=seed)
        state = rc.esn_init(cfg)
        rng = np.random.default_rng(seed + 500)
        mux = rc.build_mux(rng.normal(size=(1200, 4)), 2.0, 6, FS)
        xa, xb = rng.uniform(-1, 1, (2, cfg.n_nodes))
        ta = rc.esn_run(rc.EsnState(state.input_weights, state.recurrent_weights, xa, cfg), mux)
        tb = rc.esn_run(rc.EsnState(state.input_weights, state.recurrent_weights, xb, cfg), mux)
        dists.append(np.abs(ta[999] - tb[999]).max())
    gate.done(max(dists) < 1e-6, f"max dist={max(dists):.2e}")


def test_c04_power_law_recovery():
    gate = Gate(4, "avalanche duration/size exponents recovered within 0.15", 30.0)
    worst = 0.0
    for alpha in (-1.2, -1.5, -2.0):
        for seed in range(5):
            series, _ = synthgen.gen_avalanche(alpha, 5000, seed=seed)
            events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
            for kind in ("duration", "size"):
                fit = criticality.fit_power_law_events(events, kind)
                worst = max(worst, abs(fit.alpha - alpha))
    gate.done(worst <= 0.15, f"worst err={worst:.3f}")


def test_c05_psd_peak_tracks_stimulus():
    gate = Gate(5, "coronal-length PSD peaks at the drive frequency within one bin", 10.0)
    worst = 0.0
    df = None
    for tau, f0 in ((2.0, 0.5), (1.5, 2.0 / 3.0)):
        sched = synthgen.pwm_schedule(tau, 60.0)
        params = synthgen.SyntheticJellyfishParams(seed=3, noise_sd_mm=0.05)
        trial, _ = synthgen.gen_jellyfish(params, sched, 60.0)
        coronal = kinematics.standardize(kinematics.pairwise_lengths(trial).coronal)
        for c in range(4):
            est = criticality.psd(coronal[:, c], FS)
            df = est.df
            worst = max(worst, abs(est.peak_freq - f0))
    gate.done(worst <= df, f"worst offset={worst:.3f} Hz, bin={df:.3f} Hz")


def _smooth_noise(n, seed):
    rng = np.random.default_rng(seed)
    x = np.convolve(rng.normal(size=n), np.ones(60) / 60, mode="same")
    return (x - x.mean()) / x.std()


def test_c06_esp_ordering():
    gate = Gate(6, "index: stimulated 1.5/2.0 s < spontaneous < independent control", 60.0)
    n_trials, duration = 5, 32.0
    params = EspParams(transient_s=2.0, horizon_s=30.0)
    wins = 0
    for seed in range(20):
        families = {}
        for tag, tau in (("t15", 1.5), ("t20", 2.0)):
            sched = synthgen.pwm_schedule(tau, duration)
            families[tag] = [
                length_channels(synthgen.gen_jellyfish(
                    synthgen.SyntheticJellyfishParams(seed=seed * 1000 + i, noise_sd_mm=0.15),
                    sched, duration)[0])
                for i in range(n_trials)
            ]
        families["spon"] = [
            length_channels(synthgen.gen_jellyfish(
                synthgen.SyntheticJellyfishParams(seed=seed * 1000 + 500 + i, noise_sd_mm=0.15),
                None, duration)[0])
            for i in range(n_trials)
        ]
        n = families["spon"][0].shape[0]
        families["indep"] = [
            np.column_stack([_smooth_noise(n, seed * 1000 + 900 + i * 10 + c) for c in range(8)])
            for i in range(n_trials)
        ]
        idx = {k: esp.esp_index(v, params, FS).value for k, v in families.items()}
        wins += (idx["t15"] < idx["spon"] < idx["indep"]) and idx["t20"] < idx["spon"]
    gate.done(wins >= 18, f"ordering held in {wins}/20 seeds")


def test_c07_rc_realizability():
    gate = Gate(7, "PRC exact on linear targets; hybrid v_z R2 >= 0.9 with horizon parity", 120.0)
    # linear realizable target through the sensor readout
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6000, 4))
    x = (x - x.mean(0)) / x.std(0)
    cfg_prc = rc.ReservoirConfig(architecture="prc", seed=1, n_sensors=4)
    feats = rc.reservoir_features(x, cfg_prc)
    target = feats @ rng.normal(size=feats.shape[1]) + 0.3
    model = rc.train_readout(feats, target, washout=200)
    prc_gap = abs(rc.r2(model.predict(feats[200:]), target[200:]) - 1.0)

    # hybrid on pulsatile synthetic data
    sched = synthgen.pwm_schedule(2.0, 240.0)
    trial, _ = synthgen.gen_jellyfish(
        synthgen.SyntheticJellyfishParams(seed=11, noise_sd_mm=0.05), sched, 240.0
    )
    sensors, v = pipeline_sensors(trial)
    cfg = rc.ReservoirConfig(architecture="hybrid", seed=5, n_sensors=4)
    features = rc.reservoir_features(sensors, cfg)
    hm = rc.train_horizons(features, v[:, 2], [0.0, 1.0, 2.0],
                           rc.PULSATILE_WASHOUT_SAMPLES, FS)
    scores = rc.evaluate_horizons(hm, features, v[:, 2])
    ok = (
        prc_gap < 1e-9
        and scores[0.0] >= 0.9
        and scores[2.0] >= scores[1.0] - 0.15
    )
    gate.done(ok, f"prc gap={prc_gap:.1e}, R2={ {h: round(s, 3) for h, s in scores.items()} }")


def _confusion_family(seed, tau, duration=150.0):
    sched = synthgen.pwm_schedule(tau, duration) if tau else None
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    trial, _ = synthgen.gen_jellyfish(params, sched, duration)
    sensors, v = pipeline_sensors(trial)
    return sensors, v[:, 2]


def test_c08_confusion_ordering():
    gate = Gate(8, "spontaneous-trained scores higher on 1.5/2.0 s data than on 0.5 s", 120.0)
    wins = 0
    for seed in range(20):
        cfg = rc.ReservoirConfig(architecture="hybrid", seed=42, n_sensors=4)
        raw = {}
        for i, (tag, tau) in enumerate(
            (("spon", None), ("t05", 0.5), ("t15", 1.5), ("t20", 2.0))
        ):
            raw[tag] = _confusion_family(seed * 10 + i, tau)
        scale = rc.shared_mux_scale([s for s, _ in raw.values()], 2.0, 6, FS)
        datasets = {
            tag: (rc.reservoir_features(s, cfg, mux_scale=scale), vz)
            for tag, (s, vz) in raw.items()
        }
        result = rc.cross_predict(datasets, washout=rc.PULSATILE_WASHOUT_SAMPLES)
        i = result.names.index("spon")
        row = {n: result.matrix[i, result.names.index(n)] for n in result.names}
        wins += row["t15"] > row["t05"] and row["t20"] > row["t05"]
    gate.done(wins >= 18, f"ordering held in {wins}/20 seeds")


def test_c09_gram_equivalence_and_search_speed():
    gate = Gate(9, "Gram subblock solves match direct regression; full search < 60 s", 60.0)
    rng = np.random.default_rng(7)
    data = rng.normal(size=(10_000, 30))
    data = (data - data.mean(0)) / data.std(0)
    washout = 1_000
    target = data[:, [1, 7, 22]] @ [0.5, -1.0, 2.0] + rng.normal(size=10_000)
    xp, yp = data[washout:], target[washout:]
    sst = np.sum((yp - yp.mean()) ** 2)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        subset = tuple(sorted(rng.choice(30, size=k, replace=False)))
        gram_r2 = sensorsearch.subset_r2(data, target, subset, washout=washout)
        f = np.column_stack([xp[:, list(subset)], np.ones(xp.shape[0])])
        w, *_ = np.linalg.lstsq(f, yp, rcond=None)
        direct = 1.0 - np.sum((f @ w - yp) ** 2) / sst
        worst = max(worst, abs(gram_r2 - direct))

    tasks = {
        "a": target,
        "b": data[:, [0, 5, 9]] @ [1.0, -2.0, 0.5] + 0.2 * rng.normal(size=10_000),
        "c": np.tanh(data[:, 28]) + 0.05 * rng.normal(size=10_000),
        "d": data[:, 3] * data[:, 17] + rng.normal(size=10_000),
    }
    report = sensorsearch.search_best(data, tasks, washout=washout, k_max=5, n_workers=8)
    ok = worst < 1e-9 and report.n_subsets == 174_436 and report.elapsed_s < 60.0
    gate.done(ok, f"worst dR2={worst:.1e}; search {report.elapsed_s:.1f}s, "
                  f"{report.n_workers} workers, {report.n_subsets} subsets")


def test_c10_compact_inference_roundtrip():
    gate = Gate(10, "compact blob reproduces 64-bit predictions within 1e-4; < 256 KB", 10.0)
    cfg = rc.ReservoirConfig(architecture="hybrid", seed=13, n_sensors=4)
    rng = np.random.default_rng(14)
    sensors = rng.normal(size=(3000, 4))
    sensors = (sensors - sensors.mean(0)) / sensors.std(0)
    mux = rc.build_mux(sensors, cfg.mux_horizon_s, cfg.mux_stride, FS)
    state = rc.esn_init(cfg)
    feats = rc.assemble_features("hybrid", rc.esn_run(state, mux), mux)
    targets = np.column_stack([
        feats @ rng.normal(size=feats.shape[1]) * 0.05,
        np.tanh(feats[:, 0]),
        sensors[:, 2],
    ])
    model = rc.train_readout(feats, targets, washout=600, architecture="hybrid")
    blob = rc.export_compact(model, cfg, state)
    loaded = rc.load_compact(blob)
    evaluator = rc.CompactEvaluator(loaded)
    out = evaluator.run(mux.values[:1000].astype(np.float32))
    ref = model.predict(feats[:1000])
    rel = np.abs(out - ref).max() / np.abs(ref).max()
    size_ok = len(blob) == 25 + 4 * (
        state.input_weights.size + state.recurrent_weights.size + model.weights.size
    )
    gate.done(
        rel <= 1e-4 and evaluator.working_set_bytes < 256 * 1024 and size_ok,
        f"rel err={rel:.1e}, working set={evaluator.working_set_bytes}B",
    )


def test_c11_rigid_body_invariance():
    gate = Gate(11, "kinematics invariant under 100 random rigid transforms", 10.0)
    rng = np.random.default_rng(2)
    sched = synthgen.pwm_schedule(2.0, 15.0)
    params = synthgen.SyntheticJellyfishParams(seed=8, noise_sd_mm=0.0)
    trial, _ = synthgen.gen_jellyfish(params, sched, 15.0)
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)

    worst_len = worst_v = worst_frame = 0.0
    from medusa.ingest import TrialRecording
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        shift = rng.uniform(-50, 50, 3)
        moved = TrialRecording("T", "spontaneous", trial.positions @ rot.T + shift,
                               np.zeros(trial.n_frames), frame_rate=FS)
        lengths2 = kinematics.pairwise_lengths(moved)
        pose2 = kinematics.body_frame(moved)
        v2 = kinematics.local_velocities(moved, pose2)
        worst_len = max(worst_len, np.abs(lengths2.values - lengths.values).max(),
                        np.abs(pose2.inner_radius - pose.inner_radius).max(),
                        np.abs(pose2.outer_radius - pose.outer_radius).max())
        worst_v = max(worst_v, np.abs(v2 - v).max())
        # frame constraints: axis onto +z, Y2->O2 chord in the x-z plane
        inner = moved.positions[:, [1, 3, 5, 7]].mean(axis=1)
        outer = moved.positions[:, [0, 2, 4, 6]].mean(axis=1)
        axis_bf = np.einsum("nij,nj->ni", pose2.rotation, inner - outer)
        chord_bf = np.einsum("nij,nj->ni", pose2.rotation,
                             moved.positions[:, 5] - moved.positions[:, 3])
        worst_frame = max(worst_frame,
                          np.abs(axis_bf[:, :2]).max(), np.abs(chord_bf[:, 1]).max())
    ok = worst_len < 1e-9 and worst_v < 1e-9 and worst_frame < 1e-9
    gate.done(ok, f"len={worst_len:.1e}, v={worst_v:.1e}, frame={worst_frame:.1e}")


def test_c12_statistics_sanity():
    gate = Gate(12, "ANOVA null p uniform (KS D < 0.1) and hand-computed F exact", 30.0)
    rng = np.random.default_rng(42)
    pvals = [
        response.one_way_anova([rng.normal(size=25) for _ in range(4)])[1]
        for _ in range(500)
    ]
    d = sp_stats.kstest(pvals, "uniform").statistic
    f_stat, _ = response.one_way_anova([[1.0, 2.0], [3.0, 4.0]])
    gate.done(d < 0.1 and abs(f_stat - 8.0) < 1e-9,
              f"KS D={d:.3f}, |F-8|={abs(f_stat - 8.0):.1e}")
