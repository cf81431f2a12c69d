from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medusa import kinematics, reservoir as rc, synthgen
from medusa.errors import (
    BlobCorrupt,
    ConfigMismatch,
    ConstantTarget,
    InvalidFrames,
    TooShort,
    UntrainedHorizon,
)

FS = 60.0


def make_config(**kw):
    base = dict(n_nodes=100, spectral_radius=0.35, architecture="hybrid",
                seed=0, n_sensors=4, frame_rate=FS)
    base.update(kw)
    return rc.ReservoirConfig(**base)


def random_sensors(n, s=4, seed=0):
    x = np.random.default_rng(seed).normal(size=(n, s))
    return (x - x.mean(0)) / x.std(0)


# ---------------------------------------------------------------------------
# mux
# ---------------------------------------------------------------------------

def test_mux_single_sensor_no_lags_is_scaled_passthrough():
    x = random_sensors(100, s=1, seed=1)
    mux = rc.build_mux(x, 0.0, 6, FS)
    assert mux.width == 1
    np.testing.assert_allclose(mux.values[:, 0], x[:, 0] * mux.scale)


def test_mux_width_arithmetic():
    x = random_sensors(400, s=4, seed=2)
    mux = rc.build_mux(x, 2.0, 6, FS)
    assert mux.n_lags == 21
    assert mux.width == 84


def test_mux_constant_ones_scale():
    mux = rc.build_mux(np.ones((300, 4)), 2.0, 6, FS)
    assert mux.scale == pytest.approx(1.0 / 84.0)
    assert np.abs(mux.values.sum(axis=1)).max() == pytest.approx(1.0)


def test_mux_sum_bound_holds_on_random_data():
    for seed in range(10):
        mux = rc.build_mux(random_sensors(500, seed=seed), 2.0, 6, FS)
        assert np.abs(mux.values.sum(axis=1)).max() <= 1.0 + 1e-12


def test_mux_too_short_and_divisibility():
    with pytest.raises(TooShort):
        rc.build_mux(random_sensors(100), 2.0, 6, FS)
    with pytest.raises(ValueError):
        rc.build_mux(random_sensors(400), 2.0, 7, FS)


def test_shared_scale_keeps_bound_on_every_set():
    sets = [random_sensors(400, seed=s) for s in range(4)]
    scale = rc.shared_mux_scale(sets, 2.0, 6, FS)
    peaks = []
    for x in sets:
        mux = rc.build_mux(x, 2.0, 6, FS, scale=scale)
        peaks.append(np.abs(mux.values.sum(axis=1)).max())
    assert max(peaks) <= 1.0 + 1e-12
    assert max(peaks) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# reservoir init / run
# ---------------------------------------------------------------------------

def test_esn_init_spectral_radius_exact():
    for seed in range(10):
        state = rc.esn_init(make_config(seed=seed))
        rho = rc.spectral_radius(state.recurrent_weights)
        assert abs(rho - 0.35) < 1e-6


def test_esn_init_deterministic():
    a = rc.esn_init(make_config(seed=5))
    b = rc.esn_init(make_config(seed=5))
    assert np.array_equal(a.input_weights, b.input_weights)
    assert np.array_equal(a.recurrent_weights, b.recurrent_weights)


def test_esn_input_columns_stable_as_mux_grows():
    short = rc.esn_init(make_config(mux_horizon_s=1.0))   # 11 lags
    long = rc.esn_init(make_config(mux_horizon_s=2.0))    # 21 lags
    for sensor in range(4):
        for lag in range(11):
            np.testing.assert_array_equal(
                short.input_weights[:, sensor * 11 + lag],
                long.input_weights[:, sensor * 21 + lag],
            )


def test_zero_input_keeps_zero_state():
    cfg = make_config()
    state = rc.esn_init(cfg)
    traj = rc.esn_run(state, np.zeros((50, cfg.input_width)))
    np.testing.assert_array_equal(traj, 0.0)


def test_activations_bounded():
    cfg = make_config()
    state = rc.esn_init(cfg)
    mux = rc.build_mux(random_sensors(500, seed=3), 2.0, 6, FS)
    traj = rc.esn_run(state, mux)
    assert np.abs(traj).max() < 1.0


def test_leaky_integrator_geometric_convergence():
    u = np.ones((30, 1))
    out = rc.leaky_integrate(u, 0.5)
    err = 1.0 - out[:, 0]
    np.testing.assert_allclose(err, 0.5 ** (np.arange(30) + 1), atol=1e-12)
    ratio = err[1:] / err[:-1]
    np.testing.assert_allclose(ratio, 0.5, atol=1e-12)


def test_leak_zero_recovers_plain_update():
    state = rc.esn_init(make_config())
    mux = rc.build_mux(random_sensors(400, seed=4), 2.0, 6, FS)
    leaky = replace(state, config=make_config(leak=0.3))
    # the configured leak only pre-integrates the input; leak 0 steps it as given
    np.testing.assert_array_equal(rc.esn_run(leaky, mux),
                                  rc.esn_run(state, rc.leaky_integrate(mux.values, 0.3)))


def _esn_run_stepwise(state, u, leak):
    """The step-by-step loop esn_run replaced: A·ũ recomputed at every step."""
    a, b = state.input_weights, state.recurrent_weights
    traj = np.empty((u.shape[0], a.shape[0]))
    x = state.state.copy()
    u_tilde = np.zeros(a.shape[1])
    for t in range(u.shape[0]):
        u_tilde = leak * u_tilde + (1.0 - leak) * u[t]
        x = np.tanh(a @ u_tilde + b @ x)
        traj[t] = x
    return traj


@pytest.mark.parametrize("leak", [0.0, 0.3])
@pytest.mark.parametrize("n_sensors,mux_s", [(1, 0.0), (4, 2.0), (8, 2.2)])
def test_esn_run_matches_stepwise_loop(leak, n_sensors, mux_s):
    cfg = make_config(n_sensors=n_sensors, mux_horizon_s=mux_s, leak=leak)
    assert cfg.input_width in (1, 84, 184)
    base = rc.esn_init(cfg)
    x0 = np.random.default_rng(5).uniform(-1, 1, cfg.n_nodes)
    state = rc.EsnState(base.input_weights, base.recurrent_weights, x0, cfg)
    mux = rc.build_mux(random_sensors(3000, s=n_sensors, seed=6), mux_s, 6, FS)
    got = rc.esn_run(state, mux)
    assert np.abs(got - _esn_run_stepwise(state, mux.values, leak)).max() <= 1e-12
    np.testing.assert_array_equal(state.state, x0)


@settings(max_examples=60, deadline=None)
@given(n_nodes=st.integers(2, 150), spectral_radius=st.floats(0.05, 0.95),
       # the second range weights long runs, where c < 1 makes several chunks
       n_steps=st.integers(1, 6000) | st.integers(1000, 6000),
       leak=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_chunked_esn_run_matches_stepwise_loop(n_nodes, spectral_radius, n_steps, leak, seed):
    cfg = make_config(n_nodes=n_nodes, spectral_radius=spectral_radius, n_sensors=2,
                      mux_horizon_s=0.0, leak=leak, seed=seed)
    base = rc.esn_init(cfg)
    x0 = np.random.default_rng(seed).uniform(-1, 1, n_nodes)
    state = rc.EsnState(base.input_weights, base.recurrent_weights, x0.copy(), cfg)
    u = np.random.default_rng(seed + 1).normal(size=(n_steps, 2)) / 2.0
    got = rc.esn_run(state, u)
    assert got.shape == (n_steps, n_nodes)
    assert np.abs(got - _esn_run_stepwise(state, u, leak)).max() <= 1e-12
    np.testing.assert_array_equal(state.state, x0)


def test_forgetting_steps_bound():
    b = rc.esn_init(make_config(seed=42)).recurrent_weights
    c = np.linalg.norm(b, 2)
    w = rc._forgetting_steps(b)
    assert c ** w * 10.0 <= 1e-17 < c ** (w - 1) * 10.0
    # near unit spectral radius σ_max(B) exceeds 1: no bound, one chunk
    assert rc._forgetting_steps(rc.esn_init(make_config(spectral_radius=0.95))
                                .recurrent_weights) is None


@pytest.mark.parametrize("offset", [-1, 0, 1, "prime"])
@pytest.mark.parametrize("leak", [0.0, 0.3])
def test_chunked_esn_run_at_the_chunking_threshold(offset, leak):
    cfg = make_config(leak=leak)
    base = rc.esn_init(cfg)
    w = rc._forgetting_steps(base.recurrent_weights)
    # 9001 is prime and above 4W, so its K >= 2 chunks cannot all be full
    n_steps = 9001 if offset == "prime" else 4 * w + offset
    assert n_steps >= 4 * w or offset == -1
    x0 = np.random.default_rng(11).uniform(-1, 1, cfg.n_nodes)
    state = rc.EsnState(base.input_weights, base.recurrent_weights, x0, cfg)
    u = rc.build_mux(random_sensors(n_steps, seed=12), 2.0, 6, FS).values
    got = rc.esn_run(state, u)
    assert np.abs(got - _esn_run_stepwise(state, u, leak)).max() <= 1e-12
    np.testing.assert_array_equal(state.state, x0)


def test_leaky_integrate_matches_inline_recurrence():
    u = np.random.default_rng(8).normal(size=(500, 7))
    expected = np.empty_like(u)
    u_tilde = np.zeros(u.shape[1])
    for t in range(u.shape[0]):
        u_tilde = 0.3 * u_tilde + (1.0 - 0.3) * u[t]
        expected[t] = u_tilde
    np.testing.assert_array_equal(rc.leaky_integrate(u, 0.3), expected)


def test_non_finite_rows_raise_invalid_frames():
    cfg = make_config(architecture="prc")
    sensors = random_sensors(2000, seed=9)
    sensors[700:705, 2] = np.nan
    with pytest.raises(InvalidFrames, match=r"5 non-finite rows of 2000 \(first at row 700\)"):
        rc.reservoir_features(sensors, cfg)
    features = rc.reservoir_features(random_sensors(2000, seed=9), cfg)
    targets = np.random.default_rng(10).normal(size=(2000, 2))
    targets[1900, 1] = np.inf
    with pytest.raises(InvalidFrames, match="first at row 1900"):
        rc.train_readout(features, targets, washout=100)
    with pytest.raises(InvalidFrames, match="first at row 1900"):
        rc.train_horizons(features, targets, [0.0], washout=100, frame_rate=FS)


def _state_distance_after(cfg, n_steps, seed):
    state = rc.esn_init(cfg)
    rng = np.random.default_rng(seed + 1000)
    mux = rc.build_mux(rng.normal(size=(n_steps + cfg.n_lags * cfg.mux_stride, 4)),
                       cfg.mux_horizon_s, cfg.mux_stride, FS)
    xa = rng.uniform(-1, 1, cfg.n_nodes)
    xb = rng.uniform(-1, 1, cfg.n_nodes)
    ta = rc.esn_run(rc.EsnState(state.input_weights, state.recurrent_weights, xa, cfg), mux)
    tb = rc.esn_run(rc.EsnState(state.input_weights, state.recurrent_weights, xb, cfg), mux)
    return np.abs(ta[n_steps - 1] - tb[n_steps - 1]).max()


def test_echo_state_convergence_at_default_radius():
    for seed in range(10):
        assert _state_distance_after(make_config(seed=seed), 1000, seed) < 1e-6


def test_echo_state_convergence_near_unit_radius():
    for seed in range(10):
        cfg = make_config(seed=seed, spectral_radius=0.95)
        assert _state_distance_after(cfg, 10_000, seed) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(spectral_radius=1.2)
    with pytest.raises(ValueError):
        make_config(leak=1.0)
    with pytest.raises(ValueError):
        make_config(architecture="mlp")
    with pytest.raises(ValueError):
        rc.esn_init(make_config(architecture="prc"))


# ---------------------------------------------------------------------------
# readout training
# ---------------------------------------------------------------------------

def test_prc_recovers_realizable_target_exactly():
    x = random_sensors(6000, seed=5)
    cfg = make_config(architecture="prc")
    feats = rc.reservoir_features(x, cfg)
    rng = np.random.default_rng(0)
    target = feats @ rng.normal(size=feats.shape[1]) - 1.7
    model = rc.train_readout(feats, target, washout=300)
    score = rc.r2(model.predict(feats[300:]), target[300:])
    assert abs(score - 1.0) < 1e-9


def test_independent_noise_target_scores_near_zero_held_out():
    x = random_sensors(12_000, seed=6)
    cfg = make_config(architecture="prc")
    feats = rc.reservoir_features(x, cfg)
    noise = np.random.default_rng(1).normal(size=feats.shape[0])
    half = feats.shape[0] // 2
    model = rc.train_readout(feats[:half], noise[:half], washout=500)
    score = rc.r2(model.predict(feats[half:]), noise[half:])
    assert score <= 0.05


def test_washout_defaults_match_protocol():
    assert rc.AGGREGATE_WASHOUT_SAMPLES == 10_000
    assert rc.PULSATILE_WASHOUT_SAMPLES == 1_000


def test_training_residual_orthogonal_to_features():
    x = random_sensors(4000, seed=7)
    cfg = make_config(architecture="hybrid", n_nodes=50)
    feats = rc.reservoir_features(x, cfg)
    rng = np.random.default_rng(2)
    target = np.tanh(feats @ rng.normal(size=feats.shape[1])) + 0.2 * rng.normal(size=feats.shape[0])
    washout = 400
    model = rc.train_readout(feats, target, washout=washout)
    f_aug = np.hstack([feats[washout:], np.ones((feats.shape[0] - washout, 1))])
    residual = target[washout:] - model.predict(feats[washout:])
    dots = f_aug.T @ residual
    norms = np.linalg.norm(f_aug, axis=0) * np.linalg.norm(residual)
    assert np.abs(dots / norms).max() < 1e-6


def test_train_readout_needs_enough_samples():
    x = random_sensors(400, seed=8)
    cfg = make_config(architecture="prc")
    feats = rc.reservoir_features(x, cfg)
    with pytest.raises(TooShort):
        rc.train_readout(feats, np.zeros(feats.shape[0]), washout=300)


def test_readout_deterministic():
    x = random_sensors(3000, seed=9)
    cfg = make_config()
    target = np.random.default_rng(3).normal(size=3000)
    w1 = rc.train_readout(rc.reservoir_features(x, cfg), target, washout=500).weights
    w2 = rc.train_readout(rc.reservoir_features(x, cfg), target, washout=500).weights
    assert np.array_equal(w1, w2)


# ---------------------------------------------------------------------------
# horizons and scores
# ---------------------------------------------------------------------------

def pulsatile_features(seed=0, seconds=200.0, arch="hybrid"):
    sched = synthgen.pwm_schedule(2.0, seconds)
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    trial, _ = synthgen.gen_jellyfish(params, sched, seconds)
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    sensors = kinematics.standardize(np.column_stack([
        pose.inner_radius, pose.outer_radius,
        lengths.channel("Y2-O1"), lengths.channel("R2-O2"),
    ]))
    cfg = make_config(architecture=arch, seed=11)
    return rc.reservoir_features(sensors, cfg), v[:, 2], cfg


def test_horizon_zero_matches_plain_readout():
    feats, vz, _ = pulsatile_features()
    washout = 1000
    hm = rc.train_horizons(feats, vz, [0.0, 1.0], washout, FS)
    plain = rc.train_readout(feats, vz, washout)
    np.testing.assert_allclose(hm.weights[0], plain.weights[0], atol=1e-12)


def test_periodic_data_full_period_horizon_keeps_score():
    feats, vz, _ = pulsatile_features()
    hm = rc.train_horizons(feats, vz, [0.0, 2.0], 1000, FS)
    scores = rc.evaluate_horizons(hm, feats, vz)
    assert scores[0.0] > 0.9
    assert abs(scores[2.0] - scores[0.0]) < 0.1


def test_untrained_horizon_raises():
    feats, vz, _ = pulsatile_features()
    hm = rc.train_horizons(feats, vz, [0.0], 1000, FS)
    with pytest.raises(UntrainedHorizon):
        hm.at(0.5)


def test_predict_columns_are_horizon_major():
    feats, vz, _ = pulsatile_features(seconds=100.0)
    targets = np.column_stack([vz, np.roll(vz, 7)])
    hm = rc.train_horizons(feats, targets, [0.0, 0.5, 1.0], 1000, FS)
    assert hm.weights.shape == (3, feats.shape[1] + 1, 2)
    assert hm.horizon_samples == (0, 30, 60)
    out = hm.predict(feats)
    assert out.shape == (feats.shape[0], 6)
    per_horizon = rc.predict_horizons(hm, feats)
    for i, h_s in enumerate(hm.horizons_s):
        np.testing.assert_array_equal(out[:, 2 * i:2 * i + 2], hm.at(h_s).predict(feats))
        np.testing.assert_array_equal(per_horizon[h_s], out[:, 2 * i:2 * i + 2])


def test_r2_trivial_values():
    y = np.array([1.0, -2.0, 3.0, 0.5])
    assert rc.r2(y, y) == pytest.approx(1.0)
    assert rc.r2(np.full(4, y.mean()), y) == pytest.approx(0.0)
    z = y - y.mean()
    assert rc.r2(-z, z) == pytest.approx(-3.0)


def test_r2_constant_target_raises():
    with pytest.raises(ConstantTarget):
        rc.r2(np.arange(4.0), np.ones(4))


def test_r2_multichannel_average():
    a = np.column_stack([np.arange(10.0), np.arange(10.0)])
    p = a.copy()
    p[:, 1] = a[:, 1].mean()
    assert rc.r2(p, a) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# cross prediction
# ---------------------------------------------------------------------------

def test_cross_predict_diagonal_is_self_evaluation():
    rng = np.random.default_rng(4)
    datasets = {}
    for name in ("a", "b"):
        f = rng.normal(size=(2000, 10))
        y = f @ rng.normal(size=10) + 0.1 * rng.normal(size=2000)
        datasets[name] = (f, y)
    result = rc.cross_predict(datasets, washout=200)
    for i, name in enumerate(result.names):
        f, y = datasets[name]
        model = rc.train_readout(f, y, washout=200)
        self_score = rc.r2(model.predict(f[200:]), y[200:])
        assert result.matrix[i, i] == pytest.approx(self_score, abs=1e-12)
    assert result.matrix[0, 0] > result.matrix[0, 1]


def test_cross_predict_rejects_mismatched_layouts():
    rng = np.random.default_rng(5)
    datasets = {
        "a": (rng.normal(size=(500, 8)), rng.normal(size=500)),
        "b": (rng.normal(size=(500, 9)), rng.normal(size=500)),
    }
    with pytest.raises(ConfigMismatch):
        rc.cross_predict(datasets, washout=50)


def test_similar_period_transfers_better():
    """A model trained on 1.5 s pulses fits 2.0 s pulses better than 0.5 s ones."""
    def family(tau, seed):
        sched = synthgen.pwm_schedule(tau, 150.0)
        params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
        trial, _ = synthgen.gen_jellyfish(params, sched, 150.0)
        lengths = kinematics.pairwise_lengths(trial)
        pose = kinematics.body_frame(trial)
        v = kinematics.local_velocities(trial, pose)
        sensors = kinematics.standardize(np.column_stack([
            pose.inner_radius, pose.outer_radius,
            lengths.channel("Y2-O1"), lengths.channel("R2-O2"),
        ]))
        return sensors, v[:, 2]

    cfg = make_config(seed=21)
    raw = {tau: family(tau, seed) for seed, tau in enumerate((1.5, 2.0, 0.5))}
    scale = rc.shared_mux_scale([s for s, _ in raw.values()], 2.0, 6, FS)
    datasets = {
        f"t{tau}": (rc.reservoir_features(s, cfg, mux_scale=scale), vz)
        for tau, (s, vz) in raw.items()
    }
    result = rc.cross_predict(datasets, washout=1000)
    i = result.names.index("t1.5")
    assert result.matrix[i, result.names.index("t2.0")] > \
        result.matrix[i, result.names.index("t0.5")]


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def test_dead_reckoned_positions_reset_at_onsets():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(600, 3))
    onsets = np.array([0, 120, 240, 480])
    pos = rc.dead_reckon_positions(v, onsets, FS)
    for k in onsets:
        np.testing.assert_array_equal(pos[k], 0.0)
    # between onsets the displacement integrates the velocity
    np.testing.assert_allclose(pos[125], v[120:125].sum(axis=0) / FS, atol=1e-12)


def test_rezero_at_onsets():
    x = np.cumsum(np.ones((300, 2)), axis=0)
    out = rc.rezero_at_onsets(x, np.array([0, 100, 200]))
    assert np.array_equal(out[100], [0.0, 0.0])
    assert np.array_equal(out[150], [50.0, 50.0])


def test_build_targets_kinds():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(500, 3))
    euler = rng.normal(size=(500, 3))
    agg = rc.build_targets(v, FS, pulsatile=False)
    assert agg.names == ("vx", "vy", "vz")
    pul = rc.build_targets(v, FS, onset_indices=np.array([0, 100]), euler=euler,
                           pulsatile=True)
    assert pul.names == ("vx", "vy", "vz", "px", "py", "pz", "ea", "eb", "eg")
    assert pul.values.shape == (500, 9)
    np.testing.assert_array_equal(pul.values[100, 3:6], 0.0)


def test_detect_pulse_onsets_refractory():
    x = np.zeros(600)
    for k in (50, 60, 200, 400):
        x[k:k + 10] = 5.0
    onsets = rc.detect_pulse_onsets(x, FS, threshold=1.0, refractory_s=0.5)
    assert onsets.tolist() == [50, 200, 400]


# ---------------------------------------------------------------------------
# compact export
# ---------------------------------------------------------------------------

def compact_setup(arch="hybrid"):
    cfg = make_config(architecture=arch, seed=13)
    sensors = random_sensors(3000, seed=14)
    mux = rc.build_mux(sensors, cfg.mux_horizon_s, cfg.mux_stride, FS)
    state = None if arch == "prc" else rc.esn_init(cfg)
    if arch == "prc":
        feats = mux.values
    else:
        feats = rc.assemble_features(arch, rc.esn_run(state, mux), mux)
    rng = np.random.default_rng(15)
    targets = np.column_stack([
        feats @ rng.normal(size=feats.shape[1]) * 0.05,
        np.tanh(feats[:, 0]),
    ])
    model = rc.train_readout(feats, targets, washout=600, architecture=arch)
    return cfg, state, mux, feats, model


@pytest.mark.parametrize("arch", ["hybrid", "esn", "prc"])
def test_compact_roundtrip_accuracy(arch):
    cfg, state, mux, feats, model = compact_setup(arch)
    blob = rc.export_compact(model, cfg, state)
    loaded = rc.load_compact(blob)
    assert loaded.architecture == arch
    evaluator = rc.CompactEvaluator(loaded)
    out = evaluator.run(mux.values[:1000].astype(np.float32))
    ref = model.predict(feats[:1000])
    scale = np.abs(ref).max()
    assert np.abs(out - ref).max() <= 1e-4 * scale


def test_blob_size_formula():
    cfg, state, _, _, model = compact_setup("hybrid")
    blob = rc.export_compact(model, cfg, state)
    expected = 25 + 4 * (
        state.input_weights.size + state.recurrent_weights.size + model.weights.size
    )
    assert len(blob) == expected


def test_blob_magic_and_truncation_checks():
    cfg, state, _, _, model = compact_setup("hybrid")
    blob = rc.export_compact(model, cfg, state)
    with pytest.raises(BlobCorrupt):
        rc.load_compact(b"XXXX" + blob[4:])
    with pytest.raises(BlobCorrupt):
        rc.load_compact(blob[:-8])
    with pytest.raises(BlobCorrupt):
        rc.load_compact(blob[:10])


def test_working_set_fits_microcontroller_budget():
    cfg, state, _, _, model = compact_setup("hybrid")
    evaluator = rc.CompactEvaluator(rc.load_compact(rc.export_compact(model, cfg, state)))
    assert evaluator.working_set_bytes < 256 * 1024


def test_evaluator_step_reuses_buffers():
    cfg, state, mux, _, model = compact_setup("hybrid")
    evaluator = rc.CompactEvaluator(rc.load_compact(rc.export_compact(model, cfg, state)))
    u = mux.values[:5].astype(np.float32)
    out1 = evaluator.step(u[0])
    ptr = out1.__array_interface__["data"][0]
    out2 = evaluator.step(u[1])
    assert out2.__array_interface__["data"][0] == ptr
