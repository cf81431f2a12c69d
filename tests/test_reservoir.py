import tracemalloc
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
    assert mux.values.shape[1] == 1
    np.testing.assert_allclose(mux.values[:, 0], x[:, 0] * rc.shared_mux_scale([x], 0.0, 6, FS))


def test_mux_width_arithmetic():
    x = random_sensors(400, s=4, seed=2)
    mux = rc.build_mux(x, 2.0, 6, FS)
    assert mux.n_lags == 21
    assert mux.values.shape[1] == 84


def test_mux_constant_ones_scale():
    mux = rc.build_mux(np.ones((300, 4)), 2.0, 6, FS)
    assert rc.shared_mux_scale([np.ones((300, 4))], 2.0, 6, FS) == pytest.approx(1.0 / 84.0)
    assert np.abs(mux.values.sum(axis=1)).max() == pytest.approx(1.0)


def test_mux_sum_bound_holds_on_random_data():
    for seed in range(10):
        mux = rc.build_mux(random_sensors(500, seed=seed), 2.0, 6, FS)
        assert np.abs(mux.values.sum(axis=1)).max() <= 1.0 + 1e-12


def test_mux_values_are_built_on_each_read_and_not_held():
    mux = rc.build_mux(random_sensors(700, seed=2), 2.0, 6, FS)
    first, second = mux.values, mux.values
    assert first is not second and "values" not in vars(mux)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, mux.fill(0, len(mux), np.empty((len(mux), mux.width))))


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


def _shared_mux_scale_via_mux(sensor_sets, mux_horizon_s, stride, frame_rate):
    """shared_mux_scale as it was: one whole unscaled mux per set."""
    peak = 0.0
    for sensors in sensor_sets:
        mux = rc.build_mux(sensors, mux_horizon_s, stride, frame_rate, scale=1.0)
        peak = max(peak, float(np.abs(mux.values.sum(axis=1)).max()))
    return 1.0 / peak if peak > 0 else 1.0


@pytest.mark.parametrize("shapes", [
    [(9000, 4)] * 4,                          # one cohort seed: 4 conditions x 150 s
    [(400, 4), (9001, 4), (121, 4), (500,)],  # ragged lengths, a 1-D set
    [(300, 1), (2000, 7)],                    # different sensor counts
])
def test_shared_mux_scale_equals_the_peak_of_each_whole_mux(shapes):
    rng = np.random.default_rng(len(shapes))
    sets = [rng.normal(size=shape) * rng.uniform(0.1, 10.0) for shape in shapes]
    for stride in (1, 6):
        assert (rc.shared_mux_scale(sets, 2.0, stride, FS)
                == _shared_mux_scale_via_mux(sets, 2.0, stride, FS))


def test_shared_mux_scale_of_cohort_sensors_equals_the_peak_of_each_whole_mux():
    sets = []
    for i, tau in enumerate((None, 0.5, 1.5, 2.0)):
        schedule = synthgen.pwm_schedule(tau, 30.0) if tau else None
        params = synthgen.SyntheticJellyfishParams(seed=70 + i, noise_sd_mm=0.05)
        trial, _ = synthgen.gen_jellyfish(params, schedule, 30.0)
        lengths = kinematics.pairwise_lengths(trial)
        pose = kinematics.body_frame(trial)
        sets.append(kinematics.standardize(np.column_stack([
            pose.inner_radius, pose.outer_radius,
            lengths.channel("Y2-O1"), lengths.channel("R2-O2")])))
    assert rc.shared_mux_scale(sets, 2.0, 6, FS) == _shared_mux_scale_via_mux(sets, 2.0, 6, FS)


def _build_mux_column_loop(sensors, mux_horizon_s, stride, frame_rate, scale=None):
    """The per-column loop build_mux replaced: (values, scale)."""
    x = np.asarray(sensors, dtype=float)
    n, n_sensors = x.shape
    n_lags = round(mux_horizon_s * frame_rate) // stride + 1
    raw = np.zeros((n, n_sensors * n_lags))
    for s in range(n_sensors):
        for lag in range(n_lags):
            shift = lag * stride
            raw[shift:, s * n_lags + lag] = x[: n - shift, s]
    if scale is None:
        peak = float(np.abs(raw.sum(axis=1)).max())
        scale = 1.0 / peak if peak > 0 else 1.0
    return raw * scale, scale


@settings(max_examples=60, deadline=None)
@given(n_sensors=st.integers(1, 8), stride=st.sampled_from([1, 2, 3, 6, 10]),
       n_lags=st.integers(1, 8), extra=st.integers(1, 40), explicit=st.booleans(),
       seed=st.integers(0, 2**16))
def test_build_mux_matches_the_column_loop(n_sensors, stride, n_lags, extra, explicit, seed):
    span = (n_lags - 1) * stride
    x = np.random.default_rng(seed).normal(size=(span + extra, n_sensors))
    scale = 0.37 if explicit else None
    got = rc.build_mux(x, span / FS, stride, FS, scale=scale)
    values, want_scale = _build_mux_column_loop(x, span / FS, stride, FS, scale)
    assert got.n_lags == n_lags
    assert (scale or rc.shared_mux_scale([x], span / FS, stride, FS)) == want_scale
    np.testing.assert_array_equal(got.values, values)


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


def test_esn_init_shares_one_read_only_draw():
    cfg = make_config(seed=13)
    first = rc.esn_init(cfg)
    # leak and architecture are not part of the draw
    again = rc.esn_init(replace(cfg, leak=0.2, architecture="esn"))
    assert again.input_weights is first.input_weights
    assert again.recurrent_weights is first.recurrent_weights
    for arr in (first.input_weights, first.recurrent_weights, first.state):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    rc._draw_reservoir.cache_clear()
    fresh = rc.esn_init(cfg)
    assert fresh.input_weights is not first.input_weights
    uncached = rc._draw_reservoir.__wrapped__(13, 100, 4, cfg.n_lags, 0.35)
    for got, want in zip((first.input_weights, first.recurrent_weights, first.state),
                         uncached):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(fresh.input_weights, first.input_weights)
    np.testing.assert_array_equal(fresh.recurrent_weights, first.recurrent_weights)


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
    out = rc._leak(u, 0.5)
    err = 1.0 - out[:, 0]
    np.testing.assert_allclose(err, 0.5 ** (np.arange(30) + 1), atol=1e-12)
    ratio = err[1:] / err[:-1]
    np.testing.assert_allclose(ratio, 0.5, atol=1e-12)


def test_leak_zero_recovers_plain_update():
    state = rc.esn_init(make_config())
    mux = rc.build_mux(random_sensors(400, seed=4), 2.0, 6, FS)
    leaky = replace(state, config=make_config(leak=0.3))
    # the configured leak only pre-integrates the input; leak 0 steps it as given
    integrated = rc._leak(mux.values, 0.3)
    np.testing.assert_array_equal(rc.esn_run(leaky, mux), rc.esn_run(state, integrated))


@pytest.mark.parametrize("leak", [0.0, 0.3])
def test_esn_run_on_mux_rows_on_demand_equals_the_whole_mux(leak):
    state = rc.esn_init(make_config(leak=leak))
    # one row past a block: the last block holds a single row
    mux = rc.MuxedInput(random_sensors(rc.BLOCK_ROWS + 1, seed=13), 2.0, 6, FS, None)
    on_demand = rc.esn_run(state, mux)
    np.testing.assert_array_equal(on_demand, rc.esn_run(state, mux.values))


def _leak_rows_stepwise(u, leak):
    """The leaked input rows ũ of `_esn_run_stepwise`, one row at a time."""
    out = np.empty_like(u)
    u_tilde = np.zeros(u.shape[1])
    for t in range(u.shape[0]):
        u_tilde = leak * u_tilde + (1.0 - leak) * u[t]
        out[t] = u_tilde
    return out


def _esn_run_stepwise(state, u, leak):
    """The step-by-step loop esn_run replaced: A·ũ recomputed at every step."""
    a, b = state.input_weights, state.recurrent_weights
    traj = np.empty((u.shape[0], a.shape[0]))
    x = state.state.copy()
    for t, u_tilde in enumerate(_leak_rows_stepwise(u, leak)):
        x = np.tanh(a @ u_tilde + b @ x)
        traj[t] = x
    return traj


@pytest.mark.parametrize("leak", [0.3, 0.9])
@pytest.mark.parametrize("n_sensors,mux_s", [(1, 0.0), (4, 2.0), (3, 0.5)])
def test_leaking_the_mux_samples_once_gives_the_leaked_rows(leak, n_sensors, mux_s):
    # the unleaked rows are read first; the copy builds its own from its samples
    mux = rc.build_mux(random_sensors(700, s=n_sensors, seed=17), mux_s, 6, FS)
    want = _leak_rows_stepwise(mux.values, leak)
    np.testing.assert_array_equal(rc._leaked(mux, leak).values, want)
    assert rc._leaked(mux, 0.0) is mux


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


def test_forgetting_steps_follow_the_matrix_not_a_stale_memo():
    b = rc.esn_init(make_config(seed=42)).recurrent_weights
    w = rc._forgetting_steps(b)
    mine = np.array(b)          # a hand-built, writable reservoir
    assert rc._forgetting_steps(mine) == w
    mine *= 0.5
    c = np.linalg.norm(mine, 2)
    w_half = rc._forgetting_steps(mine)
    assert c ** w_half * 10.0 <= 1e-17 < c ** (w_half - 1) * 10.0
    assert w_half < w
    assert rc._forgetting_steps(b) == w


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
    np.testing.assert_array_equal(rc._leak(u, 0.3), _leak_rows_stepwise(u, 0.3))


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
    feats = rc.reservoir_features(x, cfg).matrix()
    rng = np.random.default_rng(0)
    target = feats @ rng.normal(size=feats.shape[1]) - 1.7
    model = rc.train_readout(feats, target, washout=300)
    score = rc.r2(model.predict(feats[300:])[:, 0], target[300:])
    assert abs(score - 1.0) < 1e-9


def test_independent_noise_target_scores_near_zero_held_out():
    x = random_sensors(12_000, seed=6)
    cfg = make_config(architecture="prc")
    feats = rc.reservoir_features(x, cfg).matrix()
    noise = np.random.default_rng(1).normal(size=feats.shape[0])
    half = feats.shape[0] // 2
    model = rc.train_readout(feats[:half], noise[:half], washout=500)
    score = rc.r2(model.predict(feats[half:])[:, 0], noise[half:])
    assert score <= 0.05


def test_washout_defaults_match_protocol():
    assert rc.AGGREGATE_WASHOUT_SAMPLES == 10_000
    assert rc.PULSATILE_WASHOUT_SAMPLES == 1_000


def test_training_residual_orthogonal_to_features():
    x = random_sensors(4000, seed=7)
    cfg = make_config(architecture="hybrid", n_nodes=50)
    feats = rc.reservoir_features(x, cfg).matrix()
    rng = np.random.default_rng(2)
    target = np.tanh(feats @ rng.normal(size=feats.shape[1])) + 0.2 * rng.normal(size=feats.shape[0])
    washout = 400
    model = rc.train_readout(feats, target, washout=washout)
    f_aug = np.hstack([feats[washout:], np.ones((feats.shape[0] - washout, 1))])
    residual = target[washout:] - model.predict(feats[washout:])[:, 0]
    dots = f_aug.T @ residual
    norms = np.linalg.norm(f_aug, axis=0) * np.linalg.norm(residual)
    assert np.abs(dots / norms).max() < 1e-6


def test_train_readout_needs_enough_samples():
    x = random_sensors(400, seed=8)
    cfg = make_config(architecture="prc")
    feats = rc.reservoir_features(x, cfg)
    with pytest.raises(TooShort):
        rc.train_readout(feats, np.zeros(feats.shape[0]), washout=300)


def test_a_negative_washout_raises():
    x = random_sensors(3000, seed=8)
    feats = rc.reservoir_features(x, make_config(architecture="prc"))
    target = np.random.default_rng(3).normal(size=3000)
    with pytest.raises(ValueError, match="washout must be >= 0, got -3"):
        rc.train_readout(feats, target, washout=-3)
    with pytest.raises(ValueError, match="washout must be >= 0, got -3"):
        rc.train_horizons(feats, target, [0.0, 0.5], -3, FS)


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

def pulsatile_sensors(seed=0, seconds=200.0):
    """A 2 s pulsed trial's four standardized default sensors and its vz."""
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
    return sensors, v[:, 2]


def pulsatile_features(seed=0, seconds=200.0, arch="hybrid"):
    sensors, vz = pulsatile_sensors(seed, seconds)
    cfg = make_config(architecture=arch, seed=11)
    return rc.reservoir_features(sensors, cfg).matrix(), vz, cfg


def test_horizon_zero_matches_plain_readout():
    feats, vz, _ = pulsatile_features()
    washout = 1000
    hm = rc.train_horizons(feats, vz, [0.0, 1.0], washout, FS)
    plain = rc.train_readout(feats, vz, washout)
    # a whole matrix is one block: horizon 0 solves train_readout's equations
    np.testing.assert_array_equal(hm.weights[0], plain.weights[0])


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
    n = feats.shape[0]
    # one target keeps the shapes of many: (n, n_h * n_t), and (n, n_t) per horizon
    for n_t in (2, 1):
        targets = np.column_stack([vz, np.roll(vz, 7)])[:, :n_t]
        hm = rc.train_horizons(feats, targets, [0.0, 0.5, 1.0], 1000, FS)
        assert hm.weights.shape == (3, feats.shape[1] + 1, n_t)
        assert hm.horizon_samples == (0, 30, 60)
        out = hm.predict(feats)
        assert out.shape == (n, 3 * n_t)
        per_horizon = rc.predict_horizons(hm, feats)
        for i, h_s in enumerate(hm.horizons_s):
            columns = out[:, n_t * i:n_t * (i + 1)]
            np.testing.assert_array_equal(columns, hm.at(h_s).predict(feats))
            assert per_horizon[h_s].shape == (n, n_t)
            np.testing.assert_array_equal(per_horizon[h_s], columns)


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


@settings(max_examples=40, deadline=None)
@given(m=st.integers(200, 40_000), c=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_r2_sums_in_one_order_whatever_the_layout_or_column_count(m, c, seed):
    rng = np.random.default_rng(seed)
    actual = rng.normal(size=(m, c)) * rng.uniform(0.1, 10.0, size=c) + rng.normal(size=c)
    predicted = actual + 0.5 * rng.normal(size=(m, c))
    score = rc.r2(predicted, actual)
    assert rc.r2(np.asfortranarray(predicted), np.asfortranarray(actual)) == score
    # the multi-channel score is the mean of the per-channel ones, to the last bit
    assert np.mean([rc.r2(predicted[:, j], actual[:, j]) for j in range(c)]) == score


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
        self_score = rc.r2(model.predict(f[200:])[:, 0], y[200:])
        assert result.matrix[i, i] == pytest.approx(self_score, abs=1e-12)
    assert result.matrix[0, 0] > result.matrix[0, 1]


def _features_by_copies(sensors, cfg):
    """The path `FeatureStream.matrix` replaced: mux, states and features apart."""
    mux = rc.build_mux(sensors, cfg.mux_horizon_s, cfg.mux_stride, cfg.frame_rate)
    states = None if cfg.architecture == "prc" else rc.esn_run(rc.esn_init(cfg), mux)
    return rc.assemble_features(cfg.architecture, states, mux)


def _fit_by_hstack(features, targets, horizon_samples, washout):
    """Per-horizon weights from explicit hstack copies of [features, 1]: the
    Gram of the post-washout rows once, less each horizon's dropped tail rows."""
    n = features.shape[0]
    f_aug = np.hstack([features[washout:], np.ones((n - washout, 1))])
    gram = f_aug.T @ f_aug
    slabs = []
    for h in horizon_samples:
        tail = np.hstack([features[n - h:], np.ones((h, 1))])
        moment = f_aug[:n - h - washout].T @ targets[washout + h:]
        slabs.append(rc._solve_readout(gram - tail.T @ tail, moment))
    return np.stack(slabs)


# 700 rows fill K = 5 chunks exactly, 3001 leave padding rows in K = 11, and
# radius 0.95 (σ_max(B) > 1) runs one chunk
@pytest.mark.parametrize("n,radius", [(700, 0.35), (3001, 0.35), (700, 0.95)])
@pytest.mark.parametrize("arch", ["hybrid", "esn", "prc"])
def test_feature_buffer_trains_and_predicts_like_copied_features(n, radius, arch):
    cfg = make_config(architecture=arch, seed=4, spectral_radius=radius)
    sensors = random_sensors(n, seed=n)
    targets = np.random.default_rng(7).normal(size=(n, 2))
    feats = rc.reservoir_features(sensors, cfg).matrix()
    plain = _features_by_copies(sensors, cfg)
    np.testing.assert_array_equal(feats, plain)

    washout = 100 if n < 1000 else 300
    horizons = [0.0] if n < 1000 else [0.0, 0.5, 1.0]
    samples = [round(h * FS) for h in horizons]
    # a caller's own array, in either memory order, as a reshaped flat array or
    # as the left block of a wider array whose last column is not ones, trains
    # as it did before
    wider = np.hstack([plain, np.full((n, 1), 2.0)])
    flat = plain.ravel().copy()
    for f in (feats, plain, np.asfortranarray(plain), flat.reshape(plain.shape), wider[:, :-1]):
        model = rc.train_horizons(f, targets, horizons, washout, FS)
        np.testing.assert_array_equal(model.weights,
                                      _fit_by_hstack(f, targets, samples, washout))
    oracle = _fit_by_hstack(plain, targets, samples, washout)
    same_time = rc.train_readout(feats, targets, washout)
    np.testing.assert_array_equal(same_time.weights[0], oracle[0])
    np.testing.assert_array_equal(same_time.predict(feats[washout:]),
                                  same_time.predict(plain[washout:]))


def _r2_of_each_pair(datasets, washout):
    """The path `cross_predict` replaced: every model predicts every dataset,
    and `r2` scores the post-washout predictions."""
    matrix = np.empty((len(datasets), len(datasets)))
    for i, (f_i, y_i) in enumerate(datasets.values()):
        model = rc.train_readout(f_i, y_i, washout=washout)
        for j, (f_j, y_j) in enumerate(datasets.values()):
            actual = y_j[washout:]
            matrix[i, j] = rc.r2(model.predict(f_j[washout:]).reshape(actual.shape), actual)
    return matrix


def _jellyfish(tau, seed, seconds):
    """Four standardized body sensors and the local velocities of a
    synthetic trial stimulated every ``tau`` s."""
    sched = synthgen.pwm_schedule(tau, seconds)
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    trial, _ = synthgen.gen_jellyfish(params, sched, seconds)
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    sensors = kinematics.standardize(np.column_stack([
        pose.inner_radius, pose.outer_radius,
        lengths.channel("Y2-O1"), lengths.channel("R2-O2"),
    ]))
    return sensors, kinematics.local_velocities(trial, pose)


@pytest.mark.parametrize("n_targets", [1, 3])
def test_cross_predict_scores_each_pair_as_the_r2_of_its_predictions(n_targets):
    """Scores from the normal equations are `r2` of the predictions to
    rounding: within 1e-12 on well-conditioned features, and within 5e-11
    on hybrid reservoir features of jellyfish trials at `RIDGE_DEFAULT`,
    whose weights reach about 1.4e4 (6.1e-12 measured, 3 targets).  An
    exactly realizable target scores 1 and never above."""
    rng = np.random.default_rng(14)
    shape = (2600,) if n_targets == 1 else (2600, n_targets)
    gaussian = {}
    for name in ("a", "b", "c"):
        f = rng.normal(size=(2600, 12))
        y = f @ rng.normal(size=(12, n_targets)) + rng.normal(size=(2600, n_targets))
        gaussian[name] = (f, y.reshape(shape))
    w = 300
    np.testing.assert_allclose(rc.cross_predict(gaussian, washout=w).matrix,
                               _r2_of_each_pair(gaussian, w), rtol=0, atol=1e-12)

    trials = {tau: _jellyfish(tau, seed, 45.0) for seed, tau in enumerate((1.5, 2.0, 0.5))}
    scale = rc.shared_mux_scale([x for x, _ in trials.values()], 2.0, 6, FS)
    cfg = make_config(seed=21)
    hybrid = {tau: (rc.reservoir_features(x, cfg, mux_scale=scale).matrix(),
                    v[:, 2] if n_targets == 1 else v) for tau, (x, v) in trials.items()}
    np.testing.assert_allclose(rc.cross_predict(hybrid, washout=w).matrix,
                               _r2_of_each_pair(hybrid, w), rtol=0, atol=5e-11)

    # y = f·c exactly: every residual is rounding, and some residual sums of
    # squares come out below 0 before the clamp
    c = rng.normal(size=(12, n_targets))
    realizable = {name: (f, (f @ c).reshape(shape)) for name, (f, _) in gaussian.items()}
    matrix = rc.cross_predict(realizable, washout=w).matrix
    assert np.all(matrix <= 1.0)
    np.testing.assert_allclose(matrix, 1.0, rtol=0, atol=1e-12)


def test_cross_predict_on_feature_buffers_matches_copied_features():
    cfg = make_config(seed=8)
    for n_targets in (1, 3):
        sets = {name: (random_sensors(2500, seed=s),
                       np.random.default_rng(s).normal(size=(2500, n_targets)[:n_targets]))
                for s, name in enumerate(("a", "b", "c"))}
        scale = rc.shared_mux_scale([x for x, _ in sets.values()], 2.0, 6, FS)
        streams = {name: (rc.reservoir_features(x, cfg, mux_scale=scale), y)
                   for name, (x, y) in sets.items()}
        built = {name: (f.matrix(), y) for name, (f, y) in streams.items()}
        copied = {name: (np.array(f), y) for name, (f, y) in built.items()}
        want = rc.cross_predict(streams, washout=500).matrix
        np.testing.assert_array_equal(rc.cross_predict(built, washout=500).matrix, want)
        np.testing.assert_array_equal(rc.cross_predict(copied, washout=500).matrix, want)


def test_training_on_reservoir_features_copies_no_feature_matrix():
    feats = rc.reservoir_features(random_sensors(4000, seed=5), make_config(seed=3)).matrix()
    targets = np.random.default_rng(6).normal(size=(4000, 3))
    tracemalloc.start()
    try:
        rc.train_horizons(feats, targets, [0.0, 0.5, 1.0], 300, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < feats.nbytes


# 5000 rows are three 2 048-row blocks, the last partial; 700-row blocks
# split the washout and the horizons' dropped tails across blocks
@pytest.mark.parametrize("block_rows", [rc.BLOCK_ROWS, 700])
@pytest.mark.parametrize("arch", ["hybrid", "esn", "prc"])
def test_stream_blocks_are_the_rows_of_reservoir_features(arch, block_rows, monkeypatch):
    monkeypatch.setattr(rc, "BLOCK_ROWS", block_rows)
    sensors = random_sensors(5000, seed=21)
    for leak in (0.0, 0.3):
        cfg = make_config(architecture=arch, seed=2, leak=leak)
        stream = rc.reservoir_features(sensors, cfg, mux_scale=0.05)
        whole = stream.matrix()
        assert stream.shape == whole.shape
        for start, stop in [(0, 5000), (1000, 5000), (4880, 5000), (10, 10)]:
            rows = [(first, block.copy()) for first, block in stream.blocks(start, stop)]
            assert [first for first, _ in rows] == list(range(start, stop, block_rows))
            got = (np.vstack([block for _, block in rows]) if rows
                   else np.empty((0, whole.shape[1] + 1)))
            np.testing.assert_array_equal(got[:, :-1], whole[start:stop])
            np.testing.assert_array_equal(got[:, -1], 1.0)
        # without a scale both take the sensors' own
        own = rc.reservoir_features(sensors, cfg)
        np.testing.assert_array_equal(
            np.vstack([block[:, :-1].copy() for _, block in own.blocks()]), own.matrix())


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4_000, 40_000), seed=st.integers(0, 2**32 - 1),
       leak=st.sampled_from([0.0, 0.3]), arch=st.sampled_from(["hybrid", "esn", "prc"]),
       start=st.floats(0.0, 1.0))
def test_stream_steps_chunk_groups_bitwise_like_reservoir_features(n, seed, leak, arch, start):
    cfg = make_config(architecture=arch, leak=leak, seed=seed)
    sensors = random_sensors(n, seed=seed % 1_000)
    whole = rc.reservoir_features(sensors, cfg, mux_scale=0.05).matrix()
    groups = []
    step = rc._step_chunks

    def spy(chunks, *args):
        groups.append(chunks.shape[0])
        return step(chunks, *args)

    with pytest.MonkeyPatch.context() as mp:
        # at these sizes a trial of 4 000 rows or more has 8 or more chunks: it splits into groups
        mp.setattr(rc, "_step_chunks", spy)
        stream = rc.reservoir_features(sensors, cfg, 0.05)
        first = np.vstack([block[:, :-1].copy() for _, block in stream.blocks()])
        stepped = len(groups)
        # a second read, from a row inside the trial: the leak state is kept
        lo = int(start * (n - 1))
        second = np.vstack([block[:, :-1].copy() for _, block in stream.blocks(lo, n)])
    np.testing.assert_array_equal(first, whole)
    np.testing.assert_array_equal(second, first[lo:])
    if arch == "prc":   # no reservoir to step
        assert stepped == 0
        return
    assert stepped > 1 and rc.MIN_GROUP_CHUNKS <= min(groups)
    assert max(groups) < 2 * rc.MIN_GROUP_CHUNKS


@pytest.mark.parametrize("arch", ["hybrid", "esn"])
def test_leaky_stream_read_group_by_group_in_reverse_equals_a_forward_read(arch):
    cfg = make_config(architecture=arch, leak=0.3, seed=4)
    n = 12_000
    stream = rc.reservoir_features(random_sensors(n, seed=23), cfg, 0.05)
    forward = np.vstack([block[:, :-1].copy() for _, block in stream.blocks()])
    w = rc._forgetting_steps(rc.esn_init(cfg).recurrent_weights)
    k, length, _ = rc.time_chunks(n, w)
    groups = rc._chunk_groups(k)
    assert len(groups) > 2
    # the drive keeps no leak state, so a group late in the trial reads first
    for g0, g1 in reversed(groups):
        lo, hi = g0 * length, min(g1 * length, n)
        rows = np.vstack([block[:, :-1].copy() for _, block in stream.blocks(lo, hi)])
        np.testing.assert_array_equal(rows, forward[lo:hi])


@pytest.mark.parametrize("arch", ["hybrid", "esn"])
def test_a_leaky_stream_leaks_its_sensors_once_for_the_whole_matrix(arch, monkeypatch):
    cfg = make_config(architecture=arch, leak=0.3, seed=4)
    sensors = random_sensors(3000, seed=6)
    mux = rc.MuxedInput(sensors, cfg.mux_horizon_s, cfg.mux_stride, FS, 0.05)
    states = rc.esn_run(rc.esn_init(cfg), mux)
    calls = []
    leak = rc._leak

    def counted(x, a):
        calls.append(x.shape)
        return leak(x, a)

    monkeypatch.setattr(rc, "_leak", counted)
    matrix = rc.reservoir_features(sensors, cfg, mux_scale=0.05).matrix()
    # the stream's drive leaked the padded sensors; the matrix reuses it
    assert calls == [mux.padded.shape]
    np.testing.assert_array_equal(matrix[:, :cfg.n_nodes], states)


def test_streamed_predictions_and_scores_match_the_whole_matrix():
    sensors, vz = pulsatile_sensors(seconds=150.0)
    cfg = make_config(seed=11)
    stream = rc.reservoir_features(sensors, cfg)
    feats = stream.matrix()
    targets = np.column_stack([vz, np.roll(vz, 11), np.roll(vz, 23)])
    model = rc.train_horizons(feats, targets, [0.0, 0.5, 1.0, 2.0], 1000, FS)
    whole = rc.predict_horizons(model, feats)
    streamed = rc.predict_horizons(model, stream)
    assert list(streamed) == list(whole)
    for h_s, p in whole.items():
        # the same dot products; BLAS may round a short block's differently
        np.testing.assert_allclose(streamed[h_s], p, rtol=0, atol=1e-13 * np.abs(p).max())
    scores = rc.evaluate_horizons(model, stream, targets)
    for h_s, score in rc.evaluate_horizons(model, feats, targets).items():
        assert abs(scores[h_s] - score) <= 1e-12
    # a readout fitted from the stream scores like the one fitted whole
    from_stream = rc.train_horizons(stream, targets, model.horizons_s, 1000, FS)
    for h_s, score in rc.evaluate_horizons(from_stream, stream, targets).items():
        assert abs(scores[h_s] - score) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1_000, 5_000), n_targets=st.integers(1, 9),
       shifts=st.lists(st.integers(1, 150), max_size=3, unique=True),
       washout=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
def test_streamed_scores_are_r2_over_the_whole_predictions_bitwise(n, n_targets, shifts,
                                                                  washout, seed):
    # trials of 1 000 to 5 000 rows end inside the first, second or third block
    cfg = make_config(n_nodes=20, seed=seed % 64)
    sensors = random_sensors(n, seed=seed % 1_000)
    rng = np.random.default_rng(seed)
    targets = rng.normal(size=(n, n_targets))
    if n_targets == 1 and seed % 2:
        targets = targets[:, 0]     # a 1-D target is one column too
    horizons = (0.0, *(h / FS for h in shifts))
    d = 20 + cfg.input_width
    model = rc.Readout(weights=rng.normal(size=(len(horizons), d + 1, n_targets)) / d,
                       horizons_s=horizons, frame_rate=FS, washout=washout)
    y = targets.reshape(n, n_targets)
    stream = rc.reservoir_features(sensors, cfg, mux_scale=0.05)
    for features in (stream, stream.matrix()):
        p = model.predict(features).reshape(n, len(horizons), n_targets)
        expected = {h_s: rc.r2(p[washout:n - h, i], y[washout + h:])
                    for i, (h_s, h) in enumerate(zip(horizons, model.horizon_samples))}
        assert rc.evaluate_horizons(model, features, targets) == expected


def _fit_each_horizon_alone(features, targets, horizon_samples, washout):
    """The per-horizon solves the shared Gram replaced: each horizon's own
    Gram over its own rows."""
    n = features.shape[0]
    slabs = []
    for h in horizon_samples:
        f_aug = np.hstack([features[washout:n - h], np.ones((n - h - washout, 1))])
        slabs.append(rc._solve_readout(f_aug.T @ f_aug, f_aug.T @ targets[washout + h:]))
    return np.stack(slabs)


def test_shared_gram_scores_like_per_horizon_solves():
    feats, vz, _ = pulsatile_features(seconds=300.0)
    targets = np.column_stack([vz, np.roll(vz, 17)])
    horizons = [0.0, 0.5, 1.0, 1.5, 2.0]
    model = rc.train_horizons(feats, targets, horizons, 1000, FS)
    alone = replace(model, weights=_fit_each_horizon_alone(feats, targets,
                                                           model.horizon_samples, 1000))
    np.testing.assert_array_equal(model.weights[0], alone.weights[0])
    shared = rc.evaluate_horizons(model, feats, targets)
    for h_s, score in rc.evaluate_horizons(alone, feats, targets).items():
        assert abs(shared[h_s] - score) <= 1e-9


def _normal_equations_by_hand(features, y, washout, h):
    """One shift's Gram and moment from [rows | 1] cut out of the whole matrix."""
    n = features.shape[0]
    f = np.hstack([features[washout:n - h], np.ones((n - h - washout, 1))])
    return f.T @ f, f.T @ y[washout + h:]


# 256-, 700- and 2 048-row blocks split the range, its tail and each shift's
# moment rows across blocks, or hold the whole range in one
@settings(max_examples=30, deadline=None)
@given(n=st.integers(400, 3_000), washout_at=st.floats(0.0, 1.0),
       shifts=st.lists(st.integers(0, 300), min_size=1, max_size=4),
       block_rows=st.sampled_from([256, 700, 2_048]), stream=st.booleans(),
       seed=st.integers(0, 2**16))
def test_normal_equations_are_those_of_the_rows_cut_out_by_hand(n, washout_at, shifts,
                                                                 block_rows, stream, seed):
    washout = int(washout_at * (n - max(shifts) - 1))     # every shift keeps a row
    cfg = make_config(n_nodes=20, seed=seed)
    sensors = random_sensors(n, seed=seed)
    y = np.random.default_rng(seed).normal(size=(n, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc, "BLOCK_ROWS", block_rows)
        # both on one grid of drive products, which rounds the states
        features = rc.reservoir_features(sensors, cfg, 0.05)
        whole = features.matrix()
        features = features if stream else whole
        got = list(rc.normal_equations(features, y, washout, shifts))
    one_block = not stream or n - washout <= block_rows
    assert len(got) == len(shifts)
    for (gram, moment), h in zip(got, shifts):
        want_gram, want_moment = _normal_equations_by_hand(whole, y, washout, h)
        assert np.abs(gram - want_gram).max() <= 1e-12 * np.abs(want_gram).max()
        assert np.abs(moment - want_moment).max() <= 1e-12 * np.abs(want_moment).max()
        if one_block:   # one product each: the Gram's only when no tail is dropped
            np.testing.assert_array_equal(moment, want_moment)
            if h == 0:
                np.testing.assert_array_equal(gram, want_gram)


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
    cfg = make_config(seed=21)
    raw = {tau: _jellyfish(tau, seed, 150.0) for seed, tau in enumerate((1.5, 2.0, 0.5))}
    scale = rc.shared_mux_scale([s for s, _ in raw.values()], 2.0, 6, FS)
    datasets = {
        f"t{tau}": (rc.reservoir_features(s, cfg, mux_scale=scale), v[:, 2])
        for tau, (s, v) in raw.items()
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
    onsets = rc.detect_pulse_onsets(x, FS)
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


@pytest.mark.parametrize("arch", ["hybrid", "esn", "prc"])
def test_export_draws_the_reservoir_it_is_not_given(arch):
    cfg, state, _, _, model = compact_setup(arch)
    assert rc.export_compact(model, cfg) == rc.export_compact(model, cfg, state)


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
