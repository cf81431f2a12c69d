import numpy as np
import pytest

from medusa import criticality, kinematics, synthgen
from medusa.errors import PeriodTooShort
from avalanche import gen_avalanche

FS = 60.0


# ---------------------------------------------------------------------------
# stimulus schedules
# ---------------------------------------------------------------------------

def test_pwm_onset_count_and_spacing():
    sched = synthgen.pwm_schedule(2.0, 30.0)
    assert sched.onsets_s.size == 15
    np.testing.assert_allclose(np.diff(sched.onsets_s), 2.0, atol=1e-12)
    assert sched.onsets_s[0] == 0.0


def test_pwm_period_too_short():
    with pytest.raises(PeriodTooShort):
        synthgen.pwm_schedule(0.05, 10.0)


def test_burst_active_series():
    sched = synthgen.pwm_schedule(1.0, 3.0)
    active = sched.burst_active(FS, 180)
    assert np.flatnonzero(active[:10]).tolist() == [0, 1, 2, 3, 4, 5]
    assert active.sum() == 3 * 6


def _burst_active_by_comparison(schedule, frame_rate, n_samples):
    """The loop burst_active replaced: three full-length comparisons per onset."""
    t = np.arange(n_samples) / frame_rate
    active = np.zeros(n_samples, dtype=np.uint8)
    for onset in schedule.onsets_s:
        active[(t >= onset - 1e-12) & (t < onset + synthgen.BURST_DURATION_S - 1e-12)] = 1
    return active


def test_burst_active_equals_the_comparison_loop_on_random_schedules():
    rng = np.random.default_rng(17)
    for _ in range(200):
        frame_rate = rng.choice([24.0, 59.94, 60.0, 100.0, 123.7])
        n = int(rng.integers(1, 3_000))
        # unsorted, overlapping, before the start, past the end, on sample times,
        # and with a burst's first or last bound on a sample time
        t = rng.integers(0, n, 5) / frame_rate
        onsets = np.concatenate([rng.uniform(-1.0, 1.2 * n / frame_rate, rng.integers(0, 40)),
                                 t, t + 1e-12, t - synthgen.BURST_DURATION_S + 1e-12])
        schedule = synthgen.StimulusSchedule(period_s=1.0, onsets_s=onsets)
        got = schedule.burst_active(frame_rate, n)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, _burst_active_by_comparison(schedule, frame_rate, n))
    for period in (0.5, 1.5, 2.0):
        schedule = synthgen.pwm_schedule(period, 150.0)
        np.testing.assert_array_equal(schedule.burst_active(FS, 9_000),
                                      _burst_active_by_comparison(schedule, FS, 9_000))


# ---------------------------------------------------------------------------
# jellyfish generator
# ---------------------------------------------------------------------------

def test_zero_amplitude_generator_is_static():
    params = synthgen.SyntheticJellyfishParams(
        contraction_amplitude_mm=0.0, transverse_drift_mm_s=0.0, seed=1
    )
    trial, truth = synthgen.gen_jellyfish(params, None, 12.0)
    lengths = kinematics.pairwise_lengths(trial)
    assert np.ptp(lengths.values, axis=0).max() < 1e-9
    np.testing.assert_allclose(truth.body.v_local, 0.0, atol=1e-12)


def test_generator_deterministic_per_seed():
    params = synthgen.SyntheticJellyfishParams(seed=3, noise_sd_mm=0.2)
    sched = synthgen.pwm_schedule(1.5, 20.0)
    t1, _ = synthgen.gen_jellyfish(params, sched, 20.0)
    t2, _ = synthgen.gen_jellyfish(params, sched, 20.0)
    np.testing.assert_array_equal(t1.positions, t2.positions)


def test_generator_seeds_differ():
    sched = synthgen.pwm_schedule(1.5, 20.0)
    t1, _ = synthgen.gen_jellyfish(synthgen.SyntheticJellyfishParams(seed=1), sched, 20.0)
    t2, _ = synthgen.gen_jellyfish(synthgen.SyntheticJellyfishParams(seed=2), sched, 20.0)
    assert np.abs(t1.positions - t2.positions).max() > 1e-6


def test_stimulated_psd_peak_at_drive_frequency():
    sched = synthgen.pwm_schedule(2.0, 60.0)
    params = synthgen.SyntheticJellyfishParams(seed=5, noise_sd_mm=0.05)
    trial, _ = synthgen.gen_jellyfish(params, sched, 60.0)
    coronal = kinematics.standardize(kinematics.pairwise_lengths(trial).coronal)
    for c in range(4):
        est = criticality.psd(coronal[:, c], FS)
        assert abs(est.peak_freq - 0.5) <= est.freqs[1] - est.freqs[0]


def test_pipeline_recovers_ground_truth_pose_and_velocity():
    sched = synthgen.pwm_schedule(2.0, 40.0)
    params = synthgen.SyntheticJellyfishParams(
        seed=4, noise_sd_mm=0.0, orientation_euler=(0.3, 0.4, -0.2)
    )
    trial, truth = synthgen.gen_jellyfish(params, sched, 40.0)
    pose = kinematics.body_frame(trial)
    assert np.abs(pose.inner_radius - truth.body.inner_radius).max() < 1e-6
    assert np.abs(pose.outer_radius - truth.body.outer_radius).max() < 1e-6
    np.testing.assert_allclose(pose.euler_zyz, truth.body.euler_zyz, atol=1e-9)
    v = kinematics.local_velocities(trial, pose)
    v_ref = kinematics.moving_average(truth.body.v_local, 5)
    assert np.abs(v[3:-3] - v_ref[3:-3]).max() < 1e-3


def test_responsiveness_floor_thins_fast_stimuli():
    dur = 60.0
    fast, fast_truth = synthgen.gen_jellyfish(
        synthgen.SyntheticJellyfishParams(seed=6), synthgen.pwm_schedule(0.5, dur), dur
    )
    slow, slow_truth = synthgen.gen_jellyfish(
        synthgen.SyntheticJellyfishParams(seed=6), synthgen.pwm_schedule(2.0, dur), dur
    )
    n_fast_onsets = synthgen.pwm_schedule(0.5, dur).onsets_s.size
    n_slow_onsets = synthgen.pwm_schedule(2.0, dur).onsets_s.size
    assert slow_truth.response_onsets_s.size == n_slow_onsets
    assert fast_truth.response_onsets_s.size < n_fast_onsets / 2
    # entrained responses are stronger than the saturated fast ones
    assert slow_truth.response_amplitudes.mean() > fast_truth.response_amplitudes.mean()


def test_stimulus_channel_matches_schedule():
    sched = synthgen.pwm_schedule(1.5, 30.0)
    trial, _ = synthgen.gen_jellyfish(
        synthgen.SyntheticJellyfishParams(seed=7), sched, 30.0
    )
    np.testing.assert_array_equal(trial.stimulus, sched.burst_active(FS, trial.n_frames))
    assert trial.condition == "stimulated"
    assert trial.period_s == 1.5


def test_generator_rejects_short_trials():
    with pytest.raises(ValueError):
        synthgen.gen_jellyfish(synthgen.SyntheticJellyfishParams(), None, 5.0)


def test_params_validation():
    with pytest.raises(ValueError):
        synthgen.SyntheticJellyfishParams(contraction_amplitude_mm=20.0)
    with pytest.raises(ValueError):
        synthgen.SyntheticJellyfishParams(rest_outer_mm=10.0)


# ---------------------------------------------------------------------------
# avalanche generator
# ---------------------------------------------------------------------------

def test_avalanche_truth_aligns_with_extraction():
    series, truth = gen_avalanche(-1.5, 300, seed=8)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    assert len(events) == len(truth) - 1
    for extracted, true in zip(events, truth):
        assert abs(extracted.onset_s - true.onset_s) <= 1.0 / FS


def test_avalanche_empty():
    series, truth = gen_avalanche(-1.5, 0, seed=0)
    assert truth == []
    assert criticality.extract_pulses(series, FS, threshold=0.5) == []


def test_avalanche_sizes_proportional_to_durations():
    _, truth = gen_avalanche(-2.0, 500, seed=9, amplitude=2.0)
    durations = np.array([e.duration_s for e in truth])
    sizes = np.array([e.size for e in truth])
    np.testing.assert_allclose(sizes, 2.0 * durations, rtol=1e-12)


def test_avalanche_sizes_within_range():
    _, truth = gen_avalanche(-1.2, 2000, seed=10, size_range=(0.5, 50.0))
    sizes = np.array([e.size for e in truth])
    assert sizes.min() >= 0.5 - 1.0 / FS
    assert sizes.max() <= 50.0 + 1.0 / FS


def test_avalanche_validates_exponent():
    with pytest.raises(ValueError):
        gen_avalanche(-0.5, 100)


def test_avalanche_cosine_kernel_runs():
    series, truth = gen_avalanche(-1.5, 200, kernel="cosine", seed=11)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    assert len(events) == len(truth) - 1
