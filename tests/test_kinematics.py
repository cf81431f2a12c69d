import itertools

import numpy as np
import pytest
from scipy import signal as sp_signal

from medusa import ingest, kinematics, synthgen
from medusa.errors import DegenerateRing, TooShort, ZeroVariance


def make_trial(positions, fs=60.0):
    n = positions.shape[0]
    return ingest.TrialRecording(
        "T", "spontaneous", positions, np.zeros(n, dtype=np.uint8), frame_rate=fs
    )


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# pairwise lengths
# ---------------------------------------------------------------------------

def test_unit_cube_lengths():
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    trial = make_trial(corners[None, :, :])
    lengths = kinematics.pairwise_lengths(trial)
    assert lengths.values.shape == (1, 28)
    values = np.sort(lengths.values[0])
    expected = np.sort([1.0] * 12 + [np.sqrt(2)] * 12 + [np.sqrt(3)] * 4)
    np.testing.assert_allclose(values, expected, atol=1e-12)


def test_coincident_markers_zero_lengths():
    trial = make_trial(np.zeros((3, 8, 3)))
    lengths = kinematics.pairwise_lengths(trial)
    np.testing.assert_array_equal(lengths.values, 0.0)


def test_radial_lengths_equal_for_symmetric_body_at_rest():
    params = synthgen.SyntheticJellyfishParams(contraction_amplitude_mm=0.0, seed=0)
    trial, _ = synthgen.gen_jellyfish(params, None, 12.0)
    radial = kinematics.pairwise_lengths(trial).radial
    assert np.ptp(radial) < 1e-9


def test_pair_name_sets_disjoint():
    radial = set(kinematics.RADIAL_PAIR_NAMES)
    coronal = set(kinematics.CORONAL_PAIR_NAMES)
    assert len(radial) == len(coronal) == 4
    assert not radial & coronal
    assert radial | coronal <= set(kinematics.PAIR_NAMES)
    assert len(kinematics.PAIR_NAMES) == 28


# ---------------------------------------------------------------------------
# body frame
# ---------------------------------------------------------------------------

def aligned_positions(n=4):
    """A constellation already satisfying both frame constraints."""
    pos = np.empty((n, 8, 3))
    angles = {"R": -3 * np.pi / 4, "Y": 3 * np.pi / 4, "O": np.pi / 4, "B": -np.pi / 4}
    for m, label in enumerate(ingest.MARKER_LABELS):
        color, ring = label[0], int(label[1])
        r = 10.0 if ring == 2 else 20.0
        z = 5.0 if ring == 2 else -5.0
        pos[:, m] = [r * np.cos(angles[color]), r * np.sin(angles[color]), z]
    return pos


def test_body_frame_identity_for_aligned_configuration():
    pose = kinematics.body_frame(make_trial(aligned_positions()))
    np.testing.assert_allclose(pose.euler_zyz, 0.0, atol=1e-12)
    np.testing.assert_allclose(pose.rotation[0], np.eye(3), atol=1e-12)


def test_body_frame_realigns_rotated_configuration():
    rng = np.random.default_rng(21)
    base = aligned_positions(1)[0]
    for _ in range(100):
        rot = random_rotation(rng)
        shift = rng.uniform(-40, 40, 3)
        pos = (base @ rot.T + shift)[None]
        trial = make_trial(pos)
        pose = kinematics.body_frame(trial)
        r_wb = pose.rotation[0]
        inner = pos[0, [1, 3, 5, 7]].mean(axis=0)
        outer = pos[0, [0, 2, 4, 6]].mean(axis=0)
        axis_bf = r_wb @ (inner - outer)
        assert abs(axis_bf[0]) < 1e-9 and abs(axis_bf[1]) < 1e-9
        assert axis_bf[2] > 0
        chord_bf = r_wb @ (pos[0, 5] - pos[0, 3])  # Y2 -> O2
        assert abs(chord_bf[1]) < 1e-9
        assert chord_bf[0] > 0
        # euler angles must reproduce the body-to-world matrix
        np.testing.assert_allclose(
            kinematics.euler_zyz_to_matrix(pose.euler_zyz[0]), r_wb.T, atol=1e-9
        )


def test_body_frame_com_and_radius_simple():
    pos = aligned_positions(1)
    inner_idx = [1, 3, 5, 7]
    pos[0, inner_idx, :] = [[1, 0, 2], [-1, 0, 2], [0, 1, 2], [0, -1, 2]]
    pose = kinematics.body_frame(make_trial(pos))
    np.testing.assert_allclose(pose.com[0], [0, 0, 2], atol=1e-12)
    assert pose.inner_radius[0] == pytest.approx(1.0)


def test_body_frame_collinear_ring_raises():
    pos = aligned_positions(2)
    pos[:, [1, 3, 5, 7], :] = np.array([[i, 0.0, 3.0] for i in range(4)])
    with pytest.raises(DegenerateRing):
        kinematics.body_frame(make_trial(pos))


def test_rotation_matrices_orthonormal_on_generated_data():
    params = synthgen.SyntheticJellyfishParams(seed=2, noise_sd_mm=0.3)
    trial, _ = synthgen.gen_jellyfish(params, None, 20.0)
    pose = kinematics.body_frame(trial)
    rtr = np.einsum("nij,nkj->nik", pose.rotation, pose.rotation)
    assert np.abs(rtr - np.eye(3)).max() < 1e-9
    det = np.linalg.det(pose.rotation)
    assert np.abs(det - 1).max() < 1e-9


def test_rigid_body_invariance():
    rng = np.random.default_rng(4)
    params = synthgen.SyntheticJellyfishParams(seed=5, noise_sd_mm=0.0)
    trial, _ = synthgen.gen_jellyfish(params, synthgen.pwm_schedule(2.0, 20.0), 20.0)
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)

    rot = random_rotation(rng)
    shift = rng.uniform(-30, 30, 3)
    moved = make_trial(trial.positions @ rot.T + shift)
    lengths2 = kinematics.pairwise_lengths(moved)
    pose2 = kinematics.body_frame(moved)
    v2 = kinematics.local_velocities(moved, pose2)

    assert np.abs(lengths2.values - lengths.values).max() < 1e-9
    assert np.abs(pose2.inner_radius - pose.inner_radius).max() < 1e-9
    assert np.abs(pose2.outer_radius - pose.outer_radius).max() < 1e-9
    assert np.abs(v2 - v).max() < 1e-9


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def test_linear_motion_constant_velocity():
    pos = aligned_positions(120)
    t = np.arange(120) / 60.0
    pos[:, :, 0] += (10.0 * t)[:, None]
    trial = make_trial(pos)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    np.testing.assert_allclose(v[:, 0], 10.0, atol=1e-9)
    np.testing.assert_allclose(v[:, 1:], 0.0, atol=1e-9)


def test_stationary_trial_zero_velocity():
    trial = make_trial(aligned_positions(60))
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    np.testing.assert_allclose(v, 0.0, atol=1e-12)


def test_sinusoid_velocity_matches_discrete_transfer_gain():
    fs, f0, amp, n = 60.0, 0.5, 3.0, 1200
    pos = aligned_positions(n)
    k = np.arange(n)
    pos[:, :, 2] += (amp * np.sin(2 * np.pi * f0 * k / fs))[:, None]
    trial = make_trial(pos)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)

    w = 2 * np.pi * f0 / fs
    dirichlet = (1 + 2 * np.cos(w) + 2 * np.cos(2 * w)) / 5  # centered 5-point average
    expected = amp * fs * 2 * np.sin(w / 2) * dirichlet * np.cos(w * (k + 0.5))
    np.testing.assert_allclose(v[2:-4, 2], expected[2:-4], atol=1e-6)
    gain = fs * 2 * np.sin(w / 2) * dirichlet / (2 * np.pi * f0)
    assert np.abs(v[2:-4, 2]).max() == pytest.approx(2 * np.pi * f0 * amp * gain, rel=1e-3)


def test_moving_average_shrinks_at_edges():
    x = np.arange(10.0)
    out = kinematics.moving_average(x, 5)
    assert out[0] == pytest.approx(np.mean(x[:3]))
    assert out[1] == pytest.approx(np.mean(x[:4]))
    assert out[5] == pytest.approx(np.mean(x[3:8]))
    assert out[-1] == pytest.approx(np.mean(x[-3:]))


# ---------------------------------------------------------------------------
# filtering and standardization
# ---------------------------------------------------------------------------

def test_lowpass_preserves_dc():
    x = np.full(600, 4.2)
    np.testing.assert_allclose(kinematics.lowpass_3hz(x, 60.0), 4.2, atol=1e-9)


def _filtfilt_gain(freq_hz, fs=60.0):
    b, a = sp_signal.butter(2, 3.0, fs=fs)
    _, h = sp_signal.freqz(b, a, worN=[freq_hz], fs=fs)
    return np.abs(h[0]) ** 2  # forward-backward squares the magnitude


def test_lowpass_attenuates_10hz():
    fs, n = 60.0, 3600
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 10.0 * t)
    y = kinematics.lowpass_3hz(x, fs)
    out_rms = np.sqrt(np.mean(y[300:-300] ** 2))
    in_rms = np.sqrt(np.mean(x**2))
    assert out_rms / in_rms < 0.05
    assert out_rms / in_rms == pytest.approx(_filtfilt_gain(10.0), rel=0.05)


def test_lowpass_passes_slow_oscillation():
    fs, n = 60.0, 3600
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 0.45 * t)
    y = kinematics.lowpass_3hz(x, fs)
    core = slice(600, -600)
    ratio = np.abs(y[core]).max() / np.abs(x[core]).max()
    assert ratio == pytest.approx(1.0, abs=0.02)
    assert ratio == pytest.approx(_filtfilt_gain(0.45), abs=0.02)


def test_butter_coefficients_bitwise_equal_to_scipy():
    for fs in (10.0, 25.0, 30.0, 50.0, 59.94, 60.0, 100.0, 120.0, 240.0, 1000.0):
        for cutoff in (0.5, 1.0, 2.0, 3.0, 4.5, 4.9):
            b, a = kinematics._butter_lowpass(cutoff, fs)
            want_b, want_a = sp_signal.butter(2, cutoff, fs=fs)
            assert np.array_equal(b, want_b) and np.array_equal(a, want_a), (cutoff, fs)


def test_lowpass_forgetting_steps_at_3hz_60hz():
    _, a = sp_signal.butter(2, 3.0, fs=60.0)
    step = np.array([[-a[1], 1.0], [-a[2], 0.0]])
    w = kinematics._forgetting_steps(step)
    assert w == 180
    assert np.linalg.norm(np.linalg.matrix_power(step, w), 2) <= 1e-17
    assert np.linalg.norm(np.linalg.matrix_power(step, w - 1), 2) > 1e-17


@pytest.mark.parametrize("channels", [1, 24])
def test_lowpass_bitwise_equal_to_scipy_filtfilt(channels):
    fs = 60.0
    b, a = sp_signal.butter(2, 3.0, fs=fs)
    rng = np.random.default_rng(channels)
    # 121 and 300 rows are short valid runs; 479 pads to 4W - 1 = 719 rows,
    # the longest series stepped as one chunk; 2101 and 36 001 pad to
    # primes, so no chunk count divides them; 36 000 is the reference
    # trial's length
    for n in (121, 300, 479, 2101, 36_000, 36_001):
        x = 100.0 + np.cumsum(rng.normal(size=(n, channels)), axis=0)
        if channels == 1:
            x = x[:, 0]
        want = sp_signal.filtfilt(b, a, x, axis=0, padlen=120)
        assert np.array_equal(kinematics.lowpass_3hz(x, fs), want), n


def test_lowpass_propagates_nan_like_scipy():
    x = np.random.default_rng(4).normal(size=(3000, 3))
    x[1000:1003, 1] = np.nan
    b, a = sp_signal.butter(2, 3.0, fs=60.0)
    want = sp_signal.filtfilt(b, a, x, axis=0, padlen=120)
    assert np.array_equal(kinematics.lowpass_3hz(x, 60.0), want, equal_nan=True)


def test_lowpass_too_short_raises():
    with pytest.raises(TooShort):
        kinematics.lowpass_3hz(np.zeros(10), 60.0)


def test_lowpass_commutes_with_time_reversal():
    rng = np.random.default_rng(8)
    x = rng.normal(size=500)
    fwd = kinematics.lowpass_3hz(x, 60.0)
    rev = kinematics.lowpass_3hz(x[::-1], 60.0)
    np.testing.assert_allclose(rev[::-1], fwd, atol=1e-9)


def test_standardize_basic():
    out = kinematics.standardize(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [-1.22474487, 0.0, 1.22474487], atol=1e-8)


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.5, size=(400, 3))
    once = kinematics.standardize(x)
    twice = kinematics.standardize(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_standardize_constant_raises():
    with pytest.raises(ZeroVariance):
        kinematics.standardize(np.ones(50))


def test_standardize_keeps_invalid_rows_local():
    rng = np.random.default_rng(4)
    x = rng.normal(3.0, 2.5, size=(400, 3))
    gappy = x.copy()
    gappy[100:120, 1] = np.nan
    keep = np.ones(400, dtype=bool)
    keep[100:120] = False
    out = kinematics.standardize(gappy)
    assert np.isnan(out[100:120, 1]).all()
    np.testing.assert_array_equal(out[keep], kinematics.standardize(x[keep]))


def test_standardize_commutes_with_time_reversal():
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    np.testing.assert_allclose(
        kinematics.standardize(x[::-1])[::-1], kinematics.standardize(x), atol=1e-12
    )


# ---------------------------------------------------------------------------
# euler helpers
# ---------------------------------------------------------------------------

def test_euler_roundtrip_random_angles():
    rng = np.random.default_rng(3)
    angles = np.column_stack([
        rng.uniform(-np.pi, np.pi, 200),
        rng.uniform(0.05, np.pi - 0.05, 200),
        rng.uniform(-np.pi, np.pi, 200),
    ])
    m = kinematics.euler_zyz_to_matrix(angles)
    back = kinematics.matrix_to_euler_zyz(m)
    np.testing.assert_allclose(back, angles, atol=1e-9)


def test_euler_gimbal_convention():
    m = kinematics.euler_zyz_to_matrix(np.array([0.4, 0.0, 0.3]))
    angles = kinematics.matrix_to_euler_zyz(m)
    assert angles[0] == pytest.approx(0.0, abs=1e-12)
    assert angles[1] == pytest.approx(0.0, abs=1e-12)
    assert angles[2] == pytest.approx(0.7, abs=1e-12)
