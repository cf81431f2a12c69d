import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
# coordinate-plane kernels against the per-frame ones they replaced
# ---------------------------------------------------------------------------

def pairwise_lengths_per_frame(trial):
    """pairwise_lengths as it was: fancy-indexed (n, 28, 3) differences."""
    pos = trial.positions
    i_idx = np.array([p[0] for p in kinematics.PAIR_INDICES])
    j_idx = np.array([p[1] for p in kinematics.PAIR_INDICES])
    return np.linalg.norm(pos[:, i_idx, :] - pos[:, j_idx, :], axis=2)


def second_moment_rank2_per_frame(points):
    """_second_moment_rank2 as it was: eigenvalues of every (m, k, 3) frame."""
    centered = points - points.mean(axis=1, keepdims=True)
    moment = np.einsum("nij,nik->njk", centered, centered)
    eig = np.linalg.eigvalsh(moment)
    scale = np.maximum(eig[:, 2], np.finfo(float).tiny)
    return eig[:, 1] > 1e-12 * scale


def body_frame_per_frame(trial):
    """body_frame as it was: (m, k, 3) ring arrays and numpy reductions."""
    pos = trial.positions
    n = trial.n_frames
    com = np.full((n, 3), np.nan)
    inner_r = np.full(n, np.nan)
    outer_r = np.full(n, np.nan)
    euler = np.full((n, 3), np.nan)
    rot = np.full((n, 3, 3), np.nan)
    idx = np.flatnonzero(trial.valid_mask)
    if idx.size:
        inner = pos[idx][:, kinematics.INNER_IDX, :]
        outer = pos[idx][:, kinematics.OUTER_IDX, :]
        if not np.all(second_moment_rank2_per_frame(inner)):
            raise DegenerateRing("inner ring markers are collinear on a valid frame")
        if not np.all(second_moment_rank2_per_frame(outer)):
            raise DegenerateRing("outer ring markers are collinear on a valid frame")
        c = inner.mean(axis=1)
        axis = c - outer.mean(axis=1)
        axis_norm = np.linalg.norm(axis, axis=1)
        if np.any(axis_norm < 1e-12):
            raise DegenerateRing("ring centers coincide; body axis undefined")
        e_z = axis / axis_norm[:, None]
        d = pos[idx, 5, :] - pos[idx, 3, :]     # Y2 -> O2
        d_perp = d - np.sum(d * e_z, axis=1)[:, None] * e_z
        d_norm = np.linalg.norm(d_perp, axis=1)
        if np.any(d_norm < 1e-12):
            raise DegenerateRing("Y2->O2 segment is parallel to the body axis")
        e_x = d_perp / d_norm[:, None]
        r_wb = np.stack([e_x, np.cross(e_z, e_x), e_z], axis=1)
        com[idx] = c
        inner_r[idx] = np.linalg.norm(inner - c[:, None, :], axis=2).mean(axis=1)
        outer_r[idx] = np.linalg.norm(outer - c[:, None, :], axis=2).mean(axis=1)
        rot[idx] = r_wb
        euler[idx] = kinematics.matrix_to_euler_zyz(np.swapaxes(r_wb, 1, 2))
    return kinematics.BodyFrameSeries(com=com, inner_radius=inner_r, outer_radius=outer_r,
                                      euler_zyz=euler, rotation=rot,
                                      frame_rate=trial.frame_rate)


def layout(a):
    """Contiguity flags and the strides of every axis longer than 1 (the
    stride of a length-1 axis is never stepped)."""
    return (a.flags.c_contiguous, a.flags.f_contiguous,
            tuple(step for step, size in zip(a.strides, a.shape) if size > 1))


POSE_FIELDS = ("com", "inner_radius", "outer_radius", "euler_zyz", "rotation")


def assert_kernels_bitwise(trial):
    """Lengths (values and strides) and pose equal the per-frame kernels',
    or both raise DegenerateRing."""
    got = kinematics.pairwise_lengths(trial).values
    want = pairwise_lengths_per_frame(trial)
    assert np.array_equal(got, want, equal_nan=True)
    assert layout(got) == layout(want)
    try:
        want_pose = body_frame_per_frame(trial)
    except DegenerateRing as err:
        with pytest.raises(DegenerateRing, match=str(err)):
            kinematics.body_frame(trial)
        return
    pose = kinematics.body_frame(trial)
    for field in POSE_FIELDS:
        assert np.array_equal(getattr(pose, field), getattr(want_pose, field), equal_nan=True), field


def generated_trial(seed, tau, seconds=20.0):
    schedule = synthgen.pwm_schedule(tau, seconds) if tau else None
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    return synthgen.gen_jellyfish(params, schedule, seconds)[0]


def with_positions(trial, positions):
    return replace(trial, positions=positions, stimulus=trial.stimulus[:len(positions)],
                   valid_mask=None)


@pytest.mark.parametrize("seed,tau", [(7, 2.0), (3, 0.5), (11, None), (4, None)])
def test_plane_kernels_bitwise_on_generated_trials(seed, tau):
    assert_kernels_bitwise(generated_trial(seed, tau))


def test_plane_kernels_bitwise_on_a_trial_read_back_from_csv(tmp_path):
    trial = generated_trial(5, 1.5, seconds=10.0)
    ingest.write_trial_csv(trial, tmp_path / "trial.csv")
    assert_kernels_bitwise(ingest.read_trial_csv(tmp_path / "trial.csv"))


def test_plane_kernels_bitwise_with_nan_gaps():
    trial = generated_trial(6, 2.0)
    pos = trial.positions.copy()
    pos[100:140, 3] = np.nan          # one marker, 40 frames
    pos[500:502, :, 2] = np.nan       # every z, 2 frames
    pos[-1, 0, 0] = np.nan            # the last frame
    assert_kernels_bitwise(with_positions(trial, pos))


def test_plane_kernels_bitwise_with_no_valid_frame():
    trial = generated_trial(6, None, seconds=10.0)
    pos = trial.positions.copy()
    pos[:, 0] = np.nan
    gappy = with_positions(trial, pos)
    assert not gappy.valid_mask.any()
    assert_kernels_bitwise(gappy)
    assert np.isnan(kinematics.body_frame(gappy).rotation).all()


@pytest.mark.parametrize("block", [1, 97, 1_200])
def test_plane_kernels_bitwise_in_frame_blocks(block, monkeypatch):
    monkeypatch.setattr(kinematics, "FRAME_BLOCK", block)
    trial = generated_trial(6, 2.0)
    pos = trial.positions.copy()
    pos[100:140, 3] = np.nan          # one marker across two 97-frame blocks
    pos[500:502, :, 2] = np.nan
    assert_kernels_bitwise(with_positions(trial, pos))


def test_frame_blocks_raise_the_degeneracy_checked_first(monkeypatch):
    monkeypatch.setattr(kinematics, "FRAME_BLOCK", 50)
    trial = generated_trial(6, 2.0, seconds=10.0)
    pos = trial.positions.copy()
    inner, outer = list(kinematics.INNER_IDX), list(kinematics.OUTER_IDX)
    pos[10, outer] = pos[10, inner]                 # ring centers coincide, block 0
    pos[400, inner] = np.arange(4.0)[:, None] * [1.0, 2.0, 3.0]   # a line, block 8
    degenerate = with_positions(trial, pos)
    with pytest.raises(DegenerateRing, match="inner ring"):
        kinematics.body_frame(degenerate)
    assert_kernels_bitwise(degenerate)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plane_kernels_bitwise_on_one_to_three_frames(n):
    trial = generated_trial(8, 2.0, seconds=10.0)
    assert_kernels_bitwise(with_positions(trial, trial.positions[:n].copy()))


def near_collinear_positions(seed, k, ring):
    """Three aligned frames whose middle one has ``ring`` on a line: integer
    points (exactly collinear) plus a perturbation of relative size 10^-k,
    none when k is None."""
    rng = np.random.default_rng(seed)
    pos = aligned_positions(3) + rng.uniform(-40.0, 40.0, 3)
    origin = rng.integers(-50, 50, 3).astype(float)
    direction = rng.integers(-3, 4, 3).astype(float)
    direction[rng.integers(3)] = rng.choice([-4.0, 4.0])
    line = origin + np.sort(rng.integers(-5, 6, 4))[:, None] * direction
    if k is not None:
        line = line + rng.normal(size=(4, 3)) * np.abs(direction).max() * 10.0 ** -k
    idx = kinematics.INNER_IDX if ring == "inner" else kinematics.OUTER_IDX
    pos[1, list(idx)] = line
    return pos, list(idx)


def assert_rank_decisions_match(pos, idx):
    trial = make_trial(pos)
    ring = np.ascontiguousarray(pos[:, idx].transpose(2, 1, 0))
    got = kinematics._second_moment_rank2(ring, ring.mean(axis=1))
    want = second_moment_rank2_per_frame(pos[:, idx, :])
    assert np.array_equal(got, want)
    assert_kernels_bitwise(trial)
    return got


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.one_of(st.none(), st.integers(0, 14)),
       ring=st.sampled_from(["inner", "outer"]))
def test_near_collinear_ring_decisions_match_the_eigenvalue_test(seed, k, ring):
    assert_rank_decisions_match(*near_collinear_positions(seed, k, ring))


def test_only_near_collinear_frames_reach_the_eigenvalue_test(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    kinematics.body_frame(generated_trial(7, 2.0))
    assert calls == []
    decided_by_eigenvalues = set()
    for k in [None, *range(15)]:
        for seed in range(4):
            pos, idx = near_collinear_positions(seed, k, "inner")
            ring = np.ascontiguousarray(pos[:, idx].transpose(2, 1, 0))
            calls.clear()
            rank2 = kinematics._second_moment_rank2(ring, ring.mean(axis=1))
            if calls:
                assert calls == [1]          # the middle frame alone
                decided_by_eigenvalues.add(bool(rank2[1]))
            assert_rank_decisions_match(pos, idx)
    # near-collinear rings of both outcomes are left to the eigenvalues
    assert decided_by_eigenvalues == {True, False}


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


@pytest.mark.parametrize("n", range(1, 7))
def test_moving_average_keeps_the_length_of_a_short_series(n):
    x = np.random.default_rng(n).normal(size=(n, 3))
    want = np.array([x[max(t - 2, 0):t + 3].mean(axis=0) for t in range(n)])
    np.testing.assert_allclose(kinematics.moving_average(x, 5), want, rtol=1e-12)
    np.testing.assert_allclose(kinematics.moving_average(x[:, 0], 5), want[:, 0], rtol=1e-12)


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


def test_standardize_is_bitwise_the_shift_then_the_division():
    rng = np.random.default_rng(12)
    x = rng.normal(3.0, 7.0, size=(5_000, 6))
    x[100:120, 2] = np.nan
    kept = x.copy()
    for series in (x, x[:, 4]):
        finite = np.isfinite(series) if series.ndim == 1 else np.isfinite(series).all(axis=1)
        ref = series[finite]
        want = (series - ref.mean(axis=0)) / ref.std(axis=0)
        assert np.array_equal(kinematics.standardize(series), want, equal_nan=True)
    np.testing.assert_array_equal(x, kept)      # the input is left as it was


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
