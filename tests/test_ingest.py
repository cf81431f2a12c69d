import numpy as np
import pytest

from medusa import ingest
from medusa.errors import DegenerateCorners, NoConfidentView, NoOnsetsFound
from medusa.table import write_csv

UNIT_RECT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def random_projective(rng, scale=1.0):
    h = np.eye(3)
    h[:2, :2] += rng.uniform(-0.2, 0.2, (2, 2))
    h[:2, 2] = rng.uniform(-0.3, 0.3, 2) * scale
    h[2, :2] = rng.uniform(-0.05, 0.05, 2) / scale
    return h


def rectify(corners, points, rect=ingest.RECT_CORNERS):
    """Map image points by the homography that sends ``corners`` onto the
    rectangle, as `ingest.rectify_view` does for a whole view."""
    h = ingest.solve_homography(corners, rect)
    return ingest.apply_homography(h, points)


def test_rectify_identity_on_unit_rectangle():
    out = rectify(UNIT_RECT, np.array([[0.5, 0.5]]), rect=UNIT_RECT)
    np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-12)


def test_rectify_inverts_random_projective_transform():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = random_projective(rng)
        corners = ingest.apply_homography(h, UNIT_RECT)
        truth = rng.uniform(0.05, 0.95, (10, 2))
        image = ingest.apply_homography(h, truth)
        recovered = rectify(corners, image, rect=UNIT_RECT)
        np.testing.assert_allclose(recovered, truth, atol=1e-9)


def test_rectify_collinear_corners_raise():
    corners = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DegenerateCorners):
        rectify(corners, np.zeros((1, 2)))


def test_rectification_is_idempotent():
    rng = np.random.default_rng(11)
    h = random_projective(rng, scale=150.0)
    rect = ingest.RECT_CORNERS
    corners = ingest.apply_homography(h, rect)
    once = rectify(corners, corners)
    np.testing.assert_allclose(once, rect, atol=1e-9 * 150)
    twice = rectify(once, once)
    assert np.abs(twice - once).max() < 1e-9 * 150


def make_views(points_mm, conf=None, led=None, pixel_h=None, rng=None):
    """Project (n, 8, 3) mm positions into the three canonical views."""
    n = points_mm.shape[0]
    conf = np.ones((n, 8)) if conf is None else conf
    led = np.zeros((n, 2)) if led is None else led
    face = {
        "top": points_mm[:, :, [0, 1]],
        "behind": points_mm[:, :, [0, 2]],
        "right": points_mm[:, :, [1, 2]],
    }
    rect = ingest.RECT_CORNERS
    views = {}
    for name in ingest.VIEW_NAMES:
        h = np.eye(3) if pixel_h is None else pixel_h[name]
        views[name] = ingest.RawViewSeries(
            view=name,
            corners=np.broadcast_to(ingest.apply_homography(h, rect), (n, 4, 2)).copy(),
            corners_conf=np.ones((n, 4)),
            markers=ingest.apply_homography(h, face[name]),
            markers_conf=conf.copy(),
            led=led.copy(),
            frame_rate=60.0,
        )
    return views


def write_view_csv(path, view):
    """Write one view to CSV in the canonical 12-point layout that
    `ingest.read_view_csv` reads."""
    columns = [np.arange(view.n_frames)]
    for xy, conf in ((view.corners, view.corners_conf), (view.markers, view.markers_conf)):
        for p in range(xy.shape[1]):
            columns += [xy[:, p, 0], xy[:, p, 1], conf[:, p]]
    columns += [view.led[:, 0], view.led[:, 1]]
    write_csv(path, ingest.VIEW_COLUMNS, columns)


def ring_positions(n, center=(75.0, 75.0, 75.0)):
    pos = np.empty((n, 8, 3))
    angles = {"R": 0.0, "Y": np.pi / 2, "O": np.pi, "B": 1.5 * np.pi}
    for m, label in enumerate(ingest.MARKER_LABELS):
        color, ring = label[0], int(label[1])
        r = 12.0 if ring == 2 else 25.0
        z = 0.0 if ring == 2 else -8.0
        pos[:, m] = np.array(center) + [r * np.cos(angles[color]), r * np.sin(angles[color]), z]
    return pos


def test_assemble_3d_recovers_known_point_through_pixel_views():
    rng = np.random.default_rng(5)
    pos = ring_positions(50)
    pixel_h = {name: random_projective(rng, scale=150.0) for name in ingest.VIEW_NAMES}
    views = make_views(pos, pixel_h=pixel_h)
    rectified = {k: ingest.rectify_view(v) for k, v in views.items()}
    trial = ingest.assemble_3d(rectified["top"], rectified["behind"], rectified["right"])
    np.testing.assert_allclose(trial.positions, pos, atol=1e-6)
    assert trial.valid_mask.all()


def test_assemble_uses_single_confident_mirror():
    pos = ring_positions(10)
    pos[:, :, 2] += 3.0
    conf = np.ones((10, 8))
    views = make_views(pos, conf=conf)
    views["behind"].markers[:, :, 1] += 100.0  # corrupt the z it would contribute
    views["behind"].markers_conf[:] = 0.0
    for v in views.values():
        v.rectified = True
    trial = ingest.assemble_3d(views["top"], views["behind"], views["right"])
    np.testing.assert_allclose(trial.positions, pos, atol=1e-9)


def test_assemble_mirror_average():
    pos = ring_positions(10)
    views = make_views(pos)
    views["behind"].markers[:, :, 1] += 2.0
    views["right"].markers[:, :, 1] -= 2.0
    for v in views.values():
        v.rectified = True
    trial = ingest.assemble_3d(views["top"], views["behind"], views["right"])
    np.testing.assert_allclose(trial.positions[:, :, 2], pos[:, :, 2], atol=1e-9)


def test_assemble_marks_long_blind_stretch_invalid():
    pos = ring_positions(1000)
    conf = np.ones((1000, 8))
    views = make_views(pos, conf=conf)
    views["behind"].markers_conf[100:500, 0] = 0.0
    views["right"].markers_conf[100:500, 0] = 0.0
    for v in views.values():
        v.rectified = True
    trial = ingest.assemble_3d(views["top"], views["behind"], views["right"])
    assert not trial.valid_mask[100:500].any()
    assert trial.valid_mask[:100].all() and trial.valid_mask[500:].all()


def test_blocked_homography_is_bitwise_one_product(monkeypatch):
    rng = np.random.default_rng(9)
    h = random_projective(rng, scale=40.0)
    points = rng.uniform(-50.0, 200.0, size=(1_001, 8, 2))
    flat = points.reshape(-1, 2)
    hom = np.column_stack([flat, np.ones(len(flat))]) @ h.T
    one_product = (hom[:, :2] / hom[:, 2:3]).reshape(points.shape)
    for block in (2, 7, 1_000, 10_000):     # 8 008 points in blocks of 2 up to one
        monkeypatch.setattr(ingest, "HOMOGRAPHY_BLOCK", block)
        np.testing.assert_array_equal(ingest.apply_homography(h, points), one_product)
    single = rng.uniform(0.0, 1.0, size=(1, 2))
    hom = np.append(single, 1.0) @ h.T
    np.testing.assert_array_equal(ingest.apply_homography(h, single), [hom[:2] / hom[2]])
    for shape in ((0, 2), (0, 8, 2), (5, 0, 2)):     # no points: an empty result
        assert ingest.apply_homography(h, np.empty(shape)).shape == shape


def test_views_reduced_to_their_markers_assemble_alike():
    rng = np.random.default_rng(4)
    n = 300
    conf = rng.choice([0.0, 0.59, 0.6, 0.9, np.nan], size=(n, 8))
    conf[:, 3] = 1.0       # every marker's depth is seen somewhere
    views = {name: ingest.rectify_view(v) for name, v in
             make_views(ring_positions(n), conf=conf, pixel_h={
                 name: random_projective(rng) for name in ingest.VIEW_NAMES}).items()}
    reduced = {name: v.markers_only() for name, v in views.items()}
    assert all(v.corners is None and v.led is None for v in reduced.values())
    assert all(v.n_frames == n and v.markers_conf.dtype == bool for v in reduced.values())
    whole = ingest.assemble_3d(views["top"], views["behind"], views["right"])
    got = ingest.assemble_3d(reduced["top"], reduced["behind"], reduced["right"])
    np.testing.assert_array_equal(got.positions, whole.positions)
    np.testing.assert_array_equal(got.valid_mask, whole.valid_mask)


def test_assemble_raises_when_marker_depth_never_seen():
    pos = ring_positions(20)
    views = make_views(pos)
    views["behind"].markers_conf[:, 3] = 0.0
    views["right"].markers_conf[:, 3] = 0.0
    for v in views.values():
        v.rectified = True
    with pytest.raises(NoConfidentView):
        ingest.assemble_3d(views["top"], views["behind"], views["right"])


def make_trial(positions, stim=None):
    n = positions.shape[0]
    return ingest.TrialRecording(
        animal_id="T",
        condition="spontaneous",
        positions=positions,
        stimulus=np.zeros(n, dtype=np.uint8) if stim is None else stim,
        frame_rate=60.0,
    )


def test_interpolate_fills_short_gap_linearly():
    pos = ring_positions(5)
    pos[:, 0, 0] = [0.0, np.nan, np.nan, np.nan, 4.0]
    trial = make_trial(pos)
    out = ingest.interpolate_gaps(trial, max_gap_frames=5)
    np.testing.assert_allclose(out.positions[:, 0, 0], [0, 1, 2, 3, 4], atol=1e-12)
    assert out.valid_mask.all()


def test_interpolate_leaves_long_gap_invalid():
    pos = ring_positions(10)
    pos[2:8, 0, 0] = np.nan
    trial = make_trial(pos)
    out = ingest.interpolate_gaps(trial, max_gap_frames=5)
    assert np.isnan(out.positions[2:8, 0, 0]).all()
    assert not out.valid_mask[2:8].any()


def test_interpolate_identity_without_gaps():
    pos = ring_positions(8)
    trial = make_trial(pos)
    out = ingest.interpolate_gaps(trial)
    np.testing.assert_array_equal(out.positions, pos)


def test_interpolate_never_invalidates_valid_frames():
    rng = np.random.default_rng(9)
    for _ in range(20):
        pos = ring_positions(60)
        mask = rng.random((60, 8, 3)) < 0.1
        pos[mask] = np.nan
        trial = make_trial(pos)
        out = ingest.interpolate_gaps(trial, max_gap_frames=3)
        assert np.all(out.valid_mask[trial.valid_mask])


def test_align_stimulus_square_trace():
    fs = 60.0
    frames = np.arange(int(30 * fs))
    led = (frames % 120 < 6).astype(float)  # 0.1 s burst every 2.0 s
    active, onsets = ingest.align_stimulus(led, 0.5, fs)
    assert onsets.size == 15
    np.testing.assert_allclose(np.diff(onsets), 2.0, atol=1e-9)
    assert active.sum() == 15 * 6


def test_align_stimulus_never_crossing_raises():
    with pytest.raises(NoOnsetsFound):
        ingest.align_stimulus(np.zeros(100), 0.5, 60.0)


def test_align_stimulus_single_pulse_frames():
    fs = 60.0
    led = np.zeros(240)
    led[60:66] = 1.0  # 0.1 s pulse at t = 1 s
    active, onsets = ingest.align_stimulus(led, 0.5, fs)
    assert onsets[0] == pytest.approx(1.0)
    assert np.flatnonzero(active).tolist() == list(range(60, 66))


def test_view_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pos = ring_positions(30)
    led = rng.random((30, 2))
    views = make_views(pos, led=led)
    path = tmp_path / "v_top.csv"
    write_view_csv(path, views["top"])
    back = ingest.read_view_csv(path, "top", 60.0)
    np.testing.assert_allclose(back.markers, views["top"].markers, rtol=1e-6)
    np.testing.assert_allclose(back.led, led, rtol=1e-6)


def test_trial_csv_roundtrip(tmp_path):
    pos = ring_positions(40)
    pos[5, 2, 1] = np.nan
    stim = np.zeros(40, dtype=np.uint8)
    stim[10:16] = 1
    trial = ingest.TrialRecording("JF01", "stimulated", pos, stim, 60.0, period_s=2.0)
    path = tmp_path / "trial.csv"
    ingest.write_trial_csv(trial, path)
    back = ingest.read_trial_csv(path)
    assert back.animal_id == "JF01"
    assert back.condition == "stimulated"
    assert back.period_s == 2.0
    np.testing.assert_allclose(back.positions, pos, rtol=1e-6, equal_nan=True)
    np.testing.assert_array_equal(back.stimulus, stim)
    np.testing.assert_array_equal(back.valid_mask, trial.valid_mask)
