"""Marker-tracking ingestion: view rectification, 3D assembly, stimulus alignment.

Input format (one CSV per camera view)
--------------------------------------
Columns: ``frame``, then an ``x,y,confidence`` triplet for each of the 12
tracked points (tank corners ``c1..c4``, then the eight body markers
``R1,R2,Y1,Y2,O1,O2,B1,B2``), then LED indicator intensities
``led_on,led_off``.  A JSON sidecar carries trial metadata::

    {"animal_id": "JF41", "condition": "stimulated", "period_s": 2.0,
     "frame_rate": 60.0}

View geometry
-------------
All three views come from a single camera (one top view plus two mirrors),
so frames are already synchronized.  After rectification each view's corner
landmarks map onto a 150 mm square face and the face coordinates are read
as:

* ``top``    -> (x, y)
* ``behind`` -> (x, z)
* ``right``  -> (y, z)

Corner order ``c1..c4`` corresponds to face coordinates
(0,0), (W,0), (W,H), (0,H).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCorners,
    NoConfidentView,
    NoOnsetsFound,
    ValidationError,
)
from .table import read_csv, write_csv

MARKER_LABELS: tuple[str, ...] = ("R1", "R2", "Y1", "Y2", "O1", "O2", "B1", "B2")
OUTER_MARKERS: tuple[str, ...] = ("R1", "Y1", "O1", "B1")
INNER_MARKERS: tuple[str, ...] = ("R2", "Y2", "O2", "B2")
CORNER_LABELS: tuple[str, ...] = ("c1", "c2", "c3", "c4")
LED_LABELS: tuple[str, ...] = ("led_on", "led_off")
VIEW_NAMES: tuple[str, ...] = ("top", "behind", "right")
CONDITIONS: tuple[str, ...] = ("spontaneous", "control_no_stim", "stimulated")

TANK_MM = 150.0
CONFIDENCE_THRESHOLD = 0.6
STANDARD_PERIODS_S = (0.5, 1.0, 1.5, 2.0)
DEFAULT_FRAME_RATE = 60.0


@dataclass
class RawViewSeries:
    """Per-frame 2D point estimates for one camera view."""

    view: str
    corners: np.ndarray        # (n, 4, 2)
    corners_conf: np.ndarray   # (n, 4)
    markers: np.ndarray        # (n, 8, 2)
    markers_conf: np.ndarray   # (n, 8)
    led: np.ndarray            # (n, 2) intensities, columns (on, off)
    frame_rate: float = DEFAULT_FRAME_RATE
    rectified: bool = False

    def __post_init__(self):
        if self.view not in VIEW_NAMES:
            raise ValueError(f"unknown view {self.view!r}, expected one of {VIEW_NAMES}")
        n = self.corners.shape[0]
        for name, arr, shape in (
            ("corners", self.corners, (n, 4, 2)),
            ("corners_conf", self.corners_conf, (n, 4)),
            ("markers", self.markers, (n, 8, 2)),
            ("markers_conf", self.markers_conf, (n, 8)),
            ("led", self.led, (n, 2)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def n_frames(self) -> int:
        return self.corners.shape[0]


@dataclass
class TrialRecording:
    """One experiment's time-synchronized 3D marker series plus metadata.

    ``positions`` is (n_frames, 8, 3) in mm, marker order ``MARKER_LABELS``;
    missing coordinates are NaN.  ``valid_mask`` marks frames where every
    marker coordinate is present.
    """

    animal_id: str
    condition: str
    positions: np.ndarray
    stimulus: np.ndarray
    period_s: float | None = None
    frame_rate: float = DEFAULT_FRAME_RATE
    valid_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.condition == "stimulated" and not self.period_s:
            raise ValueError("stimulated trials require period_s")
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[1:] != (8, 3):
            raise ValueError(f"positions has shape {pos.shape}, expected (n, 8, 3)")
        self.positions = pos
        self.stimulus = np.asarray(self.stimulus, dtype=np.uint8)
        if self.stimulus.shape != (pos.shape[0],):
            raise ValueError("stimulus length does not match frame count")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if self.valid_mask is None:
            self.valid_mask = np.all(np.isfinite(pos), axis=(1, 2))
        else:
            self.valid_mask = np.asarray(self.valid_mask, dtype=bool)
            if self.valid_mask.shape != (pos.shape[0],):
                raise ValueError("valid_mask length does not match frame count")

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.frame_rate

    @property
    def nonstandard_period(self) -> bool:
        """True for stimulated trials whose period is off the standard grid."""
        if self.condition != "stimulated" or self.period_s is None:
            return False
        return not any(abs(self.period_s - p) < 1e-9 for p in STANDARD_PERIODS_S)


# ---------------------------------------------------------------------------
# Homography rectification
# ---------------------------------------------------------------------------

def solve_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Solve the 3x3 projective transform mapping 4 src points onto 4 dst points.

    The system is solved exactly (8 equations, 8 unknowns, h33 = 1).
    Raises DegenerateCorners when the correspondences are rank deficient,
    e.g. when three of the source points are collinear.
    """
    src = np.asarray(src, dtype=float).reshape(4, 2)
    dst = np.asarray(dst, dtype=float).reshape(4, 2)
    rows = []
    rhs = []
    for (x, y), (u, v) in zip(src, dst):
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y])
        rows.append([0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y])
        rhs.extend([u, v])
    a = np.array(rows)
    b = np.array(rhs)
    if np.linalg.matrix_rank(a) < 8:
        raise DegenerateCorners("corner correspondences are rank deficient")
    h = np.linalg.solve(a, b)
    return np.append(h, 1.0).reshape(3, 3)


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 3x3 projective transform to (..., 2) points."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    hom = np.column_stack([flat, np.ones(len(flat))]) @ h.T
    out = hom[:, :2] / hom[:, 2:3]
    return out.reshape(pts.shape)


def rect_corners(rect_size: tuple[float, float] = (TANK_MM, TANK_MM)) -> np.ndarray:
    w, hgt = rect_size
    return np.array([[0.0, 0.0], [w, 0.0], [w, hgt], [0.0, hgt]])


def rectify_homography(
    corners: np.ndarray,
    points: np.ndarray,
    rect_size: tuple[float, float] = (TANK_MM, TANK_MM),
) -> np.ndarray:
    """Map image points into tank-face coordinates.

    ``corners`` are the 4 observed corner landmarks; the returned transform
    sends them exactly onto the declared rectangle (default the 150 mm
    square tank face) and maps ``points`` with the same transform.
    """
    h = solve_homography(corners, rect_corners(rect_size))
    return apply_homography(h, points)


def rectify_view(
    view: RawViewSeries,
    rect_size: tuple[float, float] = (TANK_MM, TANK_MM),
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
) -> RawViewSeries:
    """Rectify a whole view using one homography from its corner landmarks.

    The tank corners are physically static, so a single transform is solved
    from the per-corner median over confident frames; per-frame corner
    estimates only jitter around it.
    """
    med = np.empty((4, 2))
    for c in range(4):
        ok = view.corners_conf[:, c] >= confidence_threshold
        if not np.any(ok):
            ok = np.isfinite(view.corners[:, c]).all(axis=1)
        if not np.any(ok):
            raise DegenerateCorners(f"corner {c + 1} never observed in view {view.view!r}")
        med[c] = np.nanmedian(view.corners[ok, c], axis=0)
    h = solve_homography(med, rect_corners(rect_size))
    return replace(
        view,
        corners=apply_homography(h, view.corners),
        markers=apply_homography(h, view.markers),
        rectified=True,
    )


# ---------------------------------------------------------------------------
# 3D assembly
# ---------------------------------------------------------------------------

def assemble_3d(
    top: RawViewSeries,
    behind: RawViewSeries,
    right: RawViewSeries,
    animal_id: str = "",
    condition: str = "spontaneous",
    period_s: float | None = None,
    confidence_threshold: float = CONFIDENCE_THRESHOLD,
) -> TrialRecording:
    """Combine three rectified views into approximate 3D marker positions.

    x and y come from the top view.  z is the mean of the two mirror-view
    readings where both are confident, else the single confident reading;
    frames with no confident mirror reading are left NaN (invalid) for
    `interpolate_gaps` to fill within its budget.  A marker whose depth is
    never observed at all raises NoConfidentView.
    """
    for v, name in ((top, "top"), (behind, "behind"), (right, "right")):
        if v.view != name:
            raise ValueError(f"expected view {name!r}, got {v.view!r}")
        if not v.rectified:
            raise ValueError(f"view {name!r} is not rectified")
    n = top.n_frames
    if behind.n_frames != n or right.n_frames != n:
        raise ValueError("views do not share one frame count")

    pos = np.full((n, 8, 3), np.nan)
    top_ok = top.markers_conf >= confidence_threshold
    behind_ok = behind.markers_conf >= confidence_threshold
    right_ok = right.markers_conf >= confidence_threshold

    for m in range(8):
        ok = top_ok[:, m]
        pos[ok, m, 0] = top.markers[ok, m, 0]
        pos[ok, m, 1] = top.markers[ok, m, 1]

        z_b = np.where(behind_ok[:, m], behind.markers[:, m, 1], np.nan)
        z_r = np.where(right_ok[:, m], right.markers[:, m, 1], np.nan)
        both = behind_ok[:, m] & right_ok[:, m]
        either = behind_ok[:, m] | right_ok[:, m]
        if not np.any(either):
            raise NoConfidentView(
                f"marker {MARKER_LABELS[m]} has no confident depth reading in either mirror"
            )
        z = np.where(both, 0.5 * (z_b + z_r), np.where(behind_ok[:, m], z_b, z_r))
        pos[either, m, 2] = z[either]

    stim = np.zeros(n, dtype=np.uint8)
    return TrialRecording(
        animal_id=animal_id,
        condition=condition,
        period_s=period_s,
        positions=pos,
        stimulus=stim,
        frame_rate=top.frame_rate,
    )


def interpolate_gaps(trial: TrialRecording, max_gap_frames: int = 5) -> TrialRecording:
    """Fill short NaN runs by per-coordinate linear interpolation.

    Gaps of at most ``max_gap_frames`` frames bounded by valid samples on
    both sides are filled; longer gaps and gaps touching the series ends
    stay invalid.  Never invalidates a frame that was already valid.
    """
    if max_gap_frames < 0:
        raise ValueError("max_gap_frames must be >= 0")
    n = trial.n_frames
    pos = trial.positions.reshape(n, 24).copy()
    for col in range(24):
        x = pos[:, col]
        missing = ~np.isfinite(x)
        if not missing.any() or missing.all():
            continue
        idx = np.flatnonzero(missing)
        # split the missing indices into consecutive runs
        splits = np.flatnonzero(np.diff(idx) > 1) + 1
        for run in np.split(idx, splits):
            lo, hi = run[0] - 1, run[-1] + 1
            if lo < 0 or hi >= n or len(run) > max_gap_frames:
                continue
            x[run] = np.interp(run, [lo, hi], [x[lo], x[hi]])
    return replace(trial, positions=pos.reshape(n, 8, 3), valid_mask=None)


def align_stimulus(
    led_series: np.ndarray, threshold: float, frame_rate: float = DEFAULT_FRAME_RATE
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold an ON-LED intensity trace into a burst-active series.

    Returns ``(active, onsets_s)`` where ``active`` is 1 while the LED is
    above threshold and ``onsets_s`` holds the upward-crossing times.
    Raises NoOnsetsFound when the trace never crosses the threshold.
    """
    led = np.asarray(led_series, dtype=float)
    if not np.all(np.isfinite(led)):
        raise ValueError("LED intensities must be finite")
    active = led > threshold
    if not active.any():
        raise NoOnsetsFound("LED trace never crosses the threshold")
    rising = active & ~np.concatenate(([False], active[:-1]))
    onsets = np.flatnonzero(rising) / frame_rate
    return active.astype(np.uint8), onsets


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

VIEW_COLUMNS: tuple[str, ...] = ("frame",) + tuple(
    f"{p}_{axis}" for p in CORNER_LABELS + MARKER_LABELS for axis in ("x", "y", "conf")
) + LED_LABELS
TRIAL_COLUMNS: tuple[str, ...] = ("frame", "t") + tuple(
    f"{m}_{axis}" for m in MARKER_LABELS for axis in "xyz"
) + ("stim", "valid")


def write_view_csv(path: str | Path, view: RawViewSeries) -> None:
    """Write one view to CSV in the canonical 12-point layout."""
    columns = [np.arange(view.n_frames)]
    for xy, conf in ((view.corners, view.corners_conf), (view.markers, view.markers_conf)):
        for p in range(xy.shape[1]):
            columns += [xy[:, p, 0], xy[:, p, 1], conf[:, p]]
    columns += [view.led[:, 0], view.led[:, 1]]
    write_csv(path, VIEW_COLUMNS, columns)


def read_view_csv(
    path: str | Path, view_name: str, frame_rate: float = DEFAULT_FRAME_RATE
) -> RawViewSeries:
    """Read one view CSV written in the canonical layout."""
    data = read_csv(path, VIEW_COLUMNS)
    n = data.shape[0]
    pts = data[:, 1:1 + 36].reshape(n, 12, 3)
    return RawViewSeries(
        view=view_name,
        corners=pts[:, :4, :2].copy(),
        corners_conf=pts[:, :4, 2].copy(),
        markers=pts[:, 4:, :2].copy(),
        markers_conf=pts[:, 4:, 2].copy(),
        led=data[:, 37:39].copy(),
        frame_rate=frame_rate,
    )


def write_trial_csv(trial: TrialRecording, csv_path: str | Path) -> None:
    """Write the canonical trial CSV plus its JSON metadata sidecar."""
    csv_path = Path(csv_path)
    n = trial.n_frames
    write_csv(csv_path, TRIAL_COLUMNS, [
        np.arange(n), trial.times, *trial.positions.reshape(n, 24).T,
        trial.stimulus, trial.valid_mask.astype(np.uint8),
    ])
    meta = {
        "animal_id": trial.animal_id,
        "condition": trial.condition,
        "period_s": trial.period_s,
        "frame_rate": trial.frame_rate,
    }
    csv_path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def read_trial_csv(csv_path: str | Path) -> TrialRecording:
    """Read a canonical trial CSV (and its JSON sidecar) back into memory."""
    json_path = Path(csv_path).with_suffix(".json")
    try:
        meta = json.loads(json_path.read_text())
    except FileNotFoundError as exc:
        raise ValidationError(f"trial metadata not found: {json_path}") from exc
    data = read_csv(csv_path, TRIAL_COLUMNS)
    n = data.shape[0]
    return TrialRecording(
        animal_id=meta.get("animal_id", ""),
        condition=meta.get("condition", "spontaneous"),
        period_s=meta.get("period_s"),
        frame_rate=float(meta.get("frame_rate", DEFAULT_FRAME_RATE)),
        positions=data[:, 2:26].reshape(n, 8, 3),
        stimulus=data[:, 26].astype(np.uint8),
        valid_mask=data[:, 27] > 0.5,
    )
