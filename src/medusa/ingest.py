"""Marker-tracking ingestion: view rectification, 3D assembly, stimulus alignment.

Input format (one CSV per camera view)
--------------------------------------
Columns: ``frame``, then an ``x,y,confidence`` triplet for each of the 12
tracked points (tank corners ``c1..c4``, then the eight body markers
``R1,R2,Y1,Y2,O1,O2,B1,B2``), then LED indicator intensities
``led_on,led_off``.  A JSON sidecar carries trial metadata::

    {"animal_id": "JF41", "condition": "stimulated", "period_s": 2.0,
     "frame_rate": 60.0}

Each trial and analysis table has a sidecar of these fields next to it
(`table.sidecar_path`); `read_sidecar` is the one reader and checker of them.

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

import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCorners,
    NoConfidentView,
    NoOnsetsFound,
    ValidationError,
)
from .series import runs
from .table import read_csv, read_json, sidecar_path, write_csv, write_json

MARKER_LABELS: tuple[str, ...] = ("R1", "R2", "Y1", "Y2", "O1", "O2", "B1", "B2")
OUTER_MARKERS: tuple[str, ...] = ("R1", "Y1", "O1", "B1")
INNER_MARKERS: tuple[str, ...] = ("R2", "Y2", "O2", "B2")
CORNER_LABELS: tuple[str, ...] = ("c1", "c2", "c3", "c4")
LED_LABELS: tuple[str, ...] = ("led_on", "led_off")
VIEW_NAMES: tuple[str, ...] = ("top", "behind", "right")
CONDITIONS: tuple[str, ...] = ("spontaneous", "control_no_stim", "stimulated")
# a trial's sidecar fields but frame_rate (whose default depends on the table), and
# the value of each that a sidecar leaves out
SIDECAR_DEFAULTS = {"animal_id": "", "condition": "spontaneous", "period_s": None}

TANK_MM = 150.0
# corners c1..c4 on the rectified face, read-only
RECT_CORNERS = np.array([[0.0, 0.0], [TANK_MM, 0.0], [TANK_MM, TANK_MM], [0.0, TANK_MM]])
RECT_CORNERS.flags.writeable = False
CONFIDENCE_THRESHOLD = 0.6
HOMOGRAPHY_BLOCK = 16_384   # points per product in `apply_homography`
DEFAULT_FRAME_RATE = 60.0


@dataclass
class RawViewSeries:
    """Per-frame 2D point estimates for one camera view.

    `markers_only` drops the corners and LED columns (None) once they have
    been read, and keeps of the marker confidences whether each is at the
    threshold.
    """

    view: str
    corners: np.ndarray | None         # (n, 4, 2)
    corners_conf: np.ndarray | None    # (n, 4)
    markers: np.ndarray                # (n, 8, 2)
    markers_conf: np.ndarray           # (n, 8)
    led: np.ndarray | None             # (n, 2) intensities, columns (on, off)
    frame_rate: float
    rectified: bool = False

    def __post_init__(self):
        if self.view not in VIEW_NAMES:
            raise ValueError(f"unknown view {self.view!r}, expected one of {VIEW_NAMES}")
        n = self.markers.shape[0]
        for name, arr, shape in (
            ("corners", self.corners, (n, 4, 2)),
            ("corners_conf", self.corners_conf, (n, 4)),
            ("markers", self.markers, (n, 8, 2)),
            ("markers_conf", self.markers_conf, (n, 8)),
            ("led", self.led, (n, 2)),
        ):
            if arr is not None and arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def n_frames(self) -> int:
        return self.markers.shape[0]

    def markers_only(self) -> RawViewSeries:
        """The view reduced to what `assemble_3d` reads: the markers, and
        for their confidences whether each is at least
        ``CONFIDENCE_THRESHOLD`` (a bool is compared as 0 or 1)."""
        return replace(self, corners=None, corners_conf=None, led=None,
                       markers_conf=self.markers_conf >= CONFIDENCE_THRESHOLD)


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
    frame_rate: float
    period_s: float | None = None
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
    """Apply a 3x3 projective transform to (..., 2) points.

    The points are mapped a block of leading-axis rows at a time, about
    `HOMOGRAPHY_BLOCK` points a block, which bounds the scratch, a strided
    view's copy included.  A block holds two rows or more unless there is
    one row in all, so it holds one point only when there is one in all: a
    one-row product is a vector product, which can round differently from
    a matrix product's.
    """
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape)
    if out.size == 0:
        return out
    # rows of one point each, or of the points a leading-axis row holds
    rows = pts.reshape(-1, 1, 2) if pts.ndim < 3 else pts.reshape(len(pts), -1, 2)
    out_rows = out.reshape(rows.shape)
    n_blocks = max(1, min(len(rows) // 2, -(-(out.size // 2) // HOMOGRAPHY_BLOCK)))
    bounds = [len(rows) * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = rows[lo:hi].reshape(-1, 2)
        hom = np.column_stack([block, np.ones(len(block))]) @ h.T
        np.divide(hom[:, :2], hom[:, 2:3], out=out_rows[lo:hi].reshape(-1, 2))
    return out


def rectify_view(view: RawViewSeries) -> RawViewSeries:
    """Rectify a whole view using one homography from its corner landmarks.

    The corners map onto ``RECT_CORNERS``, the ``TANK_MM`` square face.
    They are physically static, so a single transform is solved from the
    per-corner median over confident frames; per-frame corner estimates
    only jitter around it.
    """
    med = np.empty((4, 2))
    for c in range(4):
        ok = view.corners_conf[:, c] >= CONFIDENCE_THRESHOLD
        if not np.any(ok):
            ok = np.isfinite(view.corners[:, c]).all(axis=1)
        if not np.any(ok):
            raise DegenerateCorners(f"corner {c + 1} never observed in view {view.view!r}")
        med[c] = np.nanmedian(view.corners[ok, c], axis=0)
    h = solve_homography(med, RECT_CORNERS)
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
    top_ok = top.markers_conf >= CONFIDENCE_THRESHOLD
    behind_ok = behind.markers_conf >= CONFIDENCE_THRESHOLD
    right_ok = right.markers_conf >= CONFIDENCE_THRESHOLD

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
        for start, stop in zip(*runs(~np.isfinite(x))):
            if start == 0 or stop == n or stop - start > max_gap_frames:
                continue
            gap = np.arange(start, stop)
            x[gap] = np.interp(gap, [start - 1, stop], [x[start - 1], x[stop]])
    return replace(trial, positions=pos.reshape(n, 8, 3), valid_mask=None)


def align_stimulus(led_series: np.ndarray, threshold: float,
                   frame_rate: float) -> tuple[np.ndarray, np.ndarray]:
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
    return active.astype(np.uint8), runs(active)[0] / frame_rate


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

VIEW_COLUMNS: tuple[str, ...] = ("frame",) + tuple(
    f"{p}_{axis}" for p in CORNER_LABELS + MARKER_LABELS for axis in ("x", "y", "conf")
) + LED_LABELS
TRIAL_COLUMNS: tuple[str, ...] = ("frame", "t") + tuple(
    f"{m}_{axis}" for m in MARKER_LABELS for axis in "xyz"
) + ("stim", "valid")


def read_view_csv(path: str | Path, view_name: str, frame_rate: float) -> RawViewSeries:
    """Read one view CSV written in the canonical layout; its fields are
    views of the parsed table, not copies."""
    data = read_csv(path, VIEW_COLUMNS)
    n = data.shape[0]
    pts = data[:, 1:1 + 36].reshape(n, 12, 3)
    return RawViewSeries(
        view=view_name,
        corners=pts[:, :4, :2],
        corners_conf=pts[:, :4, 2],
        markers=pts[:, 4:, :2],
        markers_conf=pts[:, 4:, 2],
        led=data[:, 37:39],
        frame_rate=frame_rate,
    )


def sidecar_fields(trial: TrialRecording) -> dict:
    """The sidecar fields of ``trial``, in the order they are written."""
    return {key: getattr(trial, key) for key in (*SIDECAR_DEFAULTS, "frame_rate")}


def read_sidecar(path: str | Path, default_rate: float | None = None) -> dict:
    """The checked fields of a sidecar, each one left out at its default
    (frame_rate at ``default_rate``; with none it is required).  Raises
    ValidationError naming ``path`` for a field that fails its check."""
    meta = read_json(path)
    if "frame_rate" not in meta and default_rate is None:
        raise ValidationError(f"{path} has no frame_rate")
    rate = meta.get("frame_rate", default_rate)
    fields = {key: meta.get(key, value) for key, value in SIDECAR_DEFAULTS.items()}
    condition, period = fields["condition"], fields["period_s"]
    # a bool is no number here; a JSON integer can outgrow every float
    if type(rate) not in (int, float) or not 0 < rate <= sys.float_info.max:
        raise ValidationError(f"{path} gives frame_rate {rate!r}, not a finite positive number")
    if condition not in CONDITIONS:
        raise ValidationError(f"{path} gives condition {condition!r}, not one of "
                              f"{', '.join(CONDITIONS)}")
    if period is not None and (type(period) not in (int, float)
                               or not 0 < period <= sys.float_info.max):
        raise ValidationError(f"{path} gives period_s {period!r}, not null or a finite "
                              "positive number")
    if period is None and condition == "stimulated":
        raise ValidationError(f"{path} gives no period_s for its stimulated trial")
    return fields | {"frame_rate": float(rate)}


def write_trial_csv(trial: TrialRecording, csv_path: str | Path) -> None:
    """Write the canonical trial CSV plus its JSON metadata sidecar."""
    n = trial.n_frames
    write_csv(csv_path, TRIAL_COLUMNS, [
        np.arange(n), trial.times, *trial.positions.reshape(n, 24).T,
        trial.stimulus, trial.valid_mask.astype(np.uint8),
    ])
    write_json(sidecar_path(csv_path), sidecar_fields(trial))


def read_trial_csv(csv_path: str | Path) -> TrialRecording:
    """Read a canonical trial CSV (and its JSON sidecar) back into memory."""
    meta = read_sidecar(sidecar_path(csv_path), DEFAULT_FRAME_RATE)
    data = read_csv(csv_path, TRIAL_COLUMNS)
    n = data.shape[0]
    return TrialRecording(
        **meta,
        positions=data[:, 2:26].reshape(n, 8, 3),
        stimulus=data[:, 26].astype(np.uint8),
        valid_mask=data[:, 27] > 0.5,
    )
