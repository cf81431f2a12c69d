"""Body-shape kinematics: marker-pair lengths, body frame, local velocities.

All operations are pure functions over a TrialRecording.  Invalid frames
(NaN positions) propagate as NaN rows in every derived series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRing, TooShort, ZeroVariance
from .ingest import MARKER_LABELS, TrialRecording

_IDX = {m: i for i, m in enumerate(MARKER_LABELS)}
INNER_IDX = tuple(_IDX[m] for m in ("R2", "Y2", "O2", "B2"))
OUTER_IDX = tuple(_IDX[m] for m in ("R1", "Y1", "O1", "B1"))

PAIR_INDICES: tuple[tuple[int, int], ...] = tuple(itertools.combinations(range(8), 2))


def pair_name(a: str, b: str) -> str:
    """Canonical unordered pair name, first marker by MARKER_LABELS order."""
    if _IDX[a] > _IDX[b]:
        a, b = b, a
    return f"{a}-{b}"


PAIR_NAMES: tuple[str, ...] = tuple(
    pair_name(MARKER_LABELS[i], MARKER_LABELS[j]) for i, j in PAIR_INDICES
)
RADIAL_PAIR_NAMES: tuple[str, ...] = tuple(
    pair_name(o, i) for o, i in zip(("R1", "Y1", "O1", "B1"), ("R2", "Y2", "O2", "B2"))
)
CORONAL_PAIR_NAMES: tuple[str, ...] = (
    pair_name("R1", "Y1"),
    pair_name("Y1", "O1"),
    pair_name("O1", "B1"),
    pair_name("B1", "R1"),
)


@dataclass
class LengthSeries:
    """All 28 pairwise marker distances (mm) over time."""

    names: tuple[str, ...]
    values: np.ndarray        # (n_frames, 28)
    frame_rate: float

    def channel(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def subset(self, names) -> np.ndarray:
        cols = [self.names.index(n) for n in names]
        return self.values[:, cols]

    @property
    def radial(self) -> np.ndarray:
        return self.subset(RADIAL_PAIR_NAMES)

    @property
    def coronal(self) -> np.ndarray:
        return self.subset(CORONAL_PAIR_NAMES)


@dataclass
class BodyFrameSeries:
    """Per-frame body pose: COM, ring radii, orientation, local velocities.

    ``rotation`` holds the world-to-body rotation matrix per frame (rows are
    the body axes expressed in world coordinates); ``euler_zyz`` holds the
    intrinsic z-y-z angles of the body-to-world orientation, each in
    (-pi, pi], with the first z-angle set to 0 when the middle angle
    vanishes.  ``v_local`` is filled by `local_velocities`.
    """

    com: np.ndarray            # (n, 3) mm
    inner_radius: np.ndarray   # (n,) mm
    outer_radius: np.ndarray   # (n,) mm
    euler_zyz: np.ndarray      # (n, 3) radians
    rotation: np.ndarray       # (n, 3, 3) world -> body
    frame_rate: float
    v_local: np.ndarray | None = None


def pairwise_lengths(trial: TrialRecording) -> LengthSeries:
    """Euclidean distances for all 28 unordered marker pairs, per frame."""
    pos = trial.positions
    i_idx = np.array([p[0] for p in PAIR_INDICES])
    j_idx = np.array([p[1] for p in PAIR_INDICES])
    diffs = pos[:, i_idx, :] - pos[:, j_idx, :]
    return LengthSeries(
        names=PAIR_NAMES,
        values=np.linalg.norm(diffs, axis=2),
        frame_rate=trial.frame_rate,
    )


# ---------------------------------------------------------------------------
# z-y-z Euler helpers
# ---------------------------------------------------------------------------

def euler_zyz_to_matrix(angles: np.ndarray) -> np.ndarray:
    """Rotation matrix for intrinsic z-y-z angles; supports (..., 3) input."""
    angles = np.asarray(angles, dtype=float)
    a, b, g = angles[..., 0], angles[..., 1], angles[..., 2]
    ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
    m = np.empty(angles.shape[:-1] + (3, 3))
    m[..., 0, 0] = ca * cb * cg - sa * sg
    m[..., 0, 1] = -ca * cb * sg - sa * cg
    m[..., 0, 2] = ca * sb
    m[..., 1, 0] = sa * cb * cg + ca * sg
    m[..., 1, 1] = -sa * cb * sg + ca * cg
    m[..., 1, 2] = sa * sb
    m[..., 2, 0] = -sb * cg
    m[..., 2, 1] = sb * sg
    m[..., 2, 2] = cb
    return m


def matrix_to_euler_zyz(m: np.ndarray) -> np.ndarray:
    """Intrinsic z-y-z angles of rotation matrices (..., 3, 3).

    The middle angle lies in [0, pi]; at the beta = 0 (or pi) gimbal the
    first z-angle is set to 0 and the last carries the whole z-rotation.
    """
    m = np.asarray(m, dtype=float)
    sb = np.hypot(m[..., 0, 2], m[..., 1, 2])
    beta = np.arctan2(sb, m[..., 2, 2])
    regular = sb > 1e-12
    alpha = np.where(regular, np.arctan2(m[..., 1, 2], m[..., 0, 2]), 0.0)
    gamma_reg = np.arctan2(m[..., 2, 1], -m[..., 2, 0])
    gamma_up = np.arctan2(m[..., 1, 0], m[..., 0, 0])      # beta ~ 0
    gamma_down = np.arctan2(m[..., 1, 0], -m[..., 0, 0])   # beta ~ pi
    gamma = np.where(regular, gamma_reg, np.where(m[..., 2, 2] > 0, gamma_up, gamma_down))
    return np.stack([alpha, beta, gamma], axis=-1)


def _second_moment_rank2(points: np.ndarray) -> np.ndarray:
    """True where the centered points span at least a plane (not collinear)."""
    centered = points - points.mean(axis=1, keepdims=True)
    moment = np.einsum("nij,nik->njk", centered, centered)
    eig = np.linalg.eigvalsh(moment)
    scale = np.maximum(eig[:, 2], np.finfo(float).tiny)
    return eig[:, 1] > 1e-12 * scale


def body_frame(trial: TrialRecording) -> BodyFrameSeries:
    """Compute COM, ring radii and the aligned body frame per frame.

    The COM is the centroid of the inner markers.  The frame is chosen so
    that the segment from the outer-ring center to the inner-ring center
    maps onto +z, and the final z-rotation puts the Y2->O2 segment in the
    x-z plane with a positive x-component.

    Raises DegenerateRing when a ring's markers are collinear (checked on
    valid frames only).
    """
    pos = trial.positions
    n = trial.n_frames
    valid = trial.valid_mask
    com = np.full((n, 3), np.nan)
    inner_r = np.full(n, np.nan)
    outer_r = np.full(n, np.nan)
    euler = np.full((n, 3), np.nan)
    rot = np.full((n, 3, 3), np.nan)

    idx = np.flatnonzero(valid)
    if idx.size:
        inner = pos[idx][:, INNER_IDX, :]
        outer = pos[idx][:, OUTER_IDX, :]
        if not np.all(_second_moment_rank2(inner)):
            raise DegenerateRing("inner ring markers are collinear on a valid frame")
        if not np.all(_second_moment_rank2(outer)):
            raise DegenerateRing("outer ring markers are collinear on a valid frame")

        c = inner.mean(axis=1)
        outer_center = outer.mean(axis=1)
        axis = c - outer_center
        axis_norm = np.linalg.norm(axis, axis=1)
        if np.any(axis_norm < 1e-12):
            raise DegenerateRing("ring centers coincide; body axis undefined")
        e_z = axis / axis_norm[:, None]

        d = pos[idx, _IDX["O2"], :] - pos[idx, _IDX["Y2"], :]
        d_perp = d - np.sum(d * e_z, axis=1)[:, None] * e_z
        d_norm = np.linalg.norm(d_perp, axis=1)
        if np.any(d_norm < 1e-12):
            raise DegenerateRing("Y2->O2 segment is parallel to the body axis")
        e_x = d_perp / d_norm[:, None]
        e_y = np.cross(e_z, e_x)

        r_wb = np.stack([e_x, e_y, e_z], axis=1)  # rows = body axes in world
        com[idx] = c
        inner_r[idx] = np.linalg.norm(inner - c[:, None, :], axis=2).mean(axis=1)
        outer_r[idx] = np.linalg.norm(outer - c[:, None, :], axis=2).mean(axis=1)
        rot[idx] = r_wb
        euler[idx] = matrix_to_euler_zyz(np.swapaxes(r_wb, 1, 2))

    return BodyFrameSeries(
        com=com,
        inner_radius=inner_r,
        outer_radius=outer_r,
        euler_zyz=euler,
        rotation=rot,
        frame_rate=trial.frame_rate,
    )


def moving_average(x: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average; windows shrink at the series ends."""
    x = np.asarray(x, dtype=float)
    kernel = np.ones(window)
    if x.ndim == 1:
        sums = np.convolve(x, kernel, mode="same")
    else:
        sums = np.apply_along_axis(lambda c: np.convolve(c, kernel, mode="same"), 0, x)
    counts = np.convolve(np.ones(x.shape[0]), kernel, mode="same")
    if x.ndim > 1:
        counts = counts[:, None]
    return sums / counts


def local_velocities(trial: TrialRecording, pose: BodyFrameSeries) -> np.ndarray:
    """COM velocity in the body frame, mm/s.

    World velocity is the forward difference of the COM scaled by the frame
    rate (the last sample repeats its predecessor), smoothed with a
    centered 5-sample moving average, then rotated into the body frame of
    the same instant.
    """
    com = pose.com
    fs = pose.frame_rate
    v = np.empty_like(com)
    v[:-1] = (com[1:] - com[:-1]) * fs
    v[-1] = v[-2] if len(com) > 1 else 0.0
    v = moving_average(v, 5)
    v_local = np.einsum("nij,nj->ni", pose.rotation, v)
    pose.v_local = v_local
    return v_local


def lowpass_3hz(series: np.ndarray, frame_rate: float, cutoff_hz: float = 3.0) -> np.ndarray:
    """Zero-phase 2nd-order Butterworth low-pass (forward-backward).

    Requires a uniform sampling rate of at least 10 Hz and a series at
    least three settle lengths long.
    """
    from scipy import signal as sp_signal

    if frame_rate < 10.0:
        raise ValueError("lowpass_3hz requires a sampling rate of at least 10 Hz")
    x = np.asarray(series, dtype=float)
    b, a = sp_signal.butter(2, cutoff_hz, fs=frame_rate)
    # pad three settle lengths so edge transients decay fully; this keeps the
    # forward-backward pass symmetric under time reversal
    settle = int(np.ceil(2.0 * frame_rate / cutoff_hz))
    padlen = 3 * settle
    if x.shape[0] <= padlen:
        raise TooShort(f"series of length {x.shape[0]} needs more than {padlen} samples")
    return sp_signal.filtfilt(b, a, x, axis=0, padlen=padlen)


def standardize(series: np.ndarray) -> np.ndarray:
    """Shift and scale each channel to mean 0 and population SD 1.

    Mean and SD come from the rows where every channel is finite, so the
    NaN rows of invalid frames stay NaN without turning every row NaN.
    """
    x = np.asarray(series, dtype=float)
    finite = np.isfinite(x) if x.ndim == 1 else np.isfinite(x).all(axis=1)
    ref = x[finite] if finite.any() and not finite.all() else x
    mean = ref.mean(axis=0)
    sd = ref.std(axis=0)
    if np.any(sd == 0):
        raise ZeroVariance("cannot standardize a constant channel")
    return (x - mean) / sd
