"""Body-shape kinematics: marker-pair lengths, body frame, local velocities.

All operations are pure functions over a TrialRecording.  Invalid frames
(NaN positions) propagate as NaN rows in every derived series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRing, TooShort, ZeroVariance
from .ingest import INNER_MARKERS, MARKER_LABELS, OUTER_MARKERS, TrialRecording
from .series import FORGET_TOL, time_chunks

_IDX = {m: i for i, m in enumerate(MARKER_LABELS)}
INNER_IDX = tuple(_IDX[m] for m in INNER_MARKERS)
OUTER_IDX = tuple(_IDX[m] for m in OUTER_MARKERS)

PAIR_INDICES: tuple[tuple[int, int], ...] = tuple(itertools.combinations(range(8), 2))
FRAME_BLOCK = 4_096     # frames per block of the length and body-frame passes


def pair_name(a: str, b: str) -> str:
    """Canonical unordered pair name, first marker by MARKER_LABELS order."""
    if _IDX[a] > _IDX[b]:
        a, b = b, a
    return f"{a}-{b}"


PAIR_NAMES: tuple[str, ...] = tuple(
    pair_name(MARKER_LABELS[i], MARKER_LABELS[j]) for i, j in PAIR_INDICES
)
RADIAL_PAIR_NAMES: tuple[str, ...] = tuple(
    pair_name(o, i) for o, i in zip(OUTER_MARKERS, INNER_MARKERS)
)
CORONAL_PAIR_NAMES: tuple[str, ...] = tuple(   # neighbours around the outer ring
    pair_name(a, b) for a, b in zip(OUTER_MARKERS, OUTER_MARKERS[1:] + OUTER_MARKERS[:1])
)
# the columns of a trial's analysis table: time, these series, then stimulus and validity
ANALYSIS_COLUMNS: tuple[str, ...] = (
    ("t",) + PAIR_NAMES
    + ("inner_radius", "outer_radius", "ea", "eb", "eg", "vx", "vy", "vz", "stim", "valid")
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
    vanishes.  Only `synthgen`'s ground truth sets ``v_local``.
    """

    com: np.ndarray            # (n, 3) mm
    inner_radius: np.ndarray   # (n,) mm
    outer_radius: np.ndarray   # (n,) mm
    euler_zyz: np.ndarray      # (n, 3) radians
    rotation: np.ndarray       # (n, 3, 3) world -> body
    frame_rate: float
    v_local: np.ndarray | None = None


def _planes(positions: np.ndarray) -> np.ndarray:
    """(n, 8, 3) marker positions as one contiguous (3, 8, n) array: a
    coordinate plane per axis, a row of n samples per marker."""
    return np.ascontiguousarray(positions.transpose(2, 1, 0))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over the first (3-long) axis, summed in np.sum's order."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the first (3-long) axis in np.linalg.norm's order."""
    return np.sqrt(_dot(v, v))


def pairwise_lengths(trial: TrialRecording) -> LengthSeries:
    """Euclidean distances for all 28 unordered marker pairs, per frame.

    Computed on coordinate planes, `FRAME_BLOCK` frames at a time, and
    bitwise equal to ``np.linalg.norm(pos[:, i] - pos[:, j], axis=-1)`` per
    pair; ``values`` is a column-major (n, 28) array.
    """
    n = trial.n_frames
    lengths = np.empty((len(PAIR_INDICES), n))
    scratch = np.empty((len(PAIR_INDICES), min(FRAME_BLOCK, n)))
    for lo in range(0, n, FRAME_BLOCK):
        hi = min(lo + FRAME_BLOCK, n)
        block = lengths[:, lo:hi]
        for axis, plane in enumerate(_planes(trial.positions[lo:hi])):   # (x² + y²) + z²
            sq = block if axis == 0 else scratch[:, :hi - lo]
            k = 0
            for i in range(7):      # the pairs (i, i+1..7), in PAIR_INDICES order
                np.subtract(plane[i:i + 1], plane[i + 1:], out=sq[k:k + 7 - i])
                k += 7 - i
            np.multiply(sq, sq, out=sq)
            if axis:
                block += sq
    np.sqrt(lengths, out=lengths)
    return LengthSeries(names=PAIR_NAMES, values=lengths.T, frame_rate=trial.frame_rate)


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


def _second_moment_rank2(ring: np.ndarray, center: np.ndarray) -> np.ndarray:
    """True where a ring's points span at least a plane (not collinear).

    ``ring`` is (3, k, m) coordinate planes of k points per frame and
    ``center`` their (3, m) mean.  The decision is that of the eigenvalues
    λ0 <= λ1 <= λ2 of the centered second-moment matrix, λ1 > 1e-12·λ2.
    Its trace T and the sum I2 of its 2×2 principal minors settle most
    frames without them: I2 <= 3·λ1·λ2 and λ2 <= T give
    λ1/λ2 >= I2/(3·T²), so I2 > 3e-6·T² means rank 2 with a margin of 1e6
    over the threshold and over rounding.  Only the other frames are
    decided by the eigenvalues.
    """
    centered = ring - center[:, None]
    xx, yy, zz = (np.einsum("km,km->m", c, c) for c in centered)
    xy, xz, yz = (np.einsum("km,km->m", centered[a], centered[b])
                  for a, b in ((0, 1), (0, 2), (1, 2)))
    trace = xx + yy + zz
    minors = (xx * yy - xy * xy) + (xx * zz - xz * xz) + (yy * zz - yz * yz)
    rank2 = minors > 3e-6 * trace * trace
    undecided = np.flatnonzero(~rank2)
    if undecided.size:
        # (frames, k, 3) with point-major memory, the layout the eigenvalue
        # test has always been given, so its einsum rounds as it always has
        pts = np.ascontiguousarray(centered.transpose(1, 2, 0)[:, undecided]).transpose(1, 0, 2)
        moment = np.einsum("nij,nik->njk", pts, pts)
        eig = np.linalg.eigvalsh(moment)
        scale = np.maximum(eig[:, 2], np.finfo(float).tiny)
        rank2[undecided] = eig[:, 1] > 1e-12 * scale
    return rank2


# each degeneracy body_frame can find on a valid frame, in the order it checks them
_DEGENERACIES = {
    "inner": "inner ring markers are collinear on a valid frame",
    "outer": "outer ring markers are collinear on a valid frame",
    "axis": "ring centers coincide; body axis undefined",
    "segment": "Y2->O2 segment is parallel to the body axis",
}


def body_frame(trial: TrialRecording) -> BodyFrameSeries:
    """Compute COM, ring radii and the aligned body frame per frame.

    The COM is the centroid of the inner markers.  The frame is chosen so
    that the segment from the outer-ring center to the inner-ring center
    maps onto +z, and the final z-rotation puts the Y2->O2 segment in the
    x-z plane with a positive x-component.

    Raises DegenerateRing when a ring's markers are collinear (checked on
    valid frames only).  Every step runs on coordinate planes in the order
    of the numpy reduction it stands for (ring means, norms, np.cross), one
    block of `FRAME_BLOCK` valid frames at a time; each step is per frame.
    """
    pos = trial.positions
    n = trial.n_frames
    com = np.full((n, 3), np.nan)
    inner_r = np.full(n, np.nan)
    outer_r = np.full(n, np.nan)
    euler = np.full((n, 3), np.nan)
    rot = np.full((n, 3, 3), np.nan)

    valid = np.flatnonzero(trial.valid_mask)
    # the degeneracies seen, raised after the pass in the order a check of
    # every frame at once makes; a degenerate frame's divisions are ignored
    found = set()
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, valid.size, FRAME_BLOCK):
            idx = valid[lo:lo + FRAME_BLOCK]
            planes = _planes(pos[idx])
            inner = planes[:, INNER_IDX]
            outer = planes[:, OUTER_IDX]
            c = inner.mean(axis=1)
            outer_center = outer.mean(axis=1)
            if not np.all(_second_moment_rank2(inner, c)):
                found.add("inner")
            if not np.all(_second_moment_rank2(outer, outer_center)):
                found.add("outer")

            axis = c - outer_center
            axis_norm = _norm(axis)
            if np.any(axis_norm < 1e-12):
                found.add("axis")
            e_z = axis / axis_norm

            d = planes[:, _IDX["O2"]] - planes[:, _IDX["Y2"]]
            d_perp = d - _dot(d, e_z) * e_z
            d_norm = _norm(d_perp)
            if np.any(d_norm < 1e-12):
                found.add("segment")
            e_x = d_perp / d_norm
            # np.cross(e_z, e_x)
            e_y = np.stack([e_z[1] * e_x[2] - e_z[2] * e_x[1],
                            e_z[2] * e_x[0] - e_z[0] * e_x[2],
                            e_z[0] * e_x[1] - e_z[1] * e_x[0]])

            r_wb = np.stack([e_x, e_y, e_z])  # (body axis, world coordinate, frame)
            com[idx] = c.T
            inner_r[idx] = _norm(inner - c[:, None]).mean(axis=0)
            outer_r[idx] = _norm(outer - c[:, None]).mean(axis=0)
            rot[idx] = r_wb.transpose(2, 0, 1)
            euler[idx] = matrix_to_euler_zyz(r_wb.transpose(2, 1, 0))
    for kind, message in _DEGENERACIES.items():
        if kind in found:
            raise DegenerateRing(message)

    return BodyFrameSeries(
        com=com,
        inner_radius=inner_r,
        outer_radius=outer_r,
        euler_zyz=euler,
        rotation=rot,
        frame_rate=trial.frame_rate,
    )


def moving_average(x: np.ndarray, window: int = 5) -> np.ndarray:
    """Centered moving average; windows shrink at the series ends.

    Row t averages rows t - (window-1)//2 .. t + window//2 that exist, so
    a series shorter than ``window`` keeps its length.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    kernel = np.ones(window)
    lead = (window - 1) // 2

    def centered(c):
        return np.convolve(c, kernel)[lead:lead + n]

    sums = centered(x) if x.ndim == 1 else np.apply_along_axis(centered, 0, x)
    counts = centered(np.ones(n))
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
    v = np.empty_like(com)
    v[:-1] = (com[1:] - com[:-1]) * pose.frame_rate
    v[-1] = v[-2] if len(com) > 1 else 0.0
    v = moving_average(v, 5)
    return np.einsum("nij,nj->ni", pose.rotation, v)


CUTOFF_HZ = 3.0


def _butter_lowpass(cutoff_hz: float, frame_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital 2nd-order Butterworth low-pass coefficients (b, a).

    The steps and their order are scipy.signal.butter's, so the
    coefficients come out bitwise equal to it: analog prototype poles,
    cutoff pre-warped and scaled in, bilinear transform (both zeros go to
    Nyquist), then the polynomials by np.poly.
    """
    order = 2
    wn = cutoff_hz / (frame_rate / 2)
    m = np.arange(-order + 1, order, 2, dtype=float)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    poles = warped * poles
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    return gain * np.poly(-np.ones(order)), np.poly((4.0 + poles) / (4.0 - poles))


def _forgetting_steps(step: np.ndarray) -> int:
    """Steps after which a recursion's start state no longer shows.

    In the direct-form-II-transposed recursion of a 2nd-order filter the
    error of a wrong start state evolves as e_k = A^k e_0, with ``step``
    A = [[-a1, 1], [-a2, 0]].  Returns the smallest k with
    ‖A^k‖₂ <= ``FORGET_TOL`` (σ_max(A) > 1, so ‖A‖ alone gives no bound).
    """
    power = np.eye(2)
    done = 0
    while True:
        powers = []
        for _ in range(64):
            power = power @ step
            powers.append(power)
        hit = np.flatnonzero(np.linalg.norm(np.array(powers), 2, axis=(1, 2)) <= FORGET_TOL)
        if hit.size:
            return done + int(hit[0]) + 1
        done += 64


def _df2t_step(xj: np.ndarray, z: np.ndarray, y: np.ndarray, tmp: np.ndarray,
               b: tuple[float, ...], a: tuple[float, ...]) -> None:
    """One step of the recursion on rows ``xj``: output into ``y``, states
    ``z`` = (z0, z1) updated in place.  The operations and their order are
    scipy.signal.lfilter's: y = z0 + b0·x, z0 = z1 + x·b1 - y·a1,
    z1 = x·b2 - y·a2."""
    z0, z1 = z
    np.multiply(xj, b[0], out=y)
    y += z0
    np.multiply(xj, b[1], out=z0)
    z0 += z1
    np.multiply(y, a[1], out=tmp)
    z0 -= tmp
    np.multiply(xj, b[2], out=z1)
    np.multiply(y, a[2], out=tmp)
    z1 -= tmp


def _df2t(b: np.ndarray, a: np.ndarray, x: np.ndarray, state: np.ndarray,
          warmup: int) -> np.ndarray:
    """Filter (n, c) rows with the 2nd-order recursion, from ``state`` (2, c).

    The result is bitwise that of one sequential pass (`_df2t_step` from
    row 0), which is scipy.signal.lfilter's.  The rows are stepped in K
    time chunks together (`series.time_chunks`).  Chunk 0 starts from
    ``state``; every later chunk starts from zero ``warmup`` rows before
    its first row, so by then its state is within rounding of the
    sequential one (see `_forgetting_steps`).  Rounding can leave it an
    ulp off, so each chunk's start state is then checked against the end
    state of the chunk before it.  Where they differ, the chunk is stepped again from that
    end state beside its first run until the two states agree bitwise
    (typically within a few dozen rows), and from there on the first run's
    rows are the sequential ones.
    """
    b, a = tuple(float(v) for v in b), tuple(float(v) for v in a)
    n, c = x.shape
    k, length, warmup = time_chunks(n, warmup)
    # step-major layout (length, k, c): each step reads one contiguous block;
    # x goes in once through the chunk-major view, and the last chunk's
    # rows past n are zero
    xt = np.empty((length, k, c))
    chunks = xt.transpose(1, 0, 2)
    q, r = divmod(n, length)
    chunks[:q] = x[:q * length].reshape(q, length, c)
    if q < k:
        chunks[q, :r] = x[q * length:]
        chunks[q, r:] = 0.0
        chunks[q + 1:] = 0.0
    # chunk-major output (k, length, c): its first n rows are the result
    yt = np.empty((k, length, c))
    z = np.zeros((2, k, c))
    z[:, 0] = state
    tmp, scratch = np.empty((k, c)), np.empty((k - 1, c))
    # warm chunks 1..k-1 up on the last rows of the chunk before each
    for j in range(length - warmup, length):
        _df2t_step(xt[j, :-1], z[:, 1:], scratch, tmp[1:], b, a)
    starts = z.copy()
    for j in range(length):
        _df2t_step(xt[j], z, yt[:, j], tmp, b, a)
    # z holds each chunk's end state; chunk i's rows are sequential once its
    # start agrees with chunk i-1's end state and that chunk is sequential
    while k > 1 and not np.array_equal(starts[:, 1:], z[:, :-1], equal_nan=True):
        exact, first = z[:, :-1].copy(), starts[:, 1:].copy()
        starts[:, 1:] = exact
        for j in range(length):
            _df2t_step(xt[j, 1:], exact, yt[1:, j], tmp[1:], b, a)
            _df2t_step(xt[j, 1:], first, scratch, tmp[1:], b, a)
            if np.array_equal(exact, first):
                break
        else:
            # some chunk never agreed, so its end state changed: check again
            z[:, 1:] = exact
    return yt.reshape(k * length, c)[:n]


def lowpass_3hz(series: np.ndarray, frame_rate: float) -> np.ndarray:
    """Zero-phase 2nd-order Butterworth low-pass at ``CUTOFF_HZ`` (forward-backward).

    ``series`` is one channel (n,) or several (n, c), filtered along time.
    Requires a uniform sampling rate of at least 10 Hz and a series at
    least three settle lengths long.  The result is bitwise
    scipy.signal.filtfilt's with odd padding: each pass starts from the
    step-response steady state scaled by its first sample (Gustafsson
    1996), and long series are stepped in time chunks (`_df2t`).
    """
    if frame_rate < 10.0:
        raise ValueError("lowpass_3hz requires a sampling rate of at least 10 Hz")
    x = np.asarray(series, dtype=float)
    # pad three settle lengths so edge transients decay fully; this keeps the
    # forward-backward pass symmetric under time reversal
    settle = int(np.ceil(2.0 * frame_rate / CUTOFF_HZ))
    padlen = 3 * settle
    if x.shape[0] <= padlen:
        raise TooShort(f"series of length {x.shape[0]} needs more than {padlen} samples")
    b, a = _butter_lowpass(CUTOFF_HZ, frame_rate)
    cols = x.reshape(x.shape[0], -1)
    ext = np.concatenate([2 * cols[:1] - cols[padlen:0:-1], cols,
                          2 * cols[-1:] - cols[-2:-(padlen + 2):-1]])
    step = np.array([[-a[1], 1.0], [-a[2], 0.0]])
    # steady state of the step response: zi = A·zi + (b[1:] - a[1:]·b0)
    zi = np.linalg.solve(np.eye(2) - step, b[1:] - a[1:] * b[0])
    warmup = _forgetting_steps(step)
    y = _df2t(b, a, ext, np.outer(zi, ext[0]), warmup)
    del ext     # the backward pass reads the forward one alone
    y = _df2t(b, a, y[::-1], np.outer(zi, y[-1]), warmup)[::-1]
    return y[padlen:-padlen].reshape(x.shape)


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
    out = x - mean
    out /= sd   # in place: the same division without a second copy
    return out
