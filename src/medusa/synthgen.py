"""Synthetic stimulus schedules and desk-scale data generators.

`gen_jellyfish` produces marker trajectories from a parametric model of a
two-ring pulsating body: each pulse is a raised-cosine contraction
followed by an exponential relaxation (about 1.6 s end to end), thrust is
driven by the contraction rate with a mild amplitude-dependent
nonlinearity, and stimulated runs entrain 1:1 only for periods the muscle
kernel can follow.  Ground truth (pose, radii, local velocities, response
onsets) is returned alongside the marker data so every downstream stage
can be checked against known answers.  (The power-law avalanche trains
that check the criticality fits are built by the tests' own generator,
``tests/avalanche.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeriodTooShort
from .ingest import TrialRecording
from .kinematics import BodyFrameSeries, euler_zyz_to_matrix, matrix_to_euler_zyz

BURST_DURATION_S = 0.1
FRAME_RATE = 60.0
MIN_DURATION_S = 10.0
# the generator's fixed body and physiology; SyntheticJellyfishParams holds what varies
REST_INNER_MM = 12.0
RING_HEIGHT_MM = 8.0
START_MM = (75.0, 75.0, 75.0)
CONTRACTION_RISE_S = 0.6
RELAXATION_TAU_S = 1.0
SPONTANEOUS_INTERVAL_MEAN_S = 2.2
SPONTANEOUS_INTERVAL_SD_S = 0.45
RESPONSIVENESS_FLOOR_S = 1.2    # periods at least this long entrain 1:1
REFRACTORY_MEAN_S = 1.4
REFRACTORY_SD_S = 0.30
PROPULSION_GAIN = 1.6           # thrust per mm of ring contraction [1/s]
THRUST_CURVATURE = 0.8
TRANSVERSE_FREQ_HZ = 0.03
AMPLITUDE_JITTER = 0.10
STIM_JITTER_S = 0.05
RESPONSE_JITTER_S = 0.15


@dataclass
class StimulusSchedule:
    """Periodic burst schedule for the pulse-width-modulated stimulator."""

    period_s: float
    onsets_s: np.ndarray

    def burst_active(self, frame_rate: float, n_samples: int) -> np.ndarray:
        """Binary series, 1 while a burst is being delivered: at the sample
        times t with onset - 1e-12 <= t < onset + burst - 1e-12."""
        t = np.arange(n_samples) / frame_rate     # ascending, so each burst is one slice
        onsets = np.asarray(self.onsets_s, dtype=float)
        starts = np.searchsorted(t, onsets - 1e-12)
        stops = np.searchsorted(t, onsets + BURST_DURATION_S - 1e-12)
        active = np.zeros(n_samples, dtype=np.uint8)
        for start, stop in zip(starts, stops):
            active[start:stop] = 1
        return active


def pwm_schedule(period_s: float, window_s: float) -> StimulusSchedule:
    """Bursts at 0, period, 2*period, ... strictly within the window."""
    if period_s <= BURST_DURATION_S:
        raise PeriodTooShort(
            f"period {period_s} s must exceed the {BURST_DURATION_S} s burst"
        )
    n = int(np.ceil(window_s / period_s - 1e-12))
    return StimulusSchedule(period_s=period_s, onsets_s=np.arange(n) * period_s)


@dataclass
class SyntheticJellyfishParams:
    """What varies between generated animals and trials."""

    rest_outer_mm: float = 25.0
    contraction_amplitude_mm: float = 5.0
    transverse_drift_mm_s: float = 0.5
    noise_sd_mm: float = 0.0
    orientation_euler: tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if not REST_INNER_MM > self.contraction_amplitude_mm >= 0:
            raise ValueError("require rest radii > contraction amplitude >= 0")
        if self.rest_outer_mm <= REST_INNER_MM:
            raise ValueError("outer rest radius must exceed the inner one")


@dataclass
class GroundTruth:
    """Everything the generator knows that the pipeline must recover."""

    body: BodyFrameSeries
    response_onsets_s: np.ndarray
    response_amplitudes: np.ndarray | None = None


_RING_ANGLES = {"R": 0.0, "Y": 0.5 * np.pi, "O": np.pi, "B": 1.5 * np.pi}
# marker order must match ingest.MARKER_LABELS: R1,R2,Y1,Y2,O1,O2,B1,B2
_MARKER_LAYOUT = [("R", 1), ("R", 2), ("Y", 1), ("Y", 2),
                  ("O", 1), ("O", 2), ("B", 1), ("B", 2)]


def _pulse_kernel(frame_rate: float):
    """Sampled contraction kernel and its analytic time derivative."""
    rise = CONTRACTION_RISE_S
    tau = RELAXATION_TAU_S
    support = rise + 8.0 * tau
    t = np.arange(int(round(support * frame_rate))) / frame_rate
    k = np.where(
        t < rise,
        0.5 * (1.0 - np.cos(np.pi * t / rise)),
        np.exp(-(t - rise) / tau),
    )
    rate = np.where(
        t < rise,
        0.5 * np.pi / rise * np.sin(np.pi * t / rise),
        -np.exp(-(t - rise) / tau) / tau,
    )
    return k, rate


def _recovery(delta_s: float) -> float:
    """Pulse amplitude attainable after a given recovery interval."""
    return float(np.clip(delta_s / 1.6, 0.0, 1.0) ** 0.5)


def _response_plan(
    schedule: StimulusSchedule | None,
    duration_s: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Pulse response times and amplitudes for one trial."""
    jitter = AMPLITUDE_JITTER
    if schedule is None:
        times, amps = [], []
        t = float(rng.uniform(0.2, SPONTANEOUS_INTERVAL_MEAN_S))
        while t < duration_s:
            times.append(t)
            amps.append(1.0 - jitter * rng.random())
            t += max(0.8, rng.normal(SPONTANEOUS_INTERVAL_MEAN_S, SPONTANEOUS_INTERVAL_SD_S))
        return np.array(times), np.array(amps)

    onsets = schedule.onsets_s[schedule.onsets_s < duration_s]
    if schedule.period_s >= RESPONSIVENESS_FLOOR_S:
        amps = _recovery(schedule.period_s) * (1.0 - jitter * rng.random(onsets.size))
        times = onsets + rng.uniform(-STIM_JITTER_S, STIM_JITTER_S, onsets.size)
        return times, amps
    # below the responsiveness floor the muscle follows only pulses it has
    # recovered for, with irregular skipping, reduced amplitude and timing slop
    times, amps = [], []
    last = -np.inf
    for onset in onsets:
        refractory = rng.normal(REFRACTORY_MEAN_S, REFRACTORY_SD_S)
        delta = onset - last
        if delta < refractory:
            continue
        times.append(onset + rng.uniform(-RESPONSE_JITTER_S, RESPONSE_JITTER_S))
        amps.append(0.6 * _recovery(min(delta, 2.0)) * (1.0 - 3 * jitter * rng.random()))
        last = onset
    return np.array(times), np.array(amps)


def gen_jellyfish(
    params: SyntheticJellyfishParams,
    schedule: StimulusSchedule | None,
    duration_s: float,
) -> tuple[TrialRecording, GroundTruth]:
    """Generate a marker trial plus its ground truth.

    Eight markers sit on two concentric rings (inner ring centered on the
    body COM, outer ring one ring-height below).  Each response pulse
    contracts both rings with the shared kernel; thrust along the body
    axis follows the contraction rate, positive while contracting and
    negative during relaxation, with a mild dependence on the contraction
    state itself.  Spontaneous mode draws pulse intervals from the
    configured distribution; stimulated mode follows the schedule subject
    to the responsiveness floor.
    """
    if duration_s < MIN_DURATION_S:
        raise ValueError(f"generator trials must span at least {MIN_DURATION_S:g} s")
    fs = FRAME_RATE
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    rng = np.random.default_rng(params.seed)

    times, amps = _response_plan(schedule, duration_s, rng)
    kernel, kernel_rate = _pulse_kernel(fs)
    contraction = np.zeros(n)
    rate = np.zeros(n)
    onset_idx = np.round(times * fs).astype(int)
    keep = (onset_idx >= 0) & (onset_idx < n)
    onset_idx, amps = onset_idx[keep], np.asarray(amps)[keep]
    for idx, amp in zip(onset_idx, amps):
        stop = min(n, idx + kernel.size)
        contraction[idx:stop] += amp * kernel[: stop - idx]
        rate[idx:stop] += amp * kernel_rate[: stop - idx]

    # velocity expressed directly in the marker-defined body frame; thrust
    # follows the physical contraction rate with a mild state dependence
    v_gen = np.zeros((n, 3))
    v_gen[:, 2] = (
        PROPULSION_GAIN
        * params.contraction_amplitude_mm
        * rate
        * (1.0 + THRUST_CURVATURE * contraction)
    )
    phase = rng.uniform(0, 2 * np.pi)
    v_gen[:, 0] = params.transverse_drift_mm_s * np.sin(
        2 * np.pi * TRANSVERSE_FREQ_HZ * t + phase
    )
    v_gen[:, 1] = 0.6 * params.transverse_drift_mm_s * np.cos(
        2 * np.pi * TRANSVERSE_FREQ_HZ * t + phase
    )

    # body axes in world coordinates; the x-axis follows the Y2->O2 chord
    r_p = euler_zyz_to_matrix(np.asarray(params.orientation_euler, dtype=float))
    chord = np.array([-1.0, -1.0, 0.0]) / np.sqrt(2.0)
    m0 = np.column_stack([chord, np.cross([0.0, 0.0, 1.0], chord), [0.0, 0.0, 1.0]])
    m_bw = r_p @ m0
    v_world = v_gen @ m_bw.T

    com = np.asarray(START_MM, dtype=float) + np.vstack(
        [np.zeros(3), np.cumsum(v_world[:-1], axis=0) / fs]
    )

    scale = REST_INNER_MM / params.rest_outer_mm
    r_inner = REST_INNER_MM - params.contraction_amplitude_mm * scale * contraction
    r_outer = params.rest_outer_mm - params.contraction_amplitude_mm * contraction

    positions = np.empty((n, 8, 3))
    for m, (color, ring) in enumerate(_MARKER_LAYOUT):
        angle = _RING_ANGLES[color]
        radius = r_inner if ring == 2 else r_outer
        offset = np.zeros((n, 3))
        offset[:, 0] = radius * np.cos(angle)
        offset[:, 1] = radius * np.sin(angle)
        if ring == 1:
            offset[:, 2] = -RING_HEIGHT_MM
        positions[:, m, :] = com + offset @ r_p.T
    if params.noise_sd_mm > 0:
        positions = positions + rng.normal(0.0, params.noise_sd_mm, positions.shape)

    if schedule is None:
        stim = np.zeros(n, dtype=np.uint8)
        condition, period = "spontaneous", None
    else:
        stim = schedule.burst_active(fs, n)
        condition, period = "stimulated", schedule.period_s

    trial = TrialRecording(
        animal_id="SYNTH",
        condition=condition,
        period_s=period,
        positions=positions,
        stimulus=stim,
        frame_rate=fs,
    )

    rot_wb = np.broadcast_to(m_bw.T, (n, 3, 3)).copy()
    euler = np.broadcast_to(matrix_to_euler_zyz(m_bw), (n, 3)).copy()
    truth = GroundTruth(
        body=BodyFrameSeries(
            com=com,
            inner_radius=r_inner,
            outer_radius=np.sqrt(r_outer**2 + RING_HEIGHT_MM**2),
            euler_zyz=euler,
            rotation=rot_wb,
            frame_rate=fs,
            v_local=v_gen,
        ),
        response_onsets_s=onset_idx / fs,
        response_amplitudes=amps,
    )
    return trial, truth
