"""`series.runs` and `series.time_chunks` against the code they replaced.

The old expressions and the old implementations of the functions that now
use them are kept here as oracles; the new code must give equal results.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medusa import cli, criticality, ingest, kinematics, synthgen
from medusa import reservoir as rc
from medusa.criticality import PulseEvent
from medusa.errors import MedusaError
from medusa.series import default_threshold, runs, time_chunks
from avalanche import gen_avalanche

# ---------------------------------------------------------------------------
# the old expressions
# ---------------------------------------------------------------------------


def rising_edges(active):
    """ingest.align_stimulus and cli.AnalysisTable.stim_onsets."""
    return np.flatnonzero(active & ~np.concatenate(([False], active[:-1])))


def upward_crossings(above):
    """reservoir.detect_pulse_onsets and criticality.extract_pulses."""
    return np.flatnonzero(above[1:] & ~above[:-1]) + 1


def burst_ends(above, crossings):
    """criticality.extract_pulses: each crossing's run end + 1, where a
    below-threshold sample follows it."""
    below_idx = np.flatnonzero(~above)
    at = np.searchsorted(below_idx, crossings)
    return below_idx[at[at < below_idx.size]]


def index_runs(mask):
    """cli._lowpass_valid_segments and ingest.interpolate_gaps."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    return [(run[0], run[-1] + 1) for run in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)]


def check_runs(mask):
    starts, stops = runs(mask)
    np.testing.assert_array_equal(starts, rising_edges(mask))
    crossings = upward_crossings(mask)
    np.testing.assert_array_equal(starts[starts > 0], crossings)
    ends = burst_ends(mask, crossings)
    np.testing.assert_array_equal(stops[starts > 0][:ends.size], ends)
    assert list(zip(starts.tolist(), stops.tolist())) == [(int(a), int(b))
                                                          for a, b in index_runs(mask)]
    rebuilt = np.zeros(mask.shape, dtype=bool)
    for a, b in zip(starts, stops):
        rebuilt[a:b] = True
    np.testing.assert_array_equal(rebuilt, mask)


@given(st.lists(st.booleans(), max_size=300))
@example([])
@example([True])
@example([False])
@example([True] * 7)
@example([False] * 7)
@example([True, True, False, False, True])
@example([False, True, True, False])
@example([True, False, True, False, True])
def test_runs_match_every_old_expression_on_masks(mask):
    check_runs(np.array(mask, dtype=bool))


@given(st.lists(st.integers(-3, 3), max_size=300), st.integers(-4, 4))
@example([], 0)
@example([1], 0)
@example([-1], 0)
@example([2, 2, 2], 1)
@example([2, 0, 2], 1)
def test_runs_match_every_old_expression_on_thresholded_series(values, threshold):
    # integer-valued floats and thresholds, so samples tie with the threshold
    check_runs(np.array(values, dtype=float) > threshold)


# ---------------------------------------------------------------------------
# the old implementations
# ---------------------------------------------------------------------------


def old_extract_pulses(series, threshold=None, frame_rate=60.0):
    x = np.asarray(series, dtype=float)
    if threshold is None:
        threshold = default_threshold(x)
    dt = 1.0 / frame_rate
    above = x > threshold
    crossings = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    if crossings.size < 2:
        return []
    clipped = np.clip(x - threshold, 0.0, None)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (clipped[:-1] + clipped[1:]) * dt)))
    below_idx = np.flatnonzero(~above)
    events = []
    for k in range(crossings.size - 1):
        i0 = int(crossings[k])
        run_end = int(below_idx[np.searchsorted(below_idx, i0)]) - 1
        j0 = i0 - 1
        j1 = min(run_end + 1, x.shape[0] - 1)
        events.append(PulseEvent(onset_s=i0 * dt, duration_s=(int(crossings[k + 1]) - i0) * dt,
                                 size=float(cum[j1] - cum[j0])))
    return events


def old_detect_pulse_onsets(series, frame_rate=60.0, threshold=None, refractory_s=0.5):
    x = np.asarray(series, dtype=float)
    if threshold is None:
        threshold = float(x.mean() + 0.5 * x.std())
    above = x > threshold
    rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    keep = []
    gap = refractory_s * frame_rate
    for idx in rising:
        if not keep or idx - keep[-1] >= gap:
            keep.append(int(idx))
    return np.array(keep, dtype=int)


def old_interpolate_gaps(trial, max_gap_frames=5):
    n = trial.n_frames
    pos = trial.positions.reshape(n, 24).copy()
    for col in range(24):
        x = pos[:, col]
        missing = ~np.isfinite(x)
        if not missing.any() or missing.all():
            continue
        idx = np.flatnonzero(missing)
        splits = np.flatnonzero(np.diff(idx) > 1) + 1
        for run in np.split(idx, splits):
            lo, hi = run[0] - 1, run[-1] + 1
            if lo < 0 or hi >= n or len(run) > max_gap_frames:
                continue
            x[run] = np.interp(run, [lo, hi], [x[lo], x[hi]])
    return pos.reshape(n, 8, 3)


def old_lowpass_valid_segments(x, valid, fs):
    out = x.copy()
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return out
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    for run in np.split(idx, splits):
        seg = slice(run[0], run[-1] + 1)
        try:
            out[seg] = kinematics.lowpass_3hz(x[seg], fs)
        except MedusaError:
            pass
    return out


def old_esn_chunking(t_len, w):
    """reservoir._chunking, given the forgetting bound."""
    if w is None or t_len < 4 * w:
        return 1, t_len, 0
    k = min((t_len - 1) // w, round(2.0 * math.sqrt(t_len / w)))
    return k, -(-t_len // k), w


def old_df2t_chunking(n, warmup):
    """kinematics._df2t's chunk count, length and warm-up."""
    if n < 4 * warmup:
        k, warmup = 1, 0
    else:
        k = min((n - 1) // warmup, round(2.0 * math.sqrt(n / warmup)))
    return k, -(-n // k), warmup


# ---------------------------------------------------------------------------
# trials: generated, and with gaps cut into them
# ---------------------------------------------------------------------------

GAPS = ((0, 4), (100, 101), (300, 303), (700, 712), (1500, 1530), (2400, 2560), (3590, 3600))


def generated(seed, tau):
    schedule = synthgen.pwm_schedule(tau, 60.0) if tau else None
    params = synthgen.SyntheticJellyfishParams(seed=seed, noise_sd_mm=0.05)
    return synthgen.gen_jellyfish(params, schedule, 60.0)[0]


def gappy(trial, seed):
    """Whole-frame gaps at the ends and inside, and single-coordinate ones."""
    pos = trial.positions.copy()
    for a, b in GAPS:
        pos[a:b] = np.nan
    rng = np.random.default_rng(seed)
    for _ in range(40):
        start, length = rng.integers(0, trial.n_frames), rng.integers(1, 9)
        pos[start:start + length, rng.integers(8), rng.integers(3)] = np.nan
    return ingest.TrialRecording(trial.animal_id, trial.condition, pos, trial.stimulus,
                                 trial.frame_rate, trial.period_s)


TRIALS = {
    "spontaneous": generated(1, None),
    "stimulated": generated(2, 2.0),
}
TRIALS["gappy_spontaneous"] = gappy(TRIALS["spontaneous"], 3)
TRIALS["gappy_stimulated"] = gappy(TRIALS["stimulated"], 4)


def channels(trial):
    """The series soc and train threshold: standardized lengths and radii,
    and the velocities, NaN on the invalid frames."""
    lengths = kinematics.pairwise_lengths(trial)
    pose = kinematics.body_frame(trial)
    v = kinematics.local_velocities(trial, pose)
    out = {name: lengths.channel(name) for name in kinematics.RADIAL_PAIR_NAMES}
    out["inner_radius"] = pose.inner_radius
    out = {name: kinematics.standardize(series) for name, series in out.items()}
    out.update(vx=v[:, 0], vz=v[:, 2], vz_std=kinematics.standardize(v[:, 2]))
    return out


def event_table(events):
    return np.array([(e.onset_s, e.duration_s, e.size) for e in events]).reshape(-1, 3)


@pytest.mark.parametrize("name", TRIALS)
def test_pulses_and_onsets_equal_the_old_implementations(name):
    for series in channels(TRIALS[name]).values():
        for threshold in (None, 0.0, 0.5):
            new = criticality.extract_pulses(series, 60.0, threshold=threshold)
            np.testing.assert_array_equal(event_table(new),
                                          event_table(old_extract_pulses(series, threshold)))
            assert all(type(v) is float for e in new for v in (e.onset_s, e.duration_s, e.size))
        # the onsets take the default threshold and refractory period only
        np.testing.assert_array_equal(rc.detect_pulse_onsets(series, 60.0),
                                      old_detect_pulse_onsets(series))


def test_pulses_equal_the_old_implementation_on_avalanches():
    for kernel in ("rect", "cosine"):
        series, _ = gen_avalanche(-1.6, 200, kernel=kernel, seed=5)
        for threshold in (None, 0.0, 0.3):
            np.testing.assert_array_equal(
                event_table(criticality.extract_pulses(series, 60.0, threshold=threshold)),
                event_table(old_extract_pulses(series, threshold)))


@pytest.mark.parametrize("name", TRIALS)
def test_interpolate_gaps_equals_the_old_implementation(name):
    trial = TRIALS[name]
    for max_gap in (0, 1, 3, 5, 12, 200):
        filled = ingest.interpolate_gaps(trial, max_gap)
        old = old_interpolate_gaps(trial, max_gap)
        np.testing.assert_array_equal(filled.positions, old)
        np.testing.assert_array_equal(filled.valid_mask, np.isfinite(old).all(axis=(1, 2)))


@pytest.mark.parametrize("name", TRIALS)
def test_lowpass_valid_segments_equals_the_old_implementation(name):
    trial = TRIALS[name]
    flat = trial.positions.reshape(trial.n_frames, -1)
    for valid in (trial.valid_mask, np.zeros(trial.n_frames, dtype=bool),
                  np.ones(trial.n_frames, dtype=bool)):
        filtered = flat.copy()
        cli._lowpass_valid_segments(filtered, valid, 60.0)
        np.testing.assert_array_equal(filtered, old_lowpass_valid_segments(flat, valid, 60.0))


def test_stimulus_onsets_equal_the_old_rising_edges():
    stim = TRIALS["stimulated"].stimulus
    led = np.where(stim > 0, 200.0, 20.0)
    active, onsets = ingest.align_stimulus(led, 110.0, 60.0)
    np.testing.assert_array_equal(onsets, rising_edges(led > 110.0) / 60.0)
    table = cli.AnalysisTable(np.zeros((stim.size, len(kinematics.ANALYSIS_COLUMNS))), {})
    table.data[:, kinematics.ANALYSIS_COLUMNS.index("stim")] = stim
    np.testing.assert_array_equal(table.stim_onsets(), rising_edges(stim > 0))


# ---------------------------------------------------------------------------
# time chunks
# ---------------------------------------------------------------------------


def test_time_chunks_equal_both_old_formulas():
    ns = range(1, 50_001)
    for n in ns:
        assert time_chunks(n, None) == old_esn_chunking(n, None)
    for w in (1, 2, 3, 5, 40, 97, 212, 400):
        for n in ns:
            assert time_chunks(n, w) == old_esn_chunking(n, w) == old_df2t_chunking(n, w)
    # every warm-up from 1 to 400 around and past its 4·W switch
    for w in range(1, 401):
        for n in [*range(max(1, 4 * w - 3), 4 * w + 40), *range(4 * w + 40, 50_001, 997)]:
            assert time_chunks(n, w) == old_esn_chunking(n, w) == old_df2t_chunking(n, w)


@settings(max_examples=300)
@given(st.integers(1, 50_000), st.integers(1, 400))
def test_time_chunks_cover_the_rows_with_chunks_longer_than_the_warmup(n, w):
    k, length, warmup = time_chunks(n, w)
    assert k * length >= n > k - 1
    assert (k, length, warmup) == (1, n, 0) or (warmup == w and length > w)
