"""Scale-free structure of pulsatile motion: spectra, pulses, power-law fits.

The analysis has three stages: a Hann-windowed averaged periodogram
(`psd`), threshold-based pulse extraction into (duration, size) events
(`extract_pulses`), and log-log regression of either the spectrum or the
binned event distributions (`fit_power_law_psd`, `fit_power_law_events`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientBins, InsufficientEvents, TooShort
from .series import default_threshold, runs

MIN_PSD_SAMPLES = 256
SEGMENT_SAMPLES = 512
MIN_PEAK_FREQ_HZ = 0.05
BINS_PER_DECADE = 8
MIN_FIT_POINTS = 5


@dataclass
class PsdEstimate:
    """One-sided power spectral density with its dominant peak."""

    freqs: np.ndarray
    power: np.ndarray
    peak_freq: float


@dataclass
class PulseEvent:
    """One threshold-crossing burst."""

    onset_s: float
    duration_s: float   # time to the next upward crossing
    size: float         # integral of (value - threshold) over the burst


@dataclass
class PowerLawFit:
    """Ordinary least squares fit of log10(y) against log10(x)."""

    alpha: float
    intercept: float
    fit_range: tuple[float, float]
    r2_loglog: float
    n_points: int


def _loglog_ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Centered OLS of log10 y on log10 x; returns (slope, intercept, r2)."""
    lx = np.log10(x)
    ly = np.log10(y)
    xc = lx - lx.mean()
    yc = ly - ly.mean()
    slope = float(np.dot(xc, yc) / np.dot(xc, xc))
    intercept = float(ly.mean() - slope * lx.mean())
    ss_res = float(np.sum((yc - slope * xc) ** 2))
    ss_tot = float(np.sum(yc**2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _welch(x: np.ndarray, frame_rate: float, nper: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch (1967) density: periodic Hann, 50% overlap, mean.

    The result is bitwise scipy.signal.welch's (``detrend=False``): the
    same window, scaled the same way before the FFT, the same segments,
    and the mean over segments taken along contiguous memory, so numpy
    sums it in the same (pairwise) order.
    """
    step = nper - nper // 2
    n_seg = (x.shape[0] - nper // 2) // step
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nper + 1))[:nper]
    # builtin sum: scipy scales by a sequential sum, not np.sum's pairwise one
    window = window * (1 / np.sqrt(sum(window**2) / (1 / frame_rate)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nper)[::step][:n_seg]
    spectra = np.fft.rfft(segments * window, axis=1)
    power = np.ascontiguousarray((spectra.real**2 + spectra.imag**2).T)
    power[1:None if nper % 2 else -1] *= 2
    return np.fft.rfftfreq(nper, 1 / frame_rate), power.mean(axis=1)


def psd(series: np.ndarray, frame_rate: float) -> PsdEstimate:
    """Averaged-periodogram PSD with exact variance normalization.

    Parameters
    ----------
    series : array_like, shape (n,)
        Input series, at least 256 samples.
    frame_rate : float
        Sampling rate in Hz.

    The averaged periodogram takes segments of ``SEGMENT_SAMPLES`` (Hann
    window, 50% overlap), fewer for a shorter series.  The reported peak
    is the power argmax over frequencies strictly above
    ``MIN_PEAK_FREQ_HZ``.

    Returns
    -------
    PsdEstimate
        One-sided density rescaled so that sum(power) * df equals the
        series variance exactly, which keeps the Parseval check tight for
        arbitrary finite input.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("psd expects a single channel")
    n = x.shape[0]
    if n < MIN_PSD_SAMPLES:
        raise TooShort(f"psd needs at least {MIN_PSD_SAMPLES} samples, got {n}")
    x = x - x.mean()
    freqs, power = _welch(x, frame_rate, min(SEGMENT_SAMPLES, n))
    df = freqs[1] - freqs[0]
    variance = float(np.mean(x**2))
    total = float(power.sum() * df)
    if variance == 0.0 or total == 0.0:
        power = np.zeros_like(power)
    else:
        power = power * (variance / total)

    above = freqs > MIN_PEAK_FREQ_HZ
    if not above.any():
        raise TooShort("frequency resolution too coarse to search for a peak")
    peak_freq = float(freqs[above][np.argmax(power[above])])
    return PsdEstimate(freqs=freqs, power=power, peak_freq=peak_freq)


def fit_power_law_psd(
    estimate: PsdEstimate,
    fmin: float = MIN_PEAK_FREQ_HZ,
    fmax: float | None = None,
) -> PowerLawFit:
    """Fit log power against log frequency from ``fmin`` up to the peak.

    ``fmax`` overrides the default upper edge (the spectral peak), which is
    useful for featureless spectra with no meaningful peak.
    """
    if fmax is None:
        fmax = estimate.peak_freq
    mask = (estimate.freqs >= fmin) & (estimate.freqs <= fmax) & (estimate.power > 0)
    if mask.sum() < MIN_FIT_POINTS:
        raise InsufficientBins(
            f"only {int(mask.sum())} usable spectral bins in [{fmin}, {fmax}] Hz"
        )
    slope, intercept, r2 = _loglog_ols(estimate.freqs[mask], estimate.power[mask])
    return PowerLawFit(
        alpha=slope,
        intercept=intercept,
        fit_range=(fmin, float(fmax)),
        r2_loglog=r2,
        n_points=int(mask.sum()),
    )


def extract_pulses(series: np.ndarray, frame_rate: float,
                   threshold: float | None = None) -> list[PulseEvent]:
    """Extract threshold-crossing pulses from a series.

    Each upward crossing opens an event whose duration runs to the *next*
    upward crossing and whose size is the trapezoid integral of
    (value - threshold) over the above-threshold burst (the clipped ramps
    into the flanking below-threshold samples are included).  The last
    crossing has no successor and yields no event.  When ``threshold`` is
    None it defaults to mean + 0.5 SD of the series.
    """
    x = np.asarray(series, dtype=float)
    if threshold is None:
        threshold = default_threshold(x)
    dt = 1.0 / frame_rate
    starts, stops = runs(x > threshold)
    crossing = starts > 0
    onsets, ends = starts[crossing].tolist(), stops[crossing].tolist()
    if len(onsets) < 2:
        return []

    clipped = np.clip(x - threshold, 0.0, None)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (clipped[:-1] + clipped[1:]) * dt)))
    # a burst followed by a crossing ends inside the series, at its stop
    return [
        PulseEvent(onset_s=i0 * dt, duration_s=(i1 - i0) * dt, size=float(cum[end] - cum[i0 - 1]))
        for i0, i1, end in zip(onsets, onsets[1:], ends)
    ]


def fit_power_law_events(events: list[PulseEvent], field: str = "duration") -> PowerLawFit:
    """Fit the log-binned empirical distribution of event durations or sizes.

    Bin edges grow geometrically from the smallest observation at
    ``BINS_PER_DECADE`` bins per decade, counts are normalized to a
    density, empty bins are dropped, and the occupied bin centers are fit
    by OLS in log-log coordinates.
    """
    if field not in ("duration", "size"):
        raise ValueError(f"unknown event field {field!r}")
    if len(events) < 30:
        raise InsufficientEvents(f"need at least 30 events, got {len(events)}")
    values = np.array([e.duration_s if field == "duration" else e.size for e in events])
    values = values[values > 0]
    if values.size < 30:
        raise InsufficientEvents("fewer than 30 events with positive values")
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        raise InsufficientBins("all event values identical; a single occupied bin")

    # bin the values/vmin ratios so that rescaling the data cannot move a
    # sample across a bin edge (scale equivariance of the fitted exponent);
    # the half-step offset keeps every edge away from exact data ratios
    ratios = values / vmin
    n_bins = max(1, math.ceil(math.log10(vmax / vmin) * BINS_PER_DECADE + 0.5))
    edges_q = 10.0 ** ((np.arange(n_bins + 1) - 0.5) / BINS_PER_DECADE)
    if edges_q[-1] < ratios.max():
        edges_q[-1] = ratios.max() * (1.0 + 1e-12)
    counts, _ = np.histogram(ratios, bins=edges_q)
    density = counts / (values.size * vmin * np.diff(edges_q))
    occupied = counts > 0
    if occupied.sum() < MIN_FIT_POINTS:
        raise InsufficientBins(f"only {int(occupied.sum())} occupied bins")

    centers = vmin * np.sqrt(edges_q[:-1] * edges_q[1:])
    slope, intercept, r2 = _loglog_ols(centers[occupied], density[occupied])
    return PowerLawFit(
        alpha=slope,
        intercept=intercept,
        fit_range=(float(centers[occupied].min()), float(centers[occupied].max())),
        r2_loglog=r2,
        n_points=int(occupied.sum()),
    )
