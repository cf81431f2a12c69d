"""Pulse trains with a known power-law exponent, the oracle for the
criticality fits (`medusa.criticality`).

Only the tests and acceptance gate c04 build these series, so the
generator lives beside them rather than in `medusa.synthgen`.
"""

from __future__ import annotations

import numpy as np

from medusa.criticality import PulseEvent

# gen_avalanche's series: its sampling rate, and the baseline samples
# between events and before the first and after the last
AVALANCHE_FRAME_RATE = 60.0
AVALANCHE_GAP_SAMPLES = 1
AVALANCHE_LEAD_IN_SAMPLES = 10


def gen_avalanche(
    exponent: float,
    n_events: int,
    kernel: str = "rect",
    size_range: tuple[float, float] = (0.5, 50.0),
    amplitude: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, list[PulseEvent]]:
    """Pulse train whose event sizes follow a bounded power law.

    Sizes (area above baseline, amplitude x width) are drawn from a density
    proportional to s**exponent on ``size_range``; widths scale with the
    sizes, so extracted durations and sizes share the exponent.  Returns
    the series, sampled at ``AVALANCHE_FRAME_RATE``, and the true event
    list (onset, width, area); events are separated by
    ``AVALANCHE_GAP_SAMPLES`` baseline samples so every onset is an upward
    threshold crossing.
    """
    if exponent >= -1.0:
        raise ValueError("exponent must be < -1")
    if n_events == 0:
        return np.zeros(2 * AVALANCHE_LEAD_IN_SAMPLES), []
    lo, hi = size_range
    if not 0 < lo < hi:
        raise ValueError("size_range must be positive and increasing")

    rng = np.random.default_rng(seed)
    ap1 = exponent + 1.0
    u = rng.random(n_events)
    sizes = (lo**ap1 + u * (hi**ap1 - lo**ap1)) ** (1.0 / ap1)
    widths = np.maximum(1, np.round(sizes / amplitude * AVALANCHE_FRAME_RATE).astype(int))

    if kernel == "rect":
        shapes = [np.full(w, amplitude) for w in widths]
    elif kernel == "cosine":
        shapes = [
            amplitude * 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(w) / max(w - 1, 1)))
            for w in widths
        ]
    else:
        raise ValueError(f"unknown kernel {kernel!r}")

    chunks = [np.zeros(AVALANCHE_LEAD_IN_SAMPLES)]
    onsets = np.empty(n_events, dtype=int)
    cursor = AVALANCHE_LEAD_IN_SAMPLES
    for i, shape in enumerate(shapes):
        onsets[i] = cursor
        chunks.append(shape)
        chunks.append(np.zeros(AVALANCHE_GAP_SAMPLES))
        cursor += shape.size + AVALANCHE_GAP_SAMPLES
    chunks.append(np.zeros(AVALANCHE_LEAD_IN_SAMPLES))
    series = np.concatenate(chunks)

    events = [
        PulseEvent(
            onset_s=onsets[i] / AVALANCHE_FRAME_RATE,
            duration_s=widths[i] / AVALANCHE_FRAME_RATE,
            size=amplitude * widths[i] / AVALANCHE_FRAME_RATE,
        )
        for i in range(n_events)
    ]
    return series, events
