"""Echo-state-property index: response consistency across repeated trials.

A low index means repeated presentations of one stimulus schedule produce
nearly identical (standardized) responses regardless of the animal's state
at stimulus onset, which is the reproducibility a reservoir readout needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MisalignedTrials, TooShort

DEFAULT_HORIZON_S = 30.0


@dataclass
class EspParams:
    """Evaluation window for the index.

    ``transient_s`` is the initial stretch excluded from the distance
    average; ``horizon_s`` is the end of the evaluation window, both in
    seconds from stimulus onset.
    """

    transient_s: float = 2.0
    horizon_s: float = DEFAULT_HORIZON_S

    def __post_init__(self):
        if not 0 <= self.transient_s < self.horizon_s:
            raise ValueError("require 0 <= transient_s < horizon_s")


@dataclass
class EspIndexResult:
    value: float
    n_comparisons: int              # trials compared against each reference
    pair_deltas: np.ndarray         # mean distance per unordered trial pair


def evaluation_rows(n: int, params: EspParams, frame_rate: float) -> slice:
    """The rows of ``n``-row trials that `esp_index` compares: those at
    (transient_s, horizon_s] from the first."""
    if (n - 1) / frame_rate < params.horizon_s - 1e-9:
        raise TooShort(
            f"trials span {(n - 1) / frame_rate:.2f} s, need {params.horizon_s} s"
        )
    t = np.arange(n) / frame_rate
    rows = np.flatnonzero((t > params.transient_s) & (t <= params.horizon_s + 1e-12))
    if rows.size == 0:
        raise TooShort("evaluation window contains no samples")
    return slice(int(rows[0]), int(rows[-1]) + 1)


def esp_index(trials, params: EspParams, frame_rate: float) -> EspIndexResult:
    """Mean pairwise distance between aligned standardized trial responses.

    For each unordered pair of trials the per-sample Euclidean distance
    across the channel set is averaged over the window
    (transient_s, horizon_s]; the index is the mean of those pair averages,
    which equals the reference-averaged form with duplicate pairs removed.
    The trials must share one stimulus schedule: the index compares the
    responses to one input (Jaeger 2001), so the caller checks it.
    """
    xs = [np.atleast_2d(np.asarray(t, dtype=float).T).T for t in trials]
    if len(xs) < 2:
        raise ValueError("need at least 2 trials")
    shape = xs[0].shape
    if any(x.shape != shape for x in xs):
        raise MisalignedTrials("trials do not share one shape")

    window = evaluation_rows(shape[0], params, frame_rate)
    pairs = list(itertools.combinations(range(len(xs)), 2))
    deltas = np.empty(len(pairs))
    for k, (i, j) in enumerate(pairs):
        dist = np.linalg.norm(xs[i][window] - xs[j][window], axis=1)
        deltas[k] = dist.mean()
    return EspIndexResult(
        value=float(deltas.mean()),
        n_comparisons=len(xs) - 1,
        pair_deltas=deltas,
    )
