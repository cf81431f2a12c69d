"""Cutting a series into stretches: threshold runs and time chunks.

Numpy only and no medusa imports, so every module can use it.
"""

from __future__ import annotations

import math

import numpy as np

# A start-state error below this no longer shows in a float64 state of
# magnitude about 1 (half an ulp of 1.0 is 1.1e-16).
FORGET_TOL = 1e-17


def runs(mask) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop indices of the runs of true values in a 1-D mask.

    Run i is ``mask[starts[i]:stops[i]]``.  A run at the start of the
    series starts at 0, one at its end stops at ``len(mask)``, so the
    upward crossings of ``x > threshold`` are the starts above 0.
    """
    m = np.asarray(mask, dtype=bool)
    edges = np.flatnonzero(np.diff(m, prepend=False, append=False))
    return edges[::2], edges[1::2]


def default_threshold(series: np.ndarray) -> float:
    """Pulse threshold: channel mean plus half a standard deviation."""
    x = np.asarray(series, dtype=float)
    return float(x.mean() + 0.5 * x.std())


def time_chunks(n: int, warmup: int | None) -> tuple[int, int, int]:
    """(K chunks, L rows per chunk, warm-up W) to step an n-row recursion in.

    ``warmup`` is the recursion's forgetting bound in steps, or None when
    it has none.  Without a bound, or on fewer than 4·W rows, K is 1 and
    W is 0.  Otherwise K = min((n - 1) // W, round(2·√(n / W))), which
    keeps every chunk longer than W so each warm-up starts inside the
    series, and L = ceil(n / K); the last chunk is padded to L rows.
    """
    if warmup is None or n < 4 * warmup:
        return 1, n, 0
    k = min((n - 1) // warmup, round(2.0 * math.sqrt(n / warmup)))
    return k, -(-n // k), warmup
