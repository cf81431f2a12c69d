"""Exhaustive best-sensor-subset search over the 30-candidate pool.

Candidates are the 28 pairwise marker lengths plus the inner and outer
body radii.  Every subset of up to 5 sensors is scored as a direct linear
readout (sensors + bias) against each task target.  The (31 x 31) Gram and
the per-task moments come once from `reservoir.normal_equations`; each
subset then costs a k x k subblock solve, independent of sample count.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTask, require_finite
from .kinematics import PAIR_NAMES
from .reservoir import RIDGE_DEFAULT, normal_equations

DEFAULT_K_MAX = 5
RADIUS_NAMES = ("inner_radius", "outer_radius")
POOL_NAMES: tuple[str, ...] = PAIR_NAMES + RADIUS_NAMES
CHUNK_SIZE = 2_500      # subsets scored per block; bounds a block's memory
_TIE_TOL = 1e-9


@dataclass
class TaskResult:
    subset: tuple[str, ...]
    r2: float


@dataclass
class SensorSearchReport:
    pool_names: tuple[str, ...]
    best: dict[str, TaskResult]
    tally: dict[str, int]
    elapsed_s: float
    n_subsets: int
    n_tasks: int
    stats: dict = field(default_factory=dict)


def _eval_chunk(idx, gram, moments, yty, sst):
    """Score one chunk of equal-size subsets against all tasks.

    Returns, per task, the chunk's best score and its candidates: each
    subset within tolerance of that score, as (score, subset) in chunk
    order.  A task's pick lies among them wherever its overall best is.
    """
    c, k = idx.shape
    pool = gram.shape[0] - 1
    aug = np.concatenate([idx, np.full((c, 1), pool, dtype=idx.dtype)], axis=1)
    gb = gram[aug[:, :, None], aug[:, None, :]]     # fancy indexing copies
    diag = np.arange(k + 1)
    gb[:, diag, diag] += RIDGE_DEFAULT     # for conditioning
    cb = moments[aug]
    w = np.linalg.solve(gb, cb)
    sse = yty[None, :] - np.einsum("nft,nft->nt", w, 2.0 * cb - gb @ w)
    r2 = 1.0 - sse / sst[None, :]
    picks = []
    for t in range(r2.shape[1]):
        top = float(r2[:, t].max())
        near = np.flatnonzero(r2[:, t] >= top - _TIE_TOL)
        picks.append((top, [(float(r2[j, t]), tuple(int(v) for v in idx[j])) for j in near]))
    return picks


def search_best(
    data: np.ndarray,
    tasks: dict[str, np.ndarray],
    pool_names: tuple[str, ...],
    washout: int = 1_000,
    k_max: int = DEFAULT_K_MAX,
) -> SensorSearchReport:
    """Find the best sensor subset per task by exhaustive search.

    ``data`` holds the standardized candidate sensors, one column per name
    of ``pool_names``; ``tasks`` maps a task label to its aligned target series.
    Subsets are scored by post-washout R-squared of the direct linear
    readout.  A task's pick is the first subset, in enumeration order
    (smaller subsets first, then lexicographically), whose score is within
    1e-9 of the task's best score.  The blocks of ``CHUNK_SIZE`` subsets are
    scored on one thread and merged in enumeration order, so the report does
    not depend on the block size.
    """
    x = np.asarray(data, dtype=float)
    if len(pool_names) != x.shape[1]:
        raise ValueError("pool_names length does not match the data width")
    if washout < 0:
        raise ValueError(f"washout must be >= 0, got {washout}")
    pool = x.shape[1]
    task_names = list(tasks)
    y = np.column_stack([np.asarray(tasks[t], dtype=float) for t in task_names])
    if y.shape[0] != x.shape[0]:
        raise ValueError("tasks and sensors must share one sample count")

    yp = y[washout:]
    # one non-finite row would poison the shared Gram and every subset score
    require_finite(x[washout:], "post-washout sensor input", first_row=washout)
    require_finite(yp, "post-washout target", first_row=washout)
    y_mean = yp.mean(axis=0)
    sst = np.sum((yp - y_mean) ** 2, axis=0)
    if np.any(sst == 0):
        bad = task_names[int(np.flatnonzero(sst == 0)[0])]
        raise DegenerateTask(f"task {bad!r} target is constant after washout")

    started = time.perf_counter()
    gram, moments = next(normal_equations(x, y, washout, (0,)))
    yty = np.sum(yp**2, axis=0)

    top = {t: -np.inf for t in task_names}
    # per task, every subset within tolerance of its best score so far, in
    # enumeration order; a later, higher best drops those it leaves behind
    near = {t: [(-np.inf, ())] for t in task_names}
    n_subsets = 0
    for k in range(1, k_max + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(pool), k))
        while (block := np.fromiter(itertools.islice(flat, CHUNK_SIZE * k), np.intp)).size:
            n_subsets += block.size // k
            picks = _eval_chunk(block.reshape(-1, k), gram, moments, yty, sst)
            for t, (score, candidates) in zip(task_names, picks):
                top[t] = max(top[t], score)
                near[t] = [c for c in near[t] + candidates if c[0] >= top[t] - _TIE_TOL]
    best = {t: TaskResult(subset=tuple(pool_names[i] for i in near[t][0][1]), r2=near[t][0][0])
            for t in task_names}

    tally = {name: 0 for name in pool_names}
    for t in task_names:
        for name in best[t].subset:
            tally[name] += 1

    elapsed = time.perf_counter() - started
    return SensorSearchReport(
        pool_names=tuple(pool_names),
        best=best,
        tally=tally,
        elapsed_s=elapsed,
        n_subsets=n_subsets,
        n_tasks=len(task_names),
        stats={
            "gram_builds": 1,
            "gram_size": pool + 1,
            "subset_solves": n_subsets,
            "post_washout_samples": len(yp),
        },
    )


def top_sensors(report: SensorSearchReport, n: int) -> list[str]:
    """The ``n`` most frequent best-subset members; ties break by name."""
    ranked = sorted(report.pool_names, key=lambda name: (-report.tally.get(name, 0), name))
    return ranked[:n]
