"""Exhaustive best-sensor-subset search over the 30-candidate pool.

Candidates are the 28 pairwise marker lengths plus the inner and outer
body radii.  Every subset of up to 5 sensors is scored as a direct linear
readout (sensors + bias) against each task target.  One (31 x 31) Gram
matrix and the per-task cross-moment vectors are computed once; each
subset then costs a k x k subblock solve, independent of sample count.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTask, require_finite
from .kinematics import PAIR_NAMES

POOL_SIZE = 30
DEFAULT_K_MAX = 5
RADIUS_NAMES = ("inner_radius", "outer_radius")
POOL_NAMES: tuple[str, ...] = PAIR_NAMES + RADIUS_NAMES
_TIE_TOL = 1e-9


@dataclass
class TaskResult:
    task: str
    subset: tuple[str, ...]
    subset_idx: tuple[int, ...]
    r2: float


@dataclass
class SensorSearchReport:
    pool_names: tuple[str, ...]
    best: dict[str, TaskResult]
    tally: dict[str, int]
    elapsed_s: float
    n_subsets: int
    n_tasks: int
    n_workers: int
    stats: dict = field(default_factory=dict)


def _eval_chunk(args):
    """Score one chunk of equal-size subsets against all tasks.

    Returns, per task, the first (lexicographically smallest) subset whose
    score is within tolerance of the chunk maximum.
    """
    idx, gram, moments, yty, sst, ridge = args
    c, k = idx.shape
    pool = gram.shape[0] - 1
    aug = np.concatenate([idx, np.full((c, 1), pool, dtype=idx.dtype)], axis=1)
    gb = gram[aug[:, :, None], aug[:, None, :]].copy()
    diag = np.arange(k + 1)
    gb[:, diag, diag] += ridge
    cb = moments[aug]
    w = np.linalg.solve(gb, cb)
    sse = yty[None, :] - np.einsum("nft,nft->nt", w, 2.0 * cb - gb @ w)
    r2 = 1.0 - sse / sst[None, :]
    picks = []
    for t in range(r2.shape[1]):
        top = float(r2[:, t].max())
        j = int(np.argmax(r2[:, t] >= top - _TIE_TOL))
        picks.append((float(r2[j, t]), tuple(int(v) for v in idx[j])))
    return picks


def subset_r2(
    data: np.ndarray,
    target: np.ndarray,
    subset,
    washout: int = 1_000,
    ridge: float = 1e-8,
) -> float:
    """Post-washout R-squared of one sensor subset, via the Gram path."""
    x = np.asarray(data, dtype=float)[washout:]
    y = np.asarray(target, dtype=float)[washout:]
    f = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = f.T @ f
    moments = f.T @ y[:, None]
    sst = np.array([np.sum((y - y.mean()) ** 2)])
    if sst[0] == 0:
        raise DegenerateTask("target is constant after washout")
    yty = np.array([np.sum(y**2)])
    idx = np.array([tuple(subset)], dtype=np.intp)
    picks = _eval_chunk((idx, gram, moments, yty, sst, ridge))
    return picks[0][0]


def search_best(
    data: np.ndarray,
    tasks: dict[str, np.ndarray],
    washout: int = 1_000,
    k_max: int = DEFAULT_K_MAX,
    ridge: float = 1e-8,
    n_workers: int = 1,
    pool_names: tuple[str, ...] | None = None,
    chunk_size: int = 20_000,
) -> SensorSearchReport:
    """Find the best sensor subset per task by exhaustive search.

    ``data`` holds the standardized candidate sensors (columns in pool
    order); ``tasks`` maps a task label to its aligned target series.
    Subsets are scored by post-washout R-squared of the direct linear
    readout.  Ties (within 1e-9) resolve to the smaller subset, then
    lexicographically — this matches the enumeration order, so the first
    best-scoring subset encountered wins.
    """
    x = np.asarray(data, dtype=float)
    if pool_names is None:
        pool_names = POOL_NAMES if x.shape[1] == POOL_SIZE else tuple(
            f"s{i}" for i in range(x.shape[1])
        )
    if len(pool_names) != x.shape[1]:
        raise ValueError("pool_names length does not match the data width")
    pool = x.shape[1]
    task_names = list(tasks)
    y = np.column_stack([np.asarray(tasks[t], dtype=float) for t in task_names])
    if y.shape[0] != x.shape[0]:
        raise ValueError("tasks and sensors must share one sample count")

    xp = x[washout:]
    yp = y[washout:]
    # one non-finite row would poison the shared Gram and every subset score
    require_finite(xp, "post-washout sensor input", first_row=washout)
    require_finite(yp, "post-washout target", first_row=washout)
    y_mean = yp.mean(axis=0)
    sst = np.sum((yp - y_mean) ** 2, axis=0)
    if np.any(sst == 0):
        bad = task_names[int(np.flatnonzero(sst == 0)[0])]
        raise DegenerateTask(f"task {bad!r} target is constant after washout")

    started = time.perf_counter()
    f = np.hstack([xp, np.ones((xp.shape[0], 1))])
    gram = f.T @ f
    moments = f.T @ yp
    yty = np.sum(yp**2, axis=0)

    def chunks():
        for k in range(1, k_max + 1):
            combos = itertools.combinations(range(pool), k)
            while True:
                block = list(itertools.islice(combos, chunk_size))
                if not block:
                    break
                yield (np.array(block, dtype=np.intp), gram, moments, yty, sst, ridge)

    best: dict[str, TaskResult] = {
        t: TaskResult(task=t, subset=(), subset_idx=(), r2=-np.inf) for t in task_names
    }
    n_subsets = 0

    def merge(picks) -> None:
        # enumeration runs smallest k first and lexicographically within k,
        # so a strict improvement test encodes the tie-breaking rule
        for t, (score, subset) in zip(task_names, picks):
            if score > best[t].r2 + _TIE_TOL:
                best[t] = TaskResult(
                    task=t,
                    subset=tuple(pool_names[i] for i in subset),
                    subset_idx=subset,
                    r2=score,
                )

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool_exec:
            work = list(chunks())
            n_subsets = sum(w[0].shape[0] for w in work)
            for picks in pool_exec.map(_eval_chunk, work):
                merge(picks)
    else:
        for w in chunks():
            n_subsets += w[0].shape[0]
            merge(_eval_chunk(w))

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
        n_workers=n_workers,
        stats={
            "gram_builds": 1,
            "gram_size": pool + 1,
            "subset_solves": n_subsets,
            "post_washout_samples": int(xp.shape[0]),
        },
    )


def top_sensors(report: SensorSearchReport, n: int) -> list[str]:
    """The ``n`` most frequent best-subset members; ties break by name."""
    ranked = sorted(report.pool_names, key=lambda name: (-report.tally.get(name, 0), name))
    return ranked[:n]
