import math

import numpy as np
import pytest

from medusa import sensorsearch as ss
from medusa.errors import DegenerateTask


def standardized(rng, n, p):
    x = rng.normal(size=(n, p))
    return (x - x.mean(0)) / x.std(0)


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def test_pool_is_30_unique_names():
    assert len(ss.POOL_NAMES) == ss.POOL_SIZE == 30
    assert len(set(ss.POOL_NAMES)) == 30
    assert "inner_radius" in ss.POOL_NAMES and "outer_radius" in ss.POOL_NAMES


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_planted_subset_recovered():
    rng = np.random.default_rng(0)
    data = standardized(rng, 4000, 30)
    target = 2.0 * data[:, 3] - 1.5 * data[:, 17]
    report = ss.search_best(data, {"planted": target}, washout=500, k_max=3)
    best = report.best["planted"]
    assert best.subset_idx == (3, 17)
    assert best.r2 == pytest.approx(1.0, abs=1e-9)


def test_tally_counts_task_memberships():
    rng = np.random.default_rng(1)
    data = standardized(rng, 3000, 6)
    tasks = {f"t{k}": data[:, 0] + 0.01 * k * data[:, 1] for k in range(3)}
    report = ss.search_best(data, tasks, washout=300, k_max=2,
                            pool_names=tuple("abcdef"))
    assert sum(report.tally.values()) == sum(len(r.subset) for r in report.best.values())
    assert report.tally["a"] == 3


def test_search_deterministic_across_worker_counts():
    rng = np.random.default_rng(2)
    data = standardized(rng, 2000, 12)
    tasks = {
        "x": data[:, [2, 5]] @ [1.0, -0.5] + 0.2 * rng.normal(size=2000),
        "y": np.tanh(data[:, 9]) + 0.1 * rng.normal(size=2000),
    }
    r1 = ss.search_best(data, tasks, washout=200, k_max=4, n_workers=1)
    r8 = ss.search_best(data, tasks, washout=200, k_max=4, n_workers=8)
    for t in tasks:
        assert r1.best[t].subset_idx == r8.best[t].subset_idx
        assert r1.best[t].r2 == r8.best[t].r2
    assert r1.n_subsets == r8.n_subsets == sum(math.comb(12, k) for k in range(1, 5))


def test_gram_solve_matches_direct_regression():
    rng = np.random.default_rng(3)
    data = standardized(rng, 5000, 30)
    target = data[:, [1, 7, 22]] @ [0.5, -1.0, 2.0] + rng.normal(size=5000)
    washout = 500
    xp, yp = data[washout:], target[washout:]
    sst = np.sum((yp - yp.mean()) ** 2)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        subset = tuple(sorted(rng.choice(30, size=k, replace=False)))
        gram_r2 = ss.subset_r2(data, target, subset, washout=washout)
        f = np.column_stack([xp[:, list(subset)], np.ones(xp.shape[0])])
        w, *_ = np.linalg.lstsq(f, yp, rcond=None)
        direct = 1.0 - np.sum((f @ w - yp) ** 2) / sst
        worst = max(worst, abs(gram_r2 - direct))
    assert worst < 1e-9


def test_best_score_monotone_in_kmax():
    rng = np.random.default_rng(4)
    data = standardized(rng, 2500, 10)
    tasks = {"t": np.sin(data[:, 0]) + data[:, 3] * data[:, 7]}
    r4 = ss.search_best(data, tasks, washout=200, k_max=4)
    r5 = ss.search_best(data, tasks, washout=200, k_max=5)
    assert r5.best["t"].r2 >= r4.best["t"].r2 - 1e-12


def test_ties_prefer_smaller_then_lexicographic():
    rng = np.random.default_rng(5)
    data = standardized(rng, 2000, 5)
    data[:, 4] = data[:, 1]  # duplicate sensor: ties at equal R2
    data[:, 3] = data[:, 0]
    target = data[:, 0] + data[:, 1]
    report = ss.search_best(data, {"t": target}, washout=100, k_max=3,
                            pool_names=tuple("abcde"))
    assert report.best["t"].subset_idx == (0, 1)


def test_degenerate_task_raises():
    rng = np.random.default_rng(6)
    data = standardized(rng, 1500, 4)
    with pytest.raises(DegenerateTask):
        ss.search_best(data, {"flat": np.ones(1500)}, washout=100, k_max=2)


# ---------------------------------------------------------------------------
# top sensors
# ---------------------------------------------------------------------------

def fake_report(tally, pool):
    return ss.SensorSearchReport(
        pool_names=tuple(pool), best={}, tally=tally, elapsed_s=0.0,
        n_subsets=0, n_tasks=0, n_workers=1,
    )


def test_top_sensors_tie_breaks_by_name():
    report = fake_report({"a": 5, "b": 3, "c": 3, "d": 1}, "abcd")
    assert ss.top_sensors(report, 2) == ["a", "b"]


def test_top_sensors_full_pool_sorted():
    report = fake_report({"a": 1, "b": 0, "c": 4, "d": 0}, "abcd")
    assert ss.top_sensors(report, 4) == ["c", "a", "b", "d"]


def test_top_sensors_recover_planted_generators():
    rng = np.random.default_rng(7)
    data = standardized(rng, 4000, 12)
    gens = (2, 5, 8, 11)
    tasks = {}
    for k in range(6):
        coef = rng.normal(size=4)
        tasks[f"t{k}"] = data[:, gens] @ coef + 0.01 * rng.normal(size=4000)
    report = ss.search_best(data, tasks, washout=400, k_max=4)
    names = [report.pool_names[g] for g in gens]
    assert sorted(ss.top_sensors(report, 4)) == sorted(names)
