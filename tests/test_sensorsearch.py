import math

import numpy as np
import pytest

from medusa import reservoir as rc, sensorsearch as ss
from medusa.errors import DegenerateTask


def subset_r2(
    data: np.ndarray,
    target: np.ndarray,
    subset,
    washout: int = 1_000,
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
    picks = ss._eval_chunk(idx, gram, moments, yty, sst)
    return picks[0][0]


def sensor_names(p):
    return tuple(f"s{i}" for i in range(p))


def standardized(rng, n, p):
    x = rng.normal(size=(n, p))
    return (x - x.mean(0)) / x.std(0)


def test_the_search_gram_is_bitwise_that_of_the_pool_with_a_ones_column():
    # a plain matrix is one block: the builder's shift 0 is f.T @ f of one copy
    rng = np.random.default_rng(8)
    x = standardized(rng, 3000, 30)
    y = rng.normal(size=(3000, 4))
    f = np.hstack([x[500:], np.ones((2500, 1))])
    (gram, moments), = rc.normal_equations(x, y, 500, (0,))
    np.testing.assert_array_equal(gram, f.T @ f)
    np.testing.assert_array_equal(moments, f.T @ y[500:])


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------

def test_pool_is_30_unique_names():
    assert len(ss.POOL_NAMES) == 30
    assert len(set(ss.POOL_NAMES)) == 30
    assert "inner_radius" in ss.POOL_NAMES and "outer_radius" in ss.POOL_NAMES


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_planted_subset_recovered():
    rng = np.random.default_rng(0)
    data = standardized(rng, 4000, 30)
    target = 2.0 * data[:, 3] - 1.5 * data[:, 17]
    report = ss.search_best(data, {"planted": target}, ss.POOL_NAMES, washout=500, k_max=3)
    best = report.best["planted"]
    assert best.subset == (ss.POOL_NAMES[3], ss.POOL_NAMES[17])
    assert best.r2 == pytest.approx(1.0, abs=1e-9)


def test_tally_counts_task_memberships():
    rng = np.random.default_rng(1)
    data = standardized(rng, 3000, 6)
    tasks = {f"t{k}": data[:, 0] + 0.01 * k * data[:, 1] for k in range(3)}
    report = ss.search_best(data, tasks, tuple("abcdef"), washout=300, k_max=2)
    assert sum(report.tally.values()) == sum(len(r.subset) for r in report.best.values())
    assert report.tally["a"] == 3


def test_search_deterministic_across_block_sizes(monkeypatch):
    rng = np.random.default_rng(2)
    data = standardized(rng, 2000, 12)
    tasks = {
        "x": data[:, [2, 5]] @ [1.0, -0.5] + 0.2 * rng.normal(size=2000),
        "y": np.tanh(data[:, 9]) + 0.1 * rng.normal(size=2000),
    }
    # one block per subset size, and many small blocks
    reports = []
    for chunk_size in (ss.CHUNK_SIZE, 7):
        monkeypatch.setattr(ss, "CHUNK_SIZE", chunk_size)
        reports.append(ss.search_best(data, tasks, sensor_names(12), washout=200, k_max=4))
    one_block, small_blocks = reports
    assert one_block.best == small_blocks.best and one_block.tally == small_blocks.tally
    assert one_block.stats == small_blocks.stats
    assert one_block.n_subsets == small_blocks.n_subsets == sum(math.comb(12, k)
                                                                for k in range(1, 5))


def test_pick_is_the_first_subset_near_the_overall_best_whatever_the_chunk_size(monkeypatch):
    # three sensors y + √ε·z with z ⟂ y score R² = 1/(1 + ε): with these ε,
    # a, b and c score M - 1.5e-9, M - 0.5e-9 and M, so b is the first
    # subset within the 1e-9 tolerance of the best; a chunk that holds a
    # and b but not c must not make a look like a tie with b
    n, washout = 4000, 100
    rng = np.random.default_rng(12)
    post = slice(washout, None)
    y = rng.normal(size=n)
    y = (y - y[post].mean()) / y[post].std()
    z = rng.normal(size=n)
    basis = np.column_stack([np.ones(n - washout), y[post]])
    z -= np.linalg.lstsq(basis, z[post], rcond=None)[0] @ np.vstack([np.ones(n), y])
    z /= z[post].std()
    eps = 1e-3 + np.array([1.5e-9, 0.5e-9, 0.0])
    data = y[:, None] + np.sqrt(eps) * z[:, None]
    for chunk_size in (ss.CHUNK_SIZE, 2, 1):
        monkeypatch.setattr(ss, "CHUNK_SIZE", chunk_size)
        report = ss.search_best(data, {"y": y}, ("a", "b", "c"), washout=washout, k_max=1)
        assert report.best["y"].subset == ("b",), chunk_size


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
        gram_r2 = subset_r2(data, target, subset, washout=washout)
        f = np.column_stack([xp[:, list(subset)], np.ones(xp.shape[0])])
        w, *_ = np.linalg.lstsq(f, yp, rcond=None)
        direct = 1.0 - np.sum((f @ w - yp) ** 2) / sst
        worst = max(worst, abs(gram_r2 - direct))
    assert worst < 1e-9


def test_best_score_monotone_in_kmax():
    rng = np.random.default_rng(4)
    data = standardized(rng, 2500, 10)
    tasks = {"t": np.sin(data[:, 0]) + data[:, 3] * data[:, 7]}
    r4 = ss.search_best(data, tasks, sensor_names(10), washout=200, k_max=4)
    r5 = ss.search_best(data, tasks, sensor_names(10), washout=200, k_max=5)
    assert r5.best["t"].r2 >= r4.best["t"].r2 - 1e-12


def test_ties_prefer_smaller_then_lexicographic():
    rng = np.random.default_rng(5)
    data = standardized(rng, 2000, 5)
    data[:, 4] = data[:, 1]  # duplicate sensor: ties at equal R2
    data[:, 3] = data[:, 0]
    target = data[:, 0] + data[:, 1]
    report = ss.search_best(data, {"t": target}, tuple("abcde"), washout=100, k_max=3)
    assert report.best["t"].subset == ("a", "b")


def test_degenerate_task_raises():
    rng = np.random.default_rng(6)
    data = standardized(rng, 1500, 4)
    with pytest.raises(DegenerateTask):
        ss.search_best(data, {"flat": np.ones(1500)}, sensor_names(4), washout=100, k_max=2)


def test_a_negative_washout_raises():
    rng = np.random.default_rng(6)
    data = standardized(rng, 1500, 4)
    with pytest.raises(ValueError, match="washout must be >= 0, got -5"):
        ss.search_best(data, {"t": data[:, 0]}, sensor_names(4), washout=-5, k_max=2)


# ---------------------------------------------------------------------------
# top sensors
# ---------------------------------------------------------------------------

def fake_report(tally, pool):
    return ss.SensorSearchReport(
        pool_names=tuple(pool), best={}, tally=tally, elapsed_s=0.0,
        n_subsets=0, n_tasks=0,
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
    report = ss.search_best(data, tasks, sensor_names(12), washout=400, k_max=4)
    names = [report.pool_names[g] for g in gens]
    assert sorted(ss.top_sensors(report, 4)) == sorted(names)
