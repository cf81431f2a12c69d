"""Stimulus-locked phase response and group statistics for repeatability indices."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroups, TooFewOnsets, TooShort

PHASE_POINTS = 64
PERMUTATION_CHUNK = 256     # permutations per block; a block's draws fit in cache


@dataclass
class PhaseResponse:
    """Per-cycle traces resampled onto a fixed phase grid."""

    period_s: float
    n_segments: int
    segments: np.ndarray   # (n_segments, PHASE_POINTS)
    mean: np.ndarray       # (PHASE_POINTS,)
    sd: np.ndarray         # (PHASE_POINTS,)

    @property
    def phase(self) -> np.ndarray:
        return np.arange(self.segments.shape[1]) / self.segments.shape[1]


def phase_response(series: np.ndarray, onsets_s: np.ndarray, frame_rate: float) -> PhaseResponse:
    """Cut a series at consecutive onsets and overlay the cycles.

    Each segment between onset k and onset k+1 is linearly resampled onto
    ``PHASE_POINTS`` phase points covering [0, 1) of the cycle; the stack's
    per-point mean and population SD summarize the response.
    """
    onsets = np.asarray(onsets_s, dtype=float)
    if onsets.size < 2:
        raise TooFewOnsets(f"need at least 2 onsets, got {onsets.size}")
    x = np.asarray(series, dtype=float)
    t_end = (x.shape[0] - 1) / frame_rate
    if onsets[0] < -1e-9 or onsets[-1] > t_end + 1e-9:
        raise TooShort("series does not cover the onset span")

    t = np.arange(x.shape[0]) / frame_rate
    lengths = np.diff(onsets)
    # row k holds cycle k's phase points, each onset + (lengths[k] * i) / PHASE_POINTS
    steps = lengths[:, None] * np.arange(PHASE_POINTS)
    segments = np.interp(onsets[:-1, None] + steps / PHASE_POINTS, t, x)
    return PhaseResponse(
        period_s=float(np.mean(lengths)),
        n_segments=segments.shape[0],
        segments=segments,
        mean=segments.mean(axis=0),
        sd=segments.std(axis=0),
    )


_BETACF_MAX_TERMS = 10_000
_EPS = math.ulp(1.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by the modified Lentz
    method (Press et al., Numerical Recipes, 3rd ed., §6.4)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, _BETACF_MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) >= tiny else tiny
            step = d * c
            h *= step
        if abs(step - 1.0) <= _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x given exactly.

    Taking y from the caller keeps 1 - x free of cancellation when x is
    near 1.  The continued fraction converges fast below the mean
    (a + 1) / (a + b + 2); above it the symmetry I_x(a, b) = 1 - I_y(b, a)
    is used.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _f_sf(f: float, dfn: float, dfd: float) -> float:
    """Survival function of the F(dfn, dfd) distribution at f >= 0."""
    return _betainc(0.5 * dfd, 0.5 * dfn, dfd / (dfd + dfn * f), dfn * f / (dfd + dfn * f))


def _welch_ttest(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Welch's unequal-variance t-test (Welch 1947): (t, two-sided p).

    The statistic is computed in scipy.stats.ttest_ind's order of
    operations.  Two constant groups give t = ±inf and p = 0 when their
    means differ, and t = p = nan when they do not.
    """
    n1, n2 = x.size, y.size
    vn1 = np.mean((x - x.mean()) ** 2) * (n1 / (n1 - 1)) / n1
    vn2 = np.mean((y - y.mean()) ** 2) * (n2 / (n2 - 1)) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        t = float(np.divide(x.mean() - y.mean(), np.sqrt(vn1 + vn2)))
    if math.isnan(t):
        return t, math.nan
    if math.isinf(t):
        return t, 0.0
    # scipy's convention: an undefined df (variances that square to 0 or inf)
    # is replaced by 1
    df = 1.0 if math.isnan(df) else float(df)
    return t, _betainc(0.5 * df, 0.5, df / (df + t * t), t * t / (df + t * t))


def _validate_groups(groups) -> list[np.ndarray]:
    gs = [np.asarray(g, dtype=float).ravel() for g in groups]
    if len(gs) < 2:
        raise ValueError("need at least 2 groups")
    if any(g.size < 2 for g in gs):
        raise ValueError("every group needs at least 2 samples")
    return gs


def one_way_anova(groups) -> tuple[float, float]:
    """Classical one-way ANOVA; returns (F, p).

    p comes from the F distribution's survival function (regularized
    incomplete beta).  Raises DegenerateGroups when the pooled
    within-group variance is zero.
    """
    gs = _validate_groups(groups)
    n_total = sum(g.size for g in gs)
    k = len(gs)
    grand = np.concatenate(gs).mean()
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in gs)
    ssw = sum(np.sum((g - g.mean()) ** 2) for g in gs)
    if ssw == 0:
        raise DegenerateGroups("zero within-group variance")
    df1, df2 = k - 1, n_total - k
    f_stat = (ssb / df1) / (ssw / df2)
    return float(f_stat), _f_sf(float(f_stat), df1, df2)


@dataclass
class PairwiseComparison:
    """Welch t-test plus a familywise-adjusted permutation p for one pair."""

    pair: tuple[int, int]
    t_statistic: float
    p_welch: float
    p_adjusted: float


def _group_moments(perm: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group means and within-group sum of squares, the groups
    being ``perm``'s columns between consecutive ``bounds``."""
    k = len(bounds) - 1
    mean_g = np.empty((len(perm), k))
    ssw_p = np.zeros(len(perm))
    for g in range(k):
        block = perm[:, bounds[g]:bounds[g + 1]]
        mean_g[:, g] = block.mean(axis=1)
        dev = block - mean_g[:, g, None]
        dev *= dev
        ssw_p += dev.sum(axis=1)
    return mean_g, ssw_p


def pairwise_tests(
    groups,
    n_permutations: int = 10_000,
    seed: int = 0,
) -> list[PairwiseComparison]:
    """All-pairs comparison with familywise error control.

    For every pair the Welch t-test p-value is reported alongside an
    adjusted p computed by permuting the pooled samples and referencing
    each pair's studentized range statistic against the permutation
    distribution of the familywise maximum.  Results are deterministic for
    a fixed seed.
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be at least 1, got {n_permutations}")
    given = _validate_groups(groups)
    # the draws index into the pooled samples, so sort each group: then the
    # groupings drawn, and p_adjusted, do not hang on the samples' order
    gs = [np.sort(g) for g in given]
    k = len(gs)
    sizes = np.array([g.size for g in gs])
    pool = np.concatenate(gs)
    n_total = pool.size
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    pairs = list(itertools.combinations(range(k), 2))

    means = np.array([g.mean() for g in gs])
    ssw = sum(np.sum((g - g.mean()) ** 2) for g in gs)
    if ssw == 0:
        raise DegenerateGroups("zero within-group variance")
    msw = ssw / (n_total - k)
    denom = np.array([np.sqrt(msw * 0.5 * (1 / sizes[i] + 1 / sizes[j])) for i, j in pairs])
    q_obs = np.array([abs(means[i] - means[j]) for i, j in pairs]) / denom

    # a permutation that reproduces the observed grouping ties with q_obs only
    # up to rounding (its sums run in another order); count it as
    # scipy.stats.permutation_test does, and keep that rounding to a few ulps
    # by centring each permuted group (in place) before squaring
    q_floor = q_obs - 100 * np.finfo(float).eps * np.abs(q_obs)
    rng = np.random.default_rng(seed)
    exceed = np.zeros(len(pairs), dtype=np.int64)
    done = 0
    half_inv = 0.5 * np.array([1 / sizes[i] + 1 / sizes[j] for i, j in pairs])
    while done < n_permutations:
        c = min(PERMUTATION_CHUNK, n_permutations - done)
        # the block's draws, order and permuted samples are let go in turn
        mean_g, ssw_p = _group_moments(pool[np.argsort(rng.random((c, n_total)), axis=1)],
                                       bounds)
        msw_p = ssw_p / (n_total - k)
        q_pairs = np.empty((c, len(pairs)))
        for idx, (i, j) in enumerate(pairs):
            diff = np.abs(mean_g[:, i] - mean_g[:, j])
            with np.errstate(divide="ignore", invalid="ignore"):
                q = diff / np.sqrt(msw_p * half_inv[idx])
            q_pairs[:, idx] = np.where(msw_p > 0, q, np.where(diff > 0, np.inf, 0.0))
        q_max = q_pairs.max(axis=1)
        exceed += (q_max[:, None] >= q_floor[None, :]).sum(axis=0)
        done += c

    p_adj = (1 + exceed) / (n_permutations + 1)
    results = []
    for idx, (i, j) in enumerate(pairs):
        t_stat, p_welch = _welch_ttest(given[i], given[j])   # scipy's sum order
        results.append(
            PairwiseComparison(
                pair=(i, j),
                t_statistic=t_stat,
                p_welch=p_welch,
                p_adjusted=float(p_adj[idx]),
            )
        )
    return results
