import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sp_stats

from medusa import response
from medusa.errors import DegenerateGroups, TooFewOnsets, TooShort

FS = 60.0


# ---------------------------------------------------------------------------
# phase response
# ---------------------------------------------------------------------------

def test_perfectly_periodic_signal_has_zero_sd():
    period = 2.0
    t = np.arange(int(20 * FS)) / FS
    x = np.sin(2 * np.pi * t / period)
    onsets = np.arange(0.0, 18.1, period)
    pr = response.phase_response(x, onsets, FS)
    assert pr.n_segments == 9
    assert pr.period_s == pytest.approx(period)
    assert pr.sd.max() < 1e-9


def test_too_few_onsets():
    with pytest.raises(TooFewOnsets):
        response.phase_response(np.zeros(100), [0.5], FS)


def test_series_must_cover_onsets():
    with pytest.raises(TooShort):
        response.phase_response(np.zeros(60), [0.0, 2.0], FS)


def test_white_noise_mean_obeys_clt_envelope():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_seg = 100
        period = 1.0
        x = rng.normal(size=int((n_seg + 1) * period * FS))
        onsets = np.arange(n_seg + 1) * period
        pr = response.phase_response(x, onsets, FS)
        inside = np.abs(pr.mean) <= 3 * pr.sd / np.sqrt(n_seg)
        assert inside.mean() >= 0.95


def test_mean_trace_recovers_known_profile():
    period = 2.0
    profile = lambda phase: np.sin(2 * np.pi * phase) + 0.3 * np.sin(4 * np.pi * phase)
    t = np.arange(int(40 * FS)) / FS
    x = profile((t % period) / period)
    onsets = np.arange(0.0, 38.1, period)
    pr = response.phase_response(x, onsets, FS)
    np.testing.assert_allclose(pr.mean, profile(pr.phase), atol=5e-3)


def test_mean_invariant_under_segment_shuffle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=int(30 * FS))
    onsets = np.arange(0.0, 29.0, 1.5)
    pr = response.phase_response(x, onsets, FS)
    shuffled = pr.segments[rng.permutation(pr.n_segments)]
    np.testing.assert_allclose(shuffled.mean(axis=0), pr.mean, atol=1e-12)


def _segments_cycle_by_cycle(x, onsets, fs):
    """The phase segments with one interpolation per cycle."""
    t = np.arange(x.shape[0]) / fs
    segments = np.empty((onsets.size - 1, response.PHASE_POINTS))
    for k in range(onsets.size - 1):
        sample_times = (onsets[k] + (onsets[k + 1] - onsets[k])
                        * np.arange(response.PHASE_POINTS) / response.PHASE_POINTS)
        segments[k] = np.interp(sample_times, t, x)
    return segments


def test_phase_response_is_bitwise_the_cycle_by_cycle_interpolation(monkeypatch):
    rng = np.random.default_rng(30)
    x = rng.normal(size=int(60 * FS)).cumsum()
    # onsets between samples, and cycles from 0.9 to 2.3 s long
    onsets = 0.51 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.9, 2.3, size=24))])
    assert np.ptp(np.diff(onsets)) > 0.5 and np.all(onsets * FS % 1 > 0)
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *args: calls.append(args) or interp(*args))
    pr = response.phase_response(x, onsets, FS)
    monkeypatch.undo()
    assert len(calls) == 1
    expected = _segments_cycle_by_cycle(x, onsets, FS)
    assert pr.segments.tobytes() == expected.tobytes()
    assert pr.mean.tobytes() == expected.mean(axis=0).tobytes()
    assert pr.sd.tobytes() == expected.std(axis=0).tobytes()


# ---------------------------------------------------------------------------
# one-way ANOVA
# ---------------------------------------------------------------------------

def test_anova_separated_groups():
    rng = np.random.default_rng(0)
    eps = 1e-6 * rng.normal(size=3)
    f, p = response.one_way_anova([eps, 1.0 + eps, 2.0 + eps])
    assert f > 1e6
    assert p < 1e-9


def test_anova_hand_computed_case():
    # groups {1,2} and {3,4}: SSB = 4 (df 1), SSW = 1 (df 2) -> F = 8
    f, p = response.one_way_anova([[1.0, 2.0], [3.0, 4.0]])
    assert f == pytest.approx(8.0, abs=1e-9)
    assert p == pytest.approx(sp_stats.f.sf(8.0, 1, 2), abs=1e-12)


def test_f_sf_matches_scipy():
    tails = 0
    for dfn in (1, 2, 3, 5, 9, 19, 40):
        for dfd in (1, 2, 3, 4, 8, 16, 76, 150, 400):
            for f in (0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 100.0,
                      1e3, 1e5, 1e8):
                want = sp_stats.f.sf(f, dfn, dfd)
                tails += 0 < want <= 1e-10
                got = response._f_sf(f, dfn, dfd)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (f, dfn, dfd)
    assert tails > 50


def test_anova_p_matches_scipy():
    rng = np.random.default_rng(6)
    for sizes in ((2, 2), (3, 5, 4), (20, 20, 20, 20), (2, 40)):
        for shift in (0.0, 0.5, 3.0, 30.0):
            groups = [rng.normal(k * shift, 1.0, size=n) for k, n in enumerate(sizes)]
            f, p = response.one_way_anova(groups)
            want = sp_stats.f_oneway(*groups)
            assert f == pytest.approx(want.statistic, rel=1e-12)
            assert p == pytest.approx(want.pvalue, rel=1e-12, abs=1e-300)


def test_anova_null_pvalues_uniform():
    rng = np.random.default_rng(42)
    pvals = [
        response.one_way_anova([rng.normal(size=25) for _ in range(4)])[1]
        for _ in range(500)
    ]
    d = sp_stats.kstest(pvals, "uniform").statistic
    assert d < 0.1


def test_anova_shift_and_scale_invariance():
    rng = np.random.default_rng(5)
    groups = [rng.normal(size=12) for _ in range(3)]
    f0, _ = response.one_way_anova(groups)
    f_shift, _ = response.one_way_anova([g + 100.0 for g in groups])
    f_scale, _ = response.one_way_anova([g * 2.0 for g in groups])
    assert f_shift == pytest.approx(f0, rel=1e-9)
    assert f_scale == pytest.approx(f0, rel=1e-12)


def test_anova_degenerate_groups():
    with pytest.raises(DegenerateGroups):
        response.one_way_anova([[1.0, 1.0], [2.0, 2.0]])


def test_anova_validates_shapes():
    with pytest.raises(ValueError):
        response.one_way_anova([[1.0, 2.0]])
    with pytest.raises(ValueError):
        response.one_way_anova([[1.0, 2.0], [3.0]])


# ---------------------------------------------------------------------------
# pairwise tests
# ---------------------------------------------------------------------------

def test_identical_groups_are_never_significant():
    base = np.arange(10.0)
    for seed in (0, 1, 2):
        rows = response.pairwise_tests([base, base.copy(), base.copy()],
                                       n_permutations=2000, seed=seed)
        assert all(r.p_adjusted > 0.9 for r in rows)


def test_large_shift_is_significant():
    rng = np.random.default_rng(1)
    g1 = rng.normal(size=30)
    g2 = rng.normal(size=30)
    g3 = rng.normal(size=30) + 10.0
    rows = response.pairwise_tests([g1, g2, g3], n_permutations=5000, seed=0)
    for r in rows:
        if 2 in r.pair:
            assert r.p_adjusted < 0.001
        else:
            assert r.p_adjusted > 0.01


def test_two_group_permutation_matches_welch():
    rng = np.random.default_rng(9)
    g1 = rng.normal(size=24)
    g2 = rng.normal(size=24) + 0.55
    rows = response.pairwise_tests([g1, g2], n_permutations=8000, seed=3)
    assert abs(rows[0].p_adjusted - rows[0].p_welch) < 0.05


def test_permutation_reproducible_for_fixed_seed():
    rng = np.random.default_rng(4)
    groups = [rng.normal(size=15) for _ in range(3)]
    a = response.pairwise_tests(groups, n_permutations=1000, seed=7)
    b = response.pairwise_tests(groups, n_permutations=1000, seed=7)
    assert [r.p_adjusted for r in a] == [r.p_adjusted for r in b]


def test_permutation_blocks_do_not_change_the_draws(monkeypatch):
    # the generator draws a block's uniforms in sequence, so blocks of any
    # size permute the samples alike
    rng = np.random.default_rng(5)
    groups = [rng.normal(loc=0.3 * i, size=40) for i in range(4)]
    results = []
    for chunk in (7, 256, 1_024, 2_048, 10_000):
        monkeypatch.setattr(response, "PERMUTATION_CHUNK", chunk)
        results.append(response.pairwise_tests(groups, n_permutations=3000, seed=2))
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("n_permutations", [0, -1])
def test_permutation_count_below_one_raises(n_permutations):
    # with no draw every pair would adjust to 1.0, and below 0 to inf
    groups = [np.arange(5.0), np.arange(5.0) + 1]
    with pytest.raises(ValueError, match="n_permutations"):
        response.pairwise_tests(groups, n_permutations=n_permutations)


def test_adjusted_p_does_not_hang_on_the_sample_order():
    cases = [
        # every regrouping but the observed one (and its mirror) has a far
        # smaller q, so p_adjusted counts the draws that reproduce the observed
        # grouping, about 2 in 20; their q ties with the observed q only up to
        # rounding, which reordering the samples moves
        ([0.517, 0.541, 0.523], [0.905, 0.930, 0.911], 2000, 0.1),
        # overlapping groups: many groupings exceed, so reordering the samples
        # would change which of them the draws hit; the exact p over all 20 is 0.6
        ([0.517, 0.541, 0.517], [0.485, 0.595, 0.572], 999, 0.6),
    ]
    for a, b, n_permutations, want in cases:
        a, b = np.array(a), np.array(b)
        ps = {
            response.pairwise_tests([a[list(i)], b[list(j)]], n_permutations=n_permutations,
                                    seed=0)[0].p_adjusted
            for i in itertools.permutations(range(3)) for j in itertools.permutations(range(3))
        }
        assert len(ps) == 1, (a, b)
        assert abs(ps.pop() - want) < 0.02


def test_adjusted_p_monotone_in_effect_size():
    rng = np.random.default_rng(11)
    base = rng.normal(size=40)
    other = rng.normal(size=40)
    ps = []
    for shift in (0.0, 1.0, 2.5):
        rows = response.pairwise_tests([base, other + shift],
                                       n_permutations=3000, seed=1)
        ps.append(rows[0].p_adjusted)
    assert ps[0] >= ps[1] >= ps[2]


def _scipy_welch(x, y):
    with warnings.catch_warnings():
        # scipy warns of precision loss on constant groups
        warnings.simplefilter("ignore", RuntimeWarning)
        res = sp_stats.ttest_ind(x, y, equal_var=False)
    return float(res.statistic), float(res.pvalue)


def test_welch_t_matches_scipy():
    rng = np.random.default_rng(2)
    tails = 0
    for n1 in (2, 3, 5, 20, 200):
        for n2 in (2, 4, 30):
            for shift in (0.0, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
                for sd in (0.01, 1.0, 10.0):
                    x, y = rng.normal(size=n1), rng.normal(shift, sd, size=n2)
                    t, p = response._welch_ttest(x, y)
                    want_t, want_p = _scipy_welch(x, y)
                    tails += 0 < want_p <= 1e-10
                    assert t == want_t
                    assert p == pytest.approx(want_p, rel=1e-12, abs=1e-300), (n1, n2, shift, sd)
    assert tails > 20


def test_welch_t_degenerate_groups_match_scipy_without_warnings():
    cases = [
        ([1.0, 1.0, 1.0], [2.0, 2.0]),        # both constant, means differ
        ([1.0, 1.0], [1.0, 1.0, 1.0]),        # both constant, same mean
        ([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]),   # one constant
        ([0.0, 1.0, 2.0], [5.0, 5.0]),
        ([1e-170, 2e-170], [3e-170, 5e-170]),  # variances square to 0
    ]
    for x, y in cases:
        x, y = np.array(x), np.array(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = response._welch_ttest(x, y)
        want = _scipy_welch(x, y)
        for g, w in zip(got, want):
            assert (math.isnan(g) and math.isnan(w)) or g == pytest.approx(w, rel=1e-12)


def test_pairwise_welch_columns_match_scipy():
    rng = np.random.default_rng(8)
    groups = [np.full(4, 2.0), np.full(3, 5.0), rng.normal(size=6), rng.normal(3.0, 2.0, size=9)]
    rows = response.pairwise_tests(groups, n_permutations=200, seed=0)
    for row in rows:
        want_t, want_p = _scipy_welch(groups[row.pair[0]], groups[row.pair[1]])
        assert row.t_statistic == want_t
        assert row.p_welch == pytest.approx(want_p, rel=1e-12, abs=1e-300)


def test_pairwise_degenerate_groups():
    with pytest.raises(DegenerateGroups):
        response.pairwise_tests([[3.0, 3.0], [3.0, 3.0]])
