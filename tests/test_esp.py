import numpy as np
import pytest

from medusa import esp
from medusa.errors import MisalignedTrials, TooShort

FS = 60.0
PARAMS = esp.EspParams(transient_s=2.0, horizon_s=30.0)


def trial_matrix(rng, n=None, channels=3):
    n = n or int(31 * FS)
    return rng.normal(size=(n, channels))


def test_identical_trials_give_zero_index():
    rng = np.random.default_rng(0)
    x = trial_matrix(rng)
    result = esp.esp_index([x, x.copy(), x.copy()], PARAMS, FS)
    assert result.value == 0.0
    assert result.n_comparisons == 2


def test_constant_offset_gives_offset_magnitude():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(int(31 * FS), 1))
    for c in (0.7, -2.5):
        result = esp.esp_index([base, base + c], PARAMS, FS)
        assert result.value == pytest.approx(abs(c), abs=1e-12)


def test_common_waveform_scores_below_independent():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(31 * FS)
        common = np.sin(2 * np.pi * 0.5 * np.arange(n) / FS)[:, None]
        driven = [common + 0.1 * rng.normal(size=(n, 1)) for _ in range(4)]
        independent = [
            np.sin(2 * np.pi * 0.5 * np.arange(n) / FS + rng.uniform(0, 2 * np.pi))[:, None]
            + 0.1 * rng.normal(size=(n, 1))
            for _ in range(4)
        ]
        low = esp.esp_index(driven, PARAMS, FS).value
        high = esp.esp_index(independent, PARAMS, FS).value
        wins += low < high
    assert wins == 20


def test_index_invariant_under_trial_permutation():
    rng = np.random.default_rng(2)
    trials = [trial_matrix(rng) for _ in range(4)]
    a = esp.esp_index(trials, PARAMS, FS).value
    b = esp.esp_index([trials[2], trials[0], trials[3], trials[1]], PARAMS, FS).value
    assert a == pytest.approx(b, abs=1e-12)


def test_index_invariant_under_common_additive_signal():
    rng = np.random.default_rng(3)
    trials = [trial_matrix(rng) for _ in range(3)]
    common = trial_matrix(np.random.default_rng(99))
    a = esp.esp_index(trials, PARAMS, FS).value
    b = esp.esp_index([t + common for t in trials], PARAMS, FS).value
    assert abs(a - b) < 1e-12


def test_index_scales_linearly_with_deviations():
    rng = np.random.default_rng(4)
    base = trial_matrix(rng)
    devs = [trial_matrix(np.random.default_rng(10 + i)) for i in range(3)]
    for c in (2.0, 0.25):
        a = esp.esp_index([base + d for d in devs], PARAMS, FS).value
        b = esp.esp_index([base + c * d for d in devs], PARAMS, FS).value
        assert b == pytest.approx(c * a, rel=1e-12)


def test_misaligned_shapes_raise():
    rng = np.random.default_rng(5)
    with pytest.raises(MisalignedTrials):
        esp.esp_index([trial_matrix(rng), trial_matrix(rng)[:-1]], PARAMS, FS)


def test_short_trials_raise():
    rng = np.random.default_rng(7)
    with pytest.raises(TooShort):
        esp.esp_index([trial_matrix(rng, n=600), trial_matrix(rng, n=600)], PARAMS, FS)


def test_window_excludes_transient():
    n = int(31 * FS)
    a = np.zeros((n, 1))
    b = np.zeros((n, 1))
    b[: int(2 * FS)] = 100.0  # differs only inside the transient
    result = esp.esp_index([a, b], PARAMS, FS)
    assert result.value == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        esp.EspParams(transient_s=31.0, horizon_s=30.0)
