import numpy as np
import pytest
from scipy import signal as sp_signal

from medusa import criticality, series
from medusa.errors import InsufficientBins, InsufficientEvents, TooShort
from avalanche import gen_avalanche

FS = 60.0


def shaped_noise(beta, n, fs, seed, f_floor=0.1):
    """Gaussian noise whose spectrum follows f**beta above a low floor."""
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.normal(size=n))
    f = np.fft.rfftfreq(n, 1 / fs)
    shaping = np.maximum(f, f_floor) ** (beta / 2)
    shaping[0] = 0.0
    return np.fft.irfft(spec * shaping, n)


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------

def test_psd_finds_sine_peak_within_one_bin():
    t = np.arange(int(120 * FS)) / FS
    x = np.sin(2 * np.pi * 0.45 * t)
    est = criticality.psd(x, FS)
    assert abs(est.peak_freq - 0.45) <= est.freqs[1] - est.freqs[0]


def test_psd_parseval_exact_for_odd_shapes():
    rng = np.random.default_rng(0)
    cases = [
        rng.normal(size=4096),
        np.linspace(0, 5, 3000),                      # ramp
        np.concatenate([np.zeros(1500), [50.0], np.zeros(1500)]),  # spike
        np.sin(np.arange(2048) * 0.3) + rng.normal(size=2048),
    ]
    for x in cases:
        est = criticality.psd(x, FS)
        total = est.power.sum() * (est.freqs[1] - est.freqs[0])
        variance = np.var(x)
        assert total == pytest.approx(variance, rel=0.01)


def test_welch_bitwise_equal_to_scipy():
    rng = np.random.default_rng(12)
    for n, nper in ((36_000, 512), (36_001, 512), (5_000, 333), (777, 512), (300, 300), (257, 257)):
        for fs in (60.0, 59.94, 100.0):
            x = np.cumsum(rng.normal(size=n))
            x -= x.mean()
            nper = min(nper, n)
            freqs, power = criticality._welch(x, fs, nper)
            want_f, want_p = sp_signal.welch(x, fs=fs, window="hann", nperseg=nper,
                                             noverlap=nper // 2, detrend=False,
                                             scaling="density")
            assert np.array_equal(freqs, want_f)
            assert np.array_equal(power, want_p), (n, nper, fs)


def test_psd_too_short():
    with pytest.raises(TooShort):
        criticality.psd(np.zeros(100), FS)


def test_psd_fields_well_formed():
    x = np.random.default_rng(3).normal(size=2048)
    est = criticality.psd(x, FS)
    assert np.all(np.diff(est.freqs) > 0)
    assert np.all(est.power >= 0)
    above = est.freqs > 0.05
    assert est.peak_freq == est.freqs[above][np.argmax(est.power[above])]


def test_white_noise_spectrum_is_flat():
    alphas = []
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=2**14)
        est = criticality.psd(x, FS)
        alphas.append(criticality.fit_power_law_psd(est, fmax=3.0).alpha)
    assert abs(np.mean(alphas)) < 0.1


def test_shaped_spectrum_slope_recovered():
    for seed in range(3):
        x = shaped_noise(-1.5, 2**16, FS, seed)
        est = criticality.psd(x, FS)
        fit = criticality.fit_power_law_psd(est, fmin=0.3, fmax=3.0)
        assert fit.alpha == pytest.approx(-1.5, abs=0.1)
        assert fit.r2_loglog > 0.9


def test_psd_fit_needs_enough_bins():
    t = np.arange(int(60 * FS)) / FS
    est = criticality.psd(np.sin(2 * np.pi * 0.3 * t), FS)
    # peak sits at ~0.29 Hz; only two usable bins above 0.05 Hz
    with pytest.raises(InsufficientBins):
        criticality.fit_power_law_psd(est)


# ---------------------------------------------------------------------------
# pulse extraction
# ---------------------------------------------------------------------------

def square_wave(n_cycles=14, period_s=2.0, width_s=0.5, fs=FS):
    period = int(period_s * fs)
    width = int(width_s * fs)
    x = np.zeros(n_cycles * period + 30)
    for k in range(n_cycles):
        start = 15 + k * period
        x[start:start + width] = 1.0
    return x


def test_square_wave_durations_and_sizes():
    events = criticality.extract_pulses(square_wave(), threshold=0.5, frame_rate=FS)
    assert len(events) == 13
    np.testing.assert_allclose([e.duration_s for e in events], 2.0, atol=1e-12)
    np.testing.assert_allclose([e.size for e in events], 0.25, atol=1e-12)


def test_series_below_threshold_gives_no_events():
    assert criticality.extract_pulses(np.zeros(500), FS, threshold=0.5) == []


def test_durations_tile_the_crossing_timeline():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.normal(size=4000)
        events = criticality.extract_pulses(x, threshold=0.8, frame_rate=FS)
        if len(events) < 2:
            continue
        total = sum(e.duration_s for e in events)
        span = events[-1].onset_s + events[-1].duration_s - events[0].onset_s
        assert total == pytest.approx(span, abs=1.0 / FS)


def test_default_threshold_is_mean_plus_half_sd():
    rng = np.random.default_rng(1)
    x = rng.normal(2.0, 3.0, size=1000)
    assert series.default_threshold(x) == pytest.approx(x.mean() + 0.5 * x.std())


# ---------------------------------------------------------------------------
# power-law event fits
# ---------------------------------------------------------------------------

def test_avalanche_size_exponent_recovered():
    series, _ = gen_avalanche(-1.5, 5000, seed=3)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    fit = criticality.fit_power_law_events(events, "size")
    assert fit.alpha == pytest.approx(-1.5, abs=0.15)


def test_avalanche_duration_exponent_recovered():
    series, _ = gen_avalanche(-2.0, 5000, seed=4)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    fit = criticality.fit_power_law_events(events, "duration")
    assert fit.alpha == pytest.approx(-2.0, abs=0.15)


def test_fit_refuses_single_occupied_bin():
    events = [criticality.PulseEvent(float(i), 2.0, 1.0) for i in range(50)]
    with pytest.raises(InsufficientBins):
        criticality.fit_power_law_events(events, "duration")


def test_fit_refuses_too_few_events():
    events = [criticality.PulseEvent(float(i), 1.0 + i, 1.0) for i in range(10)]
    with pytest.raises(InsufficientEvents):
        criticality.fit_power_law_events(events, "duration")


def test_psd_fit_scale_equivariant():
    x = shaped_noise(-1.0, 2**14, FS, 9)
    for c in (3.7, 0.002, 250.0):
        est1 = criticality.psd(x, FS)
        est2 = criticality.psd(c * x, FS)
        f1 = criticality.fit_power_law_psd(est1, fmax=3.0)
        f2 = criticality.fit_power_law_psd(est2, fmax=3.0)
        assert abs(f1.alpha - f2.alpha) < 1e-9
        assert f1.intercept != pytest.approx(f2.intercept, abs=1e-3)


def test_event_fit_scale_equivariant():
    series, _ = gen_avalanche(-1.5, 2000, seed=5)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    base = criticality.fit_power_law_events(events, "size")
    for c in (7.3, 0.011):
        scaled = [
            criticality.PulseEvent(e.onset_s, e.duration_s, c * e.size) for e in events
        ]
        fit = criticality.fit_power_law_events(scaled, "size")
        assert abs(fit.alpha - base.alpha) < 1e-9


def test_ml_exponent_cross_check():
    series, _ = gen_avalanche(-1.5, 5000, seed=6)
    events = criticality.extract_pulses(series, threshold=0.5, frame_rate=FS)
    sizes = np.array([e.size for e in events])
    # continuous maximum-likelihood exponent for x >= xmin: a truncated
    # sample against the unbounded formula, so coarse agreement only
    x = sizes[sizes > 0]
    alpha_ml = -1.0 - x.size / np.sum(np.log(x / x.min()))
    assert alpha_ml == pytest.approx(-1.5, abs=0.25)
