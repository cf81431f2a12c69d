"""Memory guards: each command's traced peak stays within what its next
step reads.

`tracemalloc` sees numpy's buffers and Python's objects, so a command's
peak is measured in-process on a 60 s trial and bounded by a multiple of
the data it must hold: the feature buffer for train and predict, the
marker positions for kinematics and one analysis table per trial for
esp.  A trial-length array kept past its last reader shows as a peak
above its bound.
"""

import tracemalloc

import numpy as np
import pytest

from medusa import cli, table
from medusa import reservoir as rc

FRAME_RATE = 60.0
SECONDS = 60.0
ROWS = round(SECONDS * FRAME_RATE)
FLOAT = np.dtype(float).itemsize


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def traced_peak(*argv) -> int:
    """The traced peak in bytes of a ``cli.main`` call, which must succeed.

    The command runs once untraced first: the modules a first call imports
    and the caches it fills would otherwise count, by about 2 MB.
    """
    assert run(*argv) == 0
    tracemalloc.start()
    try:
        code = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.fixture(scope="module")
def trials(tmp_path_factory):
    """Three 60 s stimulated trials and their analyses, seeds 7..9."""
    root = tmp_path_factory.mktemp("memory")
    out = {}
    for seed in (7, 8, 9):
        raw = root / f"raw{seed}"
        assert run("synth", "--tau", 2.0, "--seconds", SECONDS, "--seed", seed,
                   "--out", raw) == 0
        assert run("kinematics", "--input", raw / "trial.csv", "--out", root / f"kin{seed}") == 0
        out[seed] = (raw / "trial.csv", root / f"kin{seed}" / "analysis.csv")
    return root, out


def feature_bytes(model_path) -> int:
    """The bytes of the [features | 1] buffer `reservoir_features` fills."""
    config, _, _ = cli._load_model(model_path)
    width = config.n_nodes + config.input_width
    return ROWS * (width + 1) * FLOAT


def test_train_peak_is_the_feature_buffer_and_one_horizon(trials):
    root, paths = trials
    peak = traced_peak("train", "--input", paths[7][1], "--pulsatile", "--out", root / "train")
    # the buffer, the inputs and one horizon's predictions at a time
    assert peak < 1.4 * feature_bytes(root / "train" / "model.npz")


def test_predict_peak_is_the_feature_buffer_or_the_outputs(trials):
    root, paths = trials
    model = root / "model" / "model.npz"
    assert run("train", "--input", paths[7][1], "--pulsatile", "--out", model.parent) == 0
    peak = traced_peak("predict", "--model", model, "--input", paths[7][1],
                       "--out", root / "predict")
    # the buffer with the predictions, then the predictions with their
    # formatted columns: never the buffer beside the analysis table
    assert peak < 1.6 * feature_bytes(model)


def test_kinematics_peak_is_a_few_copies_of_the_positions(trials, monkeypatch):
    root, paths = trials
    # a small write chunk leaves the arrays the command holds as the peak
    monkeypatch.setattr(table, "CHUNK_ROWS", 256)
    peak = traced_peak("kinematics", "--input", paths[7][0], "--out", root / "kin_traced")
    positions = ROWS * 8 * 3 * FLOAT
    # the filter and the body frame each work on a few copies of the
    # filtered positions; the unfiltered table is gone by then
    assert peak < 8.2 * positions


def test_esp_peak_is_below_one_table_per_trial(trials):
    root, paths = trials
    analyses = [paths[seed][1] for seed in (7, 8, 9)]
    peak = traced_peak("esp", "--inputs", *analyses, "--horizon", 30.0, "--out", root / "esp")
    one_table = ROWS * len(cli.ANALYSIS_COLUMNS) * FLOAT
    # each trial keeps its channel-set columns, not its whole table
    assert peak < len(analyses) * one_table


def test_per_slab_evaluation_is_bitwise_the_all_horizon_path():
    rng = np.random.default_rng(5)
    n, d = 2_000, 30
    features = rng.normal(size=(n, d))
    targets = features[:, :4] @ rng.normal(size=(4, 3)) + 0.1 * rng.normal(size=(n, 3))
    model = rc.train_horizons(features, targets, (0.0, 0.25, 0.5, 1.0), 100, FRAME_RATE)
    predictions = rc.predict_horizons(model, features)
    expected = {}
    for h_s, h in zip(model.horizons_s, model.horizon_samples):
        p = predictions[h_s]
        np.testing.assert_array_equal(model.at(h_s).predict(features), p)
        expected[h_s] = rc.r2(p[model.washout:n - h], targets[model.washout + h:])
    assert rc.evaluate_horizons(model, features, targets) == expected
