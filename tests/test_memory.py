"""Memory guards: each command's traced peak stays within what its next
step reads.

`tracemalloc` sees numpy's buffers and Python's objects, so a command's
peak is measured in-process on a 60 s trial (150 s where the reservoir is
stepped in chunk groups) and bounded by a multiple of the data it must
hold: the reservoir states, or one chunk group of them, for train and
predict, the marker positions for kinematics, the markers of the views
for ingest, the trial for ingest's write, the sensor pool for the sensor
search, one analysis table per trial for esp, and one block of draws for
the pairwise permutation tests.  A trial-length array kept past its last
reader, or a whole feature matrix where a stream of row blocks does,
shows as a peak above its bound.
"""

import tracemalloc

import numpy as np
import pytest

from medusa import cli, ingest, kinematics, response, table
from medusa import reservoir as rc
from medusa.series import time_chunks
from test_ingest import make_views, write_view_csv

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


def held_bytes(model_path, horizons: int) -> int:
    """The bytes train or predict must hold at once on a ``ROWS``-row trial:
    the reservoir states, the sensors and targets, and the predictions of
    ``horizons`` horizons."""
    config, model, _ = cli._load_model(model_path)
    states = ROWS * config.n_nodes
    inputs = ROWS * (config.n_sensors + model.n_targets)
    return (states + inputs + ROWS * horizons * model.n_targets) * FLOAT


@pytest.fixture
def small_blocks(monkeypatch):
    """256-row feature blocks: the arrays a command holds are then its peak."""
    # raising=False: a build without row blocks is measured, and fails, too
    monkeypatch.setattr(rc, "BLOCK_ROWS", 256, raising=False)


def test_train_peak_is_the_feature_buffer_and_one_horizon(trials, small_blocks):
    root, paths = trials
    peak = traced_peak("train", "--input", paths[7][1], "--pulsatile", "--out", root / "train")
    # the states, the inputs and one horizon's predictions at a time; the slack
    # covers a block and the normal equations.  The whole [features | 1]
    # matrix would add 0.85 of the states beside them
    assert peak < 1.5 * held_bytes(root / "train" / "model.npz", horizons=1)


def test_predict_peak_is_the_feature_buffer_or_the_outputs(trials, small_blocks):
    root, paths = trials
    model = root / "model" / "model.npz"
    assert run("train", "--input", paths[7][1], "--pulsatile", "--out", model.parent) == 0
    peak = traced_peak("predict", "--model", model, "--input", paths[7][1],
                       "--out", root / "predict")
    # the states with every horizon's predictions, then the predictions with
    # their formatted columns: never a feature matrix or the analysis table
    _, loaded, _ = cli._load_model(model)
    assert peak < 1.25 * held_bytes(model, horizons=len(loaded.horizons_s))


LONG_SECONDS = 150.0


@pytest.fixture(scope="module")
def long_trial(tmp_path_factory):
    """A 150 s stimulated trial's analysis: 20 time chunks of the reservoir."""
    root = tmp_path_factory.mktemp("memory_long")
    assert run("synth", "--tau", 2.0, "--seconds", LONG_SECONDS, "--seed", 7,
               "--out", root / "raw") == 0
    assert run("kinematics", "--input", root / "raw" / "trial.csv", "--out", root / "kin") == 0
    return root, root / "kin" / "analysis.csv"


def group_held_bytes(model_path, rows: int, horizons: int) -> int:
    """The bytes train or predict must hold at once on a ``rows``-row trial
    whose states are stepped a chunk group at a time: the largest group
    of `rc.MIN_GROUP_CHUNKS` or more chunks with its warm-up rows, one
    `rc.BLOCK_ROWS`-row block of [features | 1] and of the reservoir drive
    (its mux rows and their product), the sensors and targets, and the
    predictions of ``horizons`` horizons."""
    config, model, _ = cli._load_model(model_path)
    k, length, w = time_chunks(rows, rc._forgetting_steps(rc.esn_init(config).recurrent_weights))
    assert k >= 16     # so that the trial splits into four or more groups
    largest = -(-k // (k // rc.MIN_GROUP_CHUNKS))      # of k // 4 groups, sizes within one
    states = (largest * length + w) * config.n_nodes
    block = rc.BLOCK_ROWS * (model.n_features + 1 + config.input_width + config.n_nodes)
    inputs = rows * (config.n_sensors + model.n_targets)
    return (states + block + inputs + rows * horizons * model.n_targets) * FLOAT


def test_train_peak_is_one_chunk_group_and_its_inputs(long_trial, small_blocks):
    root, analysis = long_trial
    peak = traced_peak("train", "--input", analysis, "--pulsatile", "--out", root / "train")
    rows = round(LONG_SECONDS * FRAME_RATE)
    # a group of 4 chunks' states, a block and the inputs, and no horizon's
    # predictions: the scores are summed a block at a time.  The slack covers
    # the normal equations; holding every horizon's predictions to score them
    # took 2.2 of it
    assert peak < 1.6 * group_held_bytes(root / "train" / "model.npz", rows, horizons=0)


def test_predict_peak_is_one_chunk_group_and_every_horizon(long_trial, small_blocks):
    root, analysis = long_trial
    model = root / "model" / "model.npz"
    assert run("train", "--input", analysis, "--pulsatile", "--out", model.parent) == 0
    peak = traced_peak("predict", "--model", model, "--input", analysis,
                       "--out", root / "predict")
    _, loaded, _ = cli._load_model(model)
    rows = round(LONG_SECONDS * FRAME_RATE)
    # a group of 4 chunks' states and a block beside every horizon's
    # predictions, then the predictions with their formatted columns;
    # holding the whole trial's states and the columns as str objects took
    # 1.81 of a 7-chunk group's bound
    assert peak < 1.15 * group_held_bytes(model, rows, horizons=len(loaded.horizons_s))


@pytest.fixture(scope="module")
def view_prefix(trials):
    """The seed-7 trial's three view CSVs and sidecar, as ingest reads them."""
    root, paths = trials
    trial = ingest.read_trial_csv(paths[7][0])
    led = np.column_stack([trial.stimulus, 1 - trial.stimulus]).astype(float)
    prefix = root / "views" / "jf"
    prefix.parent.mkdir()
    for name, view in make_views(trial.positions, led=led).items():
        write_view_csv(f"{prefix}_{name}.csv", view)
    (root / "views" / "jf.json").write_text(
        '{"condition": "stimulated", "period_s": 2.0, "frame_rate": 60.0}')
    return prefix


def test_ingest_writes_holding_the_trial_not_its_views(view_prefix, tmp_path, monkeypatch):
    prefix = view_prefix
    held = []
    write = ingest.write_trial_csv

    def traced_write(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return write(*args, **kwargs)

    monkeypatch.setattr(ingest, "write_trial_csv", traced_write)
    traced_peak("ingest", "--input", prefix, "--out", tmp_path / "ingested")
    positions = ROWS * 8 * 3 * FLOAT
    # the trial and its LED column; the three views (1.6 positions each)
    # are gone before trial.csv is formatted
    assert held[-1] < 1.5 * positions


def test_ingest_peak_is_one_view_beside_the_markers_of_the_others(view_prefix, tmp_path,
                                                                 monkeypatch):
    # small homography blocks leave the views the command holds as the peak
    monkeypatch.setattr(ingest, "HOMOGRAPHY_BLOCK", 1_024, raising=False)
    peak = traced_peak("ingest", "--input", view_prefix, "--out", tmp_path / "ingested")
    markers = ROWS * 8 * 2 * FLOAT      # one view's marker coordinates
    # one view parsed and rectified (its table and its fields are 2.4 markers
    # each) beside the markers and confidence masks of the views before it;
    # two whole rectified views held beside the third took 10.8 markers
    assert peak < 8 * markers


def test_search_peak_is_the_pool_and_a_block_of_subsets(trials):
    root, paths = trials
    peak = traced_peak("search-sensors", "--input", paths[7][1], "--out", root / "search")
    one_table = ROWS * len(kinematics.ANALYSIS_COLUMNS) * FLOAT
    # the pool's standardized columns, the task columns and one block of
    # sensorsearch.CHUNK_SIZE subsets' normal equations, without the table:
    # holding the table through the search took 5.6 tables, and blocks of
    # 20 000 subsets about 25
    assert peak < 5 * one_table


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
    one_table = ROWS * len(kinematics.ANALYSIS_COLUMNS) * FLOAT
    # each trial keeps its channel-set columns, not its whole table
    assert peak < len(analyses) * one_table


def test_unread_feature_streams_hold_their_sensors_not_a_matrix():
    # four 150 s hybrid trials, as a cross-training caller builds them
    # before `cross_predict` reads each one whole
    rows = round(LONG_SECONDS * FRAME_RATE)
    rng = np.random.default_rng(4)
    sensors = [rng.normal(size=(rows, 4)) for _ in range(4)]
    for leak in (0.0, 0.3):
        config = rc.ReservoirConfig(leak=leak)
        rc.esn_init(config)     # the draw is the process's, not a stream's
        tracemalloc.start()
        try:
            streams = [rc.reservoir_features(x, config, mux_scale=0.05) for x in sensors]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copies = 2 if leak else 1       # the drive's leaked copy
        padded = (rows + (config.n_lags - 1) * config.mux_stride) * 4 * FLOAT
        assert [s.nbytes for s in streams] == [copies * padded] * 4
        assert sum(s.nbytes for s in streams) <= held
        matrix = rows * (config.n_nodes + config.input_width + 1) * FLOAT
        if not leak:    # 13.3 MB a matrix at the hybrid defaults
            assert peak < matrix / 10


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


def test_permutation_peak_is_two_arrays_of_one_block():
    # four groups of 190 samples, as the ESP pair deltas of 20 trials
    rng = np.random.default_rng(3)
    groups = [rng.normal(loc=0.1 * i, size=190) for i in range(4)]
    response.pairwise_tests(groups, n_permutations=100, seed=0)
    tracemalloc.start()
    try:
        response.pairwise_tests(groups, n_permutations=3 * 2_048, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 2_048 * 4 * 190 * FLOAT
    # a block's draws beside their order, then the order beside the permuted
    # samples; keeping one block's order and samples while the next block was
    # drawn took 4.3 blocks
    assert peak < 2.5 * block
