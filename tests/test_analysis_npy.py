"""analysis.npy: kinematics saves the table it wrote as every reader parses
it back, and `AnalysisTable.read` loads it only while the sidecar's
csv_sha256 and npy_sha256 match both files."""

from __future__ import annotations

import json

import numpy as np
import pytest

from medusa import cli, kinematics
from medusa.manifest import sha256_file
from medusa.table import read_csv
from golden import file_digest

UNPICKLED = []


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def analyses(tmp_path_factory):
    """Two 60 s stimulated trials through kinematics, and a model of the first."""
    root = tmp_path_factory.mktemp("npy")
    assert run("synth", "--tau", 2.0, "--seconds", 60.0, "--seed", 7, "--trials", 2,
               "--out", root / "raw") == 0
    paths = []
    for i in range(2):
        assert run("kinematics", "--input", root / "raw" / f"trial_{i:03d}.csv",
                   "--out", root / f"kin{i}") == 0
        paths.append(root / f"kin{i}" / "analysis.csv")
    assert run("train", "--input", paths[0], "--pulsatile", "--horizons", "0,0.5",
               "--out", root / "model") == 0
    return root, paths


def _copy(analysis, to):
    """The analysis files copied under ``to``; the copy's CSV path."""
    to.mkdir(parents=True)
    for suffix in (".csv", ".json", ".npy"):
        (to / f"analysis{suffix}").write_bytes(analysis.with_suffix(suffix).read_bytes())
    return to / "analysis.csv"


def _read(csv_path):
    """The table `AnalysisTable.read` gives, and whether it loaded the npy."""
    record = cli.Run(csv_path.parent / "unused")
    data = cli.AnalysisTable.read(csv_path, record).data
    return data, record.inputs == [csv_path.with_suffix(".npy")]


def _bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_saved_table_is_bitwise_the_parsed_text(analyses):
    _, paths = analyses
    for path in paths:
        data, loaded = _read(path)
        assert loaded
        assert _bitwise_equal(data, read_csv(path, kinematics.ANALYSIS_COLUMNS))
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["csv_sha256"] == sha256_file(path)
        assert meta["npy_sha256"] == sha256_file(path.with_suffix(".npy"))


def _reader_runs(root, paths):
    """Each reader's arguments, reading ``paths``."""
    a, b = paths
    return {
        "soc": ["--input", a],
        "phase": ["--input", a],
        "esp": ["--inputs", a, b, "--horizon", 30.0],
        "train": ["--input", a, "--pulsatile", "--horizons", "0,0.5"],
        "predict": ["--model", root / "model" / "model.npz", "--input", a, "--stride-out", 10],
        "confusion": ["--inputs", f"x={a}", f"y={b}", "--arch", "prc"],
        "search-sensors": ["--input", a, "--kmax", 2],
    }


def _results(out) -> dict[str, str]:
    """The digest of each result file (model.npz by its arrays: its zip holds times)."""
    return {p.name: file_digest(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_every_reader_writes_the_same_bytes_without_the_npy(tmp_path, analyses):
    root, paths = analyses
    copies = [_copy(path, tmp_path / f"copy{i}") for i, path in enumerate(paths)]

    def results(npy):
        out = {}
        for command, argv in _reader_runs(root, copies).items():
            assert run(command, *argv, "--out", tmp_path / npy / command) == 0
            manifest = json.loads((tmp_path / npy / command / "manifest.json").read_text())
            loaded = [r["path"] for r in manifest["inputs"] if r["path"].endswith(".npy")]
            tables = 2 if command in ("esp", "confusion") else 1
            assert len(loaded) == (tables if npy == "present" else 0), command
            out[command] = _results(tmp_path / npy / command)
        return out

    present = results("present")
    for copy in copies:
        copy.with_suffix(".npy").unlink()
    assert results("deleted") == present


def _edit_csv(csv_path, case):
    text = csv_path.read_bytes()
    lines = text.split(b"\r\n")
    if case == "row cut":
        csv_path.write_bytes(b"\r\n".join(lines[:-2] + [b""]))
        return
    # the leading digit of one vz cell, so the file keeps its size
    row, col = 1800, kinematics.ANALYSIS_COLUMNS.index("vz")
    cells = lines[1 + row].split(b",")
    i = len(cells[col]) - len(cells[col].lstrip(b"-"))
    digit = cells[col][i] - ord("0")
    cells[col] = cells[col][:i] + str(digit % 9 + 1).encode() + cells[col][i + 1:]
    lines[1 + row] = b",".join(cells)
    csv_path.write_bytes(b"\r\n".join(lines))
    assert csv_path.stat().st_size == len(text)


@pytest.mark.parametrize("case", ["one digit", "row cut"])
def test_a_csv_edited_after_kinematics_is_read_from_its_text(tmp_path, analyses, case):
    _, paths = analyses
    original = _copy(paths[0], tmp_path / "original")
    edited = _copy(paths[0], tmp_path / "edited")
    _edit_csv(edited, case)
    data, loaded = _read(edited)
    assert not loaded
    assert _bitwise_equal(data, read_csv(edited, kinematics.ANALYSIS_COLUMNS))
    assert not _bitwise_equal(data, np.load(edited.with_suffix(".npy")))
    for name, path in (("original", original), ("edited", edited)):
        assert run("soc", "--input", path, "--out", tmp_path / f"soc_{name}") == 0
    assert ((tmp_path / "soc_original" / "psd.csv").read_bytes()
            != (tmp_path / "soc_edited" / "psd.csv").read_bytes())


def _tripped():
    UNPICKLED.append(True)
    return 0


class Tripwire:
    """An object whose unpickling is recorded in `UNPICKLED`."""

    def __reduce__(self):
        return _tripped, ()


def _damage_npy(npy_path, case):
    if case == "edited":
        raw = bytearray(npy_path.read_bytes())
        raw[-1] ^= 1
        npy_path.write_bytes(bytes(raw))
    elif case == "truncated":
        npy_path.write_bytes(npy_path.read_bytes()[:-100])
    elif case == "pickled":
        np.save(npy_path, np.array([Tripwire()], dtype=object), allow_pickle=True)
    elif case == "float32":
        np.save(npy_path, np.load(npy_path).astype(np.float32))
    else:   # a column short
        np.save(npy_path, np.load(npy_path)[:, :-1])


# a rehashed sidecar leaves only the format check between the file and the
# load; one rehashed to an edited table of the right shape vouches for it
@pytest.mark.parametrize("case, rehash", [
    ("edited", False), ("truncated", False), ("pickled", False),
    ("truncated", True), ("pickled", True), ("float32", True), ("columns", True),
])
def test_a_damaged_npy_is_never_loaded(tmp_path, analyses, case, rehash):
    _, paths = analyses
    csv_path = _copy(paths[0], tmp_path / "copy")
    npy_path = csv_path.with_suffix(".npy")
    _damage_npy(npy_path, case)
    if rehash:
        sidecar = csv_path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(meta | {"npy_sha256": sha256_file(npy_path)}))
    UNPICKLED.clear()
    data, loaded = _read(csv_path)
    assert not loaded and not UNPICKLED
    assert _bitwise_equal(data, read_csv(csv_path, kinematics.ANALYSIS_COLUMNS))


def test_a_sidecar_without_the_digests_reads_the_text(tmp_path, analyses):
    # as written by hand, or by kinematics before it saved the table
    _, paths = analyses
    csv_path = _copy(paths[0], tmp_path / "copy")
    sidecar = csv_path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    for key in ("csv_sha256", "npy_sha256"):
        del meta[key]
    sidecar.write_text(json.dumps(meta))
    data, loaded = _read(csv_path)
    assert not loaded
    assert _bitwise_equal(data, read_csv(csv_path, kinematics.ANALYSIS_COLUMNS))


def test_a_kinematics_rerun_keeps_the_readers_config_hash(tmp_path, analyses):
    root, _ = analyses
    trial, out = root / "raw" / "trial_000.csv", tmp_path / "kin"
    saved, hashes = [], []
    for _ in range(2):
        assert run("kinematics", "--input", trial, "--out", out) == 0
        saved.append([(out / name).read_bytes() for name in ("analysis.npy", "analysis.json")])
        assert run("soc", "--input", out / "analysis.csv", "--out", tmp_path / "soc") == 0
        hashes.append(json.loads((tmp_path / "soc" / "manifest.json").read_text())["config_hash"])
    assert saved[0] == saved[1]
    assert hashes[0] == hashes[1]
