"""Golden digests: one small end-to-end run of every command, and the
SHA-256 of each result file it writes.

`run_cases` runs the cases through `cli.main` in this process, under a
scratch directory, and returns case -> file name -> digest.  A case that
must fail records its exit code and the first line of its stderr instead.
Manifests (they hold timings and paths) and report.json (it lists them)
are left out.  model.npz is digested by the names, dtypes, shapes and
bytes of its arrays, not by its zip, whose entries carry timestamps.

`configuration` is the numpy, BLAS and SIMD set-up the digests depend on:
OpenBLAS picks its kernels by CPU and splits products by its thread
count, and numpy's loops by the SIMD extensions found, so a last bit can
move with any of them.

Run as a script, it records the digests again in tests/golden.json:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from medusa import cli, ingest
from test_ingest import make_views, random_projective, write_view_csv

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SKIPPED = {"manifest.json", "report.json"}
SECONDS = 40.0      # 2 400 frames: enough for the 1 000-sample washouts


def configuration() -> dict:
    """The numpy version, BLAS build and thread count, and SIMD extensions
    of this process."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "simd": config["SIMD Extensions"]["found"],
    }


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded through
    its ``get_num_threads`` entry point; None where none can be found."""
    try:
        # a symbol lookup on numpy's extension searches the libraries it loaded
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                return int(get())
    return None


def file_digest(path: Path) -> str:
    if path.suffix != ".npz":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for name in sorted(npz.files):
            array = np.ascontiguousarray(npz[name])
            digest.update(f"{name}:{array.dtype.str}:{array.shape}:".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def _main(argv) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and its stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _write_views(trial_csv: Path, prefix: Path) -> None:
    """The trial at ``trial_csv`` as the three camera views ingest reads."""
    trial = ingest.read_trial_csv(trial_csv)
    rng = np.random.default_rng(7)
    pixel_h = {name: random_projective(rng, scale=150.0) for name in ingest.VIEW_NAMES}
    stim = trial.stimulus.astype(float)
    views = make_views(trial.positions, led=np.column_stack([stim, 1.0 - stim]),
                       pixel_h=pixel_h)
    for name, view in views.items():
        write_view_csv(f"{prefix}_{name}.csv", view)
    prefix.with_suffix(".json").write_text(json.dumps({
        "animal_id": "SYN7", "condition": "stimulated", "period_s": 2.0, "frame_rate": 60.0}))


def _write_gappy(trial_csv: Path, out: Path) -> Path:
    """The trial with marker R1 missing for 20 frames, as ingest would leave it."""
    trial = ingest.read_trial_csv(trial_csv)
    positions, valid = trial.positions.copy(), trial.valid_mask.copy()
    positions[1500:1520, 0] = np.nan
    valid[1500:1520] = False
    out.mkdir(parents=True)
    ingest.write_trial_csv(replace(trial, positions=positions, valid_mask=valid),
                           out / "trial.csv")
    return out / "trial.csv"


def run_cases(root: Path) -> dict[str, dict]:
    """Run every case under ``root``; case -> file name -> digest, or the
    exit code and first stderr line of a case that must fail."""
    results: dict[str, dict] = {}

    def case(name, *argv, fails=False):
        out = root / name
        code, err = _main([*argv, "--out", out])
        if fails:
            first = err.splitlines()[0] if err else ""
            results[name] = {"exit_code": code, "stderr": first.replace(str(root), "<root>")}
            return out
        if code != 0:
            raise AssertionError(f"{name} exited {code}: {err.strip()}")
        results[name] = {p.name: file_digest(p) for p in sorted(out.iterdir())
                         if p.is_file() and p.name not in SKIPPED} if out.is_dir() else {}
        return out

    # the ten pipeline commands, from the view format on
    synth = case("pipeline/synth", "synth", "--tau", 2.0, "--seconds", SECONDS, "--seed", 7)
    (root / "views").mkdir()
    _write_views(synth / "trial.csv", root / "views" / "trial")
    trial = case("pipeline/ingest", "ingest", "--input", root / "views" / "trial") / "trial.csv"
    analysis = case("pipeline/kinematics", "kinematics", "--input", trial) / "analysis.csv"
    case("pipeline/soc", "soc", "--input", analysis)
    case("pipeline/phase", "phase", "--input", analysis)
    model = case("pipeline/train", "train", "--input", analysis, "--pulsatile") / "model.npz"
    case("pipeline/predict", "predict", "--model", model, "--input", analysis)
    case("pipeline/search-sensors", "search-sensors", "--input", analysis, "--kmax", 5)
    case("pipeline/export-model", "export-model", "--model", model)
    case("pipeline/report", "report", "--input", root / "pipeline")

    # a two-trial esp, and confusion over three analyses
    pair = case("esp/synth", "synth", "--tau", 1.5, "--seconds", SECONDS, "--seed", 11,
                "--trials", 2)
    others = [case(f"esp/kinematics_{i}", "kinematics", "--input",
                   pair / f"trial_{i:03d}.csv") / "analysis.csv" for i in range(2)]
    case("esp/esp", "esp", "--inputs", *others, "--horizon", 30.0)
    labelled = [f"{label}={path}" for label, path in zip("abc", [analysis, *others])]
    case("confusion/vx_vy_vz", "confusion", "--inputs", *labelled)
    case("confusion/vz", "confusion", "--inputs", *labelled, "--targets", "vz")

    # train and predict under each option that changes the model
    for name, flags in {"esn": ["--arch", "esn", "--washout", 600],
                        "prc": ["--arch", "prc", "--washout", 600],
                        "leak": ["--leak", 0.3, "--pulsatile"],
                        "vz": ["--targets", "vz", "--pulsatile"]}.items():
        model = case(f"train/{name}", "train", "--input", analysis, *flags) / "model.npz"
        case(f"predict/{name}", "predict", "--model", model, "--input", analysis)

    # the named errors of a trial with invalid frames
    gappy = _write_gappy(synth / "trial.csv", root / "gappy" / "raw")
    gappy = case("gappy/kinematics", "kinematics", "--input", gappy) / "analysis.csv"
    case("gappy/soc", "soc", "--input", gappy, fails=True)
    case("gappy/phase", "phase", "--input", gappy, fails=True)
    case("gappy/train", "train", "--input", gappy, "--pulsatile", "--horizons", 0, fails=True)
    return results


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cases = run_cases(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps({"recorded_under": configuration(), "cases": cases},
                                      indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, cases.values()))} digests of {len(cases)} cases "
          f"in {GOLDEN_PATH}")


if __name__ == "__main__":
    sys.exit(main())
