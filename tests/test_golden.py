"""Byte-identity of every result file, as a tier-1 check (see golden.py).

Under a numpy, BLAS or SIMD set-up other than the one tests/golden.json
was recorded under, last bits may move with no change to medusa, so the
test skips, naming both set-ups; record the digests again on that set-up
to check it there.
"""

from __future__ import annotations

import json

import pytest

import golden


def test_every_result_file_keeps_its_recorded_digest(tmp_path):
    recorded = json.loads(golden.GOLDEN_PATH.read_text())
    here = golden.configuration()
    if recorded["recorded_under"] != here:
        pytest.skip(f"digests recorded under {recorded['recorded_under']}, this is {here}")
    want, got = recorded["cases"], golden.run_cases(tmp_path)
    moved = [f"{case}/{name}" for case in sorted(want.keys() | got.keys())
             for name in sorted(want.get(case, {}).keys() | got.get(case, {}).keys())
             if want.get(case, {}).get(name) != got.get(case, {}).get(name)]
    assert not moved, ("moved from tests/golden.json (record them again with "
                       "`PYTHONPATH=src python tests/golden.py`, and say why): "
                       + ", ".join(moved))
