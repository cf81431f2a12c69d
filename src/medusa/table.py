"""The one CSV format every medusa table is read and written in.

A header row, then data rows, comma-separated with CRLF line ends.  A float
cell is written as ``%.9g`` (a missing value reads ``nan``), any other cell
as ``str(value)``, quoted as the ``csv`` module quotes it when it holds a
comma, a quote or a line break.  Readers check the header exactly and
accept CRLF or LF line ends.
"""

from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError

CHUNK_ROWS = 8192   # rows formatted per write; bounds a write's memory
_SPECIAL = (",", '"', "\r", "\n")


def _cells(values) -> list[str]:
    texts = [f"{v:.9g}" if isinstance(v, float) else str(v) for v in values]
    joined = "".join(texts)
    if any(c in joined for c in _SPECIAL):
        texts = ['"' + t.replace('"', '""') + '"' if any(c in t for c in _SPECIAL) else t
                 for t in texts]
    return texts


def _conversion(column) -> str:
    """One %-conversion for a whole float64 or integer array; ``%s`` otherwise."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return "%.9g"
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "%d"
    return "%s"


def write_csv(path: str | Path, header, columns) -> None:
    """Write ``header`` and one equal-length sequence per header field.

    An empty ``columns`` writes the header alone, so a list of row tuples
    is written as ``write_csv(path, header, zip(*rows))``.
    """
    columns = list(columns) or [()] * len(header)
    n = len(columns[0])
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError("need one column per header field, all of one length")
    conversions = [_conversion(c) for c in columns]
    row_format = ",".join(conversions) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_cells(header)) + "\r\n")
        for start in range(0, n, CHUNK_ROWS):
            chunk = [c[start:start + CHUNK_ROWS] for c in columns]
            cells = [c.tolist() if conv != "%s" else _cells(c)
                     for conv, c in zip(conversions, chunk)]
            fh.write(row_format * len(cells[0])
                     % tuple(itertools.chain.from_iterable(zip(*cells))))


def read_csv(path: str | Path, header) -> np.ndarray:
    """Read a numeric table as an ``(n, len(header))`` float array.

    Raises ValidationError, naming the file, for a header other than
    ``header``, no data rows, or a ragged or non-numeric row.
    """
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            raise ValidationError(f"unexpected CSV header in {path}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty: reported below
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed CSV {path}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise ValidationError(f"expected rows of {len(header)} numbers in {path}")
    return data
