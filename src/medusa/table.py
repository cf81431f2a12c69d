"""The one CSV format every medusa table is read and written in, and the
one JSON format of its sidecars, manifests and summaries.

A header row, then data rows, comma-separated with CRLF line ends, in
UTF-8.  A float cell is written as ``%.9g`` (a missing value reads
``nan``), any other cell as ``str(value)``, quoted as the ``csv`` module
quotes it when it holds a comma, a quote or a line break.  Readers check
the header exactly and accept CRLF or LF line ends.
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError

CHUNK_ROWS = 1024   # rows formatted per write; bounds a write's memory
_FLOAT = b"%.9g"
_SPECIAL = (b",", b'"', b"\r", b"\n")


class Cells(np.ndarray):
    """Float cells formatted once by `float_cells`, written as they are.

    A bytes array of the cells' text, about 15 B a cell.  A slice of it is a
    view of the same type, so several blocks can share one formatted column.
    """


def float_cells(values) -> Cells:
    """Format a float64 column once, for a table that repeats its values;
    `CHUNK_ROWS` values at a time, so that their Python floats and texts
    never number a whole column."""
    values = np.asarray(values)
    if values.dtype != np.float64 or values.ndim != 1:
        raise ValueError("float_cells takes a one-dimensional float64 array")
    parts = [np.array([], dtype=bytes)]     # the cells of an empty column
    for start in range(0, values.size, CHUNK_ROWS):
        chunk = values[start:start + CHUNK_ROWS].tolist()
        parts.append(np.array(((_FLOAT + b",") * len(chunk) % tuple(chunk)).split(b",")[:-1],
                              dtype=bytes))
    return np.concatenate(parts).view(Cells)


def _cells(values) -> list[bytes]:
    texts = [_FLOAT % v if isinstance(v, float) else str(v).encode() for v in values]
    joined = b"".join(texts)
    if any(c in joined for c in _SPECIAL):
        texts = [b'"' + t.replace(b'"', b'""') + b'"' if any(c in t for c in _SPECIAL) else t
                 for t in texts]
    return texts


def _conversion(column):
    """A column's part of the row format, and how to list a chunk's cells.

    A scalar is a constant cell: it is formatted once into the row format
    and lists no cells.
    """
    if np.isscalar(column):
        return _cells([column])[0].replace(b"%", b"%%"), None
    if isinstance(column, Cells):
        return b"%s", np.ndarray.tolist
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _FLOAT, np.ndarray.tolist
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return b"%d", np.ndarray.tolist
    return b"%s", _cells


def write_csv(path: str | Path, header, *blocks) -> None:
    """Write ``header``, then the rows of each block in turn.

    A block holds one column per header field: an equal-length sequence
    (`Cells` are written as they are, other cells formatted per chunk), or
    a scalar repeated on every row of the block.  An empty block writes
    no rows, so a list of row tuples is written as
    ``write_csv(path, header, zip(*rows))``.
    """
    with open(path, "wb") as fh:
        fh.write(b",".join(_cells(header)) + b"\r\n")
        for block in blocks:
            columns = list(block) or [()] * len(header)
            conversions = [_conversion(c) for c in columns]
            varying = [(c, cells) for c, (_, cells) in zip(columns, conversions) if cells]
            lengths = {len(c) for c, _ in varying}
            if len(columns) != len(header) or len(lengths) != 1:
                raise ValueError("need one column per header field and at least one "
                                 "sequence, all sequences of one length")
            n, = lengths
            row_format = b",".join(conv for conv, _ in conversions) + b"\r\n"
            for start in range(0, n, CHUNK_ROWS):
                chunk = [cells(c[start:start + CHUNK_ROWS]) for c, cells in varying]
                fh.write(row_format * len(chunk[0])
                         % tuple(itertools.chain.from_iterable(zip(*chunk))))


def read_csv(path: str | Path, header) -> np.ndarray:
    """Read a numeric table as an ``(n, len(header))`` float array.

    Raises ValidationError, naming the file, for a header other than
    ``header``, no data rows, or a ragged or non-numeric row.
    """
    # the line count bounds the rows, so loadtxt allocates the table once
    # instead of growing it through copies
    lines, chunk = 0, bytearray(1 << 20)
    with open(path, "rb", buffering=0) as raw:
        while got := raw.readinto(chunk):
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8, got) == ord("\n")))
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            raise ValidationError(f"unexpected CSV header in {path}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty: reported below
                data = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=lines)
        except ValueError as exc:
            raise ValidationError(f"malformed CSV {path}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != len(header):
        raise ValidationError(f"expected rows of {len(header)} numbers in {path}")
    return data


def sidecar_path(csv_path: str | Path) -> Path:
    """The JSON sidecar of a table: its CSV path with a .json suffix."""
    return Path(csv_path).with_suffix(".json")


def read_json(path: str | Path) -> dict:
    """Read a JSON sidecar holding one object.

    Raises ValidationError, naming the file, when it cannot be read, does
    not parse or holds something other than an object.
    """
    try:
        meta = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:   # ValueError: malformed JSON, or not text
        raise ValidationError(f"cannot read JSON {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return meta


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON and a newline, a value JSON lacks as its ``str``."""
    Path(path).write_text(json.dumps(obj, indent=2, default=str) + "\n")
