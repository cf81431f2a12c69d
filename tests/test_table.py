import csv
from pathlib import Path

import numpy as np
import pytest

from medusa import table
from medusa.errors import ValidationError


def reference_write(path, header, rows):
    """The csv.writer loop every table writer used before the table module."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in row])


def mixed_table():
    header = ["train\\eval", "x", "count", "label", "p_adjusted"]
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, 1e300, -2.5e-7, 7.0, 0.1])
    count = np.array([0, 1, -3, 10**9, 42, 7, 8, 9, 10, 11], dtype=np.int64)
    label = ["vx", "", "a,b", 'say "hi"', "Y2-O1", "x\ny", "t15|t20", "a:b", "z", "w"]
    p_adjusted = [0.5, "", 1e-12, "", float("nan"), 3, "", 2.0, -0.0, ""]
    return header, [x, count, label, p_adjusted, x[::-1].copy()]


@pytest.mark.parametrize("chunk_rows", [1, 3, table.CHUNK_ROWS])
def test_write_matches_csv_module_bytes(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(table, "CHUNK_ROWS", chunk_rows)
    header, columns = mixed_table()
    table.write_csv(tmp_path / "new.csv", header, columns)
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    reference_write(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("chunk_rows", [1, 3, table.CHUNK_ROWS])
def test_constant_and_formatted_cells_match_cell_by_cell(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(table, "CHUNK_ROWS", chunk_rows)
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0 / 3.0, 1e300, -2.5e-7, 7.0, 0.1])
    y = x[::-1].copy()
    x_cells = table.float_cells(x)
    constants = ["a,b", 'say "hi"', "50%", "%s%%d", "x\ny", np.nan, np.inf, -np.inf, -0.0,
                 5e-324, 0.5, np.float64(0.25), 3, np.int64(-4)]
    header = ["t", "label", "value", "h"]
    blocks, rows = [], []
    for i, const in enumerate(constants):
        kept = slice(i % 3, None, 1 + i % 4)   # views of the formatted column
        blocks.append((x_cells[kept], const, y[kept], -0.0 if i % 2 else "%"))
        rows += [(a, const, b, -0.0 if i % 2 else "%")
                 for a, b in zip(x[kept].tolist(), y[kept].tolist())]
    blocks.append(zip(*[]))
    table.write_csv(tmp_path / "new.csv", header, *blocks)
    reference_write(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_a_block_needs_one_sequence_of_one_length(tmp_path):
    with pytest.raises(ValueError):
        table.write_csv(tmp_path / "a.csv", ["a", "b"], ("x", 1.0))
    with pytest.raises(ValueError):
        table.write_csv(tmp_path / "b.csv", ["a", "b"], (np.zeros(2), table.float_cells(np.zeros(3))))


def test_only_the_table_module_formats_nine_digit_floats():
    # one table-I/O path: every %.9g cell is written by medusa.table
    package = Path(table.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if p.name != "table.py" and ".9g" in p.read_text()] == []


def test_write_rows_and_empty_table(tmp_path):
    rows = [("vx", 0.5, 3), ("vy", float("nan"), 4)]
    table.write_csv(tmp_path / "new.csv", ["target", "r2", "n"], zip(*rows))
    reference_write(tmp_path / "old.csv", ["target", "r2", "n"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    table.write_csv(tmp_path / "empty.csv", ["a", "b"], zip(*[]))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\r\n"


def test_read_matches_float_parsing_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
    cells = [f"{v:.9g}" for v in values] + [repr(v) for v in values.tolist()]
    cells += ["nan", "inf", "-inf", "-0", "0", "5e-324", "4.94065646e-324", "1e-310",
              "1.7976931348623157e308", "1000000000", "-7", "0.1"]
    cells += ["1"] * (-len(cells) % 4)
    grid = np.array(cells).reshape(-1, 4)
    path = tmp_path / "t.csv"
    path.write_bytes(("a,b,c,d\r\n" + "".join(",".join(r) + "\r\n" for r in grid)).encode())
    data = table.read_csv(path, ["a", "b", "c", "d"])
    expected = np.array([[float(c) for c in r] for r in grid])
    assert data.dtype == np.float64
    np.testing.assert_array_equal(data.view(np.uint64), expected.view(np.uint64))


def test_read_accepts_crlf_and_lf(tmp_path):
    body = ["a,b", "1,2.5", "nan,-0", "3e-5,4"]
    (tmp_path / "crlf.csv").write_bytes("\r\n".join(body).encode() + b"\r\n")
    (tmp_path / "lf.csv").write_bytes("\n".join(body).encode() + b"\n")
    crlf = table.read_csv(tmp_path / "crlf.csv", ("a", "b"))
    lf = table.read_csv(tmp_path / "lf.csv", ("a", "b"))
    assert crlf.shape == (3, 2)
    np.testing.assert_array_equal(crlf.view(np.uint64), lf.view(np.uint64))


def test_one_row_table_reads_two_dimensional(tmp_path):
    table.write_csv(tmp_path / "one.csv", ["t", "v", "n"],
                    [np.array([0.25]), np.array([-1.5]), np.array([3])])
    data = table.read_csv(tmp_path / "one.csv", ["t", "v", "n"])
    assert data.shape == (1, 3)
    np.testing.assert_array_equal(data, [[0.25, -1.5, 3.0]])


@pytest.mark.parametrize("columns", [1, 2, 5])
def test_read_takes_every_row_of_the_shortest_cells_and_meets_a_malformed_one(tmp_path, columns):
    header = [chr(ord("a") + i) for i in range(columns)]
    rows = [",".join(str((r + c) % 10) for c in range(columns)) for r in range(500)]
    path = tmp_path / "short.csv"
    path.write_text("\n".join([",".join(header)] + rows) + "\n")
    data = table.read_csv(path, header)
    assert data.shape == (500, columns)
    np.testing.assert_array_equal(data[:, 0], np.arange(500) % 10)
    # a malformed last row, shorter than any that parses, is still read
    bad = ",".join(["7"] * (columns - 1)) or "-"
    path.write_text("\n".join([",".join(header)] + rows + [bad]))
    with pytest.raises(ValidationError):
        table.read_csv(path, header)
