"""The CSV table format: ``write_table`` and ``read_columns``.

The writer is checked byte for byte against a one-row-at-a-time
formatter, and values read back bit for bit.  The reader is checked
cell by cell on the bodies people write by hand: blank lines, CRLF,
padding, ragged rows and quoted commas, and the scan's line of each row
on the same bodies.  Its ``np.loadtxt`` tier is checked against the
``csv.reader`` scan on hostile bodies, and the files wbou writes are
checked to take that tier.
"""
import csv
import os
import re
import threading
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbou import _table
from wbou._table import read_columns, write_table
from wbou.errors import DimensionMismatch, DomainError


def per_row_text(header, columns):
    """The table as a row-by-row f-string loop writes it."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(str(v) if isinstance(v, int) else repr(v) for v in row))
    return "\n".join(lines) + "\n"


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@contextmanager
def scan_forbidden():
    """Fail if ``read_columns`` falls back to the ``csv.reader`` scan."""
    with mock.patch.object(_table, "_scan", side_effect=AssertionError("took the scan")):
        yield


ROW = st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False),
                st.integers(-2**53, 2**53))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(ROW, max_size=30))
@example(rows=[(-0.0, 5e-324, 0), (1.7e308, -1.7e308, -1),
               (2.2250738585072014e-308, -2.225073858507201e-308, 2**53),
               (float("inf"), float("-inf"), -2**53)])
def test_round_trip_is_bitwise(tmp_path_factory, rows):
    f = tmp_path_factory.mktemp("table") / "t.csv"
    a, b, k = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    write_table(f, ("a", "b", "k"), (np.array(a, dtype=float), np.array(b, dtype=float),
                                     np.array(k, dtype=np.int64)))
    assert f.read_text() == per_row_text(("a", "b", "k"), (a, b, k))
    with scan_forbidden():
        back = read_columns(f, ("a", "b", "k"))
    assert _table._scan(f, ())[1] == list(range(2, len(rows) + 2))
    assert np.array_equal(bits(back["a"]), bits(a))
    assert np.array_equal(bits(back["b"]), bits(b))
    assert np.array_equal(back["k"], np.array(k, dtype=float))


def test_blocks_join_seamlessly(tmp_path):
    n = 2 * _table._BLOCK + 3
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    k = np.arange(n) - n // 2
    f = tmp_path / "long.csv"
    write_table(f, ("k", "x", "empty"), (k, x, None))
    rows = zip(k.tolist(), x.tolist())
    assert f.read_text() == "k,x,empty\n" + "".join(f"{a},{b!r},\n" for a, b in rows)
    back = read_columns(f, ("x", "k"))
    assert list(back) == ["x", "k"]
    assert np.array_equal(bits(back["x"]), bits(x))
    assert np.array_equal(back["k"], k)


def test_missing_names_are_left_out(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(" b ,a\n1,2\n")
    assert list(read_columns(f, ("a", "c", "b"))) == ["a", "b"]
    f.write_text("")
    with pytest.raises(DomainError, match="empty file"):
        read_columns(f, ("a",))


@pytest.mark.parametrize("body, names, want", [
    ("a,b\n1,2\n\n3,4\n\n", ("a", "b"), ({"a": [1, 3], "b": [2, 4]}, [2, 4])),
    ("a,b\r\n1,2\r\n\r\n3,4\r\n", ("a", "b"), ({"a": [1, 3], "b": [2, 4]}, [2, 4])),
    ("a,b\n 1 ,\t2\n3 , 4e-3 \n", ("b",), ({"b": [2, 4e-3]}, [2, 3])),
    ("a,b\n1,2,9\n3,4\n", ("a", "b"), ({"a": [1, 3], "b": [2, 4]}, [2, 3])),
    ('a,b,x\n"1,2",3,4\n', ("x",), ({"x": [4]}, [2])),
    ('"a",b\n"1",2\n', ("a", "b"), ({"a": [1], "b": [2]}, [2])),
    ("a,b\nnan,-inf\n-0,1_0\n", ("b",), ({"b": [-np.inf, 10]}, [2, 3])),
    ("a,b\n1,2\n3\n", ("a", "b"), "line 3: cannot read '' as a number"),
    ("a,b\n1,2\n3,\n", ("b",), "line 3: cannot read '' as a number"),
    ("a,b\n1,2\n  \n", ("a",), "line 3: cannot read '  ' as a number"),
    ("a,b\n1,x\ny,2\n", ("a", "b"), "line 2: cannot read 'x' as a number"),
    ("a,b\n1,2\n3,4e999\n", ("b",), ({"b": [2, np.inf]}, [2, 3])),
    ('a,b\n"1\n",2\n3,4\n', ("a", "b"), ({"a": [1, 3], "b": [2, 4]}, [2, 4])),
    ('a,b\n"1\n",2\n3,x\n', ("a", "b"), "line 4: cannot read 'x' as a number"),
], ids=["blank-lines", "crlf", "padded-cells", "long-row", "quoted-comma",
        "quoted-cells", "float-spellings", "short-row", "empty-cell", "blank-cell",
        "first-bad-row", "overflow-is-inf", "quoted-newline", "bad-cell-after-quoted-newline"])
def test_reader_cells(tmp_path, body, names, want):
    """The cells of each row, and the file line the scan gives each row."""
    f = tmp_path / "t.csv"
    f.write_bytes(body.encode())
    if isinstance(want, str):
        with pytest.raises(DomainError, match=f"^{re.escape(f'{f}: {want}')}$"):
            read_columns(f, names)
        return
    cols = read_columns(f, names)
    assert {n: v.tolist() for n, v in cols.items()} == want[0]
    assert _table._scan(f, names)[1] == _table._scan(f, ())[1] == want[1]


@pytest.mark.parametrize("cell", ['"' + "1" * 200_000 + '"', "1" * 200_000])
def test_cell_over_the_csv_field_limit_is_refused(tmp_path, cell):
    f = tmp_path / "t.csv"
    f.write_text(f"x\n1.0\n{cell}\n")
    with pytest.raises(DomainError, match="field larger than field limit"):
        read_columns(f, ("x",))


def test_undecodable_bytes_are_refused(tmp_path):
    f = tmp_path / "t.csv"
    f.write_bytes(b"x\n1.0\n\xff\xfe3.0\n")
    with pytest.raises(DomainError, match="codec can't decode"):
        read_columns(f, ("x",))


def test_path_file_takes_the_loadtxt_tier(tmp_path):
    n = 100_001
    rng = np.random.default_rng(7)
    t = np.arange(n) * 1e-3
    x, x_minus, x_plus = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-30, 30, (3, n))
    f = tmp_path / "path.csv"
    write_table(f, ("t", "x", "x_minus", "x_plus"), (t, x, x_minus, x_plus))
    with scan_forbidden():
        cols = read_columns(f, ("x", "t"))
    assert np.array_equal(bits(cols["x"]), bits(x))
    assert np.array_equal(bits(cols["t"]), bits(t))
    assert all(v.flags.c_contiguous for v in cols.values())


def outcome(read, path, names):
    """What a reader makes of a file: values as bits, or the DomainError
    message."""
    try:
        cols = read(path, names)
    except DomainError as exc:
        return str(exc)
    return {name: bits(v).tolist() for name, v in cols.items()}


#: pieces of hostile bodies: every character the two tiers treat
#: differently, and the float spellings
PIECES = list("0123456789.e+-_,\" \t\r\n#\x00\x1c\x1f") + ["nan", "inf"]
HEADERS = ["a,b\n", "b,a\r\n", " a ,b,c\n", '"a",b\n', "a\n", "a,b", "a,b\r", "c\n"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(header=st.sampled_from(HEADERS), body=st.lists(st.sampled_from(PIECES), max_size=40))
@example(header="a,b\n", body=["1,", "1" * (csv.field_size_limit() + 1), "\n"])
@example(header="a,b\n", body=["1,", "1" * csv.field_size_limit(), "\n"])
@example(header='"a\nb",a\n', body=["1,2\n3,4\n"])
@example(header='a,"b\n2,3"\n', body=["5,6\n"])
@example(header="a,b\n", body=[])
@example(header="a,b\n", body=["\n"])
@example(header="a,b\n", body=['"1\n",2\n3,4\n'])
@example(header="a,b\n", body=["1,2\r3,4\n"])
@example(header="a,b\n", body=["\r1,2\n"])
@example(header="a,b\n", body=["1,2\x1c\n"])
@example(header="a,b\n", body=["1_0,1#c\n"])
def test_loadtxt_tier_reads_what_the_scan_reads(tmp_path_factory, header, body):
    f = tmp_path_factory.mktemp("diff") / "t.csv"
    f.write_bytes((header + "".join(body)).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(read_columns, f, ("a", "b"))
    assert got == outcome(lambda *a: _table._scan(*a)[0], f, ("a", "b"))
    assert not caught


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_opened_once(tmp_path):
    """A pipe's text can be read only once: a reader that opened it a
    second time would wait for a writer for ever."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    got = []
    threads = [threading.Thread(target=fifo.write_text, args=("x\n1.5\n\n2.5\n",), daemon=True),
               threading.Thread(target=lambda: got.append(read_columns(fifo, ("x",))), daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert got, "read_columns is still waiting on the pipe"
    assert got[0]["x"].tolist() == [1.5, 2.5]


def test_line_check_sees_across_block_boundaries(tmp_path):
    """A long line that block boundaries cut is measured whole, and a
    CR LF they cut is not a bare CR."""
    limit = csv.field_size_limit()
    rows = _table._CHUNK // 3
    crlf = "x\n" + "1\r\n" * rows
    assert crlf[_table._CHUNK - 1] == "\r"
    f = tmp_path / "t.csv"
    for text, want in [("x\n1\n" + "2" * (limit - 1) + "\n", 3),
                       ("x\n1\n" + "2" * limit + "\n", None),
                       (crlf, rows + 1), (crlf + "2\r3\n", None)]:
        f.write_bytes(text.encode())
        with open(f, newline="") as fh:
            assert _table._plain_lines(fh, limit) == want


@pytest.mark.parametrize("bad", [np.zeros((4, 4)), np.zeros((1, 4)), np.float64(1.0)],
                         ids=["square", "one-row", "scalar"])
def test_columns_that_are_not_1d_are_refused(tmp_path, bad):
    """A 2-D column whose length is the row count would otherwise be
    written as one list repr per cell."""
    f = tmp_path / "t.csv"
    with pytest.raises(DimensionMismatch, match="must be 1-D"):
        write_table(f, ("t", "x"), (np.arange(4.0), bad))
    assert not f.exists()


def test_columns_of_unequal_length_are_refused(tmp_path):
    f = tmp_path / "t.csv"
    with pytest.raises(DimensionMismatch, match="differ in length"):
        write_table(f, ("a", "b", "c"), ([1.0, 2.0], None, [1.0]))
    with pytest.raises(DimensionMismatch):
        write_table(f, ("a",), (None,))
    assert not f.exists()
