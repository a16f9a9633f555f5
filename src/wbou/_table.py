"""CSV tables: the one writer and the one reader of wbou's files.

A header line of column names, then one line per row: floats by ``repr``
(they read back bit for bit), ints by ``str``, a missing column as empty
fields.  This module imports no wbou module but ``errors``, so paths,
svmodel, estimation and cli can all use it without an import cycle.

The reader has two tiers.  The ``csv.reader`` scan defines what a file
means and writes every error message.  Before it, one ``np.loadtxt``
call reads the values, and its result is kept only where it provably
equals the scan's: a regular file with a one-line header, every line
ended by LF or CR LF (no bare CR) and shorter than
``csv.field_size_limit()``, no space that only ``loadtxt`` strips, and
exactly one row per data line, so no line was blank and no quoted cell
spans lines.  Anything ``loadtxt`` refuses (``1_0``, an empty cell,
undecodable bytes, no data) goes to the scan, which reads it or names
the file and line.
"""
from __future__ import annotations

import csv
import os
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, DomainError

#: rows formatted at a time; bounds the strings held in memory
_BLOCK = 8192
#: characters the reader's line check holds at a time
_CHUNK = 1 << 16
#: the whitespace ``loadtxt`` strips around a number and ``float`` does not
_SPACES_LOADTXT_ONLY = "\x1c\x1d\x1e\x1f"


def write_table(out, header, columns) -> None:
    """Write equal-length 1-D columns under the header names; None is
    empty."""
    cols = [None if c is None else np.asarray(c) for c in columns]
    shapes = [c.shape for c in cols if c is not None and c.ndim != 1]
    if shapes:
        raise DimensionMismatch(f"columns of {out} must be 1-D, got shapes {shapes}")
    lengths = {len(c) for c in cols if c is not None}
    if len(lengths) != 1:
        raise DimensionMismatch(f"columns of {out} differ in length: {sorted(lengths)}")
    n = lengths.pop()
    with open(out, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, n, _BLOCK):
            m = min(_BLOCK, n - i)
            cells = [repeat("", m) if c is None else map(repr, c[i : i + m].tolist())
                     for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_columns(path, names) -> dict[str, np.ndarray]:
    """The named columns the header has, in ``names`` order, as floats.

    Rows come from ``csv.reader``, blank lines skipped; cells are read
    by ``float``.  A missing or unreadable cell raises a DomainError
    naming the file and the line of the first bad row.
    """
    fast = _read_fast(path, names)
    return _scan(path, names)[0] if fast is None else fast


def locate_row(path, k: int) -> str:
    """Where row k (from 0) of a file ``read_columns`` read is, for an
    error message: its file line by the scan, or, in a file that cannot
    be read twice such as a pipe, its row number."""
    if os.path.isfile(path):
        return f"line {_scan(path, ())[1][k]}"
    return f"row {k + 1}"


def _where(header, names) -> dict[str, int]:
    header = [c.strip() for c in header]
    return {name: header.index(name) for name in names if name in header}


def _read_fast(path, names):
    """``read_columns`` by one ``np.loadtxt`` call, or None wherever the
    result could differ from ``_scan``'s.  Only a regular file is read,
    since a pipe cannot be read twice."""
    import warnings

    if not os.path.isfile(path):
        return None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or reader.line_num != 1:
                return None
            where = _where(header, names)
            if not where:
                return None
            fh.seek(0)
            n = _plain_lines(fh, csv.field_size_limit())
            if n is None:
                return None
            if n == 1:
                return {name: np.empty(0) for name in where}
            fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(fh, delimiter=",", skiprows=1,
                                    usecols=list(where.values()), quotechar='"',
                                    comments=None, ndmin=2)
    except (csv.Error, ValueError, UserWarning):
        return None
    if len(values) != n - 1:
        return None
    return {name: values[:, j].copy() for j, name in enumerate(where)}


def _plain_lines(fh, limit) -> int | None:
    """The number of lines of ``fh``, or None if a line ends in a bare
    CR or has ``limit`` characters or more, or the text holds a space
    that only ``loadtxt`` strips.

    Reads blocks of ``_CHUNK`` characters, one more after a CR.  A line
    inside a block is then shorter than ``limit``, so only the lines
    that block boundaries cut are measured.
    """
    if limit <= _CHUNK + 1:
        return None
    lines = run = 0
    while block := fh.read(_CHUNK):
        if block[-1] == "\r":
            block += fh.read(1)
        if "\r" in block and block.count("\r") != block.count("\r\n"):
            return None
        if any(c in block for c in _SPACES_LOADTXT_ONLY):
            return None
        first = block.find("\n")
        if first < 0:
            run += len(block)
        else:
            if run + first >= limit:
                return None
            run = len(block) - block.rfind("\n") - 1
            lines += block.count("\n")
        if run >= limit:
            return None
    return lines + (run > 0)


def _scan(path, names) -> tuple[dict[str, np.ndarray], list[int]]:
    """``read_columns`` by ``csv.reader`` and ``float``, row by row, and
    the file line where each row starts."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DomainError(f"{path}: empty file")
            where = _where(header, names)
            cols = {name: [] for name in where}
            lines = []
            end = reader.line_num
            for row in reader:
                # a quoted cell may span lines: a row starts after the last one ended
                line, end = end + 1, reader.line_num
                if not row:
                    continue
                lines.append(line)
                for name, c in where.items():
                    cell = row[c] if c < len(row) else ""
                    try:
                        cols[name].append(float(cell))
                    except ValueError:
                        raise DomainError(
                            f"{path}: line {line}: cannot read {cell!r} as a number"
                        ) from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: {exc}") from None
    return {name: np.array(v, dtype=float) for name, v in cols.items()}, lines
