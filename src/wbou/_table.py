"""CSV tables: the one writer and the one reader of wbou's files.

A header line of column names, then one line per row: floats by ``repr``
(they read back bit for bit), ints by ``str``, a missing column as empty
fields.  This module imports no wbou module but ``errors``, so paths,
svmodel, estimation and cli can all use it without an import cycle.
"""
from __future__ import annotations

import csv
from itertools import repeat

import numpy as np

from .errors import DimensionMismatch, DomainError

#: rows formatted at a time; bounds the strings held in memory
_BLOCK = 8192


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


def read_columns(path, names) -> tuple[dict[str, np.ndarray], list[int]]:
    """The named columns the header has, in ``names`` order, as floats,
    and the file line of each row.

    Rows come from ``csv.reader``, blank lines skipped; cells are read
    by ``float``.  A missing or unreadable cell raises a DomainError
    naming the file and the line of the first bad row.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DomainError(f"{path}: empty file")
            header = [c.strip() for c in header]
            where = {name: header.index(name) for name in names if name in header}
            cols = {name: [] for name in where}
            lines = []
            for line, row in enumerate(reader, start=2):
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
