"""Small file helpers: atomic writes, JSON output and dense matrix CSV round trips.

Matrix CSV files are plain dense row-major tables of numbers, one matrix row
per line. All writes go through a temp file + rename so partial outputs are
never left behind.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ParseError

# 17 significant digits round-trips any finite double exactly
FLOAT_FMT = "%.17g"


def _is_number(cell: str) -> bool:
    """Whether ``float()`` takes the string."""
    try:
        float(cell)
        return True
    except ValueError:
        return False


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file in the same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _csv_lines(matrix: np.ndarray, labels: np.ndarray | None = None) -> list[str]:
    """One CSV line per row of a 2-d float array, each cell as ``FLOAT_FMT``,
    with ``labels`` (if given) appended to each row as a ``%d`` column.

    Each line is formatted by a single ``%`` operation over the whole row.
    """
    fmt = ",".join([FLOAT_FMT] * matrix.shape[1])
    if labels is None:
        return [fmt % tuple(row) for row in matrix.tolist()]
    fmt += ",%d"
    return [fmt % (*row, label) for row, label in zip(matrix.tolist(), labels.tolist())]


def save_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Save a 2-d array as a dense CSV table (row-major, full double precision)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ParseError(f"expected a 2-d matrix, got array of dimension {matrix.ndim}")
    atomic_write_text(path, "\n".join(_csv_lines(matrix)) + "\n")


def load_matrix_csv(path: str) -> np.ndarray:
    """Load a dense CSV table written by :func:`save_matrix_csv`.

    Raises :class:`ParseError` naming the path and line of a row of the
    wrong width, and the line and column of the first cell that is not a
    number or not finite ("nan", "inf", or one that overflows).
    """
    rows = []
    linenos = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                j = next(j for j, cell in enumerate(cells) if not _is_number(cell))
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cells[j].strip()!r}"
                ) from None
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, j = bad[0]
        raise ParseError(
            f"{path}: line {linenos[r]}, column {j + 1}: "
            f"not a finite number: {float(matrix[r, j])}"
        )
    return matrix
