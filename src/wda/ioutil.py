"""Small file helpers: atomic writes, JSON output, dense matrix CSV round
trips, and the table reader and the fault walk behind
:func:`wda.datasets.load_csv`, which the matrix reader shares.

Matrix CSV files are plain dense row-major tables of numbers, one matrix row
per line. All writes go through a temp file + rename so partial outputs are
never left behind.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import BinaryIO, Callable

import numpy as np

from .errors import InvalidInputError, ParseError

# 17 significant digits round-trips any finite double exactly
FLOAT_FMT = "%.17g"


def _is_number(cell: str) -> bool:
    """Whether ``float()`` takes the string."""
    try:
        float(cell)
        return True
    except ValueError:
        return False


def require_finite(name: str, X: np.ndarray) -> None:
    """Raise InvalidInputError naming the first non-finite entry of a 2-d array."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise InvalidInputError(f"{name} has a non-finite value at row {row}, column {col}")


def atomic_write_text(path: str, text: str | Callable[[BinaryIO], object]) -> None:
    """Write ``text`` to ``path`` atomically (temp file in the same directory +
    rename). A callable in place of ``text`` is given the temp file, opened
    in binary mode, to write into. On any error the temp file is removed and
    the error raised, so ``path`` is either replaced whole or left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        if isinstance(text, str):
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        else:
            with os.fdopen(fd, "wb") as fh:
                text(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as indented JSON, atomically; NaN or infinity raises ValueError."""
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


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
    """Save a 2-d array as a dense CSV table (row-major, full double precision);
    a non-finite entry, which :func:`load_matrix_csv` refuses, is refused."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ParseError(f"expected a 2-d matrix, got array of dimension {matrix.ndim}")
    require_finite("matrix", matrix)
    atomic_write_text(path, "\n".join(_csv_lines(matrix)) + "\n")


def _read_table(fh) -> np.ndarray | None:
    """The rest of the open text file ``fh`` as a 2-d float array, read by one
    ``np.loadtxt`` call (numpy's C tokenizer and parser); None when that call
    refuses the text or finds no rows.

    Lines end at "\\n", "\\r\\n" or "\\r", cells are split at "," (a cell
    opening with a double quote may hold commas and line breaks), no line is
    a comment, and a line with no characters is skipped. Each cell is stripped
    of what ``str.strip()`` removes and parsed as ``float()`` parses it, so a
    table it returns is bit-identical to a cell-by-cell read. Some valid text
    is refused: a line of whitespace or of empty cells, ``1_000`` or non-ASCII
    digits; callers read those with their cell walk. Text that does not decode
    is refused too (``UnicodeDecodeError`` is a ``ValueError``).
    """
    with warnings.catch_warnings():
        # no rows is None here, not numpy's "input contained no data" warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(
                fh, dtype=float, delimiter=",", comments=None, quotechar='"', ndmin=2
            )
        except ValueError:
            return None
    return table if table.size else None


def _undecodable(path: str, exc: UnicodeDecodeError) -> ParseError:
    """The refusal of a file that is not text in the encoding it was read in.

    No position is given: ``exc.start`` counts from the start of the
    decoder's buffer, not from the start of the file.
    """
    return ParseError(f"{path}: not valid {exc.encoding} text: {exc.reason}")


# labels are stored as int64: a float label converts exactly within [-2**63, 2**63)
_LABEL_MIN = -(2.0**63)
_LABEL_END = 2.0**63


def _raise_first_fault(path: str, linenos, rows, width: int, label_col: int | None = None) -> None:
    """Raise the ParseError of the first faulty row of string cells, in file
    order: a row of the wrong width, a cell that is not a number, or, when
    ``label_col`` is given, a label that is not an integer within int64
    (checked after the row's other cells). Returns if there is none."""
    feature_cols = [j for j in range(width) if j != label_col]
    for lineno, row in zip(linenos, rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        for j in feature_cols:
            cell = row[j].strip()
            if not _is_number(cell):
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cell!r}"
                )
        if label_col is None:
            continue
        cell = row[label_col].strip()
        where = f"{path}: line {lineno}, column {label_col + 1}"
        if not _is_number(cell):
            raise ParseError(f"{where}: label is not a number: {cell!r}")
        value = float(cell)
        if not value.is_integer():
            raise ParseError(f"{where}: label must be an integer, got {cell!r}")
        if not _LABEL_MIN <= value < _LABEL_END:
            raise ParseError(f"{where}: label must be an integer within int64, got {cell!r}")


def load_matrix_csv(path: str) -> np.ndarray:
    """Load a dense CSV table written by :func:`save_matrix_csv`.

    Raises :class:`ParseError` naming the path for a file that is not text,
    the path and line of a row of the wrong width, and the line and column of
    the first cell that is not a number or not finite ("nan", "inf", or one
    that overflows). Cells are split at every comma (no quoting); blank lines
    and surrounding whitespace are ignored. The first width or number fault
    in file order is named by the cell walk of :func:`wda.datasets.load_csv`.
    """
    with open(path) as fh:
        try:
            numbered = [(i, line.split(",")) for i, line in enumerate(fh, start=1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    if not numbered:
        raise ParseError(f"{path}: no data rows")
    linenos, rows = zip(*numbered)
    _raise_first_fault(path, linenos, rows, len(rows[0]))
    # str.strip() removes the separators \x1c-\x1f at a cell's ends, float() keeps them
    matrix = np.array([[cell.strip() for cell in row] for row in rows], dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, j = bad[0]
        raise ParseError(
            f"{path}: line {linenos[r]}, column {j + 1}: "
            f"not a finite number: {float(matrix[r, j])}"
        )
    return matrix
