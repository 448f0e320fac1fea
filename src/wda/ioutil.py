"""Small file helpers: atomic writes, JSON output, dense matrix CSV round
trips, and the table reader and the cell parse behind
:func:`wda.datasets.load_csv`, which the matrix reader shares.

Matrix CSV files are plain dense row-major tables of numbers, one matrix row
per line. All writes go through a temp file + rename so partial outputs are
never left behind, and CSV rows are streamed in bounded chunks.
"""

from __future__ import annotations

import io
import json
import os
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


# O_EXCL: the name is new, so no other file is written through; O_BINARY
# (Windows only): bytes go to the file untranslated, as tempfile's do
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
# names to try before giving up, as tempfile.mkstemp does
_TEMP_ATTEMPTS = 10000


def atomic_write_text(path: str, text: str | Callable[[BinaryIO], object]) -> None:
    """Write ``text`` to ``path`` atomically (temp file in the same directory +
    rename). A callable in place of ``text`` is given the temp file, opened
    in binary mode, to write into. On any error the temp file is removed and
    the error raised, so ``path`` is either replaced whole or left as it was.

    The temp file is created with mode 0o666, which the kernel reduces by the
    umask as it does for ``open(path, "w")``, and the rename keeps that mode:
    under umask 022 a written file is ``-rw-r--r--``, under 077
    ``-rw-------``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    for _ in range(_TEMP_ATTEMPTS):
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
        try:
            fd = os.open(tmp, _TEMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no unused temp file name in {directory}")
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


# the cells formatted by one ``%``: about 0.35 MB of text and 1.1 MB held
# per chunk. save_csv of 10,002 x 2, 10,002 x 10 and 1,000 x 785 samples
# took 23, 91 and 706 ms at this size, against 27, 96 and 926 ms at 1,024
# cells and 25, 94 and 698 ms at 65,536, which holds 4.4 MB (medians of 9,
# one shared 2-vCPU machine)
_CHUNK_CELLS = 16384


def _write_csv(path: str, matrix: np.ndarray, labels: np.ndarray | None = None,
               header: str | None = None) -> None:
    """Write ``header`` (if given) and one CSV line per row of the 2-d float
    array ``matrix`` to ``path``, atomically, each cell as ``FLOAT_FMT``,
    with ``labels`` (if given) appended to each row as a ``%d`` column. A
    row must have a cell: without labels, ``matrix`` a column.

    The rows are streamed in chunks of ``_CHUNK_CELLS`` cells (one row at
    least), each formatted by a single ``%`` over the row format repeated
    and the chunk's values in file order, so the writer holds one chunk of
    values and text, not the whole file's. The text goes through the layer
    ``open(path, "w")`` builds, as a string given to
    :func:`atomic_write_text` does: the locale's encoding, and "\\n"
    written as ``os.linesep``.
    """
    n, d = matrix.shape
    width = d if labels is None else d + 1
    line = ",".join([FLOAT_FMT] * d) + ("\n" if labels is None else ",%d\n")
    step = max(1, _CHUNK_CELLS // width)

    def write(fh):
        with io.TextIOWrapper(fh) as text:
            if header is not None:
                text.write(header + "\n")
            for start in range(0, n, step):
                block = matrix[start:start + step]
                values = block.ravel().tolist()
                if labels is not None:
                    cells = [None] * (len(block) * width)
                    for j in range(d):
                        cells[j::width] = values[j::d]
                    cells[d::width] = labels[start:start + step].tolist()
                    values = cells
                text.write(line * len(block) % tuple(values))

    atomic_write_text(path, write)


def save_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Save a 2-d array as a dense CSV table (row-major, full double
    precision), streamed in bounded chunks: the writer holds about 1 MB
    beyond the array, whatever its size.

    Refused with InvalidInputError before anything is written: an array that
    is not 2-d, and what :func:`load_matrix_csv` refuses, a matrix of no
    rows or no columns, naming its shape, and a non-finite entry, naming its
    row and column.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got array of dimension {matrix.ndim}")
    if not matrix.size:
        empty = "columns" if matrix.shape[0] else "rows"
        raise InvalidInputError(f"matrix of shape {matrix.shape} has no {empty}")
    require_finite("matrix", matrix)
    _write_csv(path, matrix)


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


def _parse_cells(path: str, linenos, rows, width: int, label_col: int | None = None) -> np.ndarray:
    """The rows of string cells as a 2-d float table. Raises the ParseError
    of the first fault in file order: a row of the wrong width, a cell that
    is not a number or, when ``label_col`` is given, a label that is not an
    integer within int64 (checked after the row's other cells); when there
    is none, of the first non-finite cell, quoted as its text."""
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
    # every cell is a number once stripped: float() keeps the separators
    # \x1c-\x1f at the ends of a cell, str.strip() removes them
    table = np.array([[cell.strip() for cell in row] for row in rows], dtype=float)
    # a label that passed the walk is finite, so this finds a feature cell
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        r, j = bad[0]
        raise ParseError(
            f"{path}: line {linenos[r]}, column {j + 1}: "
            f"not a finite number: {rows[r][j].strip()!r}"
        )
    return table


def load_matrix_csv(path: str) -> np.ndarray:
    """Load a dense CSV table written by :func:`save_matrix_csv`.

    Raises :class:`ParseError` naming the path for a file that is not text,
    the path and line of a row of the wrong width, and the line and column of
    the first cell that is not a number, or, when there is none, the first
    that is not finite ("nan", "inf", or one that overflows, quoted as its
    text). Cells are split at every comma (no quoting); blank lines and
    surrounding whitespace are ignored. The cells are parsed by the step that
    ends the cell walk of :func:`wda.datasets.load_csv`.
    """
    with open(path) as fh:
        try:
            numbered = [(i, line.split(",")) for i, line in enumerate(fh, start=1) if line.strip()]
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None
    if not numbered:
        raise ParseError(f"{path}: no data rows")
    linenos, rows = zip(*numbered)
    return _parse_cells(path, linenos, rows, len(rows[0]))
