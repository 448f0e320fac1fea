"""Labeled datasets: the three-class toy generator, noise augmentation,
stratified splits, and CSV round trips.

The toy problem is built to have exactly two discriminative coordinates:
each class is a balanced mixture of two Gaussian modes sitting on a circle
in the first two dimensions (opposite modes belong to the same class, so no
single direction separates a class), and the remaining dimensions are pure
Gaussian noise. All generation flows through a seeded numpy PCG64 generator;
the algorithm id recorded in metadata sidecars is "numpy-pcg64".
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, ParseError
from .ioutil import (
    _LABEL_END, _LABEL_MIN, _is_number, _parse_cells, _read_table, _undecodable,
    _write_csv, atomic_write_text, require_finite, write_json,
)

RNG_ALGORITHM = "numpy-pcg64"

# toy generator settings: mode circle radius, per-mode isotropic sigma,
# noise-dimension sigma, number of noise dimensions. Radius and mode sigma
# are calibrated so the signal-plane variance matches the noise variance:
# unsupervised variance ranking then carries no information about the plane,
# while the classes stay separable inside it.
TOY_RADIUS = 1.35
TOY_MODE_SIGMA = 0.3
TOY_NOISE_SIGMA = 1.0
TOY_NOISE_DIMS = 8
TOY_CLASSES = 3


def require_integer(name: str, value) -> int:
    """``value`` as an int; raise InvalidInputError naming it unless it is an
    integer that is not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_number(name: str, value) -> float:
    """``value`` as a float; raise InvalidInputError naming it unless it is a
    real number that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_seed(seed: int, name: str = "seed") -> None:
    """Raise InvalidInputError for a seed that is not an integer, or is
    negative, which numpy's generators refuse."""
    if require_integer(name, seed) < 0:
        raise InvalidInputError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class LabeledDataset:
    """Row samples (n, d) plus integer class labels in [0, C)."""

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        try:
            samples = np.asarray(self.samples, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError("samples must be numbers") from None
        labels = np.asarray(self.labels)
        if samples.ndim != 2:
            raise InvalidInputError("samples must be a 2-d array (n, d)")
        if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
            raise InvalidInputError(
                f"labels shape {labels.shape} does not match {samples.shape[0]} samples"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            try:
                whole = np.all(labels == labels.astype(int))
            except (TypeError, ValueError):
                whole = False
            if not whole:
                raise InvalidInputError("labels must be integers")
            labels = labels.astype(int)
        if samples.shape[0] < 1:
            raise InvalidInputError("dataset is empty")
        uniq = np.unique(labels)
        if not np.array_equal(uniq, np.arange(len(uniq))):
            raise InvalidInputError(
                f"labels must be contiguous integers starting at 0, got {uniq.tolist()}"
            )
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != samples.shape[1]:
                raise InvalidInputError(
                    f"{len(names)} feature names for {samples.shape[1]} columns"
                )
            # save_csv writes a name as its text, and load_csv strips header
            # cells and reads the first "label" column as the labels, so such
            # a name would not read back
            for name in names:
                if not isinstance(name, str):
                    raise InvalidInputError(f"feature name {name!r} is not a string")
                if name != name.strip():
                    raise InvalidInputError(
                        f"feature name {name!r} has leading or trailing whitespace"
                    )
                if name == "label":
                    raise InvalidInputError("feature name 'label' is the name of the label column")
            object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def class_blocks(self) -> list[np.ndarray]:
        """Per-class sample blocks as read-only (d, n_c) arrays, ordered by
        class id.

        A class whose rows form one contiguous run of ``samples`` gets the
        view ``samples[start:stop].T``, so a fit reads the dataset's own rows
        and holds no copy; later changes to ``samples`` show in that block.
        Every dataset :func:`gen_toy`, :func:`append_noise` and
        :func:`split_dataset` return is contiguous by class, as is a CSV
        sorted by label. A class with interleaved rows gets a copy.
        """
        blocks = []
        for c in range(self.n_classes):
            rows = np.flatnonzero(self.labels == c)
            start, stop = rows[0], rows[-1] + 1
            if stop - start == rows.size:
                block = self.samples[start:stop].T
            else:
                block = self.samples[rows].T
            block.flags.writeable = False
            blocks.append(block)
        return blocks


def gen_toy(n_per_class: int, seed: int) -> LabeledDataset:
    """Three-class toy problem with a planted 2-d discriminative plane.

    Class c has two modes at angles 2*pi*c/3 and 2*pi*c/3 + pi on a circle of
    radius ``TOY_RADIUS`` in dimensions 0-1 (each mode isotropic Gaussian with
    standard deviation ``TOY_MODE_SIGMA``); the remaining ``TOY_NOISE_DIMS``
    dimensions are independent Gaussian noise with ``TOY_NOISE_SIGMA``.
    Deterministic given the seed. Use :func:`append_noise` for wider data.
    """
    if require_integer("n_per_class", n_per_class) < 2:
        raise InvalidInputError(f"n_per_class must be >= 2, got {n_per_class}")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(TOY_CLASSES):
        angle = 2.0 * np.pi * c / TOY_CLASSES
        centers = TOY_RADIUS * np.array(
            [[np.cos(angle), np.sin(angle)],
             [np.cos(angle + np.pi), np.sin(angle + np.pi)]]
        )
        n_first = n_per_class - n_per_class // 2
        mode_of = np.repeat([0, 1], [n_first, n_per_class // 2])
        signal = centers[mode_of] + TOY_MODE_SIGMA * rng.standard_normal((n_per_class, 2))
        noise = TOY_NOISE_SIGMA * rng.standard_normal((n_per_class, TOY_NOISE_DIMS))
        blocks.append(np.hstack([signal, noise]))
        labels.append(np.full(n_per_class, c, dtype=int))
    names = tuple(f"f{j}" for j in range(2 + TOY_NOISE_DIMS))
    return LabeledDataset(np.vstack(blocks), np.concatenate(labels), names)


def toy_metadata(n_per_class: int, seed: int, **params) -> dict:
    """Sidecar metadata describing a gen_toy call."""
    meta = {
        "generator": "toy-three-class",
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "n_per_class": n_per_class,
        "radius": TOY_RADIUS,
        "mode_sigma": TOY_MODE_SIGMA,
        "noise_sigma": TOY_NOISE_SIGMA,
        "noise_dims": TOY_NOISE_DIMS,
    }
    meta.update(params)
    return meta


def append_noise(data: LabeledDataset, n_noise: int, seed: int) -> LabeledDataset:
    """Append ``n_noise`` unit-Gaussian feature columns; labels unchanged."""
    if require_integer("n_noise", n_noise) < 0:
        raise InvalidInputError(f"n_noise must be >= 0, got {n_noise}")
    require_seed(seed)
    if n_noise == 0:
        return replace(data)
    rng = np.random.default_rng(seed)
    extra = rng.standard_normal((data.n_samples, n_noise))
    samples = np.hstack([data.samples, extra])
    names = None
    if data.feature_names is not None:
        names = data.feature_names + tuple(
            f"noise{j}" for j in range(n_noise)
        )
    return LabeledDataset(samples, data.labels.copy(), names)


def split_dataset(
    data: LabeledDataset,
    train_fraction: float,
    seed: int,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/test split, deterministic given the seed.

    Each class contributes round(n_c * train_fraction) samples to the train
    side (clamped so both sides keep at least one sample per class).
    """
    if not 0.0 < require_number("train_fraction", train_fraction) < 1.0:
        raise InvalidInputError(
            f"train_fraction must lie in (0, 1), got {train_fraction}"
        )
    require_seed(seed)
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for c in range(data.n_classes):
        idx = np.flatnonzero(data.labels == c)
        if idx.size < 2:
            raise DegenerateInputError(
                f"class {c} has {idx.size} sample(s); cannot split"
            )
        perm = rng.permutation(idx)
        n_train = int(np.floor(idx.size * train_fraction + 0.5))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    return (
        LabeledDataset(data.samples[train_idx], data.labels[train_idx], data.feature_names),
        LabeledDataset(data.samples[test_idx], data.labels[test_idx], data.feature_names),
    )


def save_csv(data: LabeledDataset, path: str, metadata: dict | None = None) -> None:
    """Write features + label column with full double precision.

    The header is written by ``csv.writer`` with minimal quoting, so a
    feature name holding a comma, a quote or a line break is quoted and
    reads back intact. If ``metadata`` is given it is written alongside as
    ``<path>.meta.json``. What :func:`load_csv` refuses is refused with
    InvalidInputError before anything is written: samples with no feature
    columns, naming their shape, and a non-finite feature value.

    The rows are streamed in chunks of ``ioutil._CHUNK_CELLS`` cells, so the
    writer holds about 1 MB beyond the dataset whatever its size: a
    tracemalloc peak of 1.2 MB for 20,000 x 50 samples (8 MB), where a
    whole-file string would take 7.7 times the samples, about 3.4 GB for a
    70,000 x 785 MNIST CSV.
    """
    if not data.n_features:
        raise InvalidInputError(f"samples of shape {data.samples.shape} have no feature columns")
    require_finite("samples", data.samples)
    names = data.feature_names or tuple(f"f{j}" for j in range(data.n_features))
    header = io.StringIO()
    # the default line terminator "\r\n" makes the writer quote both \r and \n
    csv.writer(header).writerow([*names, "label"])
    _write_csv(path, data.samples, data.labels, header.getvalue().removesuffix("\r\n"))
    if metadata is not None:
        write_json(path + ".meta.json", metadata)


# the smallest dataset CSV, in bytes, whose parse load_csv keeps in a sidecar
_SIDECAR_MIN_BYTES = 1 << 16
# stored with the SHA-256 of the CSV; a sidecar of another format is a miss
_SIDECAR_FORMAT = "wda-csv-1"
# what reading a damaged or foreign sidecar raises, as a fuzz of truncated
# and bit-flipped sidecars found (tests/test_datasets.py)
_SIDECAR_FAULTS = (
    OSError, EOFError, KeyError, ValueError, TypeError, NotImplementedError,
    RuntimeError, zipfile.BadZipFile,
)


def load_csv(path: str) -> LabeledDataset:
    """Load a dataset CSV: numeric feature columns plus one integer label column.

    The label column is the one named "label" when a header is present,
    otherwise the last column. Raises :class:`ParseError` with the offending
    line and column on malformed input, including a label outside int64 and
    a non-finite feature value ("nan", "inf", or one that overflows); with
    the line of a record ``csv.reader`` refuses (a cell over its field size
    limit); with the path alone for a file that is not text; and with the
    path and :class:`LabeledDataset`'s refusal of labels that are not
    contiguous from 0.

    The file's bytes are read once. A file of at least
    ``_SIDECAR_MIN_BYTES`` = 64 KiB keeps its parse in a sidecar,
    ``<path>.wda.npz``: one uncompressed ``np.savez`` file holding the
    samples (float64), the labels (int64), the feature names and the
    SHA-256 of the CSV bytes it was parsed from. A later load of bytes with
    that hash returns the sidecar's arrays once they pass the checks a parse
    applies (finite features; :class:`LabeledDataset`'s label and name
    rules). Any other sidecar -- missing, of other bytes, one that does not
    load or fails a check -- is a miss: the bytes are parsed and the sidecar
    replaced atomically, best effort (a write that fails leaves no file and
    fails nothing). A file that raises ParseError leaves no sidecar.

    A hit costs about 0.45 ms plus 1.5 ms per MB (reading, hashing and
    loading), a parse about 15 ms per MB, so they cross near 20 KB: a
    102-row, 20 KB toy file took 0.49 ms to hit and 0.50 ms to parse. At the
    64 KiB constant a hit takes half a parse (0.54 against 1.05 ms at 61 KB)
    and one hit repays the 0.36 ms a miss adds for its hash and write;
    smaller files are parsed every time and write nothing. The 10,002-row,
    2.0 MB file of the benchmark's CLI session hits in 3.5 ms and parses in
    30 ms (medians, one BLAS thread, shared 2-vCPU machine).

    ``csv.reader`` takes the first non-blank record, a header unless
    ``float()`` takes every cell (a quoted name may span lines). The rest of
    the text, or all of it without a header, goes to one ``np.loadtxt``
    call (``ioutil._read_table``: numpy's C tokenizer and parser), and
    labels and finiteness are checked as array operations. Only when that
    call refuses the text, a label is not an integer within int64 or a
    feature is not finite are the bytes read again with ``csv.reader`` and
    walked cell by cell, then parsed (``ioutil._parse_cells``, the step
    :func:`~wda.ioutil.load_matrix_csv` ends with too): to name the first
    fault in file order, a non-finite feature last, or to read the rare
    valid file the C reader refuses (a line of whitespace or of empty
    cells, ``1_000``).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _SIDECAR_MIN_BYTES:
        return _parse_csv(path, raw)
    import hashlib  # imported here, so that importing wda does not load it

    key = f"{_SIDECAR_FORMAT}:{hashlib.sha256(raw).hexdigest()}"
    sidecar = os.fsdecode(path) + ".wda.npz"
    data = _sidecar_dataset(sidecar, key)
    if data is None:
        data = _parse_csv(path, raw)
        del raw  # the write holds the parsed arrays, not the bytes as well
        _write_sidecar(sidecar, key, data)
    return data


def _sidecar_dataset(sidecar: str, key: str) -> LabeledDataset | None:
    """The dataset the sidecar holds for CSV bytes of ``key``, checked as a
    parse is; None for a sidecar that is missing, holds another key, does
    not load or fails a check."""
    try:
        with np.lib.npyio.NpzFile(sidecar) as stored:
            if stored["key"].tolist() != key:
                return None
            samples, labels = stored["samples"], stored["labels"]
            names = json.loads(stored["names"].tolist())
    except _SIDECAR_FAULTS:
        return None
    if not (
        samples.dtype == np.float64 and samples.ndim == 2 and samples.shape[1] >= 1
        and labels.dtype == np.int64 and np.isfinite(samples).all()
        and (names is None or isinstance(names, list))
    ):
        return None
    try:
        return LabeledDataset(samples, labels, names)
    except InvalidInputError:
        return None


def _write_sidecar(sidecar: str, key: str, data: LabeledDataset) -> None:
    """Replace the sidecar with ``data`` under ``key``, atomically and best
    effort: an OSError leaves no file behind and is dropped."""
    def write(fh):
        np.savez(
            fh, key=np.array(key), names=np.array(json.dumps(data.feature_names)),
            samples=data.samples, labels=data.labels,
        )

    try:
        atomic_write_text(sidecar, write)
    except OSError:
        pass


def _parse_csv(path: str, raw: bytes) -> LabeledDataset:
    """:func:`load_csv` of the file's bytes ``raw``, parsed."""
    with _text(raw) as fh:
        first = next((row for row in _records(path, fh) if any(map(str.strip, row))), None)
        header = _header(first)
        if header is None:
            fh.seek(0)
        table = _read_table(fh)
    if table is not None:
        label_col = _label_column(path, header, table.shape[1])
        label_values = table[:, label_col]
        features = np.delete(table, label_col, axis=1)
        labels_fit = (
            (label_values == np.trunc(label_values))
            & (label_values >= _LABEL_MIN) & (label_values < _LABEL_END)
        )
        if labels_fit.all() and np.isfinite(features).all():
            return _dataset(path, features, label_values, header, label_col)
    return _load_csv_by_cells(path, raw)


def _text(raw: bytes) -> io.TextIOWrapper:
    """The file bytes ``raw`` as ``open(path, newline="")`` reads the file:
    decoded in the same encoding, chunk by chunk."""
    return io.TextIOWrapper(io.BytesIO(raw), newline="")


def _records(path: str, fh):
    """The records ``csv.reader`` reads from the open file ``fh``. A record it
    refuses raises ParseError naming ``path`` and the line, and text that does
    not decode raises ParseError naming ``path``."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _header(record: list[str] | None) -> list[str] | None:
    """The stripped cells of a first record that ``float()`` does not take
    whole; None for a record of numbers or no record."""
    if record is None or all(_is_number(cell) for cell in record):
        return None
    return [cell.strip() for cell in record]


def _label_column(path: str, header: list[str] | None, width: int) -> int:
    """The label column of rows ``width`` cells wide; raises ParseError for
    fewer than two columns or a header of another width."""
    if width < 2:
        raise ParseError(
            f"{path}: need at least one feature column and a label column, got {width}"
        )
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} columns, data has {width}")
    if header is not None and "label" in header:
        return header.index("label")
    return width - 1


def _dataset(path, features, label_values, header, label_col) -> LabeledDataset:
    """The dataset of checked features and integer-valued labels; a refusal
    of :class:`LabeledDataset` (labels not contiguous from 0) is raised as a
    ParseError naming ``path``."""
    names = None
    if header is not None:
        names = tuple(header[:label_col] + header[label_col + 1:])
    try:
        return LabeledDataset(features, label_values.astype(np.int64), names)
    except InvalidInputError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_csv_by_cells(path: str, raw: bytes) -> LabeledDataset:
    """:func:`load_csv` of the file's bytes ``raw``, read with ``csv.reader``
    and walked cell by cell."""
    with _text(raw) as fh:
        numbered = [
            (i, row) for i, row in enumerate(_records(path, fh), start=1)
            if any(map(str.strip, row))
        ]
    if not numbered:
        raise ParseError(f"{path}: no data rows")
    linenos, rows = map(list, zip(*numbered))
    header = _header(rows[0])
    if header is not None:
        del linenos[0], rows[0]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0])
    label_col = _label_column(path, header, width)
    table = _parse_cells(path, linenos, rows, width, label_col)
    features = np.delete(table, label_col, axis=1)
    return _dataset(path, features, table[:, label_col], header, label_col)
