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
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, ParseError
from .ioutil import FLOAT_FMT, atomic_write_text

RNG_ALGORITHM = "numpy-pcg64"

# toy generator defaults: mode circle radius, per-mode isotropic sigma,
# noise-dimension sigma, number of noise dimensions. Radius and mode sigma
# are calibrated so the signal-plane variance matches the noise variance:
# unsupervised variance ranking then carries no information about the plane,
# while the classes stay separable inside it.
TOY_RADIUS = 1.35
TOY_MODE_SIGMA = 0.3
TOY_NOISE_SIGMA = 1.0
TOY_NOISE_DIMS = 8
TOY_CLASSES = 3


def require_finite(name: str, X: np.ndarray) -> None:
    """Raise InvalidInputError naming the first non-finite entry of a 2-d array."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise InvalidInputError(f"{name} has a non-finite value at row {row}, column {col}")


@dataclass(frozen=True)
class LabeledDataset:
    """Row samples (n, d) plus integer class labels in [0, C)."""

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        labels = np.asarray(self.labels)
        if samples.ndim != 2:
            raise InvalidInputError("samples must be a 2-d array (n, d)")
        if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
            raise InvalidInputError(
                f"labels shape {labels.shape} does not match {samples.shape[0]} samples"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == labels.astype(int)):
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

    def class_counts(self) -> list[int]:
        return [int(np.sum(self.labels == c)) for c in range(self.n_classes)]

    def class_blocks(self) -> list[np.ndarray]:
        """Per-class sample blocks as (d, n_c) arrays, ordered by class id."""
        return [self.samples[self.labels == c].T.copy() for c in range(self.n_classes)]


def gen_toy(
    n_per_class: int,
    seed: int,
    radius: float = TOY_RADIUS,
    mode_sigma: float = TOY_MODE_SIGMA,
    noise_sigma: float = TOY_NOISE_SIGMA,
    noise_dims: int = TOY_NOISE_DIMS,
) -> LabeledDataset:
    """Three-class toy problem with a planted 2-d discriminative plane.

    Class c has two modes at angles 2*pi*c/3 and 2*pi*c/3 + pi on a circle of
    the given radius in dimensions 0-1 (each mode isotropic Gaussian with
    ``mode_sigma``); the remaining ``noise_dims`` dimensions are independent
    Gaussian noise with ``noise_sigma``. Deterministic given the seed.
    """
    if n_per_class < 2:
        raise InvalidInputError(f"n_per_class must be >= 2, got {n_per_class}")
    if noise_dims < 0:
        raise InvalidInputError(f"noise_dims must be >= 0, got {noise_dims}")
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for c in range(TOY_CLASSES):
        angle = 2.0 * np.pi * c / TOY_CLASSES
        centers = radius * np.array(
            [[np.cos(angle), np.sin(angle)],
             [np.cos(angle + np.pi), np.sin(angle + np.pi)]]
        )
        n_first = n_per_class - n_per_class // 2
        mode_of = np.repeat([0, 1], [n_first, n_per_class // 2])
        signal = centers[mode_of] + mode_sigma * rng.standard_normal((n_per_class, 2))
        noise = noise_sigma * rng.standard_normal((n_per_class, noise_dims))
        blocks.append(np.hstack([signal, noise]))
        labels.append(np.full(n_per_class, c, dtype=int))
    names = tuple(f"f{j}" for j in range(2 + noise_dims))
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
    if n_noise < 0:
        raise InvalidInputError(f"n_noise must be >= 0, got {n_noise}")
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
    if not 0.0 < train_fraction < 1.0:
        raise InvalidInputError(
            f"train_fraction must lie in (0, 1), got {train_fraction}"
        )
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

    If ``metadata`` is given it is written alongside as ``<path>.meta.json``.
    """
    names = data.feature_names or tuple(f"f{j}" for j in range(data.n_features))
    lines = [",".join(names) + ",label"]
    for x, y in zip(data.samples, data.labels):
        lines.append(",".join(FLOAT_FMT % v for v in x) + f",{int(y)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    if metadata is not None:
        atomic_write_text(path + ".meta.json", json.dumps(metadata, indent=2) + "\n")


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str) -> LabeledDataset:
    """Load a dataset CSV: numeric feature columns plus one integer label column.

    The label column is the one named "label" when a header is present,
    otherwise the last column. Raises :class:`ParseError` with the offending
    line and column on malformed input, including a non-finite feature value
    ("nan", "inf", or one that overflows).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [(i + 1, row) for i, row in enumerate(rows) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    header = None
    if not all(_is_number(cell) for cell in rows[0][1]):
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise ParseError(
            f"{path}: need at least one feature column and a label column, got {width}"
        )
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} columns, data has {width}")

    if header is not None and "label" in header:
        label_col = header.index("label")
    else:
        label_col = width - 1
    feature_cols = [j for j in range(width) if j != label_col]

    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=int)
    for r, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        for out_j, j in enumerate(feature_cols):
            cell = row[j].strip()
            try:
                features[r, out_j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cell!r}"
                ) from None
        cell = row[label_col].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column {label_col + 1}: "
                f"label is not a number: {cell!r}"
            ) from None
        if not value.is_integer():
            raise ParseError(
                f"{path}: line {lineno}, column {label_col + 1}: "
                f"label must be an integer, got {cell!r}"
            )
        labels[r] = int(value)

    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, out_j = bad[0]
        lineno, row = rows[r]
        j = feature_cols[out_j]
        raise ParseError(
            f"{path}: line {lineno}, column {j + 1}: not a finite number: {row[j].strip()!r}"
        )

    uniq = np.unique(labels)
    if not np.array_equal(uniq, np.arange(len(uniq))):
        raise ParseError(
            f"{path}: labels must be contiguous integers starting at 0, got {uniq.tolist()}"
        )
    names = None
    if header is not None:
        names = tuple(header[j] for j in feature_cols)
    return LabeledDataset(features, labels, names)
