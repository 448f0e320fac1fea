"""KNN classification in the projected space and grid experiment protocols.

The protocols mirror the standard benchmark loop: per seed, build train/test
data, fit each subspace method at each (p, lambda) cell, project both sides,
and record the KNN test error for each k. Failed cells are recorded (NaN in
the error tensor) instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, stiefel
from .datasets import LabeledDataset, append_noise, gen_toy, load_csv, split_dataset
from .errors import InvalidInputError, WdaError
from .ioutil import FLOAT_FMT, atomic_write_text
from .objective import WdaConfig

KNOWN_METHODS = ("wda", "pca", "fda", "identity")


# distance entries per block of test rows: knn_predict holds a few
# (block, n_train) arrays at a time, so this caps its working memory
_KNN_BLOCK_ENTRIES = 1 << 16


def knn_predict(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote over the k Euclidean-nearest training rows.

    Deterministic tie handling: neighbor sets are ordered by (distance,
    training index); label ties are broken by the smaller summed neighbor
    distance, then by the smaller label.

    Test rows are processed in blocks of about ``_KNN_BLOCK_ENTRIES //
    n_train`` rows (at least one). Per block, one (block, n_train) matrix of
    squared distances ``|a|^2 - 2 a.b + |b|^2`` between training rows a and
    test rows b (clamped at 0) is formed. The k-th smallest distance t of
    each row is found by selection (``np.partition``), not by sorting; the
    neighbor set is every entry below t plus the first entries equal to t in
    training-index order, which is exactly the first k entries of the
    (distance, index) order. Counts and summed distances per class are then
    two matrix products with a one-hot label matrix. Working memory is a few
    arrays of at most ``max(_KNN_BLOCK_ENTRIES, n_train)`` entries (0.5 MB
    each for float arrays up to n_train = 65536), whatever the number of test
    rows.

    Raises InvalidInputError for an empty training set, mismatched shapes, a
    non-finite feature value or k outside [1, n_train].
    """
    train_X, train_y, test_X = _knn_inputs(train_X, train_y, test_X)
    _check_k(k, train_X.shape[0])
    return _knn_vote(train_X, train_y, test_X, [k])[0]


def _knn_inputs(train_X, train_y, test_X):
    """The KNN inputs as arrays, after the checks knn_predict documents."""
    train_X = np.asarray(train_X, dtype=float)
    test_X = np.asarray(test_X, dtype=float)
    train_y = np.asarray(train_y)
    if train_X.shape[0] == 0:
        raise InvalidInputError("empty training set")
    if train_X.ndim != 2 or test_X.ndim != 2 or train_X.shape[1] != test_X.shape[1]:
        raise InvalidInputError(
            f"feature dimensions differ: train {train_X.shape} vs test {test_X.shape}"
        )
    if train_y.shape != train_X.shape[:1]:
        raise InvalidInputError(
            f"labels shape {train_y.shape} does not match {train_X.shape[0]} training rows"
        )
    for name, X in (("train_X", train_X), ("test_X", test_X)):
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            row, col = bad[0]
            raise InvalidInputError(
                f"{name} has a non-finite value at row {row}, column {col}"
            )
    return train_X, train_y, test_X


def _check_k(k: int, n_train: int) -> None:
    if not 1 <= k <= n_train:
        raise InvalidInputError(f"k must lie in [1, {n_train}], got {k}")


def _knn_vote(train_X, train_y, test_X, ks) -> list[np.ndarray]:
    """knn_predict for every k in ``ks`` from one distance matrix per block.

    The inputs must have passed :func:`_knn_inputs` and every k
    :func:`_check_k`.
    """
    classes, codes = np.unique(train_y, return_inverse=True)
    one_hot = (codes[:, None] == np.arange(classes.size)).astype(float)
    sq_train = np.einsum("ij,ij->i", train_X, train_X)
    predictions = [np.empty(test_X.shape[0], dtype=train_y.dtype) for _ in ks]
    block = max(1, _KNN_BLOCK_ENTRIES // train_X.shape[0])
    k_max = max(ks)
    for start in range(0, test_X.shape[0], block):
        x = test_X[start:start + block]
        dist = sq_train - 2.0 * (x @ train_X.T) + np.einsum("ij,ij->i", x, x)[:, None]
        np.maximum(dist, 0.0, out=dist)
        # column j holds each row's (j+1)-th smallest distance
        kth = np.sort(np.partition(dist, k_max - 1, axis=1)[:, :k_max], axis=1)
        for pred, k in zip(predictions, ks):
            t = kth[:, k - 1:k]
            near = dist < t
            tie = dist == t
            need = k - near.sum(axis=1)
            # rows with more ties at t than places left keep the lowest indices
            rows = np.flatnonzero(tie.sum(axis=1) > need)
            tie[rows] &= np.cumsum(tie[rows], axis=1) <= need[rows, None]
            near |= tie
            counts = near @ one_hot
            sums = np.where(near, dist, 0.0) @ one_hot
            best = counts == counts.max(axis=1, keepdims=True)
            sums[~best] = np.inf
            best &= sums == sums.min(axis=1, keepdims=True)
            pred[start:start + block] = classes[best.argmax(axis=1)]
    return predictions


def error_rate(predicted, truth) -> float:
    """Fraction of mismatches between two equally long label sequences."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise InvalidInputError(
            f"length mismatch: {predicted.shape} vs {truth.shape}"
        )
    return float(np.mean(predicted != truth))


@dataclass(frozen=True)
class ToyDataSpec:
    """Regenerate toy train/test sets per seed (independent draws)."""

    n_train_per_class: int = 34
    n_test_per_class: int = 334
    extra_noise_dims: int = 0


@dataclass(frozen=True)
class CsvDataSpec:
    """Load a CSV once and re-split it per seed."""

    path: str
    train_fraction: float = 0.5
    extra_noise_dims: int = 0


def _make_data(spec, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    child = np.random.default_rng(seed).integers(2**63, size=4)
    if isinstance(spec, ToyDataSpec):
        train = gen_toy(spec.n_train_per_class, int(child[0]))
        test = gen_toy(spec.n_test_per_class, int(child[1]))
    elif isinstance(spec, CsvDataSpec):
        data = load_csv(spec.path)
        train, test = split_dataset(data, spec.train_fraction, int(child[0]))
    else:
        raise InvalidInputError(f"unknown data spec {type(spec).__name__}")
    if spec.extra_noise_dims:
        train = append_noise(train, spec.extra_noise_dims, int(child[2]))
        test = append_noise(test, spec.extra_noise_dims, int(child[3]))
    return train, test


def _fit_projection(
    method: str,
    train: LabeledDataset,
    p: int,
    lam: float,
    wda_config: WdaConfig,
) -> np.ndarray | None:
    """Return the (p, d) projection for a method, or None for identity."""
    if method == "identity":
        return None
    if method == "pca":
        return stiefel.pca_init(train.samples.T, p)
    if method == "fda":
        return baselines.fda_fit(train, p).projection
    if method == "wda":
        cfg = replace(wda_config, dim=p, lam=lam)
        projection, _ = stiefel.wda_fit(train, cfg)
        return projection
    raise InvalidInputError(f"unknown method {method!r}; known: {KNOWN_METHODS}")


@dataclass
class ExperimentResult:
    """Error tensor over (method, seed, p, lambda, k) plus failed-cell records."""

    methods: list[str]
    seeds: list[int]
    ps: list[int]
    lams: list[float]
    ks: list[int]
    errors: np.ndarray  # (n_methods, n_seeds, n_ps, n_lams, n_ks); NaN = failed cell
    failures: list[dict] = field(default_factory=list)

    def mean_errors(self) -> np.ndarray:
        """Mean over seeds, shape (n_methods, n_ps, n_lams, n_ks); NaN-aware.

        A cell whose every seed failed is NaN.
        """
        return self._over_seeds(np.nanmean)

    def std_errors(self) -> np.ndarray:
        return self._over_seeds(np.nanstd)

    def _over_seeds(self, reduce) -> np.ndarray:
        # fully failed cells are reduced over zeros and reset to NaN, so the
        # reduction never sees an empty slice and the other cells keep the
        # exact values of reducing self.errors directly
        failed = np.isnan(self.errors).all(axis=1)
        result = reduce(np.where(failed[:, None], 0.0, self.errors), axis=1)
        result[failed] = np.nan
        return result

    def long_rows(self):
        """Yield one dict per cell in fixed order: seed, k, p, lambda, method, error."""
        for mi, method in enumerate(self.methods):
            for si, seed in enumerate(self.seeds):
                for pi, p in enumerate(self.ps):
                    for li, lam in enumerate(self.lams):
                        for ki, k in enumerate(self.ks):
                            yield {
                                "seed": seed,
                                "k": k,
                                "p": p,
                                "lambda": lam,
                                "method": method,
                                "error": self.errors[mi, si, pi, li, ki],
                            }

    def summary_json(self) -> dict:
        mean = self.mean_errors()
        std = self.std_errors()
        cells = []
        for mi, method in enumerate(self.methods):
            for pi, p in enumerate(self.ps):
                for li, lam in enumerate(self.lams):
                    for ki, k in enumerate(self.ks):
                        cells.append(
                            {
                                "method": method,
                                "p": p,
                                "lambda": lam,
                                "k": k,
                                "mean_error": float(mean[mi, pi, li, ki]),
                                "std_error": float(std[mi, pi, li, ki]),
                            }
                        )
        return {
            "methods": self.methods,
            "seeds": self.seeds,
            "ps": self.ps,
            "lambdas": self.lams,
            "ks": self.ks,
            "cells": cells,
            "failures": self.failures,
        }


def run_protocol(
    data_spec,
    methods,
    ks,
    ps,
    lams,
    n_seeds: int,
    base_seed: int = 0,
    wda_config: WdaConfig | None = None,
) -> ExperimentResult:
    """Sweep (method, seed, p, lambda, k) and collect KNN test errors.

    Per seed the data is regenerated (or re-split), each method is fit per
    (p, lambda) cell, and every k reuses that fit and the cell's test-train
    distances. Cells whose fit or prediction raises a package error are
    recorded in ``failures`` and left NaN (an invalid k fails only its own
    column); unexpected exceptions propagate.
    """
    methods = list(methods)
    ks = [int(k) for k in ks]
    ps = [int(p) for p in ps]
    lams = [float(l) for l in lams]
    if not methods or not ks or not ps or not lams or n_seeds < 1:
        raise InvalidInputError("empty experiment grid")
    for method in methods:
        if method not in KNOWN_METHODS:
            raise InvalidInputError(f"unknown method {method!r}; known: {KNOWN_METHODS}")
    wda_config = wda_config if wda_config is not None else WdaConfig()
    seeds = [base_seed + s for s in range(n_seeds)]
    errors = np.full((len(methods), len(seeds), len(ps), len(lams), len(ks)), np.nan)
    failures: list[dict] = []

    def record_failure(method, seed, p, lam, k, exc):
        failures.append(
            {
                "method": method,
                "seed": seed,
                "p": p,
                "lambda": lam,
                "k": k,
                "error": str(exc),
            }
        )

    for si, seed in enumerate(seeds):
        train, test = _make_data(data_spec, seed)
        for mi, method in enumerate(methods):
            for pi, p in enumerate(ps):
                for li, lam in enumerate(lams):
                    try:
                        projection = _fit_projection(method, train, p, lam, wda_config)
                    except WdaError as exc:
                        record_failure(method, seed, p, lam, None, exc)
                        continue
                    if projection is None:
                        train_Z, test_Z = train.samples, test.samples
                    else:
                        train_Z = train.samples @ projection.T
                        test_Z = test.samples @ projection.T
                    try:
                        train_Z, labels, test_Z = _knn_inputs(train_Z, train.labels, test_Z)
                    except WdaError as exc:
                        for k in ks:
                            record_failure(method, seed, p, lam, k, exc)
                        continue
                    valid = []
                    for ki, k in enumerate(ks):
                        try:
                            _check_k(k, train_Z.shape[0])
                            valid.append(ki)
                        except InvalidInputError as exc:
                            record_failure(method, seed, p, lam, k, exc)
                    if not valid:
                        continue
                    preds = _knn_vote(train_Z, labels, test_Z, [ks[ki] for ki in valid])
                    for ki, pred in zip(valid, preds):
                        errors[mi, si, pi, li, ki] = error_rate(pred, test.labels)
    return ExperimentResult(methods, seeds, ps, lams, ks, errors, failures)


def experiment_to_csv(result: ExperimentResult, path: str) -> None:
    """Long-format dump: seed,k,p,lambda,method,error (one row per cell)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["seed", "k", "p", "lambda", "method", "error"])
    for row in result.long_rows():
        writer.writerow(
            [
                row["seed"],
                row["k"],
                row["p"],
                FLOAT_FMT % row["lambda"],
                row["method"],
                "" if np.isnan(row["error"]) else FLOAT_FMT % row["error"],
            ]
        )
    atomic_write_text(path, buffer.getvalue())
