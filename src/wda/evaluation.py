"""KNN classification in the projected space and grid experiment protocols.

The protocols mirror the standard benchmark loop: per seed, build train/test
data, fit each subspace method at each (p, lambda) cell, project both sides,
and record the KNN test error for each k. Failed cells are recorded (NaN in
the error tensor) instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, stiefel
from .datasets import (
    LabeledDataset,
    append_noise,
    gen_toy,
    load_csv,
    require_finite,
    require_integer,
    require_number,
    require_seed,
    split_dataset,
)
from .errors import InvalidInputError, WdaError
from .ioutil import FLOAT_FMT, atomic_write_text
from .objective import WdaConfig

KNOWN_METHODS = ("wda", "pca", "fda", "identity")


# distance entries per block of test rows: knn_predict holds one
# (block, n_train) array, so this caps its working memory
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
    test rows b (clamped at 0) is formed, and each row's neighbours are
    walked in (distance, training index) order: k times, the row's least
    remaining entry (the lowest index among equal ones, ``argmin``) adds one
    vote and its distance to its class's tallies and is set to inf. Working
    memory is that one array of at most ``max(_KNN_BLOCK_ENTRIES, n_train)``
    entries (0.5 MB up to n_train = 65536), allocated once per call and
    rewritten by every block, plus per-class tallies of the block's rows,
    whatever the number of test rows. The walk makes one pass over the block
    per neighbour, so its time grows in proportion to k (to the largest k
    when several are voted at once): at small k it costs a few passes, and
    at k in the tens or more it takes most of the call.

    Raises InvalidInputError for an empty training set, mismatched shapes, a
    non-finite feature value, k outside [1, n_train], or features so large
    (above about 1e154) that a squared distance overflows.
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
    require_finite("train_X", train_X)
    require_finite("test_X", test_X)
    return train_X, train_y, test_X


def _check_k(k: int, n_train: int) -> None:
    if not 1 <= require_integer("k", k) <= n_train:
        raise InvalidInputError(f"k must lie in [1, {n_train}], got {k}")


def _knn_vote(train_X, train_y, test_X, ks) -> list[np.ndarray]:
    """knn_predict for every k in ``ks``, from one walk over each block of
    test rows. The inputs must have passed :func:`_knn_inputs` and every k
    :func:`_check_k`."""
    classes, codes = np.unique(train_y, return_inverse=True)
    sq_train = np.einsum("ij,ij->i", train_X, train_X)
    predictions = [np.empty(test_X.shape[0], dtype=train_y.dtype) for _ in ks]
    block = max(1, _KNN_BLOCK_ENTRIES // train_X.shape[0])
    # every block writes into this, the last one into its leading rows
    dist_buf = np.empty((min(block, test_X.shape[0]), train_X.shape[0]))
    for start in range(0, test_X.shape[0], block):
        x = test_X[start:start + block]
        dist = dist_buf[:len(x)]
        # |t|^2 - 2 x.t + |x|^2, bit for bit, as in-place steps
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(x, train_X.T, out=dist)
            dist *= -2.0
            dist += sq_train
            dist += np.einsum("ij,ij->i", x, x)[:, None]
        if not (np.isfinite(dist.min()) and np.isfinite(dist.max())):
            raise InvalidInputError(
                "squared distances between test and training rows overflow; "
                "rescale the features"
            )
        np.maximum(dist, 0.0, out=dist)
        voted = _walk(dist, codes, classes.size, ks)
        for pred, k in zip(predictions, ks):
            pred[start:start + len(x)] = classes[voted[k]]
    return predictions


def _walk(dist, codes, n_classes: int, ks) -> dict[int, np.ndarray]:
    """The class code each row of ``dist``, squared distances to training
    rows of class ``codes``, votes for at each k in ``ks``: most votes, then
    least summed distance, then least code. Overwrites each row's first
    max(ks) neighbours with inf. Its own function so that a block's walk
    arrays are freed before the next block's distances are formed."""
    rows = np.arange(dist.shape[0])
    # votes and summed distances of the neighbours so far, flat (class, row)
    counts, sums = np.zeros((2, n_classes * len(rows)))
    flat, row_at = dist.reshape(-1), rows * dist.shape[1]
    voted = {}
    for step in range(1, max(ks) + 1):
        # the lowest index among the least distances: the row's next
        # neighbour in (distance, index) order
        j = dist.argmin(axis=1)
        at, cell = row_at + j, codes[j] * len(rows) + rows
        counts[cell] += 1.0
        sums[cell] += flat[at]
        flat[at] = np.inf
        if step in ks:
            votes = counts.reshape(n_classes, -1)
            tied = np.where(votes == votes.max(axis=0), sums.reshape(votes.shape), np.inf)
            voted[step] = tied.argmin(axis=0)
    return voted


def error_rate(predicted, truth) -> float:
    """Fraction of mismatches between two equally long, non-empty label sequences."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise InvalidInputError(
            f"length mismatch: {predicted.shape} vs {truth.shape}"
        )
    if predicted.size == 0:
        raise InvalidInputError("no labels to compare")
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


def _make_data(spec, seed: int, loaded) -> tuple[LabeledDataset, LabeledDataset]:
    """Train and test sets of one seed; ``loaded`` is the dataset of a
    CsvDataSpec, read once per protocol."""
    child = np.random.default_rng(seed).integers(2**63, size=4)
    if isinstance(spec, ToyDataSpec):
        train = gen_toy(spec.n_train_per_class, int(child[0]))
        test = gen_toy(spec.n_test_per_class, int(child[1]))
    else:
        train, test = split_dataset(loaded, spec.train_fraction, int(child[0]))
    if spec.extra_noise_dims:
        train = append_noise(train, spec.extra_noise_dims, int(child[2]))
        test = append_noise(test, spec.extra_noise_dims, int(child[3]))
    return train, test


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

    def summary_json(self) -> dict:
        """The sweep as JSON; a cell whose every seed failed has null errors."""
        mean, std = (np.where(np.isnan(errors), None, errors)
                     for errors in (self.mean_errors(), self.std_errors()))
        cells = [
            {"method": self.methods[mi], "p": self.ps[pi], "lambda": self.lams[li],
             "k": self.ks[ki], "mean_error": mean[mi, pi, li, ki],
             "std_error": std[mi, pi, li, ki]}
            for mi, pi, li, ki in np.ndindex(mean.shape)
        ]
        return {
            "methods": self.methods,
            "seeds": self.seeds,
            "ps": self.ps,
            "lambdas": self.lams,
            "ks": self.ks,
            "cells": cells,
            "failures": self.failures,
        }


def _fit_wda(draws, p: int, lams, wda_config: WdaConfig, starts: dict) -> dict:
    """The wda projection, or the error that refused it, of every (seed
    index, lambda index) cell of ``draws`` at dimension p, from the PCA start
    of each seed in ``starts`` (or its error). The fits run in lockstep, in
    stacks of at most ``_STACK_BYTES`` of state arrays, each bit-identical to
    its own :func:`~wda.stiefel.wda_fit`."""
    found, fits = {}, {}
    for si, train, _ in draws:
        start = None if isinstance(starts[si], WdaError) else starts[si]
        for li, lam in enumerate(lams):
            try:
                fits[si, li] = stiefel._start_fit(
                    train, replace(wda_config, dim=p, lam=lam), start=start
                )
            except WdaError as exc:
                found[si, li] = exc
    running = list(fits.values())
    size = stiefel._stack_size(running[0]) if running else 1
    for first in range(0, len(running), size):
        stiefel._fit_lockstep(running[first:first + size])
    for cell, fit in fits.items():
        found[cell] = fit.error if fit.error is not None else fit.best[1]
    return found


def _seeds_held(train, test, n_lams: int, L: int, p: int) -> int:
    """How many seeds' draws like (train, test) a sweep holds at once: as
    many as fit, with their wda states at every lambda (L Sinkhorn
    iterations, dimension at most p), in a lockstep stack's
    ``_STACK_BYTES``, and at least one."""
    states = n_lams * stiefel._state_bytes(np.bincount(train.labels).tolist(), L, p)
    return max(1, stiefel._STACK_BYTES // (states + train.samples.nbytes + test.samples.nbytes))


def _vote_cell(fitted, train, test, ks):
    """Vote every k of one cell in the space of its fit: ``fitted`` is the
    (p, d) projection, None for identity, or the WdaError that refused it.

    Returns the test error per k (NaN where it failed) and the failures as
    (k, exception) pairs in the order they occurred; k is None for a failed
    fit, which fails every k.
    """
    row = np.full(len(ks), np.nan)
    failed = []
    if isinstance(fitted, WdaError):
        return row, [(None, fitted)]
    if fitted is None:
        train_Z, test_Z = train.samples, test.samples
    else:
        train_Z = train.samples @ fitted.T
        test_Z = test.samples @ fitted.T
    try:
        train_Z, labels, test_Z = _knn_inputs(train_Z, train.labels, test_Z)
    except WdaError as exc:
        return row, [(k, exc) for k in ks]
    valid = []
    for ki, k in enumerate(ks):
        try:
            _check_k(k, train_Z.shape[0])
            valid.append(ki)
        except InvalidInputError as exc:
            failed.append((k, exc))
    if not valid:
        return row, failed
    try:
        preds = _knn_vote(train_Z, labels, test_Z, [ks[ki] for ki in valid])
    except WdaError as exc:
        return row, failed + [(ks[ki], exc) for ki in valid]
    for ki, pred in zip(valid, preds):
        row[ki] = error_rate(pred, test.labels)
    return row, failed


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
    distances. Only wda reads lambda: pca, fda and identity are fit and voted
    once per (seed, p), and their errors and failures are repeated for every
    lambda, in the order a fit per lambda would record them. The PCA start
    is computed once per (seed, p): it is the pca cell's projection and the
    start of every wda fit there. The wda fits of one p, every seed and
    every lambda, run in lockstep (``wda.stiefel._fit_lockstep``), in
    stacks whose state arrays total at most ``stiefel._STACK_BYTES``, and
    the draws of as many seeds are held at once as fit in that budget with
    their fits' states (at least one); each fit equals its own
    :func:`~wda.stiefel.wda_fit` bit for bit, and a refused fit fails only
    its own cell while the others go on. Cells whose fit or prediction
    raises a package error are recorded in ``failures``, in (seed, method,
    p, lambda, k) order, and left NaN (an invalid k fails only its own
    column); unexpected exceptions propagate. A ``ks`` or ``ps`` entry,
    ``n_seeds`` or ``base_seed`` that is not an integer, and a ``lams``
    entry that is not a positive finite number, raise InvalidInputError
    before any cell runs.
    """
    methods = list(methods)
    ks = [require_integer("each k", k) for k in ks]
    ps = [require_integer("each p", p) for p in ps]
    lams = [require_number("each lambda", lam) for lam in lams]
    if not methods or not ks or not ps or not lams or require_integer("n_seeds", n_seeds) < 1:
        raise InvalidInputError("empty experiment grid")
    for method in methods:
        if method not in KNOWN_METHODS:
            raise InvalidInputError(f"unknown method {method!r}; known: {KNOWN_METHODS}")
    for lam in lams:
        if not 0 < lam < math.inf:
            raise InvalidInputError(f"each lambda must be positive and finite, got {lam}")
    if not isinstance(data_spec, (ToyDataSpec, CsvDataSpec)):
        raise InvalidInputError(f"unknown data spec {type(data_spec).__name__}")
    require_seed(base_seed, "base_seed")
    loaded = load_csv(data_spec.path) if isinstance(data_spec, CsvDataSpec) else None
    wda_config = wda_config if wda_config is not None else WdaConfig()
    seeds = [base_seed + s for s in range(n_seeds)]

    cells = {}  # (seed, method, p, lambda) index -> (errors, failures)
    drawn = {0: _make_data(data_spec, seeds[0], loaded)}
    held = 1
    if "wda" in methods:
        held = _seeds_held(*drawn[0], len(lams), wda_config.sinkhorn_iters, max(ps))
    for first in range(0, len(seeds), held):
        draws = [
            (si, *(drawn.pop(si) if si in drawn else _make_data(data_spec, seeds[si], loaded)))
            for si in range(first, min(first + held, len(seeds)))
        ]
        for pi, p in enumerate(ps):
            starts = {}  # each draw's PCA start, or the error that refused it
            if "pca" in methods or "wda" in methods:
                for si, train, _ in draws:
                    try:
                        starts[si] = stiefel.pca_init(train.samples.T, p)
                    except WdaError as exc:
                        starts[si] = exc
            wda = _fit_wda(draws, p, lams, wda_config, starts) if "wda" in methods else {}
            for si, train, test in draws:
                for mi, method in enumerate(methods):
                    if method == "wda":
                        for li in range(len(lams)):
                            cells[si, mi, pi, li] = _vote_cell(wda[si, li], train, test, ks)
                        continue
                    # only wda reads lambda: the other methods fit once per p
                    fitted = starts[si] if method == "pca" else None
                    if method == "fda":
                        try:
                            fitted = baselines.fda_fit(train, p).projection
                        except WdaError as exc:
                            fitted = exc
                    cell = _vote_cell(fitted, train, test, ks)
                    for li in range(len(lams)):
                        cells[si, mi, pi, li] = cell
        del draws, train, test  # the next seeds' draws are made without these

    errors = np.full((len(methods), len(seeds), len(ps), len(lams), len(ks)), np.nan)
    failures: list[dict] = []
    for si, mi, pi, li in np.ndindex(len(seeds), len(methods), len(ps), len(lams)):
        row, failed = cells[si, mi, pi, li]
        errors[mi, si, pi, li] = row
        failures.extend(
            {"method": methods[mi], "seed": seeds[si], "p": ps[pi], "lambda": lams[li],
             "k": k, "error": str(exc)}
            for k, exc in failed
        )
    return ExperimentResult(methods, seeds, ps, lams, ks, errors, failures)


def experiment_to_csv(result: ExperimentResult, path: str) -> None:
    """Long-format dump: seed,k,p,lambda,method,error, one row per cell of
    the error tensor in its (method, seed, p, lambda, k) order; a failed
    cell has an empty error."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["seed", "k", "p", "lambda", "method", "error"])
    for mi, si, pi, li, ki in np.ndindex(result.errors.shape):
        error = result.errors[mi, si, pi, li, ki]
        writer.writerow([result.seeds[si], result.ks[ki], result.ps[pi],
                         FLOAT_FMT % result.lams[li], result.methods[mi],
                         "" if np.isnan(error) else FLOAT_FMT % error])
    atomic_write_text(path, buffer.getvalue())
