"""Closed-form comparators: Fisher discriminant analysis and PCA.

The FDA here is the zero-regularization limit of the transport-based
objective: every coupling collapses to the uniform one, so the between and
within covariances become plain all-pairs difference covariances

    C^{c,c'} = 1/(n_c n_{c'}) sum_ij (x_i^c - x_j^{c'})(x_i^c - x_j^{c'})^T

and the ratio is maximized by the top generalized eigenvectors of
C_w^{-1} C_b. A class paired with itself gives C^{c,c} = 2 S_c, with S_c its
mean-centered covariance, so C_w = 2 sum_c S_c is exactly twice the
classical within-class scatter (each class normalized by its own size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, require_finite, require_integer
from .errors import DegenerateInputError, InvalidInputError
from .objective import uniform_pair_covariances

_RIDGE = 1e-10


@dataclass(frozen=True)
class FdaModel:
    """Discriminant directions as rows (unit norm) with descending eigenvalues."""

    projection: np.ndarray   # (p, d)
    eigenvalues: np.ndarray  # (p,) descending, >= 0


def uniform_coupling_covariances(classes) -> tuple[np.ndarray, np.ndarray]:
    """Between/within covariances under uniform couplings, (C_b, C_w): the
    sums of :func:`~wda.objective.uniform_pair_covariances` over the between
    pairs (c < c') and the within pairs (c = c')."""
    pairs = uniform_pair_covariances(classes)
    zero = np.zeros_like(pairs[(0, 0)])
    cb = sum((C for (c, cp), C in pairs.items() if c != cp), zero)
    cw = sum((C for (c, cp), C in pairs.items() if c == cp), zero)
    return cb, cw


def fda_fit(data: LabeledDataset, p: int) -> FdaModel:
    """Top-p generalized eigenvectors of C_w^{-1} C_b from uniform couplings.

    A ridge of ``_RIDGE * tr(C_w)/d``, with _RIDGE = 1e-10, is added to C_w
    before the symmetric-definite eigendecomposition; data whose within
    matrix stays singular beyond that is rejected. With the Cholesky factor
    C_w = L L^T the problem becomes the ordinary symmetric eigenproblem of
    L^{-1} C_b L^{-T}, whose eigenvectors y map back as x = L^{-T} y.
    Raises InvalidInputError naming the first non-finite sample, or for a p
    that is not an integer in [1, d].
    """
    require_finite("samples", data.samples)
    blocks = data.class_blocks()
    if len(blocks) < 2:
        raise DegenerateInputError(f"need at least 2 classes, got {len(blocks)}")
    d = data.n_features
    if not 1 <= require_integer("p", p) <= d:
        raise InvalidInputError(f"p must lie in [1, {d}], got {p}")
    cb, cw = uniform_coupling_covariances(blocks)
    trace_w = float(np.trace(cw))
    if trace_w <= 0.0:
        raise DegenerateInputError("within-class covariance is zero")
    cw_ridged = cw + (_RIDGE * trace_w / d) * np.eye(d)
    try:
        chol = np.linalg.cholesky(cw_ridged)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInputError(
            f"within-class covariance is singular beyond the ridge: {exc}"
        ) from exc
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, cb).T)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (whitened + whitened.T))
    eigvecs = np.linalg.solve(chol.T, eigvecs)
    order = np.argsort(eigvals)[::-1][:p]
    values = np.maximum(eigvals[order], 0.0)
    vectors = eigvecs[:, order].T
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return FdaModel(vectors, values)
