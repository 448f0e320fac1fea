"""Closed-form comparators: Fisher discriminant analysis and PCA.

The FDA here is the zero-regularization limit of the transport-based
objective: every coupling is uniform, so a class pair's difference
covariance is S_c + S_c' + g g^T, with S_c the covariance of class c and g
the gap between the two class means. Summed over the pairs of C classes,

    C_w = 2 sum_c S_c,    C_b = (C - 1) sum_c S_c + Gamma Gamma^T,

with one gap column in Gamma per between pair (c < c'), and the ratio is
maximized by the top generalized eigenvectors of C_w^{-1} C_b. C_w is twice
the classical within-class scatter (each class normalized by its own size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, require_finite, require_integer
from .errors import DegenerateInputError, InvalidInputError, NumericalRangeError
from .objective import _class_moments

_RIDGE = 1e-10


@dataclass(frozen=True)
class FdaModel:
    """Discriminant directions as rows (unit norm) with descending eigenvalues."""

    projection: np.ndarray   # (p, d)
    eigenvalues: np.ndarray  # (p,) descending, >= 0


def uniform_coupling_covariances(classes) -> tuple[np.ndarray, np.ndarray]:
    """Between/within covariances under uniform couplings, (C_b, C_w), in the
    closed forms above, with sum_c S_c accumulated over one pass of class
    moments; refuses blocks as :func:`~wda.objective.evaluate` does. On
    features so large that the sums overflow, they hold inf or nan, without
    a numpy warning (:func:`fda_fit` refuses them)."""
    origins, means, total = [], [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for origin, mean, S in _class_moments(classes):
            origins.append(origin)
            means.append(mean)
            total += S  # the first class's S is copied, the rest summed in place
        rows, cols = np.triu_indices(len(origins), 1)
        O, m = np.hstack(origins), np.hstack(means)
        gaps = (O[:, rows] - O[:, cols]) + (m[:, rows] - m[:, cols])
        cw = 2.0 * total
        total *= len(origins) - 1
        total += gaps @ gaps.T
    return total, cw


def fda_fit(data: LabeledDataset, p: int) -> FdaModel:
    """Top-p generalized eigenvectors of C_w^{-1} C_b from uniform couplings.

    A ridge of ``_RIDGE * tr(C_w)/d``, with _RIDGE = 1e-10, is added to C_w
    before the symmetric-definite eigendecomposition; data whose within
    matrix stays singular beyond that is rejected. With the Cholesky factor
    C_w = L L^T the problem becomes the ordinary symmetric eigenproblem of
    L^{-1} C_b L^{-T}, whose eigenvectors y map back as x = L^{-T} y: L is
    inverted once, and only the p kept eigenvectors are mapped back.

    With C classes, C_b = (C - 1)/2 C_w + Gamma Gamma^T, so C_w^{-1} C_b is
    (C - 1)/2 I plus a term of rank at most C - 1: every eigenvalue past the
    first C - 1 is (C - 1)/2 (less a ridge-sized amount), and for p >= C the
    directions past the first C - 1 are an arbitrary basis of that flat
    eigenspace, which a rounding change can rotate.
    Raises InvalidInputError naming the first non-finite sample, or for a p
    that is not an integer in [1, d], and NumericalRangeError when C_b or
    C_w (or the trace of C_w) overflows, on finite features too large for
    their squares (about 1e154 and above): rescale the features.
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
    if not (np.isfinite(cb).all() and np.isfinite(cw).all() and np.isfinite(trace_w)):
        raise NumericalRangeError(
            "the between or within class covariance overflows; rescale the features"
        )
    if trace_w <= 0.0:
        raise DegenerateInputError("within-class covariance is zero")
    cw_ridged = cw + (_RIDGE * trace_w / d) * np.eye(d)
    try:
        chol = np.linalg.cholesky(cw_ridged)
    except np.linalg.LinAlgError as exc:
        raise DegenerateInputError(
            f"within-class covariance is singular beyond the ridge: {exc}"
        ) from exc
    chol_inv = np.linalg.inv(chol)
    whitened = chol_inv @ cb @ chol_inv.T
    eigvals, eigvecs = np.linalg.eigh(0.5 * (whitened + whitened.T))
    order = np.argsort(eigvals)[::-1][:p]
    values = np.maximum(eigvals[order], 0.0)
    vectors = eigvecs[:, order].T @ chol_inv  # x^T = y^T L^{-1}, kept y only
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return FdaModel(vectors, values)
