"""Outer optimization over matrices with orthonormal rows.

Projected gradient ascent with Armijo backtracking: ascend the ratio
objective, project each trial point back onto the manifold via the polar
factor, and stop on relative objective stagnation. The search direction is
D = proj(P + G) - P, the classic projected-gradient direction, which reduces
to the tangential gradient for small steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, require_finite
from .errors import DegenerateInputError, InvalidInputError
from .objective import WdaConfig, adaptive_lambdas, evaluate, gradient


def project_stiefel(A: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal rows in Frobenius norm (polar factor).

    For A = U S V^T (thin SVD) the projection is U V^T. A must have full row
    rank, otherwise the projection is not unique.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] > A.shape[1]:
        raise InvalidInputError(
            f"expected a p x d matrix with p <= d, got shape {A.shape}"
        )
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= 1e-13 * s[0]:
        raise DegenerateInputError("matrix is rank deficient; polar factor undefined")
    return U @ Vt


def pca_init(X: np.ndarray, p: int) -> np.ndarray:
    """Top-p principal directions of column samples, as orthonormal rows.

    X is (d, n) with one column per sample. Rows of the result are the
    leading eigenvectors of the centered sample covariance; each row is sign
    fixed so its largest-magnitude entry is positive.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("X must be 2-d with one column per sample")
    d, n = X.shape
    if n < 2:
        raise InvalidInputError("need at least 2 samples for PCA")
    if not 1 <= p <= d:
        raise InvalidInputError(f"p must lie in [1, {d}], got {p}")
    Xc = X - X.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(Xc, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s[0] > 0 else 0
    if p > rank:
        raise DegenerateInputError(
            f"p={p} exceeds the rank {rank} of the centered data"
        )
    P = U[:, :p].T.copy()
    for row in P:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return P


def riemannian_gradient(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Tangential component of an ambient gradient at a point with P P^T = I."""
    GPt = G @ P.T
    return G - 0.5 * (GPt + GPt.T) @ P


@dataclass
class FitReport:
    """Trajectory of one fit: objective values, steps, norms, timing, stop reason."""

    objective_values: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    gradient_norms: list[float] = field(default_factory=list)
    iteration_seconds: list[float] = field(default_factory=list)
    termination: str = "max_iterations"
    n_iterations: int = 0
    best_objective: float = float("nan")
    best_iteration: int = 0
    pair_lambdas: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "objective_values": self.objective_values,
            "step_sizes": self.step_sizes,
            "gradient_norms": self.gradient_norms,
            "iteration_seconds": self.iteration_seconds,
            "termination": self.termination,
            "n_iterations": self.n_iterations,
            "best_objective": self.best_objective,
            "best_iteration": self.best_iteration,
            "pair_lambdas": {f"{c},{cp}": v for (c, cp), v in self.pair_lambdas.items()},
        }


def wda_fit(
    data: LabeledDataset,
    cfg: WdaConfig,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Learn a discriminant projection by projected gradient ascent.

    Runs: PCA initialization (unless ``init`` is given), per-pair
    regularization fixed once at the initial point, then iterate
        G = dJ/dP,  D = proj(P + G) - P,  backtracking on J(proj(P + a D))
    until the relative objective change drops below ``cfg.outer_tol``, the
    direction vanishes, the linesearch stalls, or ``cfg.max_outer_iter`` is
    reached. Returns the best-objective iterate and the fit trajectory.
    Raises InvalidInputError naming the first non-finite sample or init value.
    """
    require_finite("samples", data.samples)
    blocks = data.class_blocks()
    if len(blocks) < 2:
        raise DegenerateInputError(f"need at least 2 classes, got {len(blocks)}")
    counts = [X.shape[1] for X in blocks]
    if min(counts) < 2:
        raise DegenerateInputError(
            f"every class needs at least 2 samples, got counts {counts}"
        )
    d = data.n_features
    if cfg.dim > d:
        raise InvalidInputError(
            f"target dimension {cfg.dim} exceeds feature dimension {d}"
        )

    if init is None:
        P = pca_init(data.samples.T, cfg.dim)
    else:
        P = np.asarray(init, dtype=float)
        if P.shape != (cfg.dim, d):
            raise InvalidInputError(
                f"init shape {P.shape} does not match ({cfg.dim}, {d})"
            )
        require_finite("init", P)
        if np.abs(P @ P.T - np.eye(cfg.dim)).max() > 1e-8:
            raise InvalidInputError("init must have orthonormal rows")

    lambdas = adaptive_lambdas(P, blocks, cfg.lam)
    report = FitReport(pair_lambdas=dict(lambdas))

    state = evaluate(P, blocks, cfg, lambdas)
    report.objective_values.append(state.value)
    best_value, best_P, best_iter = state.value, P, 0

    for it in range(1, cfg.max_outer_iter + 1):
        t0 = time.perf_counter()
        G = gradient(P, blocks, cfg, lambdas, state=state)
        report.gradient_norms.append(float(np.linalg.norm(G)))
        D = project_stiefel(P + G) - P
        slope = float(np.sum(G * D))
        if np.linalg.norm(D) <= 1e-14 * max(1.0, np.linalg.norm(P)) or slope <= 0.0:
            report.termination = "stationary"
            report.iteration_seconds.append(time.perf_counter() - t0)
            break

        alpha = cfg.step_init
        accepted = None
        for _ in range(cfg.max_backtracks + 1):
            P_try = project_stiefel(P + alpha * D)
            s_try = evaluate(P_try, blocks, cfg, lambdas)
            if s_try.value >= state.value + cfg.step_c1 * alpha * slope:
                accepted = (P_try, s_try)
                break
            alpha *= cfg.step_shrink
        report.iteration_seconds.append(time.perf_counter() - t0)
        if accepted is None:
            report.termination = "stalled"
            break

        previous = state.value
        P, state = accepted
        report.n_iterations = it
        report.step_sizes.append(alpha)
        report.objective_values.append(state.value)
        if state.value > best_value:
            best_value, best_P, best_iter = state.value, P, it
        if (state.value - previous) / max(abs(previous), 1e-300) < cfg.outer_tol:
            report.termination = "converged"
            break

    report.best_objective = best_value
    report.best_iteration = best_iter
    return best_P, report
