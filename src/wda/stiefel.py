"""Outer optimization over matrices with orthonormal rows.

Projected gradient ascent with Armijo backtracking: ascend the ratio
objective, project each trial point back onto the manifold via the polar
factor, and stop on relative objective stagnation. The search direction is
D = proj(P + G) - P, the classic projected-gradient direction, which reduces
to the tangential gradient for small steps.

The linesearch is fixed: each outer iteration tries the steps
a0 * _STEP_SHRINK**k for k = 0 .. _MAX_BACKTRACKS and accepts the first one
whose objective gain is at least _STEP_C1 * step * <G, D> (the Armijo
condition). If none is accepted, the fit stops as "stalled". The first
iteration starts at a0 = _STEP_INIT; every later one starts from the last
accepted step, grown once: a0 = min(_STEP_INIT, previous / _STEP_SHRINK)
(Nocedal & Wright, Numerical Optimization, 3.5). Once the accepted steps
settle far below _STEP_INIT, an iteration no longer evaluates and discards
every larger step first; while they stay at 1/2 or above, the trials are
those of a fixed start at _STEP_INIT.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import LabeledDataset, require_finite, require_integer
from .errors import DegenerateInputError, InvalidInputError
from .objective import PairKey, WdaConfig, adaptive_lambdas, evaluate, gradient, pair_json

_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_STEP_C1 = 1e-4
_MAX_BACKTRACKS = 30


def project_stiefel(A: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal rows in Frobenius norm (polar factor).

    For A = U S V^T (thin SVD) the projection is U V^T. A must have full row
    rank, otherwise the projection is not unique. Raises InvalidInputError
    naming the first non-finite entry of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] > A.shape[1]:
        raise InvalidInputError(
            f"expected a p x d matrix with p <= d, got shape {A.shape}"
        )
    # the matrix is scanned for a non-finite entry only once the SVD fails
    # (a NaN) or gives NaN singular values (an inf), so a fit adds no pass
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError:
        require_finite("matrix", A)
        raise
    if not (s[0] > 0.0 and s[-1] > 1e-13 * s[0]):
        require_finite("matrix", A)
        raise DegenerateInputError("matrix is rank deficient; polar factor undefined")
    return U @ Vt


def pca_init(X: np.ndarray, p: int) -> np.ndarray:
    """Top-p principal directions of column samples, as orthonormal rows.

    X is (d, n) with one column per sample. Rows of the result are the
    leading eigenvectors of the centered sample covariance; each row is sign
    fixed so its largest-magnitude entry is positive. Raises
    InvalidInputError naming the first non-finite entry of X, or for a p
    that is not an integer in [1, d].
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("X must be 2-d with one column per sample")
    require_finite("X", X)
    d, n = X.shape
    if n < 2:
        raise InvalidInputError("need at least 2 samples for PCA")
    if not 1 <= require_integer("p", p) <= d:
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


def pca_start(data: LabeledDataset, p: int, lam: float) -> tuple[np.ndarray, dict[PairKey, float]]:
    """The PCA start at dimension p, and the per-pair lambda map fixed there:
    the map of every fit of ``data`` at (p, lam), whatever its ``init``, and
    of ``wda dump-transport --adaptive-lambda``, whatever its projection."""
    P0 = pca_init(data.samples.T, p)
    return P0, adaptive_lambdas(P0, data.class_blocks(), lam)


def riemannian_gradient(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Tangential component of an ambient gradient at a point with P P^T = I."""
    GPt = G @ P.T
    return G - 0.5 * (GPt + GPt.T) @ P


@dataclass
class FitReport:
    """Trajectory of one fit: objective values, steps, norms, timing, stop reason.

    ``gradient_norms``, ``evaluations`` and ``iteration_seconds`` hold one
    entry per outer iteration run, the stopping one included:
    ``gradient_norms`` the Frobenius norm of the Riemannian gradient at the
    iterate, ``evaluations`` the objective evaluations of the linesearch (0
    for a "stationary" iteration, which tries no step). ``step_sizes`` and
    ``objective_values[1:]`` hold one entry per accepted step.

    The fields are the record: :meth:`to_json` (``fit_report.json``) writes
    each under its name, in this order, with ``pair_lambdas`` keyed "c,cp".
    """

    objective_values: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    gradient_norms: list[float] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    iteration_seconds: list[float] = field(default_factory=list)
    termination: str = "max_iterations"
    n_iterations: int = 0
    best_objective: float = float("nan")
    best_iteration: int = 0
    pair_lambdas: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {**asdict(self), "pair_lambdas": pair_json(self.pair_lambdas)}


def wda_fit(
    data: LabeledDataset,
    cfg: WdaConfig,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Learn a discriminant projection by projected gradient ascent.

    Runs: per-pair regularization fixed at the PCA start (:func:`pca_start`)
    whatever ``init`` is, then from ``init`` (else the PCA start) iterate
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

    P, lambdas = pca_start(data, cfg.dim, cfg.lam)
    if init is not None:
        P = np.asarray(init, dtype=float)
        if P.shape != (cfg.dim, d):
            raise InvalidInputError(
                f"init shape {P.shape} does not match ({cfg.dim}, {d})"
            )
        require_finite("init", P)
        if np.abs(P @ P.T - np.eye(cfg.dim)).max() > 1e-8:
            raise InvalidInputError("init must have orthonormal rows")

    report = FitReport(pair_lambdas=dict(lambdas))

    state = evaluate(P, blocks, cfg, lambdas)
    report.objective_values.append(state.value)
    best_value, best_P, best_iter = state.value, P, 0
    alpha0 = _STEP_INIT

    for it in range(1, cfg.max_outer_iter + 1):
        t0 = time.perf_counter()
        G = gradient(state)
        report.gradient_norms.append(float(np.linalg.norm(riemannian_gradient(P, G))))
        D = project_stiefel(P + G) - P
        slope = float(np.sum(G * D))
        if np.linalg.norm(D) <= 1e-14 * max(1.0, np.linalg.norm(P)) or slope <= 0.0:
            report.termination = "stationary"
            report.evaluations.append(0)
            report.iteration_seconds.append(time.perf_counter() - t0)
            break

        # from here on only state.value is read: the first trial writes its
        # arrays into the state's, and a rejected trial hands its on; the
        # state's validated blocks and lambda map are not scanned again
        alpha = alpha0
        accepted = None
        spare = state
        for trial in range(1, _MAX_BACKTRACKS + 2):
            P_try = project_stiefel(P + alpha * D)
            s_try = evaluate(P_try, spare.classes, cfg, spare.pair_lambdas, out=spare)
            if s_try.value >= state.value + _STEP_C1 * alpha * slope:
                accepted = (P_try, s_try)
                break
            spare = s_try
            alpha *= _STEP_SHRINK
        # the state an accepted trial replaced, or a rejected trial's, would
        # otherwise hold its histories and factors through the next gradient
        del spare
        report.evaluations.append(trial)
        report.iteration_seconds.append(time.perf_counter() - t0)
        if accepted is None:
            report.termination = "stalled"
            break

        previous = state.value
        P, state = accepted
        report.n_iterations = it
        report.step_sizes.append(alpha)
        alpha0 = min(_STEP_INIT, alpha / _STEP_SHRINK)
        report.objective_values.append(state.value)
        if state.value > best_value:
            best_value, best_P, best_iter = state.value, P, it
        if (state.value - previous) / max(abs(previous), 1e-300) < cfg.outer_tol:
            report.termination = "converged"
            break

    report.best_objective = best_value
    report.best_iteration = best_iter
    return best_P, report
