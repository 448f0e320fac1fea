"""Entropic optimal transport between point clouds: cost matrices, Sinkhorn
scaling with a fixed iteration budget, its reverse-mode derivative, and the
regularized transport cost.

Samples are stored column-wise: a cloud of n points in dimension d is a
(d, n) array. The solver always runs the requested number of iterations and
keeps the full scaling history, because :func:`sinkhorn_vjp` differentiates
the iteration map itself rather than the converged plan. Early feasibility
is reported but never used to truncate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalRangeError
from .ioutil import matrix_to_json, save_matrix_csv

# denominator clamp for the scaling updates; keeps u, v finite when the
# kernel has extremely small entries
_TINY = 1e-300


def cost_matrix(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the columns of X and Z.

    Returns the (n, m) matrix with entry (i, j) equal to ||x_i - z_j||^2.
    When ``Z is X`` (self-transport) the result is symmetrized exactly and
    the diagonal is set to zero.
    """
    same = Z is X
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim != 2 or Z.ndim != 2:
        raise InvalidInputError("sample matrices must be 2-d with one column per sample")
    if X.shape[0] != Z.shape[0]:
        raise InvalidInputError(
            f"feature dimensions differ: {X.shape[0]} vs {Z.shape[0]}"
        )
    sq_x = np.einsum("ij,ij->j", X, X)
    sq_z = np.einsum("ij,ij->j", Z, Z)
    M = sq_x[:, None] + sq_z[None, :] - 2.0 * (X.T @ Z)
    np.maximum(M, 0.0, out=M)
    if same:
        M = 0.5 * (M + M.T)
        np.fill_diagonal(M, 0.0)
    return M


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with uniform marginals 1/n and 1/m."""

    weights: np.ndarray       # (n, m)
    row_marginal: np.ndarray  # (n,) uniform 1/n
    col_marginal: np.ndarray  # (m,) uniform 1/m

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def feasibility_residual(self) -> float:
        """Infinity-norm violation of the two marginal constraints."""
        row = self.weights.sum(axis=1) - self.row_marginal
        col = self.weights.sum(axis=0) - self.col_marginal
        return float(max(np.abs(row).max(), np.abs(col).max()))


@dataclass(frozen=True)
class SinkhornTrace:
    """Everything needed to replay (and differentiate) a fixed-L Sinkhorn run.

    ``u_history[k]`` is the left scaling after k iterations (``u_history[0]``
    is the all-ones initialization), ``v_history[k-1]`` the right scaling of
    iteration k. ``residual`` is the infinity-norm marginal violation of the
    final plan; ``converged_at`` the first iteration at which it dropped
    below the requested tolerance, or None if it never did.
    """

    kernel: np.ndarray     # (n, m), K = exp(-lam * M)
    u_history: np.ndarray  # (L+1, n)
    v_history: np.ndarray  # (L, m)
    lam: float
    iterations: int
    residual: float
    converged_at: int | None

    def plan_weights(self) -> np.ndarray:
        """Reconstruct diag(u_L) K diag(v_L)."""
        u = self.u_history[-1]
        v = self.v_history[-1]
        return u[:, None] * self.kernel * v[None, :]


def sinkhorn_plan(
    M: np.ndarray,
    lam: float,
    iterations: int,
    tol: float = 1e-9,
) -> tuple[TransportPlan, SinkhornTrace]:
    """Run exactly ``iterations`` Sinkhorn scaling steps on kernel exp(-lam*M).

    Parameters
    ----------
    M : (n, m) array
        Ground cost matrix (finite, typically squared Euclidean distances).
    lam : float
        Regularization strength, > 0. Larger values concentrate the plan on
        low-cost pairs; lam -> 0 gives the uniform coupling.
    iterations : int
        Fixed number of scaling iterations L >= 1. All L iterations always
        execute; the fixed-L map is the object later differentiated.
    tol : float
        Feasibility tolerance used only for reporting ``converged_at``.

    Returns
    -------
    (TransportPlan, SinkhornTrace)
        The plan diag(u_L) K diag(v_L) and the full scaling history.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError("cost matrix must be 2-d")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("cost matrix must be finite")
    if not lam > 0:
        raise InvalidInputError(f"lam must be positive, got {lam}")
    if iterations < 1:
        raise InvalidInputError(f"iterations must be >= 1, got {iterations}")

    n, m = M.shape
    K = np.exp(-lam * M)
    if (K.max(axis=1) < _TINY).any() or (K.max(axis=0) < _TINY).any():
        raise NumericalRangeError(
            "kernel row underflow: lam * max(M) = "
            f"{lam * float(M.max()):.6g} pushes exp(-lam*M) below {_TINY:g}; "
            "rescale the regularization"
        )

    row_target = np.full(n, 1.0 / n)
    col_target = np.full(m, 1.0 / m)
    u = np.ones(n)
    u_history = np.empty((iterations + 1, n))
    v_history = np.empty((iterations, m))
    u_history[0] = u
    residual = np.inf
    converged_at = None
    for k in range(1, iterations + 1):
        v = col_target / np.maximum(K.T @ u, _TINY)
        u = row_target / np.maximum(K @ v, _TINY)
        v_history[k - 1] = v
        u_history[k] = u
        row = u * (K @ v)
        col = v * (K.T @ u)
        residual = float(
            max(np.abs(row - row_target).max(), np.abs(col - col_target).max())
        )
        if converged_at is None and residual <= tol:
            converged_at = k

    weights = u[:, None] * K * v[None, :]
    plan = TransportPlan(weights, row_target, col_target)
    trace = SinkhornTrace(K, u_history, v_history, float(lam), iterations, residual, converged_at)
    return plan, trace


def sinkhorn_vjp(trace: SinkhornTrace, W: np.ndarray) -> np.ndarray:
    """Reverse-mode derivative of <W, T(M)> w.r.t. the cost matrix M.

    Replays the recorded iterations of :func:`sinkhorn_plan` backwards, from
    T = diag(u_L) K diag(v_L) down to u_0, accumulating the cotangent of the
    kernel K; dK/dM = -lam * K then gives the (n, m) result. The derivative
    passes straight through the ``_TINY`` denominator clamp. Linear in W;
    costs O(L n m) time and O(n m + L (n + m)) memory.
    """
    W = np.asarray(W, dtype=float)
    K = trace.kernel
    if W.shape != K.shape:
        raise InvalidInputError(
            f"cotangent shape {W.shape} does not match kernel shape {K.shape}"
        )
    n, m = K.shape
    L = trace.iterations
    U = trace.u_history
    V = trace.v_history
    WK = W * K
    u_bar = WK @ V[-1]
    v_bar = WK.T @ U[-1]  # only v_L feeds T directly
    r_bars = np.empty((L, n))
    s_bars = np.empty((L, m))
    for k in range(L, 0, -1):
        # u_k = (1/n) / r_k with r_k = K v_k, so du_k/dr_k = -u_k / r_k
        r_bars[k - 1] = -u_bar * U[k] / np.maximum(K @ V[k - 1], _TINY)
        v_bar = v_bar + K.T @ r_bars[k - 1]
        # v_k = (1/m) / s_k with s_k = K^T u_{k-1}, so dv_k/ds_k = -v_k / s_k
        s_bars[k - 1] = -v_bar * V[k - 1] / np.maximum(K.T @ U[k - 1], _TINY)
        u_bar = K @ s_bars[k - 1]
        v_bar = 0.0
    K_bar = W * np.outer(U[-1], V[-1]) + r_bars.T @ V + U[:-1].T @ s_bars
    return -trace.lam * K * K_bar


def symmetric_scaling(trace: SinkhornTrace) -> np.ndarray:
    """Symmetric scaling vector w with T = diag(w) K diag(w).

    Only meaningful for self-transport (square symmetric kernel) once the
    plan has converged, where the left/right scalings agree up to a constant
    and w = sqrt(u * v).
    """
    n, m = trace.kernel.shape
    if n != m:
        raise InvalidInputError("symmetric scaling requires a square kernel")
    return np.sqrt(trace.u_history[-1] * trace.v_history[-1])


def regularized_distance(plan: TransportPlan | np.ndarray, M: np.ndarray) -> float:
    """Transport cost <T, M> (Frobenius inner product of plan and cost)."""
    T = plan.weights if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)
    M = np.asarray(M, dtype=float)
    if T.shape != M.shape:
        raise InvalidInputError(f"plan shape {T.shape} does not match cost shape {M.shape}")
    return float(np.sum(T * M))


def plan_to_csv(plan: TransportPlan, path: str) -> None:
    """Dump the coupling weights as a dense row-major CSV table."""
    save_matrix_csv(plan.weights, path)


def plan_to_json(plan: TransportPlan) -> dict:
    payload = matrix_to_json(plan.weights)
    payload["row_marginal"] = plan.row_marginal.tolist()
    payload["col_marginal"] = plan.col_marginal.tolist()
    payload["feasibility_residual"] = plan.feasibility_residual()
    return payload


def trace_to_json(trace: SinkhornTrace) -> dict:
    return {
        "kernel": matrix_to_json(trace.kernel),
        "u_history": matrix_to_json(trace.u_history),
        "v_history": matrix_to_json(trace.v_history),
        "lambda": trace.lam,
        "iterations": trace.iterations,
        "residual": trace.residual,
        "converged_at": trace.converged_at,
    }
