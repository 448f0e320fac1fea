"""Entropic optimal transport between point clouds: cost matrices, Sinkhorn
scaling with a fixed iteration budget, its reverse-mode derivative, and the
regularized transport cost.

Samples are stored column-wise: a cloud of n points in dimension d is a
(d, n) array. The solver always runs the requested number of iterations and
keeps the full scaling history, because :func:`sinkhorn_vjp` differentiates
the iteration map itself rather than the converged plan. Early feasibility
is reported but never used to truncate.

The iterations exist once, in stacked form. :func:`sinkhorn_batch` runs B
problems of one shape (n, m) as one (B, n, m) iteration, and
:func:`sinkhorn_batch_reverse` runs its reverse pass the same way. With
arrays this small the cost of a step is numpy call overhead, not arithmetic,
so one stacked step costs about what one problem's step did.
:func:`sinkhorn_plan` and :func:`sinkhorn_vjp` are batches of one. A
reverse step takes two stacked matvecs: the derivative of a scaling update
is written with the scaling itself (du/dr = -n u^2), so K v_k and
K^T u_{k-1} are not needed. The (n, m)-sized end of each derivative is
formed one problem at a time, so the reverse pass adds no (n, m) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalRangeError
from .ioutil import save_matrix_csv

# denominator clamp for the scaling updates; keeps u, v finite when the
# kernel has extremely small entries
_TINY = 1e-300


def cost_matrix(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the columns of X and Z.

    Returns the (n, m) matrix with entry (i, j) equal to ||x_i - z_j||^2,
    or the (B, n, m) stack of them for stacks (B, d, n) and (B, d, m). When
    ``Z is X`` (self-transport) the result goes through :func:`self_costs`.
    """
    same = Z is X
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim not in (2, 3) or Z.ndim != X.ndim:
        raise InvalidInputError("sample matrices must be (d, n) arrays or (B, d, n) stacks")
    if X.shape[:-1] != Z.shape[:-1]:
        raise InvalidInputError(f"feature dimensions differ: {X.shape[:-1]} vs {Z.shape[:-1]}")
    sq_x = np.einsum("...ij,...ij->...j", X, X)
    sq_z = np.einsum("...ij,...ij->...j", Z, Z)
    M = np.add(sq_x[..., :, None], sq_z[..., None, :])
    cross = X.swapaxes(-1, -2) @ Z
    cross *= 2.0
    M -= cross
    np.maximum(M, 0.0, out=M)
    return self_costs(M) if same else M


def self_costs(M: np.ndarray) -> np.ndarray:
    """Self-transport costs (or a stack), exactly symmetric with zero diagonal."""
    M = 0.5 * (M + M.swapaxes(-1, -2))
    diag = np.arange(M.shape[-1])
    M[..., diag, diag] = 0.0
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


@dataclass(frozen=True)
class SinkhornBatch:
    """B fixed-L Sinkhorn runs on kernels of one shape (n, m), stacked on axis 0.

    ``traces[b]`` is the b-th run. Its kernel and histories are views of the
    stacks, so the batch holds every array once.
    """

    kernel: np.ndarray     # (B, n, m)
    u_history: np.ndarray  # (B, L+1, n)
    v_history: np.ndarray  # (B, L, m)
    traces: tuple[SinkhornTrace, ...]


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products A[b] @ x[b], as one matmul call."""
    return (A @ x[..., None])[..., 0]


def sinkhorn_kernels(M: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs kernels exp(-lams[b] * M[b]) of a (B, n, m) cost stack, with one
    in-place exp, and the mask of kernels with a whole row or column below
    the scaling clamp: no scaling can match their marginals.
    """
    K = np.multiply(M, -np.asarray(lams, dtype=float)[:, None, None])
    np.exp(K, out=K)
    underflow = (K.max(axis=2) < _TINY).any(axis=1) | (K.max(axis=1) < _TINY).any(axis=1)
    return K, underflow


def kernel_underflow_message(lam: float, M: np.ndarray) -> str:
    """The refusal text for an underflowing kernel exp(-lam * M)."""
    return (
        "kernel row underflow: lam * max(M) = "
        f"{lam * float(M.max()):.6g} pushes exp(-lam*M) below {_TINY:g}; "
        "rescale the regularization"
    )


def sinkhorn_batch(
    K: np.ndarray,
    lams,
    iterations: int,
    tol: float = 1e-9,
) -> SinkhornBatch:
    """Run exactly ``iterations`` Sinkhorn steps on every kernel of a stack.

    ``K`` is a (B, n, m) stack of kernels from :func:`sinkhorn_kernels` and
    ``lams[b]`` the regularization that built ``K[b]``, recorded in its
    trace. The B runs share one loop: each step is two stacked matvecs and a
    few (B, n) or (B, m) vector operations, so the Python and numpy call
    overhead of a step is paid once for the whole stack. Run b is
    bit-identical to running it alone. The stack is kept, not copied.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 3:
        raise InvalidInputError("kernel stack must be 3-d (batch, n, m)")
    if iterations < 1:
        raise InvalidInputError(f"iterations must be >= 1, got {iterations}")
    B, n, m = K.shape
    if len(lams) != B:
        raise InvalidInputError(f"{len(lams)} lambdas for {B} kernels")

    KT = K.transpose(0, 2, 1)
    row_target = 1.0 / n
    col_target = 1.0 / m
    u_history = np.empty((B, iterations + 1, n))
    v_history = np.empty((B, iterations, m))
    u_history[:, 0] = 1.0
    converged_at = np.zeros(B, dtype=int)  # 0: not (yet) converged
    # two matvecs per iteration: r = K v serves the u update and the row
    # marginal, s = K^T u the column marginal and the next v update
    s = _matvec(KT, u_history[:, 0])
    for k in range(1, iterations + 1):
        v = col_target / np.maximum(s, _TINY)
        r = _matvec(K, v)
        u = row_target / np.maximum(r, _TINY)
        s = _matvec(KT, u)
        v_history[:, k - 1] = v
        u_history[:, k] = u
        residual = np.maximum(
            np.abs(u * r - row_target).max(axis=1),
            np.abs(v * s - col_target).max(axis=1),
        )
        converged_at[(converged_at == 0) & (residual <= tol)] = k

    traces = tuple(
        SinkhornTrace(
            K[b], u_history[b], v_history[b], float(lams[b]), iterations,
            float(residual[b]), int(converged_at[b]) or None,
        )
        for b in range(B)
    )
    return SinkhornBatch(K, u_history, v_history, traces)


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
    K, underflow = sinkhorn_kernels(M[None], [lam])
    if underflow[0]:
        raise NumericalRangeError(kernel_underflow_message(lam, M))
    trace = sinkhorn_batch(K, [lam], iterations, tol).traces[0]
    n, m = M.shape
    plan = TransportPlan(trace.plan_weights(), np.full(n, 1.0 / n), np.full(m, 1.0 / m))
    return plan, trace


def sinkhorn_batch_reverse(batch: SinkhornBatch, weights) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of :func:`sinkhorn_batch` for the B functions <W_b, T_b>.

    ``weights`` yields the (n, m) weights W_b in batch order; each is used
    once, to seed the cotangents of u_L and v_L, so a generator keeps one
    W_b alive at a time. The recursion then runs backwards from iteration L
    to 1 on the whole stack. u_k = (1/n) / max(r_k, tiny) with r_k = K v_k
    gives du_k/dr_k = -n u_k^2 (the derivative passes straight through the
    clamp), and likewise dv_k/ds_k = -m v_k^2 with s_k = K^T u_{k-1}, so a
    step takes only the two stacked matvecs that carry the cotangents.
    Returns the cotangents of r_k, (B, L, n), and of s_k, (B, L, m), for
    k = 1..L.
    """
    K = batch.kernel
    KT = K.transpose(0, 2, 1)
    U = batch.u_history
    V = batch.v_history
    B, L, m = V.shape
    n = U.shape[2]
    u_bar = np.empty((B, n))
    v_bar = np.empty((B, m))
    for b, W in zip(range(B), weights, strict=True):
        WK = W * K[b]
        u_bar[b] = WK @ V[b, -1]
        v_bar[b] = WK.T @ U[b, -1]  # only v_L feeds T directly
    r_bars = np.empty((B, L, n))
    s_bars = np.empty((B, L, m))
    for k in range(L, 0, -1):
        r_bars[:, k - 1] = -n * u_bar * U[:, k] * U[:, k]
        v_bar = v_bar + _matvec(KT, r_bars[:, k - 1])
        s_bars[:, k - 1] = -m * v_bar * V[:, k - 1] * V[:, k - 1]
        u_bar = _matvec(K, s_bars[:, k - 1])
        v_bar = 0.0
    return r_bars, s_bars


def transport_cost_cotangent(
    trace: SinkhornTrace,
    M: np.ndarray,
    r_bars: np.ndarray,
    s_bars: np.ndarray,
) -> np.ndarray:
    """d<T(M), M>/dM of one run, from its :func:`sinkhorn_batch_reverse` slice
    for weights M: K * (u_L v_L^T - lam * (sum_k r_bar_k v_k^T + u_{k-1}
    s_bar_k^T) - lam * M * u_L v_L^T), the first two terms as one product.
    """
    lam, U, V = trace.lam, trace.u_history, trace.v_history
    left = np.concatenate((r_bars, U))
    left[:-1] *= -lam
    G = left.T @ np.concatenate((V, s_bars, V[-1:]))
    G -= (lam * U[-1])[:, None] * M * V[-1]
    G *= trace.kernel
    return G


def sinkhorn_vjp(trace: SinkhornTrace, W: np.ndarray) -> np.ndarray:
    """Reverse-mode derivative of <W, T(M)> w.r.t. the cost matrix M.

    Replays the recorded iterations of :func:`sinkhorn_plan` backwards, from
    T = diag(u_L) K diag(v_L) down to u_0, accumulating the cotangent of the
    kernel K; dK/dM = -lam * K then gives the (n, m) result. The derivative
    passes straight through the ``_TINY`` denominator clamp. Linear in W;
    costs O(L n m) time and O(n m + L (n + m)) memory. A batch of one for
    :func:`sinkhorn_batch_reverse`.
    """
    W = np.asarray(W, dtype=float)
    K = trace.kernel
    if W.shape != K.shape:
        raise InvalidInputError(
            f"cotangent shape {W.shape} does not match kernel shape {K.shape}"
        )
    U, V = trace.u_history, trace.v_history
    batch = SinkhornBatch(K[None], U[None], V[None], (trace,))
    r_bars, s_bars = sinkhorn_batch_reverse(batch, [W])
    K_bar = np.concatenate((r_bars[0], U[:-1])).T @ np.concatenate((V, s_bars[0]))
    K_bar += W * np.outer(U[-1], V[-1])
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
