"""Entropic optimal transport between point clouds: cost matrices, Sinkhorn
scaling with a fixed iteration budget and its reverse-mode derivative.

Samples are stored column-wise: a cloud of n points in dimension d is a
(d, n) array. The solver always runs the requested number of iterations and
keeps the full scaling history, because the gradient differentiates the
iteration map itself rather than the converged plan. The loop records the
scalings and nothing else: the marginal residual of the final plan is
computed once, after it, and the first iteration that met a tolerance
(:meth:`SinkhornBatch.converged_at`) is recomputed on request from the
recorded history.

The iterations exist once, in stacked form. :func:`sinkhorn_batch` runs B
problems of one shape (n, m) as one (B, n, m) iteration, and
:func:`sinkhorn_batch_reverse` runs its reverse pass the same way, so the
numpy call overhead of a step is paid once per stack. That overhead is most
of a step only for small problems: with one BLAS thread and L = 10, tripling
B from 6 to 18 made a forward pass 1.8 times as costly at n = m = 34 and
3.7 times at n = m = 100, where the arithmetic dominates. Both loops keep
their records step-major, so each step writes one contiguous (B, n) or
(B, m) block with ``out=`` and allocates nothing. ``sinkhorn_batch(...,
out=)`` overwrites the records of an earlier batch of the same shape:
that is how a stacked :func:`wda.objective.evaluate` reuses every array
of its ``out`` stack.
A cost matrix, or a stack of them, is one product A^T B of two (d + 2)-row
factors (:func:`cost_matrix`). Kernels come from :func:`sinkhorn_kernels`,
in place of the cost stack; :func:`wda.objective.solve_pairs` builds the
kernel stacks of every class pair and refuses an underflowing kernel by its
pair. The one (B, n, m) stack kept is the kernel's: the pair distances, the
reverse seeds and the cost cotangent read K * M through the factors, as
sums over their rows of K applied to scaled vectors
(``_factored_matvec``), so no K * M stack is formed. A reverse step
takes two stacked matvecs: the derivative of a scaling update is written
with the scaling itself (du/dr = -n u^2), so K v_k and K^T u_{k-1} are not
needed. The (n, m)-sized end of each derivative is formed one problem at a
time, so the reverse pass adds no (n, m) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# denominator clamp for the scaling updates; keeps u, v finite when the
# kernel has extremely small entries
_TINY = 1e-300

# rows per strip of :func:`self_costs`
_STRIP = 64


def cost_matrix(X: np.ndarray, Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between the columns of X and Z.

    Returns the (n, m) matrix with entry (i, j) equal to ||x_i - z_j||^2,
    or the (B, n, m) stack of them for stacks (B, d, n) and (B, d, m),
    written into ``out`` when given. It is one product
    [X; |x|^2; 1]^T [-2Z; 1; |z|^2] of two (d + 2)-row factors, clamped at
    zero in place. When ``Z is X`` (self-transport) each matrix then goes
    through :func:`self_costs`.
    """
    same = Z is X
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if X.ndim not in (2, 3) or Z.ndim != X.ndim:
        raise InvalidInputError("sample matrices must be (d, n) arrays or (B, d, n) stacks")
    if X.shape[:-1] != Z.shape[:-1]:
        raise InvalidInputError(f"feature dimensions differ: {X.shape[:-1]} vs {Z.shape[:-1]}")
    shape = X.shape[:-2] + (X.shape[-1], Z.shape[-1])
    if out is not None and (out.shape != shape or out.dtype != float):
        raise InvalidInputError(f"out must be a float array of shape {shape}")
    A, B = _cost_factors(X, Z)
    M = np.matmul(A.swapaxes(-1, -2), B, out=out)
    np.maximum(M, 0.0, out=M)
    if same:
        for square in M.reshape((-1,) + M.shape[-2:]):
            self_costs(square)
    return M


def _cost_factors(
    X: np.ndarray, Z: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The (d + 2)-row factors A = [X; |x|^2; 1] and B = [-2Z; 1; |z|^2] of
    the squared distances A^T B between the columns of X and Z, (d, n) and
    (d, m) arrays or (B, d, n) and (B, d, m) stacks, written into the pair
    ``out`` when given; no input is checked."""
    d = X.shape[-2]
    if out is None:
        A = np.empty(X.shape[:-2] + (d + 2, X.shape[-1]))
        B = np.empty(Z.shape[:-2] + (d + 2, Z.shape[-1]))
    else:
        A, B = out
    A[..., :d, :] = X
    np.einsum("...ij,...ij->...j", X, X, out=A[..., d, :])
    A[..., d + 1, :] = 1.0
    np.multiply(Z, -2.0, out=B[..., :d, :])
    B[..., d, :] = 1.0
    np.einsum("...ij,...ij->...j", Z, Z, out=B[..., d + 1, :])
    return A, B


def _factored_matvec(K: np.ndarray, A: np.ndarray, B: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(K * A^T B) v for a kernel stack K, (B, n, m), factor stacks A,
    (B, r, n), and B, (B, r, m), and vectors v, (B, m), without forming A^T B:
    the sum over the r rows t of A_t * (K (B_t * v)), from one stacked
    (B, r, m) @ (B, m, n) product. (K * A^T B)^T u is
    ``_factored_matvec(K.transpose(0, 2, 1), B, A, u)``.
    """
    W = (B * v[:, None, :]) @ K.swapaxes(-1, -2)
    W *= A
    return W.sum(axis=1)


def self_costs(M: np.ndarray) -> np.ndarray:
    """Make one square cost matrix of a cloud with itself exactly symmetric,
    0.5 (M + M^T), with a zero diagonal, in place; returns M. Each strip of
    ``_STRIP`` rows, from the diagonal on, is averaged with the matching
    columns and copied back into them, so the one temporary is a strip."""
    for i in range(0, M.shape[0], _STRIP):
        j = i + _STRIP
        upper = M[i:j, i:]
        total = M[i:, i:j].T.copy()  # a contiguous copy: no buffered ufunc pass
        total += upper
        np.multiply(total, 0.5, out=upper)
        if j < M.shape[0]:
            M[j:, i:j] = M[i:j, j:].T
    np.fill_diagonal(M, 0.0)
    return M


@dataclass(frozen=True)
class SinkhornBatch:
    """B fixed-L Sinkhorn runs on kernels of one shape (n, m), stacked on axis 0.

    Run b is ``kernel[b]``, ``u_history[b]`` and ``v_history[b]``:
    ``u_history[b, k]`` is its left scaling after k iterations
    (``u_history[b, 0]`` is the all-ones initialization), ``v_history[b, k-1]``
    the right scaling of iteration k. ``residual[b]`` is the infinity-norm
    marginal violation of its final plan.

    The records are stored step-major, as (L+1, B, n) and (L, B, m) arrays,
    and the two histories are their transposed views: the scalings of one
    step, ``u_history[:, k]``, are one contiguous (B, n) block, which the
    loops of :func:`sinkhorn_batch` and :func:`sinkhorn_batch_reverse`
    write and read with ``out=``.
    """

    kernel: np.ndarray     # (B, n, m)
    u_history: np.ndarray  # (B, L+1, n)
    v_history: np.ndarray  # (B, L, m)
    residual: np.ndarray   # (B,)

    def plan(self, b: int) -> np.ndarray:
        """Run b's plan diag(u_L) K diag(v_L), an (n, m) array."""
        return self.u_history[b, -1][:, None] * self.kernel[b] * self.v_history[b, -1][None, :]

    def converged_at(self, tol: float = 1e-9) -> list[int | None]:
        """Each run's first iteration whose plan diag(u_k) K diag(v_k) met
        ``tol`` in marginal residual, or None if none did.

        Recomputed from the recorded scalings with the loop's own matvecs,
        for every iteration of every run at once (two (B, L)-wide stacked
        matvecs); the iterations never stop early.
        """
        K, U, V = self.kernel[:, None], self.u_history[:, 1:], self.v_history
        residuals = _marginal_residual(U, _matvec(K, V), V, _matvec(K.swapaxes(-1, -2), U))
        met = [np.flatnonzero(row) for row in residuals <= tol]
        return [int(k[0]) + 1 if k.size else None for k in met]


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products A[b] @ x[b], as one matmul call."""
    return np.matmul(A, x[..., None])[..., 0]


def _marginal_residual(u, r, v, s, out: np.ndarray | None = None) -> np.ndarray:
    """Infinity-norm marginal violation of diag(u) K diag(v) along the last
    axis, from r = K v and s = K^T u, written into ``out`` when given."""
    return np.maximum(
        np.abs(u * r - 1.0 / u.shape[-1]).max(axis=-1),
        np.abs(v * s - 1.0 / v.shape[-1]).max(axis=-1),
        out=out,
    )


def sinkhorn_kernels(
    M: np.ndarray, lams, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gibbs kernels exp(-lams[b] * M[b]) of a (B, n, m) cost stack, each
    slice scaled by its own scalar -lams[b] and the stack taken through one
    in-place exp, written into ``out`` when given (``out=M`` overwrites the
    costs), and the mask of kernels with a whole row or column below the
    scaling clamp: no scaling can match their marginals. Row and column
    maxima are taken only when some kernel's smallest entry is not at least
    the clamp. (A (B, 1, 1) broadcast factor would have numpy buffer a copy
    of a small stack.) A count of lambdas other than B is refused.
    """
    if len(lams) != len(M):
        raise InvalidInputError(f"{len(lams)} lambdas for a stack of {len(M)} cost matrices")
    K = np.empty_like(M) if out is None else out
    for b, lam in enumerate(lams):
        np.multiply(M[b], -float(lam), out=K[b])
    np.exp(K, out=K)
    if (K.min(axis=(1, 2)) >= _TINY).all():
        return K, np.zeros(len(K), dtype=bool)
    return K, (K.max(axis=2) < _TINY).any(axis=1) | (K.max(axis=1) < _TINY).any(axis=1)


def sinkhorn_batch(
    K: np.ndarray, iterations: int, out: SinkhornBatch | None = None
) -> SinkhornBatch:
    """Run exactly ``iterations`` Sinkhorn steps on every kernel of a stack.

    ``K`` is a (B, n, m) stack of kernels from :func:`sinkhorn_kernels`. The
    B runs share one loop: each step is two stacked matvecs and the two
    scaling updates, each written with ``out=`` into its step's contiguous
    slice of the records, so the Python and numpy call overhead of a step
    is paid once for the whole stack and a step allocates nothing. The
    marginal residual is computed once, after the loop. Run b is
    bit-identical to running it alone. The stack is kept, not copied.
    ``out``, an earlier batch of the same shape and iteration count that is
    no longer needed, has its scaling records and residuals overwritten and
    reused: the batch returned holds ``K`` and ``out``'s records.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 3:
        raise InvalidInputError("kernel stack must be 3-d (batch, n, m)")
    if iterations < 1:
        raise InvalidInputError(f"iterations must be >= 1, got {iterations}")
    B, n, m = K.shape
    if out is None:
        U = np.empty((iterations + 1, B, n))
        V = np.empty((iterations, B, m))
    elif out.u_history.shape != (B, iterations + 1, n) or out.v_history.shape != (B, iterations, m):
        raise InvalidInputError(
            f"out must be a batch of {iterations} iterations on ({B}, {n}, {m}) kernels"
        )
    else:
        U = out.u_history.transpose(1, 0, 2)
        V = out.v_history.transpose(1, 0, 2)

    KT = K.transpose(0, 2, 1)
    row_target = 1.0 / n
    col_target = 1.0 / m
    U[0] = 1.0
    # two matvecs per iteration: r = K v serves the u update, s = K^T u the
    # next v update; the last r and s also give the final residual. Each
    # update clamps into its record slot and divides there in place. Every
    # vector is a (B, n, 1) column stack, so each matvec is one matmul
    # call with no reshaping view.
    U3, V3 = U[..., None], V[..., None]
    r, s = np.empty((B, n, 1)), np.empty((B, m, 1))
    np.matmul(KT, U3[0], out=s)
    for k in range(1, iterations + 1):
        v, u = V3[k - 1], U3[k]
        np.divide(col_target, np.maximum(s, _TINY, out=v), out=v)
        np.matmul(K, v, out=r)
        np.divide(row_target, np.maximum(r, _TINY, out=u), out=u)
        np.matmul(KT, u, out=s)
    residual = None if out is None else out.residual
    residual = _marginal_residual(U[-1], r[..., 0], V[-1], s[..., 0], out=residual)
    return SinkhornBatch(K, U.transpose(1, 0, 2), V.transpose(1, 0, 2), residual)


def sinkhorn_batch_reverse(
    batch: SinkhornBatch, u_bar: np.ndarray, v_bar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse pass of :func:`sinkhorn_batch` for the B functions <W_b, T_b>.

    ``u_bar`` (B, n) and ``v_bar`` (B, m) are their cotangents of u_L and
    v_L, the only scalings that feed T directly: (W_b * K_b) v_L and
    (W_b * K_b)^T u_L. The caller forms these seeds (the objective, whose
    W = M, reads them through the cost's factors), so the pass takes no
    (n, m) weight. The recursion then runs backwards from iteration L to 1
    on the whole stack. u_k = (1/n) / max(r_k, tiny) with r_k = K v_k gives
    du_k/dr_k = -n u_k^2 (the derivative passes straight through the clamp),
    and likewise dv_k/ds_k = -m v_k^2 with s_k = K^T u_{k-1}, so a step takes
    only the two stacked matvecs that carry the cotangents. Each step writes
    into its contiguous slice of step-major records, as the forward loop
    does, and allocates nothing. Returns the cotangents of r_k, (B, L, n),
    and of s_k, (B, L, m), for k = 1..L, as transposed views of those
    records.
    """
    K = batch.kernel
    KT = K.transpose(0, 2, 1)
    U = batch.u_history.transpose(1, 0, 2)
    V = batch.v_history.transpose(1, 0, 2)
    L, B, m = V.shape
    n = U.shape[2]
    r_bars = np.empty((L, B, n))
    s_bars = np.empty((L, B, m))
    # (B, n, 1) column stacks, as in the forward loop
    U3, V3, R3, S3 = U[..., None], V[..., None], r_bars[..., None], s_bars[..., None]
    carried_u, carried_v = np.empty((B, n, 1)), np.empty((B, m, 1))
    u_bar, v_bar = u_bar[..., None], v_bar[..., None]
    for k in range(L, 0, -1):
        r_bar, s_bar, u, v = R3[k - 1], S3[k - 1], U3[k], V3[k - 1]
        np.multiply(u_bar, -n, out=r_bar)
        r_bar *= u
        r_bar *= u
        v_bar = np.add(v_bar, np.matmul(KT, r_bar, out=carried_v), out=carried_v)
        np.multiply(v_bar, -m, out=s_bar)
        s_bar *= v
        s_bar *= v
        u_bar = np.matmul(K, s_bar, out=carried_u)
        v_bar = 0.0
    return r_bars.transpose(1, 0, 2), s_bars.transpose(1, 0, 2)


def transport_cost_cotangent(
    batch: SinkhornBatch,
    runs: slice,
    lams: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    r_bars: np.ndarray,
    s_bars: np.ndarray,
) -> np.ndarray:
    """d<T(M), M>/dM of each run b of the slice ``runs`` of ``batch``, whose
    kernel is K = exp(-lam * M) with lam its entry of ``lams``, from the
    (r, n) and (r, m) factors A, B of its cost, M = A^T B up to rounding,
    and the run's :func:`sinkhorn_batch_reverse` slices r_bars, s_bars for
    the weight M:

        K * (u_L v_L^T - lam * sum_k (r_bar_k v_k^T + u_{k-1} s_bar_k^T)
               - lam * (A diag(u_L))^T (B diag(v_L))),

    where K times the last term is diag(u_L) (K * M) diag(v_L). The bracket
    is one product of rank 2L + 1 + r, so neither M nor K * M is formed.
    ``factors``, ``r_bars`` and ``s_bars`` are the runs' stacks, and the S
    results are one (S, n, m) stack, the only (n, m) arrays, from one
    stacked product; each is bit-identical to its run's alone.
    """
    U, V = batch.u_history[runs], batch.v_history[runs]
    u, v = U[:, -1:], V[:, -1:]
    A, B = factors
    left = np.concatenate((u, r_bars, U[:, :-1], A * u), axis=1)
    left[:, 1:] *= -lams[:, None, None]
    G = left.transpose(0, 2, 1) @ np.concatenate((v, V, s_bars, B * v), axis=1)
    G *= batch.kernel[runs]
    return G
