"""Shared test utilities: finite differences, subspace angles, the full
unrolled plan Jacobian, and a per-pair reference for the objective built on
plain 2-d Sinkhorn loops of its own."""

import numpy as np

from wda import (
    CapacityError,
    SinkhornTrace,
    cost_matrix,
    cross_covariance,
    pair_keys,
    project_stiefel,
    sinkhorn_vjp,
)

# the scaling clamp of wda.otcore
_TINY = 1e-300


def fd_gradient(f, P, h=1e-5):
    """Central finite differences of a scalar function, entrywise in the
    ambient space (no re-orthonormalization of the perturbed points)."""
    G = np.zeros_like(np.asarray(P, dtype=float))
    for idx in np.ndindex(P.shape):
        Pp = P.copy()
        Pp[idx] += h
        Pm = P.copy()
        Pm[idx] -= h
        G[idx] = (f(Pp) - f(Pm)) / (2.0 * h)
    return G


def random_stiefel(rng, p, d):
    return project_stiefel(rng.standard_normal((p, d)))


def principal_angle(A, B):
    """Largest principal angle (radians) between the row spans of A and B."""
    Qa = np.linalg.qr(np.asarray(A, dtype=float).T)[0]
    Qb = np.linalg.qr(np.asarray(B, dtype=float).T)[0]
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def entropy(T):
    """Entropy of a strictly positive coupling, -sum t log t."""
    return -float(np.sum(T * np.log(T)))


def plan_jacobian_full(trace, P, X, Z, max_entries=1024):
    """Full Jacobian dT_ij/dP of the fixed-L plan, an (n, m, p, d) array.

    ``trace`` is the Sinkhorn run on cost_matrix(P @ X, P @ Z). Built from
    n*m reverse passes with one-hot cotangents, each pulled back to P through
    M_ij = ||P (x_i - z_j)||^2. Refuses more than ``max_entries`` plan entries.
    """
    n, m = trace.kernel.shape
    if n * m > max_entries:
        raise CapacityError(
            f"full jacobian requested for {n * m} plan entries, guard is {max_entries}"
        )
    full = np.zeros((n, m) + np.shape(P))
    for i, j in np.ndindex(n, m):
        onehot = np.zeros((n, m))
        onehot[i, j] = 1.0
        full[i, j] = 2.0 * P @ cross_covariance(X, Z, sinkhorn_vjp(trace, onehot))
    return full


def reference_sinkhorn(M, lam, iterations, tol):
    """One fixed-L Sinkhorn run as a plain 2-d loop, independent of the
    stacked solver in wda.otcore: the plan weights and the SinkhornTrace."""
    n, m = M.shape
    K = np.exp(-lam * M)
    u = np.ones(n)
    u_history = np.empty((iterations + 1, n))
    v_history = np.empty((iterations, m))
    u_history[0] = u
    converged_at = None
    s = K.T @ u
    for k in range(1, iterations + 1):
        v = (1.0 / m) / np.maximum(s, _TINY)
        r = K @ v
        u = (1.0 / n) / np.maximum(r, _TINY)
        s = K.T @ u
        v_history[k - 1] = v
        u_history[k] = u
        residual = float(
            max(np.abs(u * r - 1.0 / n).max(), np.abs(v * s - 1.0 / m).max())
        )
        if converged_at is None and residual <= tol:
            converged_at = k
    weights = u[:, None] * K * v[None, :]
    trace = SinkhornTrace(K, u_history, v_history, float(lam), iterations, residual, converged_at)
    return weights, trace


def reference_reverse(trace, W):
    """Cotangents of r_k = K v_k and s_k = K^T u_{k-1}, k = 1..L, of
    <W, T(M)>, as a plain 2-d reverse loop over ``trace``."""
    K = trace.kernel
    n, m = K.shape
    L = trace.iterations
    U = trace.u_history
    V = trace.v_history
    WK = W * K
    u_bar = WK @ V[-1]
    v_bar = WK.T @ U[-1]
    r_bars = np.empty((L, n))
    s_bars = np.empty((L, m))
    for k in range(L, 0, -1):
        # du_k/dr_k = -n u_k^2 and dv_k/ds_k = -m v_k^2
        r_bars[k - 1] = -n * u_bar * U[k] * U[k]
        v_bar = v_bar + K.T @ r_bars[k - 1]
        s_bars[k - 1] = -m * v_bar * V[k - 1] * V[k - 1]
        u_bar = K @ s_bars[k - 1]
        v_bar = 0.0
    return r_bars, s_bars


def reference_vjp(trace, W):
    """d<W, T(M)>/dM of one run as a plain 2-d reverse loop over ``trace``."""
    U = trace.u_history
    V = trace.v_history
    r_bars, s_bars = reference_reverse(trace, W)
    K_bar = np.concatenate((r_bars, U[:-1])).T @ np.concatenate((V, s_bars))
    K_bar += W * np.outer(U[-1], V[-1])
    return -trace.lam * trace.kernel * K_bar


def reference_objective(P, classes, cfg, lambdas):
    """The ratio objective and its gradient from a plain loop over the class
    pairs, one reference_sinkhorn and reference_reverse per pair.

    sigma^2 sums the pair distances u_L . ((K * M) v_L). Each pair's cost
    cotangent d<T(M), M>/dM is pulled back in the projected space. Self
    costs are computed from a copy of the projected block, so numpy forms
    Y^T Y with the general matrix product, as it does for a stack.

    Returns a dict with ``value``, ``pair_residuals``, ``converged_at`` (both
    keyed like ``ObjectiveState.to_json``) and ``gradient``.
    """
    projected = [P @ X for X in classes]
    solved = {}
    for c, cp in pair_keys(len(classes)):
        Yc = projected[c]
        M = cost_matrix(Yc, projected[cp].copy())
        if cp == c:
            M = 0.5 * (M + M.T)
            np.fill_diagonal(M, 0.0)
        _, trace = reference_sinkhorn(
            M, lambdas[(c, cp)], cfg.sinkhorn_iters, cfg.feasibility_tol
        )
        u, v = trace.u_history[-1], trace.v_history[-1]
        distance = float((u * np.einsum("nm,nm,m->n", trace.kernel, M, v)).sum())
        solved[(c, cp)] = (M, trace, distance)
    sb2 = sum(dist for (c, cp), (_, _, dist) in solved.items() if c != cp)
    sw2 = sum(dist for (c, cp), (_, _, dist) in solved.items() if c == cp)
    Z = [np.zeros_like(Y) for Y in projected]
    for (c, cp), (M, trace, _) in solved.items():
        # K * (u_L v_L^T - lam * iterations - lam * M * u_L v_L^T)
        lam, U, V = trace.lam, trace.u_history, trace.v_history
        r_bars, s_bars = reference_reverse(trace, M)
        left = np.vstack([-lam * r_bars, -lam * U[:-1], U[-1:]])
        right = np.vstack([V, s_bars, V[-1:]])
        G = (left.T @ right - (lam * U[-1])[:, None] * M * V[-1]) * trace.kernel
        coef = -sb2 / sw2**2 if cp == c else 1.0 / sw2
        Z[c] += coef * (projected[c] * G.sum(axis=1) - projected[cp] @ G.T)
        Z[cp] += coef * (projected[cp] * G.sum(axis=0) - projected[c] @ G)
    return {
        "value": sb2 / sw2,
        "pair_residuals": {f"{c},{cp}": t.residual for (c, cp), (_, t, _) in solved.items()},
        "converged_at": {key: t.converged_at for key, (_, t, _) in solved.items()},
        "gradient": 2.0 * sum(Zc @ X.T for Zc, X in zip(Z, classes)),
    }
