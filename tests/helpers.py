"""Shared test utilities: finite differences, subspace angles, and the full
unrolled plan Jacobian."""

import numpy as np

from wda import CapacityError, cross_covariance, project_stiefel, sinkhorn_vjp


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
