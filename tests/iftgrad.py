"""Implicit-function-theorem Jacobian of the converged transport plan.

A slow exact oracle, used by the tests only to validate the unrolled
differentiation. The optimality system of the entropic transport problem
(stationarity of the Lagrangian plus the two marginal constraints)
implicitly defines T(P); its linearization

    E [dT/dP; dalpha/dP; dbeta/dP] = -dg/dP

is solved directly. E is the square system matrix with blocks diag(1/t)
(stationarity w.r.t. the plan), the constraint incidence patterns, and zeros;
the right-hand side stacks the rows 2*lam*vec(P Delta_ij Delta_ij^T) for the
stationarity equations and zeros for the constraints. The two marginal
constraint sets share total mass, so one column-marginal row and the matching
dual variable are dropped to make E nonsingular (a gauge choice that leaves
the dT/dP block untouched).
"""

from __future__ import annotations

import numpy as np

from helpers import CapacityError
from wda import NumericalRangeError, cost_matrix


def ift_jacobian(
    P: np.ndarray,
    X: np.ndarray,
    Z: np.ndarray,
    lam: float,
    residual_tol: float = 1e-12,
    max_iterations: int = 200_000,
    max_entries: int = 100,
    condition_limit: float = 1e14,
) -> np.ndarray:
    """Jacobian dT/dP of the converged plan, as an (n, m, p, d) array.

    The plan is first solved to a marginal residual of ``residual_tol``; the
    KKT linear system is then assembled densely (guarded by ``max_entries``
    plan entries) and solved for all p*d right-hand sides.
    """
    self_pair = Z is X
    P = np.asarray(P, dtype=float)
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    n = X.shape[1]
    m = Z.shape[1]
    if n * m > max_entries:
        raise CapacityError(
            f"ift oracle requested for {n * m} plan entries, guard is {max_entries}"
        )
    p, d = P.shape

    PX = P @ X
    M = cost_matrix(PX, PX if self_pair else P @ Z)
    # same scaling updates as the fixed-L solver, but iterated to convergence
    K = np.exp(-lam * M)
    row_target = np.full(n, 1.0 / n)
    col_target = np.full(m, 1.0 / m)
    u = np.ones(n)
    residual = np.inf
    for _ in range(max_iterations):
        v = col_target / np.maximum(K.T @ u, 1e-300)
        u = row_target / np.maximum(K @ v, 1e-300)
        col = v * (K.T @ u)
        residual = float(np.abs(col - col_target).max())
        if residual <= residual_tol:
            break
    if residual > residual_tol:
        raise NumericalRangeError(
            f"plan did not reach residual {residual_tol:g} within "
            f"{max_iterations} iterations (got {residual:.3g})"
        )
    T = u[:, None] * K * v[None, :]

    nm = n * m
    size = nm + n + m
    E = np.zeros((size, size))
    # stationarity rows, vec(T) in row-major order: index (i, j) -> i*m + j
    E[:nm, :nm] = np.diag(1.0 / T.ravel())
    rows = np.repeat(np.arange(n), m)
    cols = np.tile(np.arange(m), n)
    E[np.arange(nm), nm + rows] = 1.0            # d stationarity / d alpha_i
    E[np.arange(nm), nm + n + cols] = 1.0        # d stationarity / d beta_j
    # row-marginal rows: sum_j t_ij
    E[nm + rows, np.arange(nm)] = 1.0
    # column-marginal rows: sum_i t_ij
    E[nm + n + cols, np.arange(nm)] = 1.0

    # right-hand side -dg/dP: stationarity rows carry 2*lam*vec(P Delta Delta^T)
    D = X.T[:, None, :] - Z.T[None, :, :]              # (n, m, d)
    PD = D @ P.T                                       # (n, m, p)
    dgdP = 2.0 * lam * (PD[:, :, :, None] * D[:, :, None, :])   # (n, m, p, d)
    rhs = np.zeros((size, p * d))
    rhs[:nm] = -dgdP.reshape(nm, p * d)

    # drop the last column-marginal equation (implied by the others) and the
    # matching dual variable (gauge beta_m = 0)
    keep = np.ones(size, dtype=bool)
    keep[-1] = False
    E_red = E[keep][:, keep]
    rhs_red = rhs[keep]

    cond = np.linalg.cond(E_red)
    if not np.isfinite(cond) or cond > condition_limit:
        raise NumericalRangeError(
            f"optimality system is ill conditioned (estimate {cond:.3g})"
        )
    solution = np.linalg.solve(E_red, rhs_red)
    return solution[:nm].reshape(n, m, p, d)
