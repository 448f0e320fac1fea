"""Reverse-mode derivative of the fixed-L Sinkhorn plan: ``sinkhorn_vjp``
applies the transposed plan Jacobian to a cotangent, and the full Jacobian
built from it in ``helpers`` is checked against finite differences."""

import numpy as np
import pytest

from helpers import (
    CapacityError,
    cross_covariance,
    plan_jacobian_full,
    random_stiefel,
    sinkhorn_plan,
    sinkhorn_vjp,
)
from wda import InvalidInputError, cost_matrix


def _instance(rng, n, m, d, p, lam, L):
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, m))
    P = random_stiefel(rng, p, d)
    M = cost_matrix(P @ X, P @ Z)
    plan, trace = sinkhorn_plan(M, lam, L)
    return X, Z, P, plan, trace


def _fd_in_cost(M, lam, L, W, h=1e-6, symmetric=False):
    # central differences of <W, T(M)>; a self pair perturbs M_ij and M_ji
    # together so the cost matrix stays symmetric
    def contraction(Mmat):
        plan, _ = sinkhorn_plan(Mmat, lam, L)
        return float(np.sum(W * plan.weights))

    fd = np.zeros_like(M)
    for i, j in np.ndindex(M.shape):
        if symmetric and j < i:
            continue
        E = np.zeros_like(M)
        E[i, j] = h
        if symmetric:
            E[j, i] = h
        fd[i, j] = (contraction(M + E) - contraction(M - E)) / (2.0 * h)
    return fd


def test_plan_jacobian_apply_matches_finite_differences():
    rng = np.random.default_rng(4)
    for L in (1, 10):
        # rectangular pair: every entry of M is an independent input
        X, Z, P, _, trace = _instance(rng, 4, 3, 3, 2, 0.7, L)
        M = cost_matrix(P @ X, P @ Z)
        W = rng.standard_normal((4, 3))
        G = sinkhorn_vjp(trace, W)
        fd = _fd_in_cost(M, 0.7, L, W)
        assert np.abs(G - fd).max() / np.abs(fd).max() <= 1e-6

        # self pair: the symmetric perturbation measures G_ij + G_ji
        X = rng.standard_normal((3, 4))
        Y = P @ X
        M = cost_matrix(Y, Y)
        _, trace = sinkhorn_plan(M, 0.9, L)
        W = rng.standard_normal((4, 4))
        G = sinkhorn_vjp(trace, W)
        fd = _fd_in_cost(M, 0.9, L, W, symmetric=True)
        sym = np.triu(G + G.T, 1) + np.diag(np.diag(G))
        assert np.abs(sym - fd).max() / np.abs(fd).max() <= 1e-6


def test_plan_jacobian_single_cell_is_zero():
    # T = [[1]] is constant in M; the reverse pass must cancel exactly
    rng = np.random.default_rng(2)
    X, Z, P, plan, trace = _instance(rng, 1, 1, 3, 2, 1.1, 8)
    assert np.abs(sinkhorn_vjp(trace, np.array([[2.5]]))).max() <= 1e-12
    full = plan_jacobian_full(trace, P, X, Z)
    assert np.abs(full).max() <= 1e-12


def test_plan_jacobian_tiny_lambda_is_zero():
    rng = np.random.default_rng(3)
    X, Z, P, plan, trace = _instance(rng, 4, 3, 3, 2, 1e-12, 10)
    assert np.abs(sinkhorn_vjp(trace, np.ones((4, 3)))).max() <= 1e-9


def test_apply_is_linear_in_cotangent():
    rng = np.random.default_rng(7)
    X, Z, P, plan, trace = _instance(rng, 5, 4, 3, 2, 0.6, 9)
    W1 = rng.standard_normal((5, 4))
    W2 = rng.standard_normal((5, 4))
    lhs = sinkhorn_vjp(trace, W1 + 2.0 * W2)
    rhs = sinkhorn_vjp(trace, W1) + 2.0 * sinkhorn_vjp(trace, W2)
    scale = max(np.abs(rhs).max(), 1e-12)
    assert np.abs(lhs - rhs).max() / scale <= 1e-12


def test_apply_cotangent_shape_check():
    rng = np.random.default_rng(12)
    _, _, _, _, trace = _instance(rng, 3, 4, 3, 2, 0.5, 5)
    with pytest.raises(InvalidInputError):
        sinkhorn_vjp(trace, np.ones((4, 3)))


def test_full_jacobian_agrees_with_apply_under_contraction():
    rng = np.random.default_rng(5)
    X, Z, P, plan, trace = _instance(rng, 4, 3, 3, 2, 0.9, 12)
    full = plan_jacobian_full(trace, P, X, Z)
    for _ in range(3):
        W = rng.standard_normal((4, 3))
        contracted = np.tensordot(W, full, axes=([0, 1], [0, 1]))
        applied = 2.0 * P @ cross_covariance(X, Z, sinkhorn_vjp(trace, W))
        scale = max(np.abs(applied).max(), 1e-12)
        assert np.abs(contracted - applied).max() / scale <= 1e-12


def test_full_jacobian_matches_finite_differences_entrywise():
    rng = np.random.default_rng(6)
    n, m, d, p, lam, L = 3, 3, 3, 2, 0.8, 10
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, m))
    P = random_stiefel(rng, p, d)
    M = cost_matrix(P @ X, P @ Z)
    _, trace = sinkhorn_plan(M, lam, L)
    full = plan_jacobian_full(trace, P, X, Z)

    def plan_entries(Pmat):
        Mp = cost_matrix(Pmat @ X, Pmat @ Z)
        plan, _ = sinkhorn_plan(Mp, lam, L)
        return plan.weights

    h = 1e-6
    fd = np.zeros_like(full)
    for idx in np.ndindex((p, d)):
        Pp = P.copy()
        Pp[idx] += h
        Pm = P.copy()
        Pm[idx] -= h
        fd[:, :, idx[0], idx[1]] = (plan_entries(Pp) - plan_entries(Pm)) / (2 * h)
    assert np.abs(full - fd).max() / np.abs(fd).max() <= 1e-6


def test_marginal_derivative_consistency():
    # row marginals of T_L are exactly 1/n for every P (the final update
    # enforces them), so their derivative vanishes identically; column
    # marginals are constant only up to the feasibility residual
    rng = np.random.default_rng(8)
    n, m, d, p, lam = 4, 4, 3, 2, 1.0
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, m))
    P = random_stiefel(rng, p, d)
    M = cost_matrix(P @ X, P @ Z)
    _, trace = sinkhorn_plan(M, lam, 400, tol=1e-13)
    assert trace.converged_at is not None
    full = plan_jacobian_full(trace, P, X, Z)
    scale = np.abs(full).max()
    row_sum_grad = full.sum(axis=1)
    assert np.abs(row_sum_grad).max() <= 1e-12 * max(scale, 1.0)
    col_sum_grad = full.sum(axis=0)
    assert np.abs(col_sum_grad).max() <= 1e-8 * max(scale, 1.0)


def test_full_jacobian_capacity_guard():
    rng = np.random.default_rng(10)
    X, Z, P, plan, trace = _instance(rng, 40, 40, 2, 1, 0.1, 1)
    with pytest.raises(CapacityError):
        plan_jacobian_full(trace, P, X, Z)
