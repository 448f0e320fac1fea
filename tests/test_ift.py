import numpy as np
import pytest

from helpers import CapacityError, plan_jacobian_full, random_stiefel, sinkhorn_plan
from iftgrad import ift_jacobian
from wda import NumericalRangeError, cost_matrix


def _frozen_instance(seed=42, lam=1.8):
    # calibrated so the plan converges slowly enough that the unrolled
    # deviation is visible at L=50 yet meets 1e-4 by L=500
    rng = np.random.default_rng(seed)
    n, m, d, p = 3, 3, 3, 2
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, m))
    P = random_stiefel(rng, p, d)
    return P, X, Z, lam


def _unrolled_full(P, X, Z, lam, L):
    M = cost_matrix(P @ X, P @ Z)
    _, trace = sinkhorn_plan(M, lam, L)
    return plan_jacobian_full(trace, P, X, Z)


def test_ift_single_cell_is_zero():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 1))
    Z = rng.standard_normal((3, 1))
    P = random_stiefel(rng, 2, 3)
    J = ift_jacobian(P, X, Z, 1.0)
    assert J.shape == (1, 1, 2, 3)
    assert np.abs(J).max() <= 1e-12


def test_ift_vanishing_lambda_near_zero_jacobian():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 3))
    Z = rng.standard_normal((3, 3))
    P = random_stiefel(rng, 2, 3)
    J = ift_jacobian(P, X, Z, 1e-9)
    assert np.abs(J).max() <= 1e-6


def test_ift_matches_unrolled_at_large_L():
    P, X, Z, lam = _frozen_instance()
    J_ift = ift_jacobian(P, X, Z, lam)
    J_unrolled = _unrolled_full(P, X, Z, lam, 500)
    rel = np.abs(J_unrolled - J_ift).max() / np.abs(J_ift).max()
    assert rel <= 1e-4


def test_ift_matches_finite_differences():
    P, X, Z, lam = _frozen_instance()
    J_ift = ift_jacobian(P, X, Z, lam)

    def plan_at(Pmat):
        M = cost_matrix(Pmat @ X, Pmat @ Z)
        plan, _ = sinkhorn_plan(M, lam, 6000)
        return plan.weights

    h = 1e-6
    fd = np.zeros_like(J_ift)
    for idx in np.ndindex(P.shape):
        Pp = P.copy()
        Pp[idx] += h
        Pm = P.copy()
        Pm[idx] -= h
        fd[:, :, idx[0], idx[1]] = (plan_at(Pp) - plan_at(Pm)) / (2 * h)
    assert np.abs(J_ift - fd).max() / np.abs(fd).max() <= 1e-5


def test_unrolled_deviation_shrinks_monotonically():
    P, X, Z, lam = _frozen_instance()
    J_ift = ift_jacobian(P, X, Z, lam)
    scale = np.abs(J_ift).max()
    deviations = [
        np.abs(_unrolled_full(P, X, Z, lam, L) - J_ift).max() / scale
        for L in (50, 200, 500)
    ]
    assert deviations[0] > deviations[1] > deviations[2]


def test_ift_self_transport_matches_unrolled():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 3))
    P = random_stiefel(rng, 2, 3)
    M = cost_matrix(P @ X, P @ X)
    lam = 1.0 / M.max()
    J_ift = ift_jacobian(P, X, X, lam)
    Mself = cost_matrix(P @ X, P @ X)
    _, trace = sinkhorn_plan(Mself, lam, 500)
    J_unrolled = plan_jacobian_full(trace, P, X, X)
    rel = np.abs(J_unrolled - J_ift).max() / np.abs(J_ift).max()
    assert rel <= 1e-6


def test_ift_capacity_guard():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((2, 11))
    Z = rng.standard_normal((2, 11))
    P = random_stiefel(rng, 1, 2)
    with pytest.raises(CapacityError):
        ift_jacobian(P, X, Z, 0.5)


def test_ift_ill_conditioned_system_rejected():
    # strongly concentrated plans push diag(1/t) beyond the condition guard
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 3))
    Z = rng.standard_normal((3, 3))
    P = random_stiefel(rng, 2, 3)
    with pytest.raises(NumericalRangeError):
        ift_jacobian(P, X, Z, 1.5)
