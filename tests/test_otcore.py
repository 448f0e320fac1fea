import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entropy
from wda import (
    InvalidInputError,
    NumericalRangeError,
    cost_matrix,
    plan_to_csv,
    plan_to_json,
    regularized_distance,
    sinkhorn_plan,
    symmetric_scaling,
    trace_to_json,
)
from wda.ioutil import load_matrix_csv, matrix_from_json


def test_cost_matrix_two_points_1d():
    X = np.array([[0.0, 1.0]])
    M = cost_matrix(X, X.copy())
    assert np.array_equal(M, [[0.0, 1.0], [1.0, 0.0]])


def test_cost_matrix_single_pair():
    M = cost_matrix(np.array([[1.0], [2.0]]), np.array([[4.0], [6.0]]))
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(25.0, abs=1e-12)


def test_cost_matrix_matches_double_loop():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 4))
    Z = rng.standard_normal((5, 3))
    M = cost_matrix(X, Z)
    for i in range(4):
        for j in range(3):
            assert M[i, j] == pytest.approx(np.sum((X[:, i] - Z[:, j]) ** 2), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_cost_matrix_double_loop_property(n, m, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-10, 10, size=(d, n))
    Z = rng.uniform(-10, 10, size=(d, m))
    M = cost_matrix(X, Z)
    brute = np.array(
        [[np.sum((X[:, i] - Z[:, j]) ** 2) for j in range(m)] for i in range(n)]
    )
    assert np.abs(M - brute).max() <= 1e-10
    assert (M >= 0).all()


def test_cost_matrix_self_is_exactly_symmetric():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 6))
    M = cost_matrix(X, X)
    assert np.array_equal(M, M.T)
    assert np.array_equal(np.diag(M), np.zeros(6))


def test_cost_matrix_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        cost_matrix(np.zeros((2, 3)), np.zeros((3, 3)))


def test_sinkhorn_single_cell():
    plan, trace = sinkhorn_plan(np.array([[7.0]]), 2.0, 5)
    assert np.abs(plan.weights - [[1.0]]).max() <= 1e-12
    assert trace.iterations == 5


def test_sinkhorn_tiny_lambda_gives_uniform():
    rng = np.random.default_rng(3)
    M = rng.uniform(0, 4, size=(3, 4))
    plan, _ = sinkhorn_plan(M, 1e-12, 20)
    assert np.abs(plan.weights - 1.0 / 12).max() <= 1e-9


def test_sinkhorn_closed_form_2x2():
    # symmetric ansatz T = diag(v) K diag(v) solved in closed form:
    # a = 1/(2(1+e^-1)), b = e^-1/(2(1+e^-1)); verified by running 500 iterations
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, trace = sinkhorn_plan(M, 1.0, 500)
    a = 1.0 / (2.0 * (1.0 + np.exp(-1.0)))
    b = np.exp(-1.0) / (2.0 * (1.0 + np.exp(-1.0)))
    assert plan.weights[0, 0] == pytest.approx(a, abs=1e-12)
    assert plan.weights[1, 1] == pytest.approx(a, abs=1e-12)
    assert plan.weights[0, 1] == pytest.approx(b, abs=1e-12)
    assert plan.weights[1, 0] == pytest.approx(b, abs=1e-12)
    assert trace.converged_at is not None


def test_sinkhorn_fixed_iterations_always_run():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, trace = sinkhorn_plan(M, 1.0, 50, tol=1e-6)
    assert trace.converged_at == 1
    assert trace.iterations == 50
    assert trace.u_history.shape == (51, 2)
    assert trace.v_history.shape == (50, 2)
    assert np.array_equal(trace.u_history[0], np.ones(2))
    assert np.array_equal(trace.plan_weights(), plan.weights)


def test_sinkhorn_residual_recomputed_from_trace():
    # residual and converged_at must describe the recorded iterates exactly
    rng = np.random.default_rng(12)
    for n, m, lam, iterations in [(4, 6, 1.0, 1), (7, 5, 3.0, 10), (9, 9, 20.0, 40)]:
        M = rng.uniform(0, 1, size=(n, m))
        tol = 1e-4
        _, trace = sinkhorn_plan(M, lam, iterations, tol=tol)
        K = trace.kernel
        residuals = []
        for u, v in zip(trace.u_history[1:], trace.v_history):
            row = np.abs(u * (K @ v) - 1.0 / n).max()
            col = np.abs(v * (K.T @ u) - 1.0 / m).max()
            residuals.append(float(max(row, col)))
        assert trace.residual == residuals[-1]
        below = [k + 1 for k, r in enumerate(residuals) if r <= tol]
        assert trace.converged_at == (below[0] if below else None)


def test_sinkhorn_feasibility_after_convergence():
    rng = np.random.default_rng(4)
    for n, m in [(5, 7), (10, 10), (20, 20)]:
        M = rng.uniform(0, 1, size=(n, m))
        lam = 5.0 / M.max()
        plan, trace = sinkhorn_plan(M, lam, 2000, tol=1e-9)
        assert trace.converged_at is not None
        assert np.abs(plan.weights.sum(axis=1) - 1.0 / n).max() <= 1e-8
        assert np.abs(plan.weights.sum(axis=0) - 1.0 / m).max() <= 1e-8
        assert plan.feasibility_residual() <= 1e-8
        assert (plan.weights >= 0).all()
        assert plan.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_sinkhorn_dual_ascent_monotone():
    # each scaling update is an exact block maximization of the dual
    #   h(u, v) = sum_i a_i log u_i + sum_j b_j log v_j - u^T K v,
    # so h is non-decreasing along the iterates. (The primal value
    # lam*<T_k, M> - entropy(T_k) at the infeasible scaled iterates is NOT
    # monotone; random rectangular instances give violations up to ~0.2.)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = rng.integers(2, 9, size=2)
        M = rng.uniform(0, 2, size=(n, m))
        lam = rng.uniform(0.3, 3.0)
        _, trace = sinkhorn_plan(M, lam, 40)
        a = np.full(n, 1.0 / n)
        b = np.full(m, 1.0 / m)
        values = []
        for k in range(1, trace.iterations + 1):
            u = trace.u_history[k]
            v = trace.v_history[k - 1]
            values.append(a @ np.log(u) + b @ np.log(v) - u @ trace.kernel @ v)
        assert (np.diff(values) >= -1e-12).all()


def test_sinkhorn_converged_value_beats_uniform():
    # the converged plan minimizes lam*<T, M> - entropy(T) over the coupling
    # polytope, so in particular it does no worse than the uniform coupling
    rng = np.random.default_rng(55)
    for _ in range(5):
        n, m = rng.integers(2, 7, size=2)
        M = rng.uniform(0, 1, size=(n, m))
        lam = 3.0 / M.max()
        plan, trace = sinkhorn_plan(M, lam, 3000, tol=1e-12)
        assert trace.converged_at is not None
        uniform = np.full((n, m), 1.0 / (n * m))
        value = lam * np.sum(plan.weights * M) - entropy(plan.weights)
        reference = lam * np.sum(uniform * M) - entropy(uniform)
        assert value <= reference + 1e-9


def test_self_transport_symmetric():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 8))
    M = cost_matrix(X, X)
    plan, trace = sinkhorn_plan(M, 3.0 / M.max(), 3000, tol=1e-12)
    assert trace.converged_at is not None
    assert np.abs(plan.weights - plan.weights.T).max() <= 1e-8


def test_symmetric_scaling_bounded_by_one():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 10))
    M = cost_matrix(X, X)
    plan, trace = sinkhorn_plan(M, 0.8, 3000, tol=1e-12)
    w = symmetric_scaling(trace)
    assert (w > 0).all()
    assert w.max() <= 1.0 + 1e-12
    rebuilt = w[:, None] * trace.kernel * w[None, :]
    assert np.abs(rebuilt - plan.weights).max() <= 1e-8


def test_symmetric_scaling_requires_square():
    _, trace = sinkhorn_plan(np.ones((2, 3)), 1.0, 5)
    with pytest.raises(InvalidInputError):
        symmetric_scaling(trace)


def test_nonzero_self_distance():
    X = np.array([[0.0, 1.0, 3.0]])
    M = cost_matrix(X, X)
    plan, _ = sinkhorn_plan(M, 2.0, 2000)
    assert regularized_distance(plan, M) > 0.0


def test_neighborhood_preservation():
    # K_ij > (1/min_i v_i) K_ik implies T_ij > T_ik on converged self-transport
    rng = np.random.default_rng(8)
    X = rng.standard_normal((2, 9))
    M = cost_matrix(X, X)
    plan, trace = sinkhorn_plan(M, 1.5, 4000, tol=1e-12)
    v = symmetric_scaling(trace)
    alpha = 1.0 / v.min()
    K = trace.kernel
    T = plan.weights
    n = K.shape[0]
    for i in range(n):
        trigger = K[i][:, None] > alpha * K[i][None, :]
        ordered = T[i][:, None] > T[i][None, :]
        assert not np.any(trigger & ~ordered)


def test_regularized_distance_trivials():
    assert regularized_distance(np.array([[1.0]]), np.array([[5.0]])) == 5.0
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    uniform = np.full((2, 2), 0.25)
    assert regularized_distance(uniform, M) == pytest.approx(0.5, abs=1e-15)


def test_regularized_distance_closed_form_plan():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, _ = sinkhorn_plan(M, 1.0, 500)
    expected = np.exp(-1.0) / (1.0 + np.exp(-1.0))
    assert regularized_distance(plan, M) == pytest.approx(expected, abs=1e-9)


def test_regularized_distance_shape_mismatch():
    with pytest.raises(InvalidInputError):
        regularized_distance(np.ones((2, 2)) / 4, np.zeros((2, 3)))


def test_sinkhorn_input_validation():
    M = np.zeros((2, 2))
    with pytest.raises(InvalidInputError):
        sinkhorn_plan(M, 0.0, 10)
    with pytest.raises(InvalidInputError):
        sinkhorn_plan(M, -1.0, 10)
    with pytest.raises(InvalidInputError):
        sinkhorn_plan(M, 1.0, 0)
    with pytest.raises(InvalidInputError):
        sinkhorn_plan(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0, 10)


def test_sinkhorn_kernel_underflow_reports_scale():
    M = np.array([[1e6, 2e6], [0.0, 1.0]])
    with pytest.raises(NumericalRangeError) as excinfo:
        sinkhorn_plan(M, 1.0, 10)
    assert "2e+06" in str(excinfo.value)


def test_plan_csv_roundtrip(tmp_path):
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan, _ = sinkhorn_plan(M, 1.0, 100)
    path = tmp_path / "plan.csv"
    plan_to_csv(plan, str(path))
    loaded = load_matrix_csv(str(path))
    assert np.array_equal(loaded, plan.weights)


def test_plan_and_trace_json_roundtrip():
    M = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 3.0]])
    plan, trace = sinkhorn_plan(M, 0.7, 25)
    payload = plan_to_json(plan)
    assert payload["shape"] == [2, 3]
    assert np.array_equal(matrix_from_json(payload), plan.weights)
    json.dumps(payload)

    tpayload = trace_to_json(trace)
    assert tpayload["iterations"] == 25
    assert np.array_equal(matrix_from_json(tpayload["kernel"]), trace.kernel)
    json.dumps(tpayload)
