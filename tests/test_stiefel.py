import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import asdict

from helpers import principal_angle, random_stiefel, replay_wda_fit, traced_peak
from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    WdaConfig,
    append_noise,
    fda_fit,
    gen_toy,
    pca_init,
    project_stiefel,
    wda_fit,
)
from wda import objective, stiefel
from wda.objective import adaptive_lambdas, evaluate, gradient
from wda.stiefel import riemannian_gradient


def test_project_stiefel_idempotent_on_orthonormal():
    rng = np.random.default_rng(0)
    P = random_stiefel(rng, 3, 6)
    assert np.abs(project_stiefel(P) - P).max() <= 1e-12


def test_project_stiefel_positive_diagonal():
    A = np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]])
    P = project_stiefel(A)
    assert np.abs(P - np.eye(4)[:2]).max() <= 1e-12


def test_project_stiefel_matches_polar_oracle():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 5))
    P = project_stiefel(A)
    assert np.abs(P @ P.T - np.eye(2)).max() <= 1e-12
    oracle, _ = scipy.linalg.polar(A, side="right")
    assert np.abs(P - oracle).max() <= 1e-10


def test_project_stiefel_rank_deficient():
    A = np.zeros((2, 4))
    A[0, 0] = 1.0
    A[1, 0] = 1.0
    with pytest.raises(DegenerateInputError):
        project_stiefel(A)
    with pytest.raises(InvalidInputError):
        project_stiefel(np.ones((4, 2)))


def test_project_stiefel_refuses_a_matrix_of_no_rows():
    # p = 0 left numpy's IndexError from the empty singular values
    with pytest.raises(InvalidInputError, match=r"1 <= p <= d, got shape \(0, 3\)"):
        project_stiefel(np.zeros((0, 3)))


def test_pca_init_axis_aligned_data():
    rng = np.random.default_rng(2)
    X = np.zeros((3, 50))
    X[0] = rng.standard_normal(50)
    P = pca_init(X, 1)
    assert abs(abs(P[0, 0]) - 1.0) <= 1e-10
    assert np.abs(P[0, 1:]).max() <= 1e-10


def test_pca_init_full_dimension_isotropic():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 300))
    P = pca_init(X, 4)
    assert np.abs(P @ P.T - np.eye(4)).max() <= 1e-10


def test_pca_init_anisotropic_recovers_leading_plane():
    # population covariance diag(9, 1, 0.01): the top-2 eigenvector plane is
    # span{e1, e2}; at n=2000 the sample estimate lands within 5 degrees
    rng = np.random.default_rng(4)
    scales = np.array([3.0, 1.0, 0.1])
    X = scales[:, None] * rng.standard_normal((3, 2000))
    P = pca_init(X, 2)
    angle = principal_angle(P, np.eye(3)[:2])
    assert np.degrees(angle) <= 5.0


def test_pca_init_rank_guard():
    X = np.outer(np.ones(4), np.linspace(0, 1, 10))
    with pytest.raises(DegenerateInputError):
        pca_init(X, 2)
    with pytest.raises(InvalidInputError):
        pca_init(np.ones((3, 1)), 1)


def test_riemannian_gradient_is_tangential():
    rng = np.random.default_rng(5)
    P = random_stiefel(rng, 2, 5)
    G = rng.standard_normal((2, 5))
    xi = riemannian_gradient(P, G)
    skew = xi @ P.T + P @ xi.T
    assert np.abs(skew).max() <= 1e-12


def _ambient_gradient(data, cfg, P):
    blocks = data.class_blocks()
    return gradient(evaluate(P, blocks, cfg, adaptive_lambdas(P, blocks, cfg.lam)))


def test_gradient_norms_are_riemannian():
    data = gen_toy(12, seed=0)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=1)
    _, report = wda_fit(data, cfg)
    P0 = pca_init(data.samples.T, 2)
    G = _ambient_gradient(data, cfg, P0)
    riemannian = np.linalg.norm(riemannian_gradient(P0, G))
    assert report.gradient_norms[0] == pytest.approx(riemannian, rel=1e-12)
    assert report.gradient_norms[0] <= np.linalg.norm(G)


def test_gradient_norm_vanishes_at_a_stationary_start():
    # with p = d every projection is a rotation Q of the identity and
    # J(Q P) = J(P), so J is constant on the manifold; its ambient gradient is
    # not zero, only the tangential part is
    rng = np.random.default_rng(7)
    data = LabeledDataset(rng.standard_normal((20, 3)), np.repeat([0, 1], 10))
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10, dim=3)
    _, report = wda_fit(data, cfg)
    ambient = np.linalg.norm(_ambient_gradient(data, cfg, pca_init(data.samples.T, 3)))
    assert ambient >= 0.1
    assert report.gradient_norms == [pytest.approx(0.0, abs=1e-12 * ambient)]


def test_linesearch_starts_from_the_carried_step(monkeypatch):
    # at lam = 100 the accepted step settles near 1/64; restarting every
    # linesearch at 1 cost 6.5 evaluations per iteration on this data
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(stiefel, "evaluate", counted)
    _, report = wda_fit(gen_toy(34, 0), WdaConfig(lam=100.0, sinkhorn_iters=10, dim=2))
    steps, evaluations = report.step_sizes, report.evaluations
    assert len(evaluations) == len(report.gradient_norms) == len(report.iteration_seconds)
    assert sum(evaluations) + 1 == len(calls)
    assert report.n_iterations >= 10
    assert steps[0] == 0.5 ** (evaluations[0] - 1)
    for t in range(1, len(steps)):
        assert steps[t] == min(1.0, 2.0 * steps[t - 1]) * 0.5 ** (evaluations[t] - 1)
    assert np.mean(evaluations) <= 3.0
    assert report.to_json()["evaluations"] == evaluations


def _unequal_classes(n_per_class, sizes, seed):
    toy = gen_toy(n_per_class, seed)
    keep = np.concatenate([np.flatnonzero(toy.labels == c)[:n] for c, n in enumerate(sizes)])
    return LabeledDataset(toy.samples[keep], toy.labels[keep])


@pytest.mark.parametrize(
    "data, cfg, backtracks",
    [
        # lam = 100: the line search rejects trials, whose stacks the next
        # trial writes into
        (gen_toy(34, 0), WdaConfig(lam=100.0, sinkhorn_iters=10, dim=2), True),
        # class sizes 30/20/30: four shape groups, one of them three pairs
        (_unequal_classes(30, (30, 20, 30), 4), WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2),
         False),
        (append_noise(gen_toy(100, 3), 20, 4),
         WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=30, outer_tol=0.0), False),
    ],
    ids=["lam100-backtracking", "unequal-classes", "wide"],
)
def test_wda_fit_equals_a_replay_on_fresh_evaluations(data, cfg, backtracks):
    # wda_fit recycles the stacks of states it no longer reads; a plain replay
    # of its loop on public evaluate calls must give the same fit bit for bit
    P, report = wda_fit(data, cfg)
    P_replay, expected = replay_wda_fit(data, cfg)
    assert P.tobytes() == P_replay.tobytes()
    fields = asdict(report)
    del fields["iteration_seconds"]
    assert fields == expected
    assert any(e > 1 for e in report.evaluations) == backtracks
    assert report.n_iterations >= 10


def _identical_classes_data(rng, d=4, n=6):
    X = rng.standard_normal((n, d))
    samples = np.vstack([X, X])
    labels = np.repeat([0, 1], n)
    return LabeledDataset(samples, labels)


def test_wda_fit_identical_classes_stops_immediately():
    rng = np.random.default_rng(6)
    data = _identical_classes_data(rng)
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10, dim=2)
    P, report = wda_fit(data, cfg)
    assert report.termination == "stationary"
    assert report.n_iterations == 0
    assert report.gradient_norms[0] <= 1e-10
    assert report.evaluations == [0]
    assert np.array_equal(P, pca_init(data.samples.T, 2))


def test_wda_fit_full_dimension_makes_no_progress():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((20, 3))
    labels = np.repeat([0, 1], 10)
    data = LabeledDataset(samples, labels)
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10, dim=3)
    P, report = wda_fit(data, cfg)
    assert report.termination == "stationary"
    assert report.n_iterations == 0


def test_wda_fit_small_lambda_matches_fda_subspace():
    rng = np.random.default_rng(8)
    d, n = 4, 20
    A = rng.standard_normal((d, d))
    cov = A @ A.T / d + 0.4 * np.eye(d)
    root = np.linalg.cholesky(cov)
    delta = np.array([2.5, 0.5, 0.0, 0.0])
    X0 = rng.standard_normal((n, d)) @ root.T - delta / 2
    X1 = rng.standard_normal((n, d)) @ root.T + delta / 2
    data = LabeledDataset(np.vstack([X0, X1]), np.repeat([0, 1], n))
    cfg = WdaConfig(lam=1e-8, sinkhorn_iters=10, dim=1, max_outer_iter=300, outer_tol=1e-12)
    P, _ = wda_fit(data, cfg)
    F = fda_fit(data, 1).projection
    assert principal_angle(P, F) <= 1e-2


def test_wda_fit_trajectory_invariants():
    train = gen_toy(12, seed=0)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=30)
    P, report = wda_fit(train, cfg)
    assert np.abs(P @ P.T - np.eye(2)).max() <= 1e-10
    values = np.asarray(report.objective_values)
    assert (np.diff(values) >= 0).all()
    assert report.best_objective == values.max()
    assert len(report.step_sizes) == report.n_iterations
    assert len(report.objective_values) == report.n_iterations + 1
    assert report.termination in {"converged", "stationary", "stalled", "max_iterations"}
    assert all(s > 0 for s in report.step_sizes)
    payload = report.to_json()
    assert payload["n_iterations"] == report.n_iterations
    assert "0,1" in payload["pair_lambdas"]


def test_wda_fit_holds_one_state_through_each_gradient():
    # the second iteration's gradient sets the peak: one state, its reverse
    # pass and one cotangent; keeping the replaced state alive as well took
    # it to 2.43 kernel stacks, and copying the class blocks to 1.96
    data = append_noise(gen_toy(100, 2), 20, 3)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=2, outer_tol=0.0)
    stack_bytes = 6 * 100 * 100 * 8
    assert traced_peak(lambda: wda_fit(data, cfg)) < 1.88 * stack_bytes


@pytest.mark.parametrize("max_outer_iter", [5, 10])
def test_a_fit_scans_its_class_blocks_a_fixed_number_of_times(monkeypatch, max_outer_iter):
    # twice for the lambda map and once for the first evaluation; every
    # line-search trial trusts the blocks of the state it overwrites
    scans = []
    check = objective._check_classes
    monkeypatch.setattr(objective, "_check_classes", lambda classes: scans.append(1) or check(classes))
    wda_fit(gen_toy(34, 0), WdaConfig(lam=1.0, max_outer_iter=max_outer_iter, outer_tol=0.0))
    assert len(scans) == 3


def test_wda_fit_deterministic():
    train = gen_toy(10, seed=1)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=20)
    P1, r1 = wda_fit(train, cfg)
    P2, r2 = wda_fit(train, cfg)
    assert np.array_equal(P1, P2)
    assert r1.objective_values == r2.objective_values
    assert r1.step_sizes == r2.step_sizes
    assert r1.gradient_norms == r2.gradient_norms
    assert r1.termination == r2.termination


def test_wda_fit_input_validation():
    rng = np.random.default_rng(9)
    one_class = LabeledDataset(rng.standard_normal((5, 3)), np.zeros(5, dtype=int))
    cfg = WdaConfig(dim=2)
    with pytest.raises(DegenerateInputError):
        wda_fit(one_class, cfg)
    tiny_class = LabeledDataset(
        rng.standard_normal((4, 3)), np.array([0, 0, 0, 1])
    )
    with pytest.raises(DegenerateInputError):
        wda_fit(tiny_class, cfg)
    data = LabeledDataset(rng.standard_normal((8, 3)), np.repeat([0, 1], 4))
    with pytest.raises(InvalidInputError):
        wda_fit(data, WdaConfig(dim=5))


def test_wda_fit_rejects_non_finite_samples():
    data = gen_toy(10, 0)
    data.samples[4, 3] = np.nan
    with pytest.raises(InvalidInputError, match="samples has a non-finite value at row 4, column 3"):
        wda_fit(data, WdaConfig(lam=1.0, dim=2))


def test_wda_fit_rejects_non_finite_init():
    # NaN rows pass an orthonormality check written as "deviation > tol"
    data = gen_toy(10, 0)
    with pytest.raises(InvalidInputError, match="init has a non-finite value at row 0, column 0"):
        wda_fit(data, WdaConfig(lam=1.0, dim=2), init=np.full((2, data.n_features), np.nan))


def test_wda_fit_non_finite_gradient_raises():
    # at lam=300 the fixed-L scalings of pair (0, 2) reach ~1e282 and the
    # reverse pass overflows already at the PCA start
    with pytest.raises(NumericalRangeError, match=r"class pair \(0, 2\).*lambda"):
        wda_fit(gen_toy(34, 19), WdaConfig(lam=300, sinkhorn_iters=10, dim=2))


def test_wda_fit_accepts_explicit_init():
    rng = np.random.default_rng(10)
    data = LabeledDataset(
        np.vstack([rng.standard_normal((8, 3)) - 1, rng.standard_normal((8, 3)) + 1]),
        np.repeat([0, 1], 8),
    )
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=5, dim=2, max_outer_iter=5)
    init = random_stiefel(rng, 2, 3)
    P, _ = wda_fit(data, cfg, init=init)
    assert P.shape == (2, 3)
    with pytest.raises(InvalidInputError):
        wda_fit(data, cfg, init=np.ones((2, 3)))
    for wrong in (np.eye(3)[:2, :2], np.eye(3)):
        message = f"init shape {wrong.shape} does not match (2, 3)"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            wda_fit(data, cfg, init=wrong)


def test_wda_fit_fixes_the_lambda_map_at_the_pca_start_whatever_the_init():
    data = gen_toy(12, seed=3)
    cfg = WdaConfig(lam=1.0, dim=2, max_outer_iter=3)
    init = random_stiefel(np.random.default_rng(4), 2, data.n_features)
    _, report = wda_fit(data, cfg, init=init)
    expected = adaptive_lambdas(pca_init(data.samples.T, 2), data.class_blocks(), 1.0)
    assert report.pair_lambdas == expected
    assert report.pair_lambdas != adaptive_lambdas(init, data.class_blocks(), 1.0)
    assert wda_fit(data, cfg)[1].pair_lambdas == expected


def _short_fit(data, sinkhorn_iters=10):
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=sinkhorn_iters, dim=2, max_outer_iter=5, outer_tol=0.0)
    return wda_fit(data, cfg)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 10.0),
    st.lists(st.floats(-10.0, 10.0), min_size=10, max_size=10),
)
def test_wda_fit_invariant_under_scaling_and_shift(seed, scale, shift):
    # the PCA start ignores both; the per-pair lambdas are divided by the
    # mean projected squared distance, so lambda * M, the plans and J do not
    # change under X -> c X, and X -> X + b moves no difference x_i - x'_j
    data = gen_toy(12, seed)
    P, report = _short_fit(data)
    for moved in (scale * data.samples, data.samples + np.asarray(shift)):
        P_moved, report_moved = _short_fit(LabeledDataset(moved, data.labels))
        assert np.abs(P_moved - P).max() <= 1e-10
        assert report_moved.n_iterations == report.n_iterations


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations([0, 1, 2]))
def test_wda_fit_invariant_under_relabelling_at_large_sinkhorn_budget(seed, perm):
    # relabelling turns the plan of some class pairs (c, c') into the plan
    # of (c', c), i.e. the cost M into M^T. Fixed-L Sinkhorn is not
    # symmetric in its marginals: on gen_toy(12, 0), T(M^T) differs from
    # T(M)^T by ~1e-9 at L = 10 and by ~7e-18 at L = 100, and at L = 10 the
    # fits differ by up to ~4e-6. At L = 200 they agree to rounding
    data = gen_toy(12, seed)
    relabelled = LabeledDataset(data.samples, np.asarray(perm)[data.labels])
    P, _ = _short_fit(data, sinkhorn_iters=200)
    P_relabelled, _ = _short_fit(relabelled, sinkhorn_iters=200)
    assert np.abs(P_relabelled - P).max() <= 1e-10
