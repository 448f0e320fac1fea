import numpy as np
import pytest
import scipy.linalg

from helpers import principal_angle, random_stiefel
from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    WdaConfig,
    fda_fit,
    gen_toy,
    pca_init,
    project_stiefel,
    riemannian_gradient,
    wda_fit,
)


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
