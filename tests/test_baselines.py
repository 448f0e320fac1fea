import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import wda
from helpers import principal_angle, random_stiefel
from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    WdaConfig,
    append_noise,
    fda_fit,
    gen_toy,
    uniform_coupling_covariances,
    wda_fit,
)


def _quotient(P, cb, cw):
    return float(np.sum((P @ cb) * P) / np.sum((P @ cw) * P))


def test_fda_isotropic_classes_mean_direction():
    rng = np.random.default_rng(0)
    n = 500
    X0 = rng.standard_normal((n, 3))
    X1 = rng.standard_normal((n, 3)) + np.array([4.0, 0.0, 0.0])
    data = LabeledDataset(np.vstack([X0, X1]), np.repeat([0, 1], n))
    model = fda_fit(data, 1)
    direction = model.projection[0]
    assert abs(direction[0]) >= 0.99
    assert model.eigenvalues.shape == (1,)
    assert (model.eigenvalues >= 0).all()


def test_fda_identical_classes_flat_quotient():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 4))
    data = LabeledDataset(np.vstack([X, X]), np.repeat([0, 1], 8))
    model = fda_fit(data, 2)
    # C_b = C and C_w = 2C, so every direction scores exactly 1/2
    assert np.abs(model.eigenvalues - 0.5).max() <= 1e-8
    cb, cw = uniform_coupling_covariances(data.class_blocks())
    assert _quotient(model.projection, cb, cw) == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fda_eigenvalues_past_the_first_c_minus_1_are_flat(seed):
    # C_w^{-1} C_b = (C - 1)/2 I + a rank-(C - 1) term: at C = 3 every
    # eigenvalue past the second is 1, up to the ridge
    model = fda_fit(append_noise(gen_toy(20, seed), 5, 1), 5)
    assert np.abs(model.eigenvalues[2:] - 1.0).max() <= 1e-9
    assert (model.eigenvalues[:2] > 1.0 + 1e-3).all()


def test_fda_matches_small_lambda_wda():
    rng = np.random.default_rng(2)
    d, n = 5, 25
    A = rng.standard_normal((d, d))
    cov = A @ A.T / d + 0.5 * np.eye(d)
    root = np.linalg.cholesky(cov)
    delta = np.array([3.0, 1.0, 0.0, 0.0, 0.0])
    X0 = rng.standard_normal((n, d)) @ root.T - delta / 2
    X1 = rng.standard_normal((n, d)) @ root.T + delta / 2
    data = LabeledDataset(np.vstack([X0, X1]), np.repeat([0, 1], n))
    F = fda_fit(data, 1).projection
    cfg = WdaConfig(lam=1e-8, sinkhorn_iters=10, dim=1, max_outer_iter=300, outer_tol=1e-12)
    P, _ = wda_fit(data, cfg)
    assert principal_angle(P, F) <= 1e-2


def test_fda_quotient_maximal_among_random_frames():
    rng = np.random.default_rng(3)
    d = 5
    means = [np.zeros(d), 3.0 * np.eye(d)[0], 2.0 * np.eye(d)[1] + 1.5 * np.eye(d)[2]]
    blocks = [rng.standard_normal((30, d)) * 0.7 + mu for mu in means]
    data = LabeledDataset(np.vstack(blocks), np.repeat([0, 1, 2], 30))
    cb, cw = uniform_coupling_covariances(data.class_blocks())
    for p in (1, 2):
        best = _quotient(fda_fit(data, p).projection, cb, cw)
        for _ in range(1000):
            candidate = _quotient(random_stiefel(rng, p, d), cb, cw)
            assert candidate <= best + 1e-12


def test_fda_translation_invariance():
    # three classes with distinct discriminant directions so both returned
    # eigenvectors have clear eigengaps (a 2-class problem has a degenerate
    # second direction and any basis of the flat eigenspace would be valid)
    rng = np.random.default_rng(4)
    means = [np.zeros(4), np.array([4.0, 0, 0, 0]), np.array([0, 3.0, 0, 0])]
    blocks = [0.7 * rng.standard_normal((20, 4)) + mu for mu in means]
    labels = np.repeat([0, 1, 2], 20)
    data = LabeledDataset(np.vstack(blocks), labels)
    shifted = LabeledDataset(data.samples + np.array([5.0, -3.0, 2.0, 100.0]), labels)
    F1 = fda_fit(data, 2).projection
    F2 = fda_fit(shifted, 2).projection
    assert principal_angle(F1, F2) <= 1e-6


def test_fda_degenerate_within_covariance():
    data = LabeledDataset(
        np.vstack([np.zeros((3, 2)), np.ones((3, 2))]), np.repeat([0, 1], 3)
    )
    with pytest.raises(DegenerateInputError):
        fda_fit(data, 1)


def test_fda_names_a_within_covariance_the_ridge_leaves_singular(monkeypatch):
    def refuse(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    message = "within-class covariance is singular beyond the ridge: Matrix is not positive definite"
    with pytest.raises(DegenerateInputError, match=re.escape(message)):
        fda_fit(gen_toy(10, 0), 2)


def test_fda_refuses_covariances_that_overflow():
    # finite features near 1e200: C_b and C_w overflow, and eigh on them
    # raised numpy's LinAlgError "Eigenvalues did not converge"
    toy = gen_toy(10, 0)
    scaled = LabeledDataset(toy.samples * 1e200, toy.labels)
    message = "the between or within class covariance overflows; rescale the features"
    with pytest.raises(NumericalRangeError, match=message):
        fda_fit(scaled, 2)


def test_fda_input_validation():
    rng = np.random.default_rng(5)
    data = LabeledDataset(rng.standard_normal((10, 3)), np.repeat([0, 1], 5))
    with pytest.raises(InvalidInputError):
        fda_fit(data, 0)
    with pytest.raises(InvalidInputError):
        fda_fit(data, 4)
    one_class = LabeledDataset(rng.standard_normal((5, 3)), np.zeros(5, dtype=int))
    with pytest.raises(DegenerateInputError):
        fda_fit(one_class, 1)


def test_fda_matches_scipy_generalized_eigh():
    # scipy's symmetric-definite solver is the oracle for the Cholesky path
    for seed in range(6):
        data = append_noise(gen_toy(15 + seed, seed), 3 * seed, seed)
        model = fda_fit(data, 2)
        cb, cw = uniform_coupling_covariances(data.class_blocks())
        d = data.n_features
        values, vectors = scipy.linalg.eigh(cb, cw + (1e-10 * np.trace(cw) / d) * np.eye(d))
        order = np.argsort(values)[::-1][:2]
        expected = vectors[:, order].T
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert np.abs(model.eigenvalues - values[order]).max() <= 1e-12 * values.max()
        cosines = np.abs(np.sum(expected * model.projection, axis=1))
        assert (1.0 - cosines).max() <= 1e-12


def test_import_does_not_load_scipy():
    # a fresh interpreter importing the same package this suite tests, and its
    # command: neither loads scipy, a test extra that takes tens of ms to
    # import, nor hashlib, which load_csv imports only to key a sidecar
    src = os.path.dirname(os.path.dirname(wda.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import wda, wda.cli; "
            "sys.exit(sorted({'scipy', 'hashlib'} & set(sys.modules)) or None)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
