"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Criteria 5 and 8 exercise the three-class toy benchmark at base
regularization 1.0; the adaptive per-pair rescaling makes that the natural
dimensionless scale for this problem (see the fit defaults discussion in the
README).
"""

import os
import time

import numpy as np
import pytest

from helpers import (
    fd_gradient,
    plan_jacobian_full,
    principal_angle,
    random_stiefel,
    sinkhorn_plan,
    symmetric_scaling,
)
from iftgrad import ift_jacobian
from wda import (
    WdaConfig,
    cost_matrix,
    error_rate,
    evaluate,
    fda_fit,
    gen_toy,
    gradient,
    knn_predict,
    pca_init,
    wda_fit,
)
from wda.datasets import LabeledDataset, load_csv, split_dataset
from wda.objective import pair_keys

TOY_PLANE = np.eye(10)[:2]


def _report(number, ok, detail):
    print(f"\nACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_sinkhorn_feasibility():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        M = rng.uniform(0, 1, size=(20, 20))
        lam = 5.0 / M.max()
        plan, trace = sinkhorn_plan(M, lam, 1000, tol=1e-9)
        worst = max(worst, plan.feasibility_residual())

    M2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan2, _ = sinkhorn_plan(M2, 1.0, 1000)
    a = 1.0 / (2.0 * (1.0 + np.exp(-1.0)))
    b = np.exp(-1.0) / (2.0 * (1.0 + np.exp(-1.0)))
    closed_form_err = np.abs(
        plan2.weights - np.array([[a, b], [b, a]])
    ).max()
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and closed_form_err <= 1e-6 and elapsed < 1.0
    _report(
        1,
        ok,
        f"sinkhorn feasibility: worst residual {worst:.2e} (<=1e-8), "
        f"closed-form error {closed_form_err:.2e} (<=1e-6), {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        classes = [
            2.0 * rng.standard_normal(6)[:, None] + rng.standard_normal((6, 8))
            for _ in range(3)
        ]
        P = random_stiefel(rng, 2, 6)
        cfg = WdaConfig(lam=0.1, sinkhorn_iters=10)
        lam_map = {key: 0.1 for key in pair_keys(3)}

        def J(Pmat, classes=classes, cfg=cfg, lam_map=lam_map):
            return evaluate(Pmat, classes, cfg, lam_map).value

        G = gradient(evaluate(P, classes, cfg, lam_map))
        fd = fd_gradient(J, P, h=1e-5)
        worst = max(worst, float(np.abs(G - fd).max() / np.abs(fd).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(
        2,
        ok,
        f"gradient vs finite differences over 5 seeds: worst relative error "
        f"{worst:.2e} (<=1e-5), {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_oracle_triangulation():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n, m, d, p, lam = 3, 3, 3, 2, 1.8
    X = rng.standard_normal((d, n))
    Z = rng.standard_normal((d, m))
    P = random_stiefel(rng, p, d)
    J_ift = ift_jacobian(P, X, Z, lam)
    scale = np.abs(J_ift).max()
    deviations = []
    for L in (50, 200, 500):
        M = cost_matrix(P @ X, P @ Z)
        _, trace = sinkhorn_plan(M, lam, L)
        deviations.append(
            float(np.abs(plan_jacobian_full(trace, P, X, Z) - J_ift).max() / scale)
        )
    elapsed = time.perf_counter() - start
    monotone = deviations[0] > deviations[1] > deviations[2]
    ok = monotone and deviations[2] <= 1e-4 and elapsed < 30.0
    _report(
        3,
        ok,
        "unrolled vs implicit-function jacobian: deviations "
        f"{deviations[0]:.2e} > {deviations[1]:.2e} > {deviations[2]:.2e} "
        f"(monotone, final <=1e-4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_4_fda_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    d, n = 5, 30
    A = rng.standard_normal((d, d))
    cov = A @ A.T / d + 0.5 * np.eye(d)
    root = np.linalg.cholesky(cov)
    delta = np.array([3.0, 1.0, 0.0, 0.0, 0.0])
    X0 = rng.standard_normal((n, d)) @ root.T - delta / 2
    X1 = rng.standard_normal((n, d)) @ root.T + delta / 2
    data = LabeledDataset(np.vstack([X0, X1]), np.repeat([0, 1], n))
    cfg = WdaConfig(
        lam=1e-8, sinkhorn_iters=10, dim=1, max_outer_iter=300, outer_tol=1e-12
    )
    P, _ = wda_fit(data, cfg)
    F = fda_fit(data, 1).projection
    angle = principal_angle(P, F)
    elapsed = time.perf_counter() - start
    ok = angle <= 1e-2 and elapsed < 60.0
    _report(
        4,
        ok,
        f"balanced two-class limit: angle(wda, fda) = {angle:.2e} rad "
        f"(<=1e-2), {elapsed:.1f}s (<60s)",
    )


def _toy_fit_errors(seed, lam, ks=(5,)):
    train = gen_toy(34, seed)
    test = gen_toy(334, 10_000 + seed)
    cfg = WdaConfig(lam=lam, sinkhorn_iters=10, dim=2)
    P, _ = wda_fit(train, cfg)
    errors = [
        error_rate(
            knn_predict(train.samples @ P.T, train.labels, test.samples @ P.T, k),
            test.labels,
        )
        for k in ks
    ]
    return P, errors, train, test


def test_criterion_5_toy_experiment():
    start = time.perf_counter()
    wda_errors, pca_errors, angles = [], [], []
    for seed in range(10):
        P, errs, train, test = _toy_fit_errors(seed, lam=1.0)
        wda_errors.append(errs[0])
        angles.append(principal_angle(P, TOY_PLANE))
        Ppca = pca_init(train.samples.T, 2)
        pca_errors.append(
            error_rate(
                knn_predict(
                    train.samples @ Ppca.T, train.labels, test.samples @ Ppca.T, 5
                ),
                test.labels,
            )
        )
    gap = float(np.mean(pca_errors) - np.mean(wda_errors))
    mean_angle = float(np.degrees(np.mean(angles)))
    elapsed = time.perf_counter() - start
    ok = gap >= 0.10 and mean_angle <= 20.0 and elapsed < 600.0
    _report(
        5,
        ok,
        f"toy benchmark over 10 seeds: wda error {np.mean(wda_errors):.3f}, "
        f"pca error {np.mean(pca_errors):.3f}, gap {gap:+.3f} (>=0.10); "
        f"mean plane angle {mean_angle:.1f} deg (<=20); {elapsed:.0f}s (<600s)",
    )


def _converged_self_transport(rng):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(2, 6))
    X = rng.standard_normal((d, n))
    M = cost_matrix(X, X)
    lam = float(rng.uniform(1.0, 4.0)) / M.max()
    plan, trace = sinkhorn_plan(M, lam, 5000, tol=1e-12)
    assert trace.converged_at is not None
    return plan, trace


def test_criterion_6_lemma_suite():
    rng = np.random.default_rng(6)
    worst_asym = 0.0
    worst_scaling = 0.0
    for _ in range(20):
        plan, trace = _converged_self_transport(rng)
        worst_asym = max(
            worst_asym, float(np.abs(plan.weights - plan.weights.T).max())
        )
        worst_scaling = max(worst_scaling, float(symmetric_scaling(trace).max()))
    ok = worst_asym <= 1e-8 and worst_scaling <= 1.0 + 1e-12
    _report(
        6,
        ok,
        f"self-transport lemmas over 20 instances: worst asymmetry "
        f"{worst_asym:.2e} (<=1e-8), max scaling entry {worst_scaling:.6f} (<=1)",
    )


def test_criterion_7_neighborhood_preservation():
    rng = np.random.default_rng(7)
    violations = 0
    triples = 0
    for _ in range(20):
        plan, trace = _converged_self_transport(rng)
        K = trace.kernel
        T = plan.weights
        alpha = 1.0 / symmetric_scaling(trace).min()
        for i in range(K.shape[0]):
            trigger = K[i][:, None] > alpha * K[i][None, :]
            ordered = T[i][:, None] > T[i][None, :]
            triples += int(trigger.sum())
            violations += int(np.sum(trigger & ~ordered))
    ok = violations == 0 and triples > 0
    _report(
        7,
        ok,
        f"neighborhood preservation: {violations} violations over {triples} "
        "triggered triples across 20 instances (expected 0)",
    )


def test_criterion_8_lambda_robustness():
    start = time.perf_counter()
    means = []
    grid = (1.0, 2.0, 4.0, 8.0)  # factor-8 span
    for lam in grid:
        errors = [_toy_fit_errors(seed, lam=lam)[1][0] for seed in range(5)]
        means.append(float(np.mean(errors)))
    spread = max(means) - min(means)
    elapsed = time.perf_counter() - start
    ok = spread <= 0.05
    _report(
        8,
        ok,
        f"toy error across lambda {grid}: means "
        f"{[f'{m:.3f}' for m in means]}, spread {spread:.3f} (<=0.05 over a "
        f"factor-8 span); {elapsed:.0f}s",
    )


MNIST_CSV = os.environ.get("WDA_MNIST_CSV", "")


@pytest.mark.skipif(
    not (MNIST_CSV and os.path.exists(MNIST_CSV)),
    reason="optional smoke test; point WDA_MNIST_CSV at a digits CSV to enable",
)
def test_optional_mnist_subset_smoke():
    data = load_csv(MNIST_CSV)
    rng = np.random.default_rng(0)
    keep = rng.permutation(data.n_samples)[:1000]
    subset = LabeledDataset(data.samples[keep], data.labels[keep])
    train, test = split_dataset(subset, 0.5, seed=0)
    cfg = WdaConfig(lam=0.01, sinkhorn_iters=10, dim=10, max_outer_iter=20)
    P, _ = wda_fit(train, cfg)
    Ppca = pca_init(train.samples.T, 10)
    wda_err = error_rate(
        knn_predict(train.samples @ P.T, train.labels, test.samples @ P.T, 3),
        test.labels,
    )
    pca_err = error_rate(
        knn_predict(train.samples @ Ppca.T, train.labels, test.samples @ Ppca.T, 3),
        test.labels,
    )
    print(f"\nMNIST smoke: wda {wda_err:.3f} vs pca {pca_err:.3f}")
    assert wda_err < pca_err
