import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, random_stiefel, reference_objective
from wda import (
    DegenerateInputError,
    InvalidInputError,
    NumericalRangeError,
    WdaConfig,
    adaptive_lambdas,
    append_noise,
    cross_covariance,
    evaluate,
    gen_toy,
    gradient,
    pair_keys,
    pca_init,
    pair_lambda,
    riemannian_gradient,
    sinkhorn_vjp,
    uniform_coupling_covariances,
)


def _gaussian_classes(rng, d, n_c, n_classes, spread=2.0):
    return [
        spread * rng.standard_normal(d)[:, None] + rng.standard_normal((d, n_c))
        for _ in range(n_classes)
    ]


def test_adaptive_lambdas_regular_simplex():
    # classes {e1, e2} and {e3, e4}: every distinct pair is at squared
    # distance 2, so the inter mean is 2 and each intra mean is (0+2+2+0)/4
    classes = [np.eye(4)[:, :2], np.eye(4)[:, 2:]]
    lam_map = adaptive_lambdas(np.eye(4), classes, 0.5)
    assert lam_map[(0, 1)] == pytest.approx(0.25, abs=1e-15)
    assert lam_map[(0, 0)] == pytest.approx(0.5, abs=1e-15)
    assert lam_map[(1, 1)] == pytest.approx(0.5, abs=1e-15)


def test_pair_lambda_single_points():
    Xc = np.array([[0.0], [0.0]])
    Xcp = np.array([[3.0], [0.0]])
    assert pair_lambda(np.eye(2), Xc, Xcp, 0.01) == pytest.approx(1.0 / 900.0, rel=1e-12)


def test_adaptive_lambdas_match_double_loop():
    rng = np.random.default_rng(0)
    classes = _gaussian_classes(rng, 4, 5, 3)
    P0 = random_stiefel(rng, 2, 4)
    lam_map = adaptive_lambdas(P0, classes, 0.3)
    for c, cp in pair_keys(3):
        Yc = P0 @ classes[c]
        Ycp = P0 @ classes[cp]
        total = 0.0
        for i in range(Yc.shape[1]):
            for j in range(Ycp.shape[1]):
                total += np.sum((Yc[:, i] - Ycp[:, j]) ** 2)
        mean = total / (Yc.shape[1] * Ycp.shape[1])
        assert lam_map[(c, cp)] == pytest.approx(0.3 / mean, rel=1e-12)


def test_adaptive_lambdas_degenerate_pair():
    # a class of identical points has zero mean intra distance
    classes = [np.zeros((3, 4)), np.ones((3, 4))]
    with pytest.raises(DegenerateInputError):
        adaptive_lambdas(np.eye(3), classes, 0.1)


def test_cross_covariance_single_pair():
    Xc = np.array([[1.0], [0.0]])
    Xcp = np.array([[0.0], [0.0]])
    C = cross_covariance(Xc, Xcp, np.array([[1.0]]))
    assert np.abs(C - [[1.0, 0.0], [0.0, 0.0]]).max() <= 1e-15


def test_cross_covariance_identity_plan_on_identical_points():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 5))
    C = cross_covariance(X, X, np.eye(5) / 5.0)
    assert np.abs(C).max() <= 1e-15


def test_cross_covariance_matches_double_loop():
    rng = np.random.default_rng(2)
    Xc = rng.standard_normal((4, 5))
    Xcp = rng.standard_normal((4, 3))
    T = np.full((5, 3), 1.0 / 15.0)
    C = cross_covariance(Xc, Xcp, T)
    brute = np.zeros((4, 4))
    for i in range(5):
        for j in range(3):
            diff = Xc[:, i] - Xcp[:, j]
            brute += T[i, j] * np.outer(diff, diff)
    assert np.abs(C - brute).max() <= 1e-12


def test_cross_covariance_shape_mismatch():
    with pytest.raises(InvalidInputError):
        cross_covariance(np.zeros((3, 2)), np.zeros((3, 2)), np.ones((2, 3)) / 6)
    with pytest.raises(InvalidInputError):
        cross_covariance(np.zeros((3, 2)), np.zeros((2, 2)), np.ones((2, 2)) / 4)


def test_evaluate_identical_classes_half():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 6))
    classes = [X, X]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 4)
    state = evaluate(P, classes, cfg, adaptive_lambdas(P, classes, cfg.lam))
    assert state.value == pytest.approx(0.5, abs=1e-12)


def test_evaluate_fda_limit_matches_rayleigh_quotient():
    rng = np.random.default_rng(4)
    classes = _gaussian_classes(rng, 5, 7, 3)
    P = random_stiefel(rng, 2, 5)
    cfg = WdaConfig(lam=1e-9, sinkhorn_iters=30)
    state = evaluate(P, classes, cfg)  # constant tiny lambda for every pair
    cb, cw = uniform_coupling_covariances(classes)
    expected = np.sum((P @ cb) * P) / np.sum((P @ cw) * P)
    assert state.value == pytest.approx(expected, rel=1e-6)


def test_evaluate_full_dimension_orthogonal_invariance():
    rng = np.random.default_rng(5)
    classes = _gaussian_classes(rng, 4, 6, 2)
    cfg = WdaConfig(lam=0.4, sinkhorn_iters=12)
    P1 = random_stiefel(rng, 4, 4)
    P2 = random_stiefel(rng, 4, 4)
    v1 = evaluate(P1, classes, cfg).value
    v2 = evaluate(P2, classes, cfg).value
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_evaluate_permutation_invariance():
    rng = np.random.default_rng(6)
    classes = _gaussian_classes(rng, 4, 6, 2)
    cfg = WdaConfig(lam=0.7, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 4)
    lam_map = {key: 0.2 for key in pair_keys(2)}
    base = evaluate(P, classes, cfg, lam_map).value
    perm = rng.permutation(6)
    shuffled = [classes[0][:, perm], classes[1]]
    assert evaluate(P, shuffled, cfg, lam_map).value == pytest.approx(base, rel=1e-12)


def test_evaluate_zero_within_dispersion_raises():
    # classes whose points all coincide: every within covariance vanishes
    classes = [np.zeros((3, 4)), np.ones((3, 4))]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=5)
    P = np.eye(3)[:2]
    lam_map = {key: 0.5 for key in pair_keys(2)}
    with pytest.raises(DegenerateInputError):
        evaluate(P, classes, cfg, lam_map)


def test_evaluate_names_the_underflowing_pair():
    # 1-d classes near 0, 0 and 100: at lambda 1 every kernel entry of a
    # pair with class 2 underflows, at lambda 1e-3 none does
    rng = np.random.default_rng(11)
    classes = [rng.standard_normal((1, 3)), rng.standard_normal((1, 2)),
               100.0 + rng.standard_normal((1, 3))]
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=5, dim=1)
    P = np.eye(1)
    lam_map = {key: 1e-3 for key in pair_keys(3)}
    evaluate(P, classes, cfg, lam_map)
    with pytest.raises(NumericalRangeError, match=r"class pair \(0, 2\) at lambda 1: kernel row underflow"):
        evaluate(P, classes, cfg, {**lam_map, (0, 2): 1.0})
    # (0, 1) is the first failing pair in pair order, though the (3, 3)
    # pairs (0, 0), (0, 2), (2, 2) form the first shape group
    with pytest.raises(NumericalRangeError, match=r"class pair \(0, 1\) at lambda 1e\+06"):
        evaluate(P, classes, cfg, {**lam_map, (0, 1): 1e6, (0, 2): 1.0})


@pytest.mark.parametrize(
    "sizes, lam, iters",
    [((34, 34, 34), 1.0, 10), ((34, 34, 34), 100.0, 10), ((30, 20, 30), 1.0, 10),
     ((30, 20, 30), 1.0, 80), ((12, 7, 9, 7), 10.0, 30)],
)
def test_batched_objective_matches_per_pair_reference(sizes, lam, iters):
    # evaluate and gradient stack the pairs of one plan shape; they must
    # equal a per-pair loop bit for bit, for one shape group or several
    data = gen_toy(max(sizes), 5)
    rng = np.random.default_rng(5)
    extra = rng.standard_normal((data.n_features, max(sizes)))
    blocks = data.class_blocks() + [extra] * (len(sizes) - 3)
    classes = [X[:, :n] for X, n in zip(blocks, sizes)]
    cfg = WdaConfig(lam=lam, sinkhorn_iters=iters, dim=2)
    P = pca_init(np.hstack(classes), 2)
    lam_map = adaptive_lambdas(P, classes, lam)
    state = evaluate(P, classes, cfg, lam_map)
    reference = reference_objective(P, classes, cfg, lam_map)
    assert list(state.traces) == list(state.costs) == pair_keys(len(sizes))
    assert state.value == reference["value"]
    assert state.to_json()["pair_residuals"] == reference["pair_residuals"]
    assert {key: t.converged_at for key, t in state.traces.items()} == reference["converged_at"]
    assert np.array_equal(gradient(P, classes, cfg, lam_map, state=state), reference["gradient"])


def _covariance_form(P, classes, state):
    """Value and gradient of the ratio as transport-weighted d x d
    covariances: sigma^2 = <P^T P, sum of cross_covariance(X_c, X_c', T)>, and
    dJ/dP = 2 P sum of cross_covariance(X_c, X_c', G) over the pair
    cotangents G = coef * T + sinkhorn_vjp(trace, coef * M)."""
    d = P.shape[1]
    cb, cw = np.zeros((d, d)), np.zeros((d, d))
    for (c, cp), trace in state.traces.items():
        C = cross_covariance(classes[c], classes[cp], trace.plan_weights())
        if cp == c:
            cw += C
        else:
            cb += C
    sb2 = float(np.sum((P @ cb) * P))
    sw2 = float(np.sum((P @ cw) * P))
    C = np.zeros((d, d))
    for (c, cp), trace in state.traces.items():
        coef = -sb2 / sw2**2 if cp == c else 1.0 / sw2
        G = coef * trace.plan_weights() + sinkhorn_vjp(trace, coef * state.costs[(c, cp)])
        C += cross_covariance(classes[c], classes[cp], G)
    return sb2 / sw2, 2.0 * P @ C


@pytest.mark.parametrize(
    "sizes, lam, noise",
    [((34, 34, 34), 1.0, 0), ((34, 34, 34), 100.0, 0), ((30, 20, 30), 1.0, 0),
     ((30, 20, 30), 100.0, 0), ((100, 100, 100), 1.0, 20)],
)
def test_projected_space_objective_matches_covariance_form(sizes, lam, noise):
    # evaluate sums <T, M> and gradient pulls each pair cotangent back
    # through the projected blocks; both must agree with the d x d form
    data = gen_toy(max(sizes), 8)
    if noise:
        data = append_noise(data, noise, 9)
    classes = [X[:, :n] for X, n in zip(data.class_blocks(), sizes)]
    cfg = WdaConfig(lam=lam, sinkhorn_iters=10, dim=2)
    P = pca_init(np.hstack(classes), 2)
    lam_map = adaptive_lambdas(P, classes, lam)
    state = evaluate(P, classes, cfg, lam_map)
    G = gradient(P, classes, cfg, lam_map, state=state)
    value, expected = _covariance_form(P, classes, state)
    assert abs(state.value - value) <= 1e-12 * abs(value)
    assert np.abs(G - expected).max() <= 1e-12 * np.abs(expected).max()


def _random_orthogonal(rng, p):
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_objective_invariant_under_rotation_of_the_projection(seed, p):
    # J depends on P only through ||P (x_i - x'_j)||^2, so J(QP) = J(P) and
    # the gradient rotates along: grad J(QP) = Q grad J(P)
    rng = np.random.default_rng(seed)
    classes = _gaussian_classes(rng, 4, 6, 3)
    P = random_stiefel(rng, p, 4)
    Q = _random_orthogonal(rng, p)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=p)
    lam_map = adaptive_lambdas(P, classes, cfg.lam)
    base = evaluate(P, classes, cfg, lam_map)
    rotated = evaluate(Q @ P, classes, cfg, lam_map)
    assert rotated.value == pytest.approx(base.value, rel=1e-10)
    G = gradient(P, classes, cfg, lam_map, state=base)
    G_rotated = gradient(Q @ P, classes, cfg, lam_map, state=rotated)
    assert np.abs(G_rotated - Q @ G).max() <= 1e-8 * np.abs(G).max()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_objective_invariant_under_common_shift(seed, a, b):
    # shifting every class block by one vector leaves all differences
    # x_i - x'_j, hence J and its gradient, unchanged
    rng = np.random.default_rng(seed)
    classes = _gaussian_classes(rng, 4, 6, 3)
    shift = np.array([a, b, -a, 0.5 * b])[:, None]
    P = random_stiefel(rng, 2, 4)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2)
    lam_map = adaptive_lambdas(P, classes, cfg.lam)
    shifted = [X + shift for X in classes]
    base = evaluate(P, classes, cfg, lam_map)
    moved = evaluate(P, shifted, cfg, lam_map)
    assert moved.value == pytest.approx(base.value, rel=1e-9)
    G = gradient(P, classes, cfg, lam_map, state=base)
    G_moved = gradient(P, shifted, cfg, lam_map, state=moved)
    assert np.abs(G_moved - G).max() <= 1e-7 * np.abs(G).max()


@pytest.mark.parametrize("n_per_class, noise", [(34, 0), (100, 20)])
def test_gradient_peak_memory_below_line_search_evaluate(n_per_class, noise):
    # a fit's line search evaluates while the previous state is alive; the
    # gradient, run with its own state alive, must allocate less than that
    data = gen_toy(n_per_class, 2)
    if noise:
        data = append_noise(data, noise, 3)
    classes = data.class_blocks()
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2)
    P = pca_init(data.samples.T, 2)
    lam_map = adaptive_lambdas(P, classes, cfg.lam)
    state = evaluate(P, classes, cfg, lam_map)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    gradient_peak = peak(lambda: gradient(P, classes, cfg, lam_map, state=state))
    evaluate_peak = peak(lambda: evaluate(P, classes, cfg, lam_map))
    assert gradient_peak < evaluate_peak


def test_evaluate_and_gradient_name_a_non_finite_class_block():
    rng = np.random.default_rng(14)
    classes = _gaussian_classes(rng, 4, 5, 3)
    classes[1][2, 3] = np.nan
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=5)
    P = random_stiefel(rng, 2, 4)
    lam_map = {key: 0.5 for key in pair_keys(3)}
    message = "class 1 sample block has a non-finite value at row 2, column 3"
    with pytest.raises(InvalidInputError, match=message):
        evaluate(P, classes, cfg, lam_map)
    with pytest.raises(InvalidInputError, match=message):
        gradient(P, classes, cfg, lam_map)
    classes[1][2, 3] = 0.0
    P[1, 2] = np.inf
    with pytest.raises(InvalidInputError, match="projection has a non-finite value at row 1, column 2"):
        evaluate(P, classes, cfg, lam_map)


def test_evaluate_refuses_overflowing_costs():
    # finite samples near 1e200 overflow the squared distances
    rng = np.random.default_rng(15)
    classes = [1e200 * X for X in _gaussian_classes(rng, 3, 4, 2)]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=5)
    P = random_stiefel(rng, 2, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalRangeError, match=r"class pair \(0, 0\): the projected squared distances overflow"):
            evaluate(P, classes, cfg, {key: 0.5 for key in pair_keys(2)})


def test_gradient_identical_classes_is_zero():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 6))
    classes = [X, X]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 4)
    G = gradient(P, classes, cfg, adaptive_lambdas(P, classes, cfg.lam))
    assert np.abs(G).max() <= 1e-12


def test_gradient_full_dimension_riemannian_zero():
    rng = np.random.default_rng(8)
    classes = _gaussian_classes(rng, 4, 6, 2)
    cfg = WdaConfig(lam=0.4, sinkhorn_iters=10)
    P = random_stiefel(rng, 4, 4)
    G = gradient(P, classes, cfg)
    tangential = riemannian_gradient(P, G)
    assert np.abs(tangential).max() <= 1e-9 * max(np.abs(G).max(), 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    classes = _gaussian_classes(rng, 6, 8, 3)
    cfg = WdaConfig(lam=0.1, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 6)
    lam_map = {key: 0.1 for key in pair_keys(3)}

    def J(Pmat):
        return evaluate(Pmat, classes, cfg, lam_map).value

    G = gradient(P, classes, cfg, lam_map)
    fd = fd_gradient(J, P, h=1e-5)
    assert np.abs(G - fd).max() / np.abs(fd).max() <= 1e-5


def test_gradient_matches_finite_differences_adaptive_map():
    rng = np.random.default_rng(9)
    classes = _gaussian_classes(rng, 5, 6, 2)
    cfg = WdaConfig(lam=0.8, sinkhorn_iters=8)
    P = random_stiefel(rng, 2, 5)
    lam_map = adaptive_lambdas(P, classes, cfg.lam)  # fixed; not re-derived in J

    def J(Pmat):
        return evaluate(Pmat, classes, cfg, lam_map).value

    G = gradient(P, classes, cfg, lam_map)
    fd = fd_gradient(J, P, h=1e-5)
    assert np.abs(G - fd).max() / np.abs(fd).max() <= 1e-5


def test_gradient_fda_limit_matches_rayleigh_gradient():
    # at vanishing regularization the plans freeze at uniform, so the full
    # gradient approaches the fixed-covariance quotient gradient
    rng = np.random.default_rng(11)
    classes = _gaussian_classes(rng, 5, 8, 2)
    cfg = WdaConfig(lam=1e-8, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 5)
    lam_map = {key: 1e-8 for key in pair_keys(2)}
    G = gradient(P, classes, cfg, lam_map)

    cb, cw = uniform_coupling_covariances(classes)
    sb2 = float(np.sum((P @ cb) * P))
    sw2 = float(np.sum((P @ cw) * P))
    expected = P @ ((2.0 / sw2) * cb - (2.0 * sb2 / sw2**2) * cw)
    assert np.abs(G - expected).max() / np.abs(expected).max() <= 1e-4


def test_covariances_symmetric_psd_and_state_json():
    rng = np.random.default_rng(12)
    classes = _gaussian_classes(rng, 4, 6, 3)
    cfg = WdaConfig(lam=0.3, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 4)
    state = evaluate(P, classes, cfg, adaptive_lambdas(P, classes, cfg.lam))
    assert state.sigma_w2 > 0
    assert state.value >= 0
    payload = state.to_json()
    json.dumps(payload)
    assert payload["value"] == state.value
    assert "0,1" in payload["pair_distances"]
    assert "pair_residuals" in payload


def test_missing_pair_lambda_rejected():
    rng = np.random.default_rng(13)
    classes = _gaussian_classes(rng, 4, 5, 2)
    cfg = WdaConfig()
    P = random_stiefel(rng, 2, 4)
    with pytest.raises(InvalidInputError):
        evaluate(P, classes, cfg, {(0, 0): 0.1})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"lam": -1.0},
        {"sinkhorn_iters": 0},
        {"dim": 0},
        {"max_outer_iter": 0},
        {"step_shrink": 1.0},
        {"step_c1": 0.0},
        {"step_init": 0.0},
        {"max_backtracks": -1},
        {"feasibility_tol": 0.0},
        {"outer_tol": -1e-9},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidInputError):
        WdaConfig(**kwargs)


def test_config_validation_names_field():
    with pytest.raises(InvalidInputError, match="lambda"):
        WdaConfig(lam=-0.5)
