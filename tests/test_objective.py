import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SinkhornTrace,
    cross_covariance,
    fd_gradient,
    random_stiefel,
    reference_objective,
    sinkhorn_vjp,
    traced_peak,
    uniform_pair_covariances,
)
from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    WdaConfig,
    adaptive_lambdas,
    append_noise,
    cost_matrix,
    evaluate,
    gen_toy,
    gradient,
    pca_init,
    uniform_coupling_covariances,
    wda_fit,
)
from wda.objective import ObjectiveState, pair_keys, solve_pairs
from wda.stiefel import project_stiefel, riemannian_gradient


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
    pairs = uniform_pair_covariances([Xc, Xcp])
    assert np.trace(pairs[(0, 1)]) == 9.0
    assert not pairs[(0, 0)].any() and not pairs[(1, 1)].any()


@pytest.mark.parametrize("d, sizes", [(3, (5, 1, 8)), (1, (4, 1, 2))])
def test_uniform_pair_covariances_match_uniform_plans(d, sizes):
    # the closed form against an explicit uniform n x m plan, on unbalanced
    # classes with a single-sample class
    rng = np.random.default_rng(40 + d)
    classes = [rng.standard_normal((d, n)) + 3.0 * rng.standard_normal((d, 1)) for n in sizes]
    pairs = uniform_pair_covariances(classes)
    assert list(pairs) == pair_keys(len(sizes))
    for (c, cp), C in pairs.items():
        uniform = np.full((sizes[c], sizes[cp]), 1.0 / (sizes[c] * sizes[cp]))
        expected = cross_covariance(classes[c], classes[cp], uniform)
        assert np.abs(C - expected).max() <= 1e-12 * np.abs(expected).max()


def test_uniform_dispersions_invariant_under_common_shift():
    # a common offset cancels from every pair's closed form, so the adaptive
    # map and the Fisher covariances do not see it, not even at rounding level
    data = gen_toy(34, 5)
    classes = data.class_blocks()
    shifted = [X + 1e6 for X in classes]
    P0 = pca_init(data.samples.T, 2)
    lam_map = adaptive_lambdas(P0, classes, 1.0)
    moved = adaptive_lambdas(P0, shifted, 1.0)
    for key, lam in lam_map.items():
        assert moved[key] == pytest.approx(lam, rel=1e-8)
    for C, C_moved in zip(uniform_coupling_covariances(classes),
                          uniform_coupling_covariances(shifted)):
        assert np.abs(C_moved - C).max() <= 1e-8 * np.abs(C).max()


def _unequal_classes():
    rng = np.random.default_rng(41)
    return [rng.standard_normal((5, n)) + 3.0 * rng.standard_normal((5, 1)) for n in (7, 1, 12)]


@pytest.mark.parametrize(
    "classes",
    [gen_toy(34, 5).class_blocks(), _unequal_classes(),
     [X + 1e6 for X in gen_toy(34, 5).class_blocks()]],
    ids=["toy", "unequal-with-one-sample", "shift-1e6"],
)
def test_class_moment_closed_forms_match_the_pair_covariances(classes):
    # the per-pair reference's traces give the lambda map and its within
    # sum C_w, both bit for bit; C_b is summed in another order, so it
    # agrees to rounding
    pairs = uniform_pair_covariances(classes)
    P0 = random_stiefel(np.random.default_rng(3), 2, classes[0].shape[0])
    costs = {key: float(np.trace(C))
             for key, C in uniform_pair_covariances([P0 @ X for X in classes]).items()}
    coincide = [key for key, cost in costs.items() if cost == 0.0]
    if coincide:  # the one-sample class with itself
        with pytest.raises(DegenerateInputError, match=re.escape(f"pair {coincide[0]} coincide")):
            adaptive_lambdas(P0, classes, 0.7)
    else:
        assert adaptive_lambdas(P0, classes, 0.7) == {key: 0.7 / c for key, c in costs.items()}
    zero = np.zeros_like(pairs[(0, 0)])
    cb, cw = uniform_coupling_covariances(classes)
    assert np.array_equal(cw, sum((C for (c, cp), C in pairs.items() if c == cp), zero))
    expected_cb = sum((C for (c, cp), C in pairs.items() if c != cp), zero)
    assert np.abs(cb - expected_cb).max() <= 1e-14 * np.abs(expected_cb).max()
    # one class: no between pair
    cb, cw = uniform_coupling_covariances(classes[:1])
    assert not cb.any() and np.array_equal(cw, pairs[(0, 0)])


def test_uniform_coupling_covariances_hold_no_matrix_per_pair():
    # 10 classes have 55 pairs; the per-pair construction peaked at about
    # 66 d x d matrices here, the class moment pass below 6
    rng = np.random.default_rng(23)
    d = 256
    classes = [rng.standard_normal((d, n)) + rng.standard_normal((d, 1))
               for n in rng.integers(25, 35, size=10)]
    assert traced_peak(lambda: uniform_coupling_covariances(classes)) < 6 * d * d * 8


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


@pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 7)])
def test_adaptive_lambdas_refuse_identical_points_off_their_rounded_mean(value, n):
    # the mean of n copies of value does not round back to value, so
    # moments about the class mean would see a tiny spread and a huge lambda
    assert np.full(n, value).mean() != value
    classes = [np.array([[0.0, 1.0, 2.0]]), np.full((1, n), value)]
    with pytest.raises(DegenerateInputError, match=re.escape("class pair (1, 1) coincide")):
        adaptive_lambdas(np.eye(1), classes, 1.0)


@pytest.mark.parametrize("scale, lam", [(1e-3, 1e305), (1e3, 5e-324)],
                         ids=["overflow", "underflow"])
def test_adaptive_lambdas_refuse_a_pair_lambda_out_of_range(scale, lam):
    # lam / cost is inf on data of tiny spread and 0 on data of wide spread;
    # the pair, lam and cost are named, not a per-pair lambda the user never
    # gave
    classes = [scale * np.array([[0.0, 1.0, 2.0]]), scale * np.array([[5.0, 6.0]])]
    message = f"class pair (0, 0): lambda {lam:.6g} over the pair's lambda -> 0 transport cost"
    with pytest.raises(NumericalRangeError, match=re.escape(message)):
        adaptive_lambdas(np.eye(1), classes, lam)


def test_overflowing_class_moments_are_refused_by_name_without_a_warning():
    # finite features whose class covariance (about 1e200) or pair gap
    # (about 1e160) squares past the float range: every numpy warning is an
    # error here, so only the named refusal may be raised
    big = [1e200 * np.array([[0.0, 1.0, 2.0]]), 1e200 * np.array([[5.0, 6.0]])]
    far = [np.array([[1e160, 1e160 + 1e150, 1e160 - 1e150]]),
           np.array([[-1e160, -1e160 + 1e150]])]
    toy = gen_toy(10, 0)
    scaled = LabeledDataset(toy.samples * 1e200, toy.labels)
    cases = [(lambda: adaptive_lambdas(np.eye(1), big, 1.0), "class pair (0, 0)"),
             (lambda: adaptive_lambdas(np.eye(1), far, 1.0), "class pair (0, 1)"),
             (lambda: wda_fit(scaled, WdaConfig(lam=1.0)), "class pair (0, 0)")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, pair in cases:
            message = f"{pair}: lambda 1 over the pair's lambda -> 0 transport cost inf"
            with pytest.raises(NumericalRangeError, match=re.escape(message)):
                call()
        cb, cw = uniform_coupling_covariances(scaled.class_blocks())
    assert not np.isfinite(cb).all() and not np.isfinite(cw).all()


@pytest.mark.parametrize(
    "P0, message",
    [(np.eye(2, 9), "projection shape (2, 9) does not match feature dimension 10"),
     (np.ones(10), "projection shape (10,) does not match feature dimension 10"),
     (np.eye(2, 10) + np.where(np.eye(2, 10, 3), np.nan, 0.0),
      "projection has a non-finite value at row 0, column 3")],
    ids=["shape", "1-d", "nan"],
)
def test_adaptive_lambdas_refuse_a_bad_projection_by_name(P0, message):
    # a matmul ValueError escaped, or the projected blocks took the blame
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        adaptive_lambdas(P0, gen_toy(6, 0).class_blocks(), 1.0)


def test_a_projection_of_no_rows_is_refused_by_name():
    # evaluate blamed a zero within-class dispersion, adaptive_lambdas a
    # coinciding class pair, and solve_pairs returned all-zero distances
    P = np.zeros((0, 10))
    blocks = gen_toy(5, 0).class_blocks()
    message = re.escape("projection of shape (0, 10) has no rows")
    with pytest.raises(InvalidInputError, match=message):
        evaluate(P, blocks, WdaConfig())
    with pytest.raises(InvalidInputError, match=message):
        adaptive_lambdas(P, blocks, 1.0)
    with pytest.raises(InvalidInputError, match=message):
        solve_pairs(P, blocks, WdaConfig())


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
    assert list(state.pair_distances) == pair_keys(len(sizes))
    assert list(state.cost_factors) == list(state.batches)
    assert sorted(key for keys in state.batches for key in keys) == pair_keys(len(sizes))
    assert state.value == reference["value"]
    assert state.to_json()["pair_residuals"] == reference["pair_residuals"]
    G = gradient(state)
    assert np.array_equal(G, reference["gradient"])
    # K * M formed from M itself: the factors change only the rounding
    explicit = reference_objective(P, classes, cfg, lam_map, factored=False)
    assert state.value == pytest.approx(explicit["value"], rel=1e-12, abs=0)
    assert np.abs(G - explicit["gradient"]).max() <= 1e-12 * np.abs(explicit["gradient"]).max()


def _pair_traces(state):
    """Each pair's slice of the state's Sinkhorn batches, as a trace."""
    traces = {}
    for keys, batch in state.batches.items():
        for b, key in enumerate(keys):
            traces[key] = SinkhornTrace(
                batch.kernel[b], batch.u_history[b], batch.v_history[b],
                state.pair_lambdas[key], batch.v_history.shape[1],
                float(batch.residuals()[b, -1]), None,
            )
    return {key: traces[key] for key in state.pair_distances}


def _covariance_form(P, classes, state):
    """Value and gradient of the ratio as transport-weighted d x d
    covariances: sigma^2 = <P^T P, sum of cross_covariance(X_c, X_c', T)>, and
    dJ/dP = 2 P sum of cross_covariance(X_c, X_c', G) over the pair
    cotangents G = coef * T + sinkhorn_vjp(trace, coef * M)."""
    d = P.shape[1]
    traces = _pair_traces(state)
    cb, cw = np.zeros((d, d)), np.zeros((d, d))
    for (c, cp), trace in traces.items():
        C = cross_covariance(classes[c], classes[cp], trace.plan_weights())
        if cp == c:
            cw += C
        else:
            cb += C
    sb2 = float(np.sum((P @ cb) * P))
    sw2 = float(np.sum((P @ cw) * P))
    C = np.zeros((d, d))
    for (c, cp), trace in traces.items():
        coef = -sb2 / sw2**2 if cp == c else 1.0 / sw2
        Y = P @ classes[c]
        M = cost_matrix(Y, Y if cp == c else P @ classes[cp])
        G = coef * trace.plan_weights() + sinkhorn_vjp(trace, coef * M)
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
    G = gradient(state)
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
    G = gradient(base)
    G_rotated = gradient(rotated)
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
    G = gradient(base)
    G_moved = gradient(moved)
    assert np.abs(G_moved - G).max() <= 1e-7 * np.abs(G).max()


@pytest.mark.parametrize("lam", [1.0, 100.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("wide", [False, True], ids=["toy", "wide"])
def test_view_blocks_agree_with_contiguous_copies(wide, seed, lam):
    # class blocks are transposed views of the dataset's rows; BLAS and the
    # reductions take another path for that layout than for a C-contiguous
    # copy, so J and the gradient agree to rounding, not bit for bit
    data = append_noise(gen_toy(100, seed), 20, seed + 1) if wide else gen_toy(34, seed)
    views = data.class_blocks()
    copies = [np.ascontiguousarray(X) for X in views]
    assert all(np.shares_memory(X, data.samples) for X in views)
    P = pca_init(data.samples.T, 2)
    cfg = WdaConfig(lam=lam, sinkhorn_iters=10, dim=2)
    view_state, copy_state = (
        evaluate(P, blocks, cfg, adaptive_lambdas(P, blocks, lam)) for blocks in (views, copies)
    )
    assert abs(view_state.value - copy_state.value) <= 1e-12 * abs(copy_state.value)
    G_copy = gradient(copy_state)
    assert np.abs(gradient(view_state) - G_copy).max() <= 1e-10 * np.abs(G_copy).max()


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
    gradient_peak = traced_peak(lambda: gradient(state))
    evaluate_peak = traced_peak(lambda: evaluate(P, classes, cfg, lam_map))
    assert gradient_peak < evaluate_peak


def test_gradient_holds_one_pair_cotangent_at_a_time():
    # each pair's (n, m) cotangent is released before the next is formed;
    # holding the previous one as well took the peak to 0.67 of a stack
    data = append_noise(gen_toy(100, 2), 20, 3)
    classes = data.class_blocks()
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2)
    P = pca_init(data.samples.T, 2)
    state = evaluate(P, classes, cfg, adaptive_lambdas(P, classes, cfg.lam))
    stack_bytes = 6 * 100 * 100 * 8
    assert traced_peak(lambda: gradient(state)) < 0.58 * stack_bytes


def _arrays(obj):
    """Every array reachable from a state through its fields and containers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


@pytest.mark.parametrize("sizes", [(40, 40, 40), (40, 30, 40)], ids=["balanced", "unequal"])
def test_a_state_holds_one_plan_sized_stack_per_shape_group(sizes):
    # K * M is read through the cost factors: the kernel stacks are the only
    # arrays of (n, m) matrices a state keeps
    classes = _sized_classes(sizes, 20)
    state = evaluate(np.eye(2, 5), classes, WdaConfig(lam=1.0, sinkhorn_iters=10))
    smallest_plan = min(n * m for n in sizes for m in sizes)
    plan_sized = [
        a for a in _arrays(state) if a.ndim >= 2 and a.shape[-2] * a.shape[-1] >= smallest_plan
    ]
    kernels = [batch.kernel for batch in state.batches.values()]
    assert len(plan_sized) == len(kernels) == len({n for n in sizes}) ** 2
    assert all(any(a is K for K in kernels) for a in plan_sized)


def test_a_fresh_evaluate_peaks_below_seven_quarters_of_a_kernel_stack():
    # the cost stack becomes the kernel stack in place and K * M is never
    # formed; a K * M stack kept beside K would take the peak to about 2.3
    data = append_noise(gen_toy(100, 2), 20, 3)
    classes = data.class_blocks()
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2)
    P = pca_init(data.samples.T, 2)
    lam_map = adaptive_lambdas(P, classes, cfg.lam)
    evaluate(P, classes, cfg, lam_map)
    stack_bytes = 6 * 100 * 100 * 8
    assert traced_peak(lambda: evaluate(P, classes, cfg, lam_map)) < 1.75 * stack_bytes


@pytest.mark.parametrize("lam", [1.0, 100.0, 1000.0])
@pytest.mark.parametrize("offset", [0.0, 30.0, 1000.0])
def test_ratio_is_accurate_far_from_the_origin(offset, lam):
    # J from the state's own plans with explicit differences (y_i - y'_j)^2;
    # squared norms taken about the origin cancel to ~offset^2 * eps. At
    # lambda 1000 most draws are refused for kernel underflow; the rest count
    evaluated = 0
    for seed in range(12):
        classes = [X + offset for X in gen_toy(34, seed).class_blocks()]
        P = pca_init(np.hstack(classes), 2)
        cfg = WdaConfig(lam=lam, sinkhorn_iters=10, dim=2)
        try:
            state = evaluate(P, classes, cfg, adaptive_lambdas(P, classes, lam))
        except NumericalRangeError as refusal:
            assert "kernel row underflow" in str(refusal)
            continue
        evaluated += 1
        sigma2 = {True: 0.0, False: 0.0}
        for (c, cp), (batch, b) in state.runs().items():
            D = (P @ classes[c])[:, :, None] - (P @ classes[cp])[:, None, :]
            sigma2[c == cp] += float(np.sum(batch.plan(b) * (D * D).sum(axis=0)))
        expected = sigma2[False] / sigma2[True]
        assert abs(state.value - expected) <= 1e-11 * expected, (seed, state.value, expected)
    assert evaluated >= (4 if lam == 1000.0 else 12)


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
        gradient(evaluate(P, classes, cfg, lam_map))
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
    # class sizes 1, 2, 1: (0, 1), the first overflowing pair in pair order,
    # is in the second shape group; (0, 2) of the first group overflows too
    classes = [1e200 * (1.0 + rng.random((1, n))) for n in (1, 2, 1)]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=5, dim=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalRangeError, match=r"class pair \(0, 1\): the projected squared distances overflow"):
            evaluate(np.eye(1), classes, cfg, {key: 0.5 for key in pair_keys(3)})


def _sized_classes(sizes, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((5, n)) + 2.0 * rng.standard_normal((5, 1)) for n in sizes]


def _own_evaluate(P, classes, lam_map, cfg):
    """A problem's own evaluate: its state, or its numerical refusal."""
    try:
        return evaluate(P, classes, cfg, lam_map)
    except NumericalRangeError as refusal:
        return refusal


# class sizes 6, 4, 6, 4 form four plan-shape groups, solved in this order:
# (6, 6) holds (0, 0) (0, 2) (2, 2); (6, 4) holds (0, 1) (0, 3) (2, 3);
# (4, 4) holds (1, 1) (1, 3) (3, 3); (4, 6) holds (1, 2) alone. A self
# cost has a zero diagonal, so only a between pair's kernel underflows (at
# lambda 1e6). The refusal names the least flagged pair in pair order:
# (1, 2) of the last group, (0, 2) of the first, and (0, 1) of the second
# though (0, 2) of the first is flagged too
_UNDERFLOWING = [[(1, 2)], [(0, 2), (2, 3)], [(0, 2), (0, 1)]]
_NAMED = ["(1, 2)", "(0, 2)", "(0, 1)"]


def _grouped_problems(underflowing):
    """The projections, class block lists and lambda maps of a stack whose
    problem s underflows at the pairs ``underflowing[s]``."""
    classes = _sized_classes((6, 4, 6, 4), 22)
    rng = np.random.default_rng(23)
    return (
        [random_stiefel(rng, 2, 5) for _ in underflowing],
        [classes] * len(underflowing),
        [{key: 1e6 if key in pairs else 1.0 for key in pair_keys(4)} for pairs in underflowing],
    )


def test_a_stack_refuses_each_problem_by_its_own_least_underflowing_pair():
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10)
    P, classes, lam_maps = _grouped_problems(_UNDERFLOWING + [[]])
    own = [_own_evaluate(*problem, cfg) for problem in zip(P, classes, lam_maps)]
    stack = evaluate(P, classes, cfg, lam_maps)
    for named, mine, result in zip(_NAMED, own, stack.problems):
        assert isinstance(result, NumericalRangeError)
        assert str(result) == str(mine)
        assert str(result).startswith(f"class pair {named} at lambda 1e+06: kernel row underflow")
    state, mine = stack.problems[3], own[3]
    assert isinstance(state, ObjectiveState)
    assert (state.value, state.sigma_b2, state.sigma_w2) == (mine.value, mine.sigma_b2, mine.sigma_w2)
    assert state.pair_distances == mine.pair_distances
    for keys, batch in mine.batches.items():
        for name in ("kernel", "u_history", "v_history"):
            assert np.array_equal(getattr(state.batches[keys], name), getattr(batch, name))
        for factor, own_factor in zip(state.cost_factors[keys], mine.cost_factors[keys]):
            assert np.array_equal(factor, own_factor)
    assert np.array_equal(gradient(stack.window(3, 4))[0], gradient(mine))


@pytest.mark.parametrize("into", [False, True], ids=["fresh", "into-out"])
def test_a_stack_of_refused_problems_holds_each_refusal_in_its_place(into):
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10)
    P, classes, lam_maps = _grouped_problems(_UNDERFLOWING)
    # a stack of the same class sizes, solved where every problem passes
    out = evaluate(P, classes, cfg) if into else None
    stack = evaluate(P, classes, cfg, lam_maps, out=out)
    assert len(stack.problems) == 3
    for named, *problem, result in zip(_NAMED, P, classes, lam_maps, stack.problems):
        assert isinstance(result, NumericalRangeError)
        assert str(result) == str(_own_evaluate(*problem, cfg))
        assert str(result).startswith(f"class pair {named} at lambda 1e+06: kernel row underflow")
    # a refused problem has no state to differentiate
    with pytest.raises(InvalidInputError, match=re.escape(
        f"problem 0 of the stack has no state: {stack.problems[0]}"
    )):
        gradient(stack)


@pytest.mark.parametrize("sizes", [(8, 8, 8), (6, 4, 6, 4)], ids=["balanced", "unequal"])
def test_evaluate_into_out_equals_a_fresh_evaluate(sizes):
    # the stack of one's arrays, solved at another projection, are
    # overwritten in place
    classes = _sized_classes(sizes, 16)
    rng = np.random.default_rng(17)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10)
    P_old, P = random_stiefel(rng, 2, 5), random_stiefel(rng, 2, 5)
    lam_map = adaptive_lambdas(P_old, classes, cfg.lam)
    spare = evaluate([P_old], [classes], cfg, [lam_map])
    old = {keys: (batch, spare.cost_factors[keys]) for keys, batch in spare.batches.items()}
    fresh = evaluate(P, classes, cfg, lam_map)
    reused = evaluate([P], [classes], cfg, [lam_map], out=spare).problems[0]
    assert reused.value == fresh.value
    assert reused.pair_distances == fresh.pair_distances
    assert np.array_equal(gradient(reused), gradient(fresh))
    for keys, batch in reused.batches.items():
        old_batch, old_factors = old[keys]
        for name in ("kernel", "u_history", "v_history"):
            assert np.shares_memory(getattr(batch, name), getattr(old_batch, name))
        for factor, old_factor in zip(reused.cost_factors[keys], old_factors):
            assert np.shares_memory(factor, old_factor)


def test_evaluate_refuses_an_out_of_another_iteration_count():
    classes = _sized_classes((8, 8, 8), 20)
    spare = evaluate([np.eye(2, 5)], [classes], WdaConfig(lam=1.0, sinkhorn_iters=5))
    with pytest.raises(InvalidInputError, match=re.escape("out must be a batch of 10 iterations on (6, 8, 8) kernels")):
        evaluate([np.eye(2, 5)], [classes], WdaConfig(lam=1.0, sinkhorn_iters=10), out=spare)


@pytest.mark.parametrize("n_per_class, noise, bound", [(34, 0, 0.75), (100, 20, 0.3)])
def test_a_line_search_trial_allocates_no_record_factor_or_stack_buffer(n_per_class, noise, bound):
    # a trial writes its scaling records and cost factors into the state's
    # and trusts its blocks and lambda map; new records and factors and a
    # stack-sized exp buffer took it to 1.32 and 0.43 kernel stacks
    data = gen_toy(n_per_class, 2)
    if noise:
        data = append_noise(data, noise, 3)
    classes = data.class_blocks()
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2)
    P = pca_init(data.samples.T, 2)
    stack = evaluate([P], [classes], cfg, [adaptive_lambdas(P, classes, cfg.lam)])
    state = stack.problems[0]
    P2 = project_stiefel(P + 0.1 * np.random.default_rng(24).standard_normal(P.shape))
    stack_bytes = 6 * n_per_class * n_per_class * 8
    peak = traced_peak(
        lambda: evaluate([P2], [state.classes], cfg, [state.pair_lambdas], out=stack)
    )
    assert peak < bound * stack_bytes


@pytest.mark.parametrize(
    "sizes, other",
    [((8, 8, 8), (8, 7, 8)), ((8, 8, 8), (7, 7, 7)), ((8, 8, 8), (8, 8)),
     ((6, 4, 6), (4, 6, 6))],
    ids=["class-size", "stack-shape", "class-count", "shape-order"],
)
def test_evaluate_refuses_an_out_of_other_class_sizes(sizes, other):
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=5)
    P = np.eye(2, 5)
    spare = evaluate([P], [_sized_classes(other, 18)], cfg)
    classes = _sized_classes(sizes, 19)
    with pytest.raises(InvalidInputError, match="out holds plans of other class sizes"):
        evaluate([P], [classes], cfg, out=spare)


@pytest.mark.parametrize("dim", [1, 3])
def test_evaluate_refuses_an_out_of_another_projection_dimension(dim):
    # the kernel stacks do not depend on p, but the cost factors have p + 2 rows
    classes = _sized_classes((8, 8, 8), 21)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=5)
    spare = evaluate([np.eye(2, 5)], [classes], cfg)
    with pytest.raises(InvalidInputError, match=f"out holds plans of projection dimension 2, not {dim}"):
        evaluate([np.eye(dim, 5)], [classes], cfg, out=spare)


@pytest.mark.parametrize(
    "classes, message",
    [
        ([], "need at least one class block"),
        ([np.ones((2, 3)), np.ones(3)], "class 1: sample block must be 2-d"),
        ([np.ones((2, 3)), np.ones((3, 3))], "class 1: feature dimension 3 differs from 2"),
        ([np.ones((2, 3)), np.ones((2, 0))], "class 1: empty sample block"),
    ],
    ids=["none", "1-d", "dimensions", "empty"],
)
def test_evaluate_refuses_bad_class_blocks_by_name(classes, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        evaluate(np.eye(1, 2), classes, WdaConfig())


def test_a_single_problem_takes_no_out():
    # a single problem reuses arrays as the stack of one, the only call
    # that takes out
    classes = _sized_classes((8, 8, 8), 21)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=5)
    P = np.eye(2, 5)
    stack = evaluate([P], [classes], cfg)
    message = ("out is taken by a stack of problems only: pass P, the class blocks "
               "and the lambda map as lists of one")
    for out in (stack, stack.problems[0]):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            evaluate(P, classes, cfg, out=out)
    with pytest.raises(TypeError, match="out"):
        solve_pairs(P, classes, cfg, out=stack.problems[0])


@pytest.mark.parametrize(
    "classes, message",
    [
        ([np.ones(3), np.ones(3)], "class 0: sample block must be 2-d"),
        ([np.ones((2, 3)), np.full((2, 3), np.nan)],
         "class 1 sample block has a non-finite value at row 0, column 0"),
    ],
    ids=["1-d", "nan"],
)
def test_uniform_covariances_validate_their_blocks(classes, message):
    # a 1-d block escaped as IndexError, and a NaN block passed silently
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        uniform_coupling_covariances(classes)


def test_gradient_identical_classes_is_zero():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 6))
    classes = [X, X]
    cfg = WdaConfig(lam=0.5, sinkhorn_iters=10)
    P = random_stiefel(rng, 2, 4)
    G = gradient(evaluate(P, classes, cfg, adaptive_lambdas(P, classes, cfg.lam)))
    assert np.abs(G).max() <= 1e-12


def test_gradient_full_dimension_riemannian_zero():
    rng = np.random.default_rng(8)
    classes = _gaussian_classes(rng, 4, 6, 2)
    cfg = WdaConfig(lam=0.4, sinkhorn_iters=10)
    P = random_stiefel(rng, 4, 4)
    G = gradient(evaluate(P, classes, cfg))
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

    G = gradient(evaluate(P, classes, cfg, lam_map))
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

    G = gradient(evaluate(P, classes, cfg, lam_map))
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
    G = gradient(evaluate(P, classes, cfg, lam_map))

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


@pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf], ids=["-1", "0", "nan", "inf"])
def test_explicit_pair_lambda_must_be_positive_and_finite(value):
    # unchecked, -1 builds an anti-concentrated kernel exp(+M) with a finite J,
    # and nan is taken for an overflow of the projected distances
    blocks = gen_toy(6, 0).class_blocks()
    lambdas = {key: 1.0 for key in pair_keys(len(blocks))}
    lambdas[(0, 1)] = value
    message = f"per-pair lambda for pair (0, 1) must be positive and finite, got {value}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        evaluate(np.eye(10)[:2], blocks, WdaConfig(lam=1.0), lambdas)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"lam": -1.0},
        {"sinkhorn_iters": 0},
        {"dim": 0},
        {"max_outer_iter": 0},
        {"lam": float("nan")},
        {"lam": float("inf")},
        {"sinkhorn_iters": 2.5},
        {"dim": 1.5},
        {"outer_tol": float("nan")},
        {"outer_tol": -1e-9},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(InvalidInputError):
        WdaConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lam": "1"}, "lam must be a number, got '1'"),
        ({"lam": True}, "lam must be a number, got True"),
        ({"lam": None}, "lam must be a number, got None"),
        ({"outer_tol": "x"}, "outer_tol must be a number, got 'x'"),
        ({"outer_tol": True}, "outer_tol must be a number, got True"),
    ],
)
def test_config_number_fields_refuse_other_types_by_name(kwargs, message):
    # at the parent a string escaped as TypeError and True ran as 1
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        WdaConfig(**kwargs)


def test_config_validation_names_field():
    with pytest.raises(InvalidInputError, match="lambda"):
        WdaConfig(lam=-0.5)
