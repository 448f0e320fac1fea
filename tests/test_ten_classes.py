"""The correctness checks of the many-group path, on ten classes of 3 ... 12
points (d = 6, p = 2): every class pair has a plan shape of its own, so
``solve_pairs`` runs 55 Sinkhorn stacks of one pair each, and ``gradient``
55 reverse passes. The three- and two-class fixtures elsewhere form at most
four shape groups."""

from dataclasses import asdict

import numpy as np
import pytest

from helpers import fd_gradient, random_stiefel, reference_objective, replay_wda_fit, ten_class_data
from wda import LabeledDataset, WdaConfig, uniform_coupling_covariances, wda_fit
from wda.objective import adaptive_lambdas, evaluate, gradient

LAM = 0.8


def _problem(seed):
    """The fixture's blocks, a random P and the adaptive map fixed at P."""
    blocks = ten_class_data(seed).class_blocks()
    P = random_stiefel(np.random.default_rng(100 + seed), 2, 6)
    return blocks, P, adaptive_lambdas(P, blocks, LAM)


def _fit_fields(report):
    fields = asdict(report)
    del fields["iteration_seconds"]
    return fields


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences_at_ten_classes(seed):
    # criterion 2's threshold; 7e-11 to 1.1e-10 measured
    blocks, P, lam_map = _problem(seed)
    cfg = WdaConfig(lam=LAM, sinkhorn_iters=10, dim=2)
    state = evaluate(P, blocks, cfg, lam_map)
    assert len(state.batches) == 55
    fd = fd_gradient(lambda Q: evaluate(Q, blocks, cfg, lam_map).value, P, h=1e-5)
    assert np.abs(gradient(state) - fd).max() / np.abs(fd).max() <= 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ten_classes_match_the_per_pair_reference(seed):
    blocks, P, lam_map = _problem(seed)
    cfg = WdaConfig(lam=LAM, sinkhorn_iters=10, dim=2)
    state = evaluate(P, blocks, cfg, lam_map)
    reference = reference_objective(P, blocks, cfg, lam_map)
    assert state.value == reference["value"]
    assert state.to_json()["pair_residuals"] == reference["pair_residuals"]
    assert np.array_equal(gradient(state), reference["gradient"])


def test_a_stack_of_two_lambda_maps_matches_its_problems_at_ten_classes():
    # both problems' 55 pairs of one shape share a stack of two runs
    blocks, P, lam_map = _problem(0)
    other = adaptive_lambdas(P, blocks, 5.0)
    cfg = WdaConfig(lam=LAM, sinkhorn_iters=10, dim=2)
    stack = evaluate([P, P], [blocks, blocks], cfg, [lam_map, other])
    assert len(stack.batches) == 55
    assert all(batch.kernel.shape[0] == 2 for batch in stack.batches.values())
    for state, G, lams in zip(stack.problems, gradient(stack), (lam_map, other)):
        alone = evaluate(P, blocks, cfg, lams)
        assert state.value == alone.value
        assert state.pair_distances == alone.pair_distances
        assert state.to_json() == alone.to_json()
        assert np.array_equal(G, gradient(alone))
        assert np.array_equal(G, reference_objective(P, blocks, cfg, lams)["gradient"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wda_fit_equals_a_replay_at_ten_classes(seed):
    data = ten_class_data(seed)
    cfg = WdaConfig(lam=LAM, sinkhorn_iters=10, dim=2, max_outer_iter=15, outer_tol=0.0)
    P, report = wda_fit(data, cfg)
    P_replay, expected = replay_wda_fit(data, cfg)
    assert P.tobytes() == P_replay.tobytes()
    assert _fit_fields(report) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ten_class_fit_invariant_under_scaling_and_shift(seed):
    # 1.3e-15 to 5.2e-15 measured
    data = ten_class_data(seed)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=10, dim=2, max_outer_iter=5, outer_tol=0.0)
    P, report = wda_fit(data, cfg)
    for moved in (3.7 * data.samples, data.samples + np.linspace(-5.0, 5.0, 6)):
        P_moved, report_moved = wda_fit(LabeledDataset(moved, data.labels), cfg)
        assert np.abs(P_moved - P).max() <= 1e-10
        assert report_moved.n_iterations == report.n_iterations


def test_ten_class_fit_invariant_under_relabelling_at_large_sinkhorn_budget():
    # as on the toy: at L = 200 the plans of (c, c') and (c', c) agree to
    # rounding; 6e-15 measured
    data = ten_class_data(0)
    relabelled = LabeledDataset(
        data.samples, np.random.default_rng(0).permutation(10)[data.labels]
    )
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=200, dim=2, max_outer_iter=3, outer_tol=0.0)
    P, _ = wda_fit(data, cfg)
    P_relabelled, _ = wda_fit(relabelled, cfg)
    assert np.abs(P_relabelled - P).max() <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ten_class_ratio_tends_to_the_uniform_coupling_ratio(seed):
    # one lambda of 1e-8 for every pair: the plans are uniform up to about
    # lambda, and J is <P^T P, C_b> / <P^T P, C_w> to 1.0e-8 to 1.6e-8
    blocks, P, _ = _problem(seed)
    value = evaluate(P, blocks, WdaConfig(lam=1e-8, sinkhorn_iters=10, dim=2)).value
    cb, cw = uniform_coupling_covariances(blocks)
    expected = float(np.sum((P @ cb) * P)) / float(np.sum((P @ cw) * P))
    assert abs(value - expected) <= 1e-7 * expected
