"""Fits in lockstep: a stack of wda fits, each bit-identical to its own
``wda_fit``, and ``run_protocol``, which fits every wda cell of one p as one
stack, against a per-cell loop."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_run_protocol, traced_peak
from wda import (
    CsvDataSpec,
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    ToyDataSpec,
    WdaConfig,
    WdaError,
    gen_toy,
    load_csv,
    pca_init,
    run_protocol,
    save_csv,
    wda_fit,
)
from wda import objective, stiefel
from wda.evaluation import _make_data
from wda.objective import adaptive_lambdas, evaluate, gradient


def _config(lam, **kwargs):
    settings = dict(lam=lam, sinkhorn_iters=10, dim=2, max_outer_iter=30, outer_tol=0.0)
    return WdaConfig(**{**settings, **kwargs})


def _unequal_csv(tmp_path):
    """A CSV of three classes of 30, 20 and 41 points, rows by class."""
    toy = gen_toy(41, 6)
    keep = np.concatenate(
        [np.flatnonzero(toy.labels == c)[:n] for c, n in enumerate((30, 20, 41))]
    )
    path = tmp_path / "unequal.csv"
    save_csv(LabeledDataset(toy.samples[keep], toy.labels[keep]), str(path))
    return str(path)


def _lockstep(cases):
    """Run (data, cfg) or (data, cfg, init) cases as one stack; their fits,
    in order."""
    fits = [stiefel._start_fit(*case) for case in cases]
    stiefel._fit_lockstep(fits)
    return fits


def _assert_each_fit_is_its_own(cases, fits):
    """Every fit equals its own wda_fit bit for bit, or fails as it does."""
    for case, fit in zip(cases, fits):
        try:
            P, report = wda_fit(*case)
        except WdaError as exc:
            assert type(fit.error) is type(exc) and str(fit.error) == str(exc)
            continue
        assert fit.error is None, fit.error
        assert fit.best[1].tobytes() == P.tobytes()
        stacked, alone = asdict(fit.report), asdict(report)
        assert len(stacked.pop("iteration_seconds")) == len(alone.pop("iteration_seconds"))
        assert stacked == alone


def _count_moves(monkeypatch):
    moves = []
    move = objective.PlanStack.move
    monkeypatch.setattr(objective.PlanStack, "move",
                        lambda self, src, dst: moves.append((src, dst)) or move(self, src, dst))
    return moves


def test_the_sweep_grid_fits_in_lockstep_equal_their_own(monkeypatch):
    # the benchmark's sweep: 2 seeds x lambda in {1, 100, 1e4} at 34 per
    # class. lambda = 1e4 is refused at the start and leaves the stack: the
    # last running fit takes the first refused fit's place; lambda = 100
    # backtracks. A fit's runs are copied 18 times in all here (94 when each
    # gradient kept the stack's order and undid the trials' moves)
    moves = _count_moves(monkeypatch)
    spec = ToyDataSpec(n_train_per_class=34, n_test_per_class=334)
    cases = [(_make_data(spec, seed, None)[0], _config(lam))
             for seed in (3, 4) for lam in (1.0, 100.0, 1e4)]
    fits = _lockstep(cases)
    assert [fit.error is not None for fit in fits] == [False, False, True] * 2
    assert "kernel row underflow" in str(fits[2].error)
    assert moves[0] == (4, 2) and len(moves) <= 20
    assert any(e > 1 for fit in fits[:2] for e in fit.report.evaluations)
    _assert_each_fit_is_its_own(cases, fits)


def test_a_fit_that_accepted_its_step_moves_out_of_the_searching_window(monkeypatch):
    # the lambda = 1 fit between two lambda = 100 fits accepts its first
    # trial; the two still searching need two consecutive problems, so its
    # runs move past them once, and stay there
    moves = _count_moves(monkeypatch)
    data = gen_toy(34, 0)
    cases = [(data, _config(lam)) for lam in (100.0, 1.0, 100.0)]
    fits = _lockstep(cases)
    assert moves == [(1, 2)]
    assert fits[1].report.evaluations == [1] * 30
    assert all(max(fit.report.evaluations) > 1 for fit in (fits[0], fits[2]))
    _assert_each_fit_is_its_own(cases, fits)


def test_fits_that_converge_at_different_iterations_leave_the_stack():
    cases = [(gen_toy(34, seed), _config(lam, max_outer_iter=100, outer_tol=1e-6))
             for seed in (0, 1) for lam in (1.0, 10.0, 100.0)]
    fits = _lockstep(cases)
    assert len({fit.report.n_iterations for fit in fits}) > 2
    assert {fit.report.termination for fit in fits} >= {"converged"}
    _assert_each_fit_is_its_own(cases, fits)


def test_fits_of_unequal_classes_from_a_csv_split_equal_their_own(tmp_path):
    spec = CsvDataSpec(_unequal_csv(tmp_path), train_fraction=0.5)
    loaded = load_csv(spec.path)
    cases = [(_make_data(spec, seed, loaded)[0], _config(lam, max_outer_iter=15))
             for seed in (0, 1) for lam in (1.0, 100.0)]
    assert [X.shape[1] for X in cases[0][0].class_blocks()] == [15, 10, 21]
    _assert_each_fit_is_its_own(cases, _lockstep(cases))


def test_a_fit_refused_mid_run_fails_alone():
    # at lambda = 300 the reverse pass of pair (0, 2) overflows; the lambda = 1
    # fit beside it runs on unchanged
    data = gen_toy(34, 19)
    cases = [(data, _config(1.0)), (data, _config(300.0))]
    fits = _lockstep(cases)
    assert isinstance(fits[1].error, NumericalRangeError)
    assert str(fits[1].error).startswith(
        "gradient term of class pair (0, 2) is not finite at lambda 51.1453"
    )
    assert fits[0].error is None and fits[0].report.n_iterations == 30
    _assert_each_fit_is_its_own(cases, fits)


def test_a_fit_refused_at_a_trial_fails_alone():
    # at lambda = 500 the PCA start solves, but a trial point's kernel of
    # pair (1, 2) underflows; the refused problem's runs go on with unit
    # kernels through that stacked trial, beside fits that accept theirs
    data = gen_toy(34, 0)
    cases = [(data, _config(lam)) for lam in (1.0, 500.0, 100.0)]
    fits = _lockstep(cases)
    assert str(fits[1].error).startswith(
        "class pair (1, 2) at lambda 80.6938: kernel row underflow"
    )
    assert fits[0].error is None and fits[2].error is None
    _assert_each_fit_is_its_own(cases, fits)


@pytest.mark.parametrize("stage", ["direction", "first-trial"])
def test_a_fit_whose_projection_is_refused_fails_alone(monkeypatch, stage):
    # project_stiefel refuses the middle fit's first direction, P + G, or its
    # first trial point, P + alpha0 D: that fit ends with the refusal, and
    # the fits beside it run on
    data = gen_toy(34, 0)
    cases = [(data, _config(lam)) for lam in (1.0, 100.0, 10.0)]
    fits = [stiefel._start_fit(*case) for case in cases]
    P, cfg = fits[1].P, cases[1][1]
    ascent = P + gradient(evaluate(P, fits[1].blocks, cfg, fits[1].lambdas))
    refused = ascent if stage == "direction" else (
        P + stiefel._STEP_INIT * (stiefel.project_stiefel(ascent) - P)
    )
    refusal = DegenerateInputError("refused projection")
    project = stiefel.project_stiefel

    def refuse_one(A):
        if np.array_equal(A, refused):
            raise refusal
        return project(A)

    with monkeypatch.context() as patch:
        patch.setattr(stiefel, "project_stiefel", refuse_one)
        stiefel._fit_lockstep(fits)
    assert fits[1].error is refusal
    assert fits[0].error is None and fits[2].error is None
    _assert_each_fit_is_its_own(cases[::2], fits[::2])


def _assert_no_fit_twice(stack):
    """No fit's state stands twice among the stack's problems: a fit's lambda
    map is one object from its first evaluation on."""
    states = [state for state in stack.problems if not isinstance(state, WdaError)]
    assert len({id(state.pair_lambdas) for state in states}) == len(states)


def _assert_states_are_their_own_runs(stack):
    """Each state's arrays are the runs of the stack at its own index."""
    _assert_no_fit_twice(stack)
    for s, state in enumerate(stack.problems):
        if isinstance(state, WdaError):
            continue
        for keys, runs in stack.batches.items():
            own = slice(s * len(keys), (s + 1) * len(keys))
            mine = state.batches[keys]
            for a, b in zip((mine.kernel, mine.u_history, mine.v_history,
                             *state.cost_factors[keys]),
                            (runs.kernel, runs.u_history, runs.v_history,
                             *stack.cost_factors[keys])):
                assert a.__array_interface__ == b[own].__array_interface__


# gen_toy(8, 16) at 10 Sinkhorn iterations: lambda <= 200 runs 8 iterations,
# 300 and 500 are refused at a trial, 1000 in the first gradient, and 3000
# and 1e4 at the start (from the PCA start; a drawn init moves the stages)
_FUZZ_LAMBDAS = [1.0, 30.0, 100.0, 200.0, 300.0, 500.0, 1000.0, 3000.0, 1e4]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(_FUZZ_LAMBDAS),
                          st.sampled_from([0.0, 1e-6, 1e-3]),
                          st.integers(1, 8),
                          st.none() | st.integers(0, 2**16)),
                min_size=1, max_size=6))
def test_any_stack_of_fits_equals_their_own(drawn):
    data = gen_toy(8, 16)
    cases = []
    for lam, tol, iters, seed in drawn:
        init = None if seed is None else np.linalg.qr(
            np.random.default_rng(seed).standard_normal((data.n_features, 2)))[0].T
        cases.append((data, _config(lam, outer_tol=tol, max_outer_iter=iters), init))

    def checked(function):
        def call(*args, **kwargs):
            if kwargs.get("out") is not None:
                _assert_no_fit_twice(kwargs["out"])  # a trial's, whose runs it overwrites
            result = function(*args, **kwargs)
            _assert_states_are_their_own_runs(args[0] if function is gradient else result)
            return result
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stiefel, "gradient", checked(gradient))
        patch.setattr(stiefel, "evaluate", checked(evaluate))
        fits = _lockstep(cases)
    _assert_each_fit_is_its_own(cases, fits)


def test_a_stack_holds_at_most_its_fits_own_peaks():
    # one state per fit: 0.97 of four fits' own peaks measured here (0.995
    # with 3 x 100 points and 30 features)
    cases = [(gen_toy(34, seed), _config(lam, max_outer_iter=3))
             for seed in (3, 4) for lam in (1.0, 100.0)]
    alone = max(traced_peak(lambda: wda_fit(data, cfg)) for data, cfg in cases)
    assert traced_peak(lambda: _lockstep(cases)) <= len(cases) * alone


def test_a_stack_refuses_problems_of_other_class_sizes_or_dimension():
    cfg = _config(1.0)
    small, large = gen_toy(5, 0).class_blocks(), gen_toy(6, 0).class_blocks()
    P = np.eye(2, 10)
    sizes = r"problem 1 of the stack has class sizes \[6, 6, 6\], not \[5, 5, 5\]"
    with pytest.raises(InvalidInputError, match=sizes):
        evaluate([P, P], [small, large], cfg)
    dims = "problem 1 of the stack projects to 3 dimensions, not 2"
    with pytest.raises(InvalidInputError, match=dims):
        evaluate([P, np.eye(3, 10)], [small, small], cfg)
    with pytest.raises(InvalidInputError, match="needs as many class block lists"):
        evaluate([P, P], [small], cfg)
    stack = evaluate([P, P], [small, small], cfg)
    with pytest.raises(InvalidInputError, match="PlanStack of as many"):
        evaluate([P], [small], cfg, out=stack)


def test_a_stack_written_into_its_head_equals_fresh_stacks():
    # the first two of three problems, solved into the first two problems'
    # runs of a stack of three, as a line search's trial is
    data = [gen_toy(12, seed) for seed in (0, 1, 2)]
    blocks = [d.class_blocks() for d in data]
    cfg = _config(1.0)
    rng = np.random.default_rng(3)
    Ps = [np.linalg.qr(rng.standard_normal((10, 2)))[0].T for _ in data]
    maps = [adaptive_lambdas(P, X, 1.0) for P, X in zip(Ps, blocks)]
    base = evaluate(Ps, blocks, cfg, maps)
    head = base.window(0, 2)
    moved = [P[::-1].copy() for P in Ps[:2]]
    reused = evaluate(moved, [st.classes for st in head.problems], cfg,
                      [st.pair_lambdas for st in head.problems], out=head)
    fresh = evaluate(moved, blocks[:2], cfg, maps[:2])
    for a, b in zip(reused.problems, fresh.problems):
        assert a.to_json() == b.to_json()
    for a, b in zip(gradient(reused), gradient(fresh)):
        assert np.array_equal(a, b)
    for keys, batch in reused.batches.items():
        assert np.shares_memory(batch.kernel, base.batches[keys].kernel)


def test_state_bytes_are_the_bytes_of_a_fits_state():
    toy = gen_toy(9, 1)
    data = LabeledDataset(toy.samples[2:-1], toy.labels[2:-1])  # classes of 7, 9 and 8
    cfg = _config(1.0, sinkhorn_iters=7, dim=3)
    fit = stiefel._start_fit(data, cfg)
    state = evaluate(fit.P, fit.blocks, cfg, fit.lambdas)
    arrays = [array for keys, batch in state.batches.items()
              for array in (batch.kernel, batch.u_history, batch.v_history,
                            *state.cost_factors[keys])]
    assert stiefel._state_bytes([7, 9, 8], 7, 3) == sum(array.nbytes for array in arrays)
    assert stiefel._stack_size(fit) == stiefel._STACK_BYTES // sum(array.nbytes for array in arrays)


@pytest.mark.parametrize("fits_per_stack", [None, 1, 2])
def test_run_protocol_equals_a_per_cell_loop(fits_per_stack, monkeypatch):
    # the default budget holds all three seeds' draws and stacks their nine
    # fits at each p; a budget of one or two fits at p = 2 holds one seed's
    # draw at a time and splits its three fits into stacks
    if fits_per_stack:
        budget = fits_per_stack * stiefel._state_bytes([10] * 3, 10, 2)
        monkeypatch.setattr(stiefel, "_STACK_BYTES", budget)
    spec = ToyDataSpec(n_train_per_class=10, n_test_per_class=20)
    cfg = _config(1.0, max_outer_iter=10)
    args = (spec, ["wda", "pca", "fda", "identity"], [1, 3, 31], [2, 11], [1.0, 100.0, 1e4], 3)
    result = run_protocol(*args, base_seed=5, wda_config=cfg)
    errors, failures = reference_run_protocol(*args, base_seed=5, wda_config=cfg)
    np.testing.assert_array_equal(result.errors, errors)
    assert result.failures == failures
    assert {(f["method"], f["p"], f["lambda"] if f["method"] == "wda" else None, f["k"])
            for f in failures} >= {("wda", 2, 1e4, None), ("wda", 11, 1.0, None),
                                   ("pca", 11, None, None), ("identity", 2, None, 31)}


def test_run_protocol_on_a_csv_of_unequal_classes_equals_a_per_cell_loop(tmp_path):
    spec = CsvDataSpec(_unequal_csv(tmp_path), train_fraction=0.5)
    cfg = _config(1.0, max_outer_iter=8, outer_tol=1e-6)
    args = (spec, ["pca", "wda"], [1, 5], [1, 2], [0.5, 30.0, 1e4], 2)
    result = run_protocol(*args, base_seed=2, wda_config=cfg)
    errors, failures = reference_run_protocol(*args, base_seed=2, wda_config=cfg)
    np.testing.assert_array_equal(result.errors, errors)
    assert result.failures == failures


def test_a_lambda_map_that_overflows_fails_only_its_own_cells(tmp_path):
    # at 1e-3 of the toy's scale, lambda / cost overflows to inf at 1e305:
    # adaptive_lambdas refuses that map, naming the lambda and cost the user
    # can act on, before wda_fit solves anything, and the sweep records it
    # as the failure of those cells alone
    toy = gen_toy(20, 4)
    path = tmp_path / "small.csv"
    save_csv(LabeledDataset(toy.samples * 1e-3, toy.labels), str(path))
    spec = CsvDataSpec(str(path), train_fraction=0.5)
    cfg = _config(1.0, max_outer_iter=5)
    message = (r"class pair \(0, 0\): lambda 1e\+305 over the pair's lambda -> 0 "
               r"transport cost 7\.38215e-06 is out of range; rescale the features")
    with pytest.raises(NumericalRangeError, match=message):
        wda_fit(_make_data(spec, 7, load_csv(spec.path))[0], _config(1e305))
    args = (spec, ["wda", "pca"], [1, 3], [2], [1.0, 1e305, 30.0], 2)
    result = run_protocol(*args, base_seed=7, wda_config=cfg)
    errors, failures = reference_run_protocol(*args, base_seed=7, wda_config=cfg)
    np.testing.assert_array_equal(result.errors, errors)
    assert result.failures == failures
    assert {(f["lambda"], f["k"]) for f in failures} == {(1e305, None)}
    assert not np.isnan(result.errors[0][:, :, [0, 2]]).any()


def test_a_fit_whose_every_trial_fails_the_armijo_test_stalls(monkeypatch):
    # no gain passes a sufficient-decrease constant of 1e300: each search
    # shrinks its step until it gives up, and the fit keeps its PCA start
    monkeypatch.setattr(stiefel, "_STEP_C1", 1e300)
    data, cfg = gen_toy(8, 0), WdaConfig()
    P, report = wda_fit(data, cfg)
    assert report.termination == "stalled"
    assert report.evaluations == [31] and report.n_iterations == 0
    assert P.tobytes() == pca_init(data.samples.T, cfg.dim).tobytes()
    cases = [(data, cfg), (gen_toy(8, 1), WdaConfig(lam=1.0))]
    fits = _lockstep(cases)
    assert [fit.report.termination for fit in fits] == ["stalled", "stalled"]
    _assert_each_fit_is_its_own(cases, fits)
