"""Outer optimization over matrices with orthonormal rows.

Projected gradient ascent with Armijo backtracking: ascend the ratio
objective, project each trial point back onto the manifold via the polar
factor, and stop on relative objective stagnation. The search direction is
D = proj(P + G) - P, the classic projected-gradient direction, which reduces
to the tangential gradient for small steps.

The linesearch is fixed: each outer iteration tries the steps
a0 * _STEP_SHRINK**k for k = 0 .. _MAX_BACKTRACKS and accepts the first one
whose objective gain is at least _STEP_C1 * step * <G, D> (the Armijo
condition). If none is accepted, the fit stops as "stalled". The first
iteration starts at a0 = _STEP_INIT; every later one starts from the last
accepted step, grown once: a0 = min(_STEP_INIT, previous / _STEP_SHRINK)
(Nocedal & Wright, Numerical Optimization, 3.5). Once the accepted steps
settle far below _STEP_INIT, an iteration no longer evaluates and discards
every larger step first; while they stay at 1/2 or above, the trials are
those of a fixed start at _STEP_INIT.

Fits run in lockstep (``_fit_lockstep``): S fits of the same class sizes,
dimension and Sinkhorn budget share one stack of states
(:class:`~wda.objective.PlanStack`), one stacked :func:`gradient` per
outer iteration and one stacked :func:`evaluate` per line-search trial of
the fits still searching, and each equals its own fit bit for bit. Each
call reads or writes the first problems of the stack, and one placement
step (``_partition``) gives them to the fits it is for: each other fit
there trades places with one of those from further back, and of the two
only a fit whose state is read again has its runs copied.
:func:`wda_fit` is the case S = 1; ``wda sweep`` runs the wda fits of one
p, every seed and lambda, in stacks of at most ``_STACK_BYTES`` of state
arrays.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import LabeledDataset, require_finite, require_integer
from .errors import DegenerateInputError, InvalidInputError, WdaError
from .objective import (
    PairKey,
    WdaConfig,
    adaptive_lambdas,
    evaluate,
    gradient,
    pair_json,
    pair_keys,
)

_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_STEP_C1 = 1e-4
_MAX_BACKTRACKS = 30


def project_stiefel(A: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal rows in Frobenius norm (polar factor).

    For A = U S V^T (thin SVD) the projection is U V^T. A must have full row
    rank, otherwise the projection is not unique. Raises InvalidInputError
    naming the first non-finite entry of A.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not 1 <= A.shape[0] <= A.shape[1]:
        raise InvalidInputError(
            f"expected a p x d matrix with 1 <= p <= d, got shape {A.shape}"
        )
    require_finite("matrix", A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if not (s[0] > 0.0 and s[-1] > 1e-13 * s[0]):
        raise DegenerateInputError("matrix is rank deficient; polar factor undefined")
    return U @ Vt


def pca_init(X: np.ndarray, p: int) -> np.ndarray:
    """Top-p principal directions of column samples, as orthonormal rows.

    X is (d, n) with one column per sample. Rows of the result are the
    leading eigenvectors of the centered sample covariance; each row is sign
    fixed so its largest-magnitude entry is positive. Raises
    InvalidInputError naming the first non-finite entry of X, or for a p
    that is not an integer in [1, d].
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInputError("X must be 2-d with one column per sample")
    require_finite("X", X)
    d, n = X.shape
    if n < 2:
        raise InvalidInputError("need at least 2 samples for PCA")
    if not 1 <= require_integer("p", p) <= d:
        raise InvalidInputError(f"p must lie in [1, {d}], got {p}")
    Xc = X - X.mean(axis=1, keepdims=True)
    U, s, _ = np.linalg.svd(Xc, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s[0] > 0 else 0
    if p > rank:
        raise DegenerateInputError(
            f"p={p} exceeds the rank {rank} of the centered data"
        )
    P = U[:, :p].T.copy()
    for row in P:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return P


def pca_start(data: LabeledDataset, p: int, lam: float) -> tuple[np.ndarray, dict[PairKey, float]]:
    """The PCA start at dimension p, and the per-pair lambda map fixed there:
    the map of every fit of ``data`` at (p, lam), whatever its ``init``, and
    of ``wda dump-transport --adaptive-lambda``, whatever its projection."""
    P0 = pca_init(data.samples.T, p)
    return P0, adaptive_lambdas(P0, data.class_blocks(), lam)


def riemannian_gradient(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Tangential component of an ambient gradient at a point with P P^T = I."""
    GPt = G @ P.T
    return G - 0.5 * (GPt + GPt.T) @ P


@dataclass
class FitReport:
    """Trajectory of one fit: objective values, steps, norms, timing, stop reason.

    ``gradient_norms``, ``evaluations`` and ``iteration_seconds`` hold one
    entry per outer iteration run, the stopping one included:
    ``gradient_norms`` the Frobenius norm of the Riemannian gradient at the
    iterate, ``evaluations`` the objective evaluations of the linesearch (0
    for a "stationary" iteration, which tries no step). ``step_sizes`` and
    ``objective_values[1:]`` hold one entry per accepted step. A fit run in
    lockstep with others (``wda sweep``) records as ``iteration_seconds``
    the wall time of each shared round, the same for every fit in it; every
    other field is that of its own :func:`wda_fit`, bit for bit.

    The fields are the record: :meth:`to_json` (``fit_report.json``) writes
    each under its name, in this order, with ``pair_lambdas`` keyed "c,cp".
    """

    objective_values: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    gradient_norms: list[float] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    iteration_seconds: list[float] = field(default_factory=list)
    termination: str = "max_iterations"
    n_iterations: int = 0
    best_objective: float = float("nan")
    best_iteration: int = 0
    pair_lambdas: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {**asdict(self), "pair_lambdas": pair_json(self.pair_lambdas)}


def wda_fit(
    data: LabeledDataset,
    cfg: WdaConfig,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Learn a discriminant projection by projected gradient ascent.

    Runs: per-pair regularization fixed at the PCA start (:func:`pca_start`)
    whatever ``init`` is, then from ``init`` (else the PCA start) iterate
        G = dJ/dP,  D = proj(P + G) - P,  backtracking on J(proj(P + a D))
    until the relative objective change drops below ``cfg.outer_tol``, the
    direction vanishes, the linesearch stalls, or ``cfg.max_outer_iter`` is
    reached. Returns the best-objective iterate and the fit trajectory.
    Raises InvalidInputError naming the first non-finite sample or init value.

    It runs as the lockstep driver of ``wda sweep`` (``_fit_lockstep``)
    with this one fit: a stack of one problem.
    """
    fit = _start_fit(data, cfg, init)
    _fit_lockstep([fit])
    if fit.error is not None:
        raise fit.error
    return fit.best[1], fit.report


@dataclass(eq=False, slots=True)
class _Fit:
    """One fit of a lockstep run: its settings, blocks and lambda map, its
    iterate P and the value there, its record, and the line search of the
    current round. ``error`` is the refusal that ended it."""

    cfg: WdaConfig
    blocks: list
    lambdas: dict
    P: np.ndarray
    report: FitReport
    value: float = float("nan")
    best: tuple = ()
    alpha0: float = _STEP_INIT
    direction: np.ndarray | None = None
    slope: float = 0.0
    alpha: float = 0.0
    trials: int = 0
    step: tuple | None = None
    error: WdaError | None = None


# the bytes of state arrays a lockstep stack holds, at most, unless it is one
# fit. A stack saves numpy's per-call overhead, which dominates while each
# fit's arrays are small; once the kernel stacks and scaling records the
# Sinkhorn loop sweeps outgrow a core's L2 cache (2 MiB per core on the
# 2-vCPU Xeon measured), a stack can run slower than its fits one by one: 4
# fits of 3 classes of 136 points (1.1 MB each) took 1.16 times as long.
_STACK_BYTES = 2 * 2**20


def _state_bytes(sizes: list[int], L: int, p: int) -> int:
    """Bytes of the state arrays of one fit with classes of these sizes, L
    Sinkhorn iterations and dimension p: per class pair its kernel, scaling
    records and cost factors (see :class:`~wda.objective.PairPlans`)."""
    return 8 * sum(
        n * m + (L + 1) * n + L * m + (p + 2) * (n + m)
        for n, m in ((sizes[c], sizes[cp]) for c, cp in pair_keys(len(sizes)))
    )


def _stack_size(fit: _Fit) -> int:
    """How many fits like ``fit`` one lockstep stack takes."""
    sizes = [X.shape[1] for X in fit.blocks]
    return max(1, _STACK_BYTES // _state_bytes(sizes, fit.cfg.sinkhorn_iters, fit.cfg.dim))


def _start_fit(
    data: LabeledDataset, cfg: WdaConfig, init=None, start: np.ndarray | None = None
) -> _Fit:
    """A fit of ``data`` at ``cfg`` from ``init``, after the checks of
    :func:`wda_fit`. ``start``, when given, is the PCA start
    ``pca_init(data.samples.T, cfg.dim)``, computed once for several fits."""
    require_finite("samples", data.samples)
    blocks = data.class_blocks()
    if len(blocks) < 2:
        raise DegenerateInputError(f"need at least 2 classes, got {len(blocks)}")
    counts = [X.shape[1] for X in blocks]
    if min(counts) < 2:
        raise DegenerateInputError(
            f"every class needs at least 2 samples, got counts {counts}"
        )
    d = data.n_features

    P = pca_init(data.samples.T, cfg.dim) if start is None else start
    lambdas = adaptive_lambdas(P, blocks, cfg.lam)
    if init is not None:
        P = np.asarray(init, dtype=float)
        if P.shape != (cfg.dim, d):
            raise InvalidInputError(
                f"init shape {P.shape} does not match ({cfg.dim}, {d})"
            )
        require_finite("init", P)
        if np.abs(P @ P.T - np.eye(cfg.dim)).max() > 1e-8:
            raise InvalidInputError("init must have orthonormal rows")
    return _Fit(cfg, blocks, lambdas, P, FitReport(pair_lambdas=dict(lambdas)))


def _fit_lockstep(fits: list[_Fit]) -> None:
    """Run fits of the same class sizes, dimension and Sinkhorn budget in
    rounds, each fit's evaluations and gradients stacked with the others'.

    Round t is outer iteration t of every fit still running: one stacked
    gradient, then stacked line-search trials, each of the fits still
    searching, until each has accepted a step or stalled. A fit runs
    exactly the trials of its own fit and is bit-identical to it; its
    ``iteration_seconds`` are the wall times of its rounds. A fit that is
    refused keeps the error in ``error`` and leaves the stack, as does a
    fit that ends; the others go on.

    The fits share one stack of states, solved at the start. Each fit's
    runs are one problem of it (see :class:`~wda.objective.PlanStack`),
    and each call reads or writes the first problems, which
    :func:`_partition` gives to the fits of the call: before a gradient the
    fits still running, which keep their runs, and before a trial the fits
    still searching, whose runs are no longer read, while the fits that
    have accepted their step this round keep theirs. A trial writes into
    the state of the fit it replaces, which only its value is read from;
    so a round allocates no state array, and a run holds one state per
    fit.
    """
    cfg = fits[0].cfg
    stack = evaluate([f.P for f in fits], [f.blocks for f in fits], cfg, [f.lambdas for f in fits])
    slots = list(fits)  # the fit whose runs each problem holds
    live = []
    for fit, state in zip(fits, stack.problems):
        if isinstance(state, WdaError):
            fit.error = state
            continue
        fit.value, fit.best = state.value, (state.value, fit.P, 0)
        fit.report.objective_values.append(state.value)
        live.append(fit)
    del state  # the first trial replaces it

    it = 0
    while live:
        it += 1
        t0 = time.perf_counter()
        live = _partition(stack, slots, live, live)
        searching = []
        for fit, G in zip(live, gradient(stack.window(0, len(live)))):
            fit.trials, fit.step = 0, None
            if isinstance(G, WdaError):
                fit.error = G
                continue
            fit.report.gradient_norms.append(float(np.linalg.norm(riemannian_gradient(fit.P, G))))
            try:
                D = project_stiefel(fit.P + G) - fit.P
            except WdaError as exc:
                fit.error = exc
                continue
            slope = float(np.sum(G * D))
            if np.linalg.norm(D) <= 1e-14 * max(1.0, np.linalg.norm(fit.P)) or slope <= 0.0:
                fit.report.termination = "stationary"
                continue
            fit.direction, fit.slope, fit.alpha = D, slope, fit.alpha0
            searching.append(fit)

        _line_search(stack, slots, searching, cfg)

        seconds = time.perf_counter() - t0
        for fit in live:
            if fit.error is not None:
                continue
            report = fit.report
            report.evaluations.append(fit.trials)
            report.iteration_seconds.append(seconds)
            if fit.trials == 0:
                continue  # stationary
            if fit.step is None:
                report.termination = "stalled"
                continue
            previous = fit.value
            fit.P, fit.value = fit.step
            report.n_iterations = it
            report.step_sizes.append(fit.alpha)
            fit.alpha0 = min(_STEP_INIT, fit.alpha / _STEP_SHRINK)
            report.objective_values.append(fit.value)
            if fit.value > fit.best[0]:
                fit.best = (fit.value, fit.P, it)
            if (fit.value - previous) / max(abs(previous), 1e-300) < fit.cfg.outer_tol:
                report.termination = "converged"
        live = [
            fit for fit in live
            if fit.error is None and fit.step is not None
            and fit.report.termination == "max_iterations" and it < fit.cfg.max_outer_iter
        ]

    for fit in fits:
        if fit.error is None:
            fit.report.best_objective, fit.report.best_iteration = fit.best[0], fit.best[2]


def _line_search(stack, slots: list, searching: list[_Fit], cfg: WdaConfig) -> None:
    """One round's backtracking of the fits ``searching``, each from its
    ``alpha``: stacked trials, each of the fits still searching, until each
    has accepted a step (``step``, with ``trials`` its evaluations) or
    stalled (``step`` None). From here on only each fit's value is read:
    its first trial writes its arrays into the fit's state, and a rejected
    trial hands them on; the states' validated blocks and lambda maps are
    not scanned again. Before each trial the fits still searching take the
    first problems (:func:`_partition`, the fits that have accepted keeping
    their runs), and their trial points are evaluated in that order."""
    accepted: set[_Fit] = set()
    for trial in range(1, _MAX_BACKTRACKS + 2):
        tries = {}
        for fit in searching:
            try:
                tries[fit] = project_stiefel(fit.P + fit.alpha * fit.direction)
            except WdaError as exc:
                fit.error = exc
        if not tries:
            return
        searching = _partition(stack, slots, list(tries), accepted)
        out = stack.window(0, len(searching))
        states = out.problems
        result = evaluate(
            [tries[fit] for fit in searching], [st.classes for st in states], cfg,
            [st.pair_lambdas for st in states], out=out,
        )
        stack.problems[:len(searching)] = result.problems
        rejected = []
        for fit, s_try in zip(searching, result.problems):
            if isinstance(s_try, WdaError):
                fit.error = s_try
                continue
            fit.trials = trial
            if s_try.value >= fit.value + _STEP_C1 * fit.alpha * fit.slope:
                fit.step = (tries[fit], s_try.value)
                accepted.add(fit)
            else:
                fit.alpha *= _STEP_SHRINK
                rejected.append(fit)
        searching = rejected


def _partition(stack, slots: list[_Fit], first: list[_Fit], keep) -> list[_Fit]:
    """Give the fits ``first`` the first problems of ``stack``, and return
    them in the order they hold there. Each other fit in that range trades
    places with a fit of ``first`` from further back, its state going with
    it; of the two, only a fit of ``keep`` has its runs copied."""
    n, chosen = len(first), set(first)
    back = [j for j in range(n, len(slots)) if slots[j] in chosen]
    for i in range(n):
        if slots[i] not in chosen:
            j = back.pop()
            if slots[i] in keep:
                stack.move(i, j)
            elif slots[j] in keep:
                stack.move(j, i)
            else:
                stack.problems[i], stack.problems[j] = stack.problems[j], stack.problems[i]
            slots[i], slots[j] = slots[j], slots[i]
    return slots[:n]
