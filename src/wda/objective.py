"""The discriminant ratio objective and its gradient.

For a projection P (p x d, orthonormal rows) and per-class sample blocks
X^c (d x n_c), every class pair (c <= c') gets an entropic transport plan T
between the projected clouds Y^c = P X^c, with projected cost matrix
M_ij = ||y_i - y'_j||^2. Each pair distance is <T, M>; sigma_b^2 sums them
over the between-class pairs (c < c') and sigma_w^2 over the within-class
pairs (c = c'), and the objective is the ratio

    J(P) = sigma_b^2 / sigma_w^2.

This equals <P^T P, C_b> / <P^T P, C_w> with d x d transport-weighted
covariances of sample differences, never formed here; at lambda -> 0 they
are sums of S_c + S_c' + g g^T over class moments (:func:`adaptive_lambdas`).

J depends on P only through the M of each pair, so the gradient is one
formula for every pair. The cost cotangent of a pair distance is
G = T + d<W, T(M)>/dM at the fixed weight W = M, the second term a reverse
pass through the recorded Sinkhorn iterations, and J weighs it with
coef = +1/sigma_w^2 for between pairs and -sigma_b^2/sigma_w^4 for within
pairs. G is pulled back to P in the projected space (see :func:`gradient`).

Pairs whose plans share a shape (n_c, n_c') are solved as one stack: all of
them on balanced data, one group per distinct shape otherwise, with no
padding. :func:`solve_pairs` builds each shape's (B, n, m) cost stack from
one product and turns it into the kernel stack in place; each pair's
Sinkhorn run is its slice of the group's batch. That kernel stack is the
only (B, n, m) array a state holds. Wherever K * M is needed, it is read
through the (p + 2)-row factors of the pair's cost, taken about the mean of
the pair's n + m projected points, so the pair distances and the gradient
lose no digits to large squared norms cancelling far from the origin.
:func:`evaluate` forms the ratio from them, and ``wda dump-transport
--adaptive-lambda`` writes them under the fit's lambda map, so a user dumps
the plans J uses at the dumped projection.
:func:`gradient` runs one stacked reverse recursion per group, then forms
each pair's (n, m) cotangent in turn, in pair order. Each pair's numbers
are those of a plain per-pair loop, bit for bit.

The core is written for a stack of S problems of the same class sizes,
each with its own projection, class blocks and lambda map, and a single
problem is the stack of one. :func:`evaluate` takes a stack as a list of
projections with a list of block lists and of lambda maps, and returns a
:class:`PlanStack`: the pairs of every problem that share a plan shape are
one kernel stack and one Sinkhorn run, problem-major, and each problem's
plans are views of its runs.
:func:`gradient` of a stack runs one reverse recursion per batch and forms
the cotangents of one pair for all S problems at once, an (S, n, m) stack,
so a stacked call holds S times the arrays of one. Each problem's
numbers are those of its own call, bit for bit, and a numerical refusal
(an underflowing kernel, an overflowing distance, a zero within-class
dispersion, a non-finite gradient term) stands in its problem's place
while the others are solved. :func:`wda.stiefel.wda_fit` is the lockstep
driver of the sweep's fits (``wda.stiefel._fit_lockstep``) with S = 1.

A fit's line search reads only the value of the state its gradient came
from, so :func:`~wda.stiefel.wda_fit` has each trial write into that
state, and a rejected trial into the next, through the ``out=`` of the
stacked :func:`evaluate`, the only call that takes one (a single problem is
the stack of one: ``evaluate([P], [classes], cfg, [lambdas], out=stack)``).
``out`` covers every array of a state: its kernel stacks, its Sinkhorn
scaling records and its cost factors. The blocks and lambda map of a
problem of ``out`` were validated when it was solved, so a trial that
passes them (its ``classes`` and ``pair_lambdas``) is not scanned again.
After its first evaluation a fit allocates no state array; traced alone, a
trial allocates 0.50 of a kernel stack at 3 x 34 points with 10 features
(1.32 with new records and factors) and 0.18 at 3 x 100 with 30 (0.43).
A fit also holds one state's arrays and one pair's (n, m) cotangent at a
time: every trial of ``wda_fit`` writes into the one state it holds, and
:func:`gradient` drops each pair's cotangent before it forms the next.
Traced over a two-iteration fit on 3 x 100 points with 30 features
(``append_noise(gen_toy(100, 2), 20, 3)``, its blocks read in place), the
peak is 1.81 kernel stacks, and a gradient call allocates at most 0.50 of
one (0.67 with the previous cotangent kept). Every state returned by
:func:`evaluate` or :func:`solve_pairs` owns its arrays (in a stack, views
of the stack's) unless ``out`` is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import require_finite, require_integer, require_number
from .errors import DegenerateInputError, InvalidInputError, NumericalRangeError, WdaError
from .otcore import (
    _TINY,
    SinkhornBatch,
    _cost_factors,
    _factored_matvec,
    cost_matrix,
    self_costs,
    sinkhorn_batch,
    sinkhorn_batch_reverse,
    sinkhorn_kernels,
    transport_cost_cotangent,
)

PairKey = tuple[int, int]


@dataclass
class WdaConfig:
    """The five settings of a fit.

    ``lam`` is the base regularization strength; per-pair values are derived
    from it a priori (see :func:`adaptive_lambdas`). ``sinkhorn_iters`` is the
    fixed inner iteration count L whose map gets differentiated. ``dim`` is
    the target dimension p; ``max_outer_iter`` and ``outer_tol`` bound the
    outer ascent (see :func:`~wda.stiefel.wda_fit`).
    """

    lam: float = 0.01
    sinkhorn_iters: int = 10
    dim: int = 2
    max_outer_iter: int = 100
    outer_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < require_number("lam", self.lam) < math.inf:
            raise InvalidInputError(
                f"lambda must be positive and finite, got {self.lam}"
            )
        counts = ("sinkhorn_iters", "dim", "max_outer_iter")
        for name in counts:
            require_integer(name, getattr(self, name))
        for name in counts:
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= require_number("outer_tol", self.outer_tol) < math.inf:
            raise InvalidInputError(
                f"outer_tol must be >= 0 and finite, got {self.outer_tol}"
            )


def _check_classes(classes) -> list[np.ndarray]:
    blocks = [np.asarray(X, dtype=float) for X in classes]
    if len(blocks) < 1:
        raise InvalidInputError("need at least one class block")
    d = blocks[0].shape[0]
    for c, X in enumerate(blocks):
        if X.ndim != 2:
            raise InvalidInputError(f"class {c}: sample block must be 2-d")
        if X.shape[0] != d:
            raise InvalidInputError(
                f"class {c}: feature dimension {X.shape[0]} differs from {d}"
            )
        if X.shape[1] < 1:
            raise InvalidInputError(f"class {c}: empty sample block")
        require_finite(f"class {c} sample block", X)
    return blocks


def _check_projection(P, blocks: list[np.ndarray]) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != blocks[0].shape[0]:
        raise InvalidInputError(
            f"projection shape {P.shape} does not match feature dimension "
            f"{blocks[0].shape[0]}"
        )
    if P.shape[0] < 1:
        raise InvalidInputError(f"projection of shape {P.shape} has no rows")
    require_finite("projection", P)
    return P


def pair_keys(n_classes: int) -> list[PairKey]:
    """All class pairs (c, c') with c <= c', in lexicographic order."""
    return [(c, cp) for c in range(n_classes) for cp in range(c, n_classes)]


def pair_json(values: dict[PairKey, float]) -> dict[str, float]:
    """A per-pair map as JSON: each value a float under the key "c,cp"."""
    return {f"{c},{cp}": float(v) for (c, cp), v in values.items()}


def _class_moments(classes):
    """Each class's first sample o, (d, 1), mean m about o and covariance S,
    blocks refused as by :func:`evaluate`. About o, identical points give
    S = 0 exactly, and the gap g = (o_c - o_c') + (m_c - m_c') cancels a shift.
    On features so large that they overflow, the moments hold inf or nan
    without a numpy warning; the callers refuse them by name."""
    for X in _check_classes(classes):
        with np.errstate(over="ignore", invalid="ignore"):
            E = X - X[:, :1]
            mean = E.mean(axis=1, keepdims=True)
            E -= mean
            S = E @ E.T
            S /= X.shape[1]
        yield X[:, :1], mean, S


def adaptive_lambdas(P0: np.ndarray, classes, lam: float) -> dict[PairKey, float]:
    """Fix one regularization value per class pair from the initial projection:
    ``lam`` divided by the pair's lambda -> 0 transport cost at P0, the trace
    of S_c + S_c' + g g^T from the (p, p) moments of the projected classes.

    A fit computes them once, at the PCA start whatever its ``init`` (see
    :func:`~wda.stiefel.pca_start`), and reuses them in every evaluation.
    Raises InvalidInputError for a ``lam`` that is not a positive, finite
    number, NumericalRangeError, naming the pair, ``lam`` and the cost, when
    ``lam / cost`` is not positive and finite (it overflows on data of tiny
    spread), and refuses blocks and ``P0`` as :func:`solve_pairs` does.
    """
    if not 0 < require_number("lam", lam) < math.inf:
        raise InvalidInputError(f"lambda must be positive and finite, got {lam}")
    blocks = _check_classes(classes)
    P0 = _check_projection(P0, blocks)
    moments = list(_class_moments([P0 @ X for X in blocks]))
    lam_map = {}
    for c, cp in pair_keys(len(blocks)):
        (origin, mean, S), (origin_p, mean_p, S_p) = moments[c], moments[cp]
        gap = (origin - origin_p) + (mean - mean_p)  # 0 when c == cp
        with np.errstate(over="ignore"):  # an overflowing cost is refused below
            cost = float(np.trace(S + S_p + gap @ gap.T))
        if cost <= 0.0:
            raise DegenerateInputError(
                f"all projected points of class pair {(c, cp)} coincide; "
                "adaptive regularization is undefined"
            )
        lam_map[(c, cp)] = lam / cost
        if not 0 < lam_map[(c, cp)] < math.inf:
            raise NumericalRangeError(
                f"class pair {(c, cp)}: lambda {lam:.6g} over the pair's lambda -> 0 "
                f"transport cost {cost:.6g} is out of range; rescale the features"
            )
    return lam_map


@dataclass
class PairPlans:
    """The fixed-L Sinkhorn runs of every class pair at one projection.

    ``batches`` maps the pairs of each plan shape, in pair order, to their
    stacked Sinkhorn runs (run b is the key's b-th pair); their kernel
    stacks are the only (B, n, m) arrays held. ``cost_factors`` maps the
    same keys to the factor stacks A = [Y - mu; |y - mu|^2; 1], (B, p + 2, n),
    and B = [-2 (Y' - mu); 1; |y' - mu|^2], (B, p + 2, m), of each run's
    projected clouds Y, Y' about the mean mu of their n + m points: A^T B
    is the run's cost matrix up to rounding, so K * M is read through them
    by the pair distances and the gradient, and neither M nor K * M is
    kept. ``pair_distances`` maps every pair, in pair order, to its
    transport cost <T, M>.
    ``projection`` and ``classes`` are the P and the validated class blocks
    the plans were solved at, held by reference: modifying them in place
    afterwards invalidates the result. The arrays are its own unless it was
    solved into the ``out`` of a stacked :func:`evaluate`: then they are
    views of ``out``'s runs, whose earlier plans are void, and so are its
    blocks and lambda map when they were ``out``'s.
    """

    projection: np.ndarray = field(repr=False)
    classes: list[np.ndarray] = field(repr=False)
    cost_factors: dict[tuple[PairKey, ...], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    batches: dict[tuple[PairKey, ...], SinkhornBatch] = field(repr=False)
    pair_lambdas: dict[PairKey, float]
    pair_distances: dict[PairKey, float]

    def runs(self) -> dict[PairKey, tuple[SinkhornBatch, int]]:
        """Each pair's batch and its run index in it, in pair order."""
        found = {}
        for keys, batch in self.batches.items():
            found.update((key, (batch, b)) for b, key in enumerate(keys))
        return {key: found[key] for key in self.pair_distances}


@dataclass
class ObjectiveState(PairPlans):
    """One full evaluation of the ratio objective at a projection: the pair
    plans it was assembled from, kept so a gradient can be formed without
    re-solving the inner problems, and the ratio."""

    value: float
    sigma_b2: float
    sigma_w2: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "sigma_b2": self.sigma_b2,
            "sigma_w2": self.sigma_w2,
            "pair_distances": pair_json(self.pair_distances),
            "pair_lambdas": pair_json(self.pair_lambdas),
            "pair_residuals": pair_json(
                {key: batch.residual[b] for key, (batch, b) in self.runs().items()}
            ),
        }


def _problem_runs(batches, cost_factors, start: int, stop: int):
    """The batches and cost factors of problems start .. stop - 1 of a stack
    (see :class:`PlanStack`), as views."""
    runs_b, runs_f = {}, {}
    for keys, batch in batches.items():
        runs = slice(start * len(keys), stop * len(keys))
        runs_b[keys] = SinkhornBatch(
            batch.kernel[runs], batch.u_history[runs], batch.v_history[runs], batch.residual[runs]
        )
        A, B = cost_factors[keys]
        runs_f[keys] = (A[runs], B[runs])
    return runs_b, runs_f


@dataclass
class PlanStack:
    """The pair plans of S problems of the same class sizes, solved as one.

    ``batches`` and ``cost_factors`` are keyed as those of
    :class:`PairPlans`, by the pairs of each plan shape, and hold the runs
    of every problem, problem-major: run s G + j of a key of G pairs is
    pair j of problem s. So the runs of one problem, and of consecutive
    problems, are one slice of each stack, and the runs of one pair over
    the problems a strided one. ``problems`` holds each problem's
    :class:`PairPlans` (:class:`ObjectiveState` from :func:`evaluate`),
    whose arrays are views of its runs, or the WdaError that refused it.
    The stack of one problem holds that problem's own batches.
    """

    batches: dict[tuple[PairKey, ...], SinkhornBatch] = field(repr=False)
    cost_factors: dict[tuple[PairKey, ...], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    problems: list

    def window(self, start: int, stop: int) -> PlanStack:
        """Problems start .. stop - 1, their runs as views: the ``out`` of a
        stacked evaluate of those problems, or the states a stacked
        gradient reads."""
        if start == 0 and stop == len(self.problems):
            return self
        return PlanStack(
            *_problem_runs(self.batches, self.cost_factors, start, stop),
            self.problems[start:stop],
        )

    def move(self, src: int, dst: int) -> None:
        """Copy the runs of problem ``src`` over those of problem ``dst``, and
        trade the two problems' places: src's plans go to dst as views of
        dst's runs, and dst's entry to src."""
        for keys, batch in self.batches.items():
            G = len(keys)
            for array in (batch.kernel, batch.u_history, batch.v_history, batch.residual,
                          *self.cost_factors[keys]):
                array[dst * G:(dst + 1) * G] = array[src * G:(src + 1) * G]
        new_b, new_f = _problem_runs(self.batches, self.cost_factors, dst, dst + 1)
        self.problems[src], self.problems[dst] = (
            self.problems[dst], replace(self.problems[src], batches=new_b, cost_factors=new_f)
        )


def _resolve_lambdas(blocks, cfg: WdaConfig, lambdas) -> dict[PairKey, float]:
    if lambdas is None:
        return {key: cfg.lam for key in pair_keys(len(blocks))}
    missing = [key for key in pair_keys(len(blocks)) if key not in lambdas]
    if missing:
        raise InvalidInputError(f"missing per-pair lambda for pairs {missing}")
    for key in pair_keys(len(blocks)):
        if not 0 < require_number(f"per-pair lambda for pair {key}", lambdas[key]) < math.inf:
            raise InvalidInputError(
                f"per-pair lambda for pair {key} must be positive and finite, "
                f"got {lambdas[key]}"
            )
    return dict(lambdas)


def _is_stack(P) -> bool:
    """Whether P is a stack of projections: a list or tuple of 2-d arrays."""
    return isinstance(P, (list, tuple)) and len(P) > 0 and getattr(P[0], "ndim", 0) == 2


def _stack_arguments(P, classes, lambdas, out):
    """The arguments of an :func:`evaluate` call as a stack: whether they
    were one, and the lists of projections, class blocks and lambda maps,
    and ``out``: a :class:`PlanStack` of as many problems, taken by a stack
    only."""
    if not _is_stack(P):
        if out is not None:
            raise InvalidInputError(
                "out is taken by a stack of problems only: pass P, the class blocks "
                "and the lambda map as lists of one"
            )
        return False, [P], [classes], [lambdas], None
    lambdas = [None] * len(P) if lambdas is None else lambdas
    if not len(P) == len(classes) == len(lambdas):
        raise InvalidInputError(
            f"a stack of {len(P)} projections needs as many class block lists and "
            f"lambda maps, got {len(classes)} and {len(lambdas)}"
        )
    if out is not None and not (isinstance(out, PlanStack) and len(out.problems) == len(P)):
        raise InvalidInputError(
            f"out of a stack of {len(P)} problems must be a PlanStack of as many"
        )
    return True, P, classes, lambdas, out


def _one(result):
    """The result of a single problem: raise its refusal, or return it."""
    if isinstance(result, WdaError):
        raise result
    return result


def _solve(P, classes, cfg: WdaConfig, lambdas, out) -> PlanStack:
    """The pair plans of a stack of problems (:func:`solve_pairs` of each),
    a single one as a stack of one. Bad input refuses the call; a numerical
    refusal only its own problem, which stands in its place in
    ``problems``. Each plan-shape group is built, checked for underflow and
    iterated in turn; from the group that first flags a problem on, its runs
    iterate on unit kernels, which keep them finite, and are dropped."""
    S = len(P)
    blocks, projections, lam_maps = [], [], []
    for s in range(S):
        # out's own blocks and lambda maps were validated when out was solved
        own = None if out is None else out.problems[s]
        trusted = isinstance(own, PairPlans)
        Xs = classes[s] if trusted and classes[s] is own.classes else _check_classes(classes[s])
        projections.append(_check_projection(P[s], Xs))
        lam_maps.append(
            lambdas[s] if trusted and lambdas[s] is own.pair_lambdas
            else _resolve_lambdas(Xs, cfg, lambdas[s])
        )
        blocks.append(Xs)
    sizes = [X.shape[1] for X in blocks[0]]
    for s in range(1, S):
        if [X.shape[1] for X in blocks[s]] != sizes:
            raise InvalidInputError(
                f"problem {s} of the stack has class sizes "
                f"{[X.shape[1] for X in blocks[s]]}, not {sizes}"
            )
        if projections[s].shape[0] != projections[0].shape[0]:
            raise InvalidInputError(
                f"problem {s} of the stack projects to {projections[s].shape[0]} "
                f"dimensions, not {projections[0].shape[0]}"
            )
    keys_in_order = pair_keys(len(sizes))

    # class pairs grouped by plan shape (n_c, n_c'), each group in pair order;
    # a group's runs hold every problem's pairs, problem-major
    groups: dict[tuple[int, int], list[PairKey]] = {}
    for c, cp in keys_in_order:
        groups.setdefault((sizes[c], sizes[cp]), []).append((c, cp))
    stack_shapes = {tuple(keys): (S * len(keys),) + shape for shape, keys in groups.items()}
    if out is not None and stack_shapes != {
        keys: batch.kernel.shape for keys, batch in out.batches.items()
    }:
        raise InvalidInputError("out holds plans of other class sizes")
    if out is not None:
        out_dim = next(iter(out.cost_factors.values()))[0].shape[1] - 2
        if out_dim != projections[0].shape[0]:
            raise InvalidInputError(
                f"out holds plans of projection dimension {out_dim}, not {projections[0].shape[0]}"
            )
    projected = [[Q @ X for X in Xs] for Q, Xs in zip(projections, blocks)]
    flagged: list[list[PairKey]] = [[] for _ in range(S)]
    batches, factors = ({}, {}) if out is None else (out.batches, out.cost_factors)
    distances: list[dict[PairKey, float]] = [{} for _ in range(S)]
    for keys in stack_shapes:
        G = len(keys)
        spare = None if out is None else out.batches[keys]
        Y = np.stack([projected[s][c] for s in range(S) for c, _ in keys])
        Yp = np.stack([projected[s][cp] for s in range(S) for _, cp in keys])
        M = cost_matrix(Y, Yp, out=None if spare is None else spare.kernel)
        for b, (c, cp) in enumerate(keys * S):
            if c == cp:
                self_costs(M[b])
        K, low = sinkhorn_kernels(M, [lam_maps[s][key] for s in range(S) for key in keys], out=M)
        for b, bad in enumerate(low.tolist()):
            if bad:
                flagged[b // G].append(keys[b % G])
        for s in range(S):
            if flagged[s]:
                K[s * G:(s + 1) * G] = 1.0
        batch = sinkhorn_batch(K, cfg.sinkhorn_iters, out=spare)
        mu = (Y.sum(axis=-1, keepdims=True) + Yp.sum(axis=-1, keepdims=True)) / (
            Y.shape[-1] + Yp.shape[-1]
        )
        A, B = _cost_factors(Y - mu, Yp - mu, out=None if out is None else out.cost_factors[keys])
        km_v = _factored_matvec(K, A, B, batch.v_history[:, -1])
        values = (batch.u_history[:, -1] * km_v).sum(axis=1).tolist()
        for s in range(S):
            distances[s].update(zip(keys, values[s * G:(s + 1) * G]))
        batches[keys], factors[keys] = batch, (A, B)

    problems: list = []
    for s, dist in enumerate(distances):
        overflowed = [key for key, value in dist.items() if not math.isfinite(value)]
        if flagged[s]:
            c, cp = key = min(flagged[s])  # the first in pair order
            lam = lam_maps[s][key]
            top_cost = float(cost_matrix(projected[s][c], projected[s][cp]).max())
            problems.append(NumericalRangeError(
                f"class pair {key} at lambda {lam:.6g}: kernel row underflow: "
                f"lam * max(M) = {lam * top_cost:.6g} pushes "
                f"exp(-lam*M) below {_TINY:g}; rescale the regularization"
            ))
        elif overflowed:
            problems.append(NumericalRangeError(
                f"class pair {min(overflowed)}: the projected squared distances overflow"
            ))
        else:
            # the stack of one problem is that problem's own
            runs_b, runs_f = (
                (batches, factors) if S == 1 else _problem_runs(batches, factors, s, s + 1)
            )
            problems.append(PairPlans(
                projection=projections[s],
                classes=blocks[s],
                cost_factors=runs_f,
                batches=runs_b,
                pair_lambdas=lam_maps[s],
                pair_distances={key: dist[key] for key in keys_in_order},
            ))
    return PlanStack(batches, factors, problems)


def solve_pairs(
    P: np.ndarray,
    classes,
    cfg: WdaConfig,
    lambdas: dict[PairKey, float] | None = None,
) -> PairPlans:
    """Solve the inner transport problem of every class pair at projection P.

    ``lambdas`` maps each pair (c, c') with c <= c' to its fixed
    regularization value; if omitted, ``cfg.lam`` is used for every pair.
    Any P of the right shape is accepted (no orthonormality is imposed).

    The pairs of each plan shape are solved together: one
    :func:`~wda.otcore.cost_matrix` stack of the projected blocks P X_c,
    turned into the kernel stack in place, and one
    :func:`~wda.otcore.sinkhorn_batch` call. Each shape group is built,
    checked for underflowing kernels and iterated in turn, and a kernel
    underflow is reported for the first failing pair in pair order over all
    groups (the least flagged key), named with its lambda and the largest
    entry of its cost matrix, one 2-d :func:`~wda.otcore.cost_matrix` of
    its projected blocks. Each pair
    distance <T, M> is u_L . ((K * M) v_L), without forming T or K * M:
    (K * M) v_L is read through the pair's centred cost factors (see
    :class:`PairPlans`) with one stacked product of p + 2 columns. The
    least pair whose distance is not finite is refused as an overflow.

    It is the single problem of the stacked core (see :func:`evaluate`),
    and owns its arrays.
    """
    return _one(_solve([P], [classes], cfg, [lambdas], None).problems[0])


def _assemble(plans) -> ObjectiveState | WdaError:
    """The ratio objective of one problem's plans, or its refusal."""
    if isinstance(plans, WdaError):
        return plans
    distances = plans.pair_distances
    sigma_b2 = sum(dist for (c, cp), dist in distances.items() if c != cp)
    sigma_w2 = sum(dist for (c, cp), dist in distances.items() if c == cp)
    if sigma_w2 <= 0.0:
        return DegenerateInputError(
            "within-class dispersion is zero; the ratio objective is undefined"
        )
    return ObjectiveState(
        **vars(plans), value=sigma_b2 / sigma_w2, sigma_b2=sigma_b2, sigma_w2=sigma_w2
    )


def evaluate(
    P: np.ndarray | list[np.ndarray],
    classes,
    cfg: WdaConfig,
    lambdas: dict[PairKey, float] | None = None,
    *,
    out: PlanStack | None = None,
) -> ObjectiveState | PlanStack:
    """Solve every inner transport problem and assemble the ratio objective.

    The pair plans are those of :func:`solve_pairs` (same arguments, same
    refusals). The evaluation is defined for any P of the right shape, which
    lets callers probe J in the ambient space, e.g. for finite-difference
    checks. Raises DegenerateInputError when the within-class dispersion
    sigma_w^2 is zero.

    A stack of S problems is solved as one: P is a list of S (p, d) arrays,
    ``classes`` a list of S class block lists of the same class sizes,
    ``lambdas`` None or a list of S maps, and ``out`` a :class:`PlanStack`
    of S problems. The pairs of every problem that share a plan shape are
    one kernel stack and one Sinkhorn run, and each problem's numbers are
    those of its own call, bit for bit. It returns a :class:`PlanStack` of
    their states. Bad input refuses the call; a problem whose own call would
    raise a numerical refusal (an underflowing kernel, an overflowing
    distance, a zero sigma_w^2) has that error in its place, and the others
    are solved.

    Only a stack takes ``out`` (a single problem is passed as lists of one),
    and every array of it is overwritten and reused: its kernel stacks, its
    scaling records and residuals (through the ``out=`` of
    :func:`~wda.otcore.sinkhorn_batch`, which refuses records of another
    iteration count) and its cost factors. Plans of other class sizes or of
    another projection dimension (their factors have p + 2 rows) are refused
    with InvalidInputError. Blocks and lambda maps that are those of
    ``out``'s problems were validated when ``out`` was solved and are not
    scanned again; a line search passes its states' own.
    """
    stacked, P, classes, lambdas, out = _stack_arguments(P, classes, lambdas, out)
    solved = _solve(P, classes, cfg, lambdas, out)
    solved.problems = [_assemble(plans) for plans in solved.problems]
    return solved if stacked else _one(solved.problems[0])


def gradient(state: ObjectiveState | PlanStack) -> np.ndarray | list:
    """Full ambient gradient dJ/dP at the projection of one :func:`evaluate`.

    J weighs each pair's cost cotangent G = d<T(M), M>/dM (one reverse pass,
    :func:`~wda.otcore.transport_cost_cotangent`) with coef = +1/sigma_w^2
    for between pairs and -sigma_b^2/sigma_w^4 for within pairs. As
    M_ij = ||y_i - y'_j||^2 with Y = P X, G is pulled back in the projected
    space, into a (p, n_c) accumulator per class:

        Z_c  += coef * (Y_c diag(G 1) - Y_c' G^T),
        Z_c' += coef * (Y_c' diag(G^T 1) - Y_c G),

    and dJ/dP = 2 sum_c Z_c X_c^T, a (p, d) array. P, the class blocks and
    the per-pair lambdas are those of ``state``, so the gradient is
    ``gradient(evaluate(P, classes, cfg, lambdas))``. Raises
    NumericalRangeError, naming the pair and its lambda, when a pair's term
    is not finite. The reverse recursion runs once per batch of ``state``,
    seeded with (K * M) v_L and (K * M)^T u_L, each one stacked product
    with the batch's cost factors; each (n, m) G is then formed in pair
    order from the pair's slice of its batch and its factors, with no other
    (n, m) array, and released before the next pair's. The two pull-back
    products take a row of ones under Y_c' and Y_c, so they give G 1 and
    G^T 1 as well.

    A :class:`PlanStack` of S states from one stacked :func:`evaluate` runs
    one reverse recursion per batch for all of them, and forms the
    cotangents of one pair for all S problems at once, as one (S, n, m)
    stack; it returns the list of their gradients, each bit-identical to
    its own call, with the refusal of a problem whose term is not finite
    in its place.
    """
    stacked = isinstance(state, PlanStack)
    stack = state if stacked else PlanStack(state.batches, state.cost_factors, [state])
    problems = stack.problems
    for s, st in enumerate(problems):
        if not isinstance(st, ObjectiveState):
            raise InvalidInputError(f"problem {s} of the stack has no state: {st}")

    # [Y_c; 1] per class, stacked over the problems: Y_c is the view of its
    # first p rows
    first = problems[0]
    ones_below = []
    for c, X in enumerate(first.classes):
        Ya = np.empty((len(problems), first.projection.shape[0] + 1, X.shape[1]))
        for s, st in enumerate(problems):
            Ya[s, :-1] = st.projection @ st.classes[c]
        Ya[:, -1] = 1.0
        ones_below.append(Ya)
    Z = [np.zeros_like(Ya[:, :-1]) for Ya in ones_below]
    # each problem's weights and lambdas, as columns
    between = np.array([1.0 / st.sigma_w2 for st in problems])[:, None, None]
    within = np.array([-st.sigma_b2 / st.sigma_w2**2 for st in problems])[:, None, None]
    lams = np.array(
        [[st.pair_lambdas[key] for key in first.pair_distances] for st in problems], dtype=float
    )
    refused: list[WdaError | None] = [None] * len(problems)
    # a term that leaves the floating-point range is refused by the check
    # below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        runs = {}
        for keys, batch in stack.batches.items():
            A, B = stack.cost_factors[keys]
            K, u, v = batch.kernel, batch.u_history[:, -1], batch.v_history[:, -1]
            r_bars, s_bars = sinkhorn_batch_reverse(
                batch, _factored_matvec(K, A, B, v),
                _factored_matvec(K.transpose(0, 2, 1), B, A, u),
            )
            runs.update((key, (keys, j, r_bars, s_bars)) for j, key in enumerate(keys))

        for k, (c, cp) in enumerate(first.pair_distances):
            keys, j, r_bars, s_bars = runs[(c, cp)]
            b = slice(j, None, len(keys))  # the pair's runs: one per problem
            A, B = stack.cost_factors[keys]
            G = transport_cost_cotangent(
                stack.batches[keys], b, lams[:, k], (A[b], B[b]), r_bars[b], s_bars[b]
            )
            pulled_c = ones_below[cp] @ G.transpose(0, 2, 1)  # [Y_c' G^T; (G 1)^T]
            pulled_cp = ones_below[c] @ G                     # [Y_c G; 1^T G]
            del G  # the next pair's cotangents are allocated without these
            row, col = pulled_c[:, -1:], pulled_cp[:, -1:]
            if not (np.isfinite(row).all() and np.isfinite(col).all()):
                finite = np.isfinite(row).all(axis=(1, 2)) & np.isfinite(col).all(axis=(1, 2))
                for s in np.flatnonzero(~finite):
                    refused[s] = refused[s] or NumericalRangeError(
                        f"gradient term of class pair ({c}, {cp}) is not finite at "
                        f"lambda {lams[s, k]:.6g}; the fixed-L Sinkhorn "
                        "iterations left the floating-point range, lower the regularization"
                    )
                # a refused problem's terms are dropped, so the others' stay finite
                pulled_c[~finite] = 0.0
                pulled_cp[~finite] = 0.0
            coef = within if cp == c else between
            Z[c] += coef * (ones_below[c][:, :-1] * row - pulled_c[:, :-1])
            Z[cp] += coef * (ones_below[cp][:, :-1] * col - pulled_cp[:, :-1])
    grads = [
        refused[s] or 2.0 * sum(Zc[s] @ X.T for Zc, X in zip(Z, st.classes))
        for s, st in enumerate(problems)
    ]
    return grads if stacked else _one(grads[0])
