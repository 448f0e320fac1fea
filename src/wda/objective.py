"""The discriminant ratio objective, its cross-covariances, and its gradient.

For a projection P (p x d, orthonormal rows) and per-class sample blocks
X^c (d x n_c), every class pair (c <= c') gets an entropic transport plan
between the projected clouds. The transport-weighted covariance of sample
differences C^{c,c'} = sum_ij T_ij (x_i - x'_j)(x_i - x'_j)^T aggregates into
a between-class part C_b (pairs c < c') and a within-class part C_w (pairs
c = c'), and the objective is the ratio

    J(P) = <P^T P, C_b> / <P^T P, C_w> = sigma_b^2 / sigma_w^2.

J depends on P only through the projected cost matrices M = M^{c,c'}:
sigma_b^2 sums <T(M), M> over the between pairs and sigma_w^2 over the
within pairs. The gradient is therefore one formula for every pair. The cost
cotangent is dJ/dM = coef * T + d<W, T(M)>/dM at the fixed weight
W = coef * M, with coef = +1/sigma_w^2 for between pairs and
-sigma_b^2/sigma_w^4 for within pairs. The second term is one reverse pass
through the recorded Sinkhorn iterations (:func:`~wda.otcore.sinkhorn_vjp`).
Both are pulled back to P through M_ij = ||P (x_i - x'_j)||^2.

Pairs whose plans share a shape (n_c, n_c') are solved as one stack: all of
them on balanced data, one group per distinct shape otherwise, with no
padding. :func:`evaluate` writes each pair's M and kernel into its shape's
(B, n, m) stacks, and the per-pair ``costs`` and ``traces`` of the state are
views of them. :func:`gradient` runs one stacked reverse recursion per group,
then forms each pair's (n, m) cotangent and cross-covariance in turn. Each
pair's numbers are those of a per-pair loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalRangeError
from .otcore import (
    SinkhornBatch,
    SinkhornTrace,
    TransportPlan,
    cost_cotangent,
    cost_matrix,
    sinkhorn_batch,
    sinkhorn_batch_reverse,
    sinkhorn_kernel,
)

PairKey = tuple[int, int]


@dataclass
class WdaConfig:
    """Hyperparameters for the fit: regularization, iteration budgets, tolerances.

    ``lam`` is the base regularization strength; per-pair values are derived
    from it a priori (see :func:`adaptive_lambdas`). ``sinkhorn_iters`` is the
    fixed inner iteration count L whose map gets differentiated.
    """

    lam: float = 0.01
    sinkhorn_iters: int = 10
    dim: int = 2
    max_outer_iter: int = 100
    outer_tol: float = 1e-6
    step_init: float = 1.0
    step_shrink: float = 0.5
    step_c1: float = 1e-4
    max_backtracks: int = 30
    feasibility_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not self.lam > 0:
            raise InvalidInputError(f"lambda must be positive, got {self.lam}")
        if self.sinkhorn_iters < 1:
            raise InvalidInputError(
                f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}"
            )
        if self.dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {self.dim}")
        if self.max_outer_iter < 1:
            raise InvalidInputError(
                f"max_outer_iter must be >= 1, got {self.max_outer_iter}"
            )
        if self.outer_tol < 0:
            raise InvalidInputError(f"outer_tol must be >= 0, got {self.outer_tol}")
        if not 0 < self.step_shrink < 1:
            raise InvalidInputError(
                f"step_shrink must lie in (0, 1), got {self.step_shrink}"
            )
        if not 0 < self.step_c1 < 1:
            raise InvalidInputError(f"step_c1 must lie in (0, 1), got {self.step_c1}")
        if not self.step_init > 0:
            raise InvalidInputError(f"step_init must be positive, got {self.step_init}")
        if self.max_backtracks < 0:
            raise InvalidInputError(
                f"max_backtracks must be >= 0, got {self.max_backtracks}"
            )
        if not self.feasibility_tol > 0:
            raise InvalidInputError(
                f"feasibility_tol must be positive, got {self.feasibility_tol}"
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
    return blocks


def pair_keys(n_classes: int) -> list[PairKey]:
    """All class pairs (c, c') with c <= c', in lexicographic order."""
    return [(c, cp) for c in range(n_classes) for cp in range(c, n_classes)]


def _shape_groups(blocks) -> dict[tuple[int, int], list[PairKey]]:
    """Class pairs grouped by plan shape (n_c, n_c'), each group in pair order."""
    groups: dict[tuple[int, int], list[PairKey]] = {}
    for c, cp in pair_keys(len(blocks)):
        groups.setdefault((blocks[c].shape[1], blocks[cp].shape[1]), []).append((c, cp))
    return groups


def pair_lambda(P0: np.ndarray, Xc: np.ndarray, Xcp: np.ndarray, lam: float) -> float:
    """Per-pair regularization: lam divided by the mean projected squared distance.

    The mean runs over all ordered sample pairs of the two blocks (including
    the zero diagonal for a block paired with itself), so inter- and
    intra-class transport see comparable regularization strength.
    """
    P0 = np.asarray(P0, dtype=float)
    Yc = P0 @ Xc
    Ycp = Yc if Xcp is Xc else P0 @ np.asarray(Xcp, dtype=float)
    mean = float(cost_matrix(Yc, Ycp).mean())
    if mean <= 0.0:
        raise DegenerateInputError(
            "all projected points of the class pair coincide; "
            "adaptive regularization is undefined"
        )
    return lam / mean


def adaptive_lambdas(P0: np.ndarray, classes, lam: float) -> dict[PairKey, float]:
    """Fix one regularization value per class pair from the initial projection.

    Values are computed once (typically at the PCA initialization) and reused
    unchanged for every subsequent objective or gradient evaluation.
    """
    if not lam > 0:
        raise InvalidInputError(f"lambda must be positive, got {lam}")
    blocks = _check_classes(classes)
    return {
        (c, cp): pair_lambda(P0, blocks[c], blocks[cp], lam)
        for (c, cp) in pair_keys(len(blocks))
    }


def cross_covariance(
    Xc: np.ndarray,
    Xcp: np.ndarray,
    plan: TransportPlan | np.ndarray,
) -> np.ndarray:
    """Transport-weighted covariance of sample differences, a (d, d) matrix.

    C = sum_ij T_ij (x_i - x'_j)(x_i - x'_j)^T, assembled from the plan
    marginals instead of an explicit double loop. Symmetric PSD by
    construction; symmetrized once more to remove rounding skew.
    """
    T = plan.weights if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)
    Xc = np.asarray(Xc, dtype=float)
    Xcp = np.asarray(Xcp, dtype=float)
    if Xc.shape[0] != Xcp.shape[0]:
        raise InvalidInputError(
            f"feature dimensions differ: {Xc.shape[0]} vs {Xcp.shape[0]}"
        )
    if T.shape != (Xc.shape[1], Xcp.shape[1]):
        raise InvalidInputError(
            f"plan shape {T.shape} does not match sample counts "
            f"({Xc.shape[1]}, {Xcp.shape[1]})"
        )
    row = T.sum(axis=1)
    col = T.sum(axis=0)
    cross = Xc @ T @ Xcp.T
    C = (Xc * row) @ Xc.T - cross - cross.T + (Xcp * col) @ Xcp.T
    return 0.5 * (C + C.T)


@dataclass
class ObjectiveState:
    """One full evaluation of the ratio objective at a projection.

    Keeps the per-pair traces and projected cost matrices so a gradient can
    be assembled without re-solving the inner problems. ``batches`` maps the
    pairs of each plan shape, in pair order, to their stacked Sinkhorn runs;
    ``traces`` and ``costs`` entries are views of those stacks.
    """

    value: float
    sigma_b2: float
    sigma_w2: float
    cb: np.ndarray
    cw: np.ndarray
    traces: dict[PairKey, SinkhornTrace] = field(repr=False)
    costs: dict[PairKey, np.ndarray] = field(repr=False)
    batches: dict[tuple[PairKey, ...], SinkhornBatch] = field(repr=False)
    pair_lambdas: dict[PairKey, float]
    pair_distances: dict[PairKey, float]

    def to_json(self) -> dict:
        def keyed(d):
            return {f"{c},{cp}": float(v) for (c, cp), v in d.items()}

        return {
            "value": self.value,
            "sigma_b2": self.sigma_b2,
            "sigma_w2": self.sigma_w2,
            "pair_distances": keyed(self.pair_distances),
            "pair_lambdas": keyed(self.pair_lambdas),
            "pair_residuals": {
                f"{c},{cp}": t.residual for (c, cp), t in self.traces.items()
            },
        }


def _resolve_lambdas(blocks, cfg: WdaConfig, lambdas) -> dict[PairKey, float]:
    if lambdas is None:
        return {key: cfg.lam for key in pair_keys(len(blocks))}
    missing = [key for key in pair_keys(len(blocks)) if key not in lambdas]
    if missing:
        raise InvalidInputError(f"missing per-pair lambda for pairs {missing}")
    return dict(lambdas)


def evaluate(
    P: np.ndarray,
    classes,
    cfg: WdaConfig,
    lambdas: dict[PairKey, float] | None = None,
) -> ObjectiveState:
    """Solve every inner transport problem and assemble the ratio objective.

    ``lambdas`` maps each pair (c, c') with c <= c' to its fixed
    regularization value; if omitted, ``cfg.lam`` is used for every pair.
    The evaluation is defined for any P of the right shape (no orthonormality
    is imposed), which lets callers probe J in the ambient space, e.g. for
    finite-difference checks.

    The pairs of each plan shape are solved together by one
    :func:`~wda.otcore.sinkhorn_batch` call. All kernels are built, in pair
    order, before any iteration runs, so a kernel underflow is reported for
    the first failing pair, named with its lambda.
    """
    P = np.asarray(P, dtype=float)
    blocks = _check_classes(classes)
    if P.ndim != 2 or P.shape[1] != blocks[0].shape[0]:
        raise InvalidInputError(
            f"projection shape {P.shape} does not match feature dimension "
            f"{blocks[0].shape[0]}"
        )
    lam_map = _resolve_lambdas(blocks, cfg, lambdas)

    projected = [P @ X for X in blocks]
    groups = _shape_groups(blocks)
    cost_stacks = {shape: np.empty((len(keys),) + shape) for shape, keys in groups.items()}
    kernel_stacks = {shape: np.empty_like(stack) for shape, stack in cost_stacks.items()}
    slots = {key: (shape, b) for shape, keys in groups.items() for b, key in enumerate(keys)}
    costs: dict[PairKey, np.ndarray] = {}
    for c, cp in pair_keys(len(blocks)):
        shape, b = slots[(c, cp)]
        Yc = projected[c]
        M = cost_stacks[shape][b]
        M[...] = cost_matrix(Yc, Yc if cp == c else projected[cp])
        lam = lam_map[(c, cp)]
        try:
            kernel_stacks[shape][b] = sinkhorn_kernel(M, lam)
        except NumericalRangeError as exc:
            raise NumericalRangeError(f"class pair ({c}, {cp}) at lambda {lam:.6g}: {exc}") from exc
        costs[(c, cp)] = M

    batches = {
        tuple(keys): sinkhorn_batch(
            kernel_stacks[shape],
            [lam_map[key] for key in keys],
            cfg.sinkhorn_iters,
            cfg.feasibility_tol,
        )
        for shape, keys in groups.items()
    }
    solved = {key: batch.traces[b] for keys, batch in batches.items() for b, key in enumerate(keys)}
    traces = {key: solved[key] for key in costs}

    d = blocks[0].shape[0]
    cb = np.zeros((d, d))
    cw = np.zeros((d, d))
    pair_distances: dict[PairKey, float] = {}
    for (c, cp), M in costs.items():
        T = traces[(c, cp)].plan_weights()
        C = cross_covariance(blocks[c], blocks[cp], T)
        if cp == c:
            cw += C
        else:
            cb += C
        pair_distances[(c, cp)] = float(np.sum(T * M))
        # drop this plan before the next is formed: the line search keeps the
        # previous state alive, so this loop sets the peak memory of a fit
        del T

    sigma_b2 = float(np.sum((P @ cb) * P))
    sigma_w2 = float(np.sum((P @ cw) * P))
    if sigma_w2 <= 0.0:
        raise DegenerateInputError(
            "within-class dispersion is zero; the ratio objective is undefined"
        )
    return ObjectiveState(
        value=sigma_b2 / sigma_w2,
        sigma_b2=sigma_b2,
        sigma_w2=sigma_w2,
        cb=cb,
        cw=cw,
        traces=traces,
        costs=costs,
        batches=batches,
        pair_lambdas=lam_map,
        pair_distances=pair_distances,
    )


def gradient(
    P: np.ndarray,
    classes,
    cfg: WdaConfig,
    lambdas: dict[PairKey, float] | None = None,
    state: ObjectiveState | None = None,
) -> np.ndarray:
    """Full ambient gradient dJ/dP, a (p, d) array.

    For every class pair with plan T, projected cost matrix M and trace of
    its Sinkhorn run, the cost cotangent is

        G = coef * T + sinkhorn_vjp(trace, coef * M),

    with coef = +1/sigma_w^2 for between pairs and -sigma_b^2/sigma_w^4 for
    within pairs; the first term is the frozen-plan part, the second the
    derivative of the plan itself. Then dJ/dP = 2 P sum_pairs
    cross_covariance(X^c, X^c', G). Pass ``state`` to reuse an evaluation at
    the same (P, lambdas). Raises NumericalRangeError, naming the pair and
    its lambda, when a pair's term is not finite.

    The reverse recursion runs once per batch of ``state`` over the stacked
    histories (:func:`~wda.otcore.sinkhorn_batch_reverse`); the (n, m)-sized
    rest of each term is formed one pair at a time, in pair order.
    """
    P = np.asarray(P, dtype=float)
    blocks = _check_classes(classes)
    if state is None:
        state = evaluate(P, blocks, cfg, lambdas)
    sb2 = state.sigma_b2
    sw2 = state.sigma_w2
    coefs = {(c, cp): -sb2 / sw2**2 if cp == c else 1.0 / sw2 for c, cp in state.costs}

    # W = coef * M is formed again per pair below rather than kept, so only
    # one (n, m) weight is alive at a time
    bars = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for keys, batch in state.batches.items():
            r_bars, s_bars = sinkhorn_batch_reverse(
                batch, (coefs[key] * state.costs[key] for key in keys)
            )
            bars.update((key, (r_bars[b], s_bars[b])) for b, key in enumerate(keys))

    C = np.zeros((P.shape[1], P.shape[1]))
    for c, cp in pair_keys(len(blocks)):
        coef = coefs[(c, cp)]
        trace = state.traces[(c, cp)]
        with np.errstate(over="ignore", invalid="ignore"):
            W = coef * state.costs[(c, cp)]
            G = coef * trace.plan_weights() + cost_cotangent(trace, W, *bars[(c, cp)])
        if not np.all(np.isfinite(G)):
            raise NumericalRangeError(
                f"gradient term of class pair ({c}, {cp}) is not finite at "
                f"lambda {state.pair_lambdas[(c, cp)]:.6g}; the fixed-L Sinkhorn "
                "iterations left the floating-point range, lower the regularization"
            )
        C += cross_covariance(blocks[c], blocks[cp], G)
    return 2.0 * P @ C
