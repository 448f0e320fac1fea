"""The discriminant ratio objective and its gradient.

For a projection P (p x d, orthonormal rows) and per-class sample blocks
X^c (d x n_c), every class pair (c <= c') gets an entropic transport plan T
between the projected clouds Y^c = P X^c, with projected cost matrix
M_ij = ||y_i - y'_j||^2. Each pair distance is <T, M>; sigma_b^2 sums them
over the between-class pairs (c < c') and sigma_w^2 over the within-class
pairs (c = c'), and the objective is the ratio

    J(P) = sigma_b^2 / sigma_w^2.

This equals <P^T P, C_b> / <P^T P, C_w> with the d x d covariances of
:func:`cross_covariance`, which only the Fisher baseline forms.

J depends on P only through the M of each pair, so the gradient is one
formula for every pair. The cost cotangent of a pair distance is
G = T + d<W, T(M)>/dM at the fixed weight W = M, the second term a reverse
pass through the recorded Sinkhorn iterations, and J weighs it with
coef = +1/sigma_w^2 for between pairs and -sigma_b^2/sigma_w^4 for within
pairs. G is pulled back to P in the projected space (see :func:`gradient`).

Pairs whose plans share a shape (n_c, n_c') are solved as one stack: all of
them on balanced data, one group per distinct shape otherwise, with no
padding. :func:`evaluate` builds each shape's (B, n, m) cost and kernel
stacks whole, and the per-pair ``costs`` and ``traces`` of the state are
views of them. :func:`gradient` runs one stacked reverse recursion per
group, then forms each pair's (n, m) cotangent in turn, in place. Each
pair's numbers are those of a plain per-pair loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import require_finite
from .errors import DegenerateInputError, InvalidInputError, NumericalRangeError
from .otcore import (
    SinkhornBatch,
    SinkhornTrace,
    TransportPlan,
    cost_matrix,
    kernel_underflow_message,
    self_costs,
    sinkhorn_batch,
    sinkhorn_batch_reverse,
    sinkhorn_kernels,
    transport_cost_cotangent,
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
        require_finite(f"class {c} sample block", X)
    return blocks


def pair_keys(n_classes: int) -> list[PairKey]:
    """All class pairs (c, c') with c <= c', in lexicographic order."""
    return [(c, cp) for c in range(n_classes) for cp in range(c, n_classes)]


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

    The pairs of each plan shape are solved together: one cost stack, one
    kernel stack and one :func:`~wda.otcore.sinkhorn_batch` call. All kernels
    are built before any iteration runs, so a kernel underflow is reported
    for the first failing pair in pair order, named with its lambda. Each
    pair distance <T, M> is u_L . ((K * M) v_L), without forming T.
    """
    P = np.asarray(P, dtype=float)
    blocks = _check_classes(classes)
    if P.ndim != 2 or P.shape[1] != blocks[0].shape[0]:
        raise InvalidInputError(
            f"projection shape {P.shape} does not match feature dimension "
            f"{blocks[0].shape[0]}"
        )
    require_finite("projection", P)
    lam_map = _resolve_lambdas(blocks, cfg, lambdas)
    keys_in_order = pair_keys(len(blocks))

    # class pairs grouped by plan shape (n_c, n_c'), each group in pair order
    groups: dict[tuple[int, int], list[PairKey]] = {}
    for c, cp in keys_in_order:
        groups.setdefault((blocks[c].shape[1], blocks[cp].shape[1]), []).append((c, cp))
    projected = [P @ X for X in blocks]
    stacks, costs, underflow = [], {}, {}
    for keys in groups.values():
        M = cost_matrix(
            np.stack([projected[c] for c, _ in keys]),
            np.stack([projected[cp] for _, cp in keys]),
        )
        own = [b for b, (c, cp) in enumerate(keys) if c == cp]
        if own:
            M[own] = self_costs(M[own])
        lams = [lam_map[key] for key in keys]
        K, low = sinkhorn_kernels(M, lams)
        costs.update(zip(keys, M))
        underflow.update(zip(keys, low))
        stacks.append((keys, lams, M, K))
    for key in keys_in_order:
        if underflow[key]:
            message = kernel_underflow_message(lam_map[key], costs[key])
            raise NumericalRangeError(f"class pair {key} at lambda {lam_map[key]:.6g}: {message}")

    batches, traces, distances = {}, {}, {}
    for keys, lams, M, K in stacks:
        batch = sinkhorn_batch(K, lams, cfg.sinkhorn_iters, cfg.feasibility_tol)
        km_v = np.einsum("bnm,bnm,bm->bn", K, M, batch.v_history[:, -1])
        distances.update(zip(keys, (batch.u_history[:, -1] * km_v).sum(axis=1).tolist()))
        traces.update(zip(keys, batch.traces))
        batches[tuple(keys)] = batch
    for key in keys_in_order:
        if not np.isfinite(distances[key]):
            raise NumericalRangeError(f"class pair {key}: the projected squared distances overflow")

    sigma_b2 = sum(distances[(c, cp)] for c, cp in keys_in_order if c != cp)
    sigma_w2 = sum(distances[(c, cp)] for c, cp in keys_in_order if c == cp)
    if sigma_w2 <= 0.0:
        raise DegenerateInputError(
            "within-class dispersion is zero; the ratio objective is undefined"
        )
    return ObjectiveState(
        value=sigma_b2 / sigma_w2,
        sigma_b2=sigma_b2,
        sigma_w2=sigma_w2,
        traces={key: traces[key] for key in keys_in_order},
        costs={key: costs[key] for key in keys_in_order},
        batches=batches,
        pair_lambdas=lam_map,
        pair_distances={key: distances[key] for key in keys_in_order},
    )


def gradient(
    P: np.ndarray,
    classes,
    cfg: WdaConfig,
    lambdas: dict[PairKey, float] | None = None,
    state: ObjectiveState | None = None,
) -> np.ndarray:
    """Full ambient gradient dJ/dP, a (p, d) array.

    J weighs each pair's cost cotangent G = d<T(M), M>/dM (one reverse pass,
    :func:`~wda.otcore.transport_cost_cotangent`) with coef = +1/sigma_w^2
    for between pairs and -sigma_b^2/sigma_w^4 for within pairs. As
    M_ij = ||y_i - y'_j||^2 with Y = P X, G is pulled back in the projected
    space, into a (p, n_c) accumulator per class:

        Z_c  += coef * (Y_c diag(G 1) - Y_c' G^T),
        Z_c' += coef * (Y_c' diag(G^T 1) - Y_c G),

    and dJ/dP = 2 sum_c Z_c X_c^T. Pass ``state`` to reuse an evaluation at
    the same (P, lambdas). Raises NumericalRangeError, naming the pair and
    its lambda, when a pair's term is not finite. The reverse recursion runs
    once per batch of ``state``; each (n, m) G is formed in place, in pair
    order.
    """
    P = np.asarray(P, dtype=float)
    blocks = _check_classes(classes)
    if state is None:
        state = evaluate(P, blocks, cfg, lambdas)
    sb2, sw2 = state.sigma_b2, state.sigma_w2

    bars = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for keys, batch in state.batches.items():
            r_bars, s_bars = sinkhorn_batch_reverse(batch, (state.costs[key] for key in keys))
            bars.update((key, (r_bars[b], s_bars[b])) for b, key in enumerate(keys))

    projected = [P @ X for X in blocks]
    Z = [np.zeros_like(Y) for Y in projected]
    for (c, cp), trace in state.traces.items():
        with np.errstate(over="ignore", invalid="ignore"):
            G = transport_cost_cotangent(trace, state.costs[(c, cp)], *bars[(c, cp)])
            row = G.sum(axis=1)
            col = G.sum(axis=0)
        if not (np.isfinite(row).all() and np.isfinite(col).all()):
            raise NumericalRangeError(
                f"gradient term of class pair ({c}, {cp}) is not finite at "
                f"lambda {trace.lam:.6g}; the fixed-L Sinkhorn "
                "iterations left the floating-point range, lower the regularization"
            )
        coef = -sb2 / sw2**2 if cp == c else 1.0 / sw2
        Yc, Ycp = projected[c], projected[cp]
        Z[c] += coef * (Yc * row - Ycp @ G.T)
        Z[cp] += coef * (Ycp * col - Yc @ G)
    return 2.0 * sum(Zc @ X.T for Zc, X in zip(Z, blocks))
