"""Shared test utilities: finite differences, subspace angles, the traced
allocation peak of a call, a one-run Sinkhorn adaptor over the stacked
solver with its two record types, the validation-only transport helpers
(the reverse pass of one Sinkhorn run, the symmetric scaling of
self-transport, the transport cost <T, M>, the transport-weighted
covariance of sample differences and its per-pair closed form under the
uniform coupling), the full unrolled plan Jacobian, a per-pair reference
for the objective built on plain 2-d Sinkhorn loops of its own, a replay of
``wda_fit`` on fresh evaluations, the ten-class fixture of 55 plan shapes,
a per-cell loop for ``run_protocol``, cell-by-cell references for the
CSV readers and writers, and a row-by-row one for the writers' chunks."""

import csv
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from dataclasses import replace

from wda import (
    CsvDataSpec,
    InvalidInputError,
    LabeledDataset,
    NumericalRangeError,
    ParseError,
    WdaConfig,
    WdaError,
    cost_matrix,
    error_rate,
    evaluate,
    fda_fit,
    gradient,
    knn_predict,
    load_csv,
    pca_init,
    project_stiefel,
    stiefel,
    wda_fit,
)
from wda.evaluation import _make_data
from wda.objective import pair_keys
from wda.stiefel import pca_start, riemannian_gradient
from wda.otcore import SinkhornBatch, sinkhorn_batch, sinkhorn_batch_reverse, sinkhorn_kernels

# the scaling clamp of wda.otcore
_TINY = 1e-300


class CapacityError(WdaError):
    """A size guard on a reference-only code path was exceeded."""


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with uniform marginals 1/n and 1/m."""

    weights: np.ndarray       # (n, m)
    row_marginal: np.ndarray  # (n,) uniform 1/n
    col_marginal: np.ndarray  # (m,) uniform 1/m

    def feasibility_residual(self) -> float:
        """Infinity-norm violation of the two marginal constraints."""
        row = self.weights.sum(axis=1) - self.row_marginal
        col = self.weights.sum(axis=0) - self.col_marginal
        return float(max(np.abs(row).max(), np.abs(col).max()))


@dataclass(frozen=True)
class SinkhornTrace:
    """One fixed-L Sinkhorn run, indexed as a run of ``SinkhornBatch``.

    ``residual`` is the infinity-norm marginal violation of the final plan;
    ``converged_at`` the first iteration whose plan met the requested
    tolerance, or None if none did.
    """

    kernel: np.ndarray     # (n, m), K = exp(-lam * M)
    u_history: np.ndarray  # (L+1, n)
    v_history: np.ndarray  # (L, m)
    lam: float
    iterations: int
    residual: float
    converged_at: int | None

    def plan_weights(self) -> np.ndarray:
        """Reconstruct diag(u_L) K diag(v_L)."""
        u = self.u_history[-1]
        v = self.v_history[-1]
        return u[:, None] * self.kernel * v[None, :]


def sinkhorn_plan(M, lam, iterations, tol=1e-9):
    """Run exactly ``iterations`` Sinkhorn steps on kernel exp(-lam * M), as a
    batch of one for ``wda.otcore.sinkhorn_kernels`` and ``sinkhorn_batch``.

    Returns (TransportPlan, SinkhornTrace); ``converged_at`` is
    ``SinkhornBatch.converged_at(tol)``. Refuses a cost matrix that is not
    2-d or not finite, lam <= 0, and a kernel with a row or column below the
    scaling clamp.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError("cost matrix must be 2-d")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("cost matrix must be finite")
    if not lam > 0:
        raise InvalidInputError(f"lam must be positive, got {lam}")
    K, underflow = sinkhorn_kernels(M[None], [lam])
    if underflow[0]:
        raise NumericalRangeError(
            f"kernel row underflow: lam * max(M) = {lam * float(M.max()):.6g} "
            f"pushes exp(-lam*M) below {_TINY:g}"
        )
    batch = sinkhorn_batch(K, iterations)
    trace = SinkhornTrace(
        batch.kernel[0], batch.u_history[0], batch.v_history[0], float(lam), iterations,
        float(batch.residual[0]), batch.converged_at(tol)[0],
    )
    n, m = M.shape
    plan = TransportPlan(batch.plan(0), np.full(n, 1.0 / n), np.full(m, 1.0 / m))
    return plan, trace


def fd_gradient(f, P, h=1e-5):
    """Central finite differences of a scalar function, entrywise in the
    ambient space (no re-orthonormalization of the perturbed points)."""
    G = np.zeros_like(np.asarray(P, dtype=float))
    for idx in np.ndindex(P.shape):
        Pp = P.copy()
        Pp[idx] += h
        Pm = P.copy()
        Pm[idx] -= h
        G[idx] = (f(Pp) - f(Pm)) / (2.0 * h)
    return G


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of the memory allocated while fn()
    runs; tracing stops even if fn raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def class_counts(data):
    """The number of samples of each class of a LabeledDataset, by class id."""
    return [int(np.sum(data.labels == c)) for c in range(data.n_classes)]


def random_stiefel(rng, p, d):
    return project_stiefel(rng.standard_normal((p, d)))


def principal_angle(A, B):
    """Largest principal angle (radians) between the row spans of A and B."""
    Qa = np.linalg.qr(np.asarray(A, dtype=float).T)[0]
    Qb = np.linalg.qr(np.asarray(B, dtype=float).T)[0]
    s = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def entropy(T):
    """Entropy of a strictly positive coupling, -sum t log t."""
    return -float(np.sum(T * np.log(T)))


def sinkhorn_vjp(trace, W):
    """Reverse-mode derivative of <W, T(M)> w.r.t. the cost matrix M.

    Replays the recorded iterations of ``sinkhorn_plan`` backwards, from
    T = diag(u_L) K diag(v_L) down to u_0, accumulating the cotangent of the
    kernel K; dK/dM = -lam * K then gives the (n, m) result. The derivative
    passes straight through the scaling clamp. Linear in W; costs O(L n m)
    time and O(n m + L (n + m)) memory. A batch of one for
    ``wda.otcore.sinkhorn_batch_reverse``.
    """
    W = np.asarray(W, dtype=float)
    K = trace.kernel
    if W.shape != K.shape:
        raise InvalidInputError(
            f"cotangent shape {W.shape} does not match kernel shape {K.shape}"
        )
    U, V = trace.u_history, trace.v_history
    batch = SinkhornBatch(K[None], U[None], V[None], np.array([trace.residual]))
    WK = W * K
    r_bars, s_bars = sinkhorn_batch_reverse(batch, (WK @ V[-1])[None], (WK.T @ U[-1])[None])
    K_bar = np.concatenate((r_bars[0], U[:-1])).T @ np.concatenate((V, s_bars[0]))
    K_bar += W * np.outer(U[-1], V[-1])
    return -trace.lam * K * K_bar


def symmetric_scaling(trace):
    """Symmetric scaling vector w with T = diag(w) K diag(w).

    Only meaningful for self-transport (square symmetric kernel) once the
    plan has converged, where the left/right scalings agree up to a constant
    and w = sqrt(u * v).
    """
    n, m = trace.kernel.shape
    if n != m:
        raise InvalidInputError("symmetric scaling requires a square kernel")
    return np.sqrt(trace.u_history[-1] * trace.v_history[-1])


def regularized_distance(plan, M):
    """Transport cost <T, M> (Frobenius inner product of plan and cost)."""
    T = plan.weights if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)
    M = np.asarray(M, dtype=float)
    if T.shape != M.shape:
        raise InvalidInputError(f"plan shape {T.shape} does not match cost shape {M.shape}")
    return float(np.sum(T * M))


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


def uniform_pair_covariances(classes):
    """Each class pair's (c <= c') difference covariance under the uniform
    coupling, 1/(n_c n_c') sum_ij (x_i - x'_j)(x_i - x'_j)^T, as the d x d
    matrix S_c + S_c' + g g^T from the class covariances S and the gap
    g = (o_c - o_c') + (m_c - m_c') of the means m about each class's first
    sample o (2 S_c for a class with itself). The per-pair reference for
    the summed closed forms of ``uniform_coupling_covariances`` and the
    traces of ``adaptive_lambdas``."""
    blocks = [np.asarray(X, dtype=float) for X in classes]
    origins, means, covs = [], [], []
    for X in blocks:
        D = X - X[:, :1]
        mean = D.mean(axis=1, keepdims=True)
        E = D - mean
        origins.append(X[:, :1])
        means.append(mean)
        covs.append(E @ E.T / X.shape[1])
    pairs = {}
    for c, cp in pair_keys(len(blocks)):
        gap = (origins[c] - origins[cp]) + (means[c] - means[cp])  # 0 when c == cp
        pairs[(c, cp)] = covs[c] + covs[cp] + gap @ gap.T
    return pairs


def plan_jacobian_full(trace, P, X, Z, max_entries=1024):
    """Full Jacobian dT_ij/dP of the fixed-L plan, an (n, m, p, d) array.

    ``trace`` is the Sinkhorn run on cost_matrix(P @ X, P @ Z). Built from
    n*m reverse passes with one-hot cotangents, each pulled back to P through
    M_ij = ||P (x_i - z_j)||^2. Refuses more than ``max_entries`` plan entries.
    """
    n, m = trace.kernel.shape
    if n * m > max_entries:
        raise CapacityError(
            f"full jacobian requested for {n * m} plan entries, guard is {max_entries}"
        )
    full = np.zeros((n, m) + np.shape(P))
    for i, j in np.ndindex(n, m):
        onehot = np.zeros((n, m))
        onehot[i, j] = 1.0
        full[i, j] = 2.0 * P @ cross_covariance(X, Z, sinkhorn_vjp(trace, onehot))
    return full


def reference_sinkhorn(M, lam, iterations, tol):
    """One fixed-L Sinkhorn run as a plain 2-d loop, independent of the
    stacked solver in wda.otcore: the plan weights and the SinkhornTrace."""
    n, m = M.shape
    K = np.exp(-lam * M)
    u = np.ones(n)
    u_history = np.empty((iterations + 1, n))
    v_history = np.empty((iterations, m))
    u_history[0] = u
    converged_at = None
    s = K.T @ u
    for k in range(1, iterations + 1):
        v = (1.0 / m) / np.maximum(s, _TINY)
        r = K @ v
        u = (1.0 / n) / np.maximum(r, _TINY)
        s = K.T @ u
        v_history[k - 1] = v
        u_history[k] = u
        residual = float(
            max(np.abs(u * r - 1.0 / n).max(), np.abs(v * s - 1.0 / m).max())
        )
        if converged_at is None and residual <= tol:
            converged_at = k
    weights = u[:, None] * K * v[None, :]
    trace = SinkhornTrace(K, u_history, v_history, float(lam), iterations, residual, converged_at)
    return weights, trace


def reference_reverse(trace, u_bar, v_bar):
    """Cotangents of r_k = K v_k and s_k = K^T u_{k-1}, k = 1..L, of
    <W, T(M)>, as a plain 2-d reverse loop over ``trace`` from the
    cotangents u_bar = (W * K) v_L and v_bar = (W * K)^T u_L."""
    K = trace.kernel
    n, m = K.shape
    L = trace.iterations
    U = trace.u_history
    V = trace.v_history
    r_bars = np.empty((L, n))
    s_bars = np.empty((L, m))
    for k in range(L, 0, -1):
        # du_k/dr_k = -n u_k^2 and dv_k/ds_k = -m v_k^2
        r_bars[k - 1] = -n * u_bar * U[k] * U[k]
        v_bar = v_bar + K.T @ r_bars[k - 1]
        s_bars[k - 1] = -m * v_bar * V[k - 1] * V[k - 1]
        u_bar = K @ s_bars[k - 1]
        v_bar = 0.0
    return r_bars, s_bars


def reference_vjp(trace, W):
    """d<W, T(M)>/dM of one run as a plain 2-d reverse loop over ``trace``."""
    U = trace.u_history
    V = trace.v_history
    WK = W * trace.kernel
    r_bars, s_bars = reference_reverse(trace, WK @ V[-1], WK.T @ U[-1])
    K_bar = np.concatenate((r_bars, U[:-1])).T @ np.concatenate((V, s_bars))
    K_bar += W * np.outer(U[-1], V[-1])
    return -trace.lam * trace.kernel * K_bar


def reference_objective(P, classes, cfg, lambdas, factored=True):
    """The ratio objective and its gradient from a plain loop over the class
    pairs, one reference_sinkhorn and reference_reverse per pair.

    The kernel of a pair is exp(-lam * M), with self costs 0.5 (M + M^T)
    and a zero diagonal. sigma^2 sums the pair distances u_L . ((K * M) v_L).
    Each pair's cost cotangent d<T(M), M>/dM is pulled back in the projected
    space, with a row of ones under each block for G's row and column sums.
    With ``factored``, K * M is read as ``wda.objective`` reads it, through
    the factors A = [Y - mu; |y - mu|^2; 1] and B = [-2 (Y' - mu); 1;
    |y' - mu|^2] about the mean mu of the pair's points, with 2-d products;
    otherwise it is formed from M itself.

    Returns a dict with ``value``, ``pair_residuals`` (keyed like
    ``ObjectiveState.to_json``) and ``gradient``.
    """
    projected = [P @ X for X in classes]
    solved = {}
    for c, cp in pair_keys(len(classes)):
        Y, Yp = projected[c], projected[cp]
        M = cost_matrix(Y, Yp.copy())
        if cp == c:
            M = 0.5 * (M + M.T)
            np.fill_diagonal(M, 0.0)
        _, trace = reference_sinkhorn(
            M, lambdas[(c, cp)], cfg.sinkhorn_iters, 1e-9
        )
        U, V, K = trace.u_history, trace.v_history, trace.kernel
        if factored:
            mu = (Y.sum(axis=-1, keepdims=True) + Yp.sum(axis=-1, keepdims=True)) / (
                Y.shape[1] + Yp.shape[1]
            )
            Yc, Ypc = Y - mu, Yp - mu
            A = np.vstack((Yc, (Yc * Yc).sum(axis=0), np.ones(Y.shape[1])))
            B = np.vstack((-2.0 * Ypc, np.ones(Yp.shape[1]), (Ypc * Ypc).sum(axis=0)))
            km_v = (A * ((B * V[-1]) @ K.T)).sum(axis=0)
            km_t_u = (B * ((A * U[-1]) @ K)).sum(axis=0)
            plan_left, plan_right = A * U[-1], B * V[-1]
        else:
            KM = K * M
            km_v, km_t_u = KM @ V[-1], KM.T @ U[-1]
            plan_left, plan_right = U[-1], KM * V[-1]
        distance = float((U[-1] * km_v).sum())
        solved[(c, cp)] = (trace, km_v, km_t_u, plan_left, plan_right, distance)
    sb2 = sum(entry[-1] for (c, cp), entry in solved.items() if c != cp)
    sw2 = sum(entry[-1] for (c, cp), entry in solved.items() if c == cp)
    ones_below = [np.vstack((Y, np.ones(Y.shape[1]))) for Y in projected]
    Z = [np.zeros_like(Y) for Y in projected]
    for (c, cp), (trace, km_v, km_t_u, plan_left, plan_right, _) in solved.items():
        # K * (u_L v_L^T - lam * iterations - lam * u_L M v_L)
        lam, U, V = trace.lam, trace.u_history, trace.v_history
        r_bars, s_bars = reference_reverse(trace, km_v, km_t_u)
        if factored:
            left = np.vstack([U[-1:], -lam * r_bars, -lam * U[:-1], -lam * plan_left])
            right = np.vstack([V[-1:], V, s_bars, plan_right])
            G = (left.T @ right) * trace.kernel
        else:
            left = np.vstack([-lam * r_bars, -lam * U[:-1], U[-1:]])
            right = np.vstack([V, s_bars, V[-1:]])
            G = (left.T @ right) * trace.kernel - (lam * plan_left)[:, None] * plan_right
        pulled_c = ones_below[cp] @ G.T
        pulled_cp = ones_below[c] @ G
        coef = -sb2 / sw2**2 if cp == c else 1.0 / sw2
        Z[c] += coef * (projected[c] * pulled_c[-1] - pulled_c[:-1])
        Z[cp] += coef * (projected[cp] * pulled_cp[-1] - pulled_cp[:-1])
    return {
        "value": sb2 / sw2,
        "pair_residuals": {f"{c},{cp}": entry[0].residual for (c, cp), entry in solved.items()},
        "gradient": 2.0 * sum(Zc @ X.T for Zc, X in zip(Z, classes)),
    }


def replay_wda_fit(data, cfg):
    """``wda.wda_fit`` from the PCA start, replayed step for step on public
    calls: every trial is a fresh ``evaluate``, so no array is ever reused.
    Returns the best P and a dict of every ``FitReport`` field except
    ``iteration_seconds``."""
    blocks = data.class_blocks()
    P, lambdas = pca_start(data, cfg.dim, cfg.lam)
    report = {"objective_values": [], "step_sizes": [], "gradient_norms": [],
              "evaluations": [], "termination": "max_iterations", "n_iterations": 0,
              "pair_lambdas": dict(lambdas)}
    state = evaluate(P, blocks, cfg, lambdas)
    report["objective_values"].append(state.value)
    best_value, best_P, best_iter = state.value, P, 0
    alpha0 = stiefel._STEP_INIT
    for it in range(1, cfg.max_outer_iter + 1):
        G = gradient(state)
        report["gradient_norms"].append(float(np.linalg.norm(riemannian_gradient(P, G))))
        D = project_stiefel(P + G) - P
        slope = float(np.sum(G * D))
        if np.linalg.norm(D) <= 1e-14 * max(1.0, np.linalg.norm(P)) or slope <= 0.0:
            report["termination"] = "stationary"
            report["evaluations"].append(0)
            break
        alpha = alpha0
        for trial in range(1, stiefel._MAX_BACKTRACKS + 2):
            P_try = project_stiefel(P + alpha * D)
            s_try = evaluate(P_try, blocks, cfg, lambdas)
            if s_try.value >= state.value + stiefel._STEP_C1 * alpha * slope:
                break
            alpha *= stiefel._STEP_SHRINK
        else:
            report["evaluations"].append(trial)
            report["termination"] = "stalled"
            break
        report["evaluations"].append(trial)
        previous = state.value
        P, state = P_try, s_try
        report["n_iterations"] = it
        report["step_sizes"].append(alpha)
        alpha0 = min(stiefel._STEP_INIT, alpha / stiefel._STEP_SHRINK)
        report["objective_values"].append(state.value)
        if state.value > best_value:
            best_value, best_P, best_iter = state.value, P, it
        if (state.value - previous) / max(abs(previous), 1e-300) < cfg.outer_tol:
            report["termination"] = "converged"
            break
    report["best_objective"] = best_value
    report["best_iteration"] = best_iter
    return best_P, report


def ten_class_data(seed, d=6):
    """Ten Gaussian classes of 3, 4, ..., 12 points in d dimensions, rows
    sorted by class: means 0.5 N(0, I) and points mean + N(0, I), drawn from
    ``seed``. Every class size differs, so each of the 55 class pairs has a
    plan shape of its own."""
    rng = np.random.default_rng(seed)
    means = 0.5 * rng.standard_normal((10, d))
    samples = np.vstack([means[c] + rng.standard_normal((3 + c, d)) for c in range(10)])
    return LabeledDataset(samples, np.repeat(np.arange(10), np.arange(3, 13)))


def reference_run_protocol(data_spec, methods, ks, ps, lams, n_seeds, base_seed=0,
                           wda_config=None):
    """``wda.run_protocol`` as a plain loop over its cells, in (seed, method,
    p, lambda) order: every cell fits on its own (wda by ``wda_fit`` from its
    own PCA start, the other methods once per lambda) and votes each k with
    ``knn_predict``. Returns the error tensor and the failure list."""
    loaded = load_csv(data_spec.path) if isinstance(data_spec, CsvDataSpec) else None
    wda_config = wda_config if wda_config is not None else WdaConfig()
    seeds = [base_seed + s for s in range(n_seeds)]
    errors = np.full((len(methods), len(seeds), len(ps), len(lams), len(ks)), np.nan)
    failures = []
    for si, seed in enumerate(seeds):
        train, test = _make_data(data_spec, seed, loaded)
        for mi, method in enumerate(methods):
            for pi, p in enumerate(ps):
                for li, lam in enumerate(lams):
                    failed = []
                    try:
                        if method == "identity":
                            P = None
                        elif method == "pca":
                            P = pca_init(train.samples.T, p)
                        elif method == "fda":
                            P = fda_fit(train, p).projection
                        else:
                            P = wda_fit(train, replace(wda_config, dim=p, lam=lam))[0]
                    except WdaError as exc:
                        failed.append((None, exc))
                    else:
                        train_Z = train.samples if P is None else train.samples @ P.T
                        test_Z = test.samples if P is None else test.samples @ P.T
                        for ki, k in enumerate(ks):
                            try:
                                pred = knn_predict(train_Z, train.labels, test_Z, k)
                            except WdaError as exc:
                                failed.append((k, exc))
                            else:
                                errors[mi, si, pi, li, ki] = error_rate(pred, test.labels)
                    failures += [
                        {"method": method, "seed": seed, "p": p, "lambda": lam, "k": k,
                         "error": str(exc)}
                        for k, exc in failed
                    ]
    return errors, failures


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def reference_load_csv(path):
    """``wda.load_csv`` converting one cell per ``float()`` call, with every
    fault checked in file order as the cells are read; the non-finite check
    follows the loop. A label outside int64 escapes as OverflowError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [(i + 1, row) for i, row in enumerate(rows) if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    header = None
    if not all(_is_number(cell) for cell in rows[0][1]):
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise ParseError(
            f"{path}: need at least one feature column and a label column, got {width}"
        )
    if header is not None and len(header) != width:
        raise ParseError(f"{path}: header has {len(header)} columns, data has {width}")

    if header is not None and "label" in header:
        label_col = header.index("label")
    else:
        label_col = width - 1
    feature_cols = [j for j in range(width) if j != label_col]

    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=int)
    for r, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
            )
        for out_j, j in enumerate(feature_cols):
            cell = row[j].strip()
            try:
                features[r, out_j] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a number: {cell!r}"
                ) from None
        cell = row[label_col].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}, column {label_col + 1}: "
                f"label is not a number: {cell!r}"
            ) from None
        if not value.is_integer():
            raise ParseError(
                f"{path}: line {lineno}, column {label_col + 1}: "
                f"label must be an integer, got {cell!r}"
            )
        labels[r] = int(value)

    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, out_j = bad[0]
        lineno, row = rows[r]
        j = feature_cols[out_j]
        raise ParseError(
            f"{path}: line {lineno}, column {j + 1}: not a finite number: {row[j].strip()!r}"
        )

    uniq = np.unique(labels)
    if not np.array_equal(uniq, np.arange(len(uniq))):
        raise ParseError(
            f"{path}: labels must be contiguous integers starting at 0, got {uniq.tolist()}"
        )
    names = None
    if header is not None:
        names = tuple(header[j] for j in feature_cols)
        if "label" in names:
            raise ParseError(f"{path}: feature name 'label' is the name of the label column")
    return LabeledDataset(features, labels, names)


def reference_load_matrix_csv(path):
    """``wda.ioutil.load_matrix_csv`` reading one line at a time and
    converting one stripped cell per ``float()`` call, with every fault
    checked in file order as the cells are read; the non-finite check
    follows the loop."""
    rows = []
    linenos = []
    texts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if rows and len(cells) != len(rows[0]):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(cells)}"
                )
            row = []
            for j, cell in enumerate(cells):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {j + 1}: not a number: {cell!r}"
                    ) from None
            rows.append(row)
            linenos.append(lineno)
            texts.append(cells)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    for lineno, row, cells in zip(linenos, rows, texts):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: line {lineno}, column {j + 1}: not a finite number: {cells[j]!r}"
                )
    return np.array(rows)


def reference_matrix_csv_text(matrix):
    """The text ``wda.ioutil.save_matrix_csv`` writes, formatted cell by cell."""
    return "\n".join(",".join("%.17g" % x for x in row) for row in matrix) + "\n"


def reference_dataset_csv_text(data):
    """The text ``wda.save_csv`` writes, formatted cell by cell."""
    names = data.feature_names or tuple(f"f{j}" for j in range(data.n_features))
    lines = [",".join(names) + ",label"]
    for x, y in zip(data.samples, data.labels):
        lines.append(",".join("%.17g" % v for v in x) + f",{int(y)}")
    return "\n".join(lines) + "\n"


def reference_csv_lines(matrix, labels=None):
    """One CSV line per row of a 2-d float array, each cell as ``%.17g``, with
    ``labels`` (if given) appended to each row as a ``%d`` column: the
    writers' lines formatted by one ``%`` per row, the reference for their
    one ``%`` per chunk of rows."""
    fmt = ",".join(["%.17g"] * matrix.shape[1])
    if labels is None:
        return [fmt % tuple(row) for row in matrix.tolist()]
    fmt += ",%d"
    return [fmt % (*row, label) for row, label in zip(matrix.tolist(), labels.tolist())]
