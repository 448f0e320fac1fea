"""Workloads of the wda benchmark.

Each workload builds its inputs from the run's seed in :meth:`setup`, runs
one operation per item of a fixed item list in :meth:`run`, and checks the
operation's outputs. Items cycle, so every item list is run whole at least
once and a repeated item must reproduce its first outputs bit for bit.

The checks shared by the workloads that fit projections:

* P has shape (p, d) and orthonormal rows to 1e-10;
* ``best_objective`` is finite and at least J at the PCA start;
* at least a third of the distinct fits, and at least one, lie within
  ``MAX_ANGLE`` of the planted plane (coordinates 0-1) and within
  ``MAX_ERROR`` KNN test error. From PCA starts some fits per hundred are
  still far from the plane when the iteration budget ends, which no
  single-fit bound could allow for; a fit that never finds the plane fails
  every seed.

Every fit runs a fixed number of outer iterations (``outer_tol = 0``): with
the default tolerance a fit takes 12 to 100 iterations depending on its data
draw, so the time per operation would follow the seed instead of the code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import wda
import wda.cli

# the paper's toy configuration: lambda = 1, L = 10 Sinkhorn steps, p = 2
LAM = 1.0
SINKHORN_ITERS = 10
DIM = 2
K = 5
# outer iterations per fit: enough for about nine fits in ten to reach the
# plane at 34/class, d = 10; the wide fit needs twice as many
FIT_ITERS = 30
WIDE_FIT_ITERS = 60

# per-fit bounds, set from seed runs: fits that find the plane measured
# 0.13-0.34 rad and 0.04-0.12 test error; fits that miss it 0.6-1.6 rad
MAX_ANGLE = 0.5
MAX_ERROR = 0.15
ORTHONORMAL_TOL = 1e-10


def fit_config(max_outer_iter=FIT_ITERS):
    return wda.WdaConfig(lam=LAM, sinkhorn_iters=SINKHORN_ITERS, dim=DIM,
                         max_outer_iter=max_outer_iter, outer_tol=0.0)


def item_seeds(seed: int, n_items: int, per_item: int) -> list[list[int]]:
    """A fixed list of ``per_item`` seeds for each item, derived from ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(n_items * per_item)
    return [[int(s) for s in state[i * per_item:(i + 1) * per_item]] for i in range(n_items)]


def plane_angle(P: np.ndarray) -> float:
    """Largest principal angle between the row span of P and coordinates 0-1."""
    Q = np.linalg.qr(P.T)[0]
    s = np.linalg.svd(Q[:2], compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def knn_error(P, train, test) -> float:
    pred = wda.knn_predict(train.samples @ P.T, train.labels, test.samples @ P.T, K)
    return wda.error_rate(pred, test.labels)


def fit_problems(P, best_objective, train) -> list[str]:
    """Invariants every fitted projection must meet."""
    problems = []
    d = train.n_features
    if P.shape != (DIM, d):
        return [f"projection shape {P.shape}, expected {(DIM, d)}"]
    gap = float(np.abs(P @ P.T - np.eye(DIM)).max())
    if not gap <= ORTHONORMAL_TOL:
        problems.append(f"rows not orthonormal: max |P P^T - I| = {gap:.3g}")
    cfg = fit_config()
    blocks = train.class_blocks()
    P0 = wda.pca_init(train.samples.T, DIM)
    j0 = wda.evaluate(P0, blocks, cfg, wda.adaptive_lambdas(P0, blocks, LAM)).value
    if not (math.isfinite(best_objective) and best_objective >= j0 * (1.0 - 1e-12)):
        problems.append(f"best_objective {best_objective!r} below J at the PCA start {j0!r}")
    return problems


@contextlib.contextmanager
def quiet():
    """Keep the CLI's own printing off the benchmark's standard output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


class Workload:
    """One benchmark workload. Subclasses fill in the hooks below."""

    name = ""
    n_items = 1

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        # per distinct fit, filled by check; sweeps record no angles
        self.errors: list[float] = []
        self.angles: list[float] = []

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, i: int):
        """The timed operation on item ``i``; returns what the checks need."""
        raise NotImplementedError

    def fingerprint(self, outcome) -> bytes:
        """Bytes that a repeat of the same item must reproduce exactly."""
        raise NotImplementedError

    def check(self, i: int, outcome) -> list[str]:
        """Output checks for the first run of item ``i``."""
        raise NotImplementedError

    def cells(self, outcome) -> tuple[int, int]:
        """(results produced, results attempted) by one operation."""
        return 1, 1

    def quality(self) -> list[str]:
        """Checks on the distinct fits together; skipped at smoke sizes."""
        if self.smoke or not self.errors:
            return []
        angles = self.angles or [0.0] * len(self.errors)
        good = sum(a <= MAX_ANGLE and e <= MAX_ERROR for a, e in zip(angles, self.errors))
        if good < max(1, len(self.errors) // 3):
            return [f"only {good} of {len(self.errors)} fits within {MAX_ANGLE} rad "
                    f"of the planted plane and {MAX_ERROR} test error"]
        return []

    def peak_fit_input(self):
        """Training data for the memory pass."""
        raise NotImplementedError


class WideFitWorkload(Workload):
    """Back-to-back wda_fit calls, one per item of the seed list, on the toy
    problem at 100/class with 20 appended noise columns (d = 30)."""

    name = "wide-fit"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.n_items = 2 if smoke else 4
        self.cfg = fit_config(3 if smoke else WIDE_FIT_ITERS)

    def setup(self, seed, workdir):
        n_train, n_test, noise = (10, 10, 3) if self.smoke else (100, 334, 20)
        self.data = []
        for s in item_seeds(seed, self.n_items, 4):
            train = wda.append_noise(wda.gen_toy(n_train, s[0]), noise, s[2])
            test = wda.append_noise(wda.gen_toy(n_test, s[1]), noise, s[3])
            self.data.append((train, test))

    def run(self, i):
        return wda.wda_fit(self.data[i][0], self.cfg)

    def fingerprint(self, outcome):
        return outcome[0].tobytes()

    def check(self, i, outcome):
        P, report = outcome
        train, test = self.data[i]
        problems = fit_problems(P, report.best_objective, train)
        if not problems:
            self.angles.append(plane_angle(P))
            self.errors.append(knn_error(P, train, test))
        return problems

    def peak_fit_input(self):
        return self.data[0][0]


class SweepWorkload(Workload):
    """In-process ``wda sweep`` over the toy protocol, one sweep per item.

    lambda = 100 runs Sinkhorn on concentrated kernels; lambda = 1e4 is
    refused by the kernel-underflow check on every data draw, so the share
    of sweep cells without a result shows that path.
    """

    name = "sweep-grid"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.n_items = 1 if smoke else 3

    def setup(self, seed, workdir):
        data = {"type": "toy", "n_train_per_class": 8, "n_test_per_class": 10}
        spec = {
            "data": data if self.smoke else {
                "type": "toy", "n_train_per_class": 34, "n_test_per_class": 334
            },
            "methods": ["wda", "pca", "fda", "identity"],
            "ks": [1, 3, 5, 7],
            "ps": [DIM],
            "lambdas": [LAM, 100.0, 1e4],
            "n_seeds": 2,
            "lambda": LAM,
            "sinkhorn_iters": SINKHORN_ITERS,
            "dim": DIM,
            "max_iter": FIT_ITERS,
            "tol": 0.0,
        }
        self.dirs = []
        for i, (s,) in enumerate(item_seeds(seed, self.n_items, 1)):
            item = workdir / f"sweep{i}"
            item.mkdir()
            config = item / "sweep.json"
            config.write_text(json.dumps(dict(spec, seed=s % 2**31)))
            self.dirs.append(item)
        self.first_train_seed = item_seeds(seed, 1, 1)[0][0]

    def run(self, i):
        item = self.dirs[i]
        with quiet():
            code = wda.cli.main(
                ["sweep", "--config", str(item / "sweep.json"), "--out", str(item / "out")]
            )
        rows = []
        if code == 0:
            with open(item / "out" / "results.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        return code, rows, item / "out"

    def fingerprint(self, outcome):
        return json.dumps(outcome[1]).encode()

    def cells(self, outcome):
        rows = outcome[1]
        return sum(row["error"] != "" for row in rows), len(rows)

    def check(self, i, outcome):
        code, rows, out = outcome
        if code != 0:
            return [f"wda sweep exited with {code}"]
        if len(rows) != 4 * 2 * 3 * 4:
            return [f"results.csv has {len(rows)} cells, expected 96"]
        summary = json.loads((out / "summary.json").read_text())
        # a failed fit leaves every k of its cell empty, a failed prediction one k
        failed = {
            (f["method"], int(f["seed"]), float(f["lambda"]), f["k"])
            for f in summary["failures"]
        }
        problems = []
        for row in rows:
            key = (row["method"], int(row["seed"]), float(row["lambda"]))
            recorded = (*key, None) in failed or (*key, int(row["k"])) in failed
            if (row["error"] == "") != recorded:
                problems.append(f"cell {key} k={row['k']}: NaN does not match the failure list")
            elif row["error"] and not 0.0 <= float(row["error"]) <= 1.0:
                problems.append(f"cell {key} k={row['k']}: error {row['error']} out of range")
            elif row["error"] and row["method"] == "wda" and float(row["lambda"]) == LAM \
                    and int(row["k"]) == K:
                self.errors.append(float(row["error"]))
        return problems

    def peak_fit_input(self):
        return wda.gen_toy(8 if self.smoke else 34, self.first_train_seed)


class CliWorkload(Workload):
    """``wda fit``, ``transform``, ``evaluate -k 5`` and ``dump-transport``
    in process, on CSV files written at set-up: one 34/class training file per
    item and one shared 10,002-row test file."""

    name = "cli-session"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.n_items = 2 if smoke else 8

    def setup(self, seed, workdir):
        n_train, n_test = (8, 10) if self.smoke else (34, 3334)
        seeds = item_seeds(seed, self.n_items + 1, 1)
        self.test_csv = workdir / "test.csv"
        self.test_rows = 3 * n_test
        wda.save_csv(wda.gen_toy(n_test, seeds[-1][0]), str(self.test_csv))
        self.train_csvs = []
        for i, (s,) in enumerate(seeds[:-1]):
            path = workdir / f"train{i}.csv"
            wda.save_csv(wda.gen_toy(n_train, s), str(path))
            self.train_csvs.append(path)
        self.workdir = workdir

    def run(self, i):
        train = str(self.train_csvs[i])
        out = self.workdir / f"session{i}"
        projection = str(out / "projection.csv")
        fit_flags = ["--lambda", str(LAM), "--sinkhorn-iters", str(SINKHORN_ITERS),
                     "--dim", str(DIM)]
        commands = [
            ["fit", "--train", train, *fit_flags, "--max-iter", str(FIT_ITERS),
             "--tol", "0", "--out", str(out)],
            ["transform", "--projection", projection, "--data", str(self.test_csv),
             "--out", str(out)],
            ["evaluate", "--projection", projection, "--train", train,
             "--test", str(self.test_csv), "-k", str(K), "--out", str(out)],
            ["dump-transport", "--data", train, "--projection", projection,
             *fit_flags, "--adaptive-lambda", "--out", str(out / "plans")],
        ]
        codes = []
        with quiet():
            for argv in commands:
                codes.append(wda.cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, out

    def fingerprint(self, outcome):
        codes, out = outcome
        return json.dumps(codes).encode() + b"".join(
            (out / name).read_bytes() for name in ("projection.csv", "evaluation.json")
        )

    def cells(self, outcome):
        return sum(code == 0 for code in outcome[0]), 4

    def check(self, i, outcome):
        codes, out = outcome
        if codes != [0, 0, 0, 0]:
            return [f"exit codes {codes}, expected [0, 0, 0, 0]"]
        expected = ["projection.csv", "fit_report.json", "transformed.csv",
                    "evaluation.json", "plans/index.json"]
        expected += [f"plans/plan_c{c}_c{cp}.csv" for c in range(3) for cp in range(c, 3)]
        missing = [name for name in expected if not (out / name).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        with open(out / "transformed.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.test_rows:
            return [f"transformed.csv has {rows} rows, expected {self.test_rows}"]
        P = wda.ioutil.load_matrix_csv(str(out / "projection.csv"))
        report = json.loads((out / "fit_report.json").read_text())
        train = wda.load_csv(str(self.train_csvs[i]))
        problems = fit_problems(P, report["best_objective"], train)
        if not problems:
            self.angles.append(plane_angle(P))
            self.errors.append(json.loads((out / "evaluation.json").read_text())["error"])
        return problems

    def peak_fit_input(self):
        return wda.load_csv(str(self.train_csvs[0]))


def make(name: str, smoke: bool = False) -> Workload:
    for workload in (WideFitWorkload, SweepWorkload, CliWorkload):
        if workload.name == name:
            return workload(smoke)
    raise ValueError(f"unknown workload {name!r}")
