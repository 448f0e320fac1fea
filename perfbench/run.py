"""Benchmark of the wda package: end-to-end figures with tracing off, per-layer
figures from a separate traced run.

Run from the repository root (nothing needs building; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload wide-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``workloads.py``): ``wide-fit`` runs back-to-back
``wda_fit`` calls, ``sweep-grid`` runs ``wda sweep`` and ``cli-session``
runs ``fit``, ``transform``, ``evaluate`` and ``dump-transport``, all in
process, closed loop with one client. Each run
cycles through a fixed item list derived from ``--seed`` until ``--seconds``
have passed and the list has been run whole at least once.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:

* ``setup_s``: importing wda and building the inputs, in a fresh interpreter,
  median of three;
* ``op_s_p50``, ``op_s_tail``: wall seconds per operation -- a ``wda_fit``,
  a sweep or a CLI session -- as the median and the highest percentile with
  ten samples beyond it (the maximum when fewer than 21 samples would put
  that percentile below the median);
* ``fit_peak_mb``: tracemalloc peak of a ``wda_fit`` capped at two outer
  iterations, in its own untimed pass (every iteration allocates the same
  arrays, and tracemalloc slows a fit several-fold);
* ``ok_frac``: results produced over results attempted (sweep cells, CLI
  commands, fits); refused sweep cells count as not produced.

The median KNN (k = 5) test error of the fitted projections is checked
against per-workload bounds and printed in the record, but it is not a
gated metric: it follows the data draw, and a run holds too few distinct
fits for its spread across seeds to stay within any useful bound.

``--trace 1`` runs every item untraced and traced, alternating the order,
and reports the ``per_layer`` metrics per operation together with the
tracing overhead. Work counts of every traced pass over the item list must
repeat exactly.

The last line of standard output is the result object; the line before it
is a record with the environment, sample counts and the per-layer shares.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so figures do not depend on the
# machine's core count
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank;
    the maximum while that percentile would lie below the median."""
    xs = sorted(values)
    if len(xs) < 21:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


@contextlib.contextmanager
def workdir():
    path = WORK / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "wda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            )
            commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Seconds to import wda and build the workload's inputs in this process."""
    start = time.perf_counter()
    import workloads

    with workdir() as path:
        workloads.make(name, smoke).setup(seed, path)
        return time.perf_counter() - start


def measure_setup(name: str, seed: int, smoke: bool) -> list[float]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def fit_peak_mb(workload) -> float:
    import wda
    import workloads

    data = workload.peak_fit_input()
    cfg = workloads.fit_config(max_outer_iter=2)
    tracemalloc.start()
    try:
        wda.wda_fit(data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


class Loop:
    """Runs operations and keeps their timings, outcomes and check results."""

    def __init__(self, workload):
        self.w = workload
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.produced = 0
        self.cells = 0
        self.problems: list[str] = []
        self.first: dict[int, bytes] = {}

    def op(self, i: int, context=contextlib.nullcontext()) -> float | None:
        """Run item ``i`` once inside ``context``, then check its outputs
        outside it; returns its wall time, or None if it failed."""
        self.attempted += 1
        try:
            with context:
                start = time.perf_counter()
                outcome = self.w.run(i)
                wall = time.perf_counter() - start
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"item {i}: {type(exc).__name__}: {exc}")
            return None
        produced, cells = self.w.cells(outcome)
        self.produced += produced
        self.cells += cells
        stamp = self.w.fingerprint(outcome)
        if i not in self.first:
            self.first[i] = stamp
            problems = self.w.check(i, outcome)
        elif stamp != self.first[i]:
            problems = ["repeat differs from the item's first run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems += [f"item {i}: {p}" for p in problems]
            return None
        self.op_s.append(wall)
        return wall


def run_untraced(loop: Loop, seconds: float) -> None:
    n = loop.w.n_items
    start = time.perf_counter()
    k = 0
    while k < n or time.perf_counter() - start < seconds:
        loop.op(k % n)
        k += 1


def work_counts(totals: dict) -> dict:
    """The exact part of the totals: calls and work, no times."""
    return {
        name: {"calls": entry["calls"], **entry["work"]}
        for name, entry in sorted(totals.items())
    }


def run_traced(loop: Loop, seconds: float):
    """Whole passes over the item list, each item untraced and traced."""
    from tracer import Tracer, merge, summarize

    tracer = Tracer()
    totals: dict = {}
    walls = {"untraced": 0.0, "traced": 0.0}
    first_counts = None
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_totals: dict = {}
        for i in range(loop.w.n_items):
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    pair[traced] = loop.op(i, tracer)
                    summarize(tracer.take(), pass_totals)
                else:
                    pair[traced] = loop.op(i)
            if None not in pair.values():
                walls["untraced"] += pair[False]
                walls["traced"] += pair[True]
        counts = work_counts(pass_totals)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            loop.problems.append(f"pass {passes}: work counts differ from the first pass")
        merge(totals, pass_totals)
        passes += 1
    return totals, walls, passes, first_counts


def layer_value(metric: str, totals: dict, n_ops: int, walls: dict) -> float:
    """Value of one per-layer metric, per operation unless it is a ratio."""

    def ratio(a, b):
        return a / b if b else 0.0

    if metric == "trace.overhead_s":
        return (walls["traced"] - walls["untraced"]) / n_ops
    if metric == "trace.overhead_frac":
        return ratio(walls["traced"] - walls["untraced"], walls["untraced"])
    layer, func, stat = metric.split(".", 2)
    entry = totals.get(f"{layer}.{func}", {"calls": 0, "self_s": 0.0, "work": {}})
    calls = entry["calls"]
    work = entry["work"]
    if stat == "calls":
        return calls / n_ops
    if stat == "self_s":
        return entry["self_s"] / n_ops
    if stat == "computed_mb":
        return work.get("computed_bytes", 0) / 1e6 / n_ops
    if stat in ("matvecs", "plan_entries"):
        return work.get(stat, 0) / n_ops
    if stat == "converged_ratio":
        return ratio(work.get("converged", 0), calls)
    if stat == "residual_max":
        return work.get("residual", 0.0)
    if stat == "outer_iters":
        return ratio(work.get("outer_iters", 0), work.get("fits", 0))
    if stat == "linesearch_accept_ratio":
        return ratio(work.get("accepted", 0), work.get("evaluate_calls", 0) - calls)
    if stat in ("points_per_s", "rows_per_s"):
        return ratio(work.get(stat[:-6], 0), entry["self_s"])
    if stat == "useful_fit_ratio":
        return ratio(work.get("fits_distinct", 0), work.get("fits_run", 0))
    raise KeyError(f"no rule for per-layer metric {metric!r}")


def layer_shares(totals: dict, op_total: float) -> dict:
    """Self time per layer module and inclusive time per function, as shares
    of the traced operations' wall time."""
    by_layer: dict[str, float] = {}
    for name, entry in totals.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
    return {
        "layer_self": {k: round(v / op_total, 4) for k, v in sorted(by_layer.items())},
        "function_incl": {
            name: round(entry["incl_s"] / op_total, 4)
            for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["incl_s"])
            if entry["incl_s"] > 0.01 * op_total
        },
    }


def execute(spec: dict, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (record, result)."""
    import workloads

    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "env": environment(seed)}
    metrics: dict[str, float] = {}
    workload = workloads.make(name, smoke)
    with workdir() as path:
        workload.setup(seed, path)
        loop = Loop(workload)
        if trace:
            totals, walls, passes, counts = run_traced(loop, seconds)
            n_ops = passes * workload.n_items
            for entry in spec["per_layer"]:
                metrics[entry["name"]] = layer_value(entry["name"], totals, n_ops, walls)
            record.update(passes=passes, work_per_pass=counts,
                          shares=layer_shares(totals, walls["traced"]))
        else:
            setup = measure_setup(name, seed, smoke)
            run_untraced(loop, seconds)
            op_tail, op_tail_pct = tail(loop.op_s) if loop.op_s else (math.nan, 0)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_s_p50": statistics.median(loop.op_s) if loop.op_s else math.nan,
                "op_s_tail": op_tail,
                "fit_peak_mb": fit_peak_mb(workload),
                "ok_frac": loop.produced / loop.cells if loop.cells else 0.0,
            }
            record.update(setup_samples=setup, op_samples=len(loop.op_s),
                          op_tail_percentile=op_tail_pct, op_s=loop.op_s)
        loop.problems += workload.quality()
        if workload.errors:
            record.update(test_error_p50=statistics.median(workload.errors),
                          test_error_samples=len(workload.errors))
    record.update(items=workload.n_items, problems=loop.problems)
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec["per_layer" if trace else "end_to_end"]
        },
    }
    return record, result


def smoke(spec: dict) -> list[str]:
    """Every workload at tiny size in both modes: each metric of BENCHMARK.json
    must be printed with its unit, and traced work counts must repeat."""
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        counts = []
        for trace in (False, True, True):
            record, result = execute(spec, name, 1, 0.0, trace, smoke=True)
            expected = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
            for metric, unit in expected.items():
                entry = result["metrics"].get(metric)
                if entry is None or entry.get("unit") != unit:
                    problems.append(f"{name}: {metric} not printed with unit {unit}")
                elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
                    problems.append(f"{name}: {metric} = {entry['value']!r}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {record['problems']}")
            if trace:
                counts.append(record["work_per_pass"])
        if counts[0] != counts[1]:
            problems.append(f"{name}: work counts differ between two runs at one seed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; with no --workload, check every workload's output")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "wda" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no wda sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    if args.probe_setup:
        print(probe_setup(args.workload, args.seed, args.smoke))
        return 0
    if args.smoke and args.workload is None:
        problems = smoke(spec)
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    record, result = execute(spec, args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
