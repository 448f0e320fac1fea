"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import wda  # noqa: E402
import wda.objective  # noqa: E402
from run import layer_value, tail  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload",
         "wide-fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["inner", 5.0, 6.0, 0, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = summarize(spans)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["self_s"] == 3.0
    assert summary["outer"]["incl_s"] == 10.0


def test_tracer_wraps_the_name_the_caller_looks_up_and_restores_it():
    original = wda.objective.sinkhorn_plan
    data = wda.gen_toy(6, 0)
    cfg = wda.WdaConfig(lam=1.0, dim=2)
    P = wda.pca_init(data.samples.T, 2)
    with Tracer() as tracer:
        wda.evaluate(P, data.class_blocks(), cfg)
    assert wda.objective.sinkhorn_plan is original
    summary = summarize(tracer.take())
    assert summary["objective.evaluate"]["calls"] == 1
    plans = summary["otcore.sinkhorn_plan"]
    assert plans["calls"] == 6
    assert plans["work"]["matvecs"] == 6 * 4 * cfg.sinkhorn_iters
    assert plans["work"]["plan_entries"] == 6 * 6 * 6


def test_a_function_that_is_gone_reports_zero():
    walls = {"traced": 1.0, "untraced": 1.0}
    assert layer_value("autodiff.kernel_jacobian.calls", {}, 3, walls) == 0.0
    assert layer_value("autodiff.kernel_jacobian.computed_mb", {}, 3, walls) == 0.0
    assert layer_value("evaluation.knn_predict.points_per_s", {}, 3, walls) == 0.0


def test_tail_keeps_ten_samples_beyond_it():
    values = list(range(1, 31))
    assert tail(values) == (20, 100.0 * 20 / 30)
    assert tail([3, 1, 2]) == (3, 100.0)
