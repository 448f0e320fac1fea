"""Span tracer for the wda package, applied from outside the program.

While a :class:`Tracer` is active, every public function of the layer
modules is replaced, at each name a caller looks it up by, with a wrapper
that records a span (name, start, end, parent). ``wda.stiefel.gradient`` is
the name ``wda_fit`` calls, ``wda.objective.sinkhorn_plan`` the one
``evaluate`` calls, and so on. Names are resolved when the tracer starts, so
a function a later version of the package removes simply reports zero calls.

Spans stay in memory; :func:`summarize` turns them into per-function self
times (duration minus the time covered by child spans), call counts and the
work counts that :data:`EXTRACTORS` read off each call's arguments and
result.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
import types

LAYERS = (
    "otcore",
    "objective",
    "autodiff",
    "stiefel",
    "baselines",
    "evaluation",
    "datasets",
    "ioutil",
    "cli",
)

# a span is [name, start, end, parent index or -1, work dict or None]
NAME, START, END, PARENT, WORK = range(5)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sinkhorn_work(args, kwargs, result):
    M = _arg(args, kwargs, 0, "M")
    iterations = _arg(args, kwargs, 2, "iterations")
    trace = result[1]
    return {
        # K^T u and K v for the update, K v and K^T u again for the residual
        "matvecs": 4 * int(iterations),
        "plan_entries": int(M.shape[0] * M.shape[1]),
        "converged": int(trace.converged_at is not None),
        "residual": float(trace.residual),
    }


def _kernel_jacobian_work(args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    X = _arg(args, kwargs, 1, "X")
    Z = _arg(args, kwargs, 2, "Z")
    # computed from shapes: one float64 (p, d) block per kernel entry
    return {"computed_bytes": 8 * X.shape[1] * Z.shape[1] * P.shape[0] * P.shape[1]}


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _wda_fit_work(args, kwargs, result):
    projection, report = result
    return {
        "fits": 1,
        "outer_iters": len(report.gradient_norms),
        "accepted": int(report.n_iterations),
        "output": _digest(projection),
    }


EXTRACTORS = {
    "otcore.sinkhorn_plan": _sinkhorn_work,
    "autodiff.kernel_jacobian": _kernel_jacobian_work,
    "stiefel.wda_fit": _wda_fit_work,
    "stiefel.pca_init": lambda a, k, r: {"output": _digest(r)},
    "baselines.fda_fit": lambda a, k, r: {"output": _digest(r.projection)},
    "evaluation.knn_predict": lambda a, k, r: {
        "points": len(_arg(a, k, 2, "test_X"))
    },
    "datasets.load_csv": lambda a, k, r: {"rows": int(r.n_samples)},
}


class Tracer:
    """Context manager that wraps the layer functions and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict = {}

    def _wrap(self, fn, name):
        extractor = EXTRACTORS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extractor is not None:
                try:
                    span[WORK] = extractor(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass
            return result

        return traced

    def __enter__(self):
        modules = [importlib.import_module("wda")]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"wda.{layer}"))
            except ImportError:
                continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                package, _, layer = value.__module__.partition(".")
                if package != "wda" or layer not in LAYERS:
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrap(value, f"{layer}.{value.__name__}")
                    self._wrappers[value] = wrapper
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def add(totals: dict, name: str, calls=0, self_s=0.0, incl_s=0.0, work=None) -> None:
    """Accumulate one function's figures into ``totals``; residuals keep the
    maximum, every other work count the sum."""
    entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": {}})
    entry["calls"] += calls
    entry["self_s"] += self_s
    entry["incl_s"] += incl_s
    for key, value in (work or {}).items():
        if key == "residual":
            entry["work"][key] = max(entry["work"].get(key, 0.0), value)
        elif key != "output":
            entry["work"][key] = entry["work"].get(key, 0) + value


def merge(into: dict, totals: dict) -> None:
    for name, entry in totals.items():
        add(into, name, entry["calls"], entry["self_s"], entry["incl_s"], entry["work"])


def summarize(spans, totals: dict | None = None) -> dict:
    """Per-function totals of the spans: calls, self and inclusive seconds,
    summed work, accumulated into ``totals``.

    Also counts, per run_protocol span, the subspace fits it ran directly and
    how many distinct projections they produced, and the objective
    evaluations each wda_fit made.
    """
    totals = {} if totals is None else totals
    for span, self_s in zip(spans, self_times(spans)):
        add(totals, span[NAME], 1, self_s, span[END] - span[START], span[WORK])

    fits_run = 0
    distinct = set()
    evals_in_fit = 0
    for span in spans:
        parent = span[PARENT]
        if parent < 0:
            continue
        parent_name = spans[parent][NAME]
        if parent_name == "evaluation.run_protocol" and span[NAME] in (
            "stiefel.wda_fit", "stiefel.pca_init", "baselines.fda_fit"
        ):
            fits_run += 1
            if span[WORK] is not None:
                distinct.add((parent, span[NAME], span[WORK]["output"]))
        elif parent_name == "stiefel.wda_fit" and span[NAME] == "objective.evaluate":
            evals_in_fit += 1
    add(totals, "evaluation.run_protocol",
        work={"fits_run": fits_run, "fits_distinct": len(distinct)})
    add(totals, "stiefel.wda_fit", work={"evaluate_calls": evals_in_fit})
    return totals
