"""Command-line interface: generate, fit, transform, evaluate, sweep,
dump-transport.

Each setting is declared once, in ``_SETTINGS``, with its kind, default and
flag help; ``_COMMANDS`` lists the settings each command reads. A setting
is taken from its flag, else the JSON config file (--config), else its
default; every config file key is type-checked, and every setting is
checked for values that are never valid, naming the key. A config
file key the command does not read is refused, as is a sweep data spec key
its type does not read. Validation failures of the configuration exit with
code 2; runtime errors from the library exit with code 1; diagnostics go to
standard error. All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import numbers
import os
import sys

import numpy as np

from . import __version__
from .datasets import (
    LabeledDataset,
    append_noise,
    gen_toy,
    load_csv,
    save_csv,
    toy_metadata,
)
from .errors import InvalidInputError, WdaError
from .evaluation import (
    KNOWN_METHODS,
    CsvDataSpec,
    ToyDataSpec,
    error_rate,
    experiment_to_csv,
    knn_predict,
    run_protocol,
)
from .ioutil import load_matrix_csv, save_matrix_csv, write_json
from .objective import WdaConfig, solve_pairs
from .stiefel import pca_init, pca_start, wda_fit


# what a config value must be: the article for the message, the test, and
# the type of its flag
_KINDS = {
    "integer": ("an", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), int),
    "number": ("a", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), float),
    "string": ("a", lambda v: isinstance(v, str), str),
}

_WDA = WdaConfig()  # the defaults of a fit

# every setting a command reads: key -> (kind, default, flag help). A kind in
# a list is a JSON list of that kind; "data" (kind None) is a JSON object that
# _data_spec reads. A setting with help has the flag --key, "-" for "_" (-k
# for k); one without is read from the config file only. Without "out",
# outputs go to the working directory, and evaluate writes none.
_SETTINGS = {
    "out": ("string", None, "output directory"),
    "lambda": ("number", _WDA.lam, "base regularization strength"),
    "sinkhorn_iters": ("integer", _WDA.sinkhorn_iters, "fixed inner scaling iterations"),
    "dim": ("integer", _WDA.dim, "target dimension p"),
    "max_iter": ("integer", _WDA.max_outer_iter, "outer iteration cap"),
    "tol": ("number", _WDA.outer_tol, "relative objective tolerance"),
    "seed": ("integer", 0, "random seed; sweep cells run seeds seed .. seed + n_seeds - 1"),
    "n_per_class": ("integer", 34, "samples per class"),
    "extra_noise_dims": ("integer", 0, "additional pure-noise columns appended after generation"),
    "k": ("integer", 5, "number of neighbors"),
    "n_seeds": ("integer", 2, "seeds per cell"),
    "data": (None, {}, None),
    "methods": (["string"], ["wda", "pca"], None),
    "ks": (["integer"], [5], None),
    "ps": (["integer"], None, None),  # default [dim]
    "lambdas": (["number"], None, None),  # default [lambda]
}


def _at_least(least):
    return (lambda value: value >= least), f">= {least}"


# the values a setting or sweep data spec key (each entry, for a list) may
# take, as (test, description). Limits that depend on the data, such as
# k <= n_train and p <= d, fail per sweep cell
_RANGES = {
    "seed": _at_least(0), "extra_noise_dims": _at_least(0), "k": _at_least(1),
    "n_seeds": _at_least(1), "ks": _at_least(1), "ps": _at_least(1),
    "n_per_class": _at_least(2), "n_train_per_class": _at_least(2),
    "n_test_per_class": _at_least(2),
    "lambdas": ((lambda value: 0 < value < math.inf), "positive and finite"),
    "train_fraction": ((lambda value: 0 < value < 1), "in (0, 1)"),
    "methods": (KNOWN_METHODS.__contains__, "one of " + ", ".join(map(repr, KNOWN_METHODS))),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``wda`` parser, built once per process: ``parse_args`` leaves it
    as it was, so every in-process :func:`main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="wda",
        description="Supervised linear dimensionality reduction via entropic "
        "optimal transport.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, help):
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for key in _COMMANDS[command][1]:
            kind, default, text = _SETTINGS[key]
            if text is None:
                continue
            if default is not None:
                text = f"{text} (default {default})"
            flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=_KINDS[kind][2], help=text)
        return p

    add("generate", "write a toy dataset CSV (+ metadata sidecar)")

    p = add("fit", "learn a projection from a labeled CSV")
    p.add_argument("--train", required=True, help="training CSV (features + label column)")

    p = add("transform", "project a labeled CSV with a saved projection")
    p.add_argument("--projection", required=True, help="projection CSV (p rows x d columns)")
    p.add_argument("--data", required=True, help="dataset CSV to project")

    p = add("evaluate", "KNN test error in a projected space")
    p.add_argument("--projection", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)

    add("sweep", "run a grid experiment protocol")

    p = add("dump-transport", "write every class-pair transport plan as CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument(
        "--projection", default=None,
        help="projection CSV; defaults to the PCA initialization at --dim",
    )
    p.add_argument(
        "--adaptive-lambda", action="store_true",
        help="use the per-pair lambda map of wda fit (fixed at the PCA start)",
    )
    return parser


def _check_keys(payload: dict, known, where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise InvalidInputError(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )


def _typed(key: str, value, kind):
    """``value`` if it is of ``kind`` (a list of them, not empty, when
    ``kind`` is in a list) and in the range of ``key``; otherwise raise
    InvalidInputError naming ``key``."""
    if isinstance(kind, list):
        is_kind = _KINDS[kind[0]][1]
        ok, want = isinstance(value, list) and all(map(is_kind, value)), f"a list of {kind[0]}s"
    else:
        article, is_kind, _ = _KINDS[kind]
        ok, want = is_kind(value), f"{article} {kind}"
    if not ok:
        raise InvalidInputError(f"{key!r} must be {want}, got {value!r}")
    if value == []:
        raise InvalidInputError(f"{key!r} must not be empty")
    if key in _RANGES:
        in_range, allowed = _RANGES[key]
        for entry in value if isinstance(value, list) else [value]:
            if not in_range(entry):
                raise InvalidInputError(f"{key!r} must be {allowed}, got {entry!r}")
    return value


def _load_file_config(path: str | None, command: str, known) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # not JSON, not text, or an integer too long to parse
        raise InvalidInputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError("config file must contain a JSON object")
    _check_keys(payload, known, f"config file for 'wda {command}'")
    return payload


def _out_dir(args) -> str:
    out = os.curdir if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    return out


def _load_projection(path: str, *named) -> np.ndarray:
    """The projection CSV at ``path``; raises InvalidInputError unless its
    width is the dimension of each (name, dataset) in ``named``."""
    projection = load_matrix_csv(path)
    for name, data in named:
        if projection.shape[1] != data.n_features:
            raise InvalidInputError(
                f"projection expects dimension {projection.shape[1]}, "
                f"{name} has {data.n_features}"
            )
    return projection


def _cmd_generate(args) -> int:
    n_per_class, extra, seed = args.n_per_class, args.extra_noise_dims, args.seed
    out = _out_dir(args)
    data = gen_toy(n_per_class, seed)
    if extra:
        data = append_noise(data, extra, seed + 1)
    path = os.path.join(out, "toy.csv")
    save_csv(data, path, metadata=toy_metadata(n_per_class, seed, extra_noise_dims=extra))
    print(path)
    return 0


def _cmd_fit(args) -> int:
    out = _out_dir(args)
    data = load_csv(args.train)
    projection, report = wda_fit(data, args.wda_config)
    proj_path = os.path.join(out, "projection.csv")
    save_matrix_csv(projection, proj_path)
    write_json(os.path.join(out, "fit_report.json"), report.to_json())
    print(proj_path)
    return 0


def _cmd_transform(args) -> int:
    out = _out_dir(args)
    data = load_csv(args.data)
    projection = _load_projection(args.projection, ("data", data))
    projected = data.samples @ projection.T
    names = tuple(f"z{j}" for j in range(projected.shape[1]))
    path = os.path.join(out, "transformed.csv")
    save_csv(LabeledDataset(projected, data.labels, names), path)
    print(path)
    return 0


def _cmd_evaluate(args) -> int:
    train = load_csv(args.train)
    test = load_csv(args.test)
    projection = _load_projection(args.projection, ("train data", train), ("test data", test))
    train_Z = train.samples @ projection.T
    test_Z = test.samples @ projection.T
    predicted = knn_predict(train_Z, train.labels, test_Z, args.k)
    err = error_rate(predicted, test.labels)
    if args.out is not None:
        out = _out_dir(args)
        write_json(
            os.path.join(out, "evaluation.json"),
            {"k": args.k, "error": err, "n_train": train.n_samples, "n_test": test.n_samples},
        )
    print(f"{err:.6f}")
    return 0


# each sweep data spec type and its class
_DATA_SPECS = {"toy": ToyDataSpec, "csv": CsvDataSpec}

# the setting kind of a data spec field, by its annotation: a string, as the
# evaluation module postpones annotations
_FIELD_KINDS = {"int": "integer", "float": "number", "str": "string"}


def _data_spec(payload):
    """The data spec of a sweep's 'data' object. Its "type" (default "toy")
    picks the class; the keys it reads and their kinds are that class's
    fields and annotations. A key left out takes the field's default, and a
    field without one is required. Raises InvalidInputError naming the key."""
    if not isinstance(payload, dict):
        raise InvalidInputError("sweep 'data' must be a JSON object")
    kind = payload.get("type", "toy")
    if not isinstance(kind, str) or kind not in _DATA_SPECS:
        raise InvalidInputError(f"unknown data spec type {kind!r}")
    spec_class = _DATA_SPECS[kind]
    fields = dataclasses.fields(spec_class)
    _check_keys(payload, ("type", *(f.name for f in fields)), f"{kind} data spec")
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in payload:
            raise InvalidInputError(f"{kind} data spec needs a {f.name!r}")
    return spec_class(**{
        f.name: _typed(f.name, payload[f.name], _FIELD_KINDS[f.type])
        for f in fields if f.name in payload
    })


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    result = run_protocol(
        args.data, args.methods, args.ks, args.ps, args.lambdas,
        n_seeds=args.n_seeds, base_seed=args.seed, wda_config=args.wda_config,
    )
    experiment_to_csv(result, os.path.join(out, "results.csv"))
    write_json(os.path.join(out, "summary.json"), result.summary_json())
    for failure in result.failures:
        print(f"warning: failed cell {failure}", file=sys.stderr)
    print(os.path.join(out, "results.csv"))
    return 0


def _cmd_dump_transport(args) -> int:
    cfg = args.wda_config
    out = _out_dir(args)
    data = load_csv(args.data)
    # the lambda map is fixed at the PCA start; without a projection file
    # that start is also the projection, from the same pca_start call
    lam_map = None
    if args.projection is not None:
        projection = _load_projection(args.projection, ("data", data))
        source = "file"
        if args.adaptive_lambda:
            lam_map = pca_start(data, len(projection), cfg.lam)[1]
    else:
        source = "pca-init"
        if args.adaptive_lambda:
            projection, lam_map = pca_start(data, cfg.dim, cfg.lam)
        else:
            projection = pca_init(data.samples.T, cfg.dim)
    pairs = solve_pairs(projection, data.class_blocks(), cfg, lam_map)
    final, converged = {}, {}
    for keys, batch in pairs.batches.items():
        final.update(zip(keys, batch.residuals()[:, -1].tolist()))
        converged.update(zip(keys, batch.converged_at()))

    index = {
        "projection": source,
        "lambda_base": cfg.lam,
        "adaptive": bool(args.adaptive_lambda),
        "sinkhorn_iterations": cfg.sinkhorn_iters,
        "pairs": [],
    }
    for (c, cp), (batch, b) in pairs.runs().items():
        plan = batch.plan(b)
        filename = f"plan_c{c}_c{cp}.csv"
        save_matrix_csv(plan, os.path.join(out, filename))
        index["pairs"].append(
            {
                "source_class": c,
                "target_class": cp,
                "file": filename,
                "shape": list(plan.shape),
                "lambda": pairs.pair_lambdas[(c, cp)],
                "marginal_residual": final[(c, cp)],
                "converged_at": converged[(c, cp)],
                "transport_cost": pairs.pair_distances[(c, cp)],
            }
        )
    write_json(os.path.join(out, "index.json"), index)
    print(os.path.join(out, "index.json"))
    return 0


# the WdaConfig field of each fit setting; those a command does not read keep
# their defaults
_WDA_FIELDS = {"lambda": "lam", "sinkhorn_iters": "sinkhorn_iters", "dim": "dim",
               "max_iter": "max_outer_iter", "tol": "outer_tol"}
_WDA_KEYS = tuple(_WDA_FIELDS)

# each command's handler and the settings it reads
_COMMANDS = {
    "generate": (_cmd_generate, ("out", "seed", "n_per_class", "extra_noise_dims")),
    "fit": (_cmd_fit, ("out", *_WDA_KEYS)),
    "transform": (_cmd_transform, ("out",)),
    "evaluate": (_cmd_evaluate, ("out", "k")),
    "sweep": (
        _cmd_sweep,
        ("out", *_WDA_KEYS, "seed", "n_seeds", "data", "methods", "ks", "ps", "lambdas"),
    ),
    "dump-transport": (_cmd_dump_transport, ("out", "lambda", "sinkhorn_iters", "dim")),
}


def _configure(args) -> dict:
    """Set each setting of the command on ``args``: its flag, else its config
    file value, else its default. Returns the file's settings.

    Every file value is checked against its kind and range, even where a
    flag wins. Raises InvalidInputError for an unreadable file, an unknown
    key or an invalid setting.
    """
    keys = _COMMANDS[args.command][1]
    file_cfg = _load_file_config(args.config, args.command, keys)
    for key in keys:
        kind, default, _ = _SETTINGS[key]
        if key in file_cfg and kind is not None:
            _typed(key, file_cfg[key], kind)
        if getattr(args, key, None) is None:
            setattr(args, key, file_cfg.get(key, default))
        elif kind is not None:
            _typed(key, getattr(args, key), kind)
    if "lambda" in keys:
        args.wda_config = WdaConfig(**{
            field: getattr(args, key) for key, field in _WDA_FIELDS.items() if key in keys
        })
    if args.command == "sweep":
        args.data = _data_spec(args.data)
        if args.ps is None:
            args.ps = [args.dim]
        if args.lambdas is None:
            args.lambdas = [args.wda_config.lam]
    return file_cfg


def main(argv=None) -> int:
    """Run one ``wda`` command on ``argv`` (default ``sys.argv[1:]``) and
    return its exit code: 0 on success, 2 for a configuration error, 1 for
    a library or I/O error. A malformed command line, ``--help`` and
    ``--version`` exit through argparse's ``SystemExit`` (2, 0 and 0).

    The parser is built on the first call and reused by every later call in
    the process (a benchmark session, a test run, a notebook), saving about
    2 ms per call; no call changes it, so none affects the next.
    """
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]

    # configuration phase: merge file + flags, validate -> exit code 2
    try:
        _configure(args)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # execution phase: library or I/O failures -> exit code 1
    try:
        return handler(args)
    except (WdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
