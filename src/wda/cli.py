"""Command-line interface: generate, fit, transform, evaluate, sweep,
dump-transport.

Options can come from a JSON config file (--config) and are overridden by
explicit flags. A config file key the command does not read is refused, as
is a sweep data spec key its type does not read. Validation failures of the
configuration exit with code 2; runtime errors from the library exit with
code 1; diagnostics go to standard error. All outputs are written
atomically.
"""

from __future__ import annotations

import argparse
import json
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
    CsvDataSpec,
    ToyDataSpec,
    error_rate,
    experiment_to_csv,
    knn_predict,
    run_protocol,
)
from .ioutil import load_matrix_csv, save_matrix_csv, write_json
from .objective import WdaConfig, adaptive_lambdas, pair_keys
from .otcore import cost_matrix, sinkhorn_plan
from .stiefel import pca_init, wda_fit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wda",
        description="Supervised linear dimensionality reduction via entropic "
        "optimal transport.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_wda=True):
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", default=None, help="output directory")
        if with_wda:
            p.add_argument(
                "--lambda", dest="lam", type=float, default=None,
                help="base regularization strength (default 0.01)",
            )
            p.add_argument(
                "--sinkhorn-iters", type=int, default=None,
                help="fixed inner scaling iterations (default 10)",
            )
            p.add_argument(
                "--dim", type=int, default=None,
                help="target dimension p (default 2)",
            )
            p.add_argument(
                "--max-iter", type=int, default=None,
                help="outer iteration cap (default 100)",
            )
            p.add_argument(
                "--tol", type=float, default=None,
                help="relative objective tolerance (default 1e-6)",
            )

    p = sub.add_parser("generate", help="write a toy dataset CSV (+ metadata sidecar)")
    add_common(p, with_wda=False)
    p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    p.add_argument("--n-per-class", type=int, default=None, help="samples per class (default 34)")
    p.add_argument(
        "--extra-noise-dims", type=int, default=None,
        help="additional pure-noise columns appended after generation (default 0)",
    )

    p = sub.add_parser("fit", help="learn a projection from a labeled CSV")
    add_common(p)
    p.add_argument("--train", required=True, help="training CSV (features + label column)")

    p = sub.add_parser("transform", help="project a labeled CSV with a saved projection")
    add_common(p, with_wda=False)
    p.add_argument("--projection", required=True, help="projection CSV (p rows x d columns)")
    p.add_argument("--data", required=True, help="dataset CSV to project")

    p = sub.add_parser("evaluate", help="KNN test error in a projected space")
    add_common(p, with_wda=False)
    p.add_argument("--projection", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("-k", type=int, default=None, help="number of neighbors (default 5)")

    p = sub.add_parser("sweep", help="run a grid experiment protocol")
    add_common(p)
    p.add_argument(
        "--seed", type=int, default=None,
        help="first seed; cells run seeds seed .. seed + n_seeds - 1 (default 0)",
    )
    p.add_argument("--n-seeds", type=int, default=None, help="seeds per cell (default 2)")

    p = sub.add_parser(
        "dump-transport", help="write every class-pair transport plan as CSV"
    )
    add_common(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument(
        "--projection", default=None,
        help="projection CSV; defaults to the PCA initialization at --dim",
    )
    p.add_argument(
        "--adaptive-lambda", action="store_true",
        help="rescale lambda per class pair by mean projected squared distance",
    )
    return parser


def _check_keys(payload: dict, known, where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise InvalidInputError(
            f"{where} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )


# what a config value must be: the article for the message, and the test
_KINDS = {
    "integer": ("an", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "number": ("a", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "string": ("a", lambda v: isinstance(v, str)),
}


def _typed(key: str, value, kind: str, many: bool = False):
    """``value`` if it is of ``kind`` (a list of them when ``many``); otherwise
    raise InvalidInputError naming ``key``."""
    article, is_kind = _KINDS[kind]
    if many:
        ok = isinstance(value, list) and all(map(is_kind, value))
    else:
        ok = is_kind(value)
    if not ok:
        want = f"a list of {kind}s" if many else f"{article} {kind}"
        raise InvalidInputError(f"{key!r} must be {want}, got {value!r}")
    return value


def _load_file_config(path: str | None, command: str, known) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError("config file must contain a JSON object")
    _check_keys(payload, known, f"config file for 'wda {command}'")
    return payload


def _opt(args, file_cfg: dict, attr: str, key: str, default):
    value = getattr(args, attr, None)
    if value is not None:
        return value
    return file_cfg.get(key, default)


def _wda_config(args, file_cfg: dict) -> WdaConfig:
    return WdaConfig(
        lam=_typed("lambda", _opt(args, file_cfg, "lam", "lambda", 0.01), "number"),
        sinkhorn_iters=_opt(args, file_cfg, "sinkhorn_iters", "sinkhorn_iters", 10),
        dim=_opt(args, file_cfg, "dim", "dim", 2),
        max_outer_iter=_opt(args, file_cfg, "max_iter", "max_iter", 100),
        outer_tol=_typed("tol", _opt(args, file_cfg, "tol", "tol", 1e-6), "number"),
    )


def _out_dir(args, file_cfg: dict) -> str:
    out = _opt(args, file_cfg, "out", "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_generate(args, file_cfg) -> int:
    n_per_class = _opt(args, file_cfg, "n_per_class", "n_per_class", 34)
    extra = _opt(args, file_cfg, "extra_noise_dims", "extra_noise_dims", 0)
    seed = _opt(args, file_cfg, "seed", "seed", 0)
    out = _out_dir(args, file_cfg)
    data = gen_toy(n_per_class, seed)
    if extra:
        data = append_noise(data, extra, seed + 1)
    path = os.path.join(out, "toy.csv")
    save_csv(data, path, metadata=toy_metadata(n_per_class, seed, extra_noise_dims=extra))
    print(path)
    return 0


def _cmd_fit(args, file_cfg) -> int:
    cfg = args.wda_config
    out = _out_dir(args, file_cfg)
    data = load_csv(args.train)
    projection, report = wda_fit(data, cfg)
    proj_path = os.path.join(out, "projection.csv")
    save_matrix_csv(projection, proj_path)
    write_json(os.path.join(out, "fit_report.json"), report.to_json())
    print(proj_path)
    return 0


def _cmd_transform(args, file_cfg) -> int:
    out = _out_dir(args, file_cfg)
    projection = load_matrix_csv(args.projection)
    data = load_csv(args.data)
    if projection.shape[1] != data.n_features:
        raise InvalidInputError(
            f"projection expects dimension {projection.shape[1]}, "
            f"data has {data.n_features}"
        )
    projected = data.samples @ projection.T
    names = tuple(f"z{j}" for j in range(projected.shape[1]))
    path = os.path.join(out, "transformed.csv")
    save_csv(LabeledDataset(projected, data.labels, names), path)
    print(path)
    return 0


def _cmd_evaluate(args, file_cfg) -> int:
    k = _opt(args, file_cfg, "k", "k", 5)
    projection = load_matrix_csv(args.projection)
    train = load_csv(args.train)
    test = load_csv(args.test)
    for name, data in (("train", train), ("test", test)):
        if projection.shape[1] != data.n_features:
            raise InvalidInputError(
                f"projection expects dimension {projection.shape[1]}, "
                f"{name} data has {data.n_features}"
            )
    train_Z = train.samples @ projection.T
    test_Z = test.samples @ projection.T
    predicted = knn_predict(train_Z, train.labels, test_Z, k)
    err = error_rate(predicted, test.labels)
    if getattr(args, "out", None) is not None or "out" in file_cfg:
        out = _out_dir(args, file_cfg)
        write_json(
            os.path.join(out, "evaluation.json"),
            {"k": k, "error": err, "n_train": train.n_samples, "n_test": test.n_samples},
        )
    print(f"{err:.6f}")
    return 0


_DATA_KEYS = {
    "toy": ("type", "n_train_per_class", "n_test_per_class", "extra_noise_dims"),
    "csv": ("type", "path", "train_fraction", "extra_noise_dims"),
}


def _data_spec_from_config(payload: dict):
    if not isinstance(payload, dict):
        raise InvalidInputError("sweep 'data' must be a JSON object")
    kind = payload.get("type", "toy")
    if kind not in _DATA_KEYS:
        raise InvalidInputError(f"unknown data spec type {kind!r}")
    _check_keys(payload, _DATA_KEYS[kind], f"{kind} data spec")
    extra = _typed("extra_noise_dims", payload.get("extra_noise_dims", 0), "integer")
    if kind == "toy":
        return ToyDataSpec(
            n_train_per_class=_typed(
                "n_train_per_class", payload.get("n_train_per_class", 34), "integer"
            ),
            n_test_per_class=_typed(
                "n_test_per_class", payload.get("n_test_per_class", 334), "integer"
            ),
            extra_noise_dims=extra,
        )
    if "path" not in payload:
        raise InvalidInputError("csv data spec needs a 'path'")
    return CsvDataSpec(
        path=_typed("path", payload["path"], "string"),
        train_fraction=float(
            _typed("train_fraction", payload.get("train_fraction", 0.5), "number")
        ),
        extra_noise_dims=extra,
    )


def _cmd_sweep(args, file_cfg) -> int:
    out = _out_dir(args, file_cfg)
    spec = args.sweep_spec
    result = run_protocol(
        spec["data"],
        spec["methods"],
        spec["ks"],
        spec["ps"],
        spec["lams"],
        n_seeds=spec["n_seeds"],
        base_seed=spec["base_seed"],
        wda_config=args.wda_config,
    )
    experiment_to_csv(result, os.path.join(out, "results.csv"))
    write_json(os.path.join(out, "summary.json"), result.summary_json())
    for failure in result.failures:
        print(f"warning: failed cell {failure}", file=sys.stderr)
    print(os.path.join(out, "results.csv"))
    return 0


def _cmd_dump_transport(args, file_cfg) -> int:
    cfg = args.wda_config
    out = _out_dir(args, file_cfg)
    data = load_csv(args.data)
    blocks = data.class_blocks()
    if args.projection is not None:
        projection = load_matrix_csv(args.projection)
        if projection.shape[1] != data.n_features:
            raise InvalidInputError(
                f"projection expects dimension {projection.shape[1]}, "
                f"data has {data.n_features}"
            )
        source = "file"
    else:
        projection = pca_init(data.samples.T, cfg.dim)
        source = "pca-init"
    if args.adaptive_lambda:
        lam_map = adaptive_lambdas(projection, blocks, cfg.lam)
    else:
        lam_map = {key: cfg.lam for key in pair_keys(len(blocks))}

    projected = [projection @ X for X in blocks]
    index = {
        "projection": source,
        "lambda_base": cfg.lam,
        "adaptive": bool(args.adaptive_lambda),
        "sinkhorn_iterations": cfg.sinkhorn_iters,
        "pairs": [],
    }
    for c, cp in pair_keys(len(blocks)):
        Yc = projected[c]
        Ycp = Yc if cp == c else projected[cp]
        M = cost_matrix(Yc, Ycp)
        plan, trace = sinkhorn_plan(M, lam_map[(c, cp)], cfg.sinkhorn_iters)
        filename = f"plan_c{c}_c{cp}.csv"
        save_matrix_csv(plan.weights, os.path.join(out, filename))
        index["pairs"].append(
            {
                "source_class": c,
                "target_class": cp,
                "file": filename,
                "shape": list(plan.shape),
                "lambda": lam_map[(c, cp)],
                "marginal_residual": trace.residual,
                "converged_at": trace.converged_at,
                "transport_cost": float(np.sum(plan.weights * M)),
            }
        )
    write_json(os.path.join(out, "index.json"), index)
    print(os.path.join(out, "index.json"))
    return 0


_WDA_KEYS = ("lambda", "sinkhorn_iters", "dim", "max_iter", "tol")

# handler, whether it builds a WdaConfig (and so reads _WDA_KEYS), and the
# other config file keys it reads
_COMMANDS = {
    "generate": (_cmd_generate, False, ("out", "seed", "n_per_class", "extra_noise_dims")),
    "fit": (_cmd_fit, True, ("out",)),
    "transform": (_cmd_transform, False, ("out",)),
    "evaluate": (_cmd_evaluate, False, ("out", "k")),
    "sweep": (
        _cmd_sweep, True,
        ("out", "seed", "n_seeds", "data", "methods", "ks", "ps", "lambdas"),
    ),
    "dump-transport": (_cmd_dump_transport, True, ("out",)),
}


# config file keys that generate and evaluate read as integers (their flags
# are integers already)
_INTEGER_KEYS = {
    "generate": ("seed", "n_per_class", "extra_noise_dims"),
    "evaluate": ("k",),
}


def _configure(args) -> dict:
    """Merge the config file into ``args``; returns the file's settings.

    Raises InvalidInputError for an unreadable file, an unknown key or an
    invalid setting.
    """
    _, needs_wda, keys = _COMMANDS[args.command]
    known = keys + _WDA_KEYS if needs_wda else keys
    file_cfg = _load_file_config(getattr(args, "config", None), args.command, known)
    if needs_wda:
        args.wda_config = _wda_config(args, file_cfg)
    for key in _INTEGER_KEYS.get(args.command, ()):
        if key in file_cfg:
            _typed(key, file_cfg[key], "integer")
    if args.command == "sweep":
        args.sweep_spec = {
            "data": _data_spec_from_config(file_cfg.get("data", {})),
            "methods": _typed(
                "methods", file_cfg.get("methods", ["wda", "pca"]), "string", many=True
            ),
            "ks": _typed("ks", file_cfg.get("ks", [5]), "integer", many=True),
            "ps": _typed("ps", file_cfg.get("ps", [args.wda_config.dim]), "integer", many=True),
            "lams": _typed(
                "lambdas", file_cfg.get("lambdas", [args.wda_config.lam]), "number", many=True
            ),
            "n_seeds": _typed("n_seeds", _opt(args, file_cfg, "n_seeds", "n_seeds", 2), "integer"),
            "base_seed": _typed("seed", _opt(args, file_cfg, "seed", "seed", 0), "integer"),
        }
    return file_cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command][0]

    # configuration phase: merge file + flags, validate -> exit code 2
    try:
        file_cfg = _configure(args)
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # execution phase: library or I/O failures -> exit code 1
    try:
        return handler(args, file_cfg)
    except (WdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
