import json
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import random_stiefel, reference_sinkhorn
from wda import (
    LabeledDataset,
    WdaConfig,
    adaptive_lambdas,
    append_noise,
    cost_matrix,
    evaluate,
    gen_toy,
    load_csv,
    pca_init,
    save_csv,
)
from wda.cli import _COMMANDS, _SETTINGS, _build_parser, _configure, main
from wda.ioutil import load_matrix_csv, save_matrix_csv
from wda.objective import pair_keys


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "train.csv"
    save_csv(gen_toy(12, seed=0), str(path))
    return str(path)


def test_generate_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "gen"
    code = main(["generate", "--n-per-class", "4", "--seed", "3", "--out", str(out)])
    assert code == 0
    data_path = out / "toy.csv"
    assert data_path.exists()
    meta = json.loads((out / "toy.csv.meta.json").read_text())
    assert meta["seed"] == 3
    assert meta["rng"] == "numpy-pcg64"
    # deterministic regeneration
    out2 = tmp_path / "gen2"
    assert main(["generate", "--n-per-class", "4", "--seed", "3", "--out", str(out2)]) == 0
    assert (out2 / "toy.csv").read_bytes() == data_path.read_bytes()


def test_generate_appends_noise_columns(tmp_path, capsys):
    out = tmp_path / "gen"
    argv = ["generate", "--n-per-class", "4", "--seed", "3", "--extra-noise-dims", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    expected = append_noise(gen_toy(4, 3), 2, 4)
    written = load_csv(str(out / "toy.csv"))
    assert written.samples.tobytes() == expected.samples.tobytes()
    assert np.array_equal(written.labels, expected.labels)
    assert written.feature_names == expected.feature_names
    meta = json.loads((out / "toy.csv.meta.json").read_text())
    assert meta["seed"] == 3 and meta["n_per_class"] == 4 and meta["extra_noise_dims"] == 2


def test_fit_writes_projection_and_report(tmp_path, toy_csv):
    out = tmp_path / "fit"
    code = main([
        "fit", "--train", toy_csv, "--out", str(out),
        "--lambda", "1.0", "--dim", "2", "--max-iter", "15",
    ])
    assert code == 0
    projection = load_matrix_csv(str(out / "projection.csv"))
    assert projection.shape == (2, 10)
    assert np.abs(projection @ projection.T - np.eye(2)).max() <= 1e-10
    report = json.loads((out / "fit_report.json").read_text())
    assert report["termination"] in {"converged", "stationary", "stalled", "max_iterations"}
    assert len(report["objective_values"]) == report["n_iterations"] + 1
    assert len(report["evaluations"]) == len(report["gradient_norms"])
    assert all(isinstance(n, int) and n >= 0 for n in report["evaluations"])


def test_fit_deterministic_output(tmp_path, toy_csv):
    args = ["fit", "--train", toy_csv, "--lambda", "1.0", "--max-iter", "10"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "projection.csv").read_bytes() == (out2 / "projection.csv").read_bytes()


def test_fit_invalid_lambda_exits_2(tmp_path, toy_csv, capsys):
    code = main(["fit", "--train", toy_csv, "--lambda", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_fit_config_file_and_flag_override(tmp_path, toy_csv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lambda": 1.0, "dim": 3, "max_iter": 5}))
    out = tmp_path / "out"
    code = main([
        "fit", "--train", toy_csv, "--config", str(config),
        "--dim", "2", "--out", str(out),
    ])
    assert code == 0
    assert load_matrix_csv(str(out / "projection.csv")).shape == (2, 10)


@pytest.mark.parametrize(
    "content",
    [b"{not json", b'{"lambda": "\xff"}', b'{"lambda": 1' + b"0" * 5000 + b"}"],
    ids=["json", "utf-8", "long-integer"],
)
def test_fit_bad_config_json_exits_2(tmp_path, toy_csv, capsys, content):
    config = tmp_path / "cfg.json"
    config.write_bytes(content)
    code = main(["fit", "--train", toy_csv, "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(config) in err


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read config file: "), ("[1, 2]", "config file must contain a JSON object")],
    ids=["unreadable", "not-an-object"],
)
def test_fit_config_file_unreadable_or_not_an_object_exits_2(tmp_path, toy_csv, capsys,
                                                               content, message):
    config = tmp_path / "cfg.json"
    if content is not None:
        config.write_text(content)
    out = tmp_path / "out"
    assert main(["fit", "--train", toy_csv, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert not out.exists()


def test_fit_missing_train_exits_1(tmp_path, capsys):
    code = main(["fit", "--train", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 1


def test_transform_orthogonal_preserves_norms(tmp_path, toy_csv):
    rng = np.random.default_rng(0)
    P = random_stiefel(rng, 10, 10)
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, P, delimiter=",")
    out = tmp_path / "out"
    code = main(["transform", "--projection", str(ppath), "--data", toy_csv, "--out", str(out)])
    assert code == 0

    original = load_csv(toy_csv)
    transformed = load_csv(str(out / "transformed.csv"))
    assert np.array_equal(transformed.labels, original.labels)
    n_orig = np.linalg.norm(original.samples, axis=1)
    n_new = np.linalg.norm(transformed.samples, axis=1)
    assert np.abs(n_orig - n_new).max() <= 1e-10


def test_transform_recovers_signal_coordinate(tmp_path):
    rng = np.random.default_rng(1)
    signal = rng.standard_normal(20)
    samples = np.zeros((20, 3))
    samples[:, 1] = signal
    data = LabeledDataset(samples, (signal > 0).astype(int))
    dpath = tmp_path / "d.csv"
    save_csv(data, str(dpath))
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, np.array([[0.0, 1.0, 0.0]]), delimiter=",")
    out = tmp_path / "out"
    assert main(["transform", "--projection", str(ppath), "--data", str(dpath), "--out", str(out)]) == 0

    transformed = load_csv(str(out / "transformed.csv"))
    assert np.abs(transformed.samples[:, 0] - signal).max() <= 1e-12


def test_transform_matches_in_process_projection(tmp_path, toy_csv):
    rng = np.random.default_rng(2)
    P = random_stiefel(rng, 2, 10)
    ppath = tmp_path / "p.csv"
    from wda.ioutil import save_matrix_csv

    save_matrix_csv(P, str(ppath))
    out = tmp_path / "out"
    assert main(["transform", "--projection", str(ppath), "--data", toy_csv, "--out", str(out)]) == 0

    original = load_csv(toy_csv)
    transformed = load_csv(str(out / "transformed.csv"))
    assert np.array_equal(transformed.samples, original.samples @ P.T)


def test_transform_dimension_mismatch_exits_1(tmp_path, toy_csv, capsys):
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, np.eye(3), delimiter=",")
    code = main(["transform", "--projection", str(ppath), "--data", toy_csv, "--out", str(tmp_path)])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


def test_non_finite_projection_file_is_refused_by_name(tmp_path, toy_csv, capsys):
    P = np.eye(10)[:2]
    P[1, 3] = np.nan
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, P, delimiter=",")
    commands = [
        ["transform", "--projection", str(ppath), "--data", toy_csv],
        ["evaluate", "--projection", str(ppath), "--train", toy_csv, "--test", toy_csv],
        ["dump-transport", "--projection", str(ppath), "--data", toy_csv],
    ]
    for argv in commands:
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 1, argv[0]
        err = capsys.readouterr().err
        assert f"{ppath}: line 2, column 4: not a finite number: 'nan'" in err, argv[0]
        assert not out.exists() or not any(out.iterdir()), argv[0]


@pytest.mark.parametrize(
    "content, bad, message",
    [
        (b"f0,label\n1,0\n2,\xff\n", "data", "not valid utf-8 text: invalid start byte"),
        (b"1,0\n0,\xff\n", "projection", "not valid utf-8 text: invalid start byte"),
        (b"f0," + b"x" * 131_073 + b",label\n1,2,0\n", "data",
         "line 1: field larger than field limit (131072)"),
        (b'f0,label\n1,0\n"' + b"x" * 131_073 + b'",1\n', "data",
         "line 3: field larger than field limit (131072)"),
    ],
    ids=["data-not-text", "projection-not-text", "header-cell-too-long", "data-cell-too-long"],
)
def test_unreadable_csv_exits_1_naming_the_file(tmp_path, toy_csv, capsys, content, bad, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, np.eye(10)[:2], delimiter=",")
    files = {"data": toy_csv, "projection": str(ppath), bad: str(path)}
    code = main([
        "transform", "--projection", files["projection"], "--data", files["data"],
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_evaluate_prints_error_and_writes_json(tmp_path, toy_csv, capsys):
    test_path = tmp_path / "test.csv"
    save_csv(gen_toy(8, seed=99), str(test_path))
    ppath = tmp_path / "p.csv"
    np.savetxt(ppath, np.eye(10)[:2], delimiter=",")
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--projection", str(ppath), "--train", toy_csv,
        "--test", str(test_path), "-k", "3", "--out", str(out),
    ])
    assert code == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    payload = json.loads((out / "evaluation.json").read_text())
    assert payload["k"] == 3
    assert payload["error"] == pytest.approx(printed, abs=1e-6)
    assert 0.0 <= payload["error"] <= 1.0


def test_dump_transport_single_sample_classes(tmp_path):
    data = LabeledDataset(np.array([[0.0, 0.0], [3.0, 0.0]]), np.array([0, 1]))
    dpath = tmp_path / "two.csv"
    save_csv(data, str(dpath))
    out = tmp_path / "dump"
    code = main([
        "dump-transport", "--data", str(dpath), "--dim", "1",
        "--lambda", "0.5", "--out", str(out),
    ])
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert {(e["source_class"], e["target_class"]) for e in index["pairs"]} == {
        (0, 0), (0, 1), (1, 1),
    }
    plan = load_matrix_csv(str(out / "plan_c0_c1.csv"))
    assert np.abs(plan - [[1.0]]).max() <= 1e-12
    for entry in index["pairs"]:
        assert entry["marginal_residual"] <= 1e-9


def test_dump_transport_tiny_lambda_uniform(tmp_path):
    dpath = tmp_path / "toy.csv"
    save_csv(gen_toy(6, seed=4), str(dpath))
    out = tmp_path / "dump"
    code = main([
        "dump-transport", "--data", str(dpath), "--dim", "2",
        "--lambda", "1e-9", "--sinkhorn-iters", "50", "--out", str(out),
    ])
    assert code == 0
    for name in ("plan_c0_c0.csv", "plan_c0_c1.csv", "plan_c1_c2.csv"):
        plan = load_matrix_csv(str(out / name))
        assert np.abs(plan - 1.0 / plan.size).max() <= 1e-6


@pytest.mark.parametrize("iterations", [300, 2])
def test_dump_transport_converged_at_is_the_first_feasible_iteration(tmp_path, iterations):
    # converged_at in index.json is the first k whose plan diag(u_k) K
    # diag(v_k) has marginal residual <= 1e-9, recomputed here from a plain
    # 2-d Sinkhorn loop; null when no iteration gets there
    data = gen_toy(12, seed=7)
    dpath = tmp_path / "toy.csv"
    save_csv(data, str(dpath))
    P = np.eye(10)[:2]
    ppath = tmp_path / "p.csv"
    save_matrix_csv(P, str(ppath))
    out = tmp_path / "dump"
    code = main([
        "dump-transport", "--data", str(dpath), "--projection", str(ppath),
        "--lambda", "1.0", "--sinkhorn-iters", str(iterations), "--out", str(out),
    ])
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    blocks = data.class_blocks()
    found = []
    for entry in index["pairs"]:
        c, cp = entry["source_class"], entry["target_class"]
        Y = P @ blocks[c]
        M = cost_matrix(Y, Y if cp == c else P @ blocks[cp])
        _, trace = reference_sinkhorn(M, 1.0, iterations, 1e-9)
        K = trace.kernel
        n, m = K.shape
        residuals = [
            max(np.abs(u * (K @ v) - 1.0 / n).max(), np.abs(v * (K.T @ u) - 1.0 / m).max())
            for u, v in zip(trace.u_history[1:], trace.v_history)
        ]
        below = [k for k, r in enumerate(residuals, start=1) if r <= 1e-9]
        assert entry["converged_at"] == (below[0] if below else None)
        assert entry["marginal_residual"] == residuals[-1]
        found.append(entry["converged_at"])
    if iterations == 2:
        assert found == [None] * len(found)
    else:
        assert len(set(found) - {None}) > 1


def test_dump_transport_unbalanced_classes_match_the_per_pair_reference(tmp_path):
    # class sizes 5/7/5 give plan shapes 5x5 (three pairs), 5x7, 7x7 and 7x5,
    # so the pairs are solved in four stacks; index.json still lists them in
    # pair order, each with the numbers of a plain per-pair Sinkhorn loop
    toy = gen_toy(7, seed=3)
    keep = np.concatenate([np.flatnonzero(toy.labels == c)[:n] for c, n in enumerate((5, 7, 5))])
    data = LabeledDataset(toy.samples[keep], toy.labels[keep])
    dpath = tmp_path / "unbalanced.csv"
    save_csv(data, str(dpath))
    out = tmp_path / "dump"
    code = main([
        "dump-transport", "--data", str(dpath), "--lambda", "1.0", "--adaptive-lambda",
        "--sinkhorn-iters", "300", "--out", str(out),
    ])
    assert code == 0
    index = json.loads((out / "index.json").read_text())
    assert [(e["source_class"], e["target_class"]) for e in index["pairs"]] == pair_keys(3)

    blocks = data.class_blocks()
    P = pca_init(data.samples.T, 2)
    lambdas = adaptive_lambdas(P, blocks, 1.0)
    projected = [P @ X for X in blocks]
    for entry in index["pairs"]:
        c, cp = entry["source_class"], entry["target_class"]
        M = cost_matrix(projected[c], projected[cp].copy())
        if cp == c:
            M = 0.5 * (M + M.T)
            np.fill_diagonal(M, 0.0)
        weights, trace = reference_sinkhorn(M, lambdas[(c, cp)], 300, 1e-9)
        assert entry["file"] == f"plan_c{c}_c{cp}.csv"
        assert entry["shape"] == list(M.shape)
        assert load_matrix_csv(str(out / entry["file"])).tobytes() == weights.tobytes()
        assert entry["lambda"] == lambdas[(c, cp)]
        assert entry["marginal_residual"] == trace.residual
        assert entry["converged_at"] == trace.converged_at


@pytest.mark.parametrize("flags", [[], ["--adaptive-lambda"]], ids=["fixed", "adaptive"])
def test_dump_transport_from_the_pca_start_runs_one_pca(tmp_path, toy_csv, monkeypatch, flags):
    # without --projection the PCA start and its lambda map come from one
    # pca_start call; the adaptive dump ran pca_init twice
    calls = []
    counted = lambda X, p: calls.append(p) or pca_init(X, p)  # noqa: E731
    monkeypatch.setattr("wda.stiefel.pca_init", counted)
    monkeypatch.setattr("wda.cli.pca_init", counted)
    assert main(["dump-transport", "--data", toy_csv, *flags, "--out", str(tmp_path / "dump")]) == 0
    assert calls == [2]


def test_dump_transport_adaptive_lambda_writes_the_plans_of_the_fit(tmp_path, toy_csv):
    # the fit fixes its lambda map at the PCA start; a dump at the fitted
    # projection uses that same map, so its plans are those J used there
    fit_out, dump_out = tmp_path / "fit", tmp_path / "dump"
    assert main([
        "fit", "--train", toy_csv, "--lambda", "1.0", "--max-iter", "10", "--out", str(fit_out),
    ]) == 0
    ppath = fit_out / "projection.csv"
    assert main([
        "dump-transport", "--data", toy_csv, "--projection", str(ppath),
        "--lambda", "1.0", "--adaptive-lambda", "--out", str(dump_out),
    ]) == 0
    report = json.loads((fit_out / "fit_report.json").read_text())
    index = json.loads((dump_out / "index.json").read_text())
    lambdas = {
        (e["source_class"], e["target_class"]): e["lambda"] for e in index["pairs"]
    }
    assert {f"{c},{cp}": lam for (c, cp), lam in lambdas.items()} == report["pair_lambdas"]

    data = load_csv(toy_csv)
    P = load_matrix_csv(str(ppath))
    assert not np.array_equal(P, pca_init(data.samples.T, 2))
    state = evaluate(P, data.class_blocks(), WdaConfig(lam=1.0), lambdas)
    runs = state.runs()
    for entry in index["pairs"]:
        key = (entry["source_class"], entry["target_class"])
        batch, b = runs[key]
        assert load_matrix_csv(str(dump_out / entry["file"])).tobytes() == batch.plan(b).tobytes()
        # the pair distance J sums, not a recomputed sum of T * M
        assert entry["transport_cost"] == state.pair_distances[key]
    # summed in pair order, the dumped costs give the fit's best J exactly
    costs = [(e["source_class"] == e["target_class"], e["transport_cost"]) for e in index["pairs"]]
    between = sum(cost for within, cost in costs if not within)
    assert between / sum(cost for within, cost in costs if within) == report["best_objective"]


def test_dump_transport_locality_monotone_in_lambda(tmp_path):
    # bimodal 2-d classes: as lambda grows the within-class plans concentrate
    # on nearby pairs, so the mean transported distance cannot increase
    rng = np.random.default_rng(5)
    modes = np.array([[0.0, 0.0], [6.0, 0.0]])
    samples = []
    labels = []
    for c, shift in enumerate((0.0, 3.0)):
        pts = np.vstack([
            modes[0] + shift + 0.4 * rng.standard_normal((8, 2)),
            modes[1] + shift + 0.4 * rng.standard_normal((8, 2)),
        ])
        samples.append(pts)
        labels.append(np.full(16, c))
    data = LabeledDataset(np.vstack(samples), np.concatenate(labels))
    dpath = tmp_path / "bimodal.csv"
    save_csv(data, str(dpath))

    costs = {}
    for lam in (1.0, 0.5, 0.1):
        out = tmp_path / f"dump_{lam}"
        code = main([
            "dump-transport", "--data", str(dpath), "--dim", "2",
            "--lambda", str(lam), "--sinkhorn-iters", "200", "--out", str(out),
        ])
        assert code == 0
        index = json.loads((out / "index.json").read_text())
        for entry in index["pairs"]:
            if entry["source_class"] == entry["target_class"]:
                key = (entry["source_class"], lam)
                costs[key] = entry["transport_cost"]
    for c in (0, 1):
        assert costs[(c, 1.0)] <= costs[(c, 0.5)] + 1e-12
        assert costs[(c, 0.5)] <= costs[(c, 0.1)] + 1e-12


def test_sweep_single_cell(tmp_path, toy_csv):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "data": {"type": "csv", "path": toy_csv, "train_fraction": 0.5},
        "methods": ["pca"],
        "ks": [3],
        "ps": [2],
        "lambdas": [0.5],
        "n_seeds": 1,
    }))
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["cells"]) == 1
    # identical invocation reproduces identical files
    out2 = tmp_path / "sweep_out2"
    assert main(["sweep", "--config", str(config), "--out", str(out2)]) == 0
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_sweep_records_non_finite_gradient_as_failure(tmp_path):
    # base seed 18 draws a toy training set whose lam=300 gradient overflows
    # at the PCA start; the sweep must record the cell, not crash
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "data": {"type": "toy", "n_train_per_class": 34, "n_test_per_class": 10},
        "methods": ["wda", "pca"],
        "ks": [1],
        "ps": [2],
        "lambdas": [300.0],
        "n_seeds": 1,
        "seed": 18,
        "max_iter": 5,
    }))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [(f["method"], f["lambda"]) for f in summary["failures"]] == [("wda", 300.0)]
    assert "not finite" in summary["failures"][0]["error"]
    cells = {cell["method"]: cell["mean_error"] for cell in summary["cells"]}
    assert cells["wda"] is None and np.isfinite(cells["pca"])


def _strict_json(path):
    """A JSON file parsed as RFC 8259 has it: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_sweep_summary_is_strict_json(tmp_path):
    # every seed refuses lambda = 1e4; those cells' mean and spread were
    # written as bare NaN, which jq and JSON.parse refuse
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "data": {"type": "toy", "n_train_per_class": 6, "n_test_per_class": 10},
        "methods": ["pca", "wda"], "n_seeds": 2, "ks": [7, 1, 3],
        "lambdas": [0.01, 1.0, 10000.0], "max_iter": 2,
    }))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    summary = _strict_json(out / "summary.json")
    failed = [(cell["method"], cell["lambda"], cell["k"])
              for cell in summary["cells"] if cell["mean_error"] is None]
    assert failed == [("wda", 10000.0, k) for k in (7, 1, 3)]
    assert all((cell["std_error"] is None) == (cell["mean_error"] is None)
               for cell in summary["cells"])


def test_sweep_seed_flag_overrides_config_seed(tmp_path, toy_csv):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "data": {"type": "csv", "path": toy_csv, "train_fraction": 0.5},
        "methods": ["identity"],
        "ks": [1],
        "seed": 3,
    }))
    seeds = {}
    for name, flags in (("file", []), ("flag", ["--seed", "7"])):
        out = tmp_path / name
        assert main(["sweep", "--config", str(config), "--out", str(out), *flags]) == 0
        seeds[name] = json.loads((out / "summary.json").read_text())["seeds"]
    assert seeds == {"file": [3, 4], "flag": [7, 8]}


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--train", "t.csv"],
        ["transform", "--projection", "p.csv", "--data", "d.csv"],
        ["evaluate", "--projection", "p.csv", "--train", "t.csv", "--test", "t.csv"],
        ["dump-transport", "--data", "d.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_flag_only_on_commands_that_use_it(argv, capsys):
    # --seed would be a silent no-op here; argparse refuses it
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--seed", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--max-iter", "7"], ["--tol", "5"]], ids=["max-iter", "tol"])
def test_dump_transport_refuses_the_outer_loop_flags(flag, capsys):
    # dump-transport runs no outer ascent, so these flags would be no-ops
    with pytest.raises(SystemExit) as excinfo:
        main(["dump-transport", "--data", "d.csv", *flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_key_table_matches_the_settings_table():
    section = _readme().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|[^|\n]*\|[^|\n]*\| ([^|\n]*) \|$", section, re.M)
    table = {
        key: set(_COMMANDS) if cell.startswith("every command") else set(re.findall(r"`([\w-]+)`", cell))
        for key, cell in rows
    }
    readers = {key: {c for c, (_, keys) in _COMMANDS.items() if key in keys} for key in _SETTINGS}
    assert [key for key, _ in rows] == list(_SETTINGS)
    assert table == readers


def _readme_sweep_config():
    return json.loads(re.search(r"```json\n(.*?)```", _readme(), re.S).group(1))


_BENCHMARK_SWEEP = {
    # the sweep-grid spec of perfbench/workloads.py, seed included
    "methods": ["wda", "pca", "fda", "identity"], "ks": [1, 3, 5, 7], "ps": [2],
    "lambdas": [1.0, 100.0, 1e4], "n_seeds": 2, "lambda": 1.0, "sinkhorn_iters": 10,
    "dim": 2, "max_iter": 30, "tol": 0.0, "seed": 12345,
}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["sweep"], _readme_sweep_config()),
        (["sweep"], dict(_BENCHMARK_SWEEP, data={
            "type": "toy", "n_train_per_class": 34, "n_test_per_class": 334})),
        (["sweep"], dict(_BENCHMARK_SWEEP, data={
            "type": "toy", "n_train_per_class": 8, "n_test_per_class": 10})),
        (["fit", "--train", "t.csv"], {"lambda": 1.0, "dim": 3, "max_iter": 5}),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "train_fraction": 0.5},
                     "methods": ["pca"], "ks": [3], "ps": [2], "lambdas": [0.5],
                     "n_seeds": 1}),
        (["sweep"], {"data": {"type": "toy", "n_train_per_class": 34,
                              "n_test_per_class": 10},
                     "methods": ["wda", "pca"], "ks": [1], "ps": [2], "lambdas": [300.0],
                     "n_seeds": 1, "seed": 18, "max_iter": 5}),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "train_fraction": 0.5},
                     "methods": ["identity"], "ks": [1], "seed": 3}),
        (["generate"], {"seed": 1, "n_per_class": 4, "extra_noise_dims": 2, "out": "g"}),
        (["evaluate", "--projection", "p.csv", "--train", "t.csv", "--test", "t.csv"],
         {"k": 3, "out": "e"}),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "extra_noise_dims": 1}}),
        (["sweep"], {"data": {"type": "toy", "extra_noise_dims": 1}}),
    ],
    ids=["readme-sweep", "benchmark-sweep", "benchmark-sweep-smoke", "test-fit",
         "test-sweep-csv", "test-sweep-toy", "test-sweep-seed", "generate", "evaluate",
         "csv-noise", "toy-noise"],
)
def test_config_keys_in_use_are_accepted(tmp_path, argv, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    args = _build_parser().parse_args(argv + ["--config", str(path)])
    file_cfg = _configure(args)
    assert file_cfg == config
    if "lambda" in config:
        assert args.wda_config.lam == config["lambda"]


@pytest.mark.parametrize(
    "argv, config, unknown",
    [
        (["fit", "--train", "t.csv"], {"lamda": 1.0}, "'lamda'"),
        (["fit", "--train", "t.csv"], {"lambda": 1.0, "seed": 3}, "'seed'"),
        (["generate"], {"lambda": 1.0}, "'lambda'"),
        (["transform", "--projection", "p.csv", "--data", "d.csv"], {"k": 3}, "'k'"),
        (["sweep"], {"lambda": 1.0, "method": ["pca"]}, "'method'"),
        (["dump-transport", "--data", "d.csv"], {"max_iter": 7, "tol": 5.0}, "'max_iter', 'tol'"),
    ],
    ids=["fit-typo", "fit-seed", "generate", "transform", "sweep", "dump-transport"],
)
def test_config_file_unknown_key_exits_2(tmp_path, capsys, argv, config, unknown):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert unknown in err and f"'wda {argv[0]}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"type": "toy", "n_train": 5}, "'n_train'"),
        ({"n_test": 5}, "'n_test'"),
        ({"type": "csv", "path": "t.csv", "n_train_per_class": 5}, "'n_train_per_class'"),
        ({"type": "toy", "path": "t.csv"}, "'path'"),
    ],
    ids=["toy", "toy-by-default", "csv", "toy-path"],
)
def test_sweep_unknown_data_spec_key_exits_2(tmp_path, capsys, data, unknown):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"data": data, "methods": ["identity"]}))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert unknown in err and f"{data.get('type', 'toy')} data spec" in err


def test_sweep_unknown_data_type_exits_2(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"data": {"type": "bogus"}}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    config.write_text(json.dumps({"data": ["toy"]}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "'data' must be a JSON object" in capsys.readouterr().err


_EVALUATE = ["evaluate", "--projection", "p.csv", "--train", "t.csv", "--test", "t.csv"]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep"], {"ks": 5}, "'ks' must be a list of integers, got 5"),
        (["sweep"], {"ps": 2}, "'ps' must be a list of integers, got 2"),
        (["sweep"], {"n_seeds": "x"}, "'n_seeds' must be an integer, got 'x'"),
        (["sweep"], {"methods": "pca"}, "'methods' must be a list of strings, got 'pca'"),
        (["sweep"], {"lambdas": "1"}, "'lambdas' must be a list of numbers, got '1'"),
        (["sweep"], {"ks": [1, 2.5]}, "'ks' must be a list of integers, got [1, 2.5]"),
        (["sweep"], {"lambdas": [True]}, "'lambdas' must be a list of numbers, got [True]"),
        (["sweep"], {"seed": "3"}, "'seed' must be an integer, got '3'"),
        (["sweep"], {"data": {"n_train_per_class": "x"}},
         "'n_train_per_class' must be an integer, got 'x'"),
        (["sweep"], {"data": {"type": "csv", "path": 3}}, "'path' must be a string, got 3"),
        (["sweep"], {"lambda": "1"}, "'lambda' must be a number, got '1'"),
        (["fit", "--train", "t.csv"], {"tol": "x"}, "'tol' must be a number, got 'x'"),
        (_EVALUATE, {"k": "x"}, "'k' must be an integer, got 'x'"),
        (_EVALUATE, {"k": 2.5}, "'k' must be an integer, got 2.5"),
        (["generate"], {"n_per_class": "x"}, "'n_per_class' must be an integer, got 'x'"),
        (["generate"], {"seed": 1.5}, "'seed' must be an integer, got 1.5"),
        (["generate"], {"extra_noise_dims": "2"}, "'extra_noise_dims' must be an integer, got '2'"),
        (["fit", "--train", "t.csv"], {"out": 5}, "'out' must be a string, got 5"),
        (["fit", "--train", "t.csv"], {"out": None}, "'out' must be a string, got None"),
        (["generate"], {"out": 5}, "'out' must be a string, got 5"),
        (["generate"], {"out": None}, "'out' must be a string, got None"),
        (["fit", "--train", "t.csv"], {"max_iter": 2.5}, "'max_iter' must be an integer, got 2.5"),
        (["sweep"], {"sinkhorn_iters": "10"}, "'sinkhorn_iters' must be an integer, got '10'"),
        (["dump-transport", "--data", "d.csv"], {"dim": True}, "'dim' must be an integer, got True"),
    ],
    ids=["ks", "ps", "n_seeds", "methods", "lambdas", "ks-item", "lambdas-bool", "seed",
         "data-int", "data-path", "lambda", "fit-tol", "evaluate-k", "evaluate-k-float",
         "generate-n", "generate-seed", "generate-noise", "fit-out", "fit-out-null",
         "generate-out", "generate-out-null", "fit-max-iter", "sweep-sinkhorn-iters",
         "dump-transport-dim"],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, argv, config, message):
    _assert_config_error(tmp_path, capsys, argv, config, message)


def _assert_config_error(tmp_path, capsys, argv, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep"], {"lambdas": [-1.0]}, "'lambdas' must be positive and finite, got -1.0"),
        (["sweep"], {"lambdas": [1.0, 0.0]}, "'lambdas' must be positive and finite, got 0.0"),
        (["sweep"], {"lambdas": [float("inf")]}, "'lambdas' must be positive and finite, got inf"),
        (["sweep"], {"ps": [0]}, "'ps' must be >= 1, got 0"),
        (["sweep"], {"ks": [1, 0]}, "'ks' must be >= 1, got 0"),
        (["sweep"], {"n_seeds": 0}, "'n_seeds' must be >= 1, got 0"),
        (["sweep", "--n-seeds", "0"], {}, "'n_seeds' must be >= 1, got 0"),
        (["sweep"], {"seed": -3}, "'seed' must be >= 0, got -3"),
        (["sweep"], {"methods": []}, "'methods' must not be empty"),
        (["sweep"], {"ks": []}, "'ks' must not be empty"),
        (["sweep"], {"ps": []}, "'ps' must not be empty"),
        (["sweep"], {"lambdas": []}, "'lambdas' must not be empty"),
        (["sweep"], {"data": {"extra_noise_dims": -2}}, "'extra_noise_dims' must be >= 0, got -2"),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "extra_noise_dims": -1}},
         "'extra_noise_dims' must be >= 0, got -1"),
        (["sweep"], {"data": {"n_train_per_class": 0}}, "'n_train_per_class' must be >= 2, got 0"),
        (["sweep"], {"data": {"n_test_per_class": 1}}, "'n_test_per_class' must be >= 2, got 1"),
        (["generate", "--extra-noise-dims", "-1"], {}, "'extra_noise_dims' must be >= 0, got -1"),
        (["generate"], {"extra_noise_dims": -1}, "'extra_noise_dims' must be >= 0, got -1"),
        (["generate", "--n-per-class", "1"], {}, "'n_per_class' must be >= 2, got 1"),
        (["generate", "--n-per-class", "4"], {"n_per_class": 1}, "'n_per_class' must be >= 2, got 1"),
        (["generate", "--seed", "-1"], {}, "'seed' must be >= 0, got -1"),
        (_EVALUATE + ["-k", "0"], {}, "'k' must be >= 1, got 0"),
        (["sweep"], {"methods": ["pca", "pcaa"]},
         "'methods' must be one of 'wda', 'pca', 'fda', 'identity', got 'pcaa'"),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "train_fraction": 1.5}},
         "'train_fraction' must be in (0, 1), got 1.5"),
        (["sweep"], {"data": {"type": "csv", "path": "t.csv", "train_fraction": 0}},
         "'train_fraction' must be in (0, 1), got 0"),
    ],
    ids=["lambdas-negative", "lambdas-zero", "lambdas-inf", "ps", "ks", "n_seeds",
         "n_seeds-flag", "sweep-seed", "methods-empty", "ks-empty", "ps-empty",
         "lambdas-empty", "toy-noise", "csv-noise", "n_train", "n_test", "generate-noise-flag",
         "generate-noise", "generate-n-flag", "generate-n-under-flag", "generate-seed-flag",
         "evaluate-k-flag", "methods-unknown", "train_fraction-high", "train_fraction-zero"],
)
def test_config_value_out_of_range_exits_2(tmp_path, capsys, argv, config, message):
    _assert_config_error(tmp_path, capsys, argv, config, message)


def test_sweep_csv_data_spec_without_a_path_exits_2(tmp_path, capsys):
    # the one data spec field without a default
    config = {"data": {"type": "csv", "train_fraction": 0.5}}
    _assert_config_error(tmp_path, capsys, ["sweep"], config, "csv data spec needs a 'path'")


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_sweep_data_type_that_is_not_a_string_exits_2(tmp_path, capsys, kind):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"data": {"type": kind}}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: unknown data spec type {kind!r}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_the_parser_is_built_once_and_no_call_leaks_into_the_next(tmp_path, toy_csv, capsys):
    parser = _build_parser()
    assert _build_parser() is parser
    out = tmp_path / "out"
    fit = ["fit", "--train", toy_csv, "--lambda", "1.0", "--max-iter", "5", "--out", str(out)]
    assert main(fit) == 0
    projection = (out / "projection.csv").read_bytes()
    P = load_matrix_csv(str(out / "projection.csv"))
    assert P.shape == (2, 10) and np.abs(P @ P.T - np.eye(2)).max() <= 1e-10
    assert main(["transform", "--projection", str(out / "projection.csv"), "--data", toy_csv,
                 "--out", str(out)]) == 0
    original, transformed = load_csv(toy_csv), load_csv(str(out / "transformed.csv"))
    assert np.array_equal(transformed.samples, original.samples @ P.T)
    assert np.array_equal(transformed.labels, original.labels)
    capsys.readouterr()

    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--train", toy_csv, "--no-such-flag"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert main(["fit", "--train", toy_csv, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("wda ")

    # the same parser, and a fit after the refusals writes what the first did
    assert _build_parser() is parser
    assert main(fit) == 0
    assert (out / "projection.csv").read_bytes() == projection
