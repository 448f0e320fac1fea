import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import class_counts, traced_peak
from wda import (
    ExperimentResult,
    FitReport,
    InvalidInputError,
    LabeledDataset,
    ToyDataSpec,
    WdaConfig,
    error_rate,
    evaluation,
    experiment_to_csv,
    gen_toy,
    knn_predict,
    pca_init,
    run_protocol,
)
from wda.evaluation import _make_data


def _knn_oracle(train_X, train_y, test_X, k):
    """Independent brute-force reimplementation with the same tie rules."""
    predictions = []
    for x in test_X:
        scored = sorted(
            (float(np.sum((np.asarray(tx) - x) ** 2)), i)
            for i, tx in enumerate(train_X)
        )[:k]
        votes = {}
        for dist, i in scored:
            label = int(train_y[i])
            count, total = votes.get(label, (0, 0.0))
            votes[label] = (count + 1, total + dist)
        best = sorted(votes.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
        predictions.append(best[0][0])
    return np.asarray(predictions)


def test_knn_exact_training_point():
    train_X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    train_y = np.array([0, 1, 2])
    pred = knn_predict(train_X, train_y, np.array([[5.0, 5.0]]), k=1)
    assert pred.tolist() == [1]


def test_knn_k_equals_n_majority():
    train_X = np.array([[0.0], [1.0], [2.0], [10.0]])
    train_y = np.array([1, 1, 1, 0])
    pred = knn_predict(train_X, train_y, np.array([[100.0], [-3.0]]), k=4)
    assert pred.tolist() == [1, 1]


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    train_X = rng.standard_normal((25, 4))
    train_y = rng.integers(0, 3, size=25)
    test_X = rng.standard_normal((15, 4))
    for k in (1, 2, 5, 25):
        mine = knn_predict(train_X, train_y, test_X, k)
        oracle = _knn_oracle(train_X, train_y, test_X, k)
        assert np.array_equal(mine, oracle)


def _grid_case(d):
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return st.tuples(
        st.lists(st.tuples(point, st.integers(0, 2)), min_size=1, max_size=12),
        st.lists(point, min_size=1, max_size=6),
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(_grid_case))
def test_knn_matches_oracle_on_integer_grids(case):
    # small integer grids make exact distance ties, and ties in the vote,
    # common; integer coordinates keep every distance and sum exact
    train, test = case
    train_X = np.array([x for x, _ in train], dtype=float)
    train_y = np.array([y for _, y in train])
    test_X = np.array(test, dtype=float)
    for k in range(1, len(train) + 1):
        mine = knn_predict(train_X, train_y, test_X, k)
        assert np.array_equal(mine, _knn_oracle(train_X, train_y, test_X, k))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2).flatmap(_grid_case), st.data())
def test_knn_vote_matches_oracle_for_unsorted_repeated_ks(case, data):
    # one walk votes every k of a cell as it passes it: ks in any order,
    # repeated, on grids where distance and vote ties are common
    train, test = case
    train_X = np.array([x for x, _ in train], dtype=float)
    train_y = np.array([y for _, y in train])
    test_X = np.array(test, dtype=float)
    ks = data.draw(st.lists(st.integers(1, len(train)), min_size=1, max_size=5))
    for k, pred in zip(ks, evaluation._knn_vote(train_X, train_y, test_X, ks)):
        assert np.array_equal(pred, _knn_oracle(train_X, train_y, test_X, k))


def test_knn_vote_matches_oracle_at_the_sweep_size():
    # a sweep cell's size: 102 training and 1,002 test rows in 2 dimensions,
    # ks unsorted and repeated, over blocks of 642 and 360 rows; the oracle
    # checks every third row of both blocks
    rng = np.random.default_rng(11)
    train_X = rng.standard_normal((102, 2))
    train_y = rng.integers(0, 3, size=102)
    test_X = 2.0 * rng.standard_normal((1002, 2))
    ks = [7, 1, 5, 1]
    oracle = {k: _knn_oracle(train_X, train_y, test_X[::3], k) for k in set(ks)}
    for k, pred in zip(ks, evaluation._knn_vote(train_X, train_y, test_X, ks)):
        assert np.array_equal(pred[::3], oracle[k])


def test_knn_predict_holds_one_distance_block():
    # the CLI's size: 102 training and 10,002 test rows. Per block of rows
    # the vote holds one (block, n_train) float array beside the predictions
    rng = np.random.default_rng(5)
    train_X = rng.standard_normal((102, 2))
    train_y = rng.integers(0, 3, size=102)
    test_X = rng.standard_normal((10_002, 2))
    block = evaluation._KNN_BLOCK_ENTRIES // 102 * 102 * 8
    predictions = test_X.shape[0] * train_y.itemsize
    for k in (1, 5, 25):
        peak = traced_peak(lambda: knn_predict(train_X, train_y, test_X, k))
        assert peak <= 1.25 * block + predictions, (k, peak / block)


def test_knn_blocks_do_not_change_predictions(monkeypatch):
    rng = np.random.default_rng(3)
    train_X = rng.integers(-3, 4, size=(40, 2)).astype(float)
    train_y = rng.integers(0, 3, size=40)
    test_X = rng.integers(-3, 4, size=(23, 2)).astype(float)
    ks = (1, 4, 9, 40)
    whole = [knn_predict(train_X, train_y, test_X, k) for k in ks]
    # 3-row blocks with a ragged last block, then one row per block
    for entries in (3 * 40, 1):
        monkeypatch.setattr(evaluation, "_KNN_BLOCK_ENTRIES", entries)
        for k, expected in zip(ks, whole):
            assert np.array_equal(knn_predict(train_X, train_y, test_X, k), expected)


def test_knn_tie_breaking_by_distance_then_label():
    # integer coordinates keep both distance computations exact, so the
    # constructed ties are genuine
    train_X = np.array([[-1.0], [1.0], [-4.0], [4.0]])
    train_y = np.array([1, 0, 1, 0])
    # k=2: one vote each; label 0's neighbor is nearer in sum -> label 0
    pred = knn_predict(train_X[:2][::-1], train_y[:2][::-1],
                       np.array([[0.5]]), k=2)
    assert pred.tolist() == [0]
    # perfectly symmetric votes and distances -> smallest label
    pred = knn_predict(train_X, train_y, np.array([[0.0]]), k=4)
    assert pred.tolist() == [0]


def test_knn_orthogonal_invariance():
    rng = np.random.default_rng(1)
    train_X = rng.standard_normal((30, 5))
    train_y = rng.integers(0, 3, size=30)
    test_X = rng.standard_normal((12, 5))
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    base = knn_predict(train_X, train_y, test_X, 5)
    rotated = knn_predict(train_X @ Q.T, train_y, test_X @ Q.T, 5)
    assert np.array_equal(base, rotated)


def test_knn_validation():
    X = np.zeros((3, 2))
    y = np.zeros(3, dtype=int)
    with pytest.raises(InvalidInputError):
        knn_predict(np.zeros((0, 2)), np.zeros(0, dtype=int), X, 1)
    with pytest.raises(InvalidInputError):
        knn_predict(X, y, X, 0)
    with pytest.raises(InvalidInputError):
        knn_predict(X, y, X, 4)
    with pytest.raises(InvalidInputError):
        knn_predict(X, y, np.zeros((3, 3)), 1)
    with pytest.raises(InvalidInputError, match="labels shape"):
        knn_predict(X, y[:2], X, 1)


def test_knn_rejects_non_finite_values():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    bad = X.copy()
    bad[1, 0] = np.nan
    with pytest.raises(InvalidInputError, match="train_X has a non-finite value at row 1, column 0"):
        knn_predict(bad, y, X, 1)
    with pytest.raises(InvalidInputError, match="test_X has a non-finite value at row 0, column 1"):
        knn_predict(X, y, np.array([[0.0, np.inf]]), 1)
    # finite features whose squared distances overflow: the nearest row has
    # label 1, but inf - inf distances would vote for label 2
    with pytest.raises(InvalidInputError, match="distances .* overflow"):
        knn_predict([[1e200], [2e200], [-1e200]], [0, 1, 2], [[1.9e200]], 1)


def test_run_protocol_records_overflowing_distances(tmp_path):
    from wda import save_csv
    from wda.evaluation import CsvDataSpec

    data = gen_toy(10, seed=3)
    path = tmp_path / "huge.csv"
    save_csv(LabeledDataset(1e200 * data.samples, data.labels), str(path))
    result = run_protocol(CsvDataSpec(path=str(path)), ["identity"], ks=[1, 3],
                          ps=[2], lams=[0.5], n_seeds=1)
    assert np.isnan(result.errors).all()
    assert [f["k"] for f in result.failures] == [1, 3]
    assert all("overflow" in f["error"] for f in result.failures)


def test_run_protocol_records_an_fda_refusal_of_overflowing_covariances(tmp_path):
    # fda_fit's refusal is a package error, so each fda cell fails alone
    # where numpy's LinAlgError ended the sweep
    from wda import save_csv
    from wda.evaluation import CsvDataSpec

    data = gen_toy(10, seed=0)
    path = tmp_path / "huge.csv"
    save_csv(LabeledDataset(1e200 * data.samples, data.labels), str(path))
    result = run_protocol(CsvDataSpec(path=str(path)), ["fda"], ks=[1],
                          ps=[1, 2], lams=[0.5], n_seeds=2)
    assert np.isnan(result.errors).all()
    assert [(f["seed"], f["p"]) for f in result.failures] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert all("covariance overflows; rescale the features" in f["error"]
               for f in result.failures)


def test_error_rate_trivials():
    assert error_rate([0, 1, 2], [0, 1, 2]) == 0.0
    assert error_rate([0, 1], [1, 0]) == 1.0
    assert error_rate([0] * 7 + [1] * 3, [0] * 10) == pytest.approx(0.3)
    with pytest.raises(InvalidInputError):
        error_rate([0, 1], [0, 1, 2])


def test_error_rate_refuses_no_labels():
    # the mean of no mismatches warned "Mean of empty slice" and gave nan
    with pytest.raises(InvalidInputError, match="no labels to compare"):
        error_rate([], [])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1))
def test_error_rate_matches_count(pairs):
    pred = [a for a, _ in pairs]
    truth = [b for _, b in pairs]
    expected = sum(a != b for a, b in pairs) / len(pairs)
    assert error_rate(pred, truth) == pytest.approx(expected)


def test_run_protocol_identity_matches_raw_knn():
    spec = ToyDataSpec(n_train_per_class=10, n_test_per_class=20)
    result = run_protocol(spec, ["identity"], ks=[3], ps=[2], lams=[0.01], n_seeds=1, base_seed=5)
    train, test = _make_data(spec, 5, None)
    pred = knn_predict(train.samples, train.labels, test.samples, 3)
    expected = error_rate(pred, test.labels)
    assert result.errors[0, 0, 0, 0, 0] == pytest.approx(expected)


def test_run_protocol_refuses_a_negative_base_seed():
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7)
    with pytest.raises(InvalidInputError, match="base_seed must be >= 0, got -1"):
        run_protocol(spec, ["identity"], ks=[1], ps=[2], lams=[1.0], n_seeds=2, base_seed=-1)


@pytest.mark.parametrize(
    "lams, message",
    [
        (["x"], "each lambda must be a number, got 'x'"),
        (["1e4"], "each lambda must be a number, got '1e4'"),
        ([True], "each lambda must be a number, got True"),
        ([1.0, -1.0], "each lambda must be positive and finite, got -1.0"),
        ([float("inf")], "each lambda must be positive and finite, got inf"),
    ],
    ids=["text", "numeric-text", "bool", "negative", "infinite"],
)
def test_run_protocol_refuses_each_invalid_lambda_up_front(lams, message):
    # refused before any cell runs, as the ks and ps entries are; pca reads no
    # lambda, so a per-cell check would have let these grids run
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run_protocol(spec, ["pca"], ks=[1], ps=[2], lams=lams, n_seeds=1)


def test_run_protocol_votes_every_k_of_a_cell():
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7)
    n_train = 15
    ks = [1, 3, 5, n_train + 1]
    result = run_protocol(spec, ["pca", "identity"], ks=ks, ps=[2], lams=[0.5],
                          n_seeds=1, base_seed=2)
    train, test = _make_data(spec, 2, None)
    P = pca_init(train.samples.T, 2)
    spaces = [(train.samples @ P.T, test.samples @ P.T), (train.samples, test.samples)]
    for mi, (train_Z, test_Z) in enumerate(spaces):
        for ki, k in enumerate(ks[:-1]):
            pred = knn_predict(train_Z, train.labels, test_Z, k)
            assert result.errors[mi, 0, 0, 0, ki] == error_rate(pred, test.labels)
    assert np.isnan(result.errors[..., -1]).all()
    assert [(f["method"], f["k"]) for f in result.failures] == [
        ("pca", n_train + 1), ("identity", n_train + 1)
    ]
    assert all(f"k must lie in [1, {n_train}]" in f["error"] for f in result.failures)


def test_experiment_means_of_fully_failed_cells_are_nan():
    # shape (methods, seeds, ps, lams, ks) = (3, 2, 1, 1, 1)
    errors = np.array([0.1, 0.3, np.nan, 0.2, np.nan, np.nan]).reshape(3, 2, 1, 1, 1)
    result = ExperimentResult(["a", "b", "c"], [0, 1], [2], [1.0], [1], errors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = result.mean_errors()[:, 0, 0, 0]
        std = result.std_errors()[:, 0, 0, 0]
    assert mean[:2] == pytest.approx([0.2, 0.2])
    assert std[:2] == pytest.approx([0.1, 0.0])
    assert np.isnan(mean[2]) and np.isnan(std[2])


def test_run_protocol_deterministic():
    spec = ToyDataSpec(n_train_per_class=8, n_test_per_class=12)
    cfg = WdaConfig(lam=1.0, sinkhorn_iters=5, max_outer_iter=10)
    kwargs = dict(ks=[1, 3], ps=[2], lams=[1.0], n_seeds=2, base_seed=1, wda_config=cfg)
    a = run_protocol(spec, ["pca", "wda"], **kwargs)
    b = run_protocol(spec, ["pca", "wda"], **kwargs)
    assert np.array_equal(a.errors, b.errors)
    assert a.errors.shape == (2, 2, 1, 1, 2)
    assert not np.isnan(a.errors).any()
    assert (a.errors >= 0).all() and (a.errors <= 1).all()


def test_run_protocol_records_failed_cells():
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=5)
    result = run_protocol(
        spec, ["fda", "identity"], ks=[3, 10_000], ps=[2], lams=[0.5], n_seeds=1
    )
    # k = 10000 exceeds the training size: recorded as failure, not raised
    assert np.isnan(result.errors[:, :, :, :, 1]).all()
    assert not np.isnan(result.errors[:, :, :, :, 0]).any()
    assert len(result.failures) == 2
    assert all(f["k"] == 10_000 for f in result.failures)
    # a grid of no valid k: every cell fails, and the fits are not voted
    spec = ToyDataSpec(n_train_per_class=3, n_test_per_class=5)
    result = run_protocol(spec, ["identity", "pca"], ks=[50], ps=[2], lams=[0.5], n_seeds=2)
    assert np.isnan(result.errors).all()
    assert [(f["method"], f["seed"]) for f in result.failures] == [
        ("identity", 0), ("pca", 0), ("identity", 1), ("pca", 1)
    ]
    assert {f["error"] for f in result.failures} == {"k must lie in [1, 9], got 50"}


def test_run_protocol_fit_failure_recorded():
    # p larger than the feature dimension makes the wda fit fail per cell
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=5)
    result = run_protocol(spec, ["wda"], ks=[1], ps=[99], lams=[0.5], n_seeds=1)
    assert np.isnan(result.errors).all()
    assert result.failures and result.failures[0]["p"] == 99


def test_run_protocol_fits_lambda_free_methods_once_per_cell(monkeypatch):
    # pca, fda and identity ignore lambda: one fit per (seed, p), and the
    # same errors and failures as one single-lambda run per lambda. p = 11
    # exceeds d = 10, so the pca and fda fits of that cell fail, and
    # k = 50 exceeds the 15 training rows, so that k fails in every cell
    from wda import baselines, stiefel

    fits = []
    for module, name in ((stiefel, "pca_init"), (baselines, "fda_fit")):
        def counted(data, p, _fit=getattr(module, name), _name=name):
            fits.append((_name, p))
            return _fit(data, p)
        monkeypatch.setattr(module, name, counted)
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7)
    methods, ks, ps, lams = ["pca", "fda", "identity"], [1, 50, 3], [2, 11], [1.0, 100.0, 1e4]
    result = run_protocol(spec, methods, ks=ks, ps=ps, lams=lams, n_seeds=2, base_seed=4)
    per_seed = [(name, p) for name in ("pca_init", "fda_fit") for p in ps]
    assert sorted(fits) == sorted(2 * per_seed)

    singles = [run_protocol(spec, methods, ks=ks, ps=ps, lams=[lam], n_seeds=2, base_seed=4)
               for lam in lams]
    for li, single in enumerate(singles):
        np.testing.assert_array_equal(result.errors[:, :, :, li], single.errors[:, :, :, 0])
    expected = [
        f
        for seed in result.seeds
        for method in methods
        for p in ps
        for single in singles
        for f in single.failures
        if (f["seed"], f["method"], f["p"]) == (seed, method, p)
    ]
    assert result.failures == expected
    assert {(f["method"], f["p"], f["k"]) for f in expected} == {
        ("pca", 11, None), ("fda", 11, None), ("identity", 11, 50),
        ("pca", 2, 50), ("fda", 2, 50), ("identity", 2, 50),
    }


def test_run_protocol_validation():
    spec = ToyDataSpec()
    with pytest.raises(InvalidInputError):
        run_protocol(spec, ["nope"], ks=[1], ps=[2], lams=[0.1], n_seeds=1)
    with pytest.raises(InvalidInputError):
        run_protocol(spec, [], ks=[1], ps=[2], lams=[0.1], n_seeds=1)
    with pytest.raises(InvalidInputError, match="unknown data spec dict"):
        run_protocol({"type": "toy"}, ["pca"], ks=[1], ps=[2], lams=[0.1], n_seeds=1)


def test_experiment_csv_and_summary(tmp_path):
    spec = ToyDataSpec(n_train_per_class=6, n_test_per_class=8)
    result = run_protocol(spec, ["pca", "identity"], ks=[1, 3], ps=[2], lams=[0.5], n_seeds=2)
    path = tmp_path / "results.csv"
    experiment_to_csv(result, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,k,p,lambda,method,error"
    assert len(lines) == 1 + 2 * 2 * 1 * 1 * 2
    summary = result.summary_json()
    assert len(summary["cells"]) == 2 * 1 * 1 * 2
    means = result.mean_errors()
    assert means.shape == (2, 1, 1, 2)
    for cell in summary["cells"]:
        assert 0.0 <= cell["mean_error"] <= 1.0


def test_record_formats_are_pinned(tmp_path):
    # results.csv, summary.json and fit_report.json as they are written
    # today, byte for byte: key order, number formats and failed cells
    # included (empty in results.csv, null in summary.json)
    nan = np.nan
    errors = np.array([
        # wda, seeds 3 and 4; lambda 1.0 then 1e-4 (a failed fit); k = 1 then 5
        [[[[1 / 3, 0.2], [nan, nan]]], [[[2 / 15, 0.25], [nan, nan]]]],
        # pca: k = 5 fails in seed 3
        [[[[0.3, nan], [0.3, nan]]], [[[0.35, 0.4], [0.35, 0.4]]]],
    ])
    failures = [
        {"method": "wda", "seed": 3, "p": 2, "lambda": 1e-4, "k": None, "error": "underflow"},
        {"method": "pca", "seed": 3, "p": 2, "lambda": 1.0, "k": 5,
         "error": "k must lie in [1, 4], got 5"},
    ]
    result = ExperimentResult(["wda", "pca"], [3, 4], [2], [1.0, 1e-4], [1, 5], errors, failures)
    path = tmp_path / "results.csv"
    experiment_to_csv(result, str(path))
    assert path.read_bytes() == (
        b"seed,k,p,lambda,method,error\r\n"
        b"3,1,2,1,wda,0.33333333333333331\r\n"
        b"3,5,2,1,wda,0.20000000000000001\r\n"
        b"3,1,2,0.0001,wda,\r\n"
        b"3,5,2,0.0001,wda,\r\n"
        b"4,1,2,1,wda,0.13333333333333333\r\n"
        b"4,5,2,1,wda,0.25\r\n"
        b"4,1,2,0.0001,wda,\r\n"
        b"4,5,2,0.0001,wda,\r\n"
        b"3,1,2,1,pca,0.29999999999999999\r\n"
        b"3,5,2,1,pca,\r\n"
        b"3,1,2,0.0001,pca,0.29999999999999999\r\n"
        b"3,5,2,0.0001,pca,\r\n"
        b"4,1,2,1,pca,0.34999999999999998\r\n"
        b"4,5,2,1,pca,0.40000000000000002\r\n"
        b"4,1,2,0.0001,pca,0.34999999999999998\r\n"
        b"4,5,2,0.0001,pca,0.40000000000000002\r\n"
    )

    def cell(method, lam, k, mean, std):
        return {"method": method, "p": 2, "lambda": lam, "k": k,
                "mean_error": mean, "std_error": std}

    expected = {
        "methods": ["wda", "pca"], "seeds": [3, 4], "ps": [2], "lambdas": [1.0, 1e-4],
        "ks": [1, 5],
        "cells": [
            cell("wda", 1.0, 1, 0.23333333333333334, 0.09999999999999999),
            cell("wda", 1.0, 5, 0.225, 0.024999999999999994),
            cell("wda", 1e-4, 1, None, None),
            cell("wda", 1e-4, 5, None, None),
            cell("pca", 1.0, 1, 0.32499999999999996, 0.024999999999999994),
            cell("pca", 1.0, 5, 0.4, 0.0),
            cell("pca", 1e-4, 1, 0.32499999999999996, 0.024999999999999994),
            cell("pca", 1e-4, 5, 0.4, 0.0),
        ],
        "failures": failures,
    }
    # json.dumps compares key order, int against float, and null
    assert json.dumps(result.summary_json()) == json.dumps(expected)

    report = FitReport([2.0, 2.5], [1.0], [0.5, 0.25], [1, 3], [0.1, 0.2], "stalled", 1,
                       2.5, 1, {(0, 0): 0.25, (0, 1): 0.5})
    assert json.dumps(report.to_json()) == json.dumps({
        "objective_values": [2.0, 2.5], "step_sizes": [1.0], "gradient_norms": [0.5, 0.25],
        "evaluations": [1, 3], "iteration_seconds": [0.1, 0.2], "termination": "stalled",
        "n_iterations": 1, "best_objective": 2.5, "best_iteration": 1,
        "pair_lambdas": {"0,0": 0.25, "0,1": 0.5},
    })


def test_csv_data_spec_split(tmp_path):
    from wda.evaluation import CsvDataSpec
    from wda import load_csv, save_csv

    data = gen_toy(10, seed=3)
    path = tmp_path / "toy.csv"
    save_csv(data, str(path))
    spec = CsvDataSpec(path=str(path), train_fraction=0.5)
    train, test = _make_data(spec, 0, load_csv(str(path)))
    assert train.n_samples + test.n_samples == data.n_samples
    assert class_counts(train) == [5, 5, 5]


@pytest.mark.parametrize("kind", ["toy", "csv"])
def test_a_data_spec_appends_its_noise_columns_to_both_sets(tmp_path, kind):
    from dataclasses import replace
    from wda import append_noise, load_csv, save_csv
    from wda.evaluation import CsvDataSpec, ToyDataSpec

    if kind == "toy":
        spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7, extra_noise_dims=3)
        loaded = None
    else:
        path = str(tmp_path / "toy.csv")
        save_csv(gen_toy(10, seed=3), path)
        spec, loaded = CsvDataSpec(path=path, extra_noise_dims=3), load_csv(path)
    seed = 4
    plain = _make_data(replace(spec, extra_noise_dims=0), seed, loaded)
    noisy = _make_data(spec, seed, loaded)
    # train and test draw their noise from the seed's third and fourth child seeds
    noise_seeds = np.random.default_rng(seed).integers(2**63, size=4)[2:]
    for base, data, noise_seed in zip(plain, noisy, noise_seeds):
        expected = append_noise(base, 3, int(noise_seed))
        assert data.n_features == base.n_features + 3
        assert data.samples.tobytes() == expected.samples.tobytes()
        assert np.array_equal(data.labels, base.labels)
        assert data.feature_names == expected.feature_names


def test_run_protocol_reads_a_csv_once(tmp_path, monkeypatch):
    from wda import save_csv
    from wda.evaluation import CsvDataSpec

    path = tmp_path / "toy.csv"
    save_csv(gen_toy(10, seed=3), str(path))
    reads = []

    def counted(path, _load=evaluation.load_csv):
        reads.append(path)
        return _load(path)

    monkeypatch.setattr(evaluation, "load_csv", counted)
    result = run_protocol(CsvDataSpec(path=str(path)), ["pca", "identity"], ks=[1],
                          ps=[2], lams=[0.5], n_seeds=3)
    assert reads == [str(path)]
    assert len(result.seeds) == 3 and not result.failures
