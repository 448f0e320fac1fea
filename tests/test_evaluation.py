import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wda import (
    ExperimentResult,
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


def test_error_rate_trivials():
    assert error_rate([0, 1, 2], [0, 1, 2]) == 0.0
    assert error_rate([0, 1], [1, 0]) == 1.0
    assert error_rate([0] * 7 + [1] * 3, [0] * 10) == pytest.approx(0.3)
    with pytest.raises(InvalidInputError):
        error_rate([0, 1], [0, 1, 2])


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
    train, test = _make_data(spec, 5)
    pred = knn_predict(train.samples, train.labels, test.samples, 3)
    expected = error_rate(pred, test.labels)
    assert result.errors[0, 0, 0, 0, 0] == pytest.approx(expected)


def test_run_protocol_votes_every_k_of_a_cell():
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=7)
    n_train = 15
    ks = [1, 3, 5, n_train + 1]
    result = run_protocol(spec, ["pca", "identity"], ks=ks, ps=[2], lams=[0.5],
                          n_seeds=1, base_seed=2)
    train, test = _make_data(spec, 2)
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


def test_run_protocol_fit_failure_recorded():
    # p larger than the feature dimension makes the wda fit fail per cell
    spec = ToyDataSpec(n_train_per_class=5, n_test_per_class=5)
    result = run_protocol(spec, ["wda"], ks=[1], ps=[99], lams=[0.5], n_seeds=1)
    assert np.isnan(result.errors).all()
    assert result.failures and result.failures[0]["p"] == 99


def test_run_protocol_validation():
    spec = ToyDataSpec()
    with pytest.raises(InvalidInputError):
        run_protocol(spec, ["nope"], ks=[1], ps=[2], lams=[0.1], n_seeds=1)
    with pytest.raises(InvalidInputError):
        run_protocol(spec, [], ks=[1], ps=[2], lams=[0.1], n_seeds=1)


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


def test_csv_data_spec_split(tmp_path):
    from wda.evaluation import CsvDataSpec
    from wda import save_csv

    data = gen_toy(10, seed=3)
    path = tmp_path / "toy.csv"
    save_csv(data, str(path))
    spec = CsvDataSpec(path=str(path), train_fraction=0.5)
    train, test = _make_data(spec, 0)
    assert train.n_samples + test.n_samples == data.n_samples
    assert train.class_counts() == [5, 5, 5]
