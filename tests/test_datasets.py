import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    ParseError,
    append_noise,
    gen_toy,
    load_csv,
    save_csv,
    split_dataset,
)
from wda.datasets import TOY_MODE_SIGMA, TOY_RADIUS


def test_labeled_dataset_validation():
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((2, 2)), np.array([1, 2]))
    with pytest.raises(InvalidInputError):
        LabeledDataset(np.zeros((2, 2)), np.array([0.0, 1.5]))
    data = LabeledDataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]))
    assert data.n_classes == 2
    assert data.class_counts() == [1, 2]
    blocks = data.class_blocks()
    assert blocks[0].shape == (2, 1)
    assert blocks[1].shape == (2, 2)


def test_gen_toy_shape_and_labels():
    data = gen_toy(2, seed=0)
    assert data.samples.shape == (6, 10)
    assert data.labels.tolist() == [0, 0, 1, 1, 2, 2]
    assert data.feature_names == tuple(f"f{j}" for j in range(10))


def test_gen_toy_deterministic():
    a = gen_toy(5, seed=123)
    b = gen_toy(5, seed=123)
    c = gen_toy(5, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.samples, c.samples)


def test_gen_toy_noise_dimensions_centered():
    n = 500
    data = gen_toy(n, seed=7)
    for c in range(3):
        block = data.samples[data.labels == c, 2:]
        assert np.abs(block.mean(axis=0)).max() <= 3.0 / np.sqrt(n)


def test_gen_toy_mode_layout():
    # every sample sits within 5 sigma of one of its class's two mode centers
    data = gen_toy(200, seed=3)
    for c in range(3):
        angle = 2.0 * np.pi * c / 3.0
        centers = TOY_RADIUS * np.array(
            [[np.cos(angle), np.sin(angle)],
             [np.cos(angle + np.pi), np.sin(angle + np.pi)]]
        )
        signal = data.samples[data.labels == c, :2]
        d0 = np.linalg.norm(signal - centers[0], axis=1)
        d1 = np.linalg.norm(signal - centers[1], axis=1)
        assert (np.minimum(d0, d1) <= 5 * TOY_MODE_SIGMA).all()
        # balanced mixture: half the samples nearer each mode
        assert abs(int(np.sum(d0 < d1)) - 100) <= 10


def test_gen_toy_validation():
    with pytest.raises(InvalidInputError):
        gen_toy(1, seed=0)


def test_append_noise_zero_is_identity():
    data = gen_toy(4, seed=1)
    same = append_noise(data, 0, seed=9)
    assert np.array_equal(same.samples, data.samples)
    assert np.array_equal(same.labels, data.labels)


def test_append_noise_adds_columns():
    base = LabeledDataset(np.zeros((200, 4)), np.repeat([0, 1], 100))
    augmented = append_noise(base, 100, seed=0)
    assert augmented.n_features == 104
    assert np.array_equal(augmented.labels, base.labels)
    block = augmented.samples[:, 4:]
    assert np.abs(block.mean(axis=0)).max() <= 3.0 / np.sqrt(200)


def test_split_balanced_even():
    data = LabeledDataset(np.random.default_rng(0).standard_normal((100, 3)),
                          np.repeat([0, 1], 50))
    train, test = split_dataset(data, 0.5, seed=4)
    assert train.class_counts() == [25, 25]
    assert test.class_counts() == [25, 25]


def test_split_union_is_original_multiset():
    data = gen_toy(9, seed=5)
    train, test = split_dataset(data, 0.6, seed=6)
    combined = np.vstack([train.samples, test.samples])
    key = np.lexsort(combined.T)
    original_key = np.lexsort(data.samples.T)
    assert np.array_equal(combined[key], data.samples[original_key])


def test_split_proportions_within_one_sample():
    data = gen_toy(13, seed=7)
    train, _ = split_dataset(data, 0.37, seed=8)
    for count in train.class_counts():
        assert abs(count - 0.37 * 13) <= 1.0


def test_split_deterministic_and_guards():
    data = gen_toy(6, seed=9)
    a = split_dataset(data, 0.5, seed=10)
    b = split_dataset(data, 0.5, seed=10)
    assert np.array_equal(a[0].samples, b[0].samples)
    assert np.array_equal(a[1].samples, b[1].samples)
    with pytest.raises(InvalidInputError):
        split_dataset(data, 0.0, seed=0)
    tiny = LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]))
    with pytest.raises(DegenerateInputError):
        split_dataset(tiny, 0.5, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 15), min_size=1, max_size=4),
    st.floats(0.1, 0.9),
    st.integers(0, 2**31 - 1),
)
def test_split_stratification_property(counts, fraction, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((sum(counts), 2))
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    data = LabeledDataset(samples, labels)
    train, test = split_dataset(data, fraction, seed)
    assert train.n_samples + test.n_samples == data.n_samples
    for c, n_c in enumerate(counts):
        got = train.class_counts()[c]
        assert abs(got - fraction * n_c) <= 1.0
        assert 1 <= got <= n_c - 1


def test_csv_roundtrip_handwritten(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n0.5,-1.25,0\n3.0,2.0,1\n")
    data = load_csv(str(path))
    assert np.array_equal(data.samples, [[0.5, -1.25], [3.0, 2.0]])
    assert data.labels.tolist() == [0, 1]
    assert data.feature_names == ("f0", "f1")


def test_csv_roundtrip_bitwise(tmp_path):
    data = gen_toy(20, seed=11)
    path = tmp_path / "toy.csv"
    save_csv(data, str(path), metadata={"seed": 11})
    loaded = load_csv(str(path))
    assert np.array_equal(loaded.samples, data.samples)
    assert np.array_equal(loaded.labels, data.labels)
    assert loaded.feature_names == data.feature_names
    assert (tmp_path / "toy.csv.meta.json").exists()


def test_csv_headerless_uses_last_column(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    data = load_csv(str(path))
    assert np.array_equal(data.samples, [[1.0, 2.0], [3.0, 4.0]])
    assert data.labels.tolist() == [0, 1]
    assert data.feature_names is None


def test_csv_label_column_by_name(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("f0,label,f1\n1.0,0,2.0\n3.0,1,4.0\n")
    data = load_csv(str(path))
    assert np.array_equal(data.samples, [[1.0, 2.0], [3.0, 4.0]])
    assert data.labels.tolist() == [0, 1]
    assert data.feature_names == ("f0", "f1")


def test_csv_parse_errors(tmp_path):
    bad_cell = tmp_path / "bad_cell.csv"
    bad_cell.write_text("f0,f1,label\n1.0,oops,0\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        load_csv(str(bad_cell))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(str(ragged))

    fractional = tmp_path / "fractional.csv"
    fractional.write_text("f0,label\n1.0,0.25\n")
    with pytest.raises(ParseError, match="integer"):
        load_csv(str(fractional))

    single_column = tmp_path / "single.csv"
    single_column.write_text("0\n1\n")
    with pytest.raises(ParseError, match="label column"):
        load_csv(str(single_column))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="no data"):
        load_csv(str(empty))

    for cell in ("nan", "inf", "-Infinity", "1e999"):
        non_finite = tmp_path / "non_finite.csv"
        rows = [f"{r}.0,{r % 2}.5,{r % 3}" for r in range(6)]
        rows[4] = f"4.0,{cell},1"
        non_finite.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=f"line 6, column 2: not a finite number: '{cell}'"):
            load_csv(str(non_finite))

    gap = tmp_path / "gap.csv"
    gap.write_text("f0,label\n1.0,0\n2.0,2\n")
    with pytest.raises(ParseError, match="contiguous"):
        load_csv(str(gap))
