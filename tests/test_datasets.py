import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    class_counts,
    reference_csv_lines,
    reference_dataset_csv_text,
    reference_load_csv,
    reference_load_matrix_csv,
    reference_matrix_csv_text,
    traced_peak,
)
from wda import (
    DegenerateInputError,
    InvalidInputError,
    LabeledDataset,
    ParseError,
    ToyDataSpec,
    WdaConfig,
    adaptive_lambdas,
    append_noise,
    evaluate,
    fda_fit,
    gen_toy,
    knn_predict,
    load_csv,
    pca_init,
    project_stiefel,
    run_protocol,
    save_csv,
    split_dataset,
)
import wda.datasets
import wda.ioutil
from wda.datasets import TOY_MODE_SIGMA, TOY_RADIUS
from wda.ioutil import load_matrix_csv, save_matrix_csv, write_json
from wda.objective import pair_keys


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
    assert class_counts(data) == [1, 2]
    blocks = data.class_blocks()
    assert blocks[0].shape == (2, 1)
    assert blocks[1].shape == (2, 2)


def test_class_blocks_are_read_only_views_of_contiguous_class_rows():
    data = gen_toy(5, 0)
    blocks = data.class_blocks()
    for c, X in enumerate(blocks):
        assert np.shares_memory(X, data.samples)
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 1.0
        assert np.array_equal(X, data.samples[data.labels == c].T)
    data.samples[5, 0] = 7.0  # a view shows later changes to the rows
    assert blocks[1][0, 0] == 7.0


def test_class_blocks_of_interleaved_rows_are_read_only_copies():
    labels = np.array([0, 1, 0, 2, 2, 0])
    data = LabeledDataset(np.arange(12.0).reshape(6, 2), labels)
    blocks = data.class_blocks()
    assert not np.shares_memory(blocks[0], data.samples)
    assert all(np.shares_memory(X, data.samples) for X in blocks[1:])
    for c, X in enumerate(blocks):
        assert not X.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 1.0
        assert np.array_equal(X, data.samples[labels == c].T)


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


def test_gen_toy_refuses_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
        gen_toy(5, seed=-1)


_TOY = gen_toy(5, seed=0)


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: knn_predict(_TOY.samples, _TOY.labels, _TOY.samples, 2.5), "k", 2.5),
        (lambda: gen_toy(2.5, 0), "n_per_class", 2.5),
        (lambda: gen_toy(5, 1.5), "seed", 1.5),
        (lambda: append_noise(_TOY, 1.5, 0), "n_noise", 1.5),
        (lambda: split_dataset(_TOY, 0.5, 1.5), "seed", 1.5),
        (lambda: pca_init(_TOY.samples.T, 1.5), "p", 1.5),
        (lambda: fda_fit(_TOY, 1.5), "p", 1.5),
        (lambda: run_protocol(ToyDataSpec(5, 5), ["pca"], [1], [2], [1.0], n_seeds=2.0),
         "n_seeds", 2.0),
        (lambda: run_protocol(ToyDataSpec(5, 5), ["pca"], [1], [2], [1.0], 2, base_seed=1.5),
         "base_seed", 1.5),
        (lambda: run_protocol(ToyDataSpec(5, 5), ["pca"], [2.5], [2], [1.0], 1), "each k", 2.5),
        (lambda: run_protocol(ToyDataSpec(5, 5), ["pca"], [1], [True], [1.0], 1), "each p", True),
    ],
    ids=["knn-k", "toy-n", "toy-seed", "noise-n", "split-seed", "pca-p", "fda-p",
         "protocol-n_seeds", "protocol-base_seed", "protocol-ks", "protocol-ps"],
)
def test_integer_arguments_are_refused_by_name(call, name, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, name, value",
    [
        (lambda: adaptive_lambdas(np.eye(2, 10), _TOY.class_blocks(), "1"), "lam", "1"),
        (lambda: adaptive_lambdas(np.eye(2, 10), _TOY.class_blocks(), True), "lam", True),
        (lambda: evaluate(np.eye(2, 10), _TOY.class_blocks(), WdaConfig(),
                          {key: "1" for key in pair_keys(3)}),
         "per-pair lambda for pair (0, 0)", "1"),
        (lambda: split_dataset(gen_toy(6, 0), "0.5", 0), "train_fraction", "0.5"),
    ],
    ids=["adaptive-lam-str", "adaptive-lam-bool", "pair-lambda-str", "split-fraction-str"],
)
def test_number_arguments_are_refused_by_name(call, name, value):
    # a string escaped as TypeError, and True ran as lambda = 1
    message = f"{name} must be a number, got {value!r}"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "samples, labels, message",
    [
        (np.zeros((1, 2)), np.array(["a"]), "labels must be integers"),
        (np.zeros((2, 2)), np.array([None, 0], dtype=object), "labels must be integers"),
        (np.array([["a", "b"]]), np.array([0]), "samples must be numbers"),
        ([[1.0, 2.0], [3.0]], [0, 1], "samples must be numbers"),
    ],
    ids=["label-str", "label-none", "sample-str", "sample-ragged"],
)
def test_labeled_dataset_refuses_non_numeric_values_by_name(samples, labels, message):
    # each escaped as a numpy ValueError
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        LabeledDataset(samples, labels)


def _with_entry(A, value):
    A = np.array(A, dtype=float)
    A[1, 2] = value
    return A


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pca_init(_with_entry(_TOY.samples.T, np.nan), 2),
         "X has a non-finite value at row 1, column 2"),
        (lambda: project_stiefel(_with_entry(np.eye(2, 3), np.nan)),
         "matrix has a non-finite value at row 1, column 2"),
        (lambda: project_stiefel(_with_entry(np.eye(2, 3), np.inf)),
         "matrix has a non-finite value at row 1, column 2"),
        (lambda: fda_fit(LabeledDataset(_with_entry(_TOY.samples, np.nan), _TOY.labels), 2),
         "samples has a non-finite value at row 1, column 2"),
        (lambda: adaptive_lambdas(np.eye(2, 10), _TOY.class_blocks(), np.inf),
         "lambda must be positive and finite, got inf"),
    ],
    ids=["pca-nan", "stiefel-nan", "stiefel-inf", "fda-nan", "adaptive-lambda-inf"],
)
def test_non_finite_input_is_refused_by_name(call, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call()


def test_append_noise_refuses_a_negative_seed():
    # even with no columns to add, as every seed is checked before use
    for n_noise in (0, 3):
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -2"):
            append_noise(gen_toy(4, seed=1), n_noise, seed=-2)


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
    assert class_counts(train) == [25, 25]
    assert class_counts(test) == [25, 25]


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
    for count in class_counts(train):
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


def test_split_refuses_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be >= 0, got -5"):
        split_dataset(gen_toy(6, seed=9), 0.5, seed=-5)


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
        got = class_counts(train)[c]
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


@pytest.mark.parametrize(
    "names, header",
    [
        (("a,b", "c"), '"a,b",c,label'),
        (('say "hi"', "x"), '"say ""hi""",x,label'),
        (("two\nlines", "cr\rlf"), '"two\nlines","cr\rlf",label'),
        (("f 0", "é"), "f 0,é,label"),
        ((" sp ", "b"), "feature name ' sp ' has leading"),
        (("label", "x"), "feature name 'label' is the name of the label column"),
        ((1, None), "feature name 1 is not a string"),
    ],
    ids=["comma", "quote", "line-breaks", "plain", "surrounding-space", "label", "not-a-string"],
)
def test_csv_feature_names_round_trip(tmp_path, names, header):
    # the header is quoted only where a name needs it; load_csv strips header
    # cells and reads the first "label" column as the labels, so a name with
    # surrounding whitespace, one named "label" (written as the header
    # "label,x,label", whose columns swapped on reading) or one that is not a
    # string (1 and None would be written as "1,,label" and read back as '1'
    # and '') is refused; header is then the refusal
    if not header.endswith(",label"):
        with pytest.raises(InvalidInputError, match=re.escape(header)):
            LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), names)
        return
    data = LabeledDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), names)
    path = tmp_path / "named.csv"
    save_csv(data, str(path))
    with open(path, newline="") as fh:
        assert fh.read() == header + "\n1,2,0\n3,4,1\n"
    loaded = load_csv(str(path))
    assert loaded.feature_names == names
    assert np.array_equal(loaded.samples, data.samples)


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
    assert data.samples.flags.c_contiguous and data.samples.flags.owndata


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
    with pytest.raises(ParseError) as excinfo:
        load_csv(str(gap))
    assert str(excinfo.value) == (
        f"{gap}: labels must be contiguous integers starting at 0, got [0, 2]"
    )

    # a label no int64 holds is refused by name, before any integer cast
    for label in ("1e20", "-1e20", "9223372036854775808"):
        huge = tmp_path / "huge.csv"
        huge.write_text(f"f0,label\n1.0,0\n2.0,{label}\n3.0,1\n")
        with pytest.raises(
            ParseError,
            match=f"line 3, column 2: label must be an integer within int64, got '{label}'",
        ):
            load_csv(str(huge))


@pytest.mark.parametrize("at", ["start", "past-first-read"])
@pytest.mark.parametrize("load", [load_csv, load_matrix_csv], ids=["load_csv", "load_matrix_csv"])
def test_a_file_that_is_not_text_is_a_parse_error_naming_the_path(tmp_path, load, at):
    # a 0xff byte never starts a UTF-8 character; past the first read, the
    # byte is met by numpy's reader first, not by the header read
    lines = [",".join(f"{v:.17g}" for v in row) + ",0" for row in gen_toy(400, 0).samples]
    text = "\n".join(lines).encode()
    i = 5 if at == "start" else len(text) - 5
    path = tmp_path / "data.csv"
    path.write_bytes(text[:i] + b"\xff" + text[i + 1:])
    with pytest.raises(ParseError) as excinfo:
        load(str(path))
    # no byte position: the decoder counts it from the start of its buffer
    assert str(excinfo.value) == f"{path}: not valid utf-8 text: invalid start byte"


@pytest.mark.parametrize(
    "text, line",
    [
        ("f0,{big},label\n1,2,0\n", 1),
        ('f0,label\n1,0\n"{big}",1\n', 3),
        ('1,0\n2,1\n3,"1\n{big}"\n', 4),
    ],
    ids=["header", "quoted-data-cell", "quoted-cell-over-two-lines"],
)
def test_load_csv_names_the_line_of_a_cell_over_the_csv_field_limit(tmp_path, text, line):
    path = tmp_path / "big.csv"
    path.write_text(text.format(big="x" * 131_073))
    with pytest.raises(ParseError) as excinfo:
        load_csv(str(path))
    assert str(excinfo.value) == (
        f"{path}: line {line}: field larger than field limit (131072)"
    )


def test_matrix_csv_names_the_bad_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1.0,2.0\n3.0, oops\n")
    with pytest.raises(ParseError, match=f"{path}: line 2, column 2: not a number: 'oops'"):
        load_matrix_csv(str(path))
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match=f"{path}: line 2: expected 2 columns, got 1"):
        load_matrix_csv(str(path))


# doubles at the edges of the format: zeros of both signs, the smallest
# subnormal, the subnormal/normal boundary and the largest finite values
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_DOUBLES)
)
# whitespace a cell may carry: everything str.strip() removes except the line
# ends; float() itself keeps \x1c-\x1f, which load_csv strips first
_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n"]
_FLOAT_SPACES = [c for c in _SPACES if c not in "\x1c\x1d\x1e\x1f"]
# lines load_csv skips
_BLANK_LINES = ["", "  ", "\t", ",,", " , "]


@st.composite
def _csv_tables(draw, min_rows=1):
    """A valid dataset CSV: (text, values, labels, line number of each data
    row, label column). Cells are written as %.17g or repr with surrounding
    whitespace; blank lines fall between rows."""
    n_rows = draw(st.integers(min_rows, 6))
    d = draw(st.integers(1, 3))
    values = draw(st.lists(st.lists(_doubles, min_size=d, max_size=d),
                           min_size=n_rows, max_size=n_rows))
    n_classes = draw(st.integers(1, n_rows))
    labels = draw(st.permutations([r % n_classes for r in range(n_rows)]))
    header = draw(st.booleans())
    label_col = draw(st.integers(0, d)) if header else d

    def pad(spaces):
        return draw(st.text(st.sampled_from(spaces), max_size=2))

    lines = []
    if header:
        names = [f"f{j}" for j in range(d)]
        names.insert(label_col, "label")
        lines.append(",".join(names))
    linenos = []
    for r, (row, label) in enumerate(zip(values, labels)):
        lines += draw(st.lists(st.sampled_from(_BLANK_LINES), max_size=1))
        # a headerless first row is read as a header unless float() takes
        # every cell as written
        spaces = _FLOAT_SPACES if r == 0 and not header else _SPACES
        cells = [pad(spaces) + draw(st.sampled_from(["%.17g" % x, repr(x)])) + pad(spaces)
                 for x in row]
        label_text = draw(st.sampled_from(["%d", "%.1f", "%e"])) % label
        cells.insert(label_col, pad(spaces) + label_text + pad(spaces))
        lines.append(",".join(cells))
        linenos.append(len(lines))
    return "\n".join(lines) + "\n", values, labels, linenos, label_col


def _outcome(load, path):
    try:
        data = load(path)
    except ParseError as exc:
        return str(exc)
    return data.samples.tobytes(), data.samples.shape, data.labels.tolist(), data.feature_names


@settings(max_examples=200, deadline=None)
@given(_csv_tables())
def test_load_csv_matches_the_cell_by_cell_reference(tmp_path_factory, table):
    text, values, labels, _, _ = table
    path = str(tmp_path_factory.mktemp("csv") / "data.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    data = load_csv(path)
    assert data.samples.tobytes() == np.array(values).tobytes()
    assert data.labels.tolist() == labels
    assert data.samples.flags.c_contiguous and data.samples.flags.owndata
    assert _outcome(load_csv, path) == _outcome(reference_load_csv, path)


_FAULTS = ("ragged", "bad cell", "fractional label", "nan feature", "bad cell and label")


@settings(max_examples=200, deadline=None)
@given(_csv_tables(min_rows=3), st.data())
def test_load_csv_reports_the_reference_fault(tmp_path_factory, table, data):
    # two or more faulty rows after the first; every fault but a non-finite
    # feature is found as the rows are read (in a row, the features before
    # the label), and a non-finite feature is reported only when no other
    # fault exists
    text, values, _, linenos, label_col = table
    n_rows, d = len(values), len(values[0])
    faulty = data.draw(st.lists(st.integers(1, n_rows - 1), min_size=2, unique=True))
    kinds = {r: data.draw(st.sampled_from(_FAULTS)) for r in faulty}
    lines = text.split("\n")
    for r, kind in kinds.items():
        cells = lines[linenos[r] - 1].split(",")
        feature = data.draw(st.sampled_from([j for j in range(d + 1) if j != label_col]))
        if kind == "ragged":
            cells = cells[:-1] if data.draw(st.booleans()) else cells + ["0"]
        elif kind == "bad cell":
            cells[feature] = " oops"
        elif kind == "fractional label":
            cells[label_col] = "0.5 "
        elif kind == "bad cell and label":
            cells[feature] = "oops"
            cells[label_col] = "0.5"
        else:
            cells[feature] = "nan"
        lines[linenos[r] - 1] = ",".join(cells)
    path = str(tmp_path_factory.mktemp("csv") / "faulty.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))

    with pytest.raises(ParseError) as excinfo:
        load_csv(path)
    message = str(excinfo.value)
    assert message == _outcome(reference_load_csv, path)
    first = min(
        (r for r in faulty if kinds[r] != "nan feature"), default=min(faulty)
    )
    assert f": line {linenos[first]}:" in message or f": line {linenos[first]}," in message


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.lists(st.lists(_doubles, min_size=d, max_size=d), min_size=1, max_size=6)
    )
)
def test_csv_writers_round_trip_bit_for_bit(tmp_path_factory, values):
    matrix = np.array(values)
    directory = tmp_path_factory.mktemp("csv")
    data = LabeledDataset(matrix, np.arange(len(values)) % 2)
    save_csv(data, str(directory / "data.csv"))
    assert (directory / "data.csv").read_text() == reference_dataset_csv_text(data)
    loaded = load_csv(str(directory / "data.csv"))
    assert loaded.samples.tobytes() == matrix.tobytes()
    assert np.array_equal(loaded.labels, data.labels)
    save_matrix_csv(matrix, str(directory / "matrix.csv"))
    assert (directory / "matrix.csv").read_text() == reference_matrix_csv_text(matrix)
    assert load_matrix_csv(str(directory / "matrix.csv")).tobytes() == matrix.tobytes()


def test_writers_refuse_what_their_readers_refuse_and_leave_no_file(tmp_path):
    # load_matrix_csv and load_csv refuse a "nan" or "inf" cell, and strict
    # JSON parsers a bare NaN or Infinity, so nothing is written
    with pytest.raises(InvalidInputError, match="matrix has a non-finite value at row 0, column 1"):
        save_matrix_csv(np.array([[1.0, np.nan]]), str(tmp_path / "matrix.csv"))
    samples = np.zeros((3, 2))
    samples[2, 0] = -np.inf
    with pytest.raises(InvalidInputError, match="samples has a non-finite value at row 2, column 0"):
        save_csv(LabeledDataset(samples, [0, 1, 0]), str(tmp_path / "data.csv"), {"seed": 1})
    # and load_csv refuses the "label\n,0\n,1\n,0\n" of no feature columns
    with pytest.raises(InvalidInputError, match=re.escape("samples of shape (3, 0) have no feature columns")):
        save_csv(LabeledDataset(np.zeros((3, 0)), [0, 1, 0]), str(tmp_path / "data.csv"), {"seed": 1})
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(tmp_path / "report.json"), {"value": value})
    assert list(tmp_path.iterdir()) == []


def test_save_matrix_csv_refuses_an_array_that_is_not_2d(tmp_path):
    # an argument is refused as InvalidInputError; ParseError is for files
    for shape in [(3,), (), (2, 2, 2)]:
        message = f"expected a 2-d matrix, got array of dimension {len(shape)}"
        with pytest.raises(InvalidInputError, match=message):
            save_matrix_csv(np.zeros(shape), str(tmp_path / "matrix.csv"))
    assert list(tmp_path.iterdir()) == []


def test_save_matrix_csv_refuses_a_matrix_of_no_rows_or_no_columns(tmp_path):
    # load_matrix_csv refuses the "\n" and "\n\n\n" such a matrix would be
    for shape, message in [((0, 3), "(0, 3) has no rows"), ((3, 0), "(3, 0) has no columns"),
                           ((0, 0), "(0, 0) has no rows")]:
        with pytest.raises(InvalidInputError, match=re.escape(f"matrix of shape {message}")):
            save_matrix_csv(np.zeros(shape), str(tmp_path / "matrix.csv"))
    assert list(tmp_path.iterdir()) == []


def _text_bytes(path, text):
    """The bytes ``open(path, "w")`` writes for ``text``: the text layer the
    writers stream their chunks through."""
    with open(path, "w") as fh:
        fh.write(text)
    return path.read_bytes()


def _assert_streamed_bytes_equal_the_per_row_bytes(directory, matrix, labels):
    """save_matrix_csv (labels None) or save_csv writes the bytes of the
    per-row reference lines."""
    if labels is None:
        save_matrix_csv(matrix, str(directory / "written.csv"))
        lines = reference_csv_lines(matrix)
    else:
        save_csv(LabeledDataset(matrix, labels), str(directory / "written.csv"))
        header = ",".join([*(f"f{j}" for j in range(matrix.shape[1])), "label"])
        lines = [header, *reference_csv_lines(matrix, labels)]
    expected = _text_bytes(directory / "reference.csv", "\n".join(lines) + "\n")
    assert (directory / "written.csv").read_bytes() == expected


@st.composite
def _chunked_tables(draw):
    """A matrix, labels or None, and a chunk size in cells that puts the row
    count below, at or one past a chunk boundary, or makes one row wider
    than a chunk."""
    d = draw(st.integers(1, 4))
    labelled = draw(st.booleans())
    width = d + labelled
    rows_per_chunk = draw(st.integers(1, 4))
    if width > 1 and draw(st.booleans()):
        chunk_cells, rows_per_chunk = draw(st.integers(1, width - 1)), 1
    else:
        chunk_cells = rows_per_chunk * width
    n = draw(st.sampled_from([
        k * rows_per_chunk + extra for k in (1, 2) for extra in (-1, 0, 1)
        if k * rows_per_chunk + extra >= 1
    ]))
    values = draw(st.lists(st.lists(_doubles, min_size=d, max_size=d), min_size=n, max_size=n))
    labels = np.arange(n) % draw(st.integers(1, n)) if labelled else None
    return np.array(values), labels, chunk_cells


@settings(max_examples=200, deadline=None)
@given(_chunked_tables())
def test_streamed_csv_bytes_equal_the_per_row_bytes(tmp_path_factory, table):
    matrix, labels, chunk_cells = table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wda.ioutil, "_CHUNK_CELLS", chunk_cells)
        _assert_streamed_bytes_equal_the_per_row_bytes(
            tmp_path_factory.mktemp("csv"), matrix, labels
        )


@pytest.mark.parametrize("chunk_cells", [1, 2, 3, 4, 16384])
def test_streamed_csv_bytes_at_the_edges_of_the_double_and_the_label(
    tmp_path, monkeypatch, chunk_cells
):
    monkeypatch.setattr(wda.ioutil, "_CHUNK_CELLS", chunk_cells)
    column = np.array([[-0.0], [5e-324], [1.7976931348623157e308], [-1.7976931348623157e308]])
    for labels in (None, np.array([0, 1, 0, 1])):
        _assert_streamed_bytes_equal_the_per_row_bytes(tmp_path, column, labels)
    # LabeledDataset takes labels 0 .. C - 1 only; the writer takes any int64
    labels = np.array([2**63 - 1, -(2**63), 2**63 - 2, -(2**63) + 1], dtype=np.int64)
    matrix = np.hstack([column, -column])
    wda.ioutil._write_csv(str(tmp_path / "written.csv"), matrix, labels, "a,b,label")
    lines = ["a,b,label", *reference_csv_lines(matrix, labels)]
    expected = _text_bytes(tmp_path / "reference.csv", "\n".join(lines) + "\n")
    assert (tmp_path / "written.csv").read_bytes() == expected


@pytest.mark.parametrize("writer", ["save_csv", "save_matrix_csv"])
def test_a_writer_holds_less_than_the_array_it_writes(tmp_path, writer):
    # the rows formatted as one string would take 7.7 times the array: 61.7 MB
    samples = np.random.default_rng(0).standard_normal((20_000, 50))
    if writer == "save_csv":
        data = LabeledDataset(samples, np.arange(20_000) % 3)
        peak = traced_peak(lambda: save_csv(data, str(tmp_path / "data.csv")))
    else:
        peak = traced_peak(lambda: save_matrix_csv(samples, str(tmp_path / "matrix.csv")))
    assert peak < samples.nbytes == 8_000_000


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, monkeypatch, umask, mode):
    # the string path (JSON, the dataset and matrix CSVs' text layer) and the
    # binary one (the sidecar) alike
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
    previous = os.umask(umask)
    try:
        save_csv(gen_toy(3, seed=0), str(tmp_path / "data.csv"), metadata={"seed": 0})
        load_csv(str(tmp_path / "data.csv"))
        save_matrix_csv(np.eye(2), str(tmp_path / "matrix.csv"))
        write_json(str(tmp_path / "report.json"), {"a": 1})
    finally:
        os.umask(previous)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["data.csv", "data.csv.meta.json", "data.csv.wda.npz", "matrix.csv", "report.json"], mode
    )


# files at the boundary between numpy's C table reader and the cell walk of
# load_csv: each gives (samples, labels, names) or the ParseError text after
# the path, the same as the reference
_BOUNDARY_FILES = {
    # no line is a comment: a "#" line is a short row, a "#" cell not a number
    "hash-line": ("f0,label\n1,0\n# note\n", "line 3: expected 2 columns, got 1"),
    "hash-cell": ("f0,label\n1,0\n#2,1\n", "line 3, column 1: not a number: '#2'"),
    "quoted-cells": ('f0,label\n"1.5","0"\n" 2 ",1\n', ([[1.5], [2.0]], [0, 1], ("f0",))),
    "quoted-comma": ('f0,label\n"1,5",0\n', "line 2, column 1: not a number: '1,5'"),
    "quoted-line-break": ('f0,label\n1,0\n"2\n5",1\n', "line 3, column 1: not a number: '2\\n5'"),
    "crlf": ("f0,label\r\n1.5,0\r\n2,1\r\n", ([[1.5], [2.0]], [0, 1], ("f0",))),
    "lone-cr": ("f0,label\r1.5,0\r2,1\r", ([[1.5], [2.0]], [0, 1], ("f0",))),
    "mixed-line-ends": ("1.5,0\r\n2,1\r3,0\n", ([[1.5], [2.0], [3.0]], [0, 1, 0], None)),
    "header-line-break": ('"f\n0",label\n1.5,0\n2,1\n', ([[1.5], [2.0]], [0, 1], ("f\n0",))),
    "label-in-middle": (
        "f0,label,f1\n1,0,2\n3,1,4\n", ([[1.0, 2.0], [3.0, 4.0]], [0, 1], ("f0", "f1"))
    ),
    "blank-rows": ("f0,label\n1,0\n  \n,,\n \t, \n2,1\n", ([[1.0], [2.0]], [0, 1], ("f0",))),
    "leading-blank-lines": ("\n \n,\n1.5,0\n2,1\n", ([[1.5], [2.0]], [0, 1], None)),
    "underscore": (
        "f0,label\n1_000,0\n2,1_0\n",
        "labels must be contiguous integers starting at 0, got [0, 10]",
    ),
    "underscore-valid": ("f0,label\n1_000,0\n2,1\n", ([[1000.0], [2.0]], [0, 1], ("f0",))),
    "separator-padding": (
        "f0,label\n\x1c1.5\x1f,0\x1d\n2,\x1e1\n", ([[1.5], [2.0]], [0, 1], ("f0",))
    ),
    "no-trailing-newline": ("f0,label\n1.5,0\n2,1", ([[1.5], [2.0]], [0, 1], ("f0",))),
    "header-only": ("f0,label\n\n", "header but no data rows"),
    "blank-only": ("\n \n,,\n", "no data rows"),
    "non-finite": ("f0,label\n1,0\ninf,1\n", "line 3, column 1: not a finite number: 'inf'"),
    "wide-header": ("f0,f1,label\n1,0\n", "header has 3 columns, data has 2"),
    # read as labels [1, 0, 1, 0] with the names ("x", "label"); the blank
    # line sends the second through the cell walk
    "label-twice": (
        "label,x,label\n1,7,0\n0,8,0\n1,9,1\n0,6,1\n",
        "feature name 'label' is the name of the label column",
    ),
    "label-twice-cells": (
        "label,x,label\n1,7,0\n \n0,8,0\n1,9,1\n0,6,1\n",
        "feature name 'label' is the name of the label column",
    ),
}


@pytest.mark.parametrize("text, expected", _BOUNDARY_FILES.values(), ids=_BOUNDARY_FILES)
def test_load_csv_boundary_files_match_the_reference(tmp_path, text, expected):
    path = str(tmp_path / "data.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcome = _outcome(load_csv, path)
    assert outcome == _outcome(reference_load_csv, path)
    if isinstance(expected, str):
        assert outcome == f"{path}: {expected}"
    else:
        samples, labels, names = expected
        assert outcome == (np.array(samples).tobytes(), np.shape(samples), labels, names)


def test_written_csvs_are_read_without_the_cell_walk(tmp_path, monkeypatch):
    # load_csv's cell walk runs only for a fault or text numpy's C reader refuses
    def refuse(path):
        raise AssertionError(f"cell walk ran for {path}")

    monkeypatch.setattr(wda.datasets, "_load_csv_by_cells", refuse)
    data = gen_toy(20, seed=3)
    for names in (None, ("a,b", 'say "hi"', "two\nlines", *data.feature_names[3:])):
        save_csv(LabeledDataset(data.samples, data.labels, names), str(tmp_path / "d.csv"))
        loaded = load_csv(str(tmp_path / "d.csv"))
        assert loaded.samples.tobytes() == data.samples.tobytes()


def _exact(data):
    """Every bit of a loaded dataset: arrays, their dtypes and shapes, and names."""
    return (data.samples.tobytes(), data.samples.dtype, data.samples.shape,
            data.labels.tobytes(), data.labels.dtype, data.feature_names)


def _parse(path):
    with open(path, "rb") as fh:
        return wda.datasets._parse_csv(str(path), fh.read())


def _refuse_to_parse(path, raw):
    raise AssertionError(f"{path} was parsed, not read from its sidecar")


@pytest.mark.parametrize("kind", ["written", "cell-walk"])
def test_a_sidecar_load_equals_the_parse_bit_for_bit_cold_and_warm(tmp_path, monkeypatch, kind):
    path = tmp_path / "d.csv"
    if kind == "written":
        # 360 rows: above the constant as it stands
        data = gen_toy(120, seed=5)
        names = ("a,b", 'say "hi"', "two\nlines", *data.feature_names[3:])
        save_csv(LabeledDataset(data.samples, data.labels, names), str(path))
        assert path.stat().st_size >= wda.datasets._SIDECAR_MIN_BYTES
    else:
        # text numpy's C reader refuses, read by the cell walk
        monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
        path.write_text("x,label\n1_000,0\n  \n-2.5,1\n")
    parsed = _exact(_parse(path))
    sidecar = tmp_path / "d.csv.wda.npz"
    assert not sidecar.exists()
    assert _exact(load_csv(str(path))) == parsed
    assert sidecar.exists()
    monkeypatch.setattr(wda.datasets, "_parse_csv", _refuse_to_parse)
    assert _exact(load_csv(str(path))) == parsed


def test_a_csv_rewritten_in_place_with_its_size_and_mtime_kept_is_parsed_again(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
    data = gen_toy(5, seed=2)
    samples = data.samples.copy()
    samples[0, 0] = 1.25
    path = tmp_path / "d.csv"
    save_csv(LabeledDataset(samples, data.labels, data.feature_names), str(path))
    assert load_csv(str(path)).samples[0, 0] == 1.25
    sidecar = tmp_path / "d.csv.wda.npz"
    with np.load(sidecar) as stored:
        old_key = stored["key"].tolist()

    before = os.stat(path)
    text = path.read_bytes()
    assert text.count(b"\n1.25,") == 1
    path.write_bytes(text.replace(b"\n1.25,", b"\n1.75,"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)

    parsed = _exact(_parse(path))
    loaded = load_csv(str(path))
    assert loaded.samples[0, 0] == 1.75
    assert _exact(loaded) == parsed
    with np.load(sidecar) as stored:
        assert stored["key"].tolist() != old_key
    monkeypatch.setattr(wda.datasets, "_parse_csv", _refuse_to_parse)
    assert _exact(load_csv(str(path))) == parsed


@pytest.mark.parametrize(
    "fault",
    ["truncated", "another-key", "nan-samples", "skipped-class", "label-name", "number-name"],
)
def test_a_sidecar_that_fails_a_check_gives_the_parse(tmp_path, monkeypatch, fault):
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
    path = tmp_path / "d.csv"
    save_csv(gen_toy(5, seed=4), str(path))
    parsed = _exact(load_csv(str(path)))
    sidecar = tmp_path / "d.csv.wda.npz"
    good = sidecar.read_bytes()
    with np.load(sidecar) as stored:
        arrays = dict(stored)
    key = f"{wda.datasets._SIDECAR_FORMAT}:{hashlib.sha256(path.read_bytes()).hexdigest()}"
    assert arrays["key"].tolist() == key
    if fault == "truncated":
        sidecar.write_bytes(good[: len(good) // 2])
    else:
        if fault == "another-key":
            arrays["key"] = np.array(f"{wda.datasets._SIDECAR_FORMAT}:{'0' * 64}")
            arrays["samples"] += 1.0
        elif fault == "nan-samples":
            arrays["samples"][2, 1] = np.nan
        elif fault == "label-name":
            names = ["label"] + [f"f{j}" for j in range(1, arrays["samples"].shape[1])]
            arrays["names"] = np.array(json.dumps(names))
        elif fault == "number-name":
            names = [1] + [f"f{j}" for j in range(1, arrays["samples"].shape[1])]
            arrays["names"] = np.array(json.dumps(names))
        else:
            arrays["labels"][arrays["labels"] == 2] = 3
        np.savez(sidecar, **arrays)
    assert _exact(load_csv(str(path))) == parsed
    # the miss replaced the sidecar, so the next load reads it
    monkeypatch.setattr(wda.datasets, "_parse_csv", _refuse_to_parse)
    assert _exact(load_csv(str(path))) == parsed


def test_a_damaged_sidecar_is_never_more_than_a_miss(tmp_path, monkeypatch):
    # a truncation every 16 bytes and one flipped bit in every byte: each
    # load returns the parse, whatever reading the damaged zip raised
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
    path = tmp_path / "d.csv"
    save_csv(gen_toy(2, seed=6), str(path))
    parsed = _exact(load_csv(str(path)))
    sidecar = tmp_path / "d.csv.wda.npz"
    good = sidecar.read_bytes()
    damaged = [good[:i] for i in range(0, len(good), 16)]
    damaged += [good[:i] + bytes([good[i] ^ 0x10]) + good[i + 1:] for i in range(len(good))]
    for blob in damaged:
        sidecar.write_bytes(blob)
        assert _exact(load_csv(str(path))) == parsed


def test_a_sidecar_write_that_fails_leaves_no_file_and_fails_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", 0)
    path = tmp_path / "d.csv"
    save_csv(gen_toy(5, seed=1), str(path))
    parsed = _exact(_parse(path))

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert _exact(load_csv(str(path))) == parsed
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.parametrize(
    "text, message",
    [
        (b"f0,f1,label\n1.0,oops,0\n", "line 2, column 2: not a number: 'oops'"),
        (b"f0,label\n1.0,0\n\xff2.0,1\n", "not valid utf-8 text: invalid start byte"),
        (b"f0,label\n1.0,0\n2.0,1e20\n",
         "line 3, column 2: label must be an integer within int64, got '1e20'"),
    ],
    ids=["bad-cell", "undecodable", "label-out-of-int64"],
)
def test_a_csv_that_fails_to_parse_leaves_no_sidecar_and_keeps_its_message(
    tmp_path, monkeypatch, text, message
):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    # below the constant, then at it
    for smallest in (len(text) + 1, len(text)):
        monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", smallest)
        with pytest.raises(ParseError) as excinfo:
            load_csv(str(path))
        assert str(excinfo.value) == f"{path}: {message}"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_only_a_csv_of_at_least_the_constant_gets_a_sidecar(tmp_path, monkeypatch):
    # a 102-row file parses faster than a sidecar loads: none is written
    path = tmp_path / "d.csv"
    save_csv(gen_toy(34, seed=0), str(path))
    load_csv(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    size = path.stat().st_size
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", size + 1)
    load_csv(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    monkeypatch.setattr(wda.datasets, "_SIDECAR_MIN_BYTES", size)
    load_csv(str(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.wda.npz"]


def _matrix_outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return str(exc)


@st.composite
def _matrix_csv_lines(draw):
    """The lines of a valid matrix CSV and its values. Cells are written as
    %.17g or repr with surrounding whitespace; blank lines fall between rows."""
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.lists(_doubles, min_size=d, max_size=d), min_size=1, max_size=6))

    def pad():
        return draw(st.text(st.sampled_from(_SPACES), max_size=2))

    lines = []
    for row in values:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t", "\x1c"]), max_size=1))
        lines.append(",".join(
            pad() + draw(st.sampled_from(["%.17g" % x, repr(x)])) + pad() for x in row
        ))
    return lines, values


def _write_lines(path, lines, draw):
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(text)


@settings(max_examples=200, deadline=None)
@given(_matrix_csv_lines(), st.data())
def test_load_matrix_csv_matches_the_line_by_line_reference(tmp_path_factory, table, data):
    lines, values = table
    path = str(tmp_path_factory.mktemp("csv") / "matrix.csv")
    _write_lines(path, lines, data.draw)
    matrix = load_matrix_csv(path)
    assert matrix.tobytes() == np.array(values).tobytes()
    assert matrix.shape == np.shape(values)
    assert matrix.flags.c_contiguous
    assert _matrix_outcome(reference_load_matrix_csv, path).tobytes() == matrix.tobytes()


@settings(max_examples=200, deadline=None)
@given(_matrix_csv_lines(), st.data())
def test_load_matrix_csv_reports_the_reference_fault(tmp_path_factory, table, data):
    lines, _ = table
    rows = [i for i, line in enumerate(lines) if line.strip()]
    for i in data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=2, unique=True)):
        cells = lines[i].split(",")
        j = data.draw(st.integers(0, len(cells) - 1))
        kind = data.draw(st.sampled_from(["short", "long", "quoted", "oops", "nan", "1e999"]))
        if kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("0")
        elif kind == "quoted":
            cells[j] = f'"{cells[j].strip()}"'
        else:
            cells[j] = kind
        lines[i] = ",".join(cells)
    path = str(tmp_path_factory.mktemp("csv") / "matrix.csv")
    _write_lines(path, lines, data.draw)
    expected = _matrix_outcome(reference_load_matrix_csv, path)
    outcome = _matrix_outcome(load_matrix_csv, path)
    if isinstance(expected, str):
        assert outcome == expected
    else:
        # a short row of one cell is blank, and a first row may set the width
        assert outcome.tobytes() == expected.tobytes() and outcome.shape == expected.shape


@pytest.mark.parametrize(
    "text, expected",
    [
        ('1,2\n3,"4"\n', "line 2, column 2: not a number: '\"4\"'"),
        ("1,2\r\n3,4\r5,6", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("1,\x1c2\x1f\n3 ,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n  \n3,1_000\n", [[1.0, 2.0], [3.0, 1000.0]]),
        ("1,2\n,\n", "line 2, column 1: not a number: ''"),
        ("# p\n1,2\n", "line 1, column 1: not a number: '# p'"),
        ("1,2\n3,-inf\n", "line 2, column 2: not a finite number: '-inf'"),
        (" \n\n", "no data rows"),
    ],
    ids=["quoted", "line-ends", "separator-padding", "blank-and-underscore", "empty-cells",
         "hash", "non-finite", "blank-only"],
)
def test_load_matrix_csv_boundary_files_match_the_reference(tmp_path, text, expected):
    path = str(tmp_path / "matrix.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcome = _matrix_outcome(load_matrix_csv, path)
    reference = _matrix_outcome(reference_load_matrix_csv, path)
    assert isinstance(outcome, str) == isinstance(expected, str)
    if isinstance(expected, str):
        assert outcome == reference == f"{path}: {expected}"
    else:
        assert outcome.tobytes() == reference.tobytes() == np.array(expected).tobytes()
