"""Dataset container, CSV round-trips, standardization, and splitting."""

import numpy as np
import pytest

from ktboost import (
    DataError,
    Dataset,
    SplitSpec,
    Standardizer,
    fit_standardizer,
    identity_standardizer,
    load_csv,
    load_features,
    split,
    write_csv,
)


def _toy_regression(n=20, p=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return Dataset(x, y, "regression")


# ---------------------------------------------------------------- Dataset


def test_dataset_basics():
    data = _toy_regression()
    assert data.n_samples == 20
    assert data.n_features == 3
    assert data.features.dtype == np.float64
    # arrays are frozen
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        data.targets[0] = 1.0


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.ones(4), np.ones(4), "regression")  # 1-D features
    with pytest.raises(DataError):
        Dataset(np.empty((0, 2)), np.empty(0), "regression")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="feature column 1 holds a non-finite value"):
            Dataset([[1.0, bad]], [0.0], "regression")
        with pytest.raises(DataError, match="feature column 2 holds a non-finite value"):
            Dataset([[1.0, 2.0, 3.0], [4.0, 5.0, bad]], [0.0, 1.0], "regression")
    with pytest.raises(DataError):
        Dataset([[1.0, 2.0]], [np.inf], "regression")
    with pytest.raises(DataError):
        Dataset([[1.0]], [0.0], "clustering")
    with pytest.raises(DataError):
        Dataset([[1.0], [2.0]], [0.0], "regression")  # length mismatch


def test_dataset_classification_labels():
    x = np.zeros((4, 1))
    data = Dataset(x, [0, 1, 1, 0], "binary")
    assert data.n_classes == 2
    assert data.targets.dtype == np.int64

    data = Dataset(x, [0, 2, 1, 2], "multiclass")
    assert data.n_classes == 3

    with pytest.raises(DataError):
        Dataset(x, [0, 1, 2, 0], "binary")  # three labels
    with pytest.raises(DataError):
        Dataset(x, [0, 1, 1, 3], "multiclass", n_classes=3)  # out of range
    with pytest.raises(DataError):
        Dataset(x, [0.0, 1.0, 0.0, 1.0], "regression", n_classes=2)


def test_dataset_subset_keeps_metadata():
    x = np.arange(12.0).reshape(6, 2)
    data = Dataset(x, [0, 1, 2, 0, 1, 2], "multiclass",
                   feature_names=("a", "b"), label_names=("u", "v", "w"))
    sub = data.subset(np.array([5, 1]))
    assert sub.n_samples == 2
    assert np.array_equal(sub.targets, [2, 1])
    assert sub.feature_names == ("a", "b")
    assert sub.label_names == ("u", "v", "w")
    assert sub.n_classes == 3


# ---------------------------------------------------------- standardizing


def test_standardizer_round_trip():
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.5, size=(50, 4))
    st = fit_standardizer(Dataset(x, rng.normal(size=50), "regression"))
    z = st.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert np.allclose(st.inverse_transform(z), x, atol=1e-12)


def test_standardizer_constant_column_floor():
    x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    st = fit_standardizer(Dataset(x, np.zeros(10), "regression"))
    z = st.transform(x)
    # constant column maps to exactly zero, no division blow-up
    assert np.all(z[:, 0] == 0.0)
    assert np.all(np.isfinite(z))


def test_standardizer_width_check():
    st = identity_standardizer(3)
    assert np.array_equal(st.transform(np.ones((2, 3))), np.ones((2, 3)))
    with pytest.raises(DataError):
        st.transform(np.ones((2, 4)))
    with pytest.raises(DataError):
        Standardizer(np.zeros(2), np.zeros(2))  # scales below floor
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            Standardizer(np.array([0.0, bad]), np.ones(2))
        with pytest.raises(DataError):
            Standardizer(np.zeros(2), np.array([1.0, bad]))


def test_standardizer_rejects_non_finite_values():
    st = Standardizer(np.array([0.0, 1e308, 0.0]), np.array([1.0, 1e-3, 1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="feature column 2 holds a non-finite value"):
            st.transform(np.array([[0.0, 1e308, 0.0], [0.0, 1e308, bad]]))
        with pytest.raises(DataError, match="feature column 2 holds a non-finite value"):
            st.transform(np.array([0.0, 1e308, bad]))  # a single row
    # finite inputs whose standardized value overflows
    with pytest.raises(DataError, match="feature column 1 overflows when standardized"):
        st.transform(np.zeros((2, 3)))
    assert np.array_equal(st.transform(np.array([[1.0, 1e308, -1.0]])), [[1.0, 0.0, -1.0]])


def test_single_row_standardizer():
    st = fit_standardizer(Dataset([[5.0, -1.0]], [0.0], "regression"))
    z = st.transform([[5.0, -1.0]])
    assert np.all(z == 0.0)


# ------------------------------------------------------------------ split


def test_split_sizes_and_partition():
    data = _toy_regression(n=100)
    tr, va, te = split(data, SplitSpec((0.6, 0.2, 0.2), seed=3))
    assert (tr.n_samples, va.n_samples, te.n_samples) == (60, 20, 20)
    # parts form a disjoint cover of the rows
    joined = np.vstack([tr.features, va.features, te.features])
    assert np.array_equal(
        np.sort(joined, axis=0), np.sort(data.features, axis=0)
    )


def test_split_leftover_rows_go_to_train_first():
    data = _toy_regression(n=10)
    tr, va, te = split(data, SplitSpec((1 / 3, 1 / 3, 1 / 3), seed=0))
    assert (tr.n_samples, va.n_samples, te.n_samples) == (4, 3, 3)


def test_split_determinism():
    data = _toy_regression(n=40)
    a = split(data, SplitSpec(seed=7))
    b = split(data, SplitSpec(seed=7))
    c = split(data, SplitSpec(seed=8))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
    assert not all(
        np.array_equal(x.features, y.features) for x, y in zip(a, c)
    )


def test_split_validation():
    with pytest.raises(DataError):
        SplitSpec((0.5, 0.5, 0.5))
    with pytest.raises(DataError):
        SplitSpec((0.9, 0.05, -0.05))
    with pytest.raises(DataError):
        split(_toy_regression(n=2), SplitSpec())  # empty part


# -------------------------------------------------------------------- csv


def test_csv_round_trip_regression(tmp_path):
    data = _toy_regression(n=15, p=2, seed=5)
    path = tmp_path / "r.csv"
    write_csv(data, path)
    back = load_csv(path, task="regression")
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.targets, data.targets)
    assert back.feature_names == ("x0", "x1")


def test_csv_round_trip_classification(tmp_path):
    x = np.arange(10.0).reshape(5, 2)
    data = Dataset(x, [1, 0, 2, 1, 0], "multiclass",
                   label_names=("low", "mid", "top"))
    path = tmp_path / "c.csv"
    write_csv(data, path)
    back = load_csv(path, task="multiclass")
    # lexicographic enumeration: low=0, mid=1, top=2
    assert back.label_names == ("low", "mid", "top")
    assert np.array_equal(back.targets, data.targets)


def test_csv_label_order_is_lexicographic(tmp_path):
    path = tmp_path / "lab.csv"
    path.write_text("x,target\n1,zebra\n2,apple\n3,zebra\n")
    data = load_csv(path, task="binary")
    assert data.label_names == ("apple", "zebra")
    assert np.array_equal(data.targets, [1, 0, 1])


def test_csv_target_column_selection(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    by_name = load_csv(path, target_column="b")
    assert np.array_equal(by_name.features, [[1, 3], [4, 6]])
    assert np.array_equal(by_name.targets, [2, 5])
    assert by_name.feature_names == ("a", "c")
    by_index = load_csv(path, target_column=1)
    assert np.array_equal(by_index.features, by_name.features)
    negative = load_csv(path, target_column=-1)
    assert np.array_equal(negative.targets, [3, 6])


def test_csv_rejects_bad_cells(tmp_path):
    for body in ("a,b\n1,\n", "a,b\n1,oops\n", "a,b\nnan,2\n", "a,b\n1,2\n3\n"):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError):
            load_csv(path, task="regression")


def test_csv_errors(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(DataError):
        load_csv(header_only)
    path = tmp_path / "col.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        load_csv(path, target_column="z")
    with pytest.raises(DataError):
        load_csv(path, target_column=5)
    with pytest.raises(DataError):
        load_csv(path, task="binary")  # one distinct label


def test_load_features(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b\n1.5,2\n-3,4e2\n")
    x, names = load_features(path)
    assert np.array_equal(x, [[1.5, 2.0], [-3.0, 400.0]])
    assert names == ("a", "b")
    headerless = tmp_path / "nf.csv"
    headerless.write_text("1,2\n3,4\n")
    x2, names2 = load_features(headerless, header=False)
    assert np.array_equal(x2, [[1, 2], [3, 4]])
    assert names2 is None
    with pytest.raises(DataError):
        load_features(tmp_path / "missing.csv")


def test_load_csv_labels_recode(tmp_path):
    ref_path = tmp_path / "ref.csv"
    ref_path.write_text("x,y\n1,a\n2,b\n3,c\n")
    other_path = tmp_path / "other.csv"
    other_path.write_text("x,y\n4,c\n5,b\n")
    ref = load_csv(ref_path, task="multiclass")
    # enumerated alone, "c" would be index 1 in the second file
    assert np.array_equal(load_csv(other_path, task="multiclass").targets, [1, 0])
    aligned = load_csv(other_path, task="multiclass", labels=ref.label_names)
    assert np.array_equal(aligned.targets, [2, 1])
    assert aligned.label_names == ("a", "b", "c")
    assert aligned.n_classes == 3
    # a file holding a single class of a binary label map
    one_class = tmp_path / "one.csv"
    one_class.write_text("x,y\n4,b\n5,b\n")
    binary = load_csv(one_class, task="binary", labels=("a", "b"))
    assert np.array_equal(binary.targets, [1, 1])
    assert (binary.n_classes, binary.label_names) == (2, ("a", "b"))


def test_load_csv_labels_unknown_label(tmp_path):
    other_path = tmp_path / "other.csv"
    other_path.write_text("x,y\n4,a\n5,z\n")
    with pytest.raises(DataError, match="'z'"):
        load_csv(other_path, task="binary", labels=("a", "b"))
    with pytest.raises(DataError):
        load_csv(other_path, task="binary", labels=("a", "z", "b"))  # three for binary
    with pytest.raises(DataError):
        load_csv(other_path, task="multiclass", labels=("a", "z", "a"))  # repeated


def test_load_csv_labels_refused_for_regression(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(_toy_regression(), path)
    assert load_csv(path).n_classes == 0
    with pytest.raises(DataError):
        load_csv(path, labels=("a", "b"))
