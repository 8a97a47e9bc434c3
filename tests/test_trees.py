"""Exact greedy trees against exhaustive enumeration and the per-node argsort grower."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktboost import (
    BoostConfig,
    DataError,
    Dataset,
    fit,
    fit_tree,
    gradient_hessian,
    optimal_constant,
    predict_tree_batch,
    presort_features,
    split_backend_name,
)
from ktboost import _split_scan_py, trees
from ktboost.losses import for_task
from oracles import (
    argsort_tree,
    assert_same_tree,
    n_leaves,
    oracle_tree,
    oracle_tree_predict,
    predict_tree,
    tree_depth,
    tree_objective,
)
from oracles import best_split as one_column_best_split  # the one-column scan, kept verbatim


def _fit(x, g, h, max_depth, min_samples_leaf=1):
    """The tree of fit_tree on a fresh presort of x."""
    tree, _ = fit_tree(presort_features(x), g, h, max_depth, min_samples_leaf)
    return tree


def _assert_leaf_index(tree, leaf, x):
    """leaf holds the leaf of each training row that the tree walk reaches."""
    assert np.all(tree.feature[leaf] == -1)
    assert tree.value.take(leaf).tobytes() == predict_tree_batch(tree, x).tobytes()


def _random_instance(rng):
    n = int(rng.integers(5, 40))
    p = int(rng.integers(1, 4))
    x = rng.normal(size=(n, p))
    if rng.random() < 0.3:
        # duplicate-heavy columns stress tie handling
        x = rng.choice(np.round(rng.normal(size=5), 2), size=(n, p))
    g = rng.normal(size=n)
    h = rng.uniform(0.05, 2.0, n)
    depth = int(rng.integers(1, 4))
    return x, g, h, depth


# ------------------------------------------------------------- hand cases


def test_stump_hand_case():
    # two points, opposite gradients: split halfway, weights -g/h
    tree = _fit(np.array([[1.0], [2.0]]), np.array([-1.0, 1.0]),
                np.ones(2), max_depth=1)
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold.tolist() == [1.5, 0.0, 0.0]
    assert (tree.left.tolist(), tree.right.tolist()) == ([1, -1, -1], [2, -1, -1])
    assert tree.value.tolist() == [0.0, 1.0, -1.0]
    assert tree.n.tolist() == [2, 1, 1]
    assert n_leaves(tree) == 2
    assert tree_depth(tree) == 1


def test_split_gain_value():
    # G = 0 so the base term vanishes: gain = 9/1 + 9/1
    column, pos, gain, thr = _split_scan_py.best_split(
        np.array([0.0, 1.0]), np.array([3.0, -3.0]), np.ones(2), 1, 1
    )
    assert column == 0
    assert (pos, gain, thr) == (1, 18.0, 0.5)


def test_depth_zero_single_leaf():
    tree = _fit(np.arange(6.0).reshape(6, 1), np.arange(6.0),
                np.ones(6), max_depth=0)
    assert tree.feature.tolist() == [-1]
    assert tree_depth(tree) == 0
    # leaf weight is -sum(g)/sum(h)
    assert np.isclose(tree.value[0], -2.5)


def test_constant_gradient_never_splits():
    # 0.5 is exactly representable, so every candidate gain is exactly zero
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 2))
    tree = _fit(x, np.full(30, 0.5), np.ones(30), max_depth=3)
    assert n_leaves(tree) == 1
    assert tree.value[0] == -0.5


def test_left_rule_is_inclusive():
    tree = _fit(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]),
                np.ones(2), max_depth=1)
    thr = tree.threshold[0]
    assert predict_tree(tree, [thr]) == tree.value[tree.left[0]]
    assert predict_tree(tree, [np.nextafter(thr, 1.0)]) == tree.value[tree.right[0]]


def test_adjacent_floats_still_separate():
    lo = np.nextafter(-1.0, -2.0)
    x = np.array([[lo], [-1.0]])
    tree = _fit(x, np.array([-1.0, 1.0]), np.ones(2), max_depth=1)
    thr = tree.threshold[0]
    # threshold must sit strictly below the right value
    assert thr < -1.0 and thr >= lo
    assert predict_tree(tree, [lo]) == 1.0
    assert predict_tree(tree, [-1.0]) == -1.0


def test_tie_prefers_lowest_feature():
    rng = np.random.default_rng(4)
    col = rng.normal(size=25)
    x = np.column_stack([col, col])  # identical columns, identical gains
    tree = _fit(x, rng.normal(size=25), np.ones(25), max_depth=2)
    assert tree_depth(tree) > 0
    assert set(tree.feature.tolist()) == {-1, 0}


def test_tie_prefers_smallest_threshold():
    # symmetric gains: positions 1 and 3 tie, smallest threshold wins
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = _fit(x, np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4), max_depth=1)
    assert tree.threshold[0] == 0.5


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    tree = _fit(x, rng.normal(size=40), np.ones(40), max_depth=4,
                min_samples_leaf=7)
    assert tree_depth(tree) > 0
    assert tree.n[tree.feature < 0].min() >= 7


def test_validation_errors():
    x = presort_features(np.ones((3, 1)))
    with pytest.raises(DataError):
        fit_tree(x, np.ones(2), np.ones(3), 1)
    with pytest.raises(DataError):
        fit_tree(x, np.ones(3), -np.ones(3), 1)
    with pytest.raises(DataError):
        fit_tree(x, np.ones(3), np.zeros(3), 1)
    with pytest.raises(DataError):
        fit_tree(x, np.ones(3), np.ones(3), -1)
    with pytest.raises(DataError):
        fit_tree(x, np.ones(3), np.ones(3), 1, min_samples_leaf=0)
    with pytest.raises(TypeError):
        fit_tree(np.ones((3, 1)), np.ones(3), np.ones(3), 1)  # not presorted
    # non-finite inputs raise instead of giving a NaN leaf (g), a 0.0 leaf
    # (h) or a NaN threshold (x): g and h on every call, x once per presort
    x6 = np.arange(6.0).reshape(6, 1)
    g6 = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    for g, h in (([np.nan, 1, 1, -1, -1, -1], np.ones(6)), (g6, [1, 1, np.nan, 1, 1, 1]),
                 ([1, 1, 1, -1, -1, -np.inf], np.ones(6)), (g6, [np.inf, 1, 1, 1, 1, 1])):
        with pytest.raises(DataError):
            fit_tree(presort_features(x6), g, h, 1)
    x6[2, 0] = np.nan
    with pytest.raises(DataError):
        presort_features(x6)


# ------------------------------------------------- exhaustive enumeration


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(12):
        x, g, h, depth = _random_instance(rng)
        tree = _fit(x, g, h, max_depth=depth)
        ref = oracle_tree(x, g, h, depth)
        assert_same_tree(tree, ref)
        # identical objective value, not just identical shape
        pred = predict_tree_batch(tree, x)
        ref_pred = np.array([oracle_tree_predict(ref, row) for row in x])
        assert np.isclose(
            tree_objective(g, h, pred), tree_objective(g, h, ref_pred),
            rtol=1e-12, atol=1e-12,
        )


def test_matches_enumeration_with_min_leaf():
    rng = np.random.default_rng(8)
    for _ in range(6):
        x, g, h, depth = _random_instance(rng)
        min_leaf = int(rng.integers(2, 5))
        tree = _fit(x, g, h, max_depth=depth, min_samples_leaf=min_leaf)
        assert_same_tree(tree, oracle_tree(x, g, h, depth, min_leaf))


def test_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 3))
    g = rng.normal(size=60)
    h = rng.uniform(0.1, 1.0, 60)
    tree_a = _fit(x, g, h, max_depth=3)
    tree_b = _fit(x**3, g, h, max_depth=3)  # strictly increasing map
    assert np.allclose(
        predict_tree_batch(tree_a, x), predict_tree_batch(tree_b, x**3)
    )
    assert n_leaves(tree_a) == n_leaves(tree_b)


# ------------------------------------------- presorted vs per-node argsort


def test_backend_name_consistent():
    assert split_backend_name() == "numpy"


def test_presort_is_stable_int32():
    x = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, -1.0], [1.0, 0.0]])
    sorted_x = presort_features(x)
    assert sorted_x.order.dtype == np.int32
    assert sorted_x.order.tolist() == [[1, 3, 0, 2], [2, 0, 1, 3]]
    # feature j of row r sits at column_start[j] + r
    assert sorted_x.column_start.dtype == np.intp
    for j in range(2):
        for r in range(4):
            assert sorted_x.xflat[sorted_x.column_start[j] + r] == x[r, j]
    # long tie-heavy columns, where an unstable sort would reorder ties
    x = np.random.default_rng(19).integers(0, 3, size=(500, 4)).astype(np.float64)
    rows = np.arange(500)
    for j, col in enumerate(presort_features(x).order):
        assert np.array_equal(col, np.lexsort((rows, x[:, j])))


def test_matches_argsort_grower():
    rng = np.random.default_rng(16)
    for trial in range(120):
        n = int(rng.integers(1, 50)) if trial % 4 else int(rng.integers(1, 3))
        p = int(rng.integers(1, 5))
        x = rng.normal(size=(n, p))
        if trial % 3 == 0:
            x = rng.choice(np.round(rng.normal(size=4), 1), size=(n, p))
        if trial % 5 == 0:
            x[:, int(rng.integers(p))] = 0.25
        g = rng.normal(size=n)
        h = rng.uniform(0.0, 2.0, n) if trial % 2 else np.ones(n)
        if trial % 6 == 1:
            h[rng.random(n) < 0.4] = 0.0
            h[0] = 1.0
        depth = int(rng.integers(0, 6))
        min_leaf = 1 + trial % 3
        tree, leaf = fit_tree(presort_features(x), g, h, depth, min_leaf)
        assert_same_tree(tree, argsort_tree(x, g, h, depth, min_leaf))
        _assert_leaf_index(tree, leaf, x)


def test_multiclass_round_shares_one_presort():
    rng = np.random.default_rng(17)
    x = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(80, 3))
    y = rng.integers(0, 3, 80)
    data = Dataset(x, y, "multiclass")
    config = BoostConfig(iterations=1, learner="tree", max_depth=3, min_samples_leaf=2)
    ens, _ = fit(data, config)
    xs = ens.standardizer.transform(x)
    loss = for_task("multiclass", 3)
    scores = np.tile(optimal_constant(loss, y), (80, 1))
    gh = gradient_hessian(loss, y, scores, newton=True)
    sorted_x = presort_features(xs)
    for k, tree in enumerate(ens.iterations[0].learners):
        ref = argsort_tree(xs, gh.g[:, k], gh.h[:, k], 3, 2)
        assert_same_tree(tree, ref)
        shared, leaf = fit_tree(sorted_x, gh.g[:, k], gh.h[:, k], 3, 2)
        assert_same_tree(shared, ref)
        _assert_leaf_index(shared, leaf, xs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matches_argsort_grower_generated(data):
    n = data.draw(st.integers(1, 24))
    p = data.draw(st.integers(1, 3))
    values = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 3.0]) | st.floats(-4.0, 4.0)
    x = np.array(data.draw(st.lists(values, min_size=n * p, max_size=n * p))).reshape(n, p)
    g = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    h[data.draw(st.integers(0, n - 1))] = 1.0
    depth = data.draw(st.integers(0, 4))
    min_leaf = data.draw(st.integers(1, 3))
    tree, leaf = fit_tree(presort_features(x), g, h, depth, min_leaf)
    assert_same_tree(tree, argsort_tree(x, g, h, depth, min_leaf))
    _assert_leaf_index(tree, leaf, x)


def test_presort_validation():
    bad_features = (np.empty((0, 2)), np.empty((3, 0)), np.ones(3), np.ones((2, 2, 2)),
                    [[0.0, np.inf], [1.0, 2.0]], [[-np.inf, 0.0]], [[np.nan]])
    for bad in bad_features:
        with pytest.raises(DataError):
            presort_features(bad)
    sorted_x = presort_features(np.random.default_rng(18).normal(size=(6, 2)))
    for a in (sorted_x.xflat, sorted_x.order, sorted_x.column_start):
        assert not a.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        sorted_x.order = sorted_x.order[:, ::-1]


# ------------------------------------------------- the all-column scan


def _node_columns(x, g, h):
    """Each column's sorted values and the node's g and h in that order."""
    orders = [np.argsort(x[:, j], kind="stable") for j in range(x.shape[1])]
    return ([x[o, j] for j, o in enumerate(orders)], [g[o] for o in orders], [h[o] for o in orders])


def _scan_both(x, g, h, min_leaf):
    """The block scan and the one-column oracle merged with a strict >."""
    xs, gs, hs = _node_columns(x, g, h)
    got = _split_scan_py.best_split(np.concatenate(xs), np.concatenate(gs), np.concatenate(hs),
                                    min_leaf, len(xs))
    want = (-1, -1, -np.inf, np.nan)
    for j in range(len(xs)):
        pos, gain, thr = one_column_best_split(xs[j], gs[j], hs[j], min_leaf)
        if pos >= 0 and gain > want[2]:
            want = (j, pos, gain, thr)
    return got, want


def _assert_same_split(got, want):
    assert got[:2] == want[:2], (got, want)
    # bits, so that -0.0 and 0.0 or two NaNs are told apart or matched exactly
    for a, b in zip(got[2:], want[2:]):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (got, want)


def test_block_scan_matches_one_column_oracle():
    rng = np.random.default_rng(21)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for trial in range(400):
            m = int(rng.integers(1, 40))
            c = int(rng.integers(1, 7))
            kind = trial % 8
            x = rng.normal(size=(m, c))
            if kind in (1, 2):  # tie-heavy
                x = rng.choice(np.round(rng.normal(size=3), 1), size=(m, c))
            if kind == 2:  # constant columns
                x[:, rng.random(c) < 0.5] = 1.5
            if kind == 3:  # repeated and monotonically mapped columns
                base = rng.normal(size=m)
                x = np.column_stack([base, base**3, base, 2 * base + 1][:c] + [base] * max(0, c - 4))
            g = rng.normal(size=m)
            if kind == 4:  # gradients near 1e200 overflow the gains to inf and NaN
                g *= 1e200
            if kind == 5:  # exactly representable sums give many exactly equal gains
                g = rng.choice([-1.0, 1.0], size=m)
            h = rng.uniform(0.0, 2.0, m) if trial % 2 else np.ones(m)
            if kind == 6:  # zero Hessians, sometimes on every row
                h[rng.random(m) < 0.5] = 0.0
                if rng.random() < 0.2:
                    h[:] = 0.0
            min_leaf = 1 + trial % 3
            _assert_same_split(*_scan_both(x, g, h, min_leaf))


def test_block_scan_equal_gains_prefer_lowest_column():
    rng = np.random.default_rng(22)
    col = rng.normal(size=30)
    g = rng.normal(size=30)
    # column 0 cannot split; columns 1-3 sort the rows alike: bit-equal gains
    x = np.column_stack([np.full(30, 2.0), col, col**3, col * 7])
    got, want = _scan_both(x, g, np.ones(30), 1)
    _assert_same_split(got, want)
    assert got[0] == 1


def test_block_scan_skips_a_column_with_nan_gains():
    # in column 0 the prefix sums overflow, so g_total is inf and its gains
    # are NaN; column 1 adds the same rows without overflow and splits
    x = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
    g = np.array([1e308, 1e308, -1e308, -1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _scan_both(x, g, np.ones(4), 1)
        assert np.isnan(one_column_best_split(x[:, 0], g, np.ones(4), 1)[1])
    _assert_same_split(got, want)
    assert got[:3] == (1, 1, np.inf)


def test_block_scan_threshold_edge_cases():
    lo = np.nextafter(-1.0, -2.0)
    cases = [
        # the winning midpoint's sum overflows
        (np.array([[-1.7e308], [-1e308], [-0.9e308], [-0.5e308]]), np.array([1.0, 1.0, -1.0, -1.0])),
        # adjacent floats: the midpoint rounds up to the right value
        (np.array([[lo, 3.0], [-1.0, 3.0]]), np.array([-1.0, 1.0])),
    ]
    for x, g in cases:
        got, want = _scan_both(x, g, np.ones(len(g)), 1)
        _assert_same_split(got, want)
        assert np.isfinite(got[3]) and got[0] == 0


@pytest.mark.parametrize("budget", [1, 5, 7, 100, 2**16])
def test_chunked_scan_matches_argsort_grower(monkeypatch, budget):
    monkeypatch.setattr(trees, "SCAN_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(24)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        base = rng.normal(size=(n, 3))
        if trial % 3 == 0:
            base = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(n, 3))
        # every column appears three times, so equal gains sit in
        # different chunks whenever the budget holds fewer than 9 columns
        x = np.column_stack([base, base, base[:, ::-1]])
        g = rng.normal(size=n) if trial % 2 else rng.choice([-1.0, 1.0], size=n)
        h = rng.uniform(0.0, 2.0, n) if trial % 4 == 1 else np.ones(n)
        depth = int(rng.integers(1, 5))
        min_leaf = 1 + trial % 3
        tree, leaf = fit_tree(presort_features(x), g, h, depth, min_leaf)
        assert_same_tree(tree, argsort_tree(x, g, h, depth, min_leaf))
        _assert_leaf_index(tree, leaf, x)
        # copies of a column never win over the lowest index
        assert set(tree.feature[tree.feature >= 0].tolist()) <= {0, 1, 2}


def _scanned_rows(tree, p, max_depth, min_leaf):
    """p * rows summed over the nodes that the grower scans for a split."""
    depth = np.zeros(tree.n.size, dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    scanned = (depth < max_depth) & (tree.n >= 2 * min_leaf)
    return p * int(tree.n[scanned].sum())


@pytest.mark.parametrize("budget", [None, 64])
def test_scan_sees_every_column_row_of_every_scanned_node(monkeypatch, budget):
    # perfbench counts trees.best_split.rows as len(xs) of this function;
    # the total must stay p * rows over the scanned nodes, chunks or not
    if budget is not None:
        monkeypatch.setattr(trees, "SCAN_CHUNK_ELEMENTS", budget)
    seen = []
    real = trees._scan.best_split

    def counting(xs, *args, **kwargs):
        seen.append(len(xs))
        return real(xs, *args, **kwargs)

    monkeypatch.setattr(trees._scan, "best_split", counting)
    rng = np.random.default_rng(25)
    x = rng.normal(size=(400, 6))
    x[:, 4] = np.round(x[:, 4])
    g = rng.normal(size=400) + (x[:, 0] > 0.3)
    for depth, min_leaf in ((0, 1), (1, 1), (4, 3), (7, 20)):
        seen.clear()
        tree = _fit(x, g, np.ones(400), depth, min_leaf)
        assert sum(seen) == _scanned_rows(tree, 6, depth, min_leaf)
        assert (sum(seen) > 0) == (depth > 0)


# ------------------------------------------------------------- prediction


def test_batch_prediction_matches_scalar():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(50, 3))
    tree = _fit(x, rng.normal(size=50), np.ones(50), max_depth=4)
    grid = rng.normal(size=(200, 3))
    batch = predict_tree_batch(tree, grid)
    scalar = np.array([predict_tree(tree, row) for row in grid])
    assert np.array_equal(batch, scalar)


def test_deep_tree_fits_training_data():
    # distinct x values and unlimited depth reproduce -g/h exactly
    rng = np.random.default_rng(15)
    x = rng.permutation(np.arange(16.0)).reshape(16, 1)
    g = rng.normal(size=16)
    tree = _fit(x, g, np.ones(16), max_depth=16)
    assert np.allclose(predict_tree_batch(tree, x), -g, atol=1e-12)


def test_split_midpoint_near_float_max_stays_finite():
    # the best split lies between -1e308 and -0.9e308, whose sum overflows
    from ktboost import dumps, loads, predict

    x = np.array([[-1.7e308], [-1e308], [-0.9e308], [-0.5e308]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    config = BoostConfig(iterations=1, learner="tree", max_depth=1, standardize=False)
    model, _ = fit(Dataset(x, y, "regression"), config)
    tree = model.iterations[0].learners[0]
    assert np.isfinite(tree.threshold[0])
    assert tree.n[tree.left[0]] >= 1 and tree.n[tree.right[0]] >= 1
    xs = np.sort(x[:, 0])
    assert xs[0] <= tree.threshold[0] < xs[-1]
    assert np.array_equal(predict(loads(dumps(model)), x), predict(model, x))
