"""Depth-limited regression trees fitted by exact greedy gain search.

Each node scans every feature for the boundary split maximizing

    gain = G_L^2/H_L + G_R^2/H_R - G^2/H

over midpoints between consecutive distinct sorted values, where G and H
are the node's gradient and Hessian sums. Leaf weights are -G/H. Depth
counts edges from the root, so max_depth=1 is a stump. Rows with
x[feature] <= threshold go left.

A tree is six parallel arrays over its nodes in preorder (each node
before its subtrees, the left subtree before the right one):

    feature    int32    split feature, -1 at leaves
    threshold  float64  split threshold, 0.0 at leaves
    left       int32    index of the left child, i + 1; -1 at leaves
    right      int32    index of the right child; -1 at leaves
    value      float64  -G/H of the node's rows, internal nodes included
    n          int32    number of training rows in the node

Each fit checks and sorts its features once: ``presort_features`` refuses
empty and non-finite features and returns a frozen ``SortedFeatures`` (the
transposed features, their sort order and the column offsets) that every
tree of the fit shares; ``fit_tree`` checks only its g and h. Each node
carries a (p, m) block whose row j lists the node's m rows in ascending
order of feature j, ties by row index. A split partitions every row of
the block stably, so the children's blocks stay sorted with the same tie
order and the scan sees exactly the arrays that a per-node stable argsort
would produce. Because the grower partitions the training rows itself,
``fit_tree`` also returns the leaf of every training row, and the tree's
values on those rows are ``tree.value.take(leaf)`` without a second walk.

A node's columns are scanned together, not one by one: one gather per
chunk of columns puts their sorted x, g and h values back to back, and
the scan (``_split_scan_py.best_split``) runs one cumsum along each
column of the block. A chunk holds at most max(1, SCAN_CHUNK_ELEMENTS //
m) columns, so its temporaries stay small whatever p is. The cumsum adds
each column left to right, so every column's gains are bit for bit those
of a scan of that column alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _split_scan_py as _scan
from .errors import DataError

# Largest columns x rows block that one split scan receives, unless a
# single column is longer: a node of m rows is scanned in chunks of
# max(1, SCAN_CHUNK_ELEMENTS // m) columns.
SCAN_CHUNK_ELEMENTS = 2**14


def split_backend_name() -> str:
    return "numpy"


@dataclass(frozen=True, eq=False)
class SortedFeatures:
    """The features of one fit, checked and sorted once for all its trees.

    ``xflat`` holds x.T back to back: feature j of row r is
    ``xflat[column_start[j] + r]``, with the offsets in np.intp so that
    p * n past 2**31 cannot wrap. Row j of ``order`` (int32, shape (p, n))
    lists the rows in ascending order of feature j, ties by row index.
    The arrays are read-only.
    """

    xflat: np.ndarray
    order: np.ndarray
    column_start: np.ndarray


def presort_features(features: np.ndarray) -> SortedFeatures:
    """Check a non-empty, finite 2-D feature matrix and sort each feature.

    The argsort is stable, so equal values keep ascending row order.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DataError("tree features must be a non-empty 2-D matrix")
    finite = np.isfinite(x).all(axis=0)
    if not finite.all():
        raise DataError(f"feature column {int(np.argmin(finite))} holds a non-finite value")
    n, p = x.shape
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable").astype(np.int32)
    column_start = np.arange(p, dtype=np.intp) * n
    for a in (xt, order, column_start):
        a.flags.writeable = False
    return SortedFeatures(xt.reshape(-1), order, column_start)


@dataclass(eq=False)
class Tree:
    """Binary axis-aligned partition as preorder node arrays (module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    def depth(self) -> int:
        level, nodes = 0, np.zeros(1, dtype=np.intp)
        while True:
            nodes = nodes[self.feature[nodes] >= 0]
            if nodes.size == 0:
                return level
            nodes = np.concatenate([self.left[nodes], self.right[nodes]])
            level += 1


def fit_tree(
    sorted_x: SortedFeatures,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_samples_leaf: int = 1,
) -> tuple[Tree, np.ndarray]:
    """Grow a tree greedily on one gradient/Hessian column.

    ``sorted_x`` is ``presort_features(x)``; pass the same object to every
    tree fitted on x. Returns the tree and ``leaf``, where ``leaf[r]`` is
    the preorder index of training row r's leaf, so ``tree.value.take(leaf)``
    is the tree's value on every training row. g and h must be finite.

    Each node's p columns go to the split scan in chunks of at most
    SCAN_CHUNK_ELEMENTS column-rows (at least one column per chunk), and a
    later chunk's split replaces the best so far only on a strictly larger
    gain. Splits need strictly positive gain; nodes violating the depth or
    leaf size constraints become leaves. Splits whose float gains are
    equal prefer the lowest feature index, then the smallest threshold. Two
    features that cut a node's rows into the same partition have equal
    gains in exact arithmetic, but each feature's cumulative sums add the
    rows in its own sorted order, so their float gains can differ by a few
    ulps, and that rounding, not the feature index, picks the winner.
    """
    if not isinstance(sorted_x, SortedFeatures):
        raise TypeError("fit_tree takes the SortedFeatures of presort_features(x)")
    best_split = _scan.best_split
    order, xflat, column_start = sorted_x.order, sorted_x.xflat, sorted_x.column_start
    p, n = order.shape
    g = np.ascontiguousarray(g, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    if g.shape != (n,) or h.shape != (n,):
        raise DataError("gradient/Hessian length mismatch")
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise DataError("non-finite gradient or Hessian entries")
    if np.any(h < 0):
        raise DataError("negative Hessian entries")
    if not np.any(h > 0):
        raise DataError("all-zero Hessian column")
    if max_depth < 0 or min_samples_leaf < 1:
        raise DataError("invalid tree constraints")
    goes_left = np.zeros(n, dtype=bool)
    leaf = np.empty(n, dtype=np.intp)

    feature, threshold, right, value, count = [], [], [], [], []
    # Each entry: the node whose right child this is (-1 otherwise), the
    # node's rows in ascending order, its sorted block (row j = the same
    # rows ordered by feature j) and its depth. The left child is pushed
    # last, so nodes are popped, and numbered, in preorder. A block is
    # dropped as soon as its children's blocks are cut from it.
    stack = [(-1, np.arange(n), order, 0)]
    while stack:
        parent, idx, block, depth = stack.pop()
        i = len(value)
        leaf[idx] = i  # the node's children, if any, overwrite it
        if parent >= 0:
            right[parent] = i
        total_h = float(h.take(idx).sum())
        value.append(-float(g.take(idx).sum()) / total_h if total_h > 0 else 0.0)
        count.append(idx.size)
        feature.append(-1)
        threshold.append(0.0)
        right.append(-1)
        if depth >= max_depth or idx.size < 2 * min_samples_leaf:
            continue
        best_gain = -np.inf
        best_feature = -1
        best_thr = np.nan
        width = max(1, SCAN_CHUNK_ELEMENTS // idx.size)
        for j0 in range(0, p, width):
            rows = block[j0 : j0 + width]
            flat = rows.reshape(-1)
            xs = xflat.take((rows + column_start[j0 : j0 + width, None]).reshape(-1))
            j, pos, gain, thr = best_split(xs, g.take(flat), h.take(flat), min_samples_leaf, rows.shape[0])
            if pos >= 0 and gain > best_gain:
                best_gain, best_feature, best_thr = gain, j0 + j, thr
        if best_gain <= 0.0:
            continue
        start = column_start[best_feature]
        mask = xflat[start : start + n].take(idx) <= best_thr
        lrows, rrows = idx.compress(mask), idx.compress(~mask)
        goes_left[lrows] = True
        lblock, rblock = _partition(block, goes_left[block], lrows.size, width)
        goes_left[lrows] = False
        feature[i], threshold[i] = best_feature, best_thr
        stack.append((i, rrows, rblock, depth + 1))
        stack.append((-1, lrows, lblock, depth + 1))
    feature = np.array(feature, dtype=np.int32)
    left = np.where(feature >= 0, np.arange(1, feature.size + 1, dtype=np.int32), np.int32(-1))
    tree = Tree(feature, np.array(threshold, dtype=np.float64), left, np.array(right, dtype=np.int32),
                np.array(value, dtype=np.float64), np.array(count, dtype=np.int32))
    return tree, leaf


def _partition(block: np.ndarray, sel: np.ndarray, n_left: int, width: int):
    """Split each block row into its entries where sel is True and the rest.

    Returns the two child blocks; each row keeps its order. compress is
    several times faster than boolean indexing, but it holds the selected
    positions as intp, so it runs over at most ``width`` block rows at a
    time.
    """
    p, m = block.shape
    left = np.empty((p, n_left), dtype=block.dtype)
    right = np.empty((p, m - n_left), dtype=block.dtype)
    for j0 in range(0, p, width):
        cells, keep = block[j0 : j0 + width].reshape(-1), sel[j0 : j0 + width].reshape(-1)
        np.compress(keep, cells, out=left[j0 : j0 + width].reshape(-1))
        np.compress(~keep, cells, out=right[j0 : j0 + width].reshape(-1))
    return left, right


def predict_tree_batch(tree: Tree, features: np.ndarray) -> np.ndarray:
    """Vectorized leaf lookup for a feature matrix.

    All rows descend one level per step until each sits in a leaf; rows
    that reach a leaf early stay there.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    n, p = x.shape
    feature, threshold, right, value = tree.feature, tree.threshold, tree.right, tree.value
    if n == 0 or feature[0] < 0:
        return np.full(n, value[0])
    # Row i's feature j is flat[offset[i] + j]: take() on flat arrays is
    # cheaper than fancy indexing. The left child of node i is i + 1.
    flat = x.reshape(-1)
    offset = np.arange(0, n * p, p)
    node = np.where(x[:, feature[0]] <= threshold[0], 1, right[0])
    while True:
        f = feature.take(node)
        inner = f >= 0
        if inner.all():
            node = np.where(flat.take(offset + f) <= threshold.take(node), node + 1, right.take(node))
        elif inner.any():
            col = np.where(inner, f, 0)
            step = np.where(flat.take(offset + col) <= threshold.take(node), node + 1, right.take(node))
            node = np.where(inner, step, node)
        else:
            return value.take(node)
