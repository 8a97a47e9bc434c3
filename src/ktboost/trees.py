"""Depth-limited regression trees fitted by exact greedy gain search.

Each node scans every feature for the boundary split maximizing

    gain = G_L^2/H_L + G_R^2/H_R - G^2/H

over midpoints between consecutive distinct sorted values, where G and H
are the node's gradient and Hessian sums. Leaf weights are -G/H. Depth
counts edges from the root, so max_depth=1 is a stump. Rows with
x[feature] <= threshold go left.

Features are sorted once per fit (``presort_features``), not per node:
each node carries a (p, m) block whose row j lists the node's m rows in
ascending order of feature j, ties by row index. A split partitions every
row of the block stably, so the children's blocks stay sorted with the
same tie order and the per-column scan sees exactly the arrays that a
per-node stable argsort would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _split_scan_py as _scan
from .errors import DataError


def split_backend_name() -> str:
    return "numpy"


def presort_features(features: np.ndarray) -> np.ndarray:
    """Row indices sorted by each feature, shape (p, n), int32.

    The argsort is stable, so equal values keep ascending row order.
    """
    x = np.asarray(features, dtype=np.float64)
    return np.argsort(x.T, axis=1, kind="stable").astype(np.int32)


@dataclass
class TreeNode:
    weight: float
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class Tree:
    """Binary axis-aligned partition with one weight per leaf."""

    root: TreeNode
    max_depth: int
    n_features: int

    def n_leaves(self) -> int:
        def count(node):
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root)

    def depth(self) -> int:
        def down(node):
            if node.is_leaf:
                return 0
            return 1 + max(down(node.left), down(node.right))

        return down(self.root)


def fit_tree(
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    max_depth: int,
    min_samples_leaf: int = 1,
    order: np.ndarray | None = None,
) -> Tree:
    """Grow a tree greedily on one gradient/Hessian column.

    Splits need strictly positive gain; nodes violating the depth or leaf
    size constraints become leaves. Ties prefer the lowest feature index,
    then the smallest threshold. ``order`` is ``presort_features(features)``,
    computed here when not given; pass it to share one sort between trees
    fitted on the same features.
    """
    best_split = _scan.best_split
    x = np.ascontiguousarray(features, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("fit_tree needs a non-empty feature matrix")
    n, p = x.shape
    if g.shape != (n,) or h.shape != (n,):
        raise DataError("gradient/Hessian length mismatch")
    if np.any(h < 0):
        raise DataError("negative Hessian entries")
    if not np.any(h > 0):
        raise DataError("all-zero Hessian column")
    if max_depth < 0 or min_samples_leaf < 1:
        raise DataError("invalid tree constraints")
    if order is None:
        order = presort_features(x)
    order = np.asarray(order)
    if order.shape != (p, n) or not np.issubdtype(order.dtype, np.integer):
        raise DataError(f"order must be an integer array of shape ({p}, {n})")
    xt = np.ascontiguousarray(x.T)
    goes_left = np.zeros(n, dtype=bool)

    # Each entry: the node to fill, its rows in ascending order, its sorted
    # block (row j = the same rows ordered by feature j) and its depth. A
    # block is dropped as soon as its children's blocks are cut from it.
    root = TreeNode(0.0, 0)
    stack = [(root, np.arange(n), order, 0)]
    while stack:
        node, idx, block, depth = stack.pop()
        total_h = float(np.sum(h[idx]))
        node.weight = -float(np.sum(g[idx])) / total_h if total_h > 0 else 0.0
        node.n_samples = idx.size
        if depth >= max_depth or idx.size < 2 * min_samples_leaf:
            continue
        best_gain = -np.inf
        best_feature = -1
        best_thr = np.nan
        for j in range(p):
            rows = block[j]
            pos, gain, thr = best_split(xt[j, rows], g[rows], h[rows], min_samples_leaf)
            if pos >= 0 and gain > best_gain:
                best_gain, best_feature, best_thr = gain, j, thr
        if best_gain <= 0.0:
            continue
        mask = xt[best_feature, idx] <= best_thr
        left, right = idx[mask], idx[~mask]
        goes_left[left] = True
        sel = goes_left[block]
        goes_left[left] = False
        node.feature, node.threshold = best_feature, best_thr
        node.left, node.right = TreeNode(0.0, 0), TreeNode(0.0, 0)
        stack.append((node.right, right, block[~sel].reshape(p, right.size), depth + 1))
        stack.append((node.left, left, block[sel].reshape(p, left.size), depth + 1))
    return Tree(root, max_depth, p)


def predict_tree(tree: Tree, x: np.ndarray) -> float:
    """Weight of the unique leaf containing x."""
    x = np.asarray(x, dtype=np.float64)
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.weight


def predict_tree_batch(tree: Tree, features: np.ndarray) -> np.ndarray:
    """Vectorized leaf lookup for a feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    out = np.empty(x.shape[0])
    stack = [(tree.root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.weight
        else:
            mask = x[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out
