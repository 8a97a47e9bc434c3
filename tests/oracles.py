"""Independent reference implementations used to cross-check the package.

Everything here recomputes results through a different route than the
library: trees via exhaustive per-node enumeration with direct mask sums,
kernel coefficients via a generic dense solve of the stationarity system,
and kernel matrices via explicit loops. Tests freeze expectations against
these, never against the code under test.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from ktboost.bench import SimFunction
from ktboost.boost import predict
from ktboost.errors import DataError
from ktboost.kernels import factorize_spd
from ktboost.trees import Tree


# ------------------------------------------------------------------ trees


# The library's one-column split scan before it scanned a node's columns
# as one block, kept verbatim so that the block scan is checked against an
# independent copy rather than against itself.
def best_split(xs, g, h, min_leaf):
    """Best split of a column sorted ascending, as (pos, gain, threshold)."""
    n = xs.shape[0]
    if n < 2:
        return -1, -np.inf, np.nan
    gl = np.cumsum(g)
    hl = np.cumsum(h)
    gt = gl[-1]
    ht = hl[-1]
    if ht <= 0.0:
        return -1, -np.inf, np.nan

    pos = np.arange(1, n)
    ok = xs[1:] != xs[:-1]
    ok &= (pos >= min_leaf) & (n - pos >= min_leaf)
    gl = gl[:-1]
    hl = hl[:-1]
    hr = ht - hl
    ok &= (hl > 0.0) & (hr > 0.0)
    if not ok.any():
        return -1, -np.inf, np.nan

    gr = gt - gl
    base = gt * gt / ht
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = gl * gl / hl + gr * gr / hr - base
    gain[~ok] = -np.inf
    i = int(np.argmax(gain))
    a, b = xs[i], xs[i + 1]
    with np.errstate(over="ignore"):
        thr = (a + b) / 2.0
    if not np.isfinite(thr):
        # a + b overflowed; halving first cannot, and at this magnitude it
        # is exact, so the result is the correctly rounded midpoint
        thr = a / 2.0 + b / 2.0
    if thr >= b:
        thr = np.nextafter(b, a)
    return i + 1, float(gain[i]), float(thr)


def oracle_best_split(x_col, g, h, min_leaf):
    """Exhaustive scan of one column; returns (gain, threshold) or None.

    Side sums are recomputed per candidate from scratch, no prefix sums.
    """
    order = np.argsort(x_col, kind="stable")
    xs, gs, hs = x_col[order], g[order], h[order]
    n = xs.shape[0]
    h_total = float(np.sum(hs))
    if h_total <= 0.0:
        return None
    g_total = float(np.sum(gs))
    base = g_total * g_total / h_total
    best = None
    for i in range(1, n):
        if xs[i] == xs[i - 1]:
            continue
        if i < min_leaf or n - i < min_leaf:
            continue
        g_left = float(np.sum(gs[:i]))
        h_left = float(np.sum(hs[:i]))
        g_right = float(np.sum(gs[i:]))
        h_right = float(np.sum(hs[i:]))
        if h_left <= 0.0 or h_right <= 0.0:
            continue
        gain = g_left**2 / h_left + g_right**2 / h_right - base
        if best is None or gain > best[0]:
            thr = (xs[i - 1] + xs[i]) / 2.0
            if thr >= xs[i]:
                thr = float(np.nextafter(xs[i], xs[i - 1]))
            best = (gain, thr)
    return best


def oracle_tree(x, g, h, max_depth, min_leaf=1):
    """Greedy tree as nested dicts, every candidate split enumerated."""

    def build(idx, depth):
        gs, hs = g[idx], h[idx]
        h_sum = float(np.sum(hs))
        node = {
            "weight": -float(np.sum(gs)) / h_sum if h_sum > 0 else 0.0,
            "n": int(idx.size),
        }
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return node
        best = None  # (gain, feature, threshold)
        for j in range(x.shape[1]):
            found = oracle_best_split(x[idx, j], gs, hs, min_leaf)
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], j, found[1])
        if best is None or best[0] <= 0.0:
            return node
        mask = x[idx, best[1]] <= best[2]
        node["feature"] = best[1]
        node["threshold"] = best[2]
        node["gain"] = best[0]
        node["left"] = build(idx[mask], depth + 1)
        node["right"] = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(x.shape[0]), 0)


@dataclass
class Node:
    """A linked tree node, named like the oracle_tree dict keys."""

    weight: float
    n: int
    feature: int = -1
    threshold: float = 0.0
    left: "Node | None" = None
    right: "Node | None" = None


def argsort_tree(x, g, h, max_depth, min_samples_leaf=1):
    """The grower before presorting: a stable argsort per node and feature.

    Scans each column alone with the one-column ``best_split`` above and
    keeps a later feature only on a strictly larger gain. The library's
    presorted block scan adds every column's rows in the same order, so it
    must match this grower bit for bit. Returns a Node.
    """
    n, p = x.shape

    def grow(idx: np.ndarray, depth: int) -> Node:
        gs = g[idx]
        hs = h[idx]
        total_h = float(np.sum(hs))
        weight = -float(np.sum(gs)) / total_h if total_h > 0 else 0.0
        if depth < max_depth and idx.size >= 2 * min_samples_leaf:
            best_gain = -np.inf
            best_feature = -1
            best_thr = np.nan
            for j in range(p):
                col = x[idx, j]
                order = np.argsort(col, kind="stable")
                pos, gain, thr = best_split(
                    np.ascontiguousarray(col[order]),
                    np.ascontiguousarray(gs[order]),
                    np.ascontiguousarray(hs[order]),
                    min_samples_leaf,
                )
                if pos >= 0 and gain > best_gain:
                    best_gain, best_feature, best_thr = gain, j, thr
            if best_gain > 0.0:
                mask = x[idx, best_feature] <= best_thr
                return Node(
                    weight,
                    idx.size,
                    best_feature,
                    best_thr,
                    grow(idx[mask], depth + 1),
                    grow(idx[~mask], depth + 1),
                )
        return Node(weight, idx.size)

    return grow(np.arange(n), 0)


def predict_tree(tree: Tree, x) -> float:
    """Weight of the leaf of a ``Tree`` that contains the single point x."""
    x = np.asarray(x, dtype=np.float64)
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return float(tree.value[i])


def oracle_tree_predict(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["weight"]


TREE_FIELDS = ("feature", "threshold", "left", "right", "value", "n")


def flatten(tree) -> dict:
    """The six preorder node arrays of ``ktboost.trees.Tree`` for a tree.

    ``tree`` is a Node, an oracle_tree dict, or a Tree (returned as is).
    Walks the links recursively, independently of the library's grower.
    """
    if isinstance(tree, Tree):
        return {name: getattr(tree, name) for name in TREE_FIELDS}
    cols = {name: [] for name in TREE_FIELDS}

    def visit(node):
        if not isinstance(node, dict):
            node = vars(node)
        i = len(cols["value"])
        cols["value"].append(node["weight"])
        cols["n"].append(node["n"])
        if node.get("left") is None:
            for name, leaf in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
                cols[name].append(leaf)
            return
        cols["feature"].append(node["feature"])
        cols["threshold"].append(node["threshold"])
        cols["left"].append(i + 1)
        cols["right"].append(-1)
        visit(node["left"])
        cols["right"][i] = len(cols["value"])
        visit(node["right"])

    visit(tree)
    floats = ("threshold", "value")
    return {name: np.array(v, dtype=np.float64 if name in floats else np.int32)
            for name, v in cols.items()}


def assert_same_tree(tree, ref):
    """All six node arrays of two trees are equal, dtype and bits included."""
    got, want = flatten(tree), flatten(ref)
    for name in TREE_FIELDS:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), (name, got[name], want[name])


def tree_objective(g, h, pred):
    """Second-order risk reduction objective sum(g f + h f^2 / 2)."""
    return float(np.sum(g * pred + 0.5 * h * pred * pred))


# ----------------------------------------------------------------- kernels


def gaussian_kernel(x1, x2, rho) -> float:
    """exp(-||x1 - x2||^2 / rho^2) for a single pair of points."""
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("kernel arguments must share a dimension")
    sq = float(np.sum((a - b) ** 2))
    return float(np.exp(-sq / (rho * rho)))


def oracle_kernel_matrix(a, b, rho):
    """Gaussian kernel via explicit loops; no shared code with the library."""
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            diff = a[i] - b[j]
            out[i, j] = np.exp(-np.dot(diff, diff) / rho**2)
    return out


def oracle_kernel_alpha(x, g, h, rho, lam):
    """Coefficients from the stationarity system (diag(h) K + lam I) a = -g.

    This is the normal-equation form of the penalized second-order
    objective, solved with a generic dense LU factorization.
    """
    k = oracle_kernel_matrix(x, x, rho)
    system = h[:, None] * k
    system[np.diag_indices_from(system)] += lam
    return np.linalg.solve(system, -g)


def oracle_kernel_objective(k, g, h, lam, alpha):
    """Penalized quadratic sum(g f + h f^2 / 2) + lam/2 a' K a at f = K a."""
    f = k @ alpha
    return float(np.sum(g * f + 0.5 * h * f * f) + 0.5 * lam * alpha @ k @ alpha)


def nystrom_gram(solver) -> np.ndarray:
    """The approximate Gram matrix C W^{-1} C^T (rank at most l) of a Nystrom solver."""
    c = solver.basis
    factor, _ = factorize_spd(solver.gram)
    return c @ cho_solve(factor, c.T, check_finite=False)


# -------------------------------------------------------------- simulation


def pointwise_mse(models, sims, grid, truncate_at=None) -> np.ndarray:
    """Mean squared estimation error against the noiseless truth per grid x.

    ``models[i]`` is evaluated against ``sims[i]`` (a single SimFunction is
    broadcast); ``truncate_at`` optionally caps each model's iterations.
    """
    models = list(models)
    if not models:
        raise DataError("no models to evaluate")
    if isinstance(sims, SimFunction):
        sims = [sims] * len(models)
    grid = np.asarray(grid, dtype=np.float64)
    total = np.zeros(grid.size)
    for i, (model, sim) in enumerate(zip(models, sims)):
        cap = None if truncate_at is None else truncate_at[i]
        pred = predict(model, grid[:, None], truncate_at=cap)[:, 0]
        total += (pred - sim.truth(grid)) ** 2
    return total / len(models)
