"""Split scan over a block of presorted columns of one tree node.

The columns arrive back to back in flat arrays and are scanned as one
(n_columns, m) block. Prefix sums are np.cumsum along axis 1, which adds
each column strictly left to right, so a column's gains depend only on
the order of its own rows, exactly as if it were scanned alone.
"""

import math

import numpy as np


def best_split(xs, g, h, min_leaf, n_columns):
    """Best split of n_columns sorted columns, as (column, pos, gain, threshold).

    ``xs``, ``g`` and ``h`` hold n_columns * m entries: entries
    [j*m, (j+1)*m) are the node's m rows in ascending order of column j's
    values. Within a column the first maximal gain wins, across columns
    the lowest column among equal gains, and a column with a NaN gain has
    no split. Returns (-1, -1, -inf, nan) when no column has a split.
    """
    m = xs.shape[0] // n_columns
    if m < 2:
        return -1, -1, -np.inf, np.nan
    xs = xs.reshape(n_columns, m)
    gl = g.reshape(n_columns, m).cumsum(axis=1)
    hl = h.reshape(n_columns, m).cumsum(axis=1)
    gt = gl[:, -1:]
    ht = hl[:, -1:]
    gl = gl[:, :-1]
    hl = hl[:, :-1]
    gr = gt - gl
    hr = ht - hl

    # Position k splits after sorted row k. It needs distinct values on its
    # two sides and, on each side, min_leaf rows and a positive Hessian sum;
    # the last rules out every position of a column whose Hessian total is
    # not positive.
    ok = xs[:, 1:] != xs[:, :-1]
    ok[:, : min_leaf - 1] = False
    ok[:, max(m - min_leaf, 0) :] = False
    ok &= hl > 0.0
    ok &= hr > 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # gl*gl/hl + gr*gr/hr - gt*gt/ht, evaluated in that order
        gain = gl * gl
        gain /= hl
        gr *= gr
        gr /= hr
        gain += gr
        gain -= gt * gt / ht
    np.putmask(gain, ~ok, -np.inf)
    top = gain.max(axis=1)  # NaN where the column has a NaN gain
    top[np.isnan(top)] = -np.inf
    j = int(top.argmax())
    if top[j] == -np.inf:
        return -1, -1, -np.inf, np.nan
    i = int(gain[j].argmax())
    a, b = float(xs[j, i]), float(xs[j, i + 1])
    thr = (a + b) / 2.0
    if not math.isfinite(thr):
        # a + b overflowed; halving first cannot, and at this magnitude it
        # is exact, so the result is the correctly rounded midpoint
        thr = a / 2.0 + b / 2.0
    if thr >= b:
        thr = math.nextafter(b, a)
    return j, i + 1, float(gain[j, i]), thr
