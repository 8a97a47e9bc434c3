"""Split scan over one presorted column.

Prefix sums are np.cumsum, which accumulates strictly left to right, so
the gains depend only on the order of the column's rows.
"""

import numpy as np


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
