"""Spans around the public functions of each ktboost layer, from outside.

``instrument`` replaces each function in the module namespace where its
callers look it up (``boost`` for the tree and kernel learners, losses and
the standardizer, ``kernels`` for ``cho_factor`` and ``kernel_matrix``,
the split-scan module for ``best_split``, ``cli`` for the commands and
their CSV and model calls) and restores the originals on exit. A span is
``[name, start, end, parent, run]``: parent is the index of the enclosing
span or -1, run the repetition it belongs to. Start and end are CPU
seconds of the process (``time.process_time``), like every duration the
benchmark reports. Spans stay in memory until ``write`` stores them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

from ktboost import boost, cli, kernels, trees


def _rows(a) -> int:
    return len(np.atleast_2d(a))


# (module, attribute, span name, counter function or None). A counter
# function receives the call's arguments and returns {counter: increment}.
def _sites():
    return [
        (boost, "fit_tree", "trees.fit_tree", None),
        (trees._scan, "best_split", "trees.best_split", lambda xs, *a, **k: {"rows": len(xs)}),
        (boost, "predict_tree_batch", "trees.predict_tree_batch", lambda t, x, *a, **k: {"rows": _rows(x)}),
        (kernels, "cho_factor", "kernels.cholesky", lambda a, *r, **k: {"flops": a.shape[0] ** 3 / 3}),
        (boost, "fit_kernel_gradient", "kernels.fit_kernel_gradient", None),
        (boost, "fit_kernel_newton", "kernels.fit_kernel_newton", None),
        (boost, "build_nystrom", "kernels.build_nystrom", None),
        (boost, "build_gradient_cache", "kernels.build_gradient_cache", None),
        (boost, "kernel_matrix", "kernels.kernel_matrix", lambda a, b, *r, **k: {"entries": _rows(a) * _rows(b)}),
        (kernels, "kernel_matrix", "kernels.kernel_matrix", lambda a, b, *r, **k: {"entries": _rows(a) * _rows(b)}),
        (boost, "select_rho", "kernels.select_rho", None),
        (boost, "gradient_hessian", "losses.gradient_hessian", None),
        (boost, "fit", "boost.fit", None),
        (cli, "fit", "boost.fit", None),
        (boost, "empirical_risk", "boost.empirical_risk", None),
        (cli, "empirical_risk", "boost.empirical_risk", None),
        (boost, "predict", "boost.predict", lambda e, x, *a, **k: {"rows": _rows(x)}),
        (cli, "predict", "boost.predict", lambda e, x, *a, **k: {"rows": _rows(x)}),
        (boost, "dumps", "boost.dumps", None),
        (boost, "loads", "boost.loads", None),
        (boost, "fit_standardizer", "data.fit_standardizer", None),
        (cli, "load_csv", "data.load_csv", None),
        (cli, "load_features", "data.load_features", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_predict", "cli.predict", None),
        (cli, "cmd_evaluate", "cli.evaluate", None),
    ]


SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in _sites()))
# Counters kept per span name; "failed" counts calls that raised, which for
# kernels.cholesky are the jitter retries inside factorize_spd.
COUNTERS = {
    "trees.best_split": ("rows",),
    "trees.predict_tree_batch": ("rows",),
    "kernels.cholesky": ("failed", "flops"),
    "kernels.kernel_matrix": ("entries",),
    "boost.predict": ("rows",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[1] = time.process_time()
                return fn(*args, **kwargs)
            except Exception:
                counts[self.run, name + ".failed"] += 1
                raise
            finally:
                span[2] = time.process_time()
                stack.pop()
                if count is not None:
                    for key, value in count(*args, **kwargs).items():
                        counts[self.run, f"{name}.{key}"] += value

        return traced

    @contextlib.contextmanager
    def instrument(self, run: int):
        """Trace every site while the block runs, as repetition ``run``."""
        self.run = run
        patched = []
        try:
            for module, attr, name, count in _sites():
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original, count))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def layer_totals(self, run: int) -> dict[str, float]:
        """calls, s and self_s per span name, plus the counters, for one run.

        Self time is a span's duration minus the durations of its direct
        children; spans never overlap their siblings, because calls are
        sequential.
        """
        child_s = defaultdict(float)
        for i, (_, start, end, parent, r) in enumerate(self.spans):
            if r == run and parent >= 0:
                child_s[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0.0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
            for counter in COUNTERS.get(name, ()):
                out[f"{name}.{counter}"] = 0.0
        for i, (name, start, end, _, r) in enumerate(self.spans):
            if r == run:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += end - start
                out[f"{name}.self_s"] += end - start - child_s[i]
        for (r, key), value in self.counts.items():
            if r == run:
                out[key] = out.get(key, 0.0) + value
        return out

    def seconds_within(self, run: int, outer: str, prefix: str) -> float:
        """Seconds of spans named ``prefix*`` that run inside an ``outer`` span.

        Only the outermost ``prefix*`` span of a nest counts, so
        trees.best_split inside trees.fit_tree is not counted twice.
        """
        total = 0.0
        for name, start, end, parent, r in self.spans:
            if r != run or not name.startswith(prefix):
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                if self.spans[parent][0].startswith(prefix):
                    break
                parent = self.spans[parent][3]
            if parent >= 0 and self.spans[parent][0] == outer:
                total += end - start
        return total

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
