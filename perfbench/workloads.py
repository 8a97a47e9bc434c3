"""The three benchmark workloads and the inputs they generate from a seed.

Each workload has two phases. ``fit`` runs the training calls that
``fit_s`` times and returns, per fitted model, the chosen-learner
sequence and the task metric on the test set; ``reference.json`` records
both at the seed commit. ``serve`` scores a fixed batch with the full
models, serializes and reloads them, and checks the outputs.

Why each workload exists:

- sim-race: one replication of the simulation study at the pinned
  acceptance settings (n=1000, 1000 iterations, stumps, rho=0.1, lam=1,
  gradient mode) for tree, kernel and ktboost. Iterations are cheap, so
  the cached kernel solve, the n-by-n candidate matvec, risk and
  validation scoring dominate; the kernel-only model is the persistence
  stress. Trees are trivial here.
- tree-wide: tree-only regression at n=20000, p=20, depth 5. Split search
  and per-node sorting are nearly all the work and no kernel code runs,
  so it is the no-change control for every kernel change.
- cli-newton: the command line with its defaults (Newton, ktboost, depth
  5) plus --rho-knn 5 --validation. With unit Hessians it still
  refactorizes the n-by-n system every iteration, and it is the only
  workload through the cli, CSV I/O and model files.

Every duration is CPU seconds of this process, all threads, read with
``time.process_time``. The benchmark runs one thread of Python and one
BLAS thread, so on an unshared core this equals wall time. On a shared
virtual machine wall time also holds the time the host runs other
guests (steal time), which swings a run by half or more from minute to
minute; CPU time leaves that out. Wall time only bounds how long a run
lasts.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ktboost import boost, cli
from ktboost.bench import SimFunction, metric, simulate
from ktboost.data import Dataset, write_csv

# Row and iteration counts per size preset. "smoke"
# keeps every code path of "full" but finishes in about a second.
SIZES = {
    "full": {
        "sim-race": dict(n=1000, iterations=1000),
        "tree-wide": dict(n=20000, p=20, iterations=12, batch=20000),
        "cli-newton": dict(n=1000, n_val=500, n_test=2000, iterations=60),
    },
    "smoke": {
        "sim-race": dict(n=150, iterations=30),
        "tree-wide": dict(n=2000, p=20, iterations=3, batch=2000),
        "cli-newton": dict(n=150, n_val=75, n_test=200, iterations=5),
    },
}

# Repeated timings of one call stop after this much wall time (at least
# MIN_CALLS calls), so sub-second calls are timed as a median of many.
TIMING_BUDGET_S = 1.0
MIN_CALLS = 2
MAX_CALLS = 200

clock = time.process_time


class _CpuTime:
    """The ``time`` module, with ``perf_counter`` reading CPU seconds."""

    perf_counter = staticmethod(clock)

    def __getattr__(self, name):
        return getattr(time, name)


@contextlib.contextmanager
def cpu_clock():
    """Let ``boost.fit`` time its iterations (``FitReport.seconds``) in CPU seconds."""
    original = boost.time
    boost.time = _CpuTime()
    try:
        yield
    finally:
        boost.time = original


class Checks:
    """Counts checked operations; a mismatch is a failure, not a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class FitOutcome:
    """What the fit phase of one repetition produced."""

    fit_s: float
    reports: list  # (learner, FitReport) per fit
    fits: dict  # model name -> {"chosen": "tk..", "test_metric": float, ...}
    models: dict = field(default_factory=dict)  # model name -> Ensemble
    baseline_metric: dict = field(default_factory=dict)  # constant predictor's metric


@dataclass
class ServeOutcome:
    predict_rows_per_s: float
    dumps_s: float
    loads_s: float
    model_bytes: int
    per_model: dict  # model name -> {"dumps_s": float, "loads_s": float}


def chosen_string(tags) -> str:
    return "".join("t" if tag == "tree" else "k" for tag in tags)


def reference_entry(fit: dict) -> dict:
    """What reference.json records of one fit."""
    chosen = fit["chosen"]
    return {
        "chosen_sha256": hashlib.sha256(chosen.encode("ascii")).hexdigest(),
        "kernel_wins": chosen.count("k"),
        "iterations": len(chosen),
        "test_metric": fit["test_metric"],
    }


def timed(fn, same=None, min_calls: int = MIN_CALLS, budget: float = TIMING_BUDGET_S):
    """Median CPU seconds of repeated calls and the first call's output.

    With ``same``, also whether every later output equals the first; only
    the first is kept, so the repeats do not add to peak memory.
    """
    # Start from a collected heap, so the collector's work during the calls
    # does not depend on the garbage that earlier phases left.
    gc.collect()
    times, first, identical = [], None, True
    deadline = time.perf_counter() + budget
    while len(times) < min_calls or (time.perf_counter() < deadline and len(times) < MAX_CALLS):
        started = clock()
        output = fn()
        times.append(clock() - started)
        if len(times) == 1:
            first = output
        elif same is not None:
            identical = identical and same(output, first)
        del output
    return statistics.median(times), first, identical


def _fit_timed(train, config, validation):
    gc.collect()
    started = clock()
    model, report = boost.fit(train, config, validation)
    return clock() - started, model, report


def _constant_metric(task: str, train: Dataset, test: Dataset) -> float:
    """Test MSE of the training mean, which every fitted model must beat."""
    return metric(task, test.targets, np.full(test.n_samples, train.targets.mean()))


def serve_models(models: dict, batch: np.ndarray, checks: Checks) -> ServeOutcome:
    """Score, serialize and reload each model; check determinism and round trips."""
    predict_s = dumps_s = loads_s = 0.0
    total_bytes = 0
    per_model = {}
    for name, model in models.items():
        t_pred, pred, repeatable = timed(lambda: boost.predict(model, batch), np.array_equal)
        checks.check(
            pred.shape[0] == batch.shape[0] and bool(np.all(np.isfinite(pred))),
            f"{name}: predict returned a wrong shape or non-finite values",
        )
        checks.check(repeatable, f"{name}: repeated predict calls differ")
        t_dumps, text, repeatable = timed(lambda: boost.dumps(model), operator.eq)
        checks.check(repeatable, f"{name}: two dumps calls differ")
        t_loads, loaded, _ = timed(lambda: boost.loads(text), min_calls=1)
        checks.check(
            np.array_equal(boost.predict(loaded, batch), pred),
            f"{name}: loads(dumps(model)) predicts differently",
        )
        nbytes = len(text.encode("utf-8"))
        predict_s += t_pred
        dumps_s += t_dumps
        loads_s += t_loads
        total_bytes += nbytes
        per_model[name] = {"dumps_s": t_dumps, "loads_s": t_loads}
        del text, loaded
    rows = batch.shape[0] * len(models)
    return ServeOutcome(rows / predict_s, dumps_s, loads_s, total_bytes, per_model)


class SimRace:
    name = "sim-race"
    task = "regression"

    def __init__(self, size: str):
        self.n = SIZES[size][self.name]["n"]
        self.iterations = SIZES[size][self.name]["iterations"]

    def make_inputs(self, seed: int, workdir: str) -> dict:
        # The same seed spawning as one replication of the simulation study.
        seedseq = np.random.SeedSequence(seed)
        s_sim, s_train, s_val, s_test = seedseq.spawn(4)
        sim = SimFunction.from_seed(s_sim)
        return {
            "train": simulate(sim, self.n, s_train),
            "validation": simulate(sim, self.n, s_val),
            "test": simulate(sim, self.n, s_test),
            "nystrom_seed": int(seedseq.generate_state(1)[0]),
        }

    def fit(self, inputs: dict) -> FitOutcome:
        test = inputs["test"]
        total = 0.0
        reports, fits, models = [], {}, {}
        for learner in ("tree", "kernel", "ktboost"):
            config = boost.BoostConfig(
                iterations=self.iterations, nu=0.1, newton=False, learner=learner,
                max_depth=1, rho=0.1, lam=1.0, standardize=False, seed=inputs["nystrom_seed"],
            )
            seconds, model, report = _fit_timed(inputs["train"], config, inputs["validation"])
            total += seconds
            scores = boost.predict(model, test.features, truncate_at=report.best_iteration)
            reports.append((learner, report))
            models[learner] = model
            fits[learner] = {
                "chosen": chosen_string(report.chosen),
                "test_metric": metric(self.task, test.targets, scores),
                "fit_s": seconds,
            }
        base = _constant_metric(self.task, inputs["train"], test)
        return FitOutcome(total, reports, fits, models, {m: base for m in fits})

    def serve(self, inputs: dict, outcome: FitOutcome, checks: Checks) -> ServeOutcome:
        return serve_models(outcome.models, inputs["test"].features, checks)


class TreeWide:
    name = "tree-wide"
    task = "regression"

    def __init__(self, size: str):
        cfg = SIZES[size][self.name]
        self.n, self.p, self.iterations, self.batch = cfg["n"], cfg["p"], cfg["iterations"], cfg["batch"]

    def _draw(self, rng, n: int) -> Dataset:
        x = rng.normal(size=(n, self.p))
        f = (
            2.0 * (x[:, 0] > 0.5)
            - 1.5 * (x[:, 1] > -0.3)
            + np.sin(2.0 * x[:, 2])
            + 0.5 * x[:, 3] * x[:, 4]
            + 0.8 * np.abs(x[:, 5])
        )
        return Dataset(x, f + rng.normal(0.0, 0.5, n), self.task)

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        return {"train": self._draw(rng, self.n), "test": self._draw(rng, self.batch)}

    def fit(self, inputs: dict) -> FitOutcome:
        config = boost.BoostConfig(iterations=self.iterations, nu=0.1, learner="tree", max_depth=5)
        seconds, model, report = _fit_timed(inputs["train"], config, None)
        test = inputs["test"]
        scores = boost.predict(model, test.features, truncate_at=report.best_iteration)
        fits = {"tree": {"chosen": chosen_string(report.chosen),
                         "test_metric": metric(self.task, test.targets, scores)}}
        base = _constant_metric(self.task, inputs["train"], test)
        return FitOutcome(seconds, [("tree", report)], fits, {"tree": model}, {"tree": base})

    def serve(self, inputs: dict, outcome: FitOutcome, checks: Checks) -> ServeOutcome:
        return serve_models(outcome.models, inputs["test"].features, checks)


class CliNewton:
    name = "cli-newton"
    task = "regression"

    def __init__(self, size: str):
        cfg = SIZES[size][self.name]
        self.n, self.n_val, self.n_test = cfg["n"], cfg["n_val"], cfg["n_test"]
        self.iterations = cfg["iterations"]

    def _draw(self, rng, n: int) -> Dataset:
        x = rng.uniform(-1.0, 1.0, size=(n, 4))
        f = 3.0 * (x[:, 0] > 0.3) + np.sin(3.0 * x[:, 1]) + x[:, 2] * x[:, 3]
        return Dataset(x, f + rng.normal(0.0, 0.3, n), self.task)

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        paths = {part: os.path.join(workdir, f"{part}.csv") for part in ("train", "validation", "test")}
        data = {}
        for part, n in (("train", self.n), ("validation", self.n_val), ("test", self.n_test)):
            data[part] = self._draw(rng, n)
            write_csv(data[part], paths[part])
        return {
            "paths": paths,
            "model": os.path.join(workdir, "model.json"),
            "scores": os.path.join(workdir, "scores.csv"),
            "baseline": _constant_metric(self.task, data["train"], data["test"]),
            "test_features": data["test"].features,
        }

    @staticmethod
    def _run(argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def fit(self, inputs: dict) -> FitOutcome:
        paths = inputs["paths"]
        reports = []
        fit_fn = cli.fit

        def capture(*args, **kwargs):
            model, report = fit_fn(*args, **kwargs)
            reports.append(("ktboost", report))
            return model, report

        cli.fit = capture
        try:
            gc.collect()
            started = clock()
            code, _ = self._run([
                "train", "--data", paths["train"], "--validation", paths["validation"],
                "--task", "regression", "--iterations", str(self.iterations),
                "--rho-knn", "5", "--out", inputs["model"],
            ])
            seconds = clock() - started
        finally:
            cli.fit = fit_fn
        if code != 0:
            raise RuntimeError(f"train exited with {code}")
        code, text = self._run(["evaluate", "--model", inputs["model"], "--data", paths["test"]])
        if code != 0:
            raise RuntimeError(f"evaluate exited with {code}")
        # The model file holds the iterations up to the validation optimum.
        selected = chosen_string(it.tag for it in boost.load(inputs["model"]).iterations)
        fits = {"ktboost": {"chosen": selected, "test_metric": json.loads(text)["metric"]}}
        return FitOutcome(seconds, reports, fits, {}, {"ktboost": inputs["baseline"]})

    def serve(self, inputs: dict, outcome: FitOutcome, checks: Checks) -> ServeOutcome:
        predict_argv = ["predict", "--model", inputs["model"], "--data", inputs["paths"]["test"],
                        "--has-target", "--out", inputs["scores"]]
        # Parsing the model file and the CSV dominates the command, and its
        # per-call time varies by a fifth, so it takes more samples.
        predict_s, (code, _), repeatable = timed(lambda: self._run(predict_argv), operator.eq,
                                                 budget=3 * TIMING_BUDGET_S)
        checks.check(code == 0 and repeatable, f"predict exited with {code} or differed between calls")
        with open(inputs["scores"], encoding="utf-8") as fh:
            scores = np.array([float(line) for line in fh.read().split()[1:]])
        with open(inputs["model"], encoding="utf-8") as fh:
            text = fh.read()
        model = boost.loads(text)
        t_dumps, dumped, repeatable = timed(lambda: boost.dumps(model), operator.eq)
        checks.check(repeatable, "two dumps calls differ")
        checks.check(dumped + "\n" == text, "dumps(load(file)) differs from the model file")
        t_loads, loaded, _ = timed(lambda: boost.loads(dumped), min_calls=1)
        checks.check(
            np.array_equal(scores, boost.predict(loaded, inputs["test_features"])[:, 0]),
            "the predict command and loads(dumps(model)) score differently",
        )
        nbytes = os.path.getsize(inputs["model"])
        per_model = {"ktboost": {"dumps_s": t_dumps, "loads_s": t_loads}}
        return ServeOutcome(len(scores) / predict_s, t_dumps, t_loads, nbytes, per_model)


WORKLOADS = {w.name: w for w in (SimRace, TreeWide, CliNewton)}
