"""ktboost benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-race --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

The run generates the workload's inputs from --seed, repeats the
workload's fit and serve phases until --seconds have passed (at least
once), checks every output and prints one line per metric followed by a
JSON result as the last line. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced repetitions, reports per-layer
metrics from the traced ones and writes the spans under .perfbench_out/.
Every duration is CPU seconds of the process (see workloads.py), and
setup_s those of fresh processes; --seconds is wall time.
--smoke runs every workload at reduced size in both modes and asserts
that each metric named in BENCHMARK.json is printed with its unit.

The library is imported from src/ of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One BLAS thread: on a small shared machine a second thread makes the
# kernel solves' timings jitter more than it speeds them up, and results do
# not depend on the core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOAD_NAMES = ("sim-race", "tree-wide", "cli-newton")
SETUP_REPEATS = {"full": 3, "smoke": 1}
REFERENCE_TOLERANCE = 1e-8  # relative, on test_metric

END_TO_END = {
    "fit_s": "s",
    "iter_ms_p50": "ms",
    "predict_rows_per_s": "rows/s",
    "dumps_s": "s",
    "loads_s": "s",
    "model_mb": "MB",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
# Per-layer metrics beyond calls/s/self_s and the span counters.
DERIVED_UNITS = {
    "trees.best_split.ns_per_row": "ns",
    "boost.iterations": "count",
    "boost.kernel_admit_ratio": "ratio",
    "boost.tree_admit_ratio": "ratio",
    "boost.model_bytes": "B",
    "trace.overhead_s": "s",
}
COUNTER_UNITS = {"rows": "count", "failed": "count", "flops": "flop", "entries": "count"}
# Counts computed from input shapes and the model, which repeat exactly.
COMPUTED = ("kernels.cholesky.flops", "kernels.kernel_matrix.entries", "trees.best_split.rows",
            "boost.model_bytes", "boost.iterations")


def per_layer_units() -> dict[str, str]:
    from spans import COUNTERS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for counter in COUNTERS.get(name, ()):
            units[f"{name}.{counter}"] = COUNTER_UNITS[counter]
    units.update(DERIVED_UNITS)
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_REPEATS), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import the library and generate the inputs, then exit")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at reduced size and check the printed metrics")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(args) -> dict:
    import numpy as np
    import scipy

    from ktboost import split_backend_name

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "split_backend": split_backend_name(),
        "git_commit": git_commit(),
    }


def make_workdir(tag: str) -> Path:
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(args) -> int:
    """Import the library and build the inputs; the parent times this process."""
    from workloads import WORKLOADS

    workdir = make_workdir("probe")
    try:
        WORKLOADS[args.workload](args.size).make_inputs(args.seed, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> list[float]:
    """CPU seconds from process start to ready inputs, in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS[args.size]):
        started = children_cpu_s()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
            check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
        samples.append(children_cpu_s() - started)
    return samples


def load_reference(workload: str, seed: int, size: str):
    if size != "full":
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["workloads"].get(workload, {}).get(str(seed))


def verify_fits(outcome, reference, checks) -> None:
    """Each fit beats the best constant and, where recorded, matches the seed commit."""
    from workloads import reference_entry

    for name, fit in outcome.fits.items():
        value = fit["test_metric"]
        checks.check(  # NaN fails the comparison too
            value < outcome.baseline_metric[name],
            f"{name}: test_metric {value} does not beat the constant "
            f"predictor's {outcome.baseline_metric[name]}",
        )
        if reference is None:
            continue
        want = reference[name]
        got = reference_entry(fit)
        checks.check(
            got["chosen_sha256"] == want["chosen_sha256"],
            f"{name}: chosen-learner sequence differs from the reference "
            f"({got['kernel_wins']} kernel wins of {got['iterations']}, "
            f"reference {want['kernel_wins']} of {want['iterations']})",
        )
        checks.check(
            abs(value - want["test_metric"]) <= REFERENCE_TOLERANCE * abs(want["test_metric"]),
            f"{name}: test_metric {value!r} differs from the reference {want['test_metric']!r}",
        )


def run_rep(workload, inputs, checks, reference, tracer=None, run=0):
    from workloads import cpu_clock

    scope = tracer.instrument(run) if tracer is not None else contextlib.nullcontext()
    with cpu_clock(), scope:
        fitted = workload.fit(inputs)
        served = workload.serve(inputs, fitted, checks)
    verify_fits(fitted, reference, checks)
    fitted.models.clear()
    return fitted, served


def admit_ratio(reports, tag: str) -> float:
    """Candidates of one learner type admitted / fitted; 0 when none was fitted."""
    fitted = admitted = 0
    for learner, report in reports:
        if learner in ("ktboost", tag):
            fitted += len(report.chosen)
            admitted += report.chosen.count(tag)
    return admitted / fitted if fitted else 0.0


def layer_metrics(tracer, run: int, fitted, served) -> dict[str, float]:
    values = tracer.layer_totals(run)
    rows = values["trees.best_split.rows"]
    values["trees.best_split.ns_per_row"] = values["trees.best_split.s"] * 1e9 / rows if rows else 0.0
    values["boost.iterations"] = float(sum(len(r.seconds) for _, r in fitted.reports))
    values["boost.kernel_admit_ratio"] = admit_ratio(fitted.reports, "kernel")
    values["boost.tree_admit_ratio"] = admit_ratio(fitted.reports, "tree")
    values["boost.model_bytes"] = float(served.model_bytes)
    return values


def span_checks(workload: str, tracer, run: int, values: dict, fitted, served) -> list[str]:
    """What the spans say about the reason each workload was chosen."""
    lines = []
    fit_s = values["boost.fit.s"]
    tree_s = tracer.seconds_within(run, "boost.fit", "trees.")
    kernel_calls = sum(v for k, v in values.items() if k.startswith("kernels.") and k.endswith(".calls"))
    lines.append(f"trees.* share of boost.fit = {tree_s / fit_s if fit_s else 0.0:.4f}")
    lines.append(f"kernels.* calls = {kernel_calls:.0f}")
    kernel_iters = sum(len(r.seconds) for learner, r in fitted.reports if learner in ("ktboost", "kernel"))
    kernel_fits = sum(1 for learner, _ in fitted.reports if learner in ("ktboost", "kernel"))
    lines.append(f"kernels.cholesky.calls per kernel iteration = "
                 f"{values['kernels.cholesky.calls'] / kernel_iters if kernel_iters else 0.0:.4f}")
    lines.append(f"kernels.cholesky.calls per kernel fit = "
                 f"{values['kernels.cholesky.calls'] / kernel_fits if kernel_fits else 0.0:.4f}")
    if workload == "sim-race":
        kernel = served.per_model["kernel"]
        lines.append(f"kernel-only model dumps+loads / fit = "
                     f"{(kernel['dumps_s'] + kernel['loads_s']) / fitted.fits['kernel']['fit_s']:.4f}")
    return lines


def fmt(value: float) -> str:
    return repr(float(value))


def measure(args) -> int:
    setup_samples = time_setup(args) if args.trace == 0 else []

    from spans import Tracer
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload](args.size)
    workdir = make_workdir("work")
    try:
        inputs = workload.make_inputs(args.seed, str(workdir))
        reference = load_reference(args.workload, args.seed, args.size)
        checks = Checks()
        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        started, cpu_started = time.perf_counter(), time.process_time()
        last = 0.0
        while not plain or time.perf_counter() - started + last / 2 < args.seconds:
            t0 = time.perf_counter()
            plain.append(run_rep(workload, inputs, checks, reference))
            if tracer is not None:
                traced.append(run_rep(workload, inputs, checks, reference, tracer, len(traced)))
            last = time.perf_counter() - t0
        wall_s, cpu_s = time.perf_counter() - started, time.process_time() - cpu_started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(f"repetitions {len(plain)} untraced, {len(traced)} traced")
    # Timings are CPU seconds; this shows how much of the wall time the
    # process got to run.
    print(f"report measured_wall_s = {fmt(wall_s)} s; measured_cpu_s = {fmt(cpu_s)} s")
    iter_ms = sorted(s * 1e3 for fitted, _ in plain for _, r in fitted.reports for s in r.seconds)
    for model in plain[0][0].fits:
        values = [fitted.fits[model]["test_metric"] for fitted, _ in plain]
        print(f"report test_metric.{model} = {fmt(statistics.median(values))} 1"
              f" (reference {'checked' if reference else 'not recorded for this seed and size'})")
    print(f"report fail_rate = {fmt(checks.failed / checks.attempted)} 1"
          f" ({checks.failed} of {checks.attempted})")
    if len(iter_ms) >= 100:
        print(f"report iter_ms_p90 = {fmt(statistics.quantiles(iter_ms, n=10)[-1])} ms (n={len(iter_ms)})")
    else:
        print(f"report iter_ms_p90 omitted: {len(iter_ms)} iterations, fewer than 100")
    for note in checks.notes:
        print(f"check FAILED: {note}")

    if args.trace == 0:
        metrics = {
            "fit_s": statistics.median(f.fit_s for f, _ in plain),
            "iter_ms_p50": statistics.median(iter_ms),
            "predict_rows_per_s": statistics.median(s.predict_rows_per_s for _, s in plain),
            "dumps_s": statistics.median(s.dumps_s for _, s in plain),
            "loads_s": statistics.median(s.loads_s for _, s in plain),
            "model_mb": statistics.median(s.model_bytes for _, s in plain) / 1e6,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
        }
        units = END_TO_END
        print(f"report iter_ms_p50 samples = {len(iter_ms)}; setup_s samples = "
              + ", ".join(fmt(s) for s in setup_samples))
    else:
        units = per_layer_units()
        per_run = [layer_metrics(tracer, run, f, s) for run, (f, s) in enumerate(traced)]
        metrics = {name: statistics.median(v[name] for v in per_run) for name in units
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(f.fit_s for f, _ in traced)
                                       - statistics.median(f.fit_s for f, _ in plain))
        final = len(traced) - 1
        for line in span_checks(args.workload, tracer, final, per_run[final], *traced[final]):
            print("span-check " + line)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path), provenance(args))
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"metric {name} = {fmt(metrics[name])} {unit}{label}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload at reduced size, both modes; every named metric with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
                capture_output=True, text=True, timeout=170,
            )
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    parts = line.split()
                    printed[parts[1]] = parts[4] if len(parts) > 4 else ""
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: result metrics {units} differ from BENCHMARK.json")
            if printed != expected[trace]:
                problems.append(f"{where}: printed metric lines {printed} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed\n{done.stdout}")
            print(f"smoke {where}: {len(units)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")
    for problem in problems:
        print("SMOKE FAILED: " + problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ktboost" / "__init__.py").is_file():
        print(f"error: no ktboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
