"""Command-line front end: train, predict, evaluate, simulate, benchmark.

Exit codes partition failures: 1 for usage errors (bad flags or flag
combinations, reported before any computation), 2 for data problems
(unreadable files, malformed CSV or model documents, mismatched shapes),
and 3 for numerical failures (diverging risk, factorization breakdown).
All randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .bench import (
    METHODS,
    GridSpec,
    SimFunction,
    build_comparison,
    comparison_csv,
    comparison_sign_tests,
    emit_traces,
    fit_report_rows,
    metric,
    rows_to_results,
    run_simulation_study,
    run_split_benchmark,
    simulate,
)
from .boost import (
    LEARNER_CHOICES,
    SELECTION_MODES,
    BoostConfig,
    empirical_risk,
    fit,
    load,
    predict,
    proba_from_scores,
    save,
    truncate,
)
from .data import TASKS, load_csv, load_features, write_csv
from .errors import DataError, NumericalError
from .losses import for_task


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """Flags for BoostConfig's fields. An unset flag reads None, so BoostConfig's default applies."""
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--newton", dest="newton", action="store_true", default=True,
                      help="second-order fitting (default)")
    mode.add_argument("--gradient", dest="newton", action="store_false",
                      help="first-order fitting with unit Hessians")
    p.add_argument("--iterations", type=int)
    p.add_argument("--nu", type=float, help="shrinkage in (0, 1]")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-leaf", type=int)
    rho = p.add_mutually_exclusive_group()
    rho.add_argument("--rho", type=float, help="explicit kernel bandwidth")
    rho.add_argument("--rho-knn", type=int, metavar="K",
                     help="bandwidth from the mean K-nearest-neighbor distance")
    rho.add_argument("--rho-slow", action="store_true", default=None,
                     help="bandwidth from the all-pairs mean distance")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--nystrom", type=int, metavar="L",
                   help="low-rank kernel approximation from L sampled rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--selection", choices=SELECTION_MODES)
    p.add_argument("--early-stopping", type=int, metavar="R",
                   help="stop after R iterations without validation improvement")
    p.add_argument("--no-standardize", action="store_true", default=None,
                   help="skip per-feature standardization")


def _given(**values) -> dict:
    """The values whose flags were given: an unset flag reads None."""
    return {name: value for name, value in values.items() if value is not None}


def _boost_config(args, **fields) -> BoostConfig:
    """BoostConfig of the model flags plus ``fields``, an invalid setting reported as a usage error."""
    rho_mode = "decay01" if args.rho_knn is not None else "slow" if args.rho_slow else None
    try:
        return BoostConfig(**_given(
            iterations=args.iterations,
            nu=args.nu,
            newton=args.newton,
            max_depth=args.max_depth,
            min_samples_leaf=args.min_leaf,
            rho=args.rho,
            rho_mode=rho_mode,
            rho_knn=args.rho_knn,
            lam=args.lam,
            nystrom=args.nystrom,
            seed=args.seed,
            selection=args.selection,
            standardize=not args.no_standardize,
            early_stopping_rounds=args.early_stopping,
            **fields,
        ))
    except DataError as exc:
        args.parser.error(str(exc))


# Flags that only one benchmark mode reads; the other mode refuses them.
_SIM_ONLY_FLAGS = {"replications": "--replications", "n": "--n", "nu": "--nu",
                   "max_depth": "--max-depth", "lam": "--lambda", "rho": "--rho",
                   "rho_knn": "--rho-knn", "rho_slow": "--rho-slow"}
_DATA_ONLY_FLAGS = {"task": "--task", "splits": "--splits", "fix_nu": "--fix-nu",
                    "no_standardize": "--no-standardize"}


def build_parser() -> _Parser:
    parser = _Parser(prog="ktboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a CSV file")
    p_train.add_argument("--data", required=True, help="training CSV, target last")
    p_train.add_argument("--validation", help="validation CSV for iteration tuning")
    p_train.add_argument("--task", required=True, choices=TASKS)
    p_train.add_argument("--loss", choices=("squared", "logistic", "softmax"),
                         help="must agree with the task; informational")
    p_train.add_argument("--target-column", default=None,
                         help="target name or index (default: last column)")
    p_train.add_argument("--learner", choices=LEARNER_CHOICES, default="ktboost")
    _add_model_flags(p_train)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--trace", help="per-iteration risk CSV")
    p_train.set_defaults(func=cmd_train, parser=p_train)

    p_pred = sub.add_parser("predict", help="score a CSV with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="feature CSV")
    p_pred.add_argument("--has-target", action="store_true",
                        help="the file's last column is a target to skip")
    p_pred.add_argument("--out", required=True, help="predictions CSV")
    p_pred.set_defaults(func=cmd_predict, parser=p_pred)

    p_eval = sub.add_parser("evaluate", help="risk and metric of a model on labeled data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True, help="labeled CSV, target last")
    p_eval.set_defaults(func=cmd_evaluate, parser=p_eval)

    p_sim = sub.add_parser("simulate", help="write a draw of the jump simulation")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate, parser=p_sim)

    p_bench = sub.add_parser("benchmark", help="multi-method comparison harness")
    source = p_bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--sim", action="store_true",
                        help="run the jump-simulation study")
    source.add_argument("--data", help="dataset CSV for the repeated-split protocol")
    p_bench.add_argument("--task", choices=TASKS, help="task for --data mode")
    p_bench.add_argument("--methods", default=",".join(METHODS),
                         help="comma-separated subset of ktboost,tree,kernel")
    p_bench.add_argument("--replications", type=int,
                         help="simulation draws in --sim mode")
    p_bench.add_argument("--n", type=int,
                         help="rows per simulated split in --sim mode")
    p_bench.add_argument("--splits", type=int,
                         help="random splits in --data mode")
    p_bench.add_argument("--fix-nu", type=float,
                         help="restrict the shrinkage grid axis to one value")
    _add_model_flags(p_bench)
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    p_bench.add_argument("--out", required=True, help="output directory")
    # Both modes default to 1000 rounds, the grid's cap, where train keeps BoostConfig's 100.
    p_bench.set_defaults(func=cmd_benchmark, parser=p_bench, iterations=1000)

    return parser


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def cmd_train(args) -> int:
    expected_loss = {"regression": "squared", "binary": "logistic", "multiclass": "softmax"}
    if args.loss is not None and args.loss != expected_loss[args.task]:
        args.parser.error(f"--loss {args.loss} does not fit --task {args.task}")
    config = _boost_config(args, learner=args.learner)
    if config.early_stopping_rounds is not None and not args.validation:
        raise DataError("--early-stopping needs --validation")
    target = args.target_column if args.target_column is not None else -1
    if isinstance(target, str) and target.lstrip("-").isdigit():
        target = int(target)
    train = load_csv(args.data, target_column=target, task=args.task)
    validation = None
    if args.validation:
        validation = load_csv(args.validation, target_column=target, task=args.task,
                              labels=train.label_names)
    ensemble, report = fit(train, config, validation)
    completed = ensemble.n_iterations
    if validation is not None and report.best_iteration < completed:
        ensemble = truncate(ensemble, report.best_iteration)
    save(ensemble, args.out)
    if args.trace:
        emit_traces(fit_report_rows(report), args.trace)
    selected = report.best_iteration if validation is not None else completed
    summary = {
        "completed_iterations": completed,
        "selected_iterations": selected,
        "train_risk": report.train_risk[selected - 1] if selected else report.initial_risk,
        "final_train_risk": report.train_risk[-1],
        "model": args.out,
    }
    print(_canonical_json(summary))
    return 0


def _label_names(ensemble) -> tuple[str, ...] | None:
    """A classifier's class names: its label map, else "0".."d-1" as write_csv writes them."""
    if ensemble.task == "regression":
        return None
    n_classes = 2 if ensemble.task == "binary" else ensemble.n_outputs
    return ensemble.label_names or tuple(str(k) for k in range(n_classes))


def cmd_predict(args) -> int:
    ensemble = load(args.model)
    if args.has_target:
        features = load_csv(args.data, task=ensemble.task, labels=_label_names(ensemble)).features
    else:
        features, _ = load_features(args.data)
    scores = predict(ensemble, features)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if ensemble.task == "regression":
            writer.writerow(["score"])
            for v in scores[:, 0]:
                writer.writerow([repr(float(v))])
        else:
            proba = proba_from_scores(ensemble.task, scores)
            names = _label_names(ensemble)
            writer.writerow([f"prob_{n}" for n in names] + ["label"])
            labels = np.argmax(proba, axis=1)
            for i in range(proba.shape[0]):
                row = [repr(float(v)) for v in proba[i]]
                row.append(names[labels[i]])
                writer.writerow(row)
    return 0


def cmd_evaluate(args) -> int:
    ensemble = load(args.model)
    data = load_csv(args.data, task=ensemble.task, labels=_label_names(ensemble))
    scores = predict(ensemble, data.features)
    loss = for_task(ensemble.task, ensemble.n_outputs if ensemble.task == "multiclass" else 0)
    out = {
        "n": data.n_samples,
        "risk": empirical_risk(loss, data.targets, scores),
        "metric": metric(ensemble.task, data.targets, scores),
    }
    print(_canonical_json(out))
    return 0


def cmd_simulate(args) -> int:
    if args.n < 1:
        args.parser.error("--n must be at least 1")
    if args.seed < 0:
        args.parser.error("--seed must be nonnegative")
    s_sim, s_data = np.random.SeedSequence(args.seed).spawn(2)
    sim = SimFunction.from_seed(s_sim)
    write_csv(simulate(sim, args.n, s_data), args.out)
    return 0


def _parse_methods(args) -> tuple:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods or any(m not in METHODS for m in methods):
        args.parser.error(f"--methods must be a subset of {','.join(METHODS)}")
    return methods


def cmd_benchmark(args) -> int:
    methods = _parse_methods(args)
    if args.jobs < 1:
        args.parser.error("--jobs must be at least 1")
    ignored = _DATA_ONLY_FLAGS if args.sim else _SIM_ONLY_FLAGS
    given = [flag for dest, flag in ignored.items() if getattr(args, dest) is not None]
    if given:
        args.parser.error(f"{'--sim' if args.sim else '--data'} mode takes no {', '.join(given)}")
    if args.sim and args.rho is None:
        args.parser.error("--sim mode needs an explicit --rho")
    if not args.sim and args.task is None:
        args.parser.error("--data mode needs --task")
    # In --data mode the grid tunes nu, depth, lambda and the bandwidth; the
    # tree learner validates without a bandwidth.
    config = _boost_config(args) if args.sim else _boost_config(args, learner="tree")
    os.makedirs(args.out, exist_ok=True)
    manifest_path = os.path.join(args.out, "manifest.json")
    table_path = os.path.join(args.out, "comparison.csv")

    if args.sim:
        study = run_simulation_study(
            config,
            methods=methods,
            master_seed=args.seed,
            jobs=args.jobs,
            **_given(replications=args.replications, n=args.n),
        )
        rows = study.manifest_rows()
        emit_traces(study.pointwise_rows(), os.path.join(args.out, "pointwise.csv"), x_label="x")
        summary = {
            "mean_test_mse": {m: float(np.mean(study.test_mse[m])) for m in methods},
            "pointwise_mean_0_to_0.5": {m: study.region_mean(m, 0.0, 0.5) for m in methods},
            "pointwise_mean_0.6_to_1": {m: study.region_mean(m, 0.6, 1.0) for m in methods},
        }
    else:
        dataset = load_csv(args.data, task=args.task)
        grid = GridSpec(max_iterations=config.iterations)
        if args.fix_nu is not None:
            grid = GridSpec(nus=(args.fix_nu,), max_iterations=config.iterations)
        rows = run_split_benchmark(
            dataset,
            os.path.basename(args.data),
            methods=methods,
            grid=grid,
            master_seed=args.seed,
            jobs=args.jobs,
            base=config,
            **_given(splits=args.splits),
        )
        summary = {
            "mean_test_metric": {
                m: float(np.mean([r["test_metric"] for r in rows if r["method"] == m]))
                for m in methods
            }
        }

    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(_canonical_json(rows))
        fh.write("\n")
    table = build_comparison(rows_to_results(rows), methods=list(methods))
    comparison_csv(table, table_path)
    if len(methods) > 1 and len(table.datasets) > 1:
        summary["sign_tests_vs_" + methods[0]] = {
            m: {"wins_losses": list(wl), "holm_p": p}
            for m, (wl, p) in comparison_sign_tests(table, methods[0]).items()
        }
    summary["out"] = args.out
    print(_canonical_json(summary))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
