"""End-to-end command-line flows, exit codes, and artifact determinism."""

import base64
import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktboost import (
    Dataset,
    Ensemble,
    IterationLearners,
    identity_standardizer,
    load,
    load_csv,
    metric,
    predict_proba,
    save,
    write_csv,
)
from ktboost import boost, cli
from ktboost.trees import Tree
from ktboost.cli import main


def run_cli(argv):
    """Invoke the CLI in-process; parser exits surface as their code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _write_regression_csv(path, n=80, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + 0.1 * rng.normal(size=n)
    write_csv(Dataset(x, y, "regression"), path)
    return path


def _write_binary_csv(path, n=80, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(int)
    data = Dataset(x, y, "binary", label_names=("neg", "pos"))
    write_csv(data, path)
    return path


# -------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_usage_errors_exit_one(tmp_path, capsys):
    cases = [
        [],  # no subcommand
        ["train", "--task", "regression", "--out", "m.json"],  # missing --data
        ["train", "--data", "x.csv", "--task", "clustering", "--out", "m.json"],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--rho", "1.0", "--rho-knn", "5"],  # exclusive bandwidth flags
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--nu", "7.0"],  # config validation routed to usage
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--loss", "logistic"],  # loss does not fit the task
        ["simulate", "--n", "0", "--out", str(tmp_path / "s.csv")],
        ["benchmark", "--sim", "--out", str(tmp_path / "b")],  # no --rho
        ["benchmark", "--sim", "--rho", "0.1", "--methods", "bagging",
         "--out", str(tmp_path / "b")],
        ["benchmark", "--data", "x.csv", "--out", str(tmp_path / "b")],  # no --task
        # seeds and float settings are checked before any file is read
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--nystrom", "5", "--seed", "-4"],
        ["simulate", "--n", "5", "--seed", "-1", "--out", str(tmp_path / "s.csv")],
        ["benchmark", "--sim", "--rho", "0.1", "--seed", "-1", "--out", str(tmp_path / "b")],
        ["benchmark", "--data", "x.csv", "--task", "regression", "--seed", "-1",
         "--out", str(tmp_path / "b")],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--learner", "tree", "--lambda", "nan"],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json",
         "--rho", "1.0", "--lambda", "inf"],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json", "--rho", "inf"],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json", "--rho", "1e-300"],
        ["train", "--data", "x.csv", "--task", "regression", "--out", "m.json", "--nu", "nan"],
    ]
    for argv in cases:
        assert run_cli(argv) == 1, argv
        capsys.readouterr()  # drain
    assert not (tmp_path / "b").exists()  # refused before the output directory is made


# Flag values for the fuzz test, as (usable values, odd values). The odd
# ones are signs, zero, NaN, infinities, extremes and text that is no
# number, and flags that the command refuses have only odd values. An
# example draws either usable values only or both kinds, so runs that
# compute are drawn as often as runs that stop at the parser. The sizes
# that set the amount of work (--iterations, --n, --replications,
# --splits, --jobs) stay small either way: every example runs in
# milliseconds and at most two worker processes ever start.
_SWITCH = ([None], [])  # a switch takes no value
_ODD_FLOATS = ["-1", "0", "-0.0", "nan", "inf", "-inf", "1e308", "1e-300", "x"]
_ODD_INTS = ["-4", "-1", "0", "1000000000000", "nan", "1.5"]
_SIZES = (["1", "2", "3"], ["-1", "0", "nan"])
_MODEL_FLAGS = {
    "--iterations": _SIZES, "--nu": (["0.3", "1"], _ODD_FLOATS),
    "--max-depth": (["0", "1", "3"], _ODD_INTS), "--min-leaf": (["1", "3"], _ODD_INTS),
    "--rho": (["0.3", "2"], _ODD_FLOATS), "--rho-knn": (["2", "5"], _ODD_INTS), "--rho-slow": _SWITCH,
    "--lambda": (["0", "1"], _ODD_FLOATS), "--nystrom": (["1", "4"], _ODD_INTS),
    "--seed": (["0", "7"], _ODD_INTS), "--early-stopping": (["1", "2"], _ODD_INTS),
    "--selection": (["damped", "undamped"], ["greedy"]), "--gradient": _SWITCH, "--no-standardize": _SWITCH,
}
_BENCH_FLAGS = {
    **_MODEL_FLAGS, "--replications": _SIZES, "--n": (["2", "5"], _SIZES[1]), "--splits": _SIZES,
    "--jobs": (["1", "2"], ["-1", "0"]), "--fix-nu": (["0.5"], _ODD_FLOATS),
    "--methods": (["tree", "kernel", "tree,ktboost"], ["bagging"]), "--learner": ([], ["tree"]),
}


def _refused(flags: dict, *names) -> dict:
    """``flags`` with the ``names`` flags given odd values only."""
    return {**flags, **{name: ([], sum(flags[name], [])) for name in names}}


def _draw_flags(data, flags: dict, odd: bool, required=()) -> list:
    """The ``required`` flags and up to five others, with drawn values."""
    drawable = sorted(flag for flag, (usable, _) in flags.items() if odd or usable)
    names = list(required) + data.draw(st.lists(st.sampled_from(drawable), unique=True, max_size=5))
    argv = []
    for flag in dict.fromkeys(names):
        usable, odd_values = flags[flag]
        value = data.draw(st.sampled_from(usable + odd_values if odd else usable))
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    _write_regression_csv(path / "regression.csv", n=16)
    _write_binary_csv(path / "binary.csv", n=16)
    return path


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_flag_values_end_in_an_exit_code(fuzz_dir, data):
    csv_path = str(fuzz_dir / data.draw(st.sampled_from(["regression.csv", "binary.csv"])))
    task = data.draw(st.sampled_from(["regression", "binary", "multiclass"]))
    odd = data.draw(st.booleans())
    command = data.draw(st.sampled_from(["train", "simulate", "benchmark --sim", "benchmark --data"]))
    if command == "train":
        argv = ["train", "--data", csv_path, "--task", task, "--out", str(fuzz_dir / "model.json")]
        flags = {**_MODEL_FLAGS, "--validation": ([csv_path], []),
                 "--learner": (["ktboost", "tree", "kernel"], ["forest"])}
        bandwidth = data.draw(st.sampled_from([["--rho"], ["--rho-knn"], ["--rho-slow"], []]))
        argv += _draw_flags(data, flags, odd, required=bandwidth)
    elif command == "simulate":
        argv = ["simulate", "--out", str(fuzz_dir / "sim.csv")]
        argv += _draw_flags(data, {"--n": _SIZES, "--seed": _MODEL_FLAGS["--seed"]}, odd, required=["--n"])
    elif command == "benchmark --sim":
        argv = ["benchmark", "--sim", "--out", str(fuzz_dir / "bench")]
        flags = _refused({**_BENCH_FLAGS, "--task": ([task], [])}, "--task", "--splits", "--fix-nu",
                         "--no-standardize", "--rho-knn", "--rho-slow")
        argv += _draw_flags(data, flags, odd, required=["--iterations", "--replications", "--n", "--rho"])
    else:
        argv = ["benchmark", "--data", csv_path, "--task", task, "--out", str(fuzz_dir / "bench")]
        flags = _refused(_BENCH_FLAGS, "--nu", "--max-depth", "--lambda", "--rho", "--rho-knn",
                         "--rho-slow", "--replications", "--n")
        argv += _draw_flags(data, flags, odd, required=["--iterations", "--splits"])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    assert code in (0, 1, 2, 3), argv


def test_data_errors_exit_two(tmp_path, capsys):
    model = tmp_path / "m.json"
    data = _write_regression_csv(tmp_path / "d.csv")
    assert run_cli(["train", "--data", str(data), "--task", "regression",
                    "--rho", "0.5", "--iterations", "2",
                    "--out", str(model)]) == 0
    capsys.readouterr()
    # missing files
    assert run_cli(["predict", "--model", str(tmp_path / "nope.json"),
                    "--data", str(data), "--out", str(tmp_path / "p.csv")]) == 2
    assert run_cli(["train", "--data", str(tmp_path / "nope.csv"),
                    "--task", "regression", "--rho", "0.5",
                    "--out", str(tmp_path / "m2.json")]) == 2
    # malformed cell
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,target\n1.0,oops\n2.0,3.0\n")
    assert run_cli(["train", "--data", str(bad), "--task", "regression",
                    "--rho", "0.5", "--out", str(tmp_path / "m3.json")]) == 2
    # feature-count mismatch between model and prediction file
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1.0,2.0\n")
    assert run_cli(["predict", "--model", str(model), "--data", str(wide),
                    "--out", str(tmp_path / "p.csv")]) == 2
    # corrupt model document
    half = tmp_path / "half.json"
    half.write_text(model.read_text()[:40])
    assert run_cli(["evaluate", "--model", str(half), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # a benchmark of no replications or no splits has nothing to compare
    assert run_cli(["benchmark", "--sim", "--rho", "0.1", "--replications", "0",
                    "--out", str(tmp_path / "b")]) == 2
    assert run_cli(["benchmark", "--data", str(data), "--task", "regression",
                    "--splits", "0", "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "at least one replication" in err and "at least one split" in err
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_non_finite_standardized_features_exit_two(tmp_path, capsys):
    data = _write_regression_csv(tmp_path / "d.csv")
    model = tmp_path / "m.json"
    assert run_cli(["train", "--data", str(data), "--task", "regression",
                    "--rho", "0.5", "--iterations", "3", "--out", str(model)]) == 0
    # a v3 file that loads: finite, but (x - 1e308) / 1e-3 overflows
    doc = json.loads(model.read_text())
    doc["standardizer"]["means"] = base64.b64encode(np.array([1e308], "<f8").tobytes()).decode()
    doc["standardizer"]["scales"] = base64.b64encode(np.array([1e-3], "<f8").tobytes()).decode()
    extreme = tmp_path / "extreme.json"
    extreme.write_text(json.dumps(doc))
    load(extreme)
    capsys.readouterr()
    out = tmp_path / "p.csv"
    for argv in (
        ["predict", "--model", str(extreme), "--data", str(data), "--has-target", "--out", str(out)],
        ["evaluate", "--model", str(extreme), "--data", str(data)],
    ):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature column 0 overflows" in err, err
        assert "Traceback" not in err


def test_exact_gram_over_limit_exits_two(tmp_path, capsys, monkeypatch):
    from ktboost import kernels

    monkeypatch.setattr(kernels, "EXACT_GRAM_LIMIT_BYTES", 16 * 79 * 79)
    data = _write_regression_csv(tmp_path / "d.csv")
    assert run_cli(["train", "--data", str(data), "--task", "regression",
                    "--rho", "0.5", "--iterations", "2",
                    "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "--nystrom" in err
    assert "Traceback" not in err
    assert run_cli(["train", "--data", str(data), "--task", "regression",
                    "--rho", "0.5", "--iterations", "2", "--nystrom", "10",
                    "--out", str(tmp_path / "m.json")]) == 0


def test_early_stopping_without_validation_exits_two(tmp_path, capsys):
    data = _write_regression_csv(tmp_path / "d.csv")
    out = tmp_path / "m.json"
    argv = ["train", "--data", str(data), "--task", "regression", "--learner", "tree",
            "--iterations", "5", "--early-stopping", "2", "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--early-stopping needs --validation" in err, err
    assert "Traceback" not in err
    assert not out.exists()
    val = _write_regression_csv(tmp_path / "v.csv", n=30, seed=5)
    assert run_cli(argv + ["--validation", str(val)]) == 0
    assert out.exists()


def test_numerical_errors_exit_three(tmp_path, capsys):
    # overflow-scale residuals make the squared risk leave float range
    path = tmp_path / "huge.csv"
    data = Dataset(np.arange(4.0)[:, None],
                   np.array([1e200, -1e200, 1e200, -1e200]), "regression")
    write_csv(data, path)
    with np.errstate(over="ignore"):
        code = run_cli(["train", "--data", str(path), "--task", "regression",
                        "--learner", "tree", "--max-depth", "1",
                        "--iterations", "3", "--no-standardize",
                        "--out", str(tmp_path / "m.json")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def _deep_tree_model(path, depth):
    """Save a regression model whose one tree nests ``depth`` splits leftward.

    Preorder: splits 0..depth-1 down the left spine, the deepest leaf at
    ``depth``, then the right leaves from the bottom split up.
    """
    size = 2 * depth + 1
    spine = np.arange(depth)
    feature = np.full(size, -1, dtype=np.int32)
    feature[spine] = 0
    left = np.full(size, -1, dtype=np.int32)
    left[spine] = spine + 1
    right = np.full(size, -1, dtype=np.int32)
    right[spine] = 2 * depth - spine
    threshold = np.zeros(size)
    threshold[spine] = 0.5
    value = np.zeros(size)
    value[depth] = 1.0
    tree = Tree(feature, threshold, left, right, value, np.ones(size, dtype=np.int32))
    save(Ensemble("regression", "squared", 0.1, [0.0], identity_standardizer(1),
                  [IterationLearners("tree", [tree])]), path)
    return path


def test_model_file_errors_exit_two(tmp_path, capsys):
    data = _write_regression_csv(tmp_path / "d.csv")
    out = tmp_path / "p.csv"
    # a chain 3000 splits deep is an ordinary model now that nothing recurses
    deep = _deep_tree_model(tmp_path / "deep.json", 3000)
    assert run_cli(["predict", "--model", str(deep), "--data", str(data),
                    "--has-target", "--out", str(out)]) == 0
    scores = np.loadtxt(out, skiprows=1)
    x = load_csv(data).features[:, 0]
    assert np.array_equal(scores, np.where(x <= 0.5, 0.1, 0.0))
    # version 1 stored anchors, rho and lambda in every kernel iteration
    v1 = {"format_version": 1, "task": "regression", "loss": "squared", "nu": 0.1,
          "f0": [0.0], "standardizer": {"means": [0.0], "scales": [1.0]},
          "label_map": None,
          "iterations": [{"tag": "kernel", "per_class": [
              {"anchors": [[0.0]], "alpha": [1.0], "rho": 1.0, "lambda": 1.0,
               "mode": "exact"}]}]}
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(v1))
    # version 2 wrote floats as JSON numbers and trees as nested objects
    v2 = {"format_version": 2, "task": "regression", "loss": "squared", "nu": 0.1,
          "f0": [0.0], "standardizer": {"means": [0.0], "scales": [1.0]},
          "label_map": None, "kernel": None,
          "iterations": [{"tag": "tree", "per_class": [{"n": 1, "weight": 1.0}]}]}
    older = tmp_path / "v2.json"
    older.write_text(json.dumps(v2))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000)
    capsys.readouterr()
    for model, message in ((old, "version 1"), (older, "version 2"), (nested, "nests too deeply")):
        assert run_cli(["predict", "--model", str(model), "--data", str(data),
                        "--has-target", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


def test_non_utf8_files_exit_two(tmp_path, capsys):
    data = _write_regression_csv(tmp_path / "d.csv")
    model = tmp_path / "m.json"
    assert run_cli(["train", "--data", str(data), "--task", "regression", "--learner", "tree",
                    "--iterations", "2", "--out", str(model)]) == 0
    bad_model = tmp_path / "bad.json"
    bad_model.write_bytes(b"\xff\xfe")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(data.read_bytes().replace(b"target", b"targ\xffet"))
    capsys.readouterr()
    for argv in (
        ["predict", "--model", str(bad_model), "--data", str(data), "--out", str(tmp_path / "s.csv")],
        ["train", "--data", str(bad_csv), "--task", "regression", "--learner", "tree",
         "--out", str(model)],
        ["predict", "--model", str(model), "--data", str(bad_csv), "--out", str(tmp_path / "s.csv")],
        ["predict", "--model", str(model), "--data", str(bad_csv), "--has-target",
         "--out", str(tmp_path / "s.csv")],
    ):
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err, err
        assert "Traceback" not in err


# ------------------------------------------------------------ round trips


def test_train_predict_evaluate_regression(tmp_path, capsys):
    train_csv = _write_regression_csv(tmp_path / "train.csv", seed=2)
    val_csv = _write_regression_csv(tmp_path / "val.csv", n=40, seed=3)
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    code = run_cli([
        "train", "--data", str(train_csv), "--validation", str(val_csv),
        "--task", "regression", "--rho", "0.3", "--nu", "0.2",
        "--iterations", "30", "--out", str(model), "--trace", str(trace),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["model"] == str(model)
    assert 1 <= summary["selected_iterations"] <= summary["completed_iterations"] == 30
    assert model.exists()

    # trace holds one train and one validation row per iteration
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "method", "value", "replication"]
    assert len(rows) == 1 + 2 * 30

    # evaluating the saved model on its own training data replays the
    # stored train risk at the selected iteration
    assert run_cli(["evaluate", "--model", str(model), "--data", str(train_csv)]) == 0
    evaluation = json.loads(capsys.readouterr().out)
    assert evaluation["n"] == 80
    assert np.isclose(evaluation["risk"], summary["train_risk"], rtol=1e-9)

    # prediction output parses and matches the evaluation metric
    pred = tmp_path / "pred.csv"
    assert run_cli(["predict", "--model", str(model), "--data", str(train_csv),
                    "--has-target", "--out", str(pred)]) == 0
    with open(pred, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["score"]
    scores = np.array([float(r[0]) for r in rows[1:]])
    truth = load_csv(train_csv, task="regression")
    assert np.isclose(
        np.mean((scores - truth.targets) ** 2), evaluation["metric"], rtol=1e-9
    )


def test_train_predict_classification(tmp_path, capsys):
    train_csv = _write_binary_csv(tmp_path / "train.csv")
    model = tmp_path / "model.json"
    assert run_cli(["train", "--data", str(train_csv), "--task", "binary",
                    "--rho", "1.0", "--iterations", "15",
                    "--out", str(model)]) == 0
    capsys.readouterr()
    pred = tmp_path / "pred.csv"
    assert run_cli(["predict", "--model", str(model), "--data", str(train_csv),
                    "--has-target", "--out", str(pred)]) == 0
    with open(pred, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["prob_neg", "prob_pos", "label"]
    probs = np.array([[float(r[0]), float(r[1])] for r in rows[1:]])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert all(r[2] in ("neg", "pos") for r in rows[1:])
    # hard label agrees with the larger probability
    for r in rows[1:]:
        expect = "pos" if float(r[1]) > float(r[0]) else "neg"
        assert r[2] == expect

    assert run_cli(["evaluate", "--model", str(model), "--data", str(train_csv)]) == 0
    evaluation = json.loads(capsys.readouterr().out)
    assert 0.0 <= evaluation["metric"] <= 0.5


@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
def test_predict_command_scores_once(tmp_path, capsys, monkeypatch, task):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 2))
    if task == "regression":
        data = Dataset(x, x[:, 0] + np.sin(x[:, 1]), task)
    elif task == "binary":
        data = Dataset(x, (x[:, 0] > 0).astype(int), task, label_names=("neg", "pos"))
    else:
        y = np.argmax(x @ rng.normal(size=(2, 3)), axis=1)
        data = Dataset(x, y, task, label_names=("a", "b", "c"))
    path, model, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "p.csv"
    write_csv(data, path)
    assert run_cli(["train", "--data", str(path), "--task", task, "--rho", "1.0",
                    "--iterations", "8", "--out", str(model)]) == 0
    capsys.readouterr()
    ensemble = load(model)
    features = load_csv(path, task=task).features
    # expected rows, from the public predict and predict_proba
    expected = io.StringIO()
    writer = csv.writer(expected)
    if task == "regression":
        writer.writerow(["score"])
        writer.writerows([repr(float(v))] for v in boost.predict(ensemble, features)[:, 0])
    else:
        proba = predict_proba(ensemble, features)
        names = ensemble.label_names
        writer.writerow([f"prob_{n}" for n in names] + ["label"])
        for row, label in zip(proba, np.argmax(proba, axis=1)):
            writer.writerow([repr(float(v)) for v in row] + [names[label]])

    calls = []
    real = boost.predict

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(boost, "predict", counting)
    monkeypatch.setattr(cli, "predict", counting)
    assert run_cli(["predict", "--model", str(model), "--data", str(path),
                    "--has-target", "--out", str(out)]) == 0
    assert calls == [(60, 2)]
    with open(out, newline="", encoding="utf-8") as fh:
        assert fh.read() == expected.getvalue()


def test_evaluate_aligns_label_subset(tmp_path, capsys):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(90, 2))
    y = rng.integers(0, 3, 90)
    names = ("alpha", "beta", "gamma")
    write_csv(Dataset(x, y, "multiclass", label_names=names), tmp_path / "train.csv")
    model = tmp_path / "m.json"
    assert run_cli(["train", "--data", str(tmp_path / "train.csv"),
                    "--task", "multiclass", "--rho", "1.0",
                    "--iterations", "5", "--out", str(model)]) == 0
    capsys.readouterr()
    # evaluation file missing the "alpha" class: indices must still align
    keep = y > 0
    write_csv(Dataset(x[keep], y[keep], "multiclass", label_names=names),
              tmp_path / "eval.csv")
    assert run_cli(["evaluate", "--model", str(model),
                    "--data", str(tmp_path / "eval.csv")]) == 0
    evaluation = json.loads(capsys.readouterr().out)
    assert 0.0 <= evaluation["metric"] <= 1.0

    # files holding one class read through the model's or the training
    # file's label map in evaluate, predict --has-target and train --validation
    binary_names = ("no", "yes")
    y_bin = (x[:, 0] > 0).astype(int)
    write_csv(Dataset(x, y_bin, "binary", 2, label_names=binary_names), tmp_path / "bin.csv")
    bin_model = tmp_path / "bin.json"
    assert run_cli(["train", "--data", str(tmp_path / "bin.csv"), "--task", "binary",
                    "--rho", "1.0", "--iterations", "5", "--out", str(bin_model)]) == 0
    capsys.readouterr()
    cases = [("multiclass", model, names, y, 0), ("multiclass", model, names, y, 2),
             ("binary", bin_model, binary_names, y_bin, 1)]
    for task, path, labels, targets, label in cases:
        keep = targets == label
        one = tmp_path / f"one_{task}_{label}.csv"
        write_csv(Dataset(x[keep], targets[keep], task, len(labels), label_names=labels), one)
        with open(one, newline="") as fh:
            assert {row[-1] for row in list(csv.reader(fh))[1:]} == {labels[label]}
        assert run_cli(["evaluate", "--model", str(path), "--data", str(one)]) == 0
        evaluation = json.loads(capsys.readouterr().out)
        ensemble = load(path)
        scores = boost.predict(ensemble, x[keep])
        assert evaluation["n"] == keep.sum()
        assert evaluation["metric"] == metric(task, targets[keep], scores)
        out = tmp_path / "one_pred.csv"
        assert run_cli(["predict", "--model", str(path), "--data", str(one),
                        "--has-target", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == keep.sum() + 1
        train_csv = tmp_path / ("train.csv" if task == "multiclass" else "bin.csv")
        assert run_cli(["train", "--data", str(train_csv), "--validation", str(one),
                        "--task", task, "--rho", "1.0", "--iterations", "5",
                        "--out", str(tmp_path / "v.json")]) == 0
        capsys.readouterr()


def test_model_without_label_map_reads_integer_labels(tmp_path, capsys):
    # fitted through the API on integer targets: the model has no label map,
    # and write_csv writes the classes as "0".."10", which must not be read
    # in lexicographic order ("10" before "2")
    rng = np.random.default_rng(14)
    y = np.repeat(np.arange(11), 6)
    x = (y + rng.uniform(-0.2, 0.2, y.size))[:, None]
    data = Dataset(x, y, "multiclass")
    ensemble, _ = boost.fit(data, boost.BoostConfig(iterations=10, nu=0.5, learner="tree",
                                                    max_depth=4))
    assert ensemble.label_names is None
    model, path, out = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / "p.csv"
    save(ensemble, model)
    write_csv(data, path)
    expected = metric("multiclass", y, boost.predict(ensemble, x))
    assert expected == 0.0
    assert run_cli(["evaluate", "--model", str(model), "--data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["metric"] == expected
    assert run_cli(["predict", "--model", str(model), "--data", str(path),
                    "--has-target", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"prob_{k}" for k in range(11)] + ["label"]
    assert [row[-1] for row in rows[1:]] == [str(k) for k in y]
    # a label outside "0".."10" is a data error
    path.write_text(path.read_text().replace(",10\n", ",11\n"))
    assert run_cli(["evaluate", "--model", str(model), "--data", str(path)]) == 2
    capsys.readouterr()


def test_target_column_by_name(tmp_path, capsys):
    path = tmp_path / "named.csv"
    path.write_text("y,x0\n" + "\n".join(
        f"{v},{i / 10}" for i, v in enumerate([1.0, 2.0, 1.5, 2.5, 1.2, 2.2,
                                               1.7, 2.7, 1.4, 2.4])
    ) + "\n")
    model = tmp_path / "m.json"
    assert run_cli(["train", "--data", str(path), "--task", "regression",
                    "--target-column", "y", "--learner", "tree",
                    "--iterations", "3", "--out", str(model)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["completed_iterations"] == 3


# ------------------------------------------------------------ determinism


def test_simulate_is_seed_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run_cli(["simulate", "--n", "50", "--seed", "7", "--out", str(a)]) == 0
    assert run_cli(["simulate", "--n", "50", "--seed", "7", "--out", str(b)]) == 0
    assert run_cli(["simulate", "--n", "50", "--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    data = load_csv(a, task="regression")
    assert data.n_samples == 50 and data.n_features == 1


def test_train_artifacts_are_deterministic(tmp_path, capsys):
    train_csv = _write_regression_csv(tmp_path / "train.csv", seed=5)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    argv = ["train", "--data", str(train_csv), "--task", "regression",
            "--rho", "0.4", "--iterations", "10"]
    assert run_cli(argv + ["--out", str(m1)]) == 0
    out1 = capsys.readouterr().out.replace(str(m1), "MODEL")
    assert run_cli(argv + ["--out", str(m2)]) == 0
    out2 = capsys.readouterr().out.replace(str(m2), "MODEL")
    assert m1.read_bytes() == m2.read_bytes()
    assert out1 == out2


def test_benchmark_sim_mode_artifacts(tmp_path, capsys):
    out1 = tmp_path / "run1"
    argv = ["benchmark", "--sim", "--replications", "2", "--n", "30",
            "--iterations", "4", "--rho", "0.1", "--gradient",
            "--methods", "tree,kernel", "--seed", "3"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary["mean_test_mse"]) == {"tree", "kernel"}
    assert "pointwise_mean_0_to_0.5" in summary
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert len(manifest) == 4  # methods x replications
    assert {r["method"] for r in manifest} == {"tree", "kernel"}
    assert (out1 / "comparison.csv").exists()
    with open(out1 / "pointwise.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "method", "value", "replication"]
    assert len(rows) == 1 + 2 * 501

    # reruns are byte-identical
    out2 = tmp_path / "run2"
    assert run_cli(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("manifest.json", "comparison.csv", "pointwise.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_benchmark_data_mode(tmp_path, capsys):
    data_csv = _write_regression_csv(tmp_path / "d.csv", n=60, seed=6)
    out = tmp_path / "bench"
    code = run_cli(["benchmark", "--data", str(data_csv), "--task", "regression",
                    "--methods", "tree", "--splits", "2", "--fix-nu", "0.5",
                    "--iterations", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "tree" in summary["mean_test_metric"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 2  # splits x methods
    assert all(r["dataset"] == "d.csv" for r in manifest)
    assert all(r["config"]["nu"] == 0.5 for r in manifest)
    assert (out / "comparison.csv").exists()


def test_benchmark_data_mode_keeps_its_flags(tmp_path, capsys):
    data_csv = _write_regression_csv(tmp_path / "d.csv", n=60, seed=6)
    out = tmp_path / "bench"
    assert run_cli(["benchmark", "--data", str(data_csv), "--task", "regression",
                    "--methods", "tree,kernel", "--splits", "2", "--fix-nu", "0.5",
                    "--iterations", "5", "--selection", "undamped", "--min-leaf", "2",
                    "--gradient", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 4
    for row in manifest:
        config = row["config"]
        assert config["selection"] == "undamped"
        assert (config["min_samples_leaf"], config["newton"]) == (2, False)
        assert config["learner"] == row["method"]


def test_benchmark_refuses_flags_its_mode_ignores(tmp_path, capsys):
    data_csv = _write_regression_csv(tmp_path / "d.csv", n=30)
    out = tmp_path / "bench"
    data_mode = ["benchmark", "--data", str(data_csv), "--task", "regression", "--methods", "tree",
                 "--splits", "1", "--iterations", "2", "--out", str(out)]
    sim_mode = ["benchmark", "--sim", "--rho", "0.1", "--methods", "tree", "--replications", "1",
                "--n", "20", "--iterations", "2", "--out", str(out)]
    # the grid sets nu, depth, lambda and the bandwidth; --sim flags size the study
    for flags in (["--nu", "0.5"], ["--max-depth", "3"], ["--lambda", "5"], ["--rho", "0.5"],
                  ["--rho-knn", "3"], ["--rho-slow"], ["--replications", "3"], ["--n", "50"],
                  ["--learner", "tree"]):
        assert run_cli(data_mode + flags) == 1, flags
    # the study races the --methods learners on unstandardized draws
    for flags in (["--learner", "tree"], ["--no-standardize"], ["--task", "regression"],
                  ["--splits", "3"], ["--fix-nu", "0.1"]):
        assert run_cli(sim_mode + flags) == 1, flags
    err = capsys.readouterr().err
    assert "--data mode takes no --nu" in err and "--sim mode takes no --task" in err
    assert not out.exists()


def test_benchmark_sim_manifest_records_the_fitted_config(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run_cli(["benchmark", "--sim", "--replications", "2", "--n", "30",
                    "--iterations", "6", "--rho", "0.1", "--max-depth", "1",
                    "--min-leaf", "3", "--early-stopping", "2", "--selection", "undamped",
                    "--methods", "tree,kernel", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 4
    for row in manifest:
        expected = boost.BoostConfig(iterations=6, learner=row["method"], max_depth=1,
                                     min_samples_leaf=3, rho=0.1, seed=4,
                                     selection="undamped", standardize=False,
                                     early_stopping_rounds=2)
        assert row["config"] == dataclasses.asdict(expected)


def test_iteration_defaults(tmp_path, capsys, monkeypatch):
    """train runs BoostConfig's 100 rounds; both benchmark modes cap at 1000."""
    data_csv = _write_regression_csv(tmp_path / "d.csv", n=40)
    assert run_cli(["train", "--data", str(data_csv), "--task", "regression", "--learner", "tree",
                    "--out", str(tmp_path / "m.json")]) == 0
    assert json.loads(capsys.readouterr().out)["completed_iterations"] == 100

    class Reached(Exception):
        pass

    seen = {}

    def capture(name):
        def run(*args, **kwargs):
            seen[name] = (args, kwargs)
            raise Reached
        return run

    monkeypatch.setattr(cli, "run_split_benchmark", capture("data"))
    monkeypatch.setattr(cli, "run_simulation_study", capture("sim"))
    for argv in (["--data", str(data_csv), "--task", "regression"],
                 ["--data", str(data_csv), "--task", "regression", "--fix-nu", "0.5"],
                 ["--sim", "--rho", "0.1"]):
        with pytest.raises(Reached):
            main(["benchmark", *argv, "--out", str(tmp_path / "bench")])
        if argv[0] == "--data":
            assert seen["data"][1]["grid"].max_iterations == 1000
    assert seen["data"][1]["grid"].nus == (0.5,)
    (config,), _ = seen["sim"]
    assert config.iterations == 1000
