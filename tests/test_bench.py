"""Simulation generator, metrics, rank statistics, and the tuning sweeps."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ktboost import (
    BoostConfig,
    DataError,
    Dataset,
    GridSpec,
    NumericalError,
    SimFunction,
    build_comparison,
    comparison_sign_tests,
    emit_traces,
    fit,
    friedman_chi_square,
    friedman_iman_davenport,
    grid_search,
    holm_bonferroni,
    identity_standardizer,
    metric,
    rank_methods,
    run_simulation_study,
    run_split_benchmark,
    sign_test_holm,
    sign_test_p,
    simulate,
)
from ktboost.bench import GRID_BASE, comparison_csv, fit_report_rows, rows_to_results
from ktboost.boost import Ensemble
from oracles import pointwise_mse


# ------------------------------------------------------------- simulation


def test_sim_function_validation():
    with pytest.raises(DataError):
        SimFunction(np.array([0.1, 0.2]), np.array([1.0]))
    with pytest.raises(DataError):
        SimFunction(np.array([0.7]), np.array([1.0]))  # jump outside [0, 0.5]
    with pytest.raises(DataError):
        SimFunction(np.array([0.1]), np.array([1.0]), noise_sd=-1.0)


def test_sim_function_truth_decomposition():
    sim = SimFunction(np.array([0.1, 0.3]), np.array([2.0, 4.0]), 0.0)
    x = np.array([0.05, 0.2, 0.4, 1.0])
    steps = sim.truth(x) - np.sin(8.0 * np.pi * x)
    # cumulated jump sizes: none, first, both, both
    assert np.allclose(steps, [0.0, 2.0, 6.0, 6.0], atol=1e-12)
    # jumps are strict: x exactly at a location takes the left value
    assert np.isclose(sim.truth(np.array([0.1]))[0] - np.sin(0.8 * np.pi), 0.0)


def test_sim_function_from_seed_ranges():
    sim = SimFunction.from_seed(42)
    assert sim.jump_locations.shape == (5,)
    assert np.all((sim.jump_locations >= 0) & (sim.jump_locations <= 0.5))
    assert np.all((sim.jump_sizes >= 0) & (sim.jump_sizes <= 5.0))
    again = SimFunction.from_seed(42)
    assert np.array_equal(sim.jump_locations, again.jump_locations)
    assert np.array_equal(sim.jump_sizes, again.jump_sizes)


def test_simulate_determinism_and_ranges():
    sim = SimFunction.from_seed(0)
    a = simulate(sim, 200, data_seed=7)
    b = simulate(sim, 200, data_seed=7)
    c = simulate(sim, 200, data_seed=8)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)
    assert a.features.shape == (200, 1)
    assert np.all((a.features >= 0) & (a.features <= 1))
    with pytest.raises(DataError):
        simulate(sim, 0, data_seed=0)


def test_simulate_noise_level():
    sim = SimFunction.from_seed(1)
    data = simulate(sim, 100_000, data_seed=2)
    residual = data.targets - sim.truth(data.features[:, 0])
    assert abs(np.std(residual) - 0.25) < 0.005
    assert abs(np.mean(residual)) < 0.005


def test_pointwise_mse_closed_form():
    # jump-free target plus a constant-zero model: error is sin^2
    sim = SimFunction(np.array([]), np.array([]), 0.0)
    model = Ensemble("regression", "squared", 0.1, np.array([0.0]),
                     identity_standardizer(1))
    grid = np.linspace(0.0, 1.0, 41)
    mse = pointwise_mse([model, model], sim, grid)
    assert np.allclose(mse, np.sin(8 * np.pi * grid) ** 2, atol=1e-12)
    with pytest.raises(DataError):
        pointwise_mse([], sim, grid)


# ----------------------------------------------------------------- metric


def test_metric_regression():
    assert metric("regression", [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert np.isclose(metric("regression", [0.0, 0.0], [1.0, -1.0]), 1.0)
    assert np.isclose(
        metric("regression", [1.0, 1.0], np.array([[2.0], [1.0]])), 0.5
    )
    with pytest.raises(DataError):
        metric("regression", [1.0], np.zeros((1, 2)))


def test_metric_classification():
    # score matrix: argmax decides
    scores = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0], [5.0, 0.0, 0.0]])
    assert metric("multiclass", [0, 1, 2, 1], scores) == 0.25
    # single-column logit, threshold at zero
    assert metric("binary", [1, 0, 1, 0], np.array([[0.5], [-0.5], [-0.5], [-0.5]])) == 0.25
    assert metric("binary", [1, 0], np.array([3.0, -1.0])) == 0.0
    # integer label vector passes straight through
    assert metric("multiclass", [0, 1, 2], np.array([0, 1, 1])) == pytest.approx(1 / 3)


# ------------------------------------------------------------------ ranks


def test_rank_methods_mid_ranks():
    assert np.array_equal(rank_methods([[0.3, 0.1, 0.2]]), [[3.0, 1.0, 2.0]])
    # ties share the mid-rank, rows still sum to k(k+1)/2
    ranks = rank_methods([[0.1, 0.1, 0.3]])
    assert np.array_equal(ranks, [[1.5, 1.5, 3.0]])
    many = rank_methods(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.allclose(many.sum(axis=1), 10.0)


def test_friedman_chi_square_hand_case():
    # two methods, three datasets, complete agreement
    ranks = np.tile([1.0, 2.0], (3, 1))
    assert np.isclose(friedman_chi_square(ranks), 3.0)
    # same value from the average-rank form
    assert np.isclose(friedman_chi_square(np.array([1.0, 2.0]), n_datasets=3), 3.0)


def test_friedman_iman_davenport_degenerate():
    # complete agreement drives the denominator N(k-1) - chi2 to zero
    with pytest.raises(NumericalError):
        friedman_iman_davenport(np.tile([1.0, 2.0], (3, 1)))
    with pytest.raises(DataError):
        friedman_iman_davenport(np.array([[1.0, 2.0]]))  # single dataset


def test_friedman_iman_davenport_all_tied_gives_p_one():
    ranks = np.tile([2.0, 2.0, 2.0], (5, 1))
    f_stat, p = friedman_iman_davenport(ranks)
    assert f_stat == 0.0
    assert p == 1.0


def test_friedman_average_rank_form_published_scale():
    # three methods over 21 datasets with these average ranks put the
    # p-value in the strongly significant range around 8e-6
    f_stat, p = friedman_iman_davenport(
        np.array([1.24, 2.48, 2.29]), n_datasets=21
    )
    assert f_stat > 10.0
    assert 7.84e-6 / 2 < p < 7.84e-6 * 2


def test_rank_input_validation():
    with pytest.raises(DataError):
        friedman_chi_square(np.array([[1.0, 1.0]]))  # row sum wrong
    with pytest.raises(DataError):
        friedman_chi_square(np.array([1.0, 2.0]))  # vector without count
    with pytest.raises(DataError):
        friedman_chi_square(np.array([0.5, 2.5]), n_datasets=4)  # outside [1, k]


def test_sign_test_values():
    assert np.isclose(sign_test_p(5, 0), 0.0625)
    assert np.isclose(sign_test_p(0, 5), 0.0625)
    assert np.isclose(sign_test_p(4, 0), 0.125)
    assert sign_test_p(3, 3) == 1.0
    # symmetric and capped at one
    assert sign_test_p(10, 9) == sign_test_p(9, 10) <= 1.0
    with pytest.raises(DataError):
        sign_test_p(0, 0)


# Imported by scipy.stats and by nothing the engine uses.
_HARNESS_ONLY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.interpolate",
                 "scipy.ndimage")

_IMPORT_PROBE = """
import json, sys
import ktboost, ktboost.cli
harness = %r
before = sorted(m for m in harness if m in sys.modules)
from ktboost import friedman_iman_davenport, rank_methods, sign_test_p
print(json.dumps({
    "before": before,
    "ranks": rank_methods([[0.3, 0.1, 0.2], [0.1, 0.1, 0.3]]).tolist(),
    "tied": friedman_iman_davenport([[2.0, 2.0, 2.0]] * 5),
    "published": friedman_iman_davenport([1.24, 2.48, 2.29], n_datasets=21),
    "sign": [sign_test_p(5, 0), sign_test_p(0, 5), sign_test_p(4, 0), sign_test_p(3, 3)],
    "after": "scipy.stats" in sys.modules,
}))
""" % (_HARNESS_ONLY,)


def test_import_leaves_scipy_stats_unloaded():
    # a fresh process: this one imported scipy.stats at the top of the file
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["before"] == []
    # the rank statistics still work, and load scipy.stats on first use
    assert out["after"] is True
    assert out["ranks"] == [[3.0, 1.0, 2.0], [1.5, 1.5, 3.0]]
    assert out["tied"] == [0.0, 1.0]
    f_stat, p = out["published"]
    assert f_stat > 10.0 and 7.84e-6 / 2 < p < 7.84e-6 * 2
    assert (f_stat, p) == friedman_iman_davenport(np.array([1.24, 2.48, 2.29]), n_datasets=21)
    assert np.allclose(out["sign"][:3], [0.0625, 0.0625, 0.125]) and out["sign"][3] == 1.0


def test_holm_bonferroni_hand_case():
    adjusted = holm_bonferroni([0.001, 0.04])
    assert np.allclose(adjusted, [0.002, 0.04])
    # adjustment preserves input order
    adjusted = holm_bonferroni([0.04, 0.001])
    assert np.allclose(adjusted, [0.04, 0.002])


def test_holm_bonferroni_properties():
    rng = np.random.default_rng(2)
    p = rng.uniform(size=8)
    adjusted = holm_bonferroni(p)
    assert np.all(adjusted >= p)
    assert np.all(adjusted <= 1.0)
    order = np.argsort(p)
    assert np.all(np.diff(adjusted[order]) >= 0)  # monotone in sorted order
    with pytest.raises(DataError):
        holm_bonferroni([])
    with pytest.raises(DataError):
        holm_bonferroni([0.5, 1.2])


def test_sign_test_holm_combined():
    adjusted = sign_test_holm([(5, 0), (3, 3)])
    assert np.allclose(adjusted, [0.125, 1.0])


# ------------------------------------------------------------- comparison


def _toy_results():
    return {
        "d1": {"A": [0.10, 0.12], "B": [0.30, 0.28], "C": [0.20, 0.22]},
        "d2": {"A": [0.40, 0.42], "B": [0.50, 0.48], "C": [0.45, 0.47]},
        "d3": {"A": [0.15, 0.13], "B": [0.22, 0.20], "C": [0.30, 0.32]},
    }


def test_build_comparison_table():
    table = build_comparison(_toy_results())
    assert table.methods == ["A", "B", "C"]
    assert table.means.shape == (3, 3)
    assert np.isclose(table.means[0, 0], 0.11)
    assert np.isclose(table.sds[0, 0], np.std([0.10, 0.12], ddof=1))
    assert np.array_equal(table.ranks[0], [1.0, 3.0, 2.0])
    assert np.allclose(table.average_ranks, table.ranks.mean(axis=0))
    assert table.friedman_p is not None and 0 < table.friedman_p <= 1


def test_build_comparison_degenerate_friedman_is_none():
    results = {
        "d1": {"A": [0.1], "B": [0.2]},
        "d2": {"A": [0.1], "B": [0.2]},
    }
    table = build_comparison(results)
    assert table.friedman_f is None and table.friedman_p is None
    assert np.all(table.sds == 0.0)  # single split per dataset


def test_comparison_sign_tests():
    table = build_comparison(_toy_results())
    outcome = comparison_sign_tests(table, "A")
    assert set(outcome) == {"B", "C"}
    (wins, losses), p = outcome["B"]
    assert (wins, losses) == (3, 0)
    assert 0 < p <= 1
    with pytest.raises(ValueError):
        comparison_sign_tests(table, "missing")


def test_comparison_csv_round_trip(tmp_path):
    table = build_comparison(_toy_results())
    path = tmp_path / "cmp.csv"
    comparison_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "method", "mean_metric", "sd_metric", "rank"]
    assert len(rows) == 1 + 9 + 3  # header, cells, average-rank block
    assert float(rows[1][2]) == table.means[0, 0]
    assert rows[-1][0] == "(average rank)"


def test_emit_traces_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    emit_traces([(1, "train", 0.5, 0), (2, "train", 1 / 3, 0)], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "method", "value", "replication"]
    assert float(rows[2][2]) == 1 / 3  # full precision survives
    empty = tmp_path / "e.csv"
    emit_traces([], empty, x_label="x")
    with open(empty, newline="") as fh:
        assert list(csv.reader(fh)) == [["x", "method", "value", "replication"]]


def test_fit_report_rows():
    rng = np.random.default_rng(3)
    data = Dataset(rng.uniform(size=(30, 1)), rng.normal(size=30), "regression")
    val = Dataset(rng.uniform(size=(10, 1)), rng.normal(size=10), "regression")
    _, report = fit(data, BoostConfig(iterations=4, rho=0.5), validation=val)
    rows = fit_report_rows(report, replication=2)
    assert len(rows) == 8
    assert rows[0] == (1, "train", report.train_risk[0], 2)
    assert rows[4] == (1, "validation", report.validation_risk[0], 2)


# ------------------------------------------------------------ grid search


def test_grid_spec_rho_options():
    grid = GridSpec()
    opts = grid.rho_options(300)
    assert opts == [("decay01", 5), ("decay01", 50), ("decay01", 299), ("slow", None)]
    # tiny row counts keep only the appended m-1 neighbor
    assert grid.rho_options(4) == [("decay01", 3), ("slow", None)]
    no_slow = GridSpec(include_slow=False)
    assert no_slow.rho_options(4) == [("decay01", 3)]


def test_grid_spec_configuration_counts_and_order():
    grid = GridSpec(nus=(0.5, 0.1), depths=(1, 2), lambdas=(1.0,),
                    neighbor_counts=(5,), include_slow=True, max_iterations=7)
    trees = grid.configurations(GRID_BASE, "tree", 100)
    assert len(trees) == 4  # nus x depths
    assert all(c.learner == "tree" and c.iterations == 7 for c in trees)
    assert (trees[0].nu, trees[0].max_depth) == (0.5, 1)
    kernels = grid.configurations(GRID_BASE, "kernel", 100)
    assert len(kernels) == 2 * 1 * 3  # nus x lambdas x rho options
    assert kernels[0].rho_mode == "decay01" and kernels[0].rho_knn == 5
    assert kernels[2].rho_mode == "slow"
    both = grid.configurations(GRID_BASE, "ktboost", 100)
    assert len(both) == 2 * 2 * 1 * 3
    # canonical order: nu varies slowest
    assert both[0].nu == 0.5 and both[-1].nu == 0.1
    with pytest.raises(DataError):
        grid.configurations(GRID_BASE, "stacking", 100)
    # the base sets what the grid does not vary; kernel bandwidths come from the grid
    base = BoostConfig(rho=0.3, selection="undamped", min_samples_leaf=2)
    for method in ("tree", "kernel", "ktboost"):
        for c in grid.configurations(base, method, 100):
            assert (c.selection, c.min_samples_leaf) == ("undamped", 2)
            assert c.rho == (0.3 if method == "tree" else None)


def _step_data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 1))
    y = np.where(x[:, 0] > 0.5, 1.0, -1.0)
    return Dataset(x, y, "regression")


def test_grid_search_selects_winning_configuration():
    train = _step_data(80, 4)
    val = _step_data(40, 5)
    grid = GridSpec(nus=(1.0, 0.001), depths=(1,), max_iterations=10)
    result = grid_search(train, val, grid, method="tree",
                         base=BoostConfig(learner="tree", standardize=False))
    # the undamped stump nails the step; tiny shrinkage cannot
    assert result.config.nu == 1.0
    assert result.validation_metric < 1e-20
    assert len(result.entries) == 2
    assert all(e.error is None for e in result.entries)
    # dominance: the winner is no worse than any completed entry
    finite = [e.validation_metric for e in result.entries if e.error is None]
    assert result.validation_metric <= min(finite)
    # the stored ensemble is already truncated to its chosen count
    assert result.ensemble.n_iterations == result.config.iterations


def test_grid_search_refit_reproduces_choice():
    train = _step_data(60, 6)
    val = _step_data(30, 7)
    grid = GridSpec(nus=(0.5,), depths=(1, 3), max_iterations=8)
    result = grid_search(train, val, grid, method="tree",
                         base=BoostConfig(learner="tree", standardize=False))
    refit_ens, _ = fit(train, result.config)
    from ktboost import predict

    assert np.array_equal(
        predict(refit_ens, val.features), predict(result.ensemble, val.features)
    )


def test_grid_search_tie_keeps_first_configuration():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(60, 1))
    y = (x[:, 0] > 0).astype(int)
    train = Dataset(x, y, "binary")
    val = Dataset(x[:30], y[:30], "binary")
    grid = GridSpec(nus=(1.0,), depths=(1, 3), max_iterations=5)
    result = grid_search(train, val, grid, method="tree")
    # both depths separate the classes perfectly; the earlier config wins
    assert result.validation_metric == 0.0
    assert result.config.max_depth == 1


def test_grid_search_records_failures_and_total_failure_raises():
    train = _step_data(30, 9)
    val = _step_data(10, 10)
    grid = GridSpec(nus=(0.5,), depths=(1,), max_iterations=3)
    # nystrom larger than the row count fails inside fit for every config
    with pytest.raises(NumericalError):
        grid_search(train, val, grid, method="kernel",
                    base=BoostConfig(learner="tree", nystrom=1000))
    # mixing one bad axis value: failures are recorded, the rest proceed
    result = grid_search(train, val, grid, method="tree",
                         base=BoostConfig(learner="tree", standardize=False))
    assert all(e.error is None for e in result.entries)


# ------------------------------------------------------- simulation study


def test_run_simulation_study_shapes_and_determinism():
    grid = np.linspace(0.0, 1.0, 21)
    config = BoostConfig(iterations=5, newton=False, max_depth=1, rho=0.1, lam=1.0)
    kwargs = dict(replications=3, n=40, master_seed=11, grid=grid)
    study = run_simulation_study(config, **kwargs)
    assert study.methods == ["ktboost", "tree", "kernel"]
    for m in study.methods:
        assert study.pointwise[m].shape == (21,)
        assert study.test_mse[m].shape == (3,)
        assert np.all(np.isfinite(study.test_mse[m]))
        assert len(study.best_iterations[m]) == 3
    # byte-for-byte repeatability
    again = run_simulation_study(config, **kwargs)
    for m in study.methods:
        assert np.array_equal(study.test_mse[m], again.test_mse[m])
        assert np.array_equal(study.pointwise[m], again.pointwise[m])
    # region means agree with a direct mask
    mask = (grid >= 0.0) & (grid <= 0.5)
    assert np.isclose(
        study.region_mean("tree", 0.0, 0.5), study.pointwise["tree"][mask].mean()
    )
    rows = study.pointwise_rows()
    assert len(rows) == 3 * 21
    assert rows[0][3] == -1
    manifest = study.manifest_rows()
    assert len(manifest) == 9
    assert manifest[0]["dataset"] == "sim-jumps"
    # each row records the fitted config, unstandardized, with its method
    for row in manifest:
        expected = dataclasses.replace(config, learner=row["method"], standardize=False)
        assert row["config"] == dataclasses.asdict(expected)


def test_run_simulation_study_parallel_matches_serial():
    grid = np.linspace(0.0, 1.0, 11)
    config = BoostConfig(iterations=4, newton=False, max_depth=1, rho=0.1)
    kwargs = dict(methods=("tree",), replications=2, n=30, master_seed=12, grid=grid)
    serial = run_simulation_study(config, jobs=1, **kwargs)
    parallel = run_simulation_study(config, jobs=2, **kwargs)
    assert np.array_equal(serial.test_mse["tree"], parallel.test_mse["tree"])
    assert np.array_equal(serial.pointwise["tree"], parallel.pointwise["tree"])


# -------------------------------------------------------- split benchmark


def test_run_split_benchmark_manifest():
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(60, 2))
    y = x[:, 0] + 0.1 * rng.normal(size=60)
    data = Dataset(x, y, "regression")
    grid = GridSpec(nus=(0.5,), depths=(1, 2), lambdas=(1.0,),
                    neighbor_counts=(5,), include_slow=False, max_iterations=6)
    rows = run_split_benchmark(data, "toy", methods=("tree", "kernel"),
                               splits=2, grid=grid, master_seed=3)
    assert len(rows) == 4  # splits x methods
    for row in rows:
        assert row["dataset"] == "toy"
        assert row["method"] in ("tree", "kernel")
        assert row["split_seed"] in (3, 4)
        assert np.isfinite(row["test_metric"])
        assert isinstance(row["config"], dict)
    results = rows_to_results(rows)
    assert set(results) == {"toy"}
    assert len(results["toy"]["tree"]) == 2
    table = build_comparison(results, methods=["tree", "kernel"])
    assert table.friedman_p is None  # single dataset

    # determinism across reruns
    again = run_split_benchmark(data, "toy", methods=("tree", "kernel"),
                                splits=2, grid=grid, master_seed=3)
    assert [r["test_metric"] for r in rows] == [r["test_metric"] for r in again]
