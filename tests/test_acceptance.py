"""Acceptance suite: one test per shipped claim, one printed verdict each.

Every test prints ``ACCEPTANCE <n> (<label>): PASS|FAIL <numbers>`` before
asserting, so a captured pytest log doubles as the acceptance report. The
simulation study (criterion 4) runs 100 replications and takes a few
minutes; the Nystrom timing check (criterion 8) fits on 5000 rows. The
wine benchmark (criterion 5) is skipped unless a local CSV is supplied
via KTBOOST_WINE_CSV or data/winequality-red.csv.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ktboost import (
    BoostConfig,
    Dataset,
    GridSpec,
    KernelConfig,
    KernelSolver,
    SimFunction,
    build_gradient_cache,
    build_nystrom,
    dumps,
    empirical_risk,
    fit,
    fit_kernel_gradient,
    fit_kernel_newton,
    fit_tree,
    for_task,
    friedman_iman_davenport,
    gradient_hessian,
    holm_bonferroni,
    kernel_matrix,
    load,
    loss_values,
    nystrom_indices,
    optimal_constant,
    predict,
    predict_tree_batch,
    presort_features,
    run_simulation_study,
    run_split_benchmark,
    save,
    simulate,
)
from oracles import assert_same_tree, nystrom_gram, oracle_kernel_alpha, oracle_tree, tree_objective

FD_STEP = 1e-5


def _verdict(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} {detail}")
    return f"criterion {num} {label}: {detail}"


# ------------------------------------------------------------- criterion 1


def test_1_kernel_newton_solve_matches_dense_oracle():
    """Penalized Newton coefficients equal a generic dense stationarity solve."""
    rng = np.random.default_rng(101)
    loss = for_task("binary")
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(1, 6))
        x = rng.normal(size=(n, p))
        y = rng.integers(0, 2, size=n).astype(float)
        scores = rng.normal(scale=1.5, size=(n, 1))
        gh = gradient_hessian(loss, y, scores, newton=True)
        rho = float(rng.uniform(0.5, 2.5))
        lam = float(rng.uniform(0.5, 2.0))
        gram = kernel_matrix(x, x, rho)
        alpha = fit_kernel_newton(KernelSolver(x, gram, gram, lam), gh.g[:, 0], gh.h[:, 0])
        ref = oracle_kernel_alpha(x, gh.g[:, 0], gh.h[:, 0], rho, lam)
        worst = max(worst, float(np.max(np.abs(alpha - ref))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-7 and elapsed < 10.0
    detail = _verdict(1, "kernel solve vs dense oracle", ok,
                      f"max|da|={worst:.3e} (<1e-7), {elapsed:.1f}s (<10s), 50 instances")
    assert ok, detail


# ------------------------------------------------------------- criterion 2


def _fd_gradient(loss, y, f, column):
    up = np.array(f, dtype=float)
    dn = np.array(f, dtype=float)
    if up.ndim == 1:
        up += FD_STEP
        dn -= FD_STEP
    else:
        up[:, column] += FD_STEP
        dn[:, column] -= FD_STEP
    return (loss_values(loss, y, up) - loss_values(loss, y, dn)) / (2 * FD_STEP)


def _fd_hessian(loss, y, f, column):
    # second differences of the loss at this step size drown in roundoff,
    # so curvature is checked by differencing the analytic gradient
    up = np.array(f, dtype=float)
    dn = np.array(f, dtype=float)
    if up.ndim == 1:
        up += FD_STEP
        dn -= FD_STEP
    else:
        up[:, column] += FD_STEP
        dn[:, column] -= FD_STEP
    gu = gradient_hessian(loss, y, up, newton=False).g
    gd = gradient_hessian(loss, y, dn, newton=False).g
    return (gu[:, column] - gd[:, column]) / (2 * FD_STEP)


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


def test_2_analytic_derivatives_match_finite_differences():
    """Analytic g and h of all three losses vs central differences, 1000 points each."""
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = {"squared": 0.0, "logistic": 0.0, "softmax": 0.0}
    for kind in worst:
        checked = 0
        while checked < 1000:
            n = 50
            if kind == "squared":
                loss = for_task("regression")
                y = rng.normal(size=n)
                f = rng.normal(scale=1.5, size=(n, 1))
            elif kind == "logistic":
                loss = for_task("binary")
                y = rng.integers(0, 2, n).astype(float)
                f = rng.normal(scale=1.5, size=(n, 1))
            else:
                loss = for_task("multiclass", 3)
                y = rng.integers(0, 3, n)
                f = rng.normal(scale=1.5, size=(n, 3))
            gh = gradient_hessian(loss, y, f, newton=True)
            for col in range(f.shape[1]):
                e_g = _rel_err(gh.g[:, col], _fd_gradient(loss, y, f, col))
                e_h = _rel_err(gh.h[:, col], _fd_hessian(loss, y, f, col))
                worst[kind] = max(worst[kind], float(e_g.max()), float(e_h.max()))
            checked += n
    elapsed = time.perf_counter() - started
    peak = max(worst.values())
    ok = peak < 1e-5 and elapsed < 5.0
    detail = _verdict(2, "derivative checks", ok,
                      f"max rel err={peak:.3e} (<1e-5) over "
                      f"{', '.join(f'{k}={v:.1e}' for k, v in worst.items())}, "
                      f"{elapsed:.1f}s (<5s)")
    assert ok, detail


# ------------------------------------------------------------- criterion 3


def test_3_tree_fits_match_exhaustive_enumeration():
    """fit_tree equals brute-force greedy enumeration on 30 random instances."""
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst_obj = 0.0
    for case in range(30):
        n = int(rng.integers(8, 41))
        p = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        x = np.round(rng.normal(size=(n, p)), 2)  # ties exercise the tie-breaks
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 2.0, size=n) if case % 2 else np.ones(n)
        tree, _ = fit_tree(presort_features(x), g, h, depth)
        ref = oracle_tree(x, g, h, depth)
        assert_same_tree(tree, ref)
        pred = predict_tree_batch(tree, x)
        ref_pred = np.array([_oracle_predict(ref, row) for row in x])
        worst_obj = max(worst_obj, abs(tree_objective(g, h, pred) - tree_objective(g, h, ref_pred)))
    elapsed = time.perf_counter() - started
    ok = worst_obj < 1e-12 and elapsed < 30.0
    detail = _verdict(3, "tree vs exhaustive oracle", ok,
                      f"structure/threshold/weight equal on 30 instances, "
                      f"max objective gap={worst_obj:.2e} (<1e-12), {elapsed:.1f}s (<30s)")
    assert ok, detail


def _oracle_predict(node, row):
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["weight"]


# ------------------------------------------------------------- criterion 4


def test_4_simulation_study_regional_and_overall_ordering():
    """Jump-plus-sine study, 100 replications at the published settings.

    (a) trees beat kernels pointwise on the jump half, (b) kernels beat
    trees on the smooth tail, (c) the combined engine is within 5% of the
    better single-learner mean test MSE and strictly below both in at
    least 70 replications.
    """
    config = BoostConfig(iterations=1000, nu=0.1, newton=False, max_depth=1,
                         rho=0.1, lam=1.0)
    res = run_simulation_study(config, replications=100, n=1000, master_seed=0)
    lo_tree = res.region_mean("tree", 0.0, 0.5)
    lo_kernel = res.region_mean("kernel", 0.0, 0.5)
    hi_tree = res.region_mean("tree", 0.6, 1.0)
    hi_kernel = res.region_mean("kernel", 0.6, 1.0)
    t = res.test_mse
    strict = int(np.sum((t["ktboost"] < t["tree"]) & (t["ktboost"] < t["kernel"])))
    means = {m: float(t[m].mean()) for m in res.methods}
    ratio = means["ktboost"] / min(means["tree"], means["kernel"])
    ok_a = lo_tree < lo_kernel
    ok_b = hi_kernel < hi_tree
    ok_c = ratio <= 1.05 and strict >= 70
    ok = ok_a and ok_b and ok_c
    detail = _verdict(4, "simulation study", ok,
                      f"(a) tree {lo_tree:.4f} < kernel {lo_kernel:.4f} on [0,0.5]: {ok_a}; "
                      f"(b) kernel {hi_kernel:.4f} < tree {hi_tree:.4f} on [0.6,1]: {ok_b}; "
                      f"(c) ratio {ratio:.3f} (<=1.05), strict wins {strict}/100 (>=70): {ok_c}; "
                      f"means tree={means['tree']:.4f} kernel={means['kernel']:.4f} "
                      f"ktboost={means['ktboost']:.4f}")
    assert ok, detail


# ------------------------------------------------------------- criterion 5


def _wine_path():
    env = os.environ.get("KTBOOST_WINE_CSV")
    if env and Path(env).is_file():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "winequality-red.csv"
    return local if local.is_file() else None


def _load_wine(path):
    import csv as _csv

    with open(path, newline="") as fh:
        rows = list(_csv.reader(fh, delimiter=";"))
    header = [name.strip().strip('"') for name in rows[0]]
    values = np.array([[float(cell) for cell in row] for row in rows[1:]])
    target = header.index("quality")
    mask = np.arange(values.shape[1]) != target
    names = tuple(h for i, h in enumerate(header) if i != target)
    return Dataset(values[:, mask], values[:, target], "regression", 0, names)


def test_5_wine_benchmark_reproduction_target():
    """Ten-split wine benchmark, shrinkage fixed at 0.1, grid otherwise."""
    path = _wine_path()
    if path is None:
        print("ACCEPTANCE 5 (wine benchmark): SKIP, dataset file not supplied")
        pytest.skip("wine CSV not supplied")
    data = _load_wine(path)
    rows = run_split_benchmark(data, "wine", splits=10,
                               grid=GridSpec(nus=(0.1,)), master_seed=0,
                               base=BoostConfig(learner="tree", newton=False))
    means = {}
    for method in ("ktboost", "tree", "kernel"):
        vals = [r["test_metric"] for r in rows if r["method"] == method]
        means[method] = float(np.mean(vals))
    ok = (means["ktboost"] < means["tree"] and means["ktboost"] < means["kernel"]
          and 0.42 <= means["ktboost"] <= 0.48)
    detail = _verdict(5, "wine benchmark", ok,
                      f"mean test MSE ktboost={means['ktboost']:.4f} "
                      f"(target [0.42, 0.48]) tree={means['tree']:.4f} "
                      f"kernel={means['kernel']:.4f}")
    assert ok, detail


# ------------------------------------------------------------- criterion 6


def test_6_rank_statistics_hand_cases():
    """Corrected rank test on frozen three-method ranks plus the step-down adjustment."""
    started = time.perf_counter()
    f_stat, p = friedman_iman_davenport((1.24, 2.48, 2.29), n_datasets=21)
    ok_p = 7.84e-6 / 2 <= p <= 7.84e-6 * 2
    adjusted = holm_bonferroni([0.001, 0.04])
    ok_holm = np.allclose(adjusted, [0.002, 0.04], rtol=0, atol=1e-15)
    elapsed = time.perf_counter() - started
    ok = ok_p and ok_holm and elapsed < 1.0
    detail = _verdict(6, "rank statistics", ok,
                      f"p={p:.3e} within 2x of 7.84e-6: {ok_p}; "
                      f"step-down [0.001,0.04]->{np.round(adjusted, 6).tolist()}: {ok_holm}; "
                      f"{elapsed:.2f}s (<1s)")
    assert ok, detail


# ------------------------------------------------------------- criterion 7


def test_7_single_learner_modes_reproduce_plain_boosting():
    """Restricting the racing engine reproduces dedicated loops bit for bit."""
    rng = np.random.default_rng(707)
    x = rng.uniform(size=(70, 2))
    y_bin = (x[:, 0] + 0.3 * rng.normal(size=70) > 0.5).astype(float)
    data_bin = Dataset(x, y_bin, "binary", 2, None, ("neg", "pos"))
    config = BoostConfig(iterations=15, nu=0.2, learner="tree", max_depth=3,
                         standardize=False, seed=3)
    ens_t, rep_t = fit(data_bin, config)
    loss = for_task("binary")
    scores = np.tile(optimal_constant(loss, y_bin), (70, 1))
    trace_t = []
    sorted_x = presort_features(x)
    for _ in range(15):
        gh = gradient_hessian(loss, y_bin, scores, newton=True)
        tree, _ = fit_tree(sorted_x, gh.g[:, 0], gh.h[:, 0], 3)
        scores += 0.2 * predict_tree_batch(tree, x)[:, None]
        trace_t.append(empirical_risk(loss, y_bin, scores))
    tree_bitwise = (np.array_equal(predict(ens_t, x), scores)
                    and rep_t.train_risk == trace_t)

    y_reg = np.sin(7 * x[:, 0]) + x[:, 1] + 0.2 * rng.normal(size=70)
    data_reg = Dataset(x, y_reg, "regression")
    config = BoostConfig(iterations=12, nu=0.3, newton=False, learner="kernel",
                         rho=0.4, lam=1.0, standardize=False, seed=3)
    ens_k, rep_k = fit(data_reg, config)
    loss = for_task("regression")
    gram = kernel_matrix(x, x, 0.4)
    cache = build_gradient_cache(KernelSolver(x, gram, gram, 1.0))
    scores = np.full(70, optimal_constant(loss, y_reg)[0])
    trace_k = []
    alphas_equal = True
    for m in range(12):
        gh = gradient_hessian(loss, y_reg, scores[:, None], newton=False)
        alpha = fit_kernel_gradient(cache, gh.g[:, 0], gh.h[:, 0])
        alphas_equal &= np.array_equal(ens_k.iterations[m].learners[0], alpha)
        scores = scores + 0.3 * (gram @ alpha)
        trace_k.append(empirical_risk(loss, y_reg, scores))
    kernel_bitwise = alphas_equal and rep_k.train_risk == trace_k

    ok = tree_bitwise and kernel_bitwise
    detail = _verdict(7, "degenerate equivalence", ok,
                      f"tree-only bitwise={tree_bitwise}, kernel-only bitwise={kernel_bitwise} "
                      f"(15 and 12 iterations, same seeds)")
    assert ok, detail


# ------------------------------------------------------------- criterion 8


def test_8_nystrom_recovery_monotonicity_and_speed():
    """Full-sample recovery, error monotone in l, and a 5x per-iteration win at scale."""
    rng = np.random.default_rng(808)
    x = rng.uniform(size=(120, 2))
    factor = build_nystrom(x, nystrom_indices(120, 120, 0), KernelConfig(rho=0.9, lam=1.0))
    exact = kernel_matrix(x, x, 0.9)
    recovery = float(np.max(np.abs(nystrom_gram(factor) - exact)))
    ok_recover = recovery < 1e-8

    n, ls = 200, (10, 25, 50, 100, 200)
    errs = np.zeros(len(ls))
    for seed in range(20):
        xs = np.random.default_rng(900 + seed).uniform(size=(n, 2))
        full = kernel_matrix(xs, xs, 0.7)
        for i, l in enumerate(ls):
            f = build_nystrom(xs, nystrom_indices(n, l, seed), KernelConfig(rho=0.7, lam=1.0))
            errs[i] += np.linalg.norm(nystrom_gram(f) - full) / 20.0
    ok_monotone = bool(np.all(np.diff(errs) <= 1e-9))

    seed = np.random.SeedSequence(42)
    s_sim, s_train, s_test = seed.spawn(3)
    sim = SimFunction.from_seed(s_sim)
    train = simulate(sim, 5000, s_train)
    test = simulate(sim, 1000, s_test)
    stats = {}
    for tag, l in (("exact", None), ("nystrom", 500)):
        config = BoostConfig(iterations=3, nu=0.1, newton=True, learner="kernel",
                             rho=0.1, lam=1.0, standardize=False, nystrom=l, seed=0)
        ens, rep = fit(train, config)
        pred = predict(ens, test.features)[:, 0]
        stats[tag] = (float(np.mean(rep.seconds)),
                      float(np.mean((pred - test.targets) ** 2)))
    speedup = stats["exact"][0] / stats["nystrom"][0]
    degradation = stats["nystrom"][1] / stats["exact"][1]
    ok_scale = speedup >= 5.0 and degradation <= 1.2

    ok = ok_recover and ok_monotone and ok_scale
    detail = _verdict(8, "nystrom approximation", ok,
                      f"l=n recovery max err={recovery:.2e} (<1e-8): {ok_recover}; "
                      f"20-seed Frobenius errors {np.round(errs, 4).tolist()} non-increasing: "
                      f"{ok_monotone}; n=5000 l=500 speedup {speedup:.1f}x (>=5), "
                      f"MSE ratio {degradation:.3f} (<=1.2): {ok_scale}")
    assert ok, detail


# ------------------------------------------------------------- criterion 9


def test_9_determinism_and_persistence(tmp_path):
    """Same seeds give byte-identical artifacts; round-trips keep predictions."""
    seed = np.random.SeedSequence(77)
    s_sim, s_train = seed.spawn(2)
    sim = SimFunction.from_seed(s_sim)
    train = simulate(sim, 120, s_train)
    config = BoostConfig(iterations=20, nu=0.2, newton=False, rho=0.15, lam=1.0,
                         nystrom=40, seed=11, standardize=False)
    paths = []
    for run in range(2):
        ens, _ = fit(train, config)
        path = tmp_path / f"model{run}.json"
        save(ens, path)
        paths.append(path)
    model_bytes = [p.read_bytes() for p in paths]
    ok_model = model_bytes[0] == model_bytes[1]

    manifests = []
    for _ in range(2):
        sim_config = BoostConfig(iterations=6, nu=0.1, newton=False, max_depth=1,
                                 rho=0.1, lam=1.0)
        res = run_simulation_study(sim_config, replications=2, n=60, master_seed=5)
        manifests.append(json.dumps(res.manifest_rows(), sort_keys=True))
    ok_manifest = manifests[0] == manifests[1]

    ens, _ = fit(train, config)
    grid = np.linspace(0, 1, 257)[:, None]
    before = predict(ens, grid)
    loaded = load(paths[0])
    after = predict(loaded, grid)
    drift = float(np.max(np.abs(after - before)))
    ok_round = drift <= 1e-12 and dumps(loaded) == dumps(ens)

    ok = ok_model and ok_manifest and ok_round
    detail = _verdict(9, "determinism and persistence", ok,
                      f"model bytes identical: {ok_model}; manifest bytes identical: "
                      f"{ok_manifest}; round-trip prediction drift {drift:.2e} (<=1e-12): "
                      f"{ok_round}")
    assert ok, detail
