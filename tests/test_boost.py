"""Boosting loop: candidate racing, traces, truncation, and persistence."""

import base64
import dataclasses
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktboost import (
    BoostConfig,
    DataError,
    Dataset,
    Ensemble,
    KernelSolver,
    ModelFormatError,
    NumericalError,
    LossFunction,
    build_gradient_cache,
    dumps,
    empirical_risk,
    fit,
    fit_kernel_gradient,
    fit_standardizer,
    fit_tree,
    gradient_hessian,
    identity_standardizer,
    load,
    loads,
    loss_values,
    optimal_constant,
    predict,
    predict_labels,
    predict_proba,
    predict_tree_batch,
    presort_features,
    save,
    select_rho,
    truncate,
)
from ktboost.kernels import kernel_matrix
from ktboost.losses import for_task


def _regression_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + 0.1 * rng.normal(size=n)
    return Dataset(x, y, "regression")


def _binary_data(n=80, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + 0.5 * x[:, 1] + 0.3 * rng.normal(size=n) > 0).astype(int)
    return Dataset(x, y, "binary")


def _multiclass_data(n=90, seed=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.argmax(x @ rng.normal(size=(2, 3)) + 0.3 * rng.normal(size=(n, 3)), axis=1)
    return Dataset(x, y, "multiclass")


# ----------------------------------------------------------------- config


def test_boost_config_validation():
    with pytest.raises(DataError):
        BoostConfig(iterations=0, rho=1.0)
    with pytest.raises(DataError):
        BoostConfig(nu=0.0, rho=1.0)
    with pytest.raises(DataError):
        BoostConfig(nu=1.5, rho=1.0)
    with pytest.raises(DataError):
        BoostConfig(learner="forest", rho=1.0)
    with pytest.raises(DataError):
        BoostConfig(rho=1.0, rho_mode="decay01")  # both set
    with pytest.raises(DataError):
        BoostConfig()  # kernel learner without a bandwidth
    with pytest.raises(DataError):
        BoostConfig(rho=-1.0)
    with pytest.raises(DataError):
        BoostConfig(rho=1.0, selection="greedy")
    with pytest.raises(DataError):
        BoostConfig(rho=1.0, lam=-1.0)
    with pytest.raises(DataError):
        BoostConfig(rho=1.0, early_stopping_rounds=0)
    with pytest.raises(DataError):
        BoostConfig(rho=1.0, nystrom=5, seed=-1)
    # every float setting finite; rho squared neither underflows nor overflows
    for bad in (dict(nu=np.nan), dict(nu=np.inf), dict(lam=np.nan), dict(lam=np.inf),
                dict(rho=np.nan), dict(rho=np.inf), dict(rho=1e-300), dict(rho=1e200)):
        with pytest.raises(DataError):
            BoostConfig(learner="tree", **bad)
    # a Python int too large for a float is no finite setting either
    for bad in (dict(rho=10**400), dict(rho=1.0, lam=10**400)):
        with pytest.raises(DataError, match="finite"):
            BoostConfig(learner="kernel", **bad)
    # every count is an int or numpy integer, not a bool or a float, at or
    # above its minimum
    for bad in (dict(iterations=2.5), dict(iterations="3"), dict(iterations=True),
                dict(iterations=None), dict(max_depth=2.5), dict(max_depth=-1),
                dict(min_samples_leaf=1.5), dict(min_samples_leaf=0), dict(rho_knn=2.5),
                dict(rho_knn=0), dict(nystrom=5.5), dict(nystrom=0), dict(seed=1.5),
                dict(seed=False), dict(early_stopping_rounds=1.5),
                dict(early_stopping_rounds=np.int64(0))):
        with pytest.raises(DataError, match="must be an integer of at least"):
            BoostConfig(learner="tree", **bad)
    config = BoostConfig(learner="tree", iterations=np.int64(3), max_depth=np.int32(0),
                         seed=np.uint8(7), nystrom=np.int64(5), early_stopping_rounds=2)
    assert config.iterations == 3 and config.max_depth == 0
    # tree-only learner needs no bandwidth at all
    assert BoostConfig(learner="tree").rho is None


@pytest.mark.parametrize("bad", [
    dict(nu="0.1"),
    dict(learner="kernel", rho="0.5"),
    dict(learner="kernel", rho=0.5, lam="1"),
    dict(nu=True),
    dict(newton="no"),
    dict(standardize=0),
], ids=["nu-str", "rho-str", "lam-str", "nu-bool", "newton-str", "standardize-int"])
def test_boost_config_refuses_mistyped_settings(bad):
    # a string or a bool is no real number, and only a bool is a flag
    with pytest.raises(DataError, match="must be"):
        BoostConfig(**{"learner": "tree", **bad})


def test_real_and_flag_settings_accept_numpy_scalars():
    config = BoostConfig(learner="kernel", nu=np.float32(0.5), rho=np.float64(0.5), lam=np.int64(2),
                         newton=np.bool_(False), standardize=np.True_)
    ens, _ = fit(_regression_data(n=20), config)
    assert ens.nu == np.float32(0.5)
    for bad in ("0.1", True, np.bool_(True), None, 0.0, 1.5, np.nan):
        with pytest.raises(DataError, match="shrinkage nu"):
            Ensemble("regression", "squared", bad, [0.0], identity_standardizer(1))


def test_fit_input_validation():
    data = _regression_data()
    with pytest.raises(DataError):
        fit(data.subset(np.array([0])), BoostConfig(rho=1.0))
    other = Dataset(np.zeros((5, 3)), np.zeros(5), "regression")
    with pytest.raises(DataError):
        fit(data, BoostConfig(rho=1.0), validation=other)  # width mismatch
    with pytest.raises(DataError):
        fit(data, BoostConfig(rho=1.0, nystrom=500))  # more samples than rows


# ------------------------------------------------------------- risk basics


def test_empirical_risk_hand_values():
    squared = LossFunction("squared")
    assert empirical_risk(squared, [1.0, 2.0], [1.0, 2.0]) == 0.0
    assert empirical_risk(squared, [3.0], [1.0]) == 2.0
    logistic = LossFunction("logistic")
    assert np.isclose(
        empirical_risk(logistic, [1.0, 0.0], [0.0, 0.0]), 2.0 * np.log(2.0)
    )
    # sum, not mean: doubling the rows doubles the risk
    assert np.isclose(
        empirical_risk(squared, [3.0, 3.0], [1.0, 1.0]), 4.0
    )


def test_initial_risk_is_constant_model_risk():
    data = _regression_data()
    loss = for_task("regression")
    _, report = fit(data, BoostConfig(iterations=1, rho=0.5))
    f0 = optimal_constant(loss, data.targets)
    expected = empirical_risk(loss, data.targets, np.full(data.n_samples, f0[0]))
    assert np.isclose(report.initial_risk, expected, rtol=1e-12)


# -------------------------------------------------------- candidate racing


def test_admitted_candidate_is_risk_argmin():
    data = _regression_data()
    _, report = fit(data, BoostConfig(iterations=25, nu=0.2, rho=0.3))
    for tag, tr, kr, admitted in zip(
        report.chosen, report.tree_risk, report.kernel_risk, report.train_risk
    ):
        best = min(tr, kr)
        assert admitted == best
        if tr <= kr:
            assert tag == "tree"
        else:
            assert tag == "kernel"
    assert set(report.chosen) <= {"tree", "kernel"}


def test_first_iteration_matches_external_candidates():
    data = _regression_data()
    config = BoostConfig(iterations=1, nu=0.3, newton=False, rho=0.4, lam=2.0)
    _, report = fit(data, config)
    # recompute both candidates outside the engine
    st = fit_standardizer(data)
    x = st.transform(data.features)
    loss = for_task("regression")
    f0 = optimal_constant(loss, data.targets)
    scores = np.full(data.n_samples, f0[0])
    gh = gradient_hessian(loss, data.targets, scores, newton=False)
    tree, _ = fit_tree(presort_features(x), gh.g[:, 0], gh.h[:, 0], config.max_depth)
    tree_risk = empirical_risk(
        loss, data.targets, scores + config.nu * predict_tree_batch(tree, x)
    )
    gram = kernel_matrix(x, x, 0.4)
    solver = build_gradient_cache(KernelSolver(x, gram, gram, 2.0))
    alpha = fit_kernel_gradient(solver, gh.g[:, 0], gh.h[:, 0])
    kernel_risk = empirical_risk(loss, data.targets, scores + config.nu * (gram @ alpha))
    assert np.isclose(report.tree_risk[0], tree_risk, rtol=1e-12)
    assert np.isclose(report.kernel_risk[0], kernel_risk, rtol=1e-12)
    assert report.chosen[0] == ("tree" if tree_risk <= kernel_risk else "kernel")


def test_tie_goes_to_tree():
    # constant targets: both candidates predict zero, risks tie exactly
    rng = np.random.default_rng(3)
    data = Dataset(rng.uniform(size=(40, 1)), np.full(40, 2.0), "regression")
    _, report = fit(
        data, BoostConfig(iterations=3, nu=1.0, newton=False, rho=0.5, standardize=False)
    )
    assert report.chosen == ["tree", "tree", "tree"]
    assert report.tree_risk == report.kernel_risk


def test_useless_kernel_forces_tree():
    # lambda so large the kernel step underflows to a float-exact risk tie
    rng = np.random.default_rng(4)
    data = Dataset(rng.uniform(size=(50, 1)), rng.normal(size=50), "regression")
    ens, report = fit(
        data,
        BoostConfig(iterations=1, nu=1.0, newton=False, max_depth=0,
                    rho=0.5, lam=1e18, standardize=False),
    )
    assert report.chosen == ["tree"]
    # depth-0 tree on centered residuals: the model stays the target mean
    pred = predict(ens, data.features)[:, 0]
    assert np.allclose(pred, np.mean(data.targets), atol=1e-9)


def test_huge_lambda_keeps_model_at_mean():
    rng = np.random.default_rng(5)
    data = Dataset(rng.uniform(size=(50, 1)), rng.normal(size=50), "regression")
    ens, _ = fit(
        data,
        BoostConfig(iterations=1, nu=1.0, newton=False, max_depth=0,
                    rho=0.5, lam=1e12, standardize=False),
    )
    pred = predict(ens, data.features)[:, 0]
    assert np.allclose(pred, np.mean(data.targets), atol=1e-9)


def test_smooth_target_prefers_kernel():
    # noiseless sine: the kernel expansion beats a stump immediately
    x = np.linspace(0.0, 1.0, 80)[:, None]
    data = Dataset(x, np.sin(2 * np.pi * x[:, 0]), "regression")
    _, report = fit(
        data,
        BoostConfig(iterations=5, nu=0.5, newton=False, max_depth=1,
                    rho=0.2, lam=0.1, standardize=False),
    )
    assert report.chosen[0] == "kernel"
    assert report.kernel_risk[0] < report.tree_risk[0]


def test_step_target_prefers_tree():
    # single jump: one stump nails it, the smooth kernel lags
    x = np.linspace(0.0, 1.0, 80)[:, None]
    data = Dataset(x, np.where(x[:, 0] > 0.45, 3.0, -3.0), "regression")
    _, report = fit(
        data,
        BoostConfig(iterations=5, nu=0.5, newton=False, max_depth=1,
                    rho=0.5, lam=1.0, standardize=False),
    )
    assert report.chosen[0] == "tree"
    assert report.tree_risk[0] < report.kernel_risk[0]


def test_learner_restriction():
    data = _regression_data()
    _, rep_tree = fit(data, BoostConfig(iterations=5, learner="tree"))
    assert rep_tree.chosen == ["tree"] * 5
    assert np.all(np.isnan(rep_tree.kernel_risk))
    _, rep_kernel = fit(data, BoostConfig(iterations=5, learner="kernel", rho=0.5))
    assert rep_kernel.chosen == ["kernel"] * 5
    assert np.all(np.isnan(rep_kernel.tree_risk))


def test_undamped_selection_compares_full_step():
    data = _regression_data(seed=6)
    config = BoostConfig(iterations=1, nu=0.1, newton=False, rho=0.4,
                         selection="undamped", standardize=False)
    ens, report = fit(data, config)
    loss = for_task("regression")
    f0 = optimal_constant(loss, data.targets)
    scores = np.full(data.n_samples, f0[0])
    gh = gradient_hessian(loss, data.targets, scores, newton=False)
    tree, _ = fit_tree(presort_features(data.features), gh.g[:, 0], gh.h[:, 0], config.max_depth)
    tree_pred = predict_tree_batch(tree, data.features)
    # selection risk uses the undamped step nu=1
    full = empirical_risk(loss, data.targets, scores + tree_pred)
    assert np.isclose(report.tree_risk[0], full, rtol=1e-12)
    # but the admitted update is still damped by nu
    if report.chosen[0] == "tree":
        assert np.allclose(
            predict(ens, data.features)[:, 0], scores + 0.1 * tree_pred, atol=1e-12
        )


def test_training_risk_decreases_overall():
    data = _regression_data()
    _, report = fit(data, BoostConfig(iterations=40, nu=0.1, rho=0.3))
    assert report.train_risk[-1] < report.initial_risk
    # damped squared-loss steps never increase the training risk
    trace = [report.initial_risk] + report.train_risk
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


# ----------------------------------------------------- degenerate equality


def test_tree_only_equals_plain_tree_boosting():
    data = _binary_data()
    config = BoostConfig(iterations=15, nu=0.2, learner="tree", max_depth=3,
                         standardize=False)
    ens, report = fit(data, config)
    # hand-rolled gradient tree boosting, same primitives, no racing
    loss = for_task("binary")
    y = data.targets
    f0 = optimal_constant(loss, y)
    scores = np.tile(f0, (data.n_samples, 1))
    trace = []
    sorted_x = presort_features(data.features)
    for _ in range(15):
        gh = gradient_hessian(loss, y, scores, newton=True)
        tree, _ = fit_tree(sorted_x, gh.g[:, 0], gh.h[:, 0], 3)
        scores += 0.2 * predict_tree_batch(tree, data.features)[:, None]
        trace.append(empirical_risk(loss, y, scores))
    engine_scores = predict(ens, data.features)
    assert np.array_equal(engine_scores, scores)
    assert np.allclose(report.train_risk, trace, rtol=1e-12)


def test_kernel_only_equals_plain_kernel_boosting():
    data = _regression_data(seed=7)
    config = BoostConfig(iterations=10, nu=0.3, newton=False, learner="kernel",
                         rho=0.4, lam=1.0, standardize=False)
    ens, report = fit(data, config)
    loss = for_task("regression")
    y = data.targets
    x = data.features
    gram = kernel_matrix(x, x, 0.4)
    cache = build_gradient_cache(KernelSolver(x, gram, gram, 1.0))
    scores = np.full(data.n_samples, optimal_constant(loss, y)[0])
    trace = []
    for _ in range(10):
        gh = gradient_hessian(loss, y, scores[:, None], newton=False)
        alpha = fit_kernel_gradient(cache, gh.g[:, 0], gh.h[:, 0])
        scores = scores + 0.3 * (gram @ alpha)
        trace.append(empirical_risk(loss, y, scores))
    assert np.allclose(predict(ens, x)[:, 0], scores, atol=1e-12)
    assert np.allclose(report.train_risk, trace, rtol=1e-12)


def test_newton_equals_gradient_for_squared_loss():
    # unit Hessians make the two modes take bitwise-identical steps
    data = _regression_data(seed=8)
    val = _regression_data(n=30, seed=9)
    for learner in ("ktboost", "kernel"):
        for nystrom in (None, 20):
            base = dict(iterations=12, nu=0.2, rho=0.4, lam=1.5, learner=learner,
                        nystrom=nystrom, seed=4)
            ens_newton, rep_newton = fit(data, BoostConfig(newton=True, **base), validation=val)
            ens_gradient, rep_gradient = fit(data, BoostConfig(newton=False, **base), validation=val)
            assert rep_newton.train_risk == rep_gradient.train_risk
            assert rep_newton.chosen == rep_gradient.chosen
            assert rep_newton.tree_risk == rep_gradient.tree_risk
            assert rep_newton.kernel_risk == rep_gradient.kernel_risk
            assert rep_newton.validation_risk == rep_gradient.validation_risk
            assert dumps(ens_newton) == dumps(ens_gradient)


def test_exact_gram_over_limit_fails_before_allocating(monkeypatch):
    from ktboost import boost, kernels

    data = _regression_data(n=60, seed=32)
    # four n-by-n matrices at the set-up's peak, on the factor path (2
    # rounds) and the inverse path (12 rounds, 60/5) alike
    monkeypatch.setattr(kernels, "EXACT_GRAM_LIMIT_BYTES", 32 * 60 * 60 - 1)

    def n_by_n(*args, **kwargs):
        raise AssertionError("n-by-n allocation before the limit check")

    with monkeypatch.context() as mp:
        for module in (boost, kernels):
            mp.setattr(module, "select_rho", n_by_n)
            mp.setattr(module, "kernel_matrix", n_by_n)
        for learner in ("ktboost", "kernel"):
            for rho in ({"rho_mode": "decay01"}, {"rho": 0.5}):
                for iterations in (2, 12):
                    with pytest.raises(DataError, match="--nystrom"):
                        fit(data, BoostConfig(iterations=iterations, learner=learner, **rho))
    # tree-only and Nystrom fits hold no n-by-n matrix
    fit(data, BoostConfig(iterations=2, learner="tree"))
    fit(data, BoostConfig(iterations=2, learner="kernel", rho_mode="decay01", nystrom=10))
    monkeypatch.setattr(kernels, "EXACT_GRAM_LIMIT_BYTES", 32 * 60 * 60)
    fit(data, BoostConfig(iterations=2, learner="kernel", rho=0.5))
    fit(data, BoostConfig(iterations=12, learner="kernel", rho=0.5))

    # the validation rows' 8 * 60 bytes each against the 60 anchors count too
    val = _regression_data(n=10, seed=33)
    monkeypatch.setattr(kernels, "EXACT_GRAM_LIMIT_BYTES", 32 * 60 * 60 + 8 * 9 * 60)
    with monkeypatch.context() as mp:
        for module in (boost, kernels):
            mp.setattr(module, "select_rho", n_by_n)
            mp.setattr(module, "kernel_matrix", n_by_n)
        for learner in ("ktboost", "kernel"):
            for rho in ({"rho_mode": "decay01"}, {"rho": 0.5}):
                for iterations in (2, 12):
                    with pytest.raises(DataError, match="10 validation rows.*--nystrom"):
                        fit(data, BoostConfig(iterations=iterations, learner=learner, **rho), val)
    fit(data, BoostConfig(iterations=2, learner="kernel", rho=0.5, nystrom=10), val)
    for iterations in (2, 12):
        fit(data, BoostConfig(iterations=iterations, learner="kernel", rho=0.5),
            _regression_data(n=9, seed=33))


@pytest.mark.parametrize("task, newton, iterations", [
    ("regression", False, 2),  # cached factor
    ("regression", False, 60),  # cached inverse
    ("binary", True, 2),  # Hessian-weighted factor every round
])
def test_exact_gram_limit_counts_the_set_up_peak(monkeypatch, task, newton, iterations):
    # tracemalloc sees numpy's arrays but not LAPACK's own copy of its
    # input, so the limit check must count more than the traced peak
    import tracemalloc

    from ktboost import kernels

    n, n_val = 300, 100
    data = _regression_data(n=n + n_val, seed=34) if task == "regression" else _binary_data(n + n_val)
    train, val = data.subset(np.arange(n)), data.subset(np.arange(n, n + n_val))
    config = BoostConfig(iterations=iterations, learner="kernel", newton=newton, rho=0.5)
    tracemalloc.start()
    try:
        fit(train, config, val)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(kernels, "EXACT_GRAM_LIMIT_BYTES", peak - 1)
    with pytest.raises(DataError, match="--nystrom"):
        kernels.check_exact_gram_fits(n, n_val)


def _count_factorizations(monkeypatch):
    from ktboost import kernels

    calls = []
    real = kernels.cho_factor

    def counting(a, *args, **kwargs):
        calls.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(kernels, "cho_factor", counting)
    return calls


@pytest.mark.parametrize("nystrom, expected", [(None, 1), (10, 1)])
def test_squared_loss_newton_factorizes_once(monkeypatch, nystrom, expected):
    # h == 1 keeps K + lam*I (or lam*W + C^T C) fixed, so one factor serves
    # all ten rounds; W alone is never factorized. lam >= 1 keeps jitter
    # retries away.
    calls = _count_factorizations(monkeypatch)
    config = BoostConfig(iterations=10, learner="kernel", rho=0.5, lam=2.0, nystrom=nystrom, seed=1)
    _, report = fit(_regression_data(seed=30), config)
    assert report.chosen == ["kernel"] * 10
    assert len(calls) == expected


def test_logistic_newton_factorizes_every_round(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    config = BoostConfig(iterations=10, learner="kernel", rho=1.0, lam=2.0)
    fit(_binary_data(seed=31), config)
    assert len(calls) == 10


def _spy_gradient_cache(monkeypatch):
    """The solvers fit's build_gradient_cache returns, and np.linalg.inv's call count."""
    from ktboost import boost

    built, inversions = [], []
    real_cache, real_inv = boost.build_gradient_cache, np.linalg.inv

    def cache(solver, solves):
        built.append(real_cache(solver, solves))
        return built[-1]

    def inv(a):
        inversions.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(boost, "build_gradient_cache", cache)
    monkeypatch.setattr(np.linalg, "inv", inv)
    return built, inversions


@pytest.mark.parametrize("newton", [False, True])
def test_fit_below_the_inverse_crossover_keeps_the_factor_path(monkeypatch, newton):
    # 60 rows: 11 rounds are one below n/5, and fit the factor path bit for bit
    from ktboost import boost

    data, val = _regression_data(n=60, seed=35), _regression_data(n=20, seed=36)
    config = BoostConfig(iterations=11, nu=0.3, newton=newton, max_depth=1, rho=0.1, lam=2.0)
    real_cache = boost.build_gradient_cache
    with monkeypatch.context() as mp:
        mp.setattr(boost, "build_gradient_cache", lambda solver, solves: real_cache(solver))
        factor_model, _ = fit(data, config, val)
    built, inversions = _spy_gradient_cache(monkeypatch)
    model, report = fit(data, config, val)
    assert inversions == [] and built[0].factor is not None
    assert set(report.chosen) == {"tree", "kernel"}
    assert dumps(model) == dumps(factor_model)


def test_fit_at_the_inverse_crossover_holds_neither_k_nor_factor(monkeypatch):
    built, inversions = _spy_gradient_cache(monkeypatch)
    config = BoostConfig(iterations=12, nu=0.3, newton=False, learner="kernel", rho=0.4, lam=0.5)
    fit(_regression_data(n=60, seed=35), config)
    assert inversions == [(60, 60)]
    (solver,) = built
    assert solver.basis is None and solver.gram is None and solver.factor is None
    assert solver.inverse.shape == (60, 60)


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_multiclass_gradient_fit_shares_one_inverse(monkeypatch, lam):
    # 3 outputs times 6 rounds reach 90/5 solves; each round's alphas and
    # fitted values match a dense solve of K + (lam+eps) I, with one inverse
    from oracles import oracle_kernel_matrix

    built, inversions = _spy_gradient_cache(monkeypatch)
    data = _multiclass_data()
    config = BoostConfig(iterations=6, nu=0.5, newton=False, learner="kernel", rho=1.0,
                         lam=lam, standardize=False)
    model, report = fit(data, config)
    assert inversions == [(90, 90)]
    eps = built[0].jitter
    k = oracle_kernel_matrix(data.features, data.features, 1.0)
    system = k + (lam + eps) * np.eye(90)
    loss = for_task("multiclass", 3)
    scores = np.tile(optimal_constant(loss, data.targets), (90, 1))
    for m, it in enumerate(model.iterations):
        gh = gradient_hessian(loss, data.targets, scores, newton=False)
        ref = np.linalg.solve(system, -gh.g)
        assert np.max(np.abs(np.column_stack(it.learners) - ref)) < 1e-7
        scores = scores + 0.5 * (k @ ref)
        assert np.isclose(report.train_risk[m], empirical_risk(loss, data.targets, scores), rtol=1e-10)


def test_tree_candidate_reads_training_rows_from_the_leaf_index(monkeypatch):
    # fit_tree returns each training row's leaf, so the tree walk runs only
    # over validation rows: once per admitted tree round and output
    from ktboost import boost

    rows = []
    real = boost.predict_tree_batch

    def counting(tree, x):
        rows.append(len(x))
        return real(tree, x)

    monkeypatch.setattr(boost, "predict_tree_batch", counting)
    data = _multiclass_data()
    fit(data, BoostConfig(iterations=4, learner="tree", max_depth=2))
    assert rows == []
    train, val = data.subset(np.arange(60)), data.subset(np.arange(60, 90))
    config = BoostConfig(iterations=8, nu=0.5, rho=3.0, lam=0.1, max_depth=1)
    _, report = fit(train, config, validation=val)
    assert set(report.chosen) == {"tree", "kernel"}
    assert rows == [30] * (3 * report.chosen.count("tree"))


# ------------------------------------------------------ validation control


def test_validation_trace_and_best_iteration():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(60, 1))
    y = np.sin(6 * x[:, 0]) + 0.5 * rng.normal(size=60)
    train = Dataset(x[:40], y[:40], "regression")
    val = Dataset(x[40:], y[40:], "regression")
    _, report = fit(
        train,
        BoostConfig(iterations=200, nu=0.5, learner="tree", max_depth=4),
        validation=val,
    )
    assert len(report.validation_risk) == 200
    vals = np.array(report.validation_risk)
    # first argmin under strict improvement
    assert report.best_iteration == int(np.argmin(vals)) + 1
    # deep undamped trees overfit: the minimum is interior
    assert report.best_iteration < 200


def test_early_stopping_needs_validation_data():
    data = _regression_data(n=40, seed=11)
    config = BoostConfig(iterations=5, learner="tree", early_stopping_rounds=2)
    with pytest.raises(DataError, match="early stopping needs validation data"):
        fit(data, config)
    fit(data, config, validation=_regression_data(n=20, seed=12))


def test_early_stopping_halts_after_patience():
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(60, 1))
    y = np.sin(6 * x[:, 0]) + 0.5 * rng.normal(size=60)
    train = Dataset(x[:40], y[:40], "regression")
    val = Dataset(x[40:], y[40:], "regression")
    config = BoostConfig(iterations=500, nu=0.5, learner="tree", max_depth=4,
                         early_stopping_rounds=10)
    ens, report = fit(train, config, validation=val)
    completed = len(report.train_risk)
    assert completed < 500
    assert completed == report.best_iteration + 10
    assert ens.n_iterations == completed
    # the traces agree with a run that was never stopped early
    _, full = fit(
        train,
        BoostConfig(iterations=500, nu=0.5, learner="tree", max_depth=4),
        validation=val,
    )
    assert full.validation_risk[:completed] == report.validation_risk
    assert full.best_iteration == report.best_iteration


def test_no_validation_best_iteration_is_completed_count():
    data = _regression_data()
    _, report = fit(data, BoostConfig(iterations=7, rho=0.5))
    assert report.best_iteration == 7
    assert report.validation_risk is None
    assert len(report.seconds) == 7


# ------------------------------------------------------------- truncation


def test_truncation_replays_training_trace():
    data = _regression_data(seed=11)
    ens, report = fit(
        data, BoostConfig(iterations=20, nu=0.2, rho=0.3, standardize=False)
    )
    for m in range(1, 21):
        scores = predict(ens, data.features, truncate_at=m)[:, 0]
        risk = empirical_risk(for_task("regression"), data.targets, scores)
        assert abs(risk - report.train_risk[m - 1]) < 1e-10
    # truncate() and truncate_at agree exactly
    half = truncate(ens, 10)
    assert np.array_equal(
        predict(half, data.features), predict(ens, data.features, truncate_at=10)
    )
    assert half.n_iterations == 10
    zero = predict(ens, data.features, truncate_at=0)
    assert np.allclose(zero, ens.f0[0])


def test_truncate_bounds():
    data = _regression_data()
    ens, _ = fit(data, BoostConfig(iterations=3, rho=0.5))
    with pytest.raises(DataError):
        truncate(ens, 4)
    with pytest.raises(DataError):
        truncate(ens, -1)
    with pytest.raises(DataError):
        predict(ens, data.features, truncate_at=5)
    for bad in (2.5, "2", True, -1):
        with pytest.raises(DataError, match="truncate_at must be an integer"):
            predict(ens, data.features, truncate_at=bad)
        with pytest.raises(DataError, match="n_iterations must be an integer"):
            truncate(ens, bad)
    assert np.array_equal(predict(ens, data.features, truncate_at=np.int64(2)),
                          predict(truncate(ens, 2), data.features))


# ------------------------------------------------------------ multiclass


def test_multiclass_outputs_and_probabilities():
    data = _multiclass_data()
    ens, report = fit(data, BoostConfig(iterations=15, nu=0.3, rho=1.0))
    assert ens.n_outputs == 3
    for it in ens.iterations:
        assert len(it.learners) == 3  # one learner per class, shared tag
    proba = predict_proba(ens, data.features)
    assert proba.shape == (data.n_samples, 3)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(proba >= 0)
    labels = predict_labels(ens, data.features)
    assert np.array_equal(labels, np.argmax(proba, axis=1))
    # boosting should beat guessing on its own training data
    assert np.mean(labels == data.targets) > 0.75


def test_score_shift_leaves_probabilities_unchanged():
    data = _multiclass_data()
    ens, _ = fit(data, BoostConfig(iterations=5, nu=0.3, rho=1.0))
    shifted = dataclasses.replace(ens, f0=ens.f0 + 7.5)
    assert np.allclose(
        predict_proba(ens, data.features),
        predict_proba(shifted, data.features),
        atol=1e-12,
    )


def test_binary_probabilities_complement():
    data = _binary_data()
    ens, _ = fit(data, BoostConfig(iterations=10, nu=0.3, rho=1.0))
    proba = predict_proba(ens, data.features)
    assert proba.shape == (data.n_samples, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)
    with pytest.raises(DataError):
        predict_proba(fit(_regression_data(), BoostConfig(iterations=1, rho=0.5))[0],
                      np.zeros((2, 1)))


def test_predict_rejects_non_finite_features():
    ens, _ = fit(_binary_data(), BoostConfig(iterations=5, nu=0.3, rho=1.0))
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.array([[0.1, 0.5], [0.2, bad]])
        for scorer in (predict, predict_proba, predict_labels):
            with pytest.raises(DataError, match="feature column 1 holds a non-finite value"):
                scorer(ens, rows)


def test_predict_rejects_malformed_features():
    data = _binary_data()
    ens, _ = fit(data, BoostConfig(iterations=5, nu=0.3, rho=1.0))
    with pytest.raises(DataError, match="2-D matrix"):
        predict(ens, data.features[None])
    for bad in ([["a", "b"]], [[0.1, {}]], [[0.1, 0.2], [0.3]]):
        with pytest.raises(DataError, match="numeric"):
            predict(ens, bad)
    # one row may be given as a vector
    assert np.array_equal(predict(ens, data.features[0]), predict(ens, data.features[:1]))


def test_ensemble_refuses_kernel_rounds_without_a_basis():
    data = _regression_data()
    ens, report = fit(data, BoostConfig(iterations=4, learner="kernel", rho=0.5))
    assert report.chosen == ["kernel"] * 4
    for missing in (dict(anchors=None), dict(kernel_config=None)):
        with pytest.raises(DataError, match="kernel rounds need anchors"):
            dataclasses.replace(ens, **missing)
    # a tree-only model needs neither
    trees, _ = fit(data, BoostConfig(iterations=2, learner="tree"))
    assert trees.anchors is None and trees.kernel_config is None


def test_predict_rejects_standardization_overflow():
    # a loaded model may hold finite but extreme means; (0.5 - 1e308) / 1e-3
    # overflows to -inf, which must not reach the learners or warn
    data = _regression_data(seed=21)
    ens, _ = fit(data, BoostConfig(iterations=3, rho=0.5))
    text = dumps(ens)
    text = _repack(text, ("standardizer", "means"), _assign(0, 1e308))
    text = _repack(text, ("standardizer", "scales"), _assign(0, 1e-3))
    model = loads(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="feature column 0 overflows when standardized"):
            predict(model, data.features)
    # the same model scores a row that stays finite
    assert np.all(np.isfinite(predict(model, [[1e308]])))


# ----------------------------------------------------------- numerics


def test_diverged_risk_raises():
    # residuals of overflow scale: the squared risk leaves float range
    x = np.arange(4.0)[:, None]
    y = np.array([1e200, -1e200, 1e200, -1e200])
    data = Dataset(x, y, "regression")
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        fit(data, BoostConfig(iterations=3, nu=0.1, learner="tree", max_depth=1,
                              standardize=False))


def test_standardization_changes_kernel_geometry_only():
    # tree-only fits are invariant to standardization; predictions identical
    data = _regression_data(seed=12)
    cfg_on = BoostConfig(iterations=10, learner="tree", standardize=True)
    cfg_off = BoostConfig(iterations=10, learner="tree", standardize=False)
    ens_on, _ = fit(data, cfg_on)
    ens_off, _ = fit(data, cfg_off)
    assert np.allclose(
        predict(ens_on, data.features), predict(ens_off, data.features), atol=1e-12
    )


def test_rho_mode_resolves_on_training_rows():
    data = _regression_data(seed=13)
    ens, _ = fit(
        data,
        BoostConfig(iterations=1, learner="kernel", rho_mode="decay01", rho_knn=3),
    )
    st = fit_standardizer(data)
    expected = select_rho(st.transform(data.features), 3)
    assert ens.kernel_config.rho == expected


def test_predict_builds_kernel_matrix_in_bounded_blocks(monkeypatch):
    from ktboost import boost, kernels

    data = _multiclass_data(n=90, seed=23)
    ens, _ = fit(data, BoostConfig(iterations=6, learner="kernel", rho=0.7))
    batch = np.random.default_rng(24).normal(size=(1000, data.n_features))
    whole = predict(ens, batch)
    limit = 8 * 90 * 7  # seven rows of the 1000-by-90 matrix
    monkeypatch.setattr(kernels, "KERNEL_BLOCK_LIMIT_BYTES", limit)
    blocks = []

    def recording(a, b, rho):
        out = kernel_matrix(a, b, rho)
        blocks.append(out.nbytes)
        return out

    monkeypatch.setattr(boost, "kernel_matrix", recording)
    chunked = predict(ens, batch)
    assert len(blocks) == -(-1000 // 7) and max(blocks) <= limit
    assert np.allclose(chunked, whole, rtol=1e-12, atol=0.0)


def test_nystrom_training_uses_sampled_anchors():
    data = _regression_data(n=50, seed=14)
    ens, report = fit(
        data,
        BoostConfig(iterations=5, learner="kernel", rho=0.5, nystrom=8, seed=3),
    )
    assert ens.anchors.shape == (8, 1)
    assert ens.kernel_config.nystrom_samples == 8
    for it in ens.iterations:
        assert it.learners[0].shape == (8,)
    assert '"mode":"nystrom"' in dumps(ens)
    assert np.isfinite(report.train_risk[-1])
    assert predict(ens, data.features).shape == (50, 1)


# ------------------------------------------------------------ persistence


def test_save_load_round_trip(tmp_path):
    nystrom = BoostConfig(iterations=8, nu=0.2, rho=0.8, nystrom=12, seed=4)
    for data, config, cut, name in [
        (_regression_data(seed=15), None, None, "r"),
        (_binary_data(seed=16), None, None, "b"),
        (_multiclass_data(seed=17), None, None, "m"),
        (_multiclass_data(seed=17), nystrom, None, "mn"),
        (_binary_data(seed=16), nystrom, 5, "bn5"),
        (_regression_data(seed=15), None, 3, "r3"),
        (_regression_data(seed=15), dataclasses.replace(nystrom, learner="kernel"), None, "rk"),
    ]:
        ens, report = fit(data, config or BoostConfig(iterations=8, nu=0.2, rho=0.8))
        if cut is not None:
            ens = truncate(ens, cut)
        path = tmp_path / f"{name}.json"
        save(ens, path)
        back = load(path)
        assert np.array_equal(
            predict(ens, data.features), predict(back, data.features)
        ), name
        assert back.task == ens.task
        assert back.label_names == ens.label_names
        assert np.array_equal(back.f0, ens.f0)
        assert [it.tag for it in back.iterations] == [it.tag for it in ens.iterations]
        # canonical form: a second save is byte-identical
        path2 = tmp_path / f"{name}2.json"
        save(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def _per_round_scores(ens, x):
    """Scores from the per-round alphas, summed round by round as format 3 did."""
    xs = ens.standardizer.transform(x)
    scores = np.tile(ens.f0, (len(xs), 1))
    for it in ens.iterations:
        if it.tag == "tree":
            for k, tree in enumerate(it.learners):
                scores[:, k] += ens.nu * predict_tree_batch(tree, xs)
    kernel_rounds = [it.learners for it in ens.iterations if it.tag == "kernel"]
    alphas = np.column_stack([sum(per_output) for per_output in zip(*kernel_rounds)])
    scores += ens.nu * (kernel_matrix(xs, ens.anchors, ens.kernel_config.rho) @ alphas)
    return scores


@pytest.mark.parametrize("task", ["regression", "multiclass"])
@pytest.mark.parametrize("nystrom", [None, 12])
@pytest.mark.parametrize("learner", ["kernel", "ktboost"])
def test_loaded_models_predict_every_bit(task, nystrom, learner):
    if task == "regression":
        data, rho, depth = _regression_data(seed=15), 0.8, 2
    else:
        data, rho, depth = _multiclass_data(seed=17), 2.0, 1
    config = BoostConfig(iterations=12, nu=0.2, rho=rho, max_depth=depth, learner=learner,
                         nystrom=nystrom, seed=4)
    assert config.newton
    ens, report = fit(data, config)
    assert "kernel" in report.chosen and ("tree" in report.chosen) == (learner == "ktboost")
    back = loads(dumps(ens))
    x = np.random.default_rng(5).normal(size=(40, data.n_features))
    assert np.array_equal(predict(back, x), predict(ens, x))
    assert np.array_equal(predict(ens, x), _per_round_scores(ens, x))
    # the file holds one summed alpha per output
    assert back.alpha.shape == (ens.n_outputs, len(ens.anchors))
    assert np.array_equal(back.alpha, ens.alpha)
    assert all(it.learners is None for it in back.iterations if it.tag == "kernel")


def test_loaded_models_truncate_only_after_their_last_kernel_round():
    data = _regression_data(seed=15)
    ens, report = fit(data, BoostConfig(iterations=12, nu=0.2, rho=0.8, max_depth=2))
    last = max(m for m, tag in enumerate(report.chosen, 1) if tag == "kernel")
    assert last < 12  # the model ends in tree rounds
    back = loads(dumps(ens))
    for m in range(last, 13):
        want = predict(ens, data.features, truncate_at=m)
        assert np.array_equal(predict(back, data.features, truncate_at=m), want)
        assert np.array_equal(predict(truncate(back, m), data.features), want)
        assert dumps(truncate(back, m)) == dumps(truncate(ens, m))
    for m in (0, last - 1):
        with pytest.raises(DataError, match=f"last kernel round, {last}"):
            truncate(back, m)
        with pytest.raises(DataError, match="last kernel round"):
            predict(back, data.features, truncate_at=m)
    # a fitted model truncates anywhere, and without kernel rounds writes none
    assert truncate(ens, 0).alpha is None
    assert json.loads(dumps(truncate(ens, 0)))["kernel"] is None


def test_dumps_is_deterministic_and_canonical():
    data = _regression_data(seed=18)
    ens, _ = fit(data, BoostConfig(iterations=4, rho=0.5))
    text = dumps(ens)
    assert dumps(ens) == text
    assert text == dumps(loads(text))
    # compact separators, sorted keys
    assert '"format_version":4' in text
    assert ", " not in text.split('"label_map"')[0][:200]


def test_kernel_anchors_are_written_once():
    data = _regression_data(seed=19)
    ens, _ = fit(data, BoostConfig(iterations=10, learner="kernel", rho=0.4))
    assert dumps(ens).count('"anchors"') == 1


def _repack(text, path, edit, dtype="<f8"):
    """Rewrite one base64 array of a model document through ``edit``.

    ``edit`` gets a writable copy of the decoded array and changes it in
    place or returns raw bytes to store instead.
    """
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    values = np.frombuffer(base64.b64decode(parent[path[-1]]), dtype=dtype).copy()
    raw = edit(values)
    raw = values.tobytes() if raw is None else raw
    parent[path[-1]] = base64.b64encode(raw).decode("ascii")
    return json.dumps(doc)


def _assign(index, value):
    def edit(values):
        values[index] = value
    return edit


def test_load_rejects_malformed_documents():
    data = _regression_data(seed=20)
    ens, _ = fit(data, BoostConfig(iterations=2, rho=0.5))
    text = dumps(ens)
    with pytest.raises(ModelFormatError):
        loads(text[: len(text) // 2])  # truncated file
    with pytest.raises(ModelFormatError):
        loads("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        loads(text.replace('"format_version":4', '"format_version":99'))
    with pytest.raises(ModelFormatError):
        loads(text.replace('"task":"regression"', '"task":"binary"'))
    kernel_ens, _ = fit(data, BoostConfig(iterations=2, learner="kernel", rho=0.5))
    kernel_text = dumps(kernel_ens)
    # non-finite floats in every packed float array
    for path, source in ((("f0",), text), (("standardizer", "means"), text),
                         (("standardizer", "scales"), text), (("kernel", "anchors"), kernel_text),
                         (("kernel", "alpha"), kernel_text)):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ModelFormatError):
                loads(_repack(source, path, _assign(0, bad)))
    # base64 that is not base64, and payloads that lost one to seven bytes
    for stray in ("!", "*", "=", "é"):
        with pytest.raises(ModelFormatError):
            loads(kernel_text.replace('"alpha":"', '"alpha":"' + stray, 1))
    for cut in range(1, 8):
        with pytest.raises(ModelFormatError):
            loads(_repack(kernel_text, ("kernel", "alpha"), lambda v: v.tobytes()[:-cut]))
        with pytest.raises(ModelFormatError):
            loads(_repack(kernel_text, ("kernel", "anchors"), lambda v: v.tobytes()[:-cut]))
    # arrays must be base64 strings, scalars JSON numbers: no strings, no booleans
    for key in ("f0", "rounds"):
        with pytest.raises(ModelFormatError):
            loads(re.sub(rf'"{key}":"[^"]*"', f'"{key}":[0.5]', text, count=1))
    for key, text_ in (("nu", text), ("rho", kernel_text), ("lambda", kernel_text)):
        for repl in (rf'"{key}":"\1"', f'"{key}":true', f'"{key}":1{"0" * 400}'):
            bad, count = re.subn(rf'"{key}":(-?[0-9][0-9.e+-]*)', repl, text_, count=1)
            assert count == 1
            with pytest.raises(ModelFormatError):
                loads(bad)


def _tree_model_text():
    """A regression model of two depth-2 tree rounds, nodes 0..6 per tree."""
    x = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.0, 0.0], [4.0, 2.0],
                  [5.0, 1.0], [6.0, 0.0], [7.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 5.0, 5.0, 9.0, 9.0])
    ens, _ = fit(Dataset(x, y, "regression"),
                 BoostConfig(iterations=2, learner="tree", max_depth=2, standardize=False))
    tree = ens.iterations[0].learners[0]
    assert tree.feature.tolist() == [0, 0, -1, -1, 0, -1, -1]
    return dumps(ens)


def test_load_rejects_malformed_trees():
    text = _tree_model_text()
    assert dumps(loads(text)) == text
    ints = ("feature", "left", "right", "n", "start")
    cases = [
        # (field, index, value, message); tree 0 is nodes 0-6, tree 1 nodes 7-13:
        # 0 splits into 1 and 4, 1 into the leaves 2 and 3, 4 into 5 and 6
        ("threshold", 0, np.nan, "non-finite"), ("threshold", 8, np.inf, "non-finite"),
        ("value", 3, -np.inf, "non-finite"), ("value", 9, np.nan, "non-finite"),
        ("feature", 0, 2, "feature outside"), ("feature", 2, -2, "feature outside"),
        ("feature", 2, 0, "leaves must"), ("feature", 1, -1, "leaves must"),
        ("left", 2, 3, "leaves must"), ("right", 2, 5, "leaves must"),
        ("n", 3, 0, "training rows"), ("n", 7, -5, "training rows"),
        ("left", 1, 3, "left child"), ("left", 8, 1, "left child"),
        ("right", 1, 1, "right child"), ("right", 0, 7, "right child"),
        ("right", 1, 4, "one parent"),  # shared with the root's right child
        ("start", 1, 8, "left child"), ("start", 1, 0, "start offsets"),
        ("start", 0, 1, "start offsets"),
    ]
    for name, index, value, message in cases:
        dtype = "<i4" if name in ints else "<f8"
        with pytest.raises(ModelFormatError, match=message):
            loads(_repack(text, ("trees", name), _assign(index, value), dtype))
    # a tree in which each node has one parent, but 4's left child is 3,
    # not 5: the links must also follow preorder
    relinked = _repack(text, ("trees", "left"), _assign(4, 3), "<i4")
    with pytest.raises(ModelFormatError, match="left child"):
        loads(_repack(relinked, ("trees", "right"), _assign(1, 5), "<i4"))
    for name in ("feature", "threshold", "left", "right", "value", "n", "start"):
        dtype = "<i4" if name in ints else "<f8"
        for cut in (1, 4, 7):
            with pytest.raises(ModelFormatError):
                loads(_repack(text, ("trees", name), lambda v: v.tobytes()[:-cut], dtype))
    with pytest.raises(ModelFormatError, match="differ in length"):
        loads(_repack(text, ("trees", "value"), lambda v: v.tobytes()[:-8]))
    # rounds must name one tree round per d trees and one kernel round per
    # d alpha rows
    for rounds, message in (("t", "trees for"), ("ttt", "trees for"), ("ttk", "without a kernel"),
                            ("tk", "trees for"), ("", "trees for"), ("ttx", "rounds must")):
        with pytest.raises(ModelFormatError, match=message):
            loads(text.replace('"rounds":"tt"', f'"rounds":"{rounds}"'))
    no_trees = _repack(text.replace('"rounds":"tt"', '"rounds":""'), ("trees", "start"), lambda v: b"", "<i4")
    with pytest.raises(ModelFormatError, match="without a tree"):
        loads(no_trees)


def test_load_rejects_malformed_kernel_blocks():
    data = _binary_data(seed=22)  # two features
    kernel_text = dumps(fit(data, BoostConfig(iterations=3, learner="kernel", rho=0.5))[0])
    # the kernel rounds' count is free, their trees are not
    assert loads(kernel_text.replace('"rounds":"kkk"', '"rounds":"kk"')).n_iterations == 2
    with pytest.raises(ModelFormatError, match="trees for"):
        loads(kernel_text.replace('"rounds":"kkk"', '"rounds":"kkt"'))
    # whole floats dropped: an anchor row cut short, no anchors
    for cut in (8, None):
        with pytest.raises(ModelFormatError, match="anchor matrix"):
            loads(_repack(kernel_text, ("kernel", "anchors"), lambda v: v.tobytes()[:-cut] if cut else b""))
    doc = json.loads(kernel_text)
    doc["kernel"] = None
    with pytest.raises(ModelFormatError, match="without a kernel block"):
        loads(json.dumps(doc))


def test_load_checks_the_summed_alpha():
    data = _multiclass_data(seed=22)
    ens, report = fit(data, BoostConfig(iterations=4, nu=0.3, rho=1.0, max_depth=1))
    assert "kernel" in report.chosen
    text = dumps(ens)
    assert dumps(loads(text)) == text
    rounds = json.loads(text)["rounds"]
    # one row of anchors entries per output, all finite
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelFormatError, match="non-finite kernel coefficients"):
            loads(_repack(text, ("kernel", "alpha"), _assign(-1, bad)))
    for edit in (lambda v: v.tobytes()[:-8], lambda v: v.tobytes()[: v.size // 3 * 8],
                 lambda v: v.tobytes() * 2, lambda v: b""):
        with pytest.raises(ModelFormatError, match="one row per output"):
            loads(_repack(text, ("kernel", "alpha"), edit))
    # the sum is present exactly when rounds holds a k
    without_k = rounds.replace("k", "t")
    trees = json.loads(dumps(fit(data, BoostConfig(iterations=len(rounds), learner="tree"))[0]))["trees"]
    doc = json.loads(text)
    doc["rounds"], doc["trees"] = without_k, trees
    with pytest.raises(ModelFormatError, match="kernel block without kernel rounds"):
        loads(json.dumps(doc))
    doc["kernel"] = None
    assert loads(json.dumps(doc)).alpha is None
    doc = json.loads(text)
    del doc["kernel"]["alpha"]
    with pytest.raises(ModelFormatError, match="alpha"):
        loads(json.dumps(doc))
    # so is an Ensemble's
    loaded = loads(text)
    with pytest.raises(DataError, match="summed alpha needs kernel rounds"):
        dataclasses.replace(loaded, iterations=[it for it in loaded.iterations if it.tag == "tree"])
    with pytest.raises(DataError, match="their summed alpha"):
        dataclasses.replace(loaded, alpha=None)
    with pytest.raises(DataError, match="outputs by anchors"):
        dataclasses.replace(loaded, alpha=loaded.alpha[:2])
    with pytest.raises(DataError, match="non-finite"):
        dataclasses.replace(loaded, alpha=np.full_like(loaded.alpha, np.nan))


def test_load_refuses_format_version_3():
    # version 3 stored one alpha row per kernel round and output
    data = _regression_data(seed=20)
    ens, _ = fit(data, BoostConfig(iterations=3, learner="kernel", rho=0.5))
    doc = json.loads(dumps(ens))
    doc["format_version"] = 3
    doc["kernel"]["alpha"] = base64.b64encode(
        np.concatenate([it.learners[0] for it in ens.iterations]).tobytes()).decode("ascii")
    with pytest.raises(ModelFormatError, match="version 3; retrain"):
        loads(json.dumps(doc))


def test_load_rejects_wrong_loss_for_task():
    data = _binary_data(seed=21)
    ens, _ = fit(data, BoostConfig(iterations=2, rho=1.0))
    text = dumps(ens)
    with pytest.raises(ModelFormatError):
        loads(text.replace('"loss":"logistic"', '"loss":"squared"'))
    # a label map must name each class once
    named = dumps(fit(Dataset(data.features, data.targets, "binary", label_names=("a", "b")),
                      BoostConfig(iterations=2, rho=1.0))[0])
    assert loads(named).label_names == ("a", "b")
    for label_map, message in (('["a","a"]', "repeats"), ('["a"]', "class count")):
        with pytest.raises(ModelFormatError, match=message):
            loads(named.replace('"label_map":["a","b"]', f'"label_map":{label_map}'))


def test_ensemble_manual_construction():
    # hand-built single-stump model: f0 + nu * weight on one side
    from ktboost.boost import IterationLearners
    from ktboost.trees import Tree

    stump = Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, 1.0, -1.0]),
        n=np.array([2, 1, 1], dtype=np.int32),
    )
    ens = Ensemble(
        "regression", "squared", 0.1, np.array([0.5]),
        identity_standardizer(1), [IterationLearners("tree", [stump])],
    )
    out = predict(ens, np.array([[0.0], [1.0]]))
    assert np.allclose(out[:, 0], [0.6, 0.4])
    assert dumps(loads(dumps(ens))) == dumps(ens)


@functools.lru_cache(maxsize=None)
def _fuzz_models():
    """Two small v4 documents: exact-kernel ktboost and Nystrom binary."""
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(10, 2))
    reg, rep = fit(Dataset(x, np.sin(4 * x[:, 0]) + x[:, 1], "regression"),
                   BoostConfig(iterations=6, nu=0.5, max_depth=2, rho=0.5))
    assert set(rep.chosen) == {"tree", "kernel"}
    xb = rng.normal(size=(12, 2))
    binary, _ = fit(Dataset(xb, (xb[:, 0] > 0).astype(int), "binary", label_names=("neg", "pos")),
                    BoostConfig(iterations=3, learner="kernel", rho=1.0, nystrom=4, seed=1))
    texts = [dumps(reg), dumps(binary)]
    for text in texts:
        assert dumps(loads(text)) == text
    return texts, np.vstack([x, xb])


# dtype of every base64 field, by key
_PACKED = {"f0": "<f8", "means": "<f8", "scales": "<f8", "anchors": "<f8", "alpha": "<f8",
           "threshold": "<f8", "value": "<f8", "feature": "<i4", "left": "<i4",
           "right": "<i4", "n": "<i4", "start": "<i4"}


def _fuzz_paths(node, path=()):
    """Every (path, mutation) pair of one document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
        if node:
            yield path, "truncate"
    else:
        children = ()
        if isinstance(node, (int, float)):
            yield path, "set"
        elif path and path[-1] in _PACKED:
            yield path, "stray"
            if node:
                yield path, "short"
                yield path, "element"
        elif path == ("rounds",):
            yield path, "rounds"
    if path and not isinstance(path[-1], int):
        yield path, "delete"
    for key, child in children:
        yield from _fuzz_paths(child, path + (key,))


def _mutate_packed(value: str, dtype: str, mutation: str, data) -> str:
    raw = base64.b64decode(value)
    if mutation == "stray":
        at = data.draw(st.integers(0, len(value)))
        return value[:at] + data.draw(st.sampled_from(["!", "=", " ", "é"])) + value[at:]
    if mutation == "short":
        return base64.b64encode(raw[:-data.draw(st.integers(1, min(7, len(raw))))]).decode()
    values = np.frombuffer(raw, dtype=dtype).copy()
    i = data.draw(st.integers(0, values.size - 1))
    if dtype == "<f8":
        values[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1e308, 1e308]))
    else:
        # backward, self, forward, out-of-range and shared indices, feature >= p, n = 0
        j = data.draw(st.integers(0, values.size - 1))
        values[i] = data.draw(st.sampled_from(
            [-2, -1, 0, 1, 2, 3, i - 1, i, i + 1, i + 2, values.size, 2**31 - 1, int(values[j])]))
    return base64.b64encode(values.tobytes()).decode()


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mutated_documents_load_finite_or_raise(data):
    texts, x = _fuzz_models()
    doc = json.loads(data.draw(st.sampled_from(texts)))
    path, mutation = data.draw(st.sampled_from(list(_fuzz_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if mutation == "delete":
        del parent[path[-1]]
    elif mutation == "truncate":
        parent[path[-1]] = node[: data.draw(st.integers(0, len(node) - 1))]
    elif mutation == "set":
        parent[path[-1]] = data.draw(st.sampled_from([math.inf, -1, 0, "x", "nan", "1"]))
    elif mutation == "rounds":
        at = data.draw(st.integers(0, len(node)))
        parent[path[-1]] = data.draw(st.sampled_from(
            [node[:at] + node[at + 1:], node[:at] + "t" + node[at:],
             node[:at] + "k" + node[at:], node[:at] + "x" + node[at:]]))
    else:
        parent[path[-1]] = _mutate_packed(node, _PACKED[path[-1]], mutation, data)
    text = json.dumps(doc).replace("Infinity", "1e999")
    try:
        model = loads(text)
    except ModelFormatError:
        return
    try:
        scores = predict(model, x)
    except DataError:
        # only a finite but extreme standardizer may refuse finite rows
        with np.errstate(over="ignore"):
            z = (x - model.standardizer.means) / model.standardizer.scales
        assert not np.all(np.isfinite(z))
        return
    assert np.all(np.isfinite(scores))
