"""Kernel ridge solves against dense-solver oracles, Nystrom, bandwidths."""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from ktboost import (
    DataError,
    Ensemble,
    IterationLearners,
    KernelConfig,
    KernelSolver,
    NumericalError,
    build_gradient_cache,
    build_nystrom,
    fit_kernel_gradient,
    fit_kernel_newton,
    identity_standardizer,
    kernel_matrix,
    nystrom_indices,
    predict,
    select_rho,
)
from ktboost.kernels import DECAY01, INVERSE_CROSSOVER, factorize_spd, fitted_values
from oracles import (
    gaussian_kernel,
    nystrom_gram,
    oracle_kernel_alpha,
    oracle_kernel_matrix,
    oracle_kernel_objective,
)


def _instance(rng, n=20, p=2, rho=1.0, lam=1.0):
    x = rng.uniform(-2.0, 2.0, size=(n, p))
    g = rng.normal(size=n)
    h = rng.uniform(0.2, 2.0, n)
    return x, g, h, KernelConfig(rho=rho, lam=lam)


def _exact_solver(x, config):
    gram = kernel_matrix(x, x, config.rho)
    return KernelSolver(x, gram, gram, config.lam)


def _nystrom_solver(x, config, seed=0):
    indices = nystrom_indices(len(x), config.nystrom_samples, seed)
    return build_nystrom(x, indices, config)


def _expansion(anchors, alpha, rho, rows):
    """sum_j alpha[j] K(anchors[j], row) per row, through boost.predict.

    A kernel-only model with f0 = 0, nu = 1 and an identity standardizer
    scores each row with exactly the expansion's value.
    """
    ensemble = Ensemble(
        "regression", "squared", 1.0, np.zeros(1), identity_standardizer(anchors.shape[1]),
        [IterationLearners("kernel", [alpha])], None, anchors, KernelConfig(rho=rho, lam=1.0),
    )
    return predict(ensemble, rows)[:, 0]


# ----------------------------------------------------------- kernel values


def test_gaussian_kernel_hand_values():
    assert gaussian_kernel([1.0, 2.0], [1.0, 2.0], 0.5) == 1.0
    # 3-4-5 triangle: squared distance 25, rho 5 gives exp(-1)
    assert np.isclose(gaussian_kernel([0.0, 0.0], [3.0, 4.0], 5.0), np.exp(-1.0))
    assert np.isclose(gaussian_kernel([0.0], [2.0], 2.0), np.exp(-1.0))
    with pytest.raises(DataError):
        gaussian_kernel([0.0], [0.0, 1.0], 1.0)


def test_kernel_matrix_matches_loops():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(5, 3))
    k = kernel_matrix(a, b, 1.3)
    assert np.allclose(k, oracle_kernel_matrix(a, b, 1.3), atol=1e-14)
    scalar = gaussian_kernel(a[2], b[4], 1.3)
    assert np.isclose(k[2, 4], scalar, atol=1e-14)


def test_kernel_matrix_is_psd_with_unit_diagonal():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 4))
    k = kernel_matrix(x, x, 0.8)
    assert np.allclose(np.diag(k), 1.0)
    assert np.allclose(k, k.T, atol=1e-15)
    assert np.linalg.eigvalsh(k).min() > -1e-10
    assert np.all((k > 0) & (k <= 1.0))


# ---------------------------------------------------------- exact solves


def test_newton_alpha_matches_dense_stationarity_solve():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 5))
        x, g, h, config = _instance(rng, n, p, rho=1.0, lam=0.5 + rng.random())
        alpha = fit_kernel_newton(_exact_solver(x, config), g, h)
        ref = oracle_kernel_alpha(x, g, h, config.rho, config.lam)
        assert np.max(np.abs(alpha - ref)) < 1e-7


def test_newton_alpha_is_stationary_point():
    # gradient of the penalized quadratic at alpha must vanish:
    # K (g + h * (K alpha)) + lam K alpha = 0
    rng = np.random.default_rng(3)
    x, g, h, config = _instance(rng, 25, 3)
    alpha = fit_kernel_newton(_exact_solver(x, config), g, h)
    k = oracle_kernel_matrix(x, x, config.rho)
    f = k @ alpha
    grad = k @ (g + h * f) + config.lam * (k @ alpha)
    assert np.max(np.abs(grad)) < 1e-8


def test_newton_objective_not_worse_than_oracle():
    rng = np.random.default_rng(4)
    x, g, h, config = _instance(rng, 18, 2)
    alpha = fit_kernel_newton(_exact_solver(x, config), g, h)
    ref = oracle_kernel_alpha(x, g, h, config.rho, config.lam)
    k = oracle_kernel_matrix(x, x, config.rho)
    ours = oracle_kernel_objective(k, g, h, config.lam, alpha)
    theirs = oracle_kernel_objective(k, g, h, config.lam, ref)
    assert ours <= theirs + 1e-10
    # and the fit genuinely descends from f = 0
    assert ours < 0.0 or np.allclose(g, 0.0)


def test_gradient_mode_equals_unit_hessian_newton():
    rng = np.random.default_rng(5)
    x, g, _, config = _instance(rng, 30, 3)
    solver = _exact_solver(x, config)
    a = fit_kernel_newton(solver, g, np.ones(30))
    cached = build_gradient_cache(solver)
    b = fit_kernel_gradient(cached, g, np.ones(30))
    assert np.array_equal(a, b)
    assert np.array_equal(cached.anchors, x)


def test_gradient_cache_reuse_is_exact():
    rng = np.random.default_rng(6)
    x, g, _, config = _instance(rng, 24, 2)
    solver = _exact_solver(x, config)
    cache = build_gradient_cache(solver)
    assert solver.factor is None and cache.basis is solver.basis
    ones = np.ones(24)
    fresh = fit_kernel_gradient(build_gradient_cache(solver), g, ones)
    cached = fit_kernel_gradient(cache, g, ones)
    assert np.array_equal(fresh, cached)
    # cache survives a second right-hand side
    g2 = rng.normal(size=24)
    assert np.array_equal(
        fit_kernel_gradient(build_gradient_cache(solver), g2, ones),
        fit_kernel_gradient(cache, g2, ones),
    )


@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_cached_inverse_matches_dense_oracle(lam):
    # from n/5 solves on, the cache is the inverse of K + (lam+eps) I, with
    # eps the factorization's jitter, and the fitted values are O(n)
    rng = np.random.default_rng(20)
    n = 40
    x, g, _, config = _instance(rng, n, 2, rho=1.0, lam=lam)
    ones = np.ones(n)
    solver = _exact_solver(x, config)
    gram = solver.gram.copy()
    below = build_gradient_cache(solver, n // INVERSE_CROSSOVER - 1)
    assert below.factor is not None and below.inverse is None and below.basis is solver.basis
    cache = build_gradient_cache(solver, n // INVERSE_CROSSOVER)
    assert cache.factor is None and cache.basis is None and cache.gram is None
    assert np.array_equal(solver.gram, gram)  # lam and eps went onto K only while inverting
    assert cache.jitter == below.jitter == 10.0**-10 * (float(np.trace(gram + lam * np.eye(n))) / n)
    alpha = fit_kernel_gradient(cache, g, ones)
    ref = oracle_kernel_alpha(x, g, ones, config.rho, lam + cache.jitter)
    k = oracle_kernel_matrix(x, x, config.rho)
    assert np.max(np.abs(alpha - ref)) < 1e-7
    assert np.max(np.abs(fitted_values(cache, g, alpha) - k @ ref)) < 1e-7
    # the factor path solves the same jittered system
    assert np.max(np.abs(fit_kernel_gradient(below, g, ones) - ref)) < 1e-7
    assert np.array_equal(fitted_values(below, g, ref), gram @ ref)


def test_cached_inverse_solves_the_jittered_system():
    # K has an eigenvalue 5e-7 below -lam, so K + lam*I is indefinite and
    # factorizes only with jitter 10^-6 * trace/dim; g has a small part
    # along that eigenvector, whose coefficient then depends on the jitter
    rng = np.random.default_rng(21)
    dim, lam = 30, 0.25
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.concatenate([[-lam - 5e-7], rng.uniform(0.5, 1.5, dim - 1)])
    k = (q * eigs) @ q.T
    k = (k + k.T) / 2
    g = q @ np.concatenate([[1e-6], rng.normal(size=dim - 1)])
    system = k + lam * np.eye(dim)
    solver = KernelSolver(rng.normal(size=(dim, 2)), k, k, lam)
    cache = build_gradient_cache(solver, dim)
    assert cache.jitter == 10.0**-6 * (float(np.trace(system)) / dim)
    jittered = system + cache.jitter * np.eye(dim)
    alpha = fit_kernel_gradient(cache, g, np.ones(dim))
    ref = np.linalg.solve(jittered, -g)
    assert abs(q[:, 0] @ ref) > 0.5  # the near-null coefficient is not small
    assert np.max(np.abs(alpha - ref)) < 1e-7
    assert np.max(np.abs(fitted_values(cache, g, alpha) - k @ alpha)) < 1e-7


def test_nystrom_cache_keeps_the_factor():
    # lam*W + C^T C inherits W's conditioning, where an explicit inverse
    # loses accuracy, so any solve budget keeps the factor
    rng = np.random.default_rng(22)
    x = rng.uniform(-2, 2, size=(60, 2))
    g = rng.normal(size=60)
    solver = _nystrom_solver(x, KernelConfig(rho=1.0, lam=0.01, nystrom_samples=60))
    cache = build_gradient_cache(solver, 1000)
    assert cache.inverse is None and cache.basis is solver.basis
    alpha = fit_kernel_gradient(cache, g, np.ones(60))
    assert np.array_equal(alpha, fit_kernel_gradient(build_gradient_cache(solver), g, np.ones(60)))
    assert np.array_equal(fitted_values(cache, g, alpha), solver.basis @ alpha)


def test_alpha_norm_shrinks_with_lambda():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, size=(30, 2))
    g = rng.normal(size=30)
    norms = []
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
        cache = build_gradient_cache(_exact_solver(x, KernelConfig(rho=1.0, lam=lam)))
        norms.append(np.linalg.norm(fit_kernel_gradient(cache, g, np.ones(30))))
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_newton_requires_positive_hessians():
    rng = np.random.default_rng(8)
    x, g, h, config = _instance(rng, 10, 2)
    h[3] = 0.0
    solver = _exact_solver(x, config)
    with pytest.raises(DataError):
        fit_kernel_newton(solver, g, h)
    with pytest.raises(DataError):
        fit_kernel_newton(solver, g[:-1], h[:-1] * 0 + 1)


# ------------------------------------------------------------- prediction


def test_predict_matches_batch_and_is_linear_in_alpha():
    rng = np.random.default_rng(9)
    x, g, h, config = _instance(rng, 15, 3)
    alpha = fit_kernel_newton(_exact_solver(x, config), g, h)
    grid = rng.normal(size=(40, 3))
    batch = _expansion(x, alpha, config.rho, grid)
    scalar = np.array([_expansion(x, alpha, config.rho, row)[0] for row in grid])
    assert np.allclose(batch, scalar, atol=1e-14)
    assert np.allclose(_expansion(x, 2.0 * alpha, config.rho, grid), 2.0 * batch)


def test_far_field_predictions_vanish():
    rng = np.random.default_rng(10)
    anchors = rng.uniform(-1.0, 1.0, size=(20, 2))
    alpha = rng.normal(size=20)
    # query at least 5 rho away from every anchor: kernel values <= e^-25
    far = np.array([100.0, 100.0])
    bound = np.exp(-25.0) * np.sum(np.abs(alpha))
    assert abs(_expansion(anchors, alpha, 1.0, far)[0]) <= bound


def test_anchor_permutation_invariance():
    rng = np.random.default_rng(11)
    anchors = rng.normal(size=(12, 2))
    alpha = rng.normal(size=12)
    perm = rng.permutation(12)
    grid = rng.normal(size=(30, 2))
    assert np.allclose(
        _expansion(anchors, alpha, 0.7, grid),
        _expansion(anchors[perm], alpha[perm], 0.7, grid),
        atol=1e-12,
    )


# ---------------------------------------------------------------- Nystrom


def test_nystrom_indices_contract():
    idx = nystrom_indices(50, 12, seed=3)
    assert idx.shape == (12,)
    assert np.all(np.diff(idx) > 0)  # sorted, no repeats
    assert idx.min() >= 0 and idx.max() < 50
    assert np.array_equal(idx, nystrom_indices(50, 12, seed=3))
    assert not np.array_equal(idx, nystrom_indices(50, 12, seed=4))
    with pytest.raises(DataError):
        nystrom_indices(10, 11, seed=0)
    with pytest.raises(DataError):
        nystrom_indices(10, 0, seed=0)


def test_nystrom_full_sample_recovers_exact_fit():
    rng = np.random.default_rng(12)
    n = 40
    x = rng.uniform(-2, 2, size=(n, 2))
    g = rng.normal(size=n)
    h = rng.uniform(0.3, 1.5, n)
    exact = fit_kernel_newton(_exact_solver(x, KernelConfig(rho=1.0, lam=1.0)), g, h)
    nystrom = _nystrom_solver(x, KernelConfig(rho=1.0, lam=1.0, nystrom_samples=n))
    low = fit_kernel_newton(nystrom, g, h)
    grid = rng.uniform(-2, 2, size=(60, 2))
    assert np.max(np.abs(
        _expansion(nystrom.anchors, low, 1.0, grid) - _expansion(x, exact, 1.0, grid)
    )) < 1e-8


def test_nystrom_gram_is_low_rank_psd():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(35, 3))
    config = KernelConfig(rho=1.0, lam=1.0, nystrom_samples=8)
    solver = _nystrom_solver(x, config, seed=1)
    approx = nystrom_gram(solver)
    eigs = np.linalg.eigvalsh(approx)
    assert eigs.min() > -1e-8
    assert np.sum(eigs > 1e-10) <= 8
    assert solver.basis.shape == (35, 8)
    assert np.array_equal(solver.anchors, x[nystrom_indices(35, 8, 1)])


def test_nystrom_error_shrinks_with_sample_count():
    rng = np.random.default_rng(14)
    n = 60
    x = rng.uniform(-2, 2, size=(n, 2))
    g = rng.normal(size=n)
    h = rng.uniform(0.3, 1.5, n)
    exact = _exact_solver(x, KernelConfig(rho=1.0, lam=1.0))
    target = exact.basis @ fit_kernel_newton(exact, g, h)
    errs = []
    for l in (4, 16, 60):
        per_seed = []
        for seed in range(10):
            low = _nystrom_solver(x, KernelConfig(rho=1.0, lam=1.0, nystrom_samples=l), seed)
            per_seed.append(np.mean((low.basis @ fit_kernel_newton(low, g, h) - target) ** 2))
        errs.append(np.mean(per_seed))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < 1e-12


def test_nystrom_gradient_cache_matches_fresh():
    rng = np.random.default_rng(15)
    x = rng.uniform(-2, 2, size=(80, 2))
    g = rng.normal(size=80)
    config = KernelConfig(rho=1.0, lam=1.0, nystrom_samples=20)
    solver = _nystrom_solver(x, config, seed=5)
    cache = build_gradient_cache(solver)
    ones = np.ones(80)
    a = fit_kernel_gradient(build_gradient_cache(solver), g, ones)
    b = fit_kernel_gradient(cache, g, ones)
    assert np.array_equal(a, b)
    assert not solver.exact and not cache.exact
    # gradient mode equals unit-Hessian Newton bit for bit in low-rank mode too
    c = fit_kernel_newton(solver, g, ones)
    assert np.array_equal(a, c)


def test_build_nystrom_holds_the_sampled_basis():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(20, 2))
    config = KernelConfig(rho=1.0, lam=1.0, nystrom_samples=5)
    indices = nystrom_indices(20, 5, 0)
    solver = build_nystrom(x, indices, config)
    assert solver.factor is None and not solver.exact
    assert np.array_equal(solver.anchors, x[indices])
    assert np.array_equal(solver.gram, kernel_matrix(x[indices], x[indices], 1.0))
    assert np.array_equal(solver.basis, kernel_matrix(x, x[indices], 1.0))


# ------------------------------------------------------------ factorization


def test_factorize_spd_plain_and_jittered():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    original = spd.copy()
    factor, jitter = factorize_spd(spd)
    b = rng.normal(size=6)
    assert np.allclose(cho_solve(factor, b), np.linalg.solve(spd, b), atol=1e-8)
    # the first attempt's jitter, 10^-10 * trace/dim, is always added
    assert jitter == 10.0**-10 * (float(np.trace(spd)) / 6)
    # the jitter goes onto the input's diagonal only while factorizing
    assert np.array_equal(spd, original)
    # tiny negative eigenvalue: jitter escalation rescues the factorization,
    # at 10^-8 * trace/dim, the first jitter above 1e-9
    nearly = np.diag([1.0, 1.0, -1e-9])
    factor, jitter = factorize_spd(nearly)
    assert np.all(np.isfinite(factor[0]))
    assert jitter == 10.0**-8 * (float(np.trace(nearly)) / 3)
    assert np.array_equal(nearly, np.diag([1.0, 1.0, -1e-9]))


def test_factorize_spd_gives_up_on_indefinite():
    indefinite = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NumericalError):
        factorize_spd(indefinite)
    assert np.array_equal(indefinite, np.diag([1.0, 1.0, -1.0]))


# ---------------------------------------------------------------- bandwidth


def test_select_rho_hand_distances():
    # collinear points 0, 1, 3: nearest distances (1, 1, 2)
    x = np.array([[0.0], [1.0], [3.0]])
    assert np.isclose(select_rho(x, 1), (4.0 / 3.0) / DECAY01, rtol=1e-12)
    # k=2 averages both neighbors per row: (2 + 1.5 + 2.5)/3 = 2
    assert np.isclose(select_rho(x, 2), 2.0 / DECAY01, rtol=1e-12)
    assert np.isclose(select_rho(x, 1, "slow"), 2.0, rtol=1e-12)


def test_select_rho_decay_calibration():
    # two points exactly dbar apart: kernel value at dbar is 0.01
    x = np.array([[0.0], [DECAY01]])
    rho = select_rho(x, 1)
    assert np.isclose(rho, 1.0, rtol=1e-12)
    assert np.isclose(gaussian_kernel(x[0], x[1], rho), 0.01, rtol=1e-10)


def test_select_rho_scale_homogeneity():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(25, 3))
    base = select_rho(x, 4)
    assert np.isclose(select_rho(3.0 * x, 4), 3.0 * base, rtol=1e-12)
    assert base > 0


def test_select_rho_slow_is_all_pairs_mean():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(15, 2))
    total, count = 0.0, 0
    for i in range(15):
        for j in range(15):
            if i != j:
                total += float(np.linalg.norm(x[i] - x[j]))
                count += 1
    assert np.isclose(select_rho(x, 1, "slow"), total / count, rtol=1e-12)


def test_select_rho_errors():
    x = np.zeros((5, 2))
    with pytest.raises(DataError):
        select_rho(x, 1)  # coincident rows
    with pytest.raises(DataError):
        select_rho(np.ones((1, 2)), 1)
    with pytest.raises(DataError):
        select_rho(np.arange(6.0).reshape(3, 2), 3)  # k > m-1
    with pytest.raises(DataError):
        select_rho(np.arange(6.0).reshape(3, 2), 0)
    with pytest.raises(DataError):
        select_rho(np.arange(6.0).reshape(3, 2), 1, "fast")


# ----------------------------------------------------------------- configs


def test_kernel_config_validation():
    with pytest.raises(DataError):
        KernelConfig(rho=0.0, lam=1.0)
    with pytest.raises(DataError):
        KernelConfig(rho=np.inf, lam=1.0)
    with pytest.raises(DataError):
        KernelConfig(rho=1.0, lam=-0.5)
    with pytest.raises(DataError):
        KernelConfig(rho=1.0, lam=1.0, nystrom_samples=0)
    for rho, lam in ((np.nan, 1.0), (1e-300, 1.0), (1e200, 1.0), (1.0, np.nan), (1.0, np.inf),
                     (10**400, 1.0), (1.0, 10**400)):
        with pytest.raises(DataError):
            KernelConfig(rho=rho, lam=lam)
    config = KernelConfig(rho=1.0, lam=0.0)
    assert config.lam == 0.0


def test_kernel_solve_validation():
    x = np.arange(6.0).reshape(3, 2)
    solver = _exact_solver(x, KernelConfig(rho=1, lam=1))
    cache = build_gradient_cache(solver)
    ones = np.ones(3)
    for solve, s in ((fit_kernel_newton, solver), (fit_kernel_gradient, cache)):
        with pytest.raises(DataError, match="length mismatch"):
            solve(s, np.ones(4), np.ones(4))
        with pytest.raises(DataError, match="non-finite kernel coefficients"):
            solve(s, np.array([1.0, np.nan, 0.0]), ones)
    with pytest.raises(DataError, match="no cached factor"):
        fit_kernel_gradient(solver, ones, ones)
    with pytest.raises(DataError, match="unit Hessian"):
        fit_kernel_gradient(cache, ones, np.full(3, 0.5))
    inverse = build_gradient_cache(solver, 3)
    with pytest.raises(DataError, match="length mismatch"):
        fit_kernel_gradient(inverse, np.ones(4), np.ones(4))
    with pytest.raises(DataError, match="non-finite kernel coefficients"):
        fit_kernel_gradient(inverse, np.array([1.0, np.nan, 0.0]), ones)
    with pytest.raises(DataError, match="unit Hessian"):
        fit_kernel_gradient(inverse, ones, np.full(3, 0.5))
    with pytest.raises(DataError, match="cached inverse"):
        fit_kernel_newton(inverse, ones, ones)
