"""Gaussian-kernel ridge learners fitted to second-order boosting targets.

The penalized problem solved each boosting iteration is

    min_f  sum_i g_i f(x_i) + 1/2 h_i f(x_i)^2 + 1/2 lam ||f||_H^2

whose minimizer is a kernel expansion f(x) = sum_j alpha_j K(x_j, x) over
the training rows. With D = diag(sqrt(h)) and y = -g/h the coefficients are

    alpha = D (D K D + lam I)^{-1} D y

computed by Cholesky factorization. Whenever the Hessian is constant, the
system matrix K + lam*I is iteration-independent, so it is solved from one
cache for the whole fit: in gradient mode (h identically one) and for the
squared loss in Newton mode, whose Hessian is exactly one too. With
h = 1, D K D and D y are K and y bit for bit, so both modes give
bit-identical coefficients for the squared loss.

Exact mode factorizes K + lam*I once and keeps one of two, chosen by the
fit's solve budget (rounds times outputs) against n:

- below n / INVERSE_CROSSOVER solves, the Cholesky factor: each solve is
  two triangular passes over it, and the fitted values K alpha one more
  pass, over K;
- from there on, the explicit inverse P = (K + (lam+eps) I)^{-1}, with eps
  the jitter that factorize_spd had to add: each solve is one pass,
  alpha = P (-g), and the fitted values K alpha = -g - (lam+eps) alpha
  cost O(n). The one-off inverse costs about four factorizations, which
  short fits do not earn back. The solver keeps neither K nor the factor
  then.

Nystrom mode always keeps the factor (see build_gradient_cache).

Exact mode's solves hold up to four n-by-n matrices (see
check_exact_gram_fits), plus the validation rows' kernel matrix against
the n training rows, and refuses fits for which they would exceed
EXACT_GRAM_LIMIT_BYTES. The Nystrom variant replaces K by the low-rank
approximation C W^{-1} C^T built from l uniformly sampled rows (C the
n-by-l cross matrix, W the l-by-l sample Gram matrix); substituting the
expansion f(x) = sum_j alpha_j K(sample_j, x) reduces the solve to the
l-by-l system

    (lam W + C^T D^2 C) alpha = C^T (-g).

A fit builds one KernelSolver, and that solver owns the cached
unit-Hessian factor or inverse: build_gradient_cache adds it once per fit,
fit_kernel_gradient solves with it and fitted_values maps its
coefficients to the training rows, while fit_kernel_newton factorizes the
Hessian-weighted system on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve
from scipy.spatial.distance import cdist

from .data import check_count
from .errors import DataError, NumericalError

# Diagonal jitter added before any Cholesky of a kernel-derived matrix,
# relative to trace/dim; escalated tenfold per retry up to the limit.
JITTER_START_EXP = -10
JITTER_LIMIT_EXP = -4

# Exact mode's set-up peaks at four n-by-n matrices, 32*n^2 bytes, next to
# the n_val-by-n validation kernel matrix, 8*n_val*n bytes; larger fits
# must use Nystrom sampling.
EXACT_GRAM_LIMIT_BYTES = 4 * 2**30

# An exact cached fit inverts K + lam*I once it has at least
# n / INVERSE_CROSSOVER unit-Hessian solves to make. The inverse costs about
# four factorizations and saves about two thirds of each round's time; at
# 1 BLAS thread on a 2-core machine it paid for itself after 93, 101, 153,
# 175 and 353 solves at n = 250, 500, 1000, 2000 and 5000. n/5 matches the
# measurement at n = 500-1000 and errs towards the factor for larger n,
# where an unearned inverse costs the most (5.3 s more at n = 5000).
INVERSE_CROSSOVER = 5

# Batch prediction builds the rows-by-anchors kernel matrix in row blocks
# of at most this many bytes (8 per entry), so its memory does not grow
# with the batch.
KERNEL_BLOCK_LIMIT_BYTES = 64 * 2**20

# exp(-dbar^2/rho^2) = 0.01 at the mean neighbor distance dbar.
DECAY01 = float(np.sqrt(np.log(100.0)))

RHO_MODES = ("decay01", "slow")


def check_ridge_settings(rho: float | None, lam: float) -> None:
    """Raise DataError for a bandwidth or ridge penalty that no kernel fit can use.

    lam must be finite and nonnegative. rho, when given, must be positive
    with a square that is finite and nonzero: kernel_matrix divides squared
    distances by rho squared, so a rho whose square underflows to 0 or
    overflows is no bandwidth at all. NaN fails every comparison, so both
    tests refuse it. Both are compared as floats: a Python int compares
    exactly, so 10**400 would pass as finite and overflow later.
    """
    try:
        rho = None if rho is None else float(rho)
        lam = float(lam)
    except OverflowError as exc:
        raise DataError("rho and lambda must be finite") from exc
    if rho is not None and not (rho > 0 and 0 < rho * rho < np.inf):
        raise DataError("rho must be positive, with a finite and nonzero square")
    if not 0 <= lam < np.inf:
        raise DataError("lambda must be finite and nonnegative")


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth rho, ridge penalty lam, and optional Nystrom sampling."""

    rho: float
    lam: float
    nystrom_samples: int | None = None

    def __post_init__(self):
        check_ridge_settings(self.rho, self.lam)
        if self.nystrom_samples is not None:
            check_count(self.nystrom_samples, "nystrom sample count", 1)


@dataclass(frozen=True)
class KernelSolver:
    """The kernel basis of one fit and the ridge system built from it.

    ``anchors`` are the expansion's centres: the training rows (exact mode)
    or the l sampled rows (Nystrom mode). ``basis`` maps alpha to the
    training fitted values: K (n-by-n) or the cross matrix C (n-by-l).
    ``gram`` is the matrix the system is built from: K itself in exact
    mode, the sample Gram matrix W in Nystrom mode. The unit-Hessian
    system is cached as either ``factor``, its Cholesky factor, or, in
    exact mode only, ``inverse``, the inverse of K + (lam + ``jitter``) I;
    ``jitter`` is what factorize_spd added to the system's diagonal. Both
    are None when every solve factorizes its own Hessian-weighted system.
    A solver with an inverse reads K no more and holds neither basis nor
    gram.
    """

    anchors: np.ndarray
    basis: np.ndarray | None
    gram: np.ndarray | None
    lam: float
    factor: tuple | None = None
    inverse: np.ndarray | None = None
    jitter: float = 0.0

    @property
    def exact(self) -> bool:
        """Exact mode: the basis is the system's own Gram matrix K (or both are dropped)."""
        return self.basis is self.gram


def cho_factor(matrix: np.ndarray) -> tuple:
    """Cholesky factor of an SPD matrix, as the (factor, lower) pair cho_solve takes.

    numpy's LAPACK computes it, the same OpenBLAS potrf as
    scipy.linalg.cho_factor with bit-identical factors, so that a fit's
    factorizations and matrix products share one BLAS thread pool (scipy
    bundles a second OpenBLAS). Mixing the two on a 2-core machine, two
    numpy products with a 5000-by-500 matrix issued within 0.1 s of a
    threaded scipy factorization took 15-20 ms instead of about 1 ms,
    while the idle pool's worker spun. The transposed lower factor is the
    Fortran-ordered upper factor, which cho_solve reads without a copy.
    """
    return np.linalg.cholesky(matrix).T, False


def factorize_spd(matrix: np.ndarray) -> tuple[tuple, float]:
    """Cholesky factor with escalating diagonal jitter, and the jitter it took.

    Adds 10^k * trace/dim to the diagonal for k = -10..-4 until the
    factorization succeeds and returns the factor with the jitter of that
    attempt; past the limit the matrix is declared numerically indefinite.
    The jitter goes onto the matrix's own diagonal, which is restored on
    return, so the matrix is not copied here.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    base = float(np.trace(matrix)) / dim
    diagonal = matrix.diagonal().copy()
    try:
        for exponent in range(JITTER_START_EXP, JITTER_LIMIT_EXP + 1):
            jitter = (10.0**exponent) * base
            matrix.flat[:: dim + 1] = diagonal + jitter
            try:
                return cho_factor(matrix), jitter
            except LinAlgError:
                continue
    finally:
        matrix.flat[:: dim + 1] = diagonal
    raise NumericalError(
        "Cholesky failed after jitter escalation; the kernel system is "
        "ill-conditioned for this rho/lambda"
    )


def check_exact_gram_fits(n: int, n_validation: int = 0) -> None:
    """Raise DataError when the exact-mode kernel matrices exceed the limit.

    They are the kernel matrix of n_validation validation rows against the
    n training rows, and four n-by-n matrices, the peak of the exact solves.
    numpy's LAPACK calls copy their input into a buffer of their own,
    beside the input and the output: a Hessian-weighted solve holds K, the
    system, the Cholesky buffer and the factor; the cached inverse holds K,
    the inverse's buffer for K and the identity, and the inverse. The
    cached factor holds three: K, the Cholesky buffer and the factor.
    """
    need = 32 * n * n + 8 * n_validation * n
    if need > EXACT_GRAM_LIMIT_BYTES:
        rows = f"{n} training rows"
        if n_validation:
            rows += f" and {n_validation} validation rows"
        raise DataError(
            f"exact kernel mode needs {need / 2**30:.1f} GiB for {rows}, "
            f"over the {EXACT_GRAM_LIMIT_BYTES / 2**30:.1f} GiB limit; "
            "use Nystrom sampling (--nystrom)"
        )


def kernel_block_rows(n_anchors: int) -> int:
    """Rows per block of a kernel matrix against n_anchors, at least one."""
    return max(1, KERNEL_BLOCK_LIMIT_BYTES // (8 * n_anchors))


def kernel_matrix(rows_a: np.ndarray, rows_b: np.ndarray, rho: float) -> np.ndarray:
    """Pairwise Gaussian kernel values between two row sets."""
    a = np.atleast_2d(np.asarray(rows_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(rows_b, dtype=np.float64))
    sq = cdist(a, b, "sqeuclidean")
    np.divide(sq, -(rho * rho), out=sq)
    return np.exp(sq, out=sq)


def nystrom_indices(n: int, l: int, seed: int) -> np.ndarray:
    """Uniform sample of l row indices without replacement, sorted."""
    if not 1 <= l <= n:
        raise DataError(f"nystrom sample count {l} outside 1..{n}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=l, replace=False))


def build_nystrom(features: np.ndarray, indices: np.ndarray, config: KernelConfig) -> KernelSolver:
    """Solver over the sampled rows x[indices]: their Gram matrix W and the cross matrix C."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    samples = x[indices]
    gram = kernel_matrix(samples, samples, config.rho)
    return KernelSolver(samples, kernel_matrix(x, samples, config.rho), gram, config.lam)


def _system(solver: KernelSolver, h: np.ndarray) -> np.ndarray:
    """D K D + lam*I with D = diag(sqrt(h)) (exact), or lam*W + C^T diag(h) C."""
    if solver.exact:
        s = np.sqrt(h)
        system = solver.gram * np.outer(s, s)
        system.flat[:: system.shape[0] + 1] += solver.lam
        return system
    c = solver.basis
    return solver.lam * solver.gram + c.T @ (c * h[:, None])


def _finite(alpha: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(alpha)):
        raise DataError("non-finite kernel coefficients")
    return alpha


def _targets(solver: KernelSolver, g, h) -> tuple[np.ndarray, np.ndarray]:
    n = len(solver.anchors) if solver.basis is None else solver.basis.shape[0]
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g.shape != (n,) or h.shape != (n,):
        raise DataError("gradient/Hessian length mismatch")
    return g, h


def build_gradient_cache(solver: KernelSolver, solves: int = 1) -> KernelSolver:
    """The solver with its unit-Hessian system cached for ``solves`` solves.

    An exact solver forms K + lam*I on K's own diagonal, restored on
    return, so the set-up copies no n-by-n matrix, and factorizes it once.
    Below n / INVERSE_CROSSOVER solves it keeps that factor; from there on
    the inverse of K + (lam+eps) I, with eps the jitter that factorize_spd
    added, built after the factor is dropped. That solver holds neither K
    nor a factor.

    Nystrom solvers always keep the factor: lam*W + C^T C inherits W's
    conditioning, and there an inverse's fitted values C alpha lost three
    orders of magnitude against the factor's, while C^T g and C alpha, not
    the l-by-l solve, take most of each round. Their system is built by
    the Newton solve's formula, which keeps the cached path bit-identical
    to fit_kernel_newton with a unit Hessian (C^T C as syrk, say, would
    round differently from the Hessian-weighted product).
    """
    if not solver.exact:
        factor, jitter = factorize_spd(_system(solver, np.ones(solver.basis.shape[0])))
        return replace(solver, factor=factor, jitter=jitter)
    k = solver.gram
    diagonal = k.diagonal().copy()
    try:
        k.flat[:: len(k) + 1] = diagonal + solver.lam
        factor, jitter = factorize_spd(k)
        if INVERSE_CROSSOVER * solves >= len(k):
            del factor
            k.flat[:: len(k) + 1] += jitter
            return KernelSolver(solver.anchors, None, None, solver.lam,
                                inverse=np.linalg.inv(k), jitter=jitter)
    finally:
        k.flat[:: len(k) + 1] = diagonal
    return replace(solver, factor=factor, jitter=jitter)


def fit_kernel_newton(solver: KernelSolver, g, h) -> np.ndarray:
    """Alpha of the Hessian-weighted ridge system for one output column.

    The weighted system changes with h, so this factorizes on every call;
    a constant Hessian should use fit_kernel_gradient with the solver of
    build_gradient_cache instead.
    """
    g, h = _targets(solver, g, h)
    if solver.gram is None:
        raise DataError("solver holds a cached inverse in place of K; see build_gradient_cache")
    if np.any(h <= 0):
        raise DataError("Hessian-weighted solve needs strictly positive h")
    factor, _ = factorize_spd(_system(solver, h))
    if solver.exact:
        s = np.sqrt(h)
        return _finite(s * cho_solve(factor, -g / s, check_finite=False))
    return _finite(cho_solve(factor, solver.basis.T @ (-g), check_finite=False))


def fit_kernel_gradient(solver: KernelSolver, g, h) -> np.ndarray:
    """Alpha of the unit-Hessian system (K + lam I) alpha = -g, from the cached solve.

    h must be identically one. With the cached factor the result equals
    fit_kernel_newton's with that h bit for bit, so this serves gradient
    mode and the squared loss in Newton mode alike, without a
    factorization per call. With the cached inverse it is one product,
    P (-g), which agrees with the factor's solve to rounding.
    """
    g, h = _targets(solver, g, h)
    if solver.factor is None and solver.inverse is None:
        raise DataError("solver holds no cached factor; see build_gradient_cache")
    if np.any(h != 1.0):
        raise DataError("the cached factor serves a unit Hessian only")
    if solver.inverse is not None:
        return _finite(solver.inverse @ -g)
    rhs = -g if solver.exact else solver.basis.T @ (-g)
    return _finite(cho_solve(solver.factor, rhs, check_finite=False))


def fitted_values(solver: KernelSolver, g: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The expansion's values at the training rows, for alpha solved from gradient g.

    With a cached inverse, (K + (lam+eps) I) alpha = -g, so K alpha =
    -g - (lam+eps) alpha in O(n); every other solver applies its basis.
    """
    if solver.inverse is not None:
        return -g - (solver.lam + solver.jitter) * alpha
    return solver.basis @ alpha


def select_rho(features: np.ndarray, k: int, rho_mode: str = "decay01") -> float:
    """Bandwidth from the mean k-nearest-neighbor distance dbar(k).

    dbar(k) averages, over all rows, the mean Euclidean distance from a row
    to its k nearest neighbors (self excluded). decay01 mode returns
    dbar(k)/sqrt(ln 100), placing kernel value 0.01 at distance dbar; slow
    mode ignores k and returns dbar(m-1), the all-pairs mean distance.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    m = x.shape[0]
    if m < 2:
        raise DataError("bandwidth selection needs at least two rows")
    if rho_mode not in RHO_MODES:
        raise DataError(f"unknown rho mode {rho_mode!r}")
    if rho_mode == "slow":
        k = m - 1
    if not 1 <= k <= m - 1:
        raise DataError(f"neighbor count {k} outside 1..{m - 1}")
    dists = cdist(x, x)
    np.fill_diagonal(dists, np.inf)
    nearest = np.partition(dists, k - 1, axis=1)[:, :k]
    dbar = float(np.mean(nearest))
    if dbar <= 0:
        raise DataError("all rows coincide; no positive bandwidth exists")
    return dbar if rho_mode == "slow" else dbar / DECAY01
