"""Gaussian-kernel ridge learners fitted to second-order boosting targets.

The penalized problem solved each boosting iteration is

    min_f  sum_i g_i f(x_i) + 1/2 h_i f(x_i)^2 + 1/2 lam ||f||_H^2

whose minimizer is a kernel expansion f(x) = sum_j alpha_j K(x_j, x) over
the training rows. With D = diag(sqrt(h)) and y = -g/h the coefficients are

    alpha = D (D K D + lam I)^{-1} D y

computed by Cholesky factorization. Whenever the Hessian is constant, the
system matrix K + lam*I is iteration-independent, so one factorization is
cached and reused for the whole fit: in gradient mode (h identically one)
and for the squared loss in Newton mode, whose Hessian is exactly one too.
Both modes build the system through the same code, so they give
bit-identical coefficients for the squared loss. Exact mode holds two
n-by-n matrices and refuses training sets for which they would exceed
EXACT_GRAM_LIMIT_BYTES. The Nystrom variant replaces K by the low-rank
approximation C W^{-1} C^T built from l uniformly sampled rows (C the
n-by-l cross matrix, W the l-by-l sample Gram matrix); substituting the
expansion f(x) = sum_j alpha_j K(sample_j, x) reduces the solve to the
l-by-l system

    (lam W + C^T D^2 C) alpha = C^T (-g).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve
from scipy.spatial.distance import cdist

from .errors import DataError, NumericalError

# Diagonal jitter added before any Cholesky of a kernel-derived matrix,
# relative to trace/dim; escalated tenfold per retry up to the limit.
JITTER_START_EXP = -10
JITTER_LIMIT_EXP = -4

# Exact mode holds the n-by-n Gram matrix and its cached factor, 16*n^2
# bytes; larger training sets must use Nystrom sampling.
EXACT_GRAM_LIMIT_BYTES = 4 * 2**30

# Batch prediction builds the rows-by-anchors kernel matrix in row blocks
# of at most this many bytes (8 per entry), so its memory does not grow
# with the batch.
KERNEL_BLOCK_LIMIT_BYTES = 64 * 2**20

# exp(-dbar^2/rho^2) = 0.01 at the mean neighbor distance dbar.
DECAY01 = float(np.sqrt(np.log(100.0)))

RHO_MODES = ("decay01", "slow")


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth rho, ridge penalty lam, and optional Nystrom sampling."""

    rho: float
    lam: float
    nystrom_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise DataError("rho must be a positive real")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise DataError("lambda must be nonnegative")
        if self.nystrom_samples is not None and self.nystrom_samples < 1:
            raise DataError("nystrom sample count must be at least 1")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


@dataclass
class KernelLearner:
    """A fitted kernel expansion: f(x) = sum_j alpha[j] K(anchors[j], x)."""

    anchors: np.ndarray
    alpha: np.ndarray
    config: KernelConfig
    mode: str = "exact"

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.anchors.ndim != 2 or self.alpha.shape != (self.anchors.shape[0],):
            raise DataError("anchors and alpha shapes disagree")
        if not np.all(np.isfinite(self.alpha)):
            raise DataError("non-finite kernel coefficients")
        if self.mode not in ("exact", "nystrom"):
            raise DataError(f"unknown kernel mode {self.mode!r}")


@dataclass
class NystromFactor:
    """Sampled rows plus factorizations backing the low-rank kernel.

    ``gram`` is the raw l-by-l sample Gram matrix W; ``inverse_factor`` is a
    Cholesky factor of W plus jitter, usable with cho_solve to apply W^{-1};
    ``cross`` is the n-by-l matrix of kernel values between all rows and the
    samples.
    """

    samples: np.ndarray
    indices: np.ndarray
    gram: np.ndarray
    inverse_factor: tuple
    cross: np.ndarray | None = None


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


def factorize_spd(matrix: np.ndarray):
    """Cholesky with escalating diagonal jitter.

    Adds 10^k * trace/dim to the diagonal for k = -10..-4 until the
    factorization succeeds; past the limit the matrix is declared
    numerically indefinite. The jitter goes onto the matrix's own diagonal,
    which is restored on return, so the matrix is not copied here.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dim = matrix.shape[0]
    base = float(np.trace(matrix)) / dim
    diagonal = matrix.diagonal().copy()
    try:
        for exponent in range(JITTER_START_EXP, JITTER_LIMIT_EXP + 1):
            matrix.flat[:: dim + 1] = diagonal + (10.0**exponent) * base
            try:
                return cho_factor(matrix)
            except LinAlgError:
                continue
    finally:
        matrix.flat[:: dim + 1] = diagonal
    raise NumericalError(
        "Cholesky failed after jitter escalation; the kernel system is "
        "ill-conditioned for this rho/lambda"
    )


def check_exact_gram_fits(n: int) -> None:
    """Raise DataError when the exact-mode n-by-n matrices exceed the limit."""
    need = 16 * n * n
    if need > EXACT_GRAM_LIMIT_BYTES:
        raise DataError(
            f"exact kernel mode needs {need / 2**30:.1f} GiB for {n} training rows, "
            f"over the {EXACT_GRAM_LIMIT_BYTES / 2**30:.1f} GiB limit; "
            "use Nystrom sampling (--nystrom)"
        )


def kernel_block_rows(n_anchors: int) -> int:
    """Rows per block of a kernel matrix against n_anchors, at least one."""
    return max(1, KERNEL_BLOCK_LIMIT_BYTES // (8 * n_anchors))


def gaussian_kernel(x1: np.ndarray, x2: np.ndarray, rho: float) -> float:
    """exp(-||x1 - x2||^2 / rho^2) for a single pair of points."""
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("kernel arguments must share a dimension")
    sq = float(np.sum((a - b) ** 2))
    return float(np.exp(-sq / (rho * rho)))


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


def build_nystrom(features: np.ndarray, config: KernelConfig, with_cross: bool = True) -> NystromFactor:
    """Sample anchor rows and factorize their Gram matrix."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if config.nystrom_samples is None:
        raise DataError("config carries no nystrom sample count")
    idx = nystrom_indices(x.shape[0], config.nystrom_samples, config.seed)
    samples = np.array(x[idx])
    gram = kernel_matrix(samples, samples, config.rho)
    factor = factorize_spd(gram)
    cross = kernel_matrix(x, samples, config.rho) if with_cross else None
    return NystromFactor(samples, idx, gram, factor, cross)


def nystrom_gram(factor: NystromFactor) -> np.ndarray:
    """The approximate Gram matrix C W^{-1} C^T (rank at most l)."""
    if factor.cross is None:
        raise DataError("factor was built without the cross matrix")
    c = factor.cross
    return c @ cho_solve(factor.inverse_factor, c.T, check_finite=False)


def _exact_system(k: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """D K D + lam*I with D = diag(s)."""
    system = k * np.outer(s, s)
    system.flat[:: system.shape[0] + 1] += lam
    return system


def _nystrom_system(nf: NystromFactor, h: np.ndarray, lam: float) -> np.ndarray:
    """lam*W + C^T diag(h) C."""
    c = nf.cross
    return lam * nf.gram + c.T @ (c * h[:, None])


@dataclass
class GradientCache:
    """Iteration-independent factorization for constant-Hessian solves.

    Exact mode caches a factor of K + lam*I; Nystrom mode caches a factor
    of lam*W + C^T C together with the cross matrix C.
    """

    anchors: np.ndarray
    factor: tuple
    cross: np.ndarray | None
    mode: str


def build_gradient_cache(
    features: np.ndarray,
    config: KernelConfig,
    gram: np.ndarray | None = None,
    nystrom: NystromFactor | None = None,
) -> GradientCache:
    """Factorize the h = 1 system once, with the Newton solve's formulas.

    Sharing the formulas keeps the cached path bit-identical to
    fit_kernel_newton with a unit Hessian (C^T C as syrk, say, would round
    differently from the Hessian-weighted product).
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    ones = np.ones(x.shape[0])
    if config.nystrom_samples is not None or nystrom is not None:
        nf = nystrom if nystrom is not None else build_nystrom(x, config)
        system = _nystrom_system(nf, ones, config.lam)
        return GradientCache(nf.samples, factorize_spd(system), nf.cross, "nystrom")
    if gram is None:
        check_exact_gram_fits(x.shape[0])
        gram = kernel_matrix(x, x, config.rho)
    return GradientCache(x, factorize_spd(_exact_system(gram, ones, config.lam)), None, "exact")


def fit_kernel_newton(
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    config: KernelConfig,
    gram: np.ndarray | None = None,
    nystrom: NystromFactor | None = None,
) -> KernelLearner:
    """Solve the Hessian-weighted ridge system for one output column.

    ``gram`` (exact mode) or ``nystrom`` (low-rank mode) may carry
    precomputed kernel matrices; they are rebuilt from the features
    otherwise. The weighted system changes with h, so this factorizes on
    every call; a constant Hessian should use fit_kernel_gradient with a
    GradientCache instead.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    n = x.shape[0]
    if g.shape != (n,) or h.shape != (n,):
        raise DataError("gradient/Hessian length mismatch")
    if np.any(h <= 0):
        raise DataError("Hessian-weighted solve needs strictly positive h")

    if config.nystrom_samples is not None or nystrom is not None:
        nf = nystrom if nystrom is not None else build_nystrom(x, config)
        system = _nystrom_system(nf, h, config.lam)
        alpha = cho_solve(factorize_spd(system), nf.cross.T @ (-g), check_finite=False)
        return KernelLearner(nf.samples, alpha, config, "nystrom")

    if gram is None:
        check_exact_gram_fits(n)
        gram = kernel_matrix(x, x, config.rho)
    s = np.sqrt(h)
    z = cho_solve(factorize_spd(_exact_system(gram, s, config.lam)), -g / s, check_finite=False)
    return KernelLearner(x, s * z, config, "exact")


def fit_kernel_gradient(
    features: np.ndarray,
    g: np.ndarray,
    config: KernelConfig,
    cache: GradientCache | None = None,
    gram: np.ndarray | None = None,
    nystrom: NystromFactor | None = None,
) -> KernelLearner:
    """Constant-Hessian solve alpha = (K + lam I)^{-1}(-g) via a shared factor.

    Equals fit_kernel_newton with h identically one, bit for bit, so it
    serves gradient mode and the squared loss in Newton mode alike;
    passing a cache skips the per-call factorization entirely.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (x.shape[0],):
        raise DataError("gradient length mismatch")
    if cache is None:
        cache = build_gradient_cache(x, config, gram=gram, nystrom=nystrom)
    if cache.mode == "nystrom":
        alpha = cho_solve(cache.factor, cache.cross.T @ (-g), check_finite=False)
    else:
        alpha = cho_solve(cache.factor, -g, check_finite=False)
    return KernelLearner(cache.anchors, alpha, config, cache.mode)


def predict_kernel(learner: KernelLearner, x: np.ndarray) -> float:
    """Kernel expansion value at a single point."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    values = kernel_matrix(row, learner.anchors, learner.config.rho) @ learner.alpha
    return float(values[0])


def predict_kernel_batch(learner: KernelLearner, features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return kernel_matrix(x, learner.anchors, learner.config.rho) @ learner.alpha


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
