"""Reproduction harness: simulation study, grid search, and rank statistics.

The simulation generator draws a step-plus-sine target with five random
jumps in [0, 0.5]; tree and kernel boosting make characteristic errors on
its discontinuous and smooth halves, and the combined learner is compared
against both. The grid-search protocol tunes shrinkage, tree depth, ridge
penalty, and bandwidth heuristic on a validation split, with the iteration
count read off the per-iteration validation trace of a single fit.

Method comparisons across datasets use average ranks with the
Iman-Davenport F refinement of the Friedman test, plus exact two-sided
sign tests under a Holm multiplicity correction. scipy.stats is imported
inside the three functions that call it, on first use of the rank
statistics: importing it pulls in most of scipy, which ``import ktboost``
and the train, predict and evaluate commands do not need.
"""

from __future__ import annotations

import csv
import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .boost import BoostConfig, Ensemble, FitReport, fit, predict, truncate
from .data import Dataset, SplitSpec, split
from .errors import DataError, NumericalError

METHODS = ("ktboost", "tree", "kernel")

# BoostConfig's defaults as the base of the tuning grid. The tree learner is
# the one that validates without a bandwidth; the grid supplies bandwidths.
GRID_BASE = BoostConfig(learner="tree")


# ---------------------------------------------------------------------------
# simulation generator


@dataclass(frozen=True)
class SimFunction:
    """Step-plus-sine target: sum_i size_i * 1(x > loc_i) + sin(8 pi x)."""

    jump_locations: np.ndarray
    jump_sizes: np.ndarray
    noise_sd: float = 0.25

    def __post_init__(self):
        locs = np.asarray(self.jump_locations, dtype=np.float64)
        sizes = np.asarray(self.jump_sizes, dtype=np.float64)
        object.__setattr__(self, "jump_locations", locs)
        object.__setattr__(self, "jump_sizes", sizes)
        if locs.shape != sizes.shape or locs.ndim != 1:
            raise DataError("jump locations and sizes must be matching vectors")
        if np.any(locs < 0) or np.any(locs > 0.5):
            raise DataError("jump locations must lie in [0, 0.5]")
        if self.noise_sd < 0:
            raise DataError("noise level must be nonnegative")

    @classmethod
    def from_seed(cls, seed, n_jumps: int = 5, noise_sd: float = 0.25) -> "SimFunction":
        """Draw locations ~ U(0, 0.5) then sizes ~ U(0, 5)."""
        rng = np.random.default_rng(seed)
        locs = rng.uniform(0.0, 0.5, n_jumps)
        sizes = rng.uniform(0.0, 5.0, n_jumps)
        return cls(locs, sizes, noise_sd)

    def truth(self, x) -> np.ndarray:
        """Noiseless target values on a vector of inputs."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        steps = (x[:, None] > self.jump_locations) @ self.jump_sizes
        return steps + np.sin(8.0 * np.pi * x)


def simulate(sim: SimFunction, n: int, data_seed) -> Dataset:
    """One-feature regression sample: x ~ U(0,1), y = truth(x) + noise.

    Inputs are drawn before the noise, so a fixed seed pins both.
    """
    if n < 1:
        raise DataError("need at least one row")
    rng = np.random.default_rng(data_seed)
    x = rng.uniform(0.0, 1.0, n)
    y = sim.truth(x) + rng.normal(0.0, sim.noise_sd, n)
    return Dataset(x[:, None], y, "regression")


# ---------------------------------------------------------------------------
# metrics


def metric(task: str, targets, scores) -> float:
    """Mean squared error (regression) or misclassification rate.

    Classification accepts either a score matrix (argmax decides, a single
    column is a logit thresholded at zero) or an integer label vector.
    """
    y = np.asarray(targets)
    s = np.asarray(scores)
    if task == "regression":
        if s.ndim == 2:
            if s.shape[1] != 1:
                raise DataError("regression scores must be a single column")
            s = s[:, 0]
        return float(np.mean((s - y) ** 2))
    if s.ndim == 2:
        labels = (s[:, 0] > 0).astype(np.int64) if s.shape[1] == 1 else np.argmax(s, axis=1)
    elif np.issubdtype(s.dtype, np.floating) and task == "binary":
        labels = (s > 0).astype(np.int64)
    else:
        labels = s.astype(np.int64)
    return float(np.mean(labels != y))


# ---------------------------------------------------------------------------
# rank statistics


def rank_methods(metrics: np.ndarray) -> np.ndarray:
    """Mid-ranks per dataset row; lower metric means better rank."""
    from scipy import stats

    m = np.atleast_2d(np.asarray(metrics, dtype=np.float64))
    return np.vstack([stats.rankdata(row) for row in m])


def _rank_summary(ranks, n_datasets) -> tuple[np.ndarray, int, int]:
    r = np.asarray(ranks, dtype=np.float64)
    if r.ndim == 2:
        n, k = r.shape
        expected = k * (k + 1) / 2.0
        if not np.allclose(r.sum(axis=1), expected, atol=1e-8):
            raise DataError("each row must hold ranks summing to k(k+1)/2")
        return r.mean(axis=0), n, k
    if n_datasets is None:
        raise DataError("average ranks need an explicit dataset count")
    k = r.shape[0]
    if np.any(r < 1) or np.any(r > k):
        raise DataError("average ranks must lie in [1, k]")
    return r, int(n_datasets), k


def friedman_chi_square(ranks, n_datasets: int | None = None) -> float:
    """chi^2_F = 12N/(k(k+1)) * sum_j (Rbar_j - (k+1)/2)^2.

    ``ranks`` is either an N x k mid-rank matrix or a length-k vector of
    average ranks with ``n_datasets`` supplied.
    """
    rbar, n, k = _rank_summary(ranks, n_datasets)
    if k < 2 or n < 1:
        raise DataError("need at least two methods and one dataset")
    centered = rbar - (k + 1) / 2.0
    return 12.0 * n / (k * (k + 1)) * float(np.sum(centered**2))


def friedman_iman_davenport(ranks, n_datasets: int | None = None) -> tuple[float, float]:
    """Iman-Davenport F statistic and its p-value.

    F = (N-1) chi^2_F / (N(k-1) - chi^2_F), referred to an F distribution
    with (k-1, (k-1)(N-1)) degrees of freedom. Perfect agreement across
    datasets makes the denominator vanish.
    """
    from scipy import stats

    rbar, n, k = _rank_summary(ranks, n_datasets)
    if n < 2:
        raise DataError("the corrected test needs at least two datasets")
    chi2 = friedman_chi_square(rbar, n)
    denom = n * (k - 1) - chi2
    if denom <= 0:
        raise NumericalError("degenerate denominator: methods agree on every dataset")
    f_stat = (n - 1) * chi2 / denom
    p = float(stats.f.sf(f_stat, k - 1, (k - 1) * (n - 1)))
    return float(f_stat), p


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact binomial p-value under equal win probability."""
    from scipy import stats

    n = wins + losses
    if n == 0:
        raise DataError("zero effective comparisons after dropping ties")
    k = min(wins, losses)
    return float(min(1.0, 2.0 * stats.binom.cdf(k, n, 0.5)))


def holm_bonferroni(pvalues) -> np.ndarray:
    """Stepwise adjustment: p_(i) -> max_{j<=i} min(1, (m-j+1) p_(j))."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        raise DataError("no p-values to adjust")
    if np.any(p < 0) or np.any(p > 1):
        raise DataError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = np.minimum(1.0, (m - np.arange(m)) * p[order])
    adjusted = np.maximum.accumulate(scaled)
    out = np.empty(m)
    out[order] = adjusted
    return out


def sign_test_holm(win_loss_pairs) -> np.ndarray:
    """Holm-adjusted two-sided sign-test p-values, in input order."""
    raw = [sign_test_p(w, l) for w, l in win_loss_pairs]
    return holm_bonferroni(raw)


# ---------------------------------------------------------------------------
# comparison tables


@dataclass
class ComparisonTable:
    """Per-dataset method means/sds plus ranks and the omnibus test."""

    datasets: list
    methods: list
    means: np.ndarray
    sds: np.ndarray
    ranks: np.ndarray
    average_ranks: np.ndarray
    friedman_f: float | None = None
    friedman_p: float | None = None


def build_comparison(results: dict, methods=None) -> ComparisonTable:
    """Summarize {dataset: {method: per-split metrics}} into a table."""
    datasets = list(results)
    if not datasets:
        raise DataError("no datasets to compare")
    if methods is None:
        methods = list(results[datasets[0]])
    means = np.empty((len(datasets), len(methods)))
    sds = np.empty_like(means)
    for i, name in enumerate(datasets):
        for j, method in enumerate(methods):
            vals = np.asarray(results[name][method], dtype=np.float64)
            if vals.size == 0:
                raise DataError(f"no results for {method} on {name}")
            means[i, j] = vals.mean()
            sds[i, j] = vals.std(ddof=1) if vals.size > 1 else 0.0
    ranks = rank_methods(means)
    f_stat = p_val = None
    if len(datasets) >= 2:
        try:
            f_stat, p_val = friedman_iman_davenport(ranks)
        except NumericalError:
            pass
    return ComparisonTable(datasets, list(methods), means, sds, ranks, ranks.mean(axis=0), f_stat, p_val)


def comparison_sign_tests(table: ComparisonTable, baseline: str) -> dict:
    """Holm-adjusted sign tests of the baseline against every other method.

    Wins count datasets where the baseline's mean metric is strictly lower;
    exact ties are dropped.
    """
    b = table.methods.index(baseline)
    others = [m for m in table.methods if m != baseline]
    pairs = []
    for m in others:
        j = table.methods.index(m)
        wins = int(np.sum(table.means[:, b] < table.means[:, j]))
        losses = int(np.sum(table.means[:, b] > table.means[:, j]))
        pairs.append((wins, losses))
    adjusted = sign_test_holm(pairs)
    return {m: (pairs[i], float(adjusted[i])) for i, m in enumerate(others)}


def comparison_csv(table: ComparisonTable, path) -> None:
    """Tidy CSV: one row per (dataset, method), then average-rank rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "mean_metric", "sd_metric", "rank"])
        for i, name in enumerate(table.datasets):
            for j, method in enumerate(table.methods):
                writer.writerow(
                    [name, method, _cell(table.means[i, j]), _cell(table.sds[i, j]), _cell(table.ranks[i, j])]
                )
        for j, method in enumerate(table.methods):
            writer.writerow(["(average rank)", method, "", "", _cell(table.average_ranks[j])])


# ---------------------------------------------------------------------------
# trace export


def emit_traces(rows, path, x_label: str = "iteration") -> None:
    """Write (x, method, value, replication) rows; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_label, "method", "value", "replication"])
        for x, method, value, replication in rows:
            writer.writerow([_cell(x), method, _cell(value), replication])


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def fit_report_rows(report: FitReport, replication: int = 0):
    """Trace rows for one fit: training and optional validation risk."""
    rows = [(m, "train", r, replication) for m, r in enumerate(report.train_risk, 1)]
    if report.validation_risk is not None:
        rows += [(m, "validation", r, replication) for m, r in enumerate(report.validation_risk, 1)]
    return rows


# ---------------------------------------------------------------------------
# grid search


@dataclass(frozen=True)
class GridSpec:
    """Axes of the tuning sweep; the iteration count is read off the trace.

    Neighbor counts are filtered to k < m (m = rows the bandwidth is
    selected on), then m-1 is appended and the slow-decay mode added.
    """

    nus: tuple = (1.0, 0.1, 0.01, 0.001)
    depths: tuple = (1, 5, 10)
    lambdas: tuple = (1.0, 10.0)
    neighbor_counts: tuple = (5, 50, 500, 5000)
    include_slow: bool = True
    max_iterations: int = 1000

    def rho_options(self, n_rows: int) -> list:
        ks = [k for k in self.neighbor_counts if k < n_rows]
        if n_rows - 1 >= 1 and (n_rows - 1) not in ks:
            ks.append(n_rows - 1)
        options = [("decay01", k) for k in ks]
        if self.include_slow:
            options.append(("slow", None))
        if not options:
            raise DataError("empty bandwidth grid after filtering")
        return options

    def configurations(self, base: BoostConfig, method: str, n_rows: int) -> list[BoostConfig]:
        """Applicable configurations in canonical order (nu, depth, lambda, rho).

        Each is ``base`` with the axes the method uses replaced; the kernel
        methods' bandwidth always comes from the grid, never from ``base``.
        """
        if method not in METHODS:
            raise DataError(f"unknown method {method!r}")
        depths = (base.max_depth,) if method == "kernel" else self.depths
        if method == "tree":
            lambdas, rhos = (base.lam,), [(base.rho, base.rho_mode, base.rho_knn)]
        else:
            rho_rows = min(base.nystrom, n_rows) if base.nystrom is not None else n_rows
            lambdas = self.lambdas
            rhos = [(None, mode, 1 if k is None else k) for mode, k in self.rho_options(rho_rows)]
        return [
            dataclasses.replace(base, iterations=self.max_iterations, nu=nu, learner=method,
                                max_depth=depth, lam=lam, rho=rho, rho_mode=mode, rho_knn=k)
            for nu, depth, lam, (rho, mode, k) in product(self.nus, depths, lambdas, rhos)
        ]


@dataclass
class GridEntry:
    config: BoostConfig
    best_iteration: int
    validation_metric: float
    error: str | None = None


@dataclass
class GridSearchResult:
    config: BoostConfig
    ensemble: Ensemble
    validation_metric: float
    entries: list[GridEntry] = field(default_factory=list)


def grid_search(
    train: Dataset,
    validation: Dataset,
    grid: GridSpec,
    method: str = "ktboost",
    base: BoostConfig = GRID_BASE,
) -> GridSearchResult:
    """Exhaustive sweep over ``grid`` around ``base``; failures skip that configuration.

    Each configuration is fitted once; its iteration count is the argmin of
    the validation risk trace. Configurations are compared by validation
    metric at their chosen iteration; ties keep the earlier configuration.
    """
    configs = grid.configurations(base, method, train.n_samples)
    entries: list[GridEntry] = []
    best: GridSearchResult | None = None
    for cfg in configs:
        try:
            ensemble, report = fit(train, cfg, validation)
            best_m = report.best_iteration
            scores = predict(ensemble, validation.features, truncate_at=best_m)
            vm = metric(train.task, validation.targets, scores)
        except (DataError, NumericalError) as exc:
            entries.append(GridEntry(cfg, 0, float("nan"), str(exc)))
            continue
        entries.append(GridEntry(cfg, best_m, vm))
        if best is None or vm < best.validation_metric:
            chosen = dataclasses.replace(cfg, iterations=best_m)
            best = GridSearchResult(chosen, truncate(ensemble, best_m), vm)
    if best is None:
        raise NumericalError("every grid configuration failed")
    best.entries = entries
    return best


# ---------------------------------------------------------------------------
# worker processes


def _run_jobs(job, payloads, jobs: int) -> list:
    """``job`` over ``payloads`` in order, in ``jobs`` worker processes if jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(job, payloads))
    return [job(p) for p in payloads]


# ---------------------------------------------------------------------------
# simulation study (multi-replication)


@dataclass
class SimStudyResult:
    methods: list
    grid: np.ndarray
    pointwise: dict
    test_mse: dict
    validation_mse: dict
    best_iterations: dict
    replications: int
    config: BoostConfig

    def region_mean(self, method: str, lo: float, hi: float) -> float:
        """Mean pointwise MSE over grid points with lo <= x <= hi."""
        mask = (self.grid >= lo) & (self.grid <= hi)
        return float(np.mean(self.pointwise[method][mask]))

    def pointwise_rows(self):
        return [(x, m, v, -1) for m in self.methods for x, v in zip(self.grid, self.pointwise[m])]

    def manifest_rows(self):
        rows = []
        for method in self.methods:
            config = dataclasses.asdict(dataclasses.replace(self.config, learner=method))
            for r in range(self.replications):
                rows.append(
                    {
                        "dataset": "sim-jumps",
                        "method": method,
                        "split_seed": r,
                        "config": config,
                        "validation_metric": float(self.validation_mse[method][r]),
                        "test_metric": float(self.test_mse[method][r]),
                        "best_iteration": int(self.best_iterations[method][r]),
                    }
                )
        return rows


def _simulation_job(payload):
    seedseq, n, methods, config, grid = payload
    s_sim, s_train, s_val, s_test = seedseq.spawn(4)
    sim = SimFunction.from_seed(s_sim)
    train = simulate(sim, n, s_train)
    val = simulate(sim, n, s_val)
    test = simulate(sim, n, s_test)
    truth = sim.truth(grid)
    nystrom_seed = int(seedseq.generate_state(1)[0])
    out = {}
    for method in methods:
        cfg = dataclasses.replace(config, learner=method, seed=nystrom_seed)
        ensemble, report = fit(train, cfg, validation=val)
        best = report.best_iteration
        grid_pred = predict(ensemble, grid[:, None], truncate_at=best)[:, 0]
        test_scores = predict(ensemble, test.features, truncate_at=best)
        val_scores = predict(ensemble, val.features, truncate_at=best)
        out[method] = {
            "test_mse": metric("regression", test.targets, test_scores),
            "val_mse": metric("regression", val.targets, val_scores),
            "sq_err": (grid_pred - truth) ** 2,
            "best": best,
        }
    return out


def run_simulation_study(
    config: BoostConfig,
    methods=METHODS,
    replications: int = 100,
    n: int = 1000,
    master_seed: int = 0,
    grid=None,
    jobs: int = 1,
) -> SimStudyResult:
    """Repeated draws of the jump simulation, one model per method per draw.

    Each replication draws a target and training, validation and test sets
    of ``n`` rows from ``master_seed``, and fits ``config`` once per method
    with the method as learner and the replication's own Nystrom seed. The
    paper's settings are n=1000 and ``BoostConfig(iterations=1000, nu=0.1,
    newton=False, max_depth=1, rho=0.1, lam=1.0)``. Data are left
    unstandardized, whatever ``config`` says: the bandwidth is stated on
    the raw unit interval. Gradient mode suits the squared loss, whose unit
    Hessians make Newton and gradient updates identical while the gradient
    path reuses one cached factorization across iterations.
    """
    if replications < 1:
        raise DataError("need at least one replication")
    if grid is None:
        grid = np.linspace(0.0, 1.0, 501)
    grid = np.asarray(grid, dtype=np.float64)
    config = dataclasses.replace(config, standardize=False)
    children = np.random.SeedSequence(master_seed).spawn(replications)
    payloads = [(child, n, tuple(methods), config, grid) for child in children]
    outputs = _run_jobs(_simulation_job, payloads, jobs)

    def collect(key):
        return {m: [out[m][key] for out in outputs] for m in methods}

    pointwise = {m: sum(errs) / replications for m, errs in collect("sq_err").items()}
    test_mse = {m: np.array(v) for m, v in collect("test_mse").items()}
    val_mse = {m: np.array(v) for m, v in collect("val_mse").items()}
    return SimStudyResult(list(methods), grid, pointwise, test_mse, val_mse, collect("best"),
                          replications, config)


# ---------------------------------------------------------------------------
# repeated-split benchmark on a fixed dataset


def _split_job(payload):
    s, dataset, methods, grid, master_seed, base = payload
    train, val, test = split(dataset, SplitSpec(seed=master_seed + s))
    rows = []
    for method in methods:
        result = grid_search(train, val, grid, method=method, base=base)
        scores = predict(result.ensemble, test.features)
        rows.append(
            {
                "method": method,
                "split_seed": master_seed + s,
                "config": dataclasses.asdict(result.config),
                "validation_metric": result.validation_metric,
                "test_metric": metric(dataset.task, test.targets, scores),
            }
        )
    return rows


def run_split_benchmark(
    dataset: Dataset,
    name: str,
    methods=METHODS,
    splits: int = 10,
    grid: GridSpec | None = None,
    master_seed: int = 0,
    jobs: int = 1,
    base: BoostConfig = GRID_BASE,
) -> list[dict]:
    """Grid-search every method on repeated train/validation/test splits.

    ``base`` holds every setting the grid does not vary. Returns manifest
    rows {dataset, method, split_seed, config, validation_metric,
    test_metric}, one per (split, method).
    """
    if splits < 1:
        raise DataError("need at least one split")
    grid = grid or GridSpec()
    payloads = [(s, dataset, tuple(methods), grid, master_seed, base) for s in range(splits)]
    return [dict(row, dataset=name) for out in _run_jobs(_split_job, payloads, jobs) for row in out]


def rows_to_results(rows) -> dict:
    """Manifest rows -> {dataset: {method: [test metrics]}} for comparison."""
    results: dict = {}
    for row in rows:
        results.setdefault(row["dataset"], {}).setdefault(row["method"], []).append(
            row["test_metric"]
        )
    return results
