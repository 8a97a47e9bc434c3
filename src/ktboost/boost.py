"""Boosting engine that races a tree against a kernel learner each round.

Starting from the risk-optimal constant F0, every iteration races two
candidates, a regression tree and a penalized kernel expansion, with the
same two steps: ``propose(g, h)`` fits one learner per output to the
current gradient/Hessian columns and returns their training fitted values,
and ``validation(learners)`` scores them on the validation rows. The
candidate whose damped update F + nu*f has the lower training risk (sum of
per-sample losses) is admitted; ties go to the tree, and a NaN risk loses
to anything. The undamped selection variant compares R(F + f) instead but
still updates with shrinkage nu. Restricting the learner type leaves one
candidate: plain tree or plain kernel boosting from the same code path.

Validation data, when supplied, is scored after every iteration; the
report marks the risk-argmin iteration, which is how the iteration count
is tuned downstream.

Models persist as canonical JSON (format version 3: sorted keys, compact
separators), so identical models serialize to identical bytes. Scalars
are JSON numbers; every array is base64 of its little-endian float64 or
int32 bytes, so floats round-trip exactly. All trees share one block of
concatenated preorder node arrays (see trees.py) and all kernel rounds
one alpha block, and ``rounds`` spells the learner of each iteration.
Loading checks the whole document, every tree's links included, before
it builds the model.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, softmax

from .data import TASKS, Dataset, Standardizer, fit_standardizer, identity_standardizer
from .errors import DataError, ModelFormatError, NumericalError
from .kernels import (
    RHO_MODES,
    KernelConfig,
    KernelSolver,
    build_gradient_cache,
    build_nystrom,
    check_exact_gram_fits,
    check_ridge_settings,
    fit_kernel_gradient,
    fit_kernel_newton,
    fitted_values,
    kernel_block_rows,
    kernel_matrix,
    nystrom_indices,
    select_rho,
)
from .losses import LossFunction, for_task, gradient_hessian, loss_values, optimal_constant
from .trees import Tree, fit_tree, predict_tree_batch, presort_features

FORMAT_VERSION = 3
_FLOAT, _INT = "<f8", "<i4"
_TREE_FIELDS = (("feature", _INT), ("threshold", _FLOAT), ("left", _INT),
                ("right", _INT), ("value", _FLOAT), ("n", _INT))

LEARNER_CHOICES = ("ktboost", "tree", "kernel")
SELECTION_MODES = ("damped", "undamped")


@dataclass(frozen=True)
class BoostConfig:
    """Everything fit() needs besides the data.

    Exactly one of ``rho`` (explicit bandwidth) or ``rho_mode``
    (neighbor-distance heuristic, see kernels.select_rho) must be set when
    kernel learners are enabled. ``early_stopping_rounds`` stops training
    once the validation risk has not improved for that many iterations;
    fit refuses it without validation data.
    """

    iterations: int = 100
    nu: float = 0.1
    newton: bool = True
    learner: str = "ktboost"
    max_depth: int = 5
    min_samples_leaf: int = 1
    rho: float | None = None
    rho_mode: str | None = None
    rho_knn: int = 5
    lam: float = 1.0
    nystrom: int | None = None
    seed: int = 0
    selection: str = "damped"
    standardize: bool = True
    early_stopping_rounds: int | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise DataError("iterations must be at least 1")
        if not 0 < self.nu <= 1:
            raise DataError("shrinkage nu must lie in (0, 1]")
        if self.learner not in LEARNER_CHOICES:
            raise DataError(f"unknown learner {self.learner!r}")
        if self.max_depth < 0 or self.min_samples_leaf < 1:
            raise DataError("invalid tree constraints")
        if self.selection not in SELECTION_MODES:
            raise DataError(f"unknown selection mode {self.selection!r}")
        if self.rho is not None and self.rho_mode is not None:
            raise DataError("set either rho or rho_mode, not both")
        if self.rho_mode is not None and self.rho_mode not in RHO_MODES:
            raise DataError(f"unknown rho mode {self.rho_mode!r}")
        check_ridge_settings(self.rho, self.lam)
        if self.rho_knn < 1:
            raise DataError("rho_knn must be at least 1")
        if self.nystrom is not None and self.nystrom < 1:
            raise DataError("nystrom sample count must be at least 1")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise DataError("early_stopping_rounds must be at least 1")
        if self.learner != "tree" and self.rho is None and self.rho_mode is None:
            raise DataError("kernel learners need rho or rho_mode")


@dataclass
class IterationLearners:
    """The admitted candidate of one iteration: one Tree or alpha vector per output."""

    tag: str
    learners: list

    def __post_init__(self):
        if self.tag not in ("tree", "kernel"):
            raise DataError(f"unknown learner tag {self.tag!r}")


@dataclass
class Ensemble:
    """Constant start plus nu-damped admitted learners, in order.

    Kernel alphas expand over one basis, ``anchors`` with ``kernel_config``.
    """

    task: str
    loss_kind: str
    nu: float
    f0: np.ndarray
    standardizer: Standardizer
    iterations: list[IterationLearners] = field(default_factory=list)
    label_names: tuple[str, ...] | None = None
    anchors: np.ndarray | None = None
    kernel_config: KernelConfig | None = None

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64)
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}")
        if self.f0.ndim != 1 or not np.all(np.isfinite(self.f0)):
            raise DataError("f0 must be a finite vector")
        if not 0 < self.nu <= 1:
            raise DataError("shrinkage nu must lie in (0, 1]")

    @property
    def n_features(self) -> int:
        return self.standardizer.n_features

    @property
    def n_outputs(self) -> int:
        return self.f0.shape[0]

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


@dataclass
class FitReport:
    """Per-iteration traces of one fit.

    ``train_risk`` is the risk after each admission; ``tree_risk`` and
    ``kernel_risk`` are the selection-criterion risks of the two candidates
    (NaN when a learner type was disabled). ``best_iteration`` is the
    first argmin of the validation trace, or the completed count without
    validation data. ``seconds`` times each iteration.
    """

    train_risk: list[float]
    chosen: list[str]
    tree_risk: list[float]
    kernel_risk: list[float]
    validation_risk: list[float] | None
    best_iteration: int
    initial_risk: float
    seconds: list[float]


def empirical_risk(loss: LossFunction, targets, scores) -> float:
    """Sum (not mean) of per-sample losses."""
    return float(np.sum(loss_values(loss, targets, scores)))


class _TreeCandidate:
    """One regression tree per output, grown on the fit's one presort of x."""

    tag = "tree"

    def __init__(self, x: np.ndarray, xv: np.ndarray | None, config: BoostConfig):
        # x never changes, so one sort serves every tree of the fit.
        self.sorted_x = presort_features(x)
        self.xv = xv
        self.config = config

    def propose(self, g: np.ndarray, h: np.ndarray) -> tuple[list, np.ndarray]:
        depth, min_leaf = self.config.max_depth, self.config.min_samples_leaf
        grown = [fit_tree(self.sorted_x, g[:, k], h[:, k], depth, min_leaf) for k in range(g.shape[1])]
        return [tree for tree, _ in grown], np.column_stack([tree.value.take(leaf) for tree, leaf in grown])

    def validation(self, learners: list) -> np.ndarray:
        return np.column_stack([predict_tree_batch(tree, self.xv) for tree in learners])


class _KernelCandidate:
    """One kernel ridge expansion per output, solved on the fit's one KernelSolver.

    Exact mode's memory limit (the set-up's peak of four n-by-n matrices and
    the validation rows' kernel matrix) is checked before select_rho's n-by-n
    distances. ``config``, with the bandwidth fixed, is what a model with
    kernel rounds keeps.
    """

    tag = "kernel"

    def __init__(self, x: np.ndarray, xv: np.ndarray | None, config: BoostConfig, loss: LossFunction):
        if config.nystrom is None:
            check_exact_gram_fits(len(x), 0 if xv is None else len(xv))
            indices = None
        else:
            indices = nystrom_indices(len(x), config.nystrom, config.seed)
        rho = config.rho
        if rho is None:
            rho = select_rho(x if indices is None else x[indices], config.rho_knn, config.rho_mode)
        self.config = KernelConfig(rho, config.lam, config.nystrom)
        if indices is None:
            gram = kernel_matrix(x, x, rho)
            solver = KernelSolver(x, gram, gram, config.lam)
        else:
            solver = build_nystrom(x, indices, self.config)
        self.val_kernel = None if xv is None else kernel_matrix(xv, solver.anchors, rho)
        # A constant Hessian (gradient mode, or the squared loss, whose
        # Newton h is exactly one) gives the same system every round, which
        # the fit solves once per round and output.
        self.solve = fit_kernel_newton
        if not config.newton or loss.kind == "squared":
            solver = build_gradient_cache(solver, config.iterations * loss.n_outputs)
            self.solve = fit_kernel_gradient
        self.solver = solver

    def propose(self, g: np.ndarray, h: np.ndarray) -> tuple[list, np.ndarray]:
        alphas = [self.solve(self.solver, g[:, k], h[:, k]) for k in range(g.shape[1])]
        return alphas, np.column_stack([fitted_values(self.solver, g[:, k], alpha)
                                        for k, alpha in enumerate(alphas)])

    def validation(self, learners: list) -> np.ndarray:
        return np.column_stack([self.val_kernel @ alpha for alpha in learners])


def fit(
    train: Dataset,
    config: BoostConfig,
    validation: Dataset | None = None,
) -> tuple[Ensemble, FitReport]:
    """Run the boosting loop and return the model plus its traces."""
    n, p = train.features.shape
    if n < 2:
        raise DataError("fitting needs at least two rows")
    if config.early_stopping_rounds is not None and validation is None:
        raise DataError("early stopping needs validation data")
    loss = for_task(train.task, train.n_classes)
    standardizer = fit_standardizer(train) if config.standardize else identity_standardizer(p)
    x = standardizer.transform(train.features)
    y = train.targets

    f0 = optimal_constant(loss, y)
    scores = np.tile(f0, (n, 1))

    xv = vscores = None
    if validation is not None:
        if validation.task != train.task or validation.n_features != p:
            raise DataError("validation data does not match the training data")
        xv = standardizer.transform(validation.features)
        vscores = np.tile(f0, (validation.n_samples, 1))

    # The tree proposes first, so a tie admits it.
    candidates = []
    if config.learner != "kernel":
        candidates.append(_TreeCandidate(x, xv, config))
    if config.learner != "tree":
        candidates.append(_KernelCandidate(x, xv, config, loss))

    step = config.nu if config.selection == "damped" else 1.0
    report = FitReport(
        train_risk=[], chosen=[], tree_risk=[], kernel_risk=[],
        validation_risk=None if validation is None else [], best_iteration=0,
        initial_risk=empirical_risk(loss, y, scores), seconds=[],
    )
    iterations: list[IterationLearners] = []
    best_val = np.inf

    for m in range(1, config.iterations + 1):
        started = time.perf_counter()
        gh = gradient_hessian(loss, y, scores, newton=config.newton)

        risks = {"tree": np.nan, "kernel": np.nan}
        best_key = winner = None
        for candidate in candidates:
            learners, pred = candidate.propose(gh.g, gh.h)
            risk = risks[candidate.tag] = empirical_risk(loss, y, scores + step * pred)
            key = np.inf if np.isnan(risk) else risk  # a NaN risk loses to anything
            if winner is None or key < best_key:
                best_key, winner, admitted, admitted_pred = key, candidate, learners, pred

        scores += config.nu * admitted_pred
        if config.selection == "damped":
            new_risk = risks[winner.tag]
        else:
            new_risk = empirical_risk(loss, y, scores)
        if not np.isfinite(new_risk):
            raise NumericalError(f"training risk diverged at iteration {m}")

        iterations.append(IterationLearners(winner.tag, admitted))
        report.train_risk.append(new_risk)
        report.chosen.append(winner.tag)
        report.tree_risk.append(risks["tree"])
        report.kernel_risk.append(risks["kernel"])

        if validation is not None:
            vscores += config.nu * winner.validation(admitted)
            vrisk = empirical_risk(loss, validation.targets, vscores)
            report.validation_risk.append(vrisk)
            if vrisk < best_val:
                best_val = vrisk
                report.best_iteration = m
        report.seconds.append(time.perf_counter() - started)
        rounds = config.early_stopping_rounds
        if rounds is not None and m - report.best_iteration >= rounds:
            break

    if validation is None:
        report.best_iteration = len(iterations)
    anchors = kconfig = None
    if "kernel" in report.chosen:
        anchors, kconfig = candidates[-1].solver.anchors, candidates[-1].config
    ensemble = Ensemble(
        train.task, loss.kind, config.nu, f0, standardizer, iterations, train.label_names, anchors, kconfig
    )
    return ensemble, report


def truncate(ensemble: Ensemble, n_iterations: int) -> Ensemble:
    """A view of the ensemble keeping only the first n_iterations rounds."""
    if not 0 <= n_iterations <= ensemble.n_iterations:
        raise DataError(f"cannot truncate to {n_iterations} iterations")
    return replace(ensemble, iterations=list(ensemble.iterations[:n_iterations]))


def predict(ensemble: Ensemble, features: np.ndarray, truncate_at: int | None = None) -> np.ndarray:
    """Score matrix f0 + nu * sum of admitted learners, one column per output.

    The alphas of all kernel rounds are summed first, so the kernel part is
    one kernel matrix product whatever the iteration count. That matrix is
    built in row blocks of at most kernels.KERNEL_BLOCK_LIMIT_BYTES.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    xs = ensemble.standardizer.transform(x)
    scores = np.tile(ensemble.f0, (xs.shape[0], 1))
    if truncate_at is None:
        rounds = ensemble.iterations
    else:
        if not 0 <= truncate_at <= ensemble.n_iterations:
            raise DataError(f"truncate_at {truncate_at} outside 0..{ensemble.n_iterations}")
        rounds = ensemble.iterations[:truncate_at]

    for it in rounds:
        if it.tag == "tree":
            for k, tree in enumerate(it.learners):
                scores[:, k] += ensemble.nu * predict_tree_batch(tree, xs)
    kernel_rounds = [it.learners for it in rounds if it.tag == "kernel"]
    if kernel_rounds:
        # sum() adds the rounds one by one, in the order fit admitted them.
        alphas = np.column_stack([sum(per_output) for per_output in zip(*kernel_rounds)])
        rho = ensemble.kernel_config.rho
        step = kernel_block_rows(len(ensemble.anchors))
        for first in range(0, xs.shape[0], step):
            block = slice(first, first + step)
            kmat = kernel_matrix(xs[block], ensemble.anchors, rho)
            scores[block] += ensemble.nu * (kmat @ alphas)
    return scores


def predict_proba(ensemble: Ensemble, features: np.ndarray, truncate_at: int | None = None) -> np.ndarray:
    """Class probabilities, one column per class (two for binary)."""
    if ensemble.task == "regression":
        raise DataError("probabilities are undefined for regression")
    return proba_from_scores(ensemble.task, predict(ensemble, features, truncate_at))


def proba_from_scores(task: str, scores: np.ndarray) -> np.ndarray:
    """Class probabilities of a classification score matrix from predict."""
    if task == "binary":
        p = expit(scores[:, 0])
        return np.column_stack([1.0 - p, p])
    return softmax(scores, axis=1)


def predict_labels(ensemble: Ensemble, features: np.ndarray, truncate_at: int | None = None) -> np.ndarray:
    """Hard class indices via argmax; ties resolve to the lowest class."""
    return np.argmax(predict_proba(ensemble, features, truncate_at), axis=1)


def _json_number(value, name: str) -> float:
    # float() would accept the string "0.09" and the boolean true
    if type(value) not in (int, float):
        raise ModelFormatError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def _pack(values, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


def _unpack(value, dtype: str) -> np.ndarray:
    """Read-only array of a base64 field.

    b64decode raises TypeError for a non-string and binascii.Error, a
    ValueError, for stray characters; frombuffer raises ValueError for a
    byte count that is not a multiple of the item size.
    """
    return np.frombuffer(base64.b64decode(value, validate=True), dtype=dtype)


def _pack_trees(trees: list[Tree]) -> dict:
    """All trees of a model as one set of concatenated node arrays."""
    sizes = np.array([t.feature.size for t in trees], dtype=np.int64)
    doc = {"start": _pack(np.cumsum(sizes) - sizes, _INT)}
    for name, dtype in _TREE_FIELDS:
        doc[name] = _pack(np.concatenate([getattr(t, name) for t in trees] or [[]]), dtype)
    return doc


def _unpack_trees(doc: dict, n_features: int) -> list[Tree]:
    """Trees of a packed block, checked as one forest; each is a view of the block."""
    start = _unpack(doc["start"], _INT)
    arrays = {name: _unpack(doc[name], dtype) for name, dtype in _TREE_FIELDS}
    total = arrays["feature"].size
    if any(a.size != total for a in arrays.values()):
        raise ModelFormatError("tree node arrays differ in length")
    if start.size == 0:
        if total:
            raise ModelFormatError("tree nodes without a tree")
        return []
    sizes = np.diff(start, append=total)
    if start[0] != 0 or np.any(sizes < 1):
        raise ModelFormatError("tree start offsets must rise from 0 within the node arrays")
    if not (np.all(np.isfinite(arrays["threshold"])) and np.all(np.isfinite(arrays["value"]))):
        raise ModelFormatError("non-finite tree threshold or value")
    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    if np.any(arrays["n"] < 1):
        raise ModelFormatError("tree node without training rows")
    if np.any(feature < -1) or np.any(feature >= n_features):
        raise ModelFormatError(f"split feature outside -1..{n_features - 1}")
    leaf = feature < 0
    if np.any((left < 0) != leaf) or np.any((right < 0) != leaf):
        raise ModelFormatError("leaves must have feature and both children -1, splits none")
    # Tree-local indices: the left child follows its parent, the right
    # child lies after it in the same tree.
    tree_of = np.repeat(np.arange(start.size), sizes)
    local = np.arange(total) - start[tree_of]
    inner = ~leaf
    if np.any(left[inner] != local[inner] + 1):
        raise ModelFormatError("a left child must directly follow its parent")
    if np.any(right[inner] <= left[inner]) or np.any(right[inner] >= sizes[tree_of[inner]]):
        raise ModelFormatError("a right child must lie after the left child in the same tree")
    # Forward links with one parent per non-root node make each tree a
    # tree: every node is reachable from its root exactly once.
    base = start[tree_of[inner]]
    parents = np.bincount(np.concatenate([base + left[inner], base + right[inner]]), minlength=total)
    if np.any(parents != (local > 0)):
        raise ModelFormatError("every node but the root needs exactly one parent")
    ends = np.append(start[1:], total)
    return [
        Tree(*(arrays[name][a:b] for name, _ in _TREE_FIELDS))
        for a, b in zip(start.tolist(), ends.tolist())
    ]


def dumps(ensemble: Ensemble) -> str:
    """Canonical JSON: sorted keys, compact separators, base64 arrays.

    Every array is base64 of its little-endian bytes. Tree rounds share
    one packed block of node arrays, kernel rounds one (rounds * outputs,
    anchors) alpha block; ``rounds`` spells the learner order.
    """
    cfg = ensemble.kernel_config
    rounds = ensemble.iterations
    kernel = None
    if ensemble.anchors is not None:
        alphas = [a for it in rounds if it.tag == "kernel" for a in it.learners]
        kernel = {
            "alpha": _pack(np.concatenate(alphas) if alphas else [], _FLOAT),
            "anchors": _pack(ensemble.anchors, _FLOAT),
            "rho": float(cfg.rho),
            "lambda": float(cfg.lam),
            "mode": "exact" if cfg.nystrom_samples is None else "nystrom",
        }
    doc = {
        "format_version": FORMAT_VERSION,
        "task": ensemble.task,
        "loss": ensemble.loss_kind,
        "nu": float(ensemble.nu),
        "f0": _pack(ensemble.f0, _FLOAT),
        "standardizer": {
            "means": _pack(ensemble.standardizer.means, _FLOAT),
            "scales": _pack(ensemble.standardizer.scales, _FLOAT),
        },
        "label_map": list(ensemble.label_names) if ensemble.label_names else None,
        "rounds": "".join(it.tag[0] for it in rounds),
        "trees": _pack_trees([t for it in rounds if it.tag == "tree" for t in it.learners]),
        "kernel": kernel,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save(ensemble: Ensemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(ensemble))
        fh.write("\n")


def load(path) -> Ensemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    return loads(text)


def loads(text: str) -> Ensemble:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a valid model file: {exc}") from exc
    except RecursionError as exc:
        # json's parser recurses per nesting level; a model nests three deep
        raise ModelFormatError("model document nests too deeply") from exc
    try:
        if doc.get("format_version") != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported format version {doc.get('format_version')!r}"
            )
        task = doc["task"]
        f0 = _unpack(doc["f0"], _FLOAT)
        std = Standardizer(
            _unpack(doc["standardizer"]["means"], _FLOAT),
            _unpack(doc["standardizer"]["scales"], _FLOAT),
        )
        n_features = std.n_features
        label_map = doc["label_map"]
        label_names = tuple(str(s) for s in label_map) if label_map else None
        if task == "multiclass":
            if f0.shape[0] < 2:
                raise ModelFormatError("multiclass models need at least two outputs")
        elif f0.shape[0] != 1:
            raise ModelFormatError(f"{task} models carry exactly one output")
        n_classes = {"regression": 0, "binary": 2}.get(task, f0.shape[0])
        if label_names is not None and len(label_names) != n_classes:
            raise ModelFormatError("label_map length disagrees with the class count")
        if label_names is not None and len(set(label_names)) != n_classes:
            raise ModelFormatError("label_map repeats a label")
        expected = for_task(task, n_classes).kind if task != "regression" else "squared"
        if doc["loss"] != expected:
            raise ModelFormatError(f"loss {doc['loss']!r} does not fit task {task!r}")

        rounds = doc["rounds"]
        if rounds.strip("tk"):  # AttributeError for a non-string
            raise ModelFormatError("rounds must be a string of 't' and 'k'")
        d = f0.shape[0]
        trees = _unpack_trees(doc["trees"], n_features)
        if len(trees) != rounds.count("t") * d:
            raise ModelFormatError(f"{len(trees)} trees for {rounds.count('t')} tree rounds of {d} outputs")

        kernel = doc["kernel"]
        anchors = kconfig = alphas = None
        if kernel is not None:
            if kernel["mode"] not in ("exact", "nystrom"):
                raise ModelFormatError(f"unknown kernel mode {kernel['mode']!r}")
            anchors = _unpack(kernel["anchors"], _FLOAT)
            if n_features < 1 or anchors.size == 0 or anchors.size % n_features:
                raise ModelFormatError("anchor matrix shape mismatch")
            anchors = anchors.reshape(-1, n_features)
            if not np.all(np.isfinite(anchors)):
                raise ModelFormatError("non-finite kernel anchors")
            alphas = _unpack(kernel["alpha"], _FLOAT)
            if alphas.size != rounds.count("k") * d * len(anchors):
                raise ModelFormatError("kernel alpha needs one row per kernel round and output, "
                                       "one entry per anchor")
            if not np.all(np.isfinite(alphas)):
                raise ModelFormatError("non-finite kernel coefficients")
            alphas = alphas.reshape(-1, len(anchors))
            samples = len(anchors) if kernel["mode"] == "nystrom" else None
            rho = _json_number(kernel["rho"], "rho")
            kconfig = KernelConfig(rho, _json_number(kernel["lambda"], "lambda"), samples)
        elif "k" in rounds:
            raise ModelFormatError("kernel rounds without a kernel block")

        iterations = []
        t = k = 0
        for c in rounds:
            if c == "t":
                iterations.append(IterationLearners("tree", trees[t:t + d]))
                t += d
            else:
                iterations.append(IterationLearners("kernel", list(alphas[k:k + d])))
                k += d
        nu = _json_number(doc["nu"], "nu")
        return Ensemble(task, doc["loss"], nu, f0, std, iterations, label_names, anchors, kconfig)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc
    except (ValueError, OverflowError) as exc:
        raise ModelFormatError(f"invalid model contents: {exc}") from exc
