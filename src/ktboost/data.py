"""Dataset container, CSV ingestion, standardization, and seeded splitting."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

TASKS = ("regression", "binary", "multiclass")

# Floor for per-feature scales so constant columns stay transformable.
SCALE_FLOOR = 1e-12


def check_count(value, name: str, minimum: int) -> None:
    """Raise DataError unless value is an int or numpy integer, not a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DataError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def check_real(value, name: str, low: float, high: float, *, low_open: bool = False) -> float:
    """Return value as a float; raise DataError unless it is a finite real in range.

    value must be a Python or numpy real number, not a bool or a string,
    with low <= value <= high (low < value when low_open). It is converted
    before the comparisons, so an int too large for a float, such as
    10**400, is refused rather than compared exactly.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DataError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = np.inf
    above = low < number if low_open else low <= number
    if not (np.isfinite(number) and above and number <= high):
        bracket = "(" if low_open else "["
        raise DataError(f"{name} must be a finite number in {bracket}{low}, {high}], got {value!r}")
    return number


def check_flag(value, name: str) -> None:
    """Raise DataError unless value is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise DataError(f"{name} must be True or False, got {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus targets for one task.

    Targets are floats for regression and class indices (0..n_classes-1)
    for binary/multiclass. ``label_names`` maps a class index back to the
    original label string when the data came from a CSV with categorical
    targets.
    """

    features: np.ndarray
    targets: np.ndarray
    task: str
    n_classes: int = 0
    feature_names: tuple[str, ...] | None = None
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, p = features.shape
        if n < 1 or p < 1:
            raise DataError("dataset needs at least one row and one feature")
        finite = np.isfinite(features).all(axis=0)
        if not finite.all():
            raise DataError(f"feature column {int(np.argmin(finite))} holds a non-finite value")
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}")

        if self.task == "regression":
            targets = np.asarray(self.targets, dtype=np.float64)
            if self.n_classes != 0:
                raise DataError("regression datasets carry no classes")
        else:
            targets = np.asarray(self.targets)
            if not np.all(np.isfinite(targets.astype(np.float64))):
                raise DataError("targets contain non-finite values")
            targets = targets.astype(np.int64)
            n_classes = self.n_classes
            if n_classes == 0:
                n_classes = int(targets.max()) + 1 if targets.size else 0
                object.__setattr__(self, "n_classes", max(n_classes, 2))
            if self.task == "binary" and self.n_classes != 2:
                raise DataError("binary task requires exactly two classes")
            if self.n_classes < 2:
                raise DataError("classification needs at least two classes")
            if targets.min() < 0 or targets.max() >= self.n_classes:
                raise DataError(
                    f"class labels outside 0..{self.n_classes - 1}"
                )
        if targets.shape != (n,):
            raise DataError("targets must be a vector matching the row count")
        if self.task == "regression" and not np.all(np.isfinite(targets)):
            raise DataError("targets contain non-finite values")

        object.__setattr__(self, "features", _frozen(features))
        object.__setattr__(self, "targets", _frozen(targets))
        if self.feature_names is not None:
            if len(self.feature_names) != p:
                raise DataError("feature_names length mismatch")
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.label_names is not None:
            object.__setattr__(self, "label_names", tuple(self.label_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.targets[indices],
            self.task,
            self.n_classes,
            self.feature_names,
            self.label_names,
        )


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine map fitted on training data: (x - mean) / scale."""

    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", _frozen(np.asarray(self.means, dtype=np.float64)))
        object.__setattr__(self, "scales", _frozen(np.asarray(self.scales, dtype=np.float64)))
        if self.means.shape != self.scales.shape or self.means.ndim != 1:
            raise DataError("means and scales must be matching vectors")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.scales))):
            raise DataError("means and scales must be finite")
        if np.any(self.scales < SCALE_FLOOR):
            raise DataError(f"scales below the floor {SCALE_FLOOR}")

    @property
    def n_features(self) -> int:
        return self.means.shape[0]

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.n_features:
            raise DataError(
                f"expected {self.n_features} features, got {features.shape[-1]}"
            )
        # In place after the subtraction: one output array, no temporary.
        # A non-finite input stays non-finite, so one check of the output
        # covers both the input and an overflow of extreme means or scales.
        with np.errstate(over="ignore"):
            out = features - self.means
            out /= self.scales
        if not np.isfinite(out).all():
            col = int(np.argmin(np.isfinite(np.atleast_2d(out)).all(axis=0)))
            if np.isfinite(np.atleast_2d(features)[:, col]).all():
                raise DataError(f"feature column {col} overflows when standardized")
            raise DataError(f"feature column {col} holds a non-finite value")
        return out


def identity_standardizer(n_features: int) -> Standardizer:
    return Standardizer(np.zeros(n_features), np.ones(n_features))


def fit_standardizer(train: Dataset) -> Standardizer:
    """Per-feature means and sample standard deviations (n-1 denominator)."""
    x = train.features
    means = x.mean(axis=0)
    if x.shape[0] > 1:
        sds = x.std(axis=0, ddof=1)
    else:
        sds = np.zeros(x.shape[1])
    return Standardizer(means, np.maximum(sds, SCALE_FLOOR))


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the permutation seed."""

    fractions: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.fractions, (tuple, list)) or len(self.fractions) != 3:
            raise DataError("fractions must be three positive reals")
        for f in self.fractions:
            check_real(f, "a split fraction", 0.0, 1.0, low_open=True)
        check_count(self.seed, "split seed", 0)
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DataError("fractions must sum to 1")


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition rows by a seeded uniform permutation.

    Part sizes are floor(fraction * n); leftover rows go to train, then
    validation, then test.
    """
    n = data.n_samples
    sizes = [int(np.floor(f * n)) for f in spec.fractions]
    for i in range(n - sum(sizes)):
        sizes[i] += 1
    if min(sizes) < 1:
        raise DataError(f"split of {n} rows leaves an empty part: {sizes}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    bounds = np.cumsum(sizes)
    return (
        data.subset(perm[: bounds[0]]),
        data.subset(perm[bounds[0] : bounds[1]]),
        data.subset(perm[bounds[1] :]),
    )


def _parse_cell(cell: str, row: int, col: int) -> float:
    text = cell.strip()
    if not text:
        raise DataError(f"missing value at row {row}, column {col}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-numeric value {cell!r} at row {row}, column {col}"
        ) from None
    if not np.isfinite(value):
        raise DataError(f"missing value at row {row}, column {col}")
    return value


def _read_csv(path, header: bool) -> tuple[tuple[str, ...] | None, list[list[str]]]:
    """The stripped header names, if any, and the data rows, all of one width."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    names = None
    if header:
        names = tuple(c.strip() for c in rows[0])
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {i} has {len(row)} columns, expected {width}")
    return names, rows


def load_csv(
    path,
    target_column: str | int = -1,
    task: str = "regression",
    header: bool = True,
    labels: tuple[str, ...] | None = None,
) -> Dataset:
    """Load a comma-separated file into a Dataset.

    The target column may be named (requires a header) or given as an
    index; the remaining columns become features in file order. Missing
    and non-numeric cells are rejected, never imputed. Categorical
    classification labels are enumerated lexicographically, or, when
    ``labels`` is given (the label map of the training data or a model),
    index into those names: the file may hold any subset of them, and a
    label outside them is an error.
    """
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    if labels is not None:
        if task == "regression":
            raise DataError("regression targets take no label map")
        if len(set(labels)) != len(labels):
            raise DataError("the label map repeats a label")
    names, rows = _read_csv(path, header)
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: need at least two columns")

    if isinstance(target_column, str):
        if names is None:
            raise DataError("named target column requires a header row")
        try:
            target_idx = names.index(target_column)
        except ValueError:
            raise DataError(f"target column {target_column!r} not found") from None
    else:
        target_idx = int(target_column)
        if target_idx < 0:
            target_idx += width
        if not 0 <= target_idx < width:
            raise DataError(f"target column index {target_column} out of range")

    features = np.empty((len(rows), width - 1))
    raw_targets = []
    for i, row in enumerate(rows):
        k = 0
        for j, cell in enumerate(row):
            if j == target_idx:
                raw_targets.append(cell.strip())
            else:
                features[i, k] = _parse_cell(cell, i, j)
                k += 1

    feature_names = None
    if names is not None:
        feature_names = tuple(n for j, n in enumerate(names) if j != target_idx)

    if task == "regression":
        targets = np.array(
            [_parse_cell(c, i, target_idx) for i, c in enumerate(raw_targets)]
        )
        return Dataset(features, targets, task, 0, feature_names)

    found = set(raw_targets)
    if "" in found:
        raise DataError("missing target label")
    if labels is None:
        labels = sorted(found)
        if task == "binary" and len(labels) != 2:
            raise DataError(f"binary task found {len(labels)} distinct labels")
        if len(labels) < 2:
            raise DataError("classification needs at least two distinct labels")
    else:
        unknown = sorted(found.difference(labels))
        if unknown:
            raise DataError(f"labels {unknown} are not among the known labels {list(labels)}")
    index = {label: i for i, label in enumerate(labels)}
    targets = np.array([index[c] for c in raw_targets], dtype=np.int64)
    return Dataset(features, targets, task, len(labels), feature_names, tuple(labels))


def write_csv(data: Dataset, path, header: bool = True) -> None:
    """Write a Dataset with the target as the last column.

    Floats use repr formatting, so load_csv(write_csv(d)) round-trips
    values exactly.
    """
    names = data.feature_names or tuple(f"x{j}" for j in range(data.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(list(names) + ["target"])
        for i in range(data.n_samples):
            row = [repr(float(v)) for v in data.features[i]]
            if data.task == "regression":
                row.append(repr(float(data.targets[i])))
            elif data.label_names is not None:
                row.append(data.label_names[int(data.targets[i])])
            else:
                row.append(str(int(data.targets[i])))
            writer.writerow(row)


def load_features(path, header: bool = True) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Read a CSV of features only (no target column).

    Returns the matrix and the header names, if any. Cells follow the same
    rules as load_csv: missing or non-numeric values are rejected.
    """
    names, rows = _read_csv(path, header)
    width = len(rows[0])
    if width < 1:
        raise DataError(f"{path}: no columns")
    features = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            features[i, j] = _parse_cell(cell, i, j)
    return features, names
