"""Dataset ingestion, synthetic task generation, and split utilities.

All operations are pure functions of their inputs plus an explicit seed, so
repeated calls are reproducible and safe to share across threads.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data or invalid split parameters."""


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with dense integer labels and human-readable names.

    Invariants (checked on construction): at least one sample and one
    feature, at least two classes, every label in ``[0, num_classes)``,
    all feature values finite, and name lists matching the shapes.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError(f"feature matrix must be 2-D and non-empty, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DataError(f"labels must be a vector of length {X.shape[0]}, got shape {y.shape}")
        if len(self.class_names) < 2:
            raise DataError("need at least 2 classes")
        if len(self.feature_names) != X.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} features"
            )
        if not np.all(np.isfinite(X)):
            bad = np.argwhere(~np.isfinite(X))[0]
            raise DataError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if y.min() < 0 or y.max() >= len(self.class_names):
            raise DataError("label index out of range")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint train/test index lists for one cross-validation fold."""

    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "train_indices", tuple(int(i) for i in self.train_indices))
        object.__setattr__(self, "test_indices", tuple(int(i) for i in self.test_indices))
        if set(self.train_indices) & set(self.test_indices):
            raise DataError("train and test indices overlap")


def load_csv(path, label_column) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    ``label_column`` selects the label column by header name or integer
    position; every other column must parse as a finite real. Labels are
    mapped to dense indices in order of first appearance, and that order is
    recorded in ``class_names``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows")

    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise DataError(f"{path}: label column index {label_column} out of range")
        label_idx = label_column
    else:
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)

    feature_cols = [c for c in range(len(header)) if c != label_idx]
    class_index: dict[str, int] = {}
    X = np.empty((len(rows), len(feature_cols)), dtype=float)
    y = np.empty(len(rows), dtype=int)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        y[r] = class_index.setdefault(row[label_idx].strip(), len(class_index))
        for j, c in enumerate(feature_cols):
            try:
                value = float(row[c])
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 2}, column {header[c]!r}: cannot parse {row[c]!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: row {r + 2}, column {header[c]!r}: non-finite value")
            X[r, j] = value
    if len(class_index) < 2:
        raise DataError(f"{path}: fewer than 2 distinct classes")
    return Dataset(X, y, tuple(header[c] for c in feature_cols), tuple(class_index))


def gen_xor(n: int, dims: int, seed: int) -> Dataset:
    """Generate the synthetic parity task: uniform points on [0,1]^dims
    labelled by XOR of the rounded first two coordinates.

    Rounding is half-up at 0.5 so the generator is a fixed deterministic
    function of the drawn points.
    """
    if n < 1:
        raise DataError("n must be >= 1")
    if dims < 2:
        raise DataError("dims must be >= 2")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, dims))
    y = xor_labels(X)
    names = tuple(f"x{i + 1}" for i in range(dims))
    return Dataset(X, y, names, ("0", "1"))


def xor_labels(X: np.ndarray) -> np.ndarray:
    """Label rule behind :func:`gen_xor`: round(x1) XOR round(x2), half-up."""
    b1 = (X[:, 0] >= 0.5).astype(int)
    b2 = (X[:, 1] >= 0.5).astype(int)
    return b1 ^ b2


def stratified_kfold(ds: Dataset, k: int, seed: int) -> list[FoldSplit]:
    """Split into k folds whose test parts preserve class proportions.

    Each class's indices are shuffled once and dealt into k chunks whose
    sizes differ by at most one, so per-fold class counts stay within one
    sample of the global proportion. Deterministic for a fixed seed.
    """
    if k < 2:
        raise DataError("k must be >= 2")
    rng = np.random.default_rng(seed)
    # each row's test fold; each class is dealt into k chunks of size floor
    # or ceil, steering the leftover rows to the currently smallest folds so
    # overall fold sizes also stay within one of each other
    fold_of = np.empty(ds.num_samples, dtype=int)
    fill = np.zeros(k, dtype=int)
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if 0 < len(idx) < k:
            raise DataError(f"class {ds.class_names[c]!r} has {len(idx)} samples, fewer than k={k}")
        rng.shuffle(idx)
        base, extra = divmod(len(idx), k)
        sizes = np.full(k, base)
        sizes[np.argsort(fill, kind="stable")[:extra]] += 1
        fold_of[idx] = np.repeat(np.arange(k), sizes)
        fill += sizes
    rows = np.arange(ds.num_samples)
    return [FoldSplit(rows[fold_of != f], rows[fold_of == f]) for f in range(k)]


def export_folds(folds: list[FoldSplit], path) -> None:
    """Write fold test indices as a JSON array-of-arrays (train = complement)."""
    payload = [list(f.test_indices) for f in folds]
    with open(path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def stratified_sample_indices(labels: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Pick round(fraction * count) indices per label value, without replacement."""
    keep: list[np.ndarray] = []
    # not np.unique: its first call in a process allocates about 1 MB
    for c in np.flatnonzero(np.bincount(labels)):
        idx = np.flatnonzero(labels == c)
        n_c = int(np.floor(fraction * len(idx) + 0.5))
        keep.append(rng.choice(idx, size=min(n_c, len(idx)), replace=False))
    out = np.sort(np.concatenate(keep)) if keep else np.empty(0, dtype=int)
    return out.astype(int)


def class_weights_from_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    counts = np.bincount(labels, minlength=num_classes).astype(float)
    n = float(len(labels))
    weights = np.zeros(num_classes)
    present = counts > 0
    weights[present] = n / (num_classes * counts[present])
    return weights
