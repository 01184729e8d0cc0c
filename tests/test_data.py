import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnrex import cli, data
from nnrex.data import DataError, Dataset, FoldSplit


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_two_class_file(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f1,f2,label\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n")
        ds = data.load_csv(p, "label")
        assert ds.num_samples == 4
        assert ds.num_classes == 2
        assert ds.class_names == ("a", "b")
        assert list(ds.labels) == [0, 1, 0, 1]
        assert ds.feature_names == ("f1", "f2")

    def test_label_column_by_index(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "label,f1\nx,1\ny,2\n")
        ds = data.load_csv(p, 0)
        assert ds.class_names == ("x", "y")
        assert ds.features[1, 0] == 2.0

    def test_unparsable_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f1,f2,label\n1,?,a\n3,4,b\n")
        with pytest.raises(data.DataError, match=r"row 2.*'f2'"):
            data.load_csv(p, "label")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f1,label\n1,a\n2,b\n")
        with pytest.raises(data.DataError, match="no column named"):
            data.load_csv(p, "target")

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f1,label\n1,a\n2,a\n")
        with pytest.raises(data.DataError, match="fewer than 2"):
            data.load_csv(p, "label")

    def test_non_finite_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "f1,label\ninf,a\n2,b\n")
        with pytest.raises(data.DataError, match="non-finite"):
            data.load_csv(p, "label")

    def test_large_file_shape(self, tmp_path):
        # same sample/feature shape as the bigger telescope-style benchmark
        n, m = 19020, 10
        rng = np.random.default_rng(0)
        rows = "\n".join(
            ",".join(f"{v:.4f}" for v in rng.uniform(size=m)) + ("," + ("g" if i % 2 else "h"))
            for i in range(n)
        )
        header = ",".join(f"f{j}" for j in range(m)) + ",label\n"
        p = write_csv(tmp_path / "big.csv", header + rows + "\n")
        ds = data.load_csv(p, "label")
        assert ds.num_samples == 19020
        assert ds.num_features == 10


class TestGenXor:
    def test_labels_follow_the_xor_rule(self):
        ds = data.gen_xor(500, 10, seed=3)
        recomputed = data.xor_labels(ds.features)
        assert np.array_equal(ds.labels, recomputed)

    def test_truth_table_corners(self):
        # direct check of the labelling function on fixed points
        X = np.array([
            [0.9, 0.9, 0.2], [0.9, 0.1, 0.2], [0.1, 0.9, 0.2], [0.1, 0.1, 0.2],
        ])
        assert list(data.xor_labels(X)) == [0, 1, 1, 0]

    def test_rounding_is_half_up(self):
        X = np.array([[0.5, 0.0, 0.0], [0.5, 0.5, 0.0]])
        assert list(data.xor_labels(X)) == [1, 0]

    def test_shape_and_majority(self):
        ds = data.gen_xor(1000, 10, seed=7)
        assert ds.features.shape == (1000, 10)
        majority = max(np.bincount(ds.labels)) / 1000
        # close to the ~52.6% majority rate of the reference task
        assert 0.5 <= majority <= 0.56

    def test_monte_carlo_balance(self):
        ds = data.gen_xor(10000, 10, seed=11)
        balance = ds.labels.mean()
        assert abs(balance - 0.5) < 0.02

    def test_deterministic(self):
        a = data.gen_xor(100, 3, seed=5)
        b = data.gen_xor(100, 3, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_dims_below_two_rejected(self):
        with pytest.raises(data.DataError):
            data.gen_xor(10, 1, seed=0)


class TestStratifiedKfold:
    def test_balanced_ten_samples(self):
        ds = data.Dataset(
            np.arange(20).reshape(10, 2), np.array([0, 1] * 5), ("a", "b"), ("x", "y")
        )
        folds = data.stratified_kfold(ds, 5, seed=0)
        for fold in folds:
            test_labels = ds.labels[list(fold.test_indices)]
            assert sorted(test_labels) == [0, 1]

    def test_partition_and_skew(self, xor_ds, xor_folds):
        seen = []
        for fold in xor_folds:
            assert len(fold.test_indices) == 200
            seen.extend(fold.test_indices)
            assert not set(fold.train_indices) & set(fold.test_indices)
            counts = np.bincount(xor_ds.labels[list(fold.test_indices)], minlength=2)
            global_counts = np.bincount(xor_ds.labels, minlength=2)
            for c in range(2):
                assert abs(counts[c] - global_counts[c] / 5) <= 1
        assert sorted(seen) == list(range(1000))

    def test_deterministic(self, xor_ds):
        a = data.stratified_kfold(xor_ds, 5, seed=9)
        b = data.stratified_kfold(xor_ds, 5, seed=9)
        assert a == b

    def test_small_class_rejected(self):
        ds = data.Dataset(
            np.arange(12).reshape(6, 2), np.array([0, 0, 0, 0, 0, 1]), ("a", "b"), ("x", "y")
        )
        with pytest.raises(data.DataError, match="fewer than k"):
            data.stratified_kfold(ds, 3, seed=0)

    def test_export_folds(self, xor_folds, tmp_path):
        import json

        out = tmp_path / "folds.json"
        data.export_folds(xor_folds, out)
        loaded = json.loads(out.read_text())
        assert loaded == [list(f.test_indices) for f in xor_folds]


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(2, 6), st.integers(0, 2**16))
    def test_stratified_kfold_deals_every_row_once_and_evenly(self, draw, k, seed):
        # a class is absent or has at least k rows, as stratified_kfold requires
        counts = draw.draw(st.lists(st.just(0) | st.integers(k, 4 * k), min_size=2, max_size=4)
                           .filter(any))
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
        ds = data.Dataset(np.zeros((len(labels), 1)), labels, ("a",),
                          tuple(f"c{i}" for i in range(len(counts))))
        folds = data.stratified_kfold(ds, k, seed)
        assert len(folds) == k
        tests = [list(f.test_indices) for f in folds]
        assert sorted(i for t in tests for i in t) == list(range(len(labels)))
        for fold, test in zip(folds, tests):
            assert sorted([*fold.train_indices, *test]) == list(range(len(labels)))
        sizes = [len(t) for t in tests]
        assert max(sizes) - min(sizes) <= 1
        per_class = np.array([np.bincount(labels[t], minlength=len(counts)) for t in tests])
        assert (per_class.max(axis=0) - per_class.min(axis=0) <= 1).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60), st.integers(2, 6), st.integers(0, 2**16))
    def test_load_csv_reads_back_what_gen_xor_writes(self, n, dims, seed):
        want = data.gen_xor(n, dims, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "xor.csv"
            assert cli.main(["gen-xor", "--n", str(n), "--dims", str(dims),
                             "--seed", str(seed), "--out", str(path)]) == 0
            if len(set(want.labels)) < 2:
                with pytest.raises(data.DataError, match="fewer than 2"):
                    data.load_csv(path, "label")
                return
            got = data.load_csv(path, "label")
        assert got.features.tobytes() == want.features.tobytes()
        assert got.feature_names == want.feature_names
        # load_csv names classes in order of first appearance
        first = want.class_names[want.labels[0]]
        assert got.class_names == (first, *(c for c in want.class_names if c != first))
        assert [got.class_names[i] for i in got.labels] == [want.class_names[i] for i in want.labels]


class TestOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 7), st.integers(0, 2**63))
    def test_stratified_kfold_matches_the_reference(self, draw, k, seed):
        # empty classes, classes smaller than k, and classes k or larger
        size = st.just(0) | st.integers(1, k - 1) | st.integers(k, 4 * k)
        counts = draw.draw(st.lists(size, min_size=2, max_size=6).filter(any))
        labels = draw.draw(st.permutations(np.repeat(np.arange(len(counts)), counts).tolist()))
        ds = Dataset(np.zeros((len(labels), 1)), labels, ("a",), tuple(f"c{i}" for i in range(len(counts))))
        assert outcome(data.stratified_kfold, ds, k, seed) == outcome(reference_stratified_kfold, ds, k, seed)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 4), st.integers(0, 8))
    def test_load_csv_matches_the_reference(self, draw, m, n):
        position = draw.draw(st.integers(0, m))  # first, middle or last
        header = [f"f{j}" for j in range(m)]
        header.insert(position, "label")
        cell = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from([" 2.5 ", "-0", "1e308"])
        label = st.sampled_from(["a", "b", " a", "b ", "c", ""])
        rows = [[draw.draw(cell) for _ in range(m)] for _ in range(n)]
        for row in rows:
            row.insert(position, draw.draw(label))
        # one case in four has a defect: a short or long row, or an unparsable or non-finite cell
        if rows and draw.draw(st.integers(0, 3)) == 0:
            defect = draw.draw(st.sampled_from(["short", "long", "?", "", "inf", "nan", "1e999"]))
            row = rows[draw.draw(st.integers(0, n - 1))]
            if defect == "short":
                row.pop()
            elif defect == "long":
                row.append("0")
            elif m:
                row[draw.draw(st.sampled_from([c for c in range(m + 1) if c != position]))] = defect
        label_column = draw.draw(st.sampled_from(["label", position]))
        if draw.draw(st.integers(0, 5)) == 0:
            label_column = draw.draw(st.sampled_from(["nope", m + 1, -1]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
            assert outcome(data.load_csv, path, label_column) == outcome(reference_load_csv, path, label_column)


def outcome(fn, *args):
    """What a reader returns, as comparable values, or its DataError message."""
    try:
        got = fn(*args)
    except DataError as exc:
        return str(exc)
    if isinstance(got, Dataset):
        return got.features.tobytes(), got.features.shape, got.labels.tolist(), got.feature_names, got.class_names
    return [(f.train_indices, f.test_indices) for f in got]


class TestSubsample:
    def test_stratified_preserves_proportions(self):
        labels = np.array([0] * 900 + [1] * 100)
        idx = data.stratified_sample_indices(labels, 0.1, np.random.default_rng(4))
        counts = np.bincount(labels[idx])
        assert abs(counts[0] - 90) <= 1
        assert abs(counts[1] - 10) <= 1


class TestClassWeights:
    def test_balanced(self):
        assert np.allclose(data.class_weights_from_labels(np.array([0, 1, 0, 1]), 2), [1.0, 1.0])

    def test_nine_to_one(self):
        labels = np.array([0] * 900 + [1] * 100)
        w = data.class_weights_from_labels(labels, 2)
        # N / (L * count): 1000/1800 and 1000/200
        assert np.allclose(w, [1000 / 1800, 5.0])

    def test_extreme_imbalance_weight(self):
        # 91.3%-majority style imbalance puts the minority weight above 10
        labels = np.array([0] * 913 + [1] * 87)
        w = data.class_weights_from_labels(labels, 2)
        assert w[1] > 5.0
        assert np.isclose(w[1], 1000 / (2 * 87))


# The two readers as they were before they kept one index structure each,
# copied verbatim: the oracles below check that the rewrite changed nothing.

def reference_load_csv(path, label_column) -> Dataset:
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

    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    class_names: list[str] = []
    class_index: dict[str, int] = {}
    X = np.empty((len(rows), len(feature_names)), dtype=float)
    y = np.empty(len(rows), dtype=int)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        j = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                label = cell.strip()
                if label not in class_index:
                    class_index[label] = len(class_names)
                    class_names.append(label)
                y[r] = class_index[label]
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r + 2}, column {header[c]!r}: cannot parse {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{path}: row {r + 2}, column {header[c]!r}: non-finite value")
            X[r, j] = value
            j += 1
    if len(class_names) < 2:
        raise DataError(f"{path}: fewer than 2 distinct classes")
    return Dataset(X, y, tuple(feature_names), tuple(class_names))


def reference_stratified_kfold(ds: Dataset, k: int, seed: int) -> list[FoldSplit]:
    """Split into k folds whose test parts preserve class proportions.

    Each class's indices are shuffled once and dealt into k chunks whose
    sizes differ by at most one, so per-fold class counts stay within one
    sample of the global proportion. Deterministic for a fixed seed.
    """
    if k < 2:
        raise DataError("k must be >= 2")
    rng = np.random.default_rng(seed)
    per_class = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if 0 < len(idx) < k:
            raise DataError(f"class {ds.class_names[c]!r} has {len(idx)} samples, fewer than k={k}")
        rng.shuffle(idx)
        per_class.append(idx)

    # deal each class into k chunks of size floor or ceil, steering the
    # leftover samples to the currently smallest folds so overall fold
    # sizes also stay within one of each other
    test_parts: list[list[int]] = [[] for _ in range(k)]
    for idx in per_class:
        base, extra = divmod(len(idx), k)
        by_fill = sorted(range(k), key=lambda f: (len(test_parts[f]), f))
        sizes = [base] * k
        for f in by_fill[:extra]:
            sizes[f] += 1
        start = 0
        for f in range(k):
            test_parts[f].extend(int(i) for i in idx[start : start + sizes[f]])
            start += sizes[f]

    all_indices = set(range(ds.num_samples))
    folds = []
    for part in test_parts:
        test = sorted(part)
        train = sorted(all_indices.difference(test))
        folds.append(FoldSplit(tuple(train), tuple(test)))
    return folds
