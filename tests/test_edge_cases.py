"""Adversarial-structure integration tests: degenerate datasets that stress
the segment machinery (empty columns, all-missing columns, single values,
extreme sparsity, deep trees on tiny data)."""

import numpy as np

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.data import CSRMatrix


def both(X, y, **kw):
    p = GBDTParams(n_trees=3, max_depth=4, **kw)
    a = GPUGBDTTrainer(p).fit(X, y)
    b = ReferenceTrainer(p).fit(X, y)
    assert models_equal(a, b)
    return a


class TestDegenerateColumns:
    def test_totally_empty_column(self):
        """An attribute no instance has can never be chosen."""
        X = CSRMatrix.from_rows(
            [[(0, 1.0)], [(0, 2.0)], [(0, 3.0)], [(0, 4.0)]], n_cols=3
        )
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = both(X, y)
        used = {a for t in model.trees for a in t.attr if a >= 0}
        assert used <= {0}

    def test_constant_column_with_missing(self):
        """A binary indicator column: the only cut is present|missing."""
        X = CSRMatrix.from_rows(
            [[(0, 1.0)], [(0, 1.0)], [], []], n_cols=1
        )
        y = np.array([1.0, 1.0, 0.0, 0.0])
        model = both(X, y, learning_rate=1.0)
        pred = model.predict(X)
        assert pred[0] == pred[1] and pred[2] == pred[3]
        assert abs(pred[0] - 1.0) < 0.2 and abs(pred[2]) < 0.2

    def test_single_entry_column(self):
        X = CSRMatrix.from_rows(
            [[(0, 1.0), (1, 9.0)], [(0, 2.0)], [(0, 3.0)]], n_cols=2
        )
        y = np.array([1.0, 0.0, 0.5])
        both(X, y)

    def test_every_instance_distinct_in_one_column(self):
        rng = np.random.default_rng(0)
        n = 30
        X = CSRMatrix.from_rows([[(0, float(i) + 0.5)] for i in range(n)], n_cols=1)
        y = rng.normal(size=n)
        both(X, y)


class TestExtremeShapes:
    def test_two_instances(self):
        X = CSRMatrix.from_rows([[(0, 1.0)], [(0, 2.0)]], n_cols=1)
        y = np.array([0.0, 1.0])
        model = both(X, y)
        assert model.trees[0].n_nodes == 3

    def test_single_column_many_rows(self):
        rng = np.random.default_rng(1)
        n = 200
        X = CSRMatrix.from_rows(
            [[(0, float(v))] for v in rng.integers(0, 5, size=n)], n_cols=1
        )
        y = rng.normal(size=n)
        both(X, y)

    def test_wide_and_short(self):
        rng = np.random.default_rng(2)
        rows = []
        for i in range(10):
            cols = rng.choice(50, size=5, replace=False)
            rows.append([(int(c), float(rng.uniform(1, 3))) for c in sorted(cols)])
        X = CSRMatrix.from_rows(rows, n_cols=50)
        y = rng.normal(size=10)
        both(X, y)

    def test_depth_larger_than_log_n(self):
        """max_depth 8 on 12 instances: trees terminate early when nodes
        become unsplittable."""
        rng = np.random.default_rng(3)
        X = CSRMatrix.from_rows(
            [[(0, float(rng.uniform(0, 1)))] for _ in range(12)], n_cols=1
        )
        y = rng.normal(size=12)
        p = GBDTParams(n_trees=2, max_depth=8)
        model = GPUGBDTTrainer(p).fit(X, y)
        for t in model.trees:
            for nid in range(t.n_nodes):
                if t.is_leaf(nid):
                    assert t.n_instances[nid] >= 1


class TestNumericExtremes:
    def test_huge_and_tiny_values(self):
        X = CSRMatrix.from_rows(
            [[(0, 1e12)], [(0, 1e-12)], [(0, 1.0)], [(0, -1e12)]], n_cols=1
        )
        y = np.array([1.0, 0.0, 0.5, 0.0])
        model = both(X, y)
        assert np.all(np.isfinite(model.predict(X)))

    def test_negative_values_sort_correctly(self):
        X = CSRMatrix.from_rows(
            [[(0, -3.0)], [(0, -1.0)], [(0, -2.0)], [(0, 0.5)]], n_cols=1
        )
        y = np.array([0.0, 1.0, 0.0, 1.0])
        both(X, y)

    def test_large_targets(self):
        X = CSRMatrix.from_rows([[(0, 1.0)], [(0, 2.0)], [(0, 3.0)]], n_cols=1)
        y = np.array([1e6, 2e6, 3e6])
        model = both(X, y)
        pred = model.predict(X)
        assert np.all(np.isfinite(pred)) and pred.max() > 1e5


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, covtype_small):
        from repro.core.booster_model import GBDTModel

        ds = covtype_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3)).fit(ds.X, ds.y)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GBDTModel.load(path)
        assert np.allclose(model.predict(ds.X_test), loaded.predict(ds.X_test))

    def test_eval_history_decreases(self, susy_small):
        ds = susy_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=8, max_depth=4)).fit(ds.X, ds.y)
        hist = model.eval_history(ds.X, ds.y)
        assert hist.shape == (8,)
        assert hist[-1] < hist[0]

    def test_eval_history_custom_metric(self, susy_small):
        from repro.metrics import error_rate

        ds = susy_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=4, max_depth=4)).fit(ds.X, ds.y)
        hist = model.eval_history(ds.X_test, ds.y_test, metric=error_rate)
        assert np.all((hist >= 0) & (hist <= 1))
