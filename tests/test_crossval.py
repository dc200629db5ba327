"""Tests for k-fold cross-validation."""

import numpy as np
import pytest

from repro import GBDTParams
from repro.ext.crossval import cross_validate, kfold_indices


class TestKFoldIndices:
    def test_partition_of_rows(self):
        folds = kfold_indices(23, 4, seed=1)
        assert len(folds) == 4
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(23))

    def test_balanced_sizes(self):
        folds = kfold_indices(22, 4)
        sizes = sorted(f.size for f in folds)
        assert sizes[-1] - sizes[0] <= 1

    def test_deterministic(self):
        a = kfold_indices(50, 5, seed=3)
        b = kfold_indices(50, 5, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_assignment(self):
        a = kfold_indices(50, 5, seed=3)
        b = kfold_indices(50, 5, seed=4)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)


class TestCrossValidate:
    def test_basic_run(self, susy_small):
        ds = susy_small
        res = cross_validate(
            ds.X, ds.y, GBDTParams(n_trees=3, max_depth=3), k=3
        )
        assert res.k == 3
        assert res.mean_valid > 0
        assert all(f.n_train + f.n_valid == ds.X.n_rows for f in res.folds)

    def test_train_better_than_valid(self, susy_small):
        """Trees overfit their own fold: mean train metric <= mean valid."""
        ds = susy_small
        res = cross_validate(
            ds.X, ds.y, GBDTParams(n_trees=6, max_depth=4), k=3
        )
        assert res.mean_train <= res.mean_valid + 0.05

    def test_custom_metric(self, susy_small):
        from repro.metrics import error_rate

        ds = susy_small
        res = cross_validate(
            ds.X, ds.y, GBDTParams(n_trees=3, max_depth=3), k=3, metric=error_rate
        )
        assert 0 <= res.mean_valid <= 1

    def test_backend_choice(self, covtype_small):
        ds = covtype_small
        res = cross_validate(
            ds.X, ds.y, GBDTParams(n_trees=2, max_depth=2), k=2, backend="histogram"
        )
        assert res.k == 2

    def test_format(self, susy_small):
        ds = susy_small
        res = cross_validate(ds.X, ds.y, GBDTParams(n_trees=2, max_depth=2), k=2)
        text = res.format()
        assert "mean valid" in text and "fold 0" in text

    def test_y_mismatch(self, susy_small):
        ds = susy_small
        with pytest.raises(ValueError):
            cross_validate(ds.X, ds.y[:5], GBDTParams(n_trees=1))
