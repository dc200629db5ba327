"""Tests for stochastic GBM: the shared per-tree sampler and both trainers."""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.core.sampling import sample_tree
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.metrics import rmse


class TestSampler:
    def test_trivial_sample(self):
        s = sample_tree(0, 0, 10, 4, 1.0, 1.0)
        assert s.is_trivial
        assert s.inst_mask.all()
        assert list(s.attrs) == [0, 1, 2, 3]

    def test_deterministic_per_seed_and_tree(self):
        a = sample_tree(7, 3, 100, 10, 0.5, 0.5)
        b = sample_tree(7, 3, 100, 10, 0.5, 0.5)
        assert np.array_equal(a.inst_mask, b.inst_mask)
        assert np.array_equal(a.attrs, b.attrs)

    def test_different_trees_differ(self):
        a = sample_tree(7, 0, 100, 10, 0.5, 1.0)
        b = sample_tree(7, 1, 100, 10, 0.5, 1.0)
        assert not np.array_equal(a.inst_mask, b.inst_mask)

    def test_rates_respected(self):
        s = sample_tree(1, 0, 1000, 20, 0.3, 0.25)
        assert s.n_included == 300
        assert s.attrs.size == 5
        assert list(s.attrs) == sorted(s.attrs)

    def test_minimums(self):
        s = sample_tree(1, 0, 4, 3, 0.01, 0.01)
        assert s.n_included >= 2
        assert s.attrs.size >= 1

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            sample_tree(1, 0, 10, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            sample_tree(1, 0, 10, 2, 1.0, 1.5)


class TestStochasticTraining:
    def test_gpu_matches_reference_with_sampling(self, covtype_small):
        """The identical-trees property extends to stochastic runs because
        both trainers consume the same deterministic draw."""
        ds = covtype_small
        p = GBDTParams(n_trees=4, max_depth=3, subsample=0.6, colsample_bytree=0.5, seed=11)
        a = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        b = ReferenceTrainer(p).fit(ds.X, ds.y)
        assert models_equal(a, b)

    def test_sampling_changes_trees(self, covtype_small):
        ds = covtype_small
        full = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
        sub = GPUGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=3, subsample=0.5)
        ).fit(ds.X, ds.y)
        assert not models_equal(full, sub)

    def test_root_counts_reflect_subsample(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=2, subsample=0.5)
        model = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        n = ds.X.n_rows
        for t in model.trees:
            assert t.n_instances[0] == max(2, int(round(n * 0.5)))

    def test_colsample_restricts_attributes(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=3, colsample_bytree=0.2, seed=5)
        model = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        for t_idx, t in enumerate(model.trees):
            allowed = set(
                sample_tree(5, t_idx, ds.X.n_rows, ds.X.n_cols, 1.0, 0.2).attrs.tolist()
            )
            used = {a for a in t.attr if a >= 0}
            assert used <= allowed

    def test_excluded_rows_still_predicted(self, susy_small):
        """yhat accumulates the tree for out-of-sample rows too, so the
        next round's gradients are consistent with full prediction."""
        ds = susy_small
        p = GBDTParams(n_trees=5, max_depth=3, subsample=0.7, seed=2)
        trainer = GPUGBDTTrainer(p)
        model = trainer.fit(ds.X, ds.y)
        # boosting still reduces error over ALL rows, not just sampled ones
        staged = model.staged_predict(ds.X)
        assert rmse(ds.y, staged[-1]) < rmse(ds.y, staged[0])

    def test_seed_reproducibility(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=3, subsample=0.6, seed=9)
        a = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        b = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        assert models_equal(a, b)

    def test_sampling_with_rle_paths(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=3, subsample=0.7, seed=4)
        a = GPUGBDTTrainer(p, rle_policy="always").fit(ds.X, ds.y)
        b = ReferenceTrainer(p).fit(ds.X, ds.y)
        assert models_equal(a, b)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GBDTParams(subsample=0.0)
        with pytest.raises(ValueError):
            GBDTParams(colsample_bytree=1.0001)
