"""Tests for GBDTParams validation."""

import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.losses import LogisticLoss, SquaredErrorLoss


class TestDefaults:
    def test_paper_experimental_setting(self):
        """Section IV-A: depth 6, 40 trees, MSE, exact splits."""
        p = GBDTParams()
        assert p.n_trees == 40
        assert p.max_depth == 6
        assert isinstance(p.loss_fn, SquaredErrorLoss)

    def test_all_optimizations_on_by_default(self):
        assert GBDTParams().use_smartgd
        t = GPUGBDTTrainer()
        assert t.rle_policy == "measured" and t.use_direct_rle
        assert t.use_custom_setkey and t.use_custom_workload


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"n_trees": 0},
        {"max_depth": 0},
        {"gamma": -0.1},
        {"lambda_": -1.0},
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"subsample": 0.0},
        {"colsample_bytree": 1.5},
        {"goss_a": 0.0},
        {"goss_a": 0.5, "goss_b": 0.6},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            GBDTParams(**kw)

    def test_loss_resolved_eagerly(self):
        with pytest.raises(ValueError, match="unknown loss"):
            GBDTParams(loss="nope")

    def test_loss_by_name(self):
        assert isinstance(GBDTParams(loss="logistic").loss_fn, LogisticLoss)


class TestReplace:
    def test_replace_returns_new_object(self):
        p = GBDTParams()
        q = p.replace(n_trees=7)
        assert q.n_trees == 7 and p.n_trees == 40

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            GBDTParams().replace(max_depth=-1)
