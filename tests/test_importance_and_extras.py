"""Tests for the extra built-in losses and the eval-set / early-stopping
facade features."""

import numpy as np
import pytest

from repro import GBDTParams, GradientBoostedTrees
from repro.losses import HuberLoss, PoissonLoss, get_loss


class TestExtraLosses:
    def test_huber_registry(self):
        assert isinstance(get_loss("huber"), HuberLoss)
        assert isinstance(get_loss("poisson"), PoissonLoss)
        assert isinstance(get_loss("count:poisson"), PoissonLoss)

    def test_huber_gradient_regions(self):
        loss = HuberLoss(delta=1.0)
        g, h = loss.gradients(np.array([0.0, 0.0]), np.array([0.5, 5.0]))
        assert g[0] == pytest.approx(1.0)  # quadratic region: 2r
        assert g[1] == pytest.approx(2.0)  # linear region: 2*delta
        assert h[0] == 2.0 and h[1] == loss.tail_hessian

    def test_huber_value_continuous_at_delta(self):
        loss = HuberLoss(delta=1.5)
        below = loss.value(np.array([0.0]), np.array([1.5 - 1e-9]))
        above = loss.value(np.array([0.0]), np.array([1.5 + 1e-9]))
        assert below == pytest.approx(above, rel=1e-6)

    def test_huber_validation(self):
        with pytest.raises(ValueError):
            HuberLoss(delta=0.0)

    def test_poisson_gradients_match_numeric(self):
        loss = PoissonLoss()
        rng = np.random.default_rng(1)
        y = rng.integers(0, 5, size=30).astype(float)
        m = rng.normal(scale=0.5, size=30)
        g, h = loss.gradients(y, m)
        eps = 1e-6
        num = ((np.exp(m + eps) - y * (m + eps)) - (np.exp(m - eps) - y * (m - eps))) / (2 * eps)
        assert np.allclose(g, num, atol=1e-4)
        assert np.all(h > 0)

    def test_poisson_rejects_negative_targets(self):
        with pytest.raises(ValueError, match="non-negative"):
            PoissonLoss().gradients(np.array([-1.0]), np.array([0.0]))

    def test_poisson_transform_is_exp(self):
        assert PoissonLoss().transform(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_poisson_training_learns_counts(self, susy_small):
        ds = susy_small
        counts = np.round(np.abs(ds.y * 3 + 1)).astype(float)
        est = GradientBoostedTrees(
            GBDTParams(n_trees=10, max_depth=3, loss="poisson")
        ).fit(ds.X, counts)
        mu = est.predict(ds.X, transform=True)
        assert np.all(mu > 0)
        assert abs(mu.mean() - counts.mean()) < counts.mean()

    def test_huber_training_runs(self, susy_small):
        ds = susy_small
        est = GradientBoostedTrees(
            GBDTParams(n_trees=5, max_depth=3, loss=HuberLoss(delta=2.0))
        ).fit(ds.X, ds.y)
        assert np.all(np.isfinite(est.predict(ds.X_test)))


class TestEvalSetAndEarlyStopping:
    def test_eval_history_recorded(self, susy_small):
        ds = susy_small
        est = GradientBoostedTrees(GBDTParams(n_trees=6, max_depth=3)).fit(
            ds.X, ds.y, eval_set=(ds.X_test, ds.y_test)
        )
        assert est.eval_history_.shape == (6,)

    def test_early_stopping_truncates(self, susy_small):
        ds = susy_small
        est = GradientBoostedTrees(GBDTParams(n_trees=30, max_depth=5, learning_rate=1.0)).fit(
            ds.X, ds.y,
            eval_set=(ds.X_test, ds.y_test),
            early_stopping_rounds=3,
        )
        assert est.best_iteration_ is not None
        assert est.model_.n_trees == est.best_iteration_ <= 30
        # the kept prefix ends at the observed validation minimum
        hist = est.eval_history_[: est.best_iteration_]
        assert hist[-1] == hist.min()

    def test_early_stopping_requires_eval_set(self, susy_small):
        ds = susy_small
        with pytest.raises(ValueError, match="requires an eval_set"):
            GradientBoostedTrees(GBDTParams(n_trees=3)).fit(
                ds.X, ds.y, early_stopping_rounds=2
            )

    def test_invalid_rounds(self, susy_small):
        ds = susy_small
        with pytest.raises(ValueError, match=">= 1"):
            GradientBoostedTrees(GBDTParams(n_trees=3)).fit(
                ds.X, ds.y, eval_set=(ds.X_test, ds.y_test), early_stopping_rounds=0
            )

    def test_custom_eval_metric(self, susy_small):
        from repro.metrics import error_rate

        ds = susy_small
        est = GradientBoostedTrees(GBDTParams(n_trees=4, max_depth=3)).fit(
            ds.X, ds.y, eval_set=(ds.X_test, ds.y_test), eval_metric=error_rate
        )
        assert np.all((est.eval_history_ >= 0) & (est.eval_history_ <= 1))
