"""Tests for the continual-training controller (simulated clock).

Batches here are small (64 rows of the 250-row test dataset), and PSI over
10 bins has sampling noise of roughly ``2 * bins / rows`` -- about 0.3 for
a 64-row batch -- so the default policy in these tests sets
``drift_threshold`` high enough that drift only fires where a test shifts
the data on purpose.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.pipeline import (
    CheckpointStore,
    ContinualController,
    RetrainPolicy,
)
from repro.serve import ModelRegistry

B = 64  # batch rows


@pytest.fixture
def ds(covtype_small):
    return covtype_small


@pytest.fixture
def params():
    return GBDTParams(n_trees=3, max_depth=3, seed=13)


def _holdout(ds):
    return ds.X_test.to_dense(fill=np.nan).values, ds.y_test


def _dense(ds):
    return ds.X.to_dense(fill=np.nan).values


def _controller(ds, params, *, model=None, store=None, registry=None, **policy):
    defaults = dict(
        drift_threshold=5.0,  # effectively off; drift tests lower it
        schedule_interval=100.0,
        refresh_trees=2,
        max_window_rows=256,
        min_window_rows=16,
        validation_tolerance=0.05,
    )
    defaults.update(policy)
    clock = {"now": 0.0}
    c = ContinualController(
        params,
        _holdout(ds),
        registry=registry,
        model=model,
        store=store,
        policy=RetrainPolicy(**defaults),
        clock=lambda: clock["now"],
    )
    return c, clock


class TestBootstrapAndSchedule:
    def test_bootstrap_from_window(self, ds, params):
        c, _ = _controller(ds, params)
        assert c.model is None
        c.ingest(_dense(ds)[:B], ds.y[:B], now=1.0)
        events = c.poll(now=1.0)
        assert [e.kind for e in events] == ["publish"]
        assert events[0].reason == "bootstrap"
        assert c.model is not None and c.model.n_trees == params.n_trees
        assert c.active_version is not None

    def test_below_min_window_no_refresh(self, ds, params):
        c, _ = _controller(ds, params, min_window_rows=B)
        c.ingest(_dense(ds)[: B // 2], ds.y[: B // 2], now=1.0)
        assert c.poll(now=1.0) == []

    def test_scheduled_refresh_fires_after_interval(self, ds, params):
        c, _ = _controller(ds, params, schedule_interval=100.0)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)  # bootstrap
        c.ingest(dense[B : 2 * B], ds.y[B : 2 * B], now=50.0)
        assert c.poll(now=50.0) == []  # interval not yet elapsed
        c.ingest(dense[2 * B : 3 * B], ds.y[2 * B : 3 * B], now=150.0)
        events = c.poll(now=150.0)
        assert len(events) == 1 and events[0].reason == "schedule"
        assert c.model.n_trees == params.n_trees + 2  # warm-started, not rebuilt

    def test_min_retrain_interval_guards_thrash(self, ds, params):
        c, _ = _controller(
            ds, params, schedule_interval=10.0, min_retrain_interval=50.0
        )
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        c.ingest(dense[B : 2 * B], ds.y[B : 2 * B], now=20.0)
        assert c.poll(now=20.0) == []  # schedule due, but inside the guard

    def test_drift_only_policy(self, ds, params):
        c, _ = _controller(ds, params, schedule_interval=None)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        c.ingest(dense[B : 2 * B], ds.y[B : 2 * B], now=10_000.0)
        assert c.poll(now=10_000.0) == []  # no drift, no schedule: nothing


class TestDriftTrigger:
    def test_shifted_features_trigger_drift_refresh(self, ds, params):
        c, _ = _controller(
            ds, params, schedule_interval=None, drift_threshold=0.5
        )
        dense = _dense(ds)
        c.ingest(dense[:2 * B], ds.y[:2 * B], now=0.0)
        c.poll(now=0.0)  # bootstrap
        shifted = dense[2 * B : 3 * B] + 5.0  # every feature moves
        c.ingest(shifted, ds.y[2 * B : 3 * B], now=1.0)
        events = c.poll(now=1.0)
        assert len(events) == 1 and events[0].reason == "drift"


class TestRollback:
    def test_poisoned_labels_roll_back(self, ds, params):
        registry = ModelRegistry()
        c, _ = _controller(ds, params, registry=registry, schedule_interval=10.0)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        good_version = c.active_version
        assert good_version is not None

        rng = np.random.default_rng(7)
        poisoned = -ds.y[B : 2 * B] + rng.normal(0.0, 3.0, size=B)
        c.ingest(dense[B : 2 * B], poisoned, now=20.0)
        events = c.poll(now=20.0)
        assert [e.kind for e in events] == ["rollback"]
        # the registry serves the last good model again
        assert c.active_version == good_version
        assert c.model.n_trees == params.n_trees  # candidate not adopted
        s = c.summary()
        assert s["rollbacks"] == 1.0 and s["publishes"] == 1.0

    def test_non_finite_candidate_is_never_published(self, ds, params, monkeypatch):
        """A refresh whose candidate has a NaN leaf raises at publish: the
        registry and the controller keep serving the last good model."""
        registry = ModelRegistry()
        c, _ = _controller(ds, params, registry=registry, schedule_interval=10.0)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        good_version, good_model = c.active_version, c.model

        fit = GPUGBDTTrainer.fit

        def poisoned_fit(self, *args, **kwargs):
            model = fit(self, *args, **kwargs)
            tree = model.trees[-1]
            tree.value[next(i for i in range(tree.n_nodes) if tree.is_leaf(i))] = np.nan
            return model

        monkeypatch.setattr(GPUGBDTTrainer, "fit", poisoned_fit)
        c.ingest(dense[B : 2 * B], ds.y[B : 2 * B], now=20.0)
        with pytest.raises(ValueError, match="non-finite"):
            c.poll(now=20.0)
        assert registry.versions() == [good_version]
        assert c.active_version == good_version
        assert c.model is good_model

    def test_rollback_preserves_boosting_base(self, ds, params):
        """After a rollback the next refresh warm-starts from the last good
        model, not from the rejected candidate."""
        c, _ = _controller(
            ds,
            params,
            schedule_interval=10.0,
            max_window_rows=B,  # window = most recent batch only
            validation_tolerance=0.25,
        )
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        rng = np.random.default_rng(8)
        c.ingest(dense[B : 2 * B], -ds.y[B : 2 * B] + rng.normal(0, 3, B), now=20.0)
        rolled = c.poll(now=20.0)
        assert [e.kind for e in rolled] == ["rollback"]
        # clean data again -- the same rows the good base was trained on, so
        # the refresh trees fit true residuals and validation accepts
        c.ingest(dense[:B], ds.y[:B], now=40.0)
        events = c.poll(now=40.0)
        assert len(events) == 1 and events[0].kind == "publish"
        assert c.model.n_trees == params.n_trees + 2  # good base + one refresh


class TestAdoptedModelAndCheckpoints:
    def test_pretrained_model_published_at_init(self, ds, params):
        model = GPUGBDTTrainer(params).fit(ds.X, ds.y)
        registry = ModelRegistry()
        c, _ = _controller(ds, params, model=model, registry=registry)
        assert c.active_version is not None
        assert c.model is model

    def test_non_finite_pretrained_model_is_refused(self, ds, params):
        model = GPUGBDTTrainer(params).fit(ds.X, ds.y)
        model.base_score = float("inf")
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="non-finite"):
            _controller(ds, params, model=model, registry=registry)
        assert registry.versions() == []
        assert registry.names() == []

    def test_accepted_refreshes_checkpoint(self, ds, params, tmp_path):
        store = CheckpointStore(tmp_path)
        c, _ = _controller(ds, params, store=store, schedule_interval=10.0)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)  # bootstrap -> checkpoint at n_trees rounds
        assert store.rounds() == [params.n_trees]
        ck = store.latest(params)
        assert ck.model_digest == c.active_version

    def test_warm_start_refresh_is_cheaper_than_bootstrap(self, ds, params):
        """Modeled device time: a 2-tree warm-start refresh costs less than
        the n_trees bootstrap train, replay launch included."""
        c, _ = _controller(ds, params, schedule_interval=10.0)
        dense = _dense(ds)
        c.ingest(dense[:B], ds.y[:B], now=0.0)
        c.poll(now=0.0)
        bootstrap_s = c.modeled_train_seconds
        c.ingest(dense[B : 2 * B], ds.y[B : 2 * B], now=20.0)
        c.poll(now=20.0)
        refresh_s = c.modeled_train_seconds - bootstrap_s
        assert 0 < refresh_s < bootstrap_s
