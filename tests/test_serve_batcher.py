"""Unit tests for the micro-batcher, registry and stats."""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, TITAN_X_PASCAL
from repro.core.booster_model import GBDTModel
from repro.serve import (
    BatchPolicy,
    MicroBatcher,
    ModelRegistry,
    PendingPrediction,
    QueueFull,
    ServingStats,
)


class FakeClock:
    """Deterministic injectable clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


@pytest.fixture
def trained(susy_small):
    ds = susy_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=6, max_depth=4)).fit(ds.X, ds.y)
    return ds, model


@pytest.fixture
def serving(trained):
    ds, model = trained
    rng = np.random.default_rng(1)
    rows = rng.normal(size=(64, ds.X.n_cols))
    return model.flatten(), rows


# ------------------------------------------------------------ flush triggers
class TestFlushing:
    def test_max_batch_flush_on_poll(self, serving):
        flat, rows = serving
        clock = FakeClock()
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8, max_wait=1.0), clock=clock)
        handles = [mb.submit(r) for r in rows[:10]]
        assert mb.queue_depth == 10
        assert mb.poll() == 8  # one full batch; 2 young requests remain queued
        assert all(h.done for h in handles[:8])
        assert not any(h.done for h in handles[8:])
        expected = flat.predict(rows[:10])
        for h, e in zip(handles[:8], expected):
            assert h.result() == pytest.approx(e, abs=1e-12)

    def test_max_wait_flushes_partial_batch(self, serving):
        flat, rows = serving
        clock = FakeClock()
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=32, max_wait=0.005), clock=clock)
        handles = [mb.submit(r) for r in rows[:3]]
        assert mb.poll() == 0  # under max_batch and under max_wait
        clock.advance(0.004)
        assert mb.poll() == 0  # still too young
        clock.advance(0.002)  # oldest now waited 6 ms > 5 ms
        assert mb.poll() == 3
        assert all(h.done for h in handles)
        # recorded latency is the queue wait under the simulated clock
        assert mb.stats.p99 == pytest.approx(0.006, abs=1e-9)

    def test_unflushed_result_raises(self, serving):
        flat, rows = serving
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8), clock=FakeClock())
        h = mb.submit(rows[0])
        with pytest.raises(RuntimeError, match="not flushed"):
            h.result()

    def test_drain_flushes_everything(self, serving):
        flat, rows = serving
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8, max_wait=10.0), clock=FakeClock())
        handles = [mb.submit(r) for r in rows[:20]]
        assert mb.drain() == 20
        assert mb.queue_depth == 0
        assert all(h.done for h in handles)
        assert mb.stats.n_batches == 3  # 8 + 8 + 4
        assert mb.stats.mean_batch_size == pytest.approx(20 / 3)


# ----------------------------------------------------------- submit boundary
class TestSubmitBoundary:
    def test_narrow_row_is_refused_and_batch_survives(self, serving):
        """A row the model cannot predict is refused at submit, so the good
        rows it would have flushed with still resolve."""
        flat, rows = serving
        assert flat.n_features > 2
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8, max_wait=1.0),
                          clock=FakeClock())
        good = [mb.submit(r) for r in rows[:3]]
        with pytest.raises(ValueError, match="input has 2 features"):
            mb.submit(rows[3, :2])
        assert mb.queue_depth == 3
        assert mb.drain() == 3
        expected = flat.predict(rows[:3])
        for h, e in zip(good, expected):
            assert h.result() == e
        assert mb.stats.n_requests == 3

    def test_wider_rows_serve(self, serving):
        flat, rows = serving
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8, max_wait=1.0),
                          clock=FakeClock())
        width = flat.n_features
        wide = np.hstack([rows[:2, :width], np.full((2, 5), 7.0)])
        handles = [mb.submit(rows[0, :width]), mb.submit(wide[0]), mb.submit(wide[1])]
        assert mb.drain() == 3
        expected = flat.predict(rows[:2, :width])
        assert [h.result() for h in handles] == [expected[0], expected[0], expected[1]]


# ------------------------------------------------------------- backpressure
class TestOverload:
    def test_reject_policy_raises_and_counts(self, serving):
        flat, rows = serving
        policy = BatchPolicy(max_batch=64, max_wait=1.0, max_queue=4, overload="reject")
        mb = MicroBatcher(flat, policy=policy, clock=FakeClock())
        for r in rows[:4]:
            mb.submit(r)
        with pytest.raises(QueueFull):
            mb.submit(rows[4])
        with pytest.raises(QueueFull):
            mb.submit(rows[5])
        assert mb.stats.rejected == 2
        assert mb.queue_depth == 4  # queued requests unharmed
        mb.drain()
        assert mb.stats.n_requests == 4

    def test_degrade_policy_serves_overflow_per_row(self, serving):
        flat, rows = serving
        policy = BatchPolicy(max_batch=64, max_wait=1.0, max_queue=4, overload="degrade")
        mb = MicroBatcher(flat, policy=policy, clock=FakeClock())
        queued = [mb.submit(r) for r in rows[:4]]
        shed = mb.submit(rows[4])
        assert shed.done and shed.degraded
        assert shed.result() == pytest.approx(flat.predict(rows[4:5])[0], abs=1e-9)
        assert mb.stats.shed == 1 and mb.stats.rejected == 0
        assert not queued[0].done  # queue untouched by the degraded request
        mb.drain()
        expected = flat.predict(rows[:4])
        for h, e in zip(queued, expected):
            assert h.result() == pytest.approx(e, abs=1e-12)


# ----------------------------------------------------------- registry + swap
class TestRegistryServing:
    def _two_models(self, susy_small):
        ds = susy_small
        a = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
        b = GPUGBDTTrainer(GBDTParams(n_trees=9, max_depth=4)).fit(ds.X, ds.y)
        return ds, a, b

    def test_hot_swap_mid_stream_is_batch_consistent(self, susy_small):
        ds, model_a, model_b = self._two_models(susy_small)
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(8, ds.X.n_cols))
        registry = ModelRegistry()
        va = registry.publish(model_a)
        mb = MicroBatcher(registry, policy=BatchPolicy(max_batch=64, max_wait=1.0),
                          clock=FakeClock())
        first = [mb.submit(r) for r in rows[:4]]
        mb.drain()
        vb = registry.publish(model_b)  # hot swap between batches
        second = [mb.submit(r) for r in rows[4:]]
        mb.drain()
        assert {h.version for h in first} == {va}
        assert {h.version for h in second} == {vb}
        exp_a = model_a.flatten().predict(rows[:4])
        exp_b = model_b.flatten().predict(rows[4:])
        for h, e in zip(first, exp_a):
            assert h.result() == pytest.approx(e, abs=1e-9)
        for h, e in zip(second, exp_b):
            assert h.result() == pytest.approx(e, abs=1e-9)

    def test_swap_to_wider_model_serves_queued_rows(self, susy_small):
        """Rows are queued as submitted, so full rows queued under a model
        that tests one column serve under a swapped-in wider model."""
        from repro.core.tree import DecisionTree

        ds, _, model_b = self._two_models(susy_small)
        stump = DecisionTree()
        lid, rid = stump.split_node(
            stump.add_root(n_instances=1), attr=0, threshold=0.0,
            default_left=True, gain=1.0,
        )
        stump.set_leaf(lid, 1.0)
        stump.set_leaf(rid, -1.0)
        registry = ModelRegistry()
        registry.publish(GBDTModel(trees=[stump], params=GBDTParams(), base_score=0.0))
        assert registry.active().flat.n_features == 1
        rows = np.random.default_rng(4).normal(size=(4, ds.X.n_cols))
        mb = MicroBatcher(registry, policy=BatchPolicy(max_batch=64, max_wait=1.0),
                          clock=FakeClock())
        handles = [mb.submit(r) for r in rows]
        vb = registry.publish(model_b)
        assert mb.drain() == 4
        assert {h.version for h in handles} == {vb}
        expected = model_b.flatten().predict(rows)
        assert [h.result() for h in handles] == list(expected)

    def test_swap_to_model_wider_than_queued_rows_fails_their_batch(self):
        """Rows queued under a model trained on 5 covtype columns cannot
        serve under a swapped-in model of all 54: their handles resolve with the
        ``ValueError``, each request counts as rejected, and a later batch
        of full rows still serves."""
        from repro import as_csr
        from repro.data.datasets import make_dataset

        ds = make_dataset("covtype", run_rows=250, seed=11)
        dense = ds.X.to_dense(fill=np.nan).values
        params = GBDTParams(n_trees=2, max_depth=3)
        narrow = GPUGBDTTrainer(params).fit(as_csr(dense[:, :5]), ds.y)
        wide = GPUGBDTTrainer(params).fit(ds.X, ds.y)
        registry = ModelRegistry()
        registry.publish(narrow)
        mb = MicroBatcher(registry, policy=BatchPolicy(max_batch=64, max_wait=1.0),
                          clock=FakeClock())
        stranded = [mb.submit(row[:5]) for row in dense[:3]]
        vw = registry.publish(wide)
        width = registry.active().flat.n_features
        assert width > 5
        assert mb.drain() == 0
        assert mb.queue_depth == 0
        assert mb.stats.rejected == 3
        for h in stranded:
            assert h.done and h.version == vw
            with pytest.raises(ValueError, match=f"ensemble tests up to {width}"):
                h.result()
        later = [mb.submit(row) for row in dense[3:5]]
        assert mb.drain() == 2
        expected = wide.flatten().predict(dense[3:5])
        assert [h.result() for h in later] == list(expected)

    def test_rollback_restores_previous_version(self, susy_small):
        ds, model_a, model_b = self._two_models(susy_small)
        registry = ModelRegistry()
        va = registry.publish(model_a)
        vb = registry.publish(model_b)
        assert registry.active().version == vb
        assert registry.rollback() == va
        assert registry.active().version == va
        assert registry.versions() == [va, vb]

    def test_registry_errors(self, susy_small):
        ds, model_a, _ = self._two_models(susy_small)
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.active()
        registry.publish(model_a)
        with pytest.raises(KeyError):
            registry.activate("default", "nope")
        with pytest.raises(KeyError):
            registry.rollback()  # only one version active so far

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["leaf", "base_score", "threshold"])
    def test_publish_refuses_non_finite_model(self, susy_small, where, bad):
        ds, model_a, model_b = self._two_models(susy_small)
        poisoned = GBDTModel.from_json(model_b.to_json(), params=model_b.params)
        tree = poisoned.trees[-1]
        if where == "leaf":
            tree.value[next(i for i in range(tree.n_nodes) if tree.is_leaf(i))] = bad
        elif where == "threshold":
            # x > NaN and x > +inf never hold: no present value goes left
            tree.threshold[next(i for i in range(tree.n_nodes) if not tree.is_leaf(i))] = bad
        else:
            poisoned.base_score = bad
        registry = ModelRegistry()
        va = registry.publish(model_a)
        with pytest.raises(ValueError, match="non-finite"):
            registry.publish(poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            registry.publish(poisoned, "fresh")
        assert registry.versions() == [va]
        assert registry.active().version == va
        assert registry.names() == ["default"]

    def test_publish_accepts_minus_inf_threshold(self, susy_small):
        """``-inf`` is the exact boundary cut below the smallest value:
        every present value goes left, so the model is servable."""
        ds, _, model_b = self._two_models(susy_small)
        edge = GBDTModel.from_json(model_b.to_json(), params=model_b.params)
        tree = edge.trees[-1]
        tree.threshold[next(i for i in range(tree.n_nodes) if not tree.is_leaf(i))] = -np.inf
        registry = ModelRegistry()
        version = registry.publish(edge)
        assert registry.active().version == version
        served = registry.active().flat.predict(ds.X_test)
        assert np.allclose(served, edge.predict(ds.X_test), atol=1e-9)

    def test_round_trip_preserves_predictions(self, susy_small):
        ds, model_a, _ = self._two_models(susy_small)
        registry = ModelRegistry()
        registry.publish(model_a)
        served = registry.active().flat.predict(ds.X_test)
        assert np.allclose(served, model_a.predict(ds.X_test), atol=1e-9)
        restored = registry.active().restore()
        assert np.allclose(restored.predict(ds.X_test), served, atol=1e-9)


# ------------------------------------------------------------ device charge
class TestDeviceCharging:
    def test_flush_charges_prediction_kernels(self, serving):
        flat, rows = serving
        device = GpuDevice(TITAN_X_PASCAL)
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=16, max_wait=1.0),
                          device=device, clock=FakeClock())
        for r in rows[:16]:
            mb.submit(r)
        mb.poll()
        k = next(k for k in device.ledger.kernels if k.name == "predict_instance_x_tree")
        assert k.work.elements == 16 * flat.n_trees
        assert k.phase == "predict"
        assert device.elapsed_seconds() > 0.0

    def test_per_batch_charges_accumulate(self, serving):
        flat, rows = serving
        device = GpuDevice(TITAN_X_PASCAL)
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=8, max_wait=1.0),
                          device=device, clock=FakeClock())
        for r in rows[:24]:
            mb.submit(r)
        mb.drain()
        launches = [k for k in device.ledger.kernels if k.name == "predict_instance_x_tree"]
        assert len(launches) == 3


# -------------------------------------------------------------------- stats
class TestStats:
    def test_percentiles_match_numpy(self):
        stats = ServingStats()
        lats = [0.001 * i for i in range(1, 101)]
        for lat in lats:
            stats.record_request(lat)
        assert stats.p50 == pytest.approx(np.percentile(lats, 50))
        assert stats.p95 == pytest.approx(np.percentile(lats, 95))
        assert stats.p99 == pytest.approx(np.percentile(lats, 99))

    def test_empty_stats_are_zero(self):
        stats = ServingStats()
        assert stats.p50 == 0.0 and stats.throughput() == 0.0

    def test_cache_plumbing_removed_from_stats(self):
        # the serving path keeps no prediction cache, so stats count none
        stats = ServingStats()
        assert not hasattr(stats, "record_lookup")
        assert not hasattr(stats, "cache_hits")
        assert not hasattr(stats, "cache_hit_rate")
        assert "cache_hits" not in stats.summary()

    def test_throughput_window(self):
        stats = ServingStats()
        stats.note_time(10.0)
        for _ in range(50):
            stats.record_request(0.0)
        stats.note_time(15.0)
        assert stats.throughput() == pytest.approx(10.0)
        assert stats.throughput(duration=25.0) == pytest.approx(2.0)

    def test_summary_is_json_safe(self, serving):
        import json

        flat, rows = serving
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=4), clock=FakeClock())
        for r in rows[:6]:
            mb.submit(r)
        mb.drain()
        summary = mb.stats.summary(duration=1.0)
        parsed = json.loads(json.dumps(summary))
        assert parsed["n_requests"] == 6
        assert parsed["n_batches"] == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(overload="panic")
        with pytest.raises(ValueError):
            BatchPolicy(max_wait=-1.0)

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError):
            MicroBatcher(object())

    def test_pending_prediction_repr_free_slots(self):
        p = PendingPrediction()
        assert not p.done and p.value is None

    def test_double_resolve_raises(self):
        p = PendingPrediction()
        p._resolve(1.0, None, 0.0)
        with pytest.raises(RuntimeError, match="twice"):
            p._resolve(2.0, None, 0.0)


# ---------------------------------------------------- batch scheduling core
class TestBatchCore:
    def test_late_arrival_does_not_extend_deadline(self, serving):
        """Regression (first-request-anchored deadline): a request arriving
        just before the max-wait expiry must not push the flush out -- the
        window is anchored to the *oldest* queued request, so the head is
        never starved by a steady trickle of arrivals."""
        flat, rows = serving
        clock = FakeClock()
        mb = MicroBatcher(
            flat, policy=BatchPolicy(max_batch=32, max_wait=0.005), clock=clock
        )
        first = mb.submit(rows[0])  # head enqueued at t=0; deadline t=5ms
        clock.advance(0.0049)
        late = mb.submit(rows[1])  # 0.1ms before the deadline
        assert mb.poll() == 0  # not due yet
        clock.advance(0.0002)  # t=5.1ms: head has waited 5.1ms >= 5ms
        assert mb.poll() == 2, "late arrival extended the head's wait window"
        assert first.done and late.done
        # and that one flush took both, leaving nothing queued
        assert len(mb.queue) == 0

    def test_full_batch_is_due_at_fill_instant(self, serving):
        flat, rows = serving
        mb = MicroBatcher(
            flat, policy=BatchPolicy(max_batch=3, max_wait=10.0, max_queue=16),
            clock=FakeClock(),
        )
        handles = [mb.submit(rows[i], now=t) for i, t in enumerate((1.0, 2.0, 3.5))]
        mb.submit(rows[3], now=4.0)
        # due the moment the 3rd item arrived, not when the 4th did
        batch = mb.take_ready(3.5)
        assert [h for _, _, h in batch] == handles
        assert [t for _, t, _ in batch] == [1.0, 2.0, 3.5]
        assert mb.queue_depth == 1

    def test_push_refuses_beyond_max_queue(self, serving):
        flat, rows = serving
        mb = MicroBatcher(
            flat, policy=BatchPolicy(max_batch=8, max_wait=1.0, max_queue=2),
            clock=FakeClock(),
        )
        queued = [mb.submit(r, now=0.0) for r in rows[:2]]
        over = mb.submit(rows[2], now=0.0)
        assert over.degraded and not any(h.degraded for h in queued)
        assert mb.queue_depth == 2

    def test_concurrent_submitters_lose_and_duplicate_nothing(self, serving):
        """Producers submit on their own threads while one consumer polls:
        every request resolves exactly once (a second resolve raises) and
        the queue never holds more than ``max_queue``."""
        import sys
        import threading

        flat, rows = serving
        policy = BatchPolicy(max_batch=16, max_wait=0.0, max_queue=32)
        mb = MicroBatcher(flat, policy=policy, clock=lambda: 0.0)
        n_threads, per_thread = 6, 300
        handles = [[] for _ in range(n_threads)]
        depths = []

        def produce(k):
            for i in range(per_thread):
                handles[k].append(mb.submit(rows[(k + i) % len(rows)]))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=produce, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                depths.append(mb.queue_depth)
                mb.poll()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            mb.drain()
        finally:
            sys.setswitchinterval(old)
        flat_handles = [h for hs in handles for h in hs]
        assert len(flat_handles) == n_threads * per_thread
        assert all(h.done for h in flat_handles)
        assert mb.stats.n_requests == n_threads * per_thread
        assert max(depths) <= policy.max_queue
        expected = flat.predict(rows)
        for k, hs in enumerate(handles):
            for i, h in enumerate(hs):
                assert h.result() == pytest.approx(expected[(k + i) % len(rows)], abs=1e-9)

    def test_take_ready_complete_split_controls_latency(self, serving):
        """A driver that models service time completes a batch at take +
        service time; the recorded latency must include both queue wait
        and service."""
        flat, rows = serving
        mb = MicroBatcher(
            flat, policy=BatchPolicy(max_batch=2, max_wait=1.0), clock=FakeClock()
        )
        h1 = mb.submit(rows[0], now=0.0)
        h2 = mb.submit(rows[1], now=0.001)
        batch = mb.take_ready(0.001)  # full batch due at second arrival
        assert batch is not None and len(batch) == 2
        assert mb.take_ready(0.001) is None
        mb.complete(batch, now=0.004)  # 3ms of modeled service
        assert h1.t_done == h2.t_done == 0.004
        # recorded latencies span queue wait + service: 4ms and 3ms
        assert mb.stats.percentile(100) == pytest.approx(0.004, abs=1e-9)
        assert mb.stats.percentile(0) == pytest.approx(0.003, abs=1e-9)
        expected = flat.predict(rows[:2])
        assert h1.result() == pytest.approx(expected[0], abs=1e-12)
        assert h2.result() == pytest.approx(expected[1], abs=1e-12)
