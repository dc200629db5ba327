"""Unit tests for the micro-batcher, prediction cache, registry and stats."""

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


# -------------------------------------------------------------------- cache
class TestCache:
    def test_hit_and_miss_accounting(self, serving):
        flat, rows = serving
        policy = BatchPolicy(max_batch=4, max_wait=1.0, cache_size=16)
        mb = MicroBatcher(flat, policy=policy, clock=FakeClock())
        for r in rows[:4]:
            mb.submit(r)
        mb.poll()
        hit = mb.submit(rows[0])
        assert hit.done and hit.cache_hit
        assert hit.result() == pytest.approx(flat.predict(rows[:1])[0], abs=1e-12)
        assert mb.cache.hits == 1
        assert mb.cache.misses == 4
        miss = mb.submit(rows[10])
        assert not miss.done
        assert mb.cache.misses == 5
        assert mb.cache.hit_rate == pytest.approx(1 / 6)

    def test_lru_eviction(self, serving):
        flat, rows = serving
        policy = BatchPolicy(max_batch=4, max_wait=1.0, cache_size=4)
        mb = MicroBatcher(flat, policy=policy, clock=FakeClock())
        for r in rows[:8]:
            mb.submit(r)
        mb.drain()
        assert not mb.submit(rows[0]).done      # evicted (first batch)
        assert mb.submit(rows[7]).cache_hit     # still resident (last batch)

    def test_cache_disabled_by_default(self, serving):
        flat, rows = serving
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=2), clock=FakeClock())
        mb.submit(rows[0])
        mb.submit(rows[0])
        mb.poll()
        assert mb.cache.hits == 0 and mb.cache.misses == 0

    def test_shared_obs_counters_carry_replica_label(self, serving):
        from repro.obs import MetricsRegistry, use_registry

        flat, rows = serving
        with use_registry(MetricsRegistry()) as reg:
            policy = BatchPolicy(max_batch=4, max_wait=1.0, cache_size=2)
            mb = MicroBatcher(flat, policy=policy, clock=FakeClock())
            for r in rows[:4]:
                mb.submit(r)
            mb.drain()
            mb.submit(rows[3])  # hit
            samples = {
                (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
                for s in reg.collect()
            }
        assert samples[("serve_cache_hits_total", ())] == 1
        assert samples[("serve_cache_misses_total", ())] == 4
        assert samples[("serve_cache_evictions_total", ())] == 2


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

    def test_swap_invalidates_prediction_cache(self, susy_small):
        ds, model_a, model_b = self._two_models(susy_small)
        row = np.zeros(ds.X.n_cols)
        registry = ModelRegistry()
        registry.publish(model_a)
        mb = MicroBatcher(registry, policy=BatchPolicy(max_batch=1, cache_size=8),
                          clock=FakeClock())
        mb.submit(row)
        mb.drain()
        assert mb.submit(row).cache_hit
        registry.publish(model_b)
        after = mb.submit(row)
        assert not after.cache_hit  # stale cache dropped with the old version
        mb.drain()
        assert after.result() == pytest.approx(
            model_b.flatten().predict(row[None, :])[0], abs=1e-9
        )

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
    @pytest.mark.parametrize("where", ["leaf", "base_score"])
    def test_publish_refuses_non_finite_model(self, susy_small, where, bad):
        ds, model_a, model_b = self._two_models(susy_small)
        poisoned = GBDTModel.from_json(model_b.to_json(), params=model_b.params)
        if where == "leaf":
            tree = poisoned.trees[-1]
            tree.value[next(i for i in range(tree.n_nodes) if tree.is_leaf(i))] = bad
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
        # satellite: cache accounting moved to FeatureCache + obs labels;
        # the old single-process plumbing must stay dead
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
        mb = MicroBatcher(flat, policy=BatchPolicy(max_batch=4, cache_size=4),
                          clock=FakeClock())
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


# --------------------------------------------------- transport-agnostic core
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

    def test_ready_at_full_batch_is_fill_instant(self):
        from repro.serve import BatchQueue

        q = BatchQueue(max_batch=3, max_wait=10.0, max_queue=16)
        for i, t in enumerate((1.0, 2.0, 3.5)):
            q.push(i, t)
        q.push(3, 4.0)
        # due the moment the 3rd item arrived, not when the 4th did
        batch = q.take_ready(3.5)
        assert [item for item, _ in batch] == [0, 1, 2]
        assert len(q) == 1

    def test_push_refuses_beyond_max_queue(self):
        from repro.serve import BatchQueue

        q = BatchQueue(max_batch=8, max_wait=1.0, max_queue=2)
        assert q.push("a", 0.0) and q.push("b", 0.0)
        assert not q.push("c", 0.0)
        assert len(q) == 2

    def test_take_ready_complete_split_controls_latency(self, serving):
        """The cluster transport completes batches at take + service time;
        the recorded latency must include both queue wait and service."""
        flat, rows = serving
        mb = MicroBatcher(
            flat, policy=BatchPolicy(max_batch=2, max_wait=1.0), clock=FakeClock()
        )
        h1 = mb.submit(rows[0], now=0.0)
        h2 = mb.submit(rows[1], now=0.001)
        batch = mb.take_ready(0.001)  # full batch due at second arrival
        assert batch is not None and len(batch) == 2
        assert mb.take_ready(0.001) is None
        mb.complete(batch, now=0.004)  # transport adds 3ms service
        assert h1.t_done == h2.t_done == 0.004
        # recorded latencies span queue wait + service: 4ms and 3ms
        assert mb.stats.percentile(100) == pytest.approx(0.004, abs=1e-9)
        assert mb.stats.percentile(0) == pytest.approx(0.003, abs=1e-9)
        expected = flat.predict(rows[:2])
        assert h1.result() == pytest.approx(expected[0], abs=1e-12)
        assert h2.result() == pytest.approx(expected[1], abs=1e-12)
