"""Streaming trainer: byte-identity, cache-budget guarantees, the 10x demo.

The whole point of :class:`repro.stream.StreamingHistTrainer` is that
out-of-core execution is *invisible* in the trees: any block size, any
cache budget, RLE on or off, GOSS on or off -- the serialized model is
byte-identical to the in-memory :class:`HistogramGBDTTrainer`.  The
differential battery here pins that grid, and the demo test pins the
capacity story: a dataset declared at ~10x modeled device memory OOMs the
in-memory trainer but streams to the identical model with peak resident
host-cache bytes under the budget (and the counters prove blocks really
spilled and came back -- a run that never touched the disk tier would
vacuously pass the peak check).
"""

import random
import time
from collections import Counter

import numpy as np
import pytest

from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.params import GBDTParams
from repro.data import CSRMatrix, make_dataset
from repro.gpusim.device import TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice
from repro.gpusim.memory import DeviceOutOfMemory
from repro.obs import MetricsRegistry, use_registry
from repro.pipeline.checkpoint import model_digest
from repro.stream import StreamingHistTrainer
from repro.stream.blockstore import BlockStore
from repro.stream.prefetch import PrefetchPipeline


@pytest.fixture(scope="module")
def ds():
    return make_dataset("covtype", run_rows=300, seed=3)


@pytest.fixture(scope="module")
def params():
    return GBDTParams(n_trees=2, max_depth=3, seed=7)


@pytest.fixture(scope="module")
def reference(ds, params):
    return HistogramGBDTTrainer(params).fit(ds.X, ds.y)


class TestByteIdentity:
    @pytest.mark.parametrize(
        "block_rows,budget",
        [(32, 24 << 10), (64, 128 << 10), (150, 256 << 10), (300, 1 << 20)],
    )
    def test_identical_across_block_sizes_and_budgets(
        self, ds, params, reference, block_rows, budget
    ):
        t = StreamingHistTrainer(
            params, block_rows=block_rows, cache_budget_bytes=budget
        )
        model = t.fit(ds.X, ds.y)
        assert model.to_json() == reference.to_json()
        assert t.store_.peak_resident_bytes <= budget

    @pytest.mark.parametrize("use_rle", [True, False])
    def test_identical_with_and_without_rle(self, ds, params, reference, use_rle):
        t = StreamingHistTrainer(
            params, block_rows=100, cache_budget_bytes=1 << 18, use_rle=use_rle
        )
        assert t.fit(ds.X, ds.y).to_json() == reference.to_json()

    def test_identical_with_goss(self, ds):
        p = GBDTParams(
            n_trees=2, max_depth=3, seed=7, goss_a=0.3, goss_b=0.3
        )
        ref = HistogramGBDTTrainer(p).fit(ds.X, ds.y)
        t = StreamingHistTrainer(p, block_rows=75, cache_budget_bytes=1 << 18)
        assert t.fit(ds.X, ds.y).to_json() == ref.to_json()

    def test_identical_with_spills_forced(self, ds, params, reference):
        # tight budget: the run must go through spill + fetch, not just RAM
        reg = MetricsRegistry(max_label_sets=256)
        with use_registry(reg):
            t = StreamingHistTrainer(
                params, block_rows=32, cache_budget_bytes=24 << 10
            )
            model = t.fit(ds.X, ds.y)
        assert model.to_json() == reference.to_json()
        assert reg.get("blocks_spilled_total").value > 0
        assert reg.get("blocks_fetched_total").value > 0

    def test_warm_start_identical(self, ds, params, reference):
        base = HistogramGBDTTrainer(params).fit(ds.X, ds.y)
        ref2 = HistogramGBDTTrainer(params).fit(ds.X, ds.y, init_model=base)
        t = StreamingHistTrainer(params, block_rows=75, cache_budget_bytes=1 << 18)
        got = t.fit(ds.X, ds.y, init_model=base)
        assert got.to_json() == ref2.to_json()

    def test_digest_matches_reference(self, ds, params, reference):
        t = StreamingHistTrainer(params, block_rows=64, cache_budget_bytes=1 << 18)
        assert model_digest(t.fit(ds.X, ds.y)) == model_digest(reference)


def _spy_gets(monkeypatch):
    """Record every block :meth:`BlockStore.get` hands out."""
    got = []
    real = BlockStore.get

    def get(self, block_id, *, pin=False):
        block = real(self, block_id, pin=pin)
        got.append(block)
        return block

    monkeypatch.setattr(BlockStore, "get", get)
    return got


def _spy_pass_orders(monkeypatch):
    """Record the block order of every :class:`PrefetchPipeline` pass."""
    orders = []
    real = PrefetchPipeline.__init__

    def init(self, store, block_ids, **kwargs):
        real(self, store, block_ids, **kwargs)
        orders.append(list(self.block_ids))

    monkeypatch.setattr(PrefetchPipeline, "__init__", init)
    return orders


def _count(reg, name):
    """A counter's value, 0 when nothing ever incremented it."""
    counter = reg.get(name)
    return 0 if counter is None else counter.value


def _tight_fit(ds, params):
    """Fit the tight-budget config (8 blocks, ~4.7 of them fit the cache);
    returns ``(model digest, blocks fetched, modeled disk bytes, trainer)``."""
    reg = MetricsRegistry(max_label_sets=256)
    with use_registry(reg):
        t = StreamingHistTrainer(params, block_rows=32, cache_budget_bytes=24 << 10)
        digest = model_digest(t.fit(ds.X, ds.y))
    return digest, _count(reg, "blocks_fetched_total"), t.device.ledger.disk_bytes, t


def _without_entries(X, lo, hi):
    """``X`` with every entry of rows ``[lo, hi)`` removed (all missing)."""
    counts = np.diff(X.indptr)
    keep = np.ones(X.nnz, dtype=bool)
    keep[X.indptr[lo]:X.indptr[hi]] = False
    counts[lo:hi] = 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(indptr, X.indices[keep], X.data[keep], n_cols=X.n_cols)


class TestEntryPasses:
    """One walk of the entry stream per level: the walk that routes a
    level's rows also builds the histograms the next level scores."""

    @pytest.mark.parametrize("goss", [False, True], ids=["full", "goss"])
    def test_full_depth_trees_take_depth_plus_one_passes(self, ds, monkeypatch, goss):
        p = GBDTParams(
            n_trees=2, max_depth=3, seed=7,
            **({"goss_a": 0.3, "goss_b": 0.3} if goss else {}),
        )
        gets = _spy_gets(monkeypatch)
        t = StreamingHistTrainer(p, block_rows=75, cache_budget_bytes=1 << 18)
        model = t.fit(ds.X, ds.y)
        assert [tree.max_depth() for tree in model.trees] == [p.max_depth] * p.n_trees
        n_blocks = len(t._block_ids)
        assert n_blocks == 3
        assert len(gets) == p.n_trees * (p.max_depth + 1) * n_blocks
        assert t.store_.get_calls == len(gets)

    def test_passes_alternate_direction(self, ds, monkeypatch):
        """Pass 0 runs against setup's ascending puts; every later pass
        reverses the one before.  A fit of 3 passes ends ascending, so the
        second fit on the same trainer only starts descending again
        because setup resets the pass index."""
        p = GBDTParams(n_trees=1, max_depth=2, seed=7)
        orders = _spy_pass_orders(monkeypatch)
        t = StreamingHistTrainer(p, block_rows=75, cache_budget_bytes=1 << 18)
        t.fit(ds.X, ds.y)
        t.fit(ds.X, ds.y)
        down, up = [2, 1, 0], [0, 1, 2]
        assert orders == [down, up, down] * 2

    def test_serpentine_passes_fetch_less_than_they_get(self, ds, params):
        """A cyclic scan over more blocks than the cache holds misses on
        every get (64 fetches of 64 gets here); the serpentine order starts
        each pass on the blocks the last one left resident."""
        _, fetched, _, t = _tight_fit(ds, params)
        assert t.store_.get_calls == 64
        assert fetched == 28
        assert fetched < t.store_.get_calls

    def test_fetches_independent_of_thread_timing(self, ds, params, monkeypatch):
        """Only the prefetch worker calls ``get``, in pass order, so the
        eviction victim is always the oldest block: random stalls in the
        worker and the consumer move neither the model nor the modeled IO."""
        clean = _tight_fit(ds, params)[:3]
        rng = random.Random(5)
        real_get = BlockStore.get
        real_chunks = StreamingHistTrainer._entry_chunks

        def slow_get(self, block_id, *, pin=False):
            time.sleep(rng.uniform(0.0, 0.002))
            return real_get(self, block_id, pin=pin)

        def slow_chunks(self, *args):
            for chunk in real_chunks(self, *args):
                time.sleep(rng.uniform(0.0, 0.002))
                yield chunk

        monkeypatch.setattr(BlockStore, "get", slow_get)
        monkeypatch.setattr(StreamingHistTrainer, "_entry_chunks", slow_chunks)
        for _ in range(2):
            assert _tight_fit(ds, params)[:3] == clean

    def test_ledger_order_independent_of_thread_timing(self, ds, params, monkeypatch):
        """Each fetch's disk transfers enter the ledger when the trainer
        takes the block, so the transfers keep their order against the
        trainer's own entries whatever the worker's timing.  The disk
        traffic itself is the one the store has always recorded: 28 reads
        and 7 writes, 164,805 modeled bytes."""
        clean = _tight_fit(ds, params)[3].device
        disk = Counter(t.name for t in clean.ledger.transfers if t.channel == "disk")
        assert disk == {"fetch_block": 28, "spill_block": 7}
        assert clean.ledger.disk_bytes == 164805
        rng = random.Random(11)
        real_get = BlockStore.get

        def slow_get(self, block_id, *, pin=False):
            time.sleep(rng.uniform(0.0, 0.002))
            return real_get(self, block_id, pin=pin)

        monkeypatch.setattr(BlockStore, "get", slow_get)
        for _ in range(2):
            device = _tight_fit(ds, params)[3].device
            assert device.ledger.transfers == clean.ledger.transfers
            assert device.ledger.kernels == clean.ledger.kernels
            assert device.elapsed_seconds() == clean.elapsed_seconds()

    def test_stream_bench_reports_block_gets(self):
        from repro.bench.streambench import run_stream_bench

        payload = run_stream_bench(quick=True)
        w = payload["workload"]
        for row in payload["configs"]:
            # the quick grid's trees all reach max_depth
            assert row["blockstore_gets"] == (
                w["n_trees"] * (w["max_depth"] + 1) * row["n_blocks"]
            )

    @pytest.mark.parametrize("kind", ["depthwise", "lossguide-capped", "goss"])
    def test_inmemory_launches_per_step(self, ds, kind):
        """One accumulate launch per scored step, one route launch per
        split step, and nothing accumulated for a step that never comes
        (children at max_depth, or lossguide's cap reached)."""
        p = GBDTParams(
            n_trees=2, max_depth=6 if kind == "lossguide-capped" else 3, seed=7,
            **({"goss_a": 0.3, "goss_b": 0.3} if kind == "goss" else {}),
        )
        max_leaves = 6
        device = GpuDevice()
        if kind == "lossguide-capped":
            trainer = HistogramGBDTTrainer(
                p, device, grow_policy="lossguide", max_leaves=max_leaves
            )
        else:
            trainer = HistogramGBDTTrainer(p, device)
        trees = trainer.fit(ds.X, ds.y).trees
        if kind == "lossguide-capped":
            assert [t.n_leaves for t in trees] == [max_leaves] * p.n_trees
            # every split but the one reaching the cap has scored children
            scored = split = p.n_trees * (max_leaves - 1)
        else:
            assert [t.max_depth() for t in trees] == [p.max_depth] * p.n_trees
            scored = split = p.n_trees * p.max_depth
        kernels = device.ledger.kernels
        count = Counter(k.name for k in kernels)
        assert count["scan_histograms_for_best_split"] == scored
        assert count["accumulate_histograms"] == scored
        assert count["route_instances_by_bin"] == split
        phases = {(k.name, k.phase) for k in kernels}
        assert ("accumulate_histograms", "find_split") in phases
        assert ("accumulate_histograms", "split_node") not in phases
        assert ("route_instances_by_bin", "find_split") not in phases

    @pytest.mark.parametrize(
        "block_rows,empty_block",
        [(64, 1), (100, None), (100, -1)],
        ids=["empty-block", "short-last-block", "empty-short-last-block"],
    )
    def test_rows_without_entries_take_default_side(
        self, ds, params, monkeypatch, block_rows, empty_block
    ):
        """The fused pass routes rows by their block's row range, so rows
        whose block holds no entries at all must still be routed."""
        n = ds.X.shape[0]
        ranges = [(lo, min(lo + block_rows, n)) for lo in range(0, n, block_rows)]
        assert ranges[-1][1] - ranges[-1][0] < block_rows  # a short last block
        X = ds.X
        if empty_block is not None:
            X = _without_entries(X, *ranges[empty_block])
        ref = HistogramGBDTTrainer(params).fit(X, ds.y)
        gets = _spy_gets(monkeypatch)
        t = StreamingHistTrainer(
            params, block_rows=block_rows, cache_budget_bytes=1 << 18
        )
        assert t.fit(X, ds.y).to_json() == ref.to_json()
        assert {(b.row_lo, b.row_hi) for b in gets} == set(ranges)
        if empty_block is not None:
            assert all(
                b.n_entries == 0
                for b in gets
                if (b.row_lo, b.row_hi) == ranges[empty_block]
            )


class TestGuards:
    def test_lossguide_rejected(self):
        with pytest.raises(TypeError, match="grow_policy"):
            StreamingHistTrainer(GBDTParams(), grow_policy="lossguide")

    def test_bad_block_rows_rejected(self):
        with pytest.raises(ValueError, match="block_rows"):
            StreamingHistTrainer(GBDTParams(), block_rows=0)

    def test_undersized_budget_raises_clearly(self, ds, params):
        with pytest.raises(RuntimeError, match="pinned working set"):
            StreamingHistTrainer(
                params, block_rows=150, cache_budget_bytes=4096
            ).fit(ds.X, ds.y)

    def test_spill_dir_cleaned_up_when_temporary(self, ds, params, tmp_path):
        t = StreamingHistTrainer(params, block_rows=75, cache_budget_bytes=1 << 18)
        t.fit(ds.X, ds.y)
        # explicit spill dirs are kept for post-mortems
        t2 = StreamingHistTrainer(
            params,
            block_rows=32,
            cache_budget_bytes=24 << 10,
            spill_dir=tmp_path,
        )
        t2.fit(ds.X, ds.y)
        assert list(tmp_path.glob("block-*.blk"))


class TestBudgetEdges:
    """Cache budgets at the two ends of the legal range."""

    BLOCK_ROWS = 32

    def _block_bytes(self, ds, params):
        t = StreamingHistTrainer(
            params, block_rows=self.BLOCK_ROWS, cache_budget_bytes=1 << 20
        )
        t.fit(ds.X, ds.y)
        return t, [
            t._build_block(ds.X, bid, t.bins_, t._bin_offset).nbytes
            for bid in t._block_ids
        ]

    def _fit(self, ds, params, budget):
        reg = MetricsRegistry(max_label_sets=256)
        with use_registry(reg):
            t = StreamingHistTrainer(
                params, block_rows=self.BLOCK_ROWS, cache_budget_bytes=budget
            )
            model = t.fit(ds.X, ds.y)
        assert t.store_.peak_resident_bytes <= budget
        return model, reg

    def test_pinned_working_set_plus_one_block(self, ds, params, reference):
        """At most ``prefetch_depth`` queued blocks and the consumer's are
        pinned when the worker inserts the next one, so the largest
        ``prefetch_depth + 2`` blocks are the most the cache ever needs."""
        t, sizes = self._block_bytes(ds, params)
        budget = sum(sorted(sizes)[-(t.prefetch_depth + 2):])
        assert budget < sum(sizes)
        model, reg = self._fit(ds, params, budget)
        assert model.to_json() == reference.to_json()
        assert _count(reg, "blocks_fetched_total") > 0

    def test_budget_holding_every_block_never_fetches(self, ds, params, reference):
        _, sizes = self._block_bytes(ds, params)
        model, reg = self._fit(ds, params, sum(sizes))
        assert model.to_json() == reference.to_json()
        assert _count(reg, "blocks_fetched_total") == 0
        assert _count(reg, "blocks_spilled_total") == 0


class TestTenXDemo:
    """The capacity story of docs/outofcore.md, pinned as a test."""

    OVERSUB = 10.0

    def _scale(self, X):
        return self.OVERSUB * TITAN_X_PASCAL.global_mem_bytes / (X.nnz * 8)

    def test_inmemory_ooms_at_ten_x(self, ds, params):
        device = GpuDevice(work_scale=self._scale(ds.X))
        with pytest.raises(DeviceOutOfMemory, match="quantized_entries"):
            HistogramGBDTTrainer(params, device).fit(ds.X, ds.y)

    def test_streaming_trains_ten_x_within_budget(self, ds, params, reference):
        budget = 16 << 10
        device = GpuDevice(work_scale=self._scale(ds.X))
        reg = MetricsRegistry(max_label_sets=256)
        with use_registry(reg):
            t = StreamingHistTrainer(
                params,
                device,
                block_rows=12,
                cache_budget_bytes=budget,
            )
            model = t.fit(ds.X, ds.y)
        # identical trees (work scale only extrapolates the cost ledger)
        assert model.to_json() == reference.to_json()
        # the budget held, and not vacuously: blocks spilled and came back
        assert t.store_.peak_resident_bytes <= budget
        assert reg.get("blocks_spilled_total").value > 0
        assert reg.get("blocks_fetched_total").value > 0
        # modeled disk traffic exists and lives in the stream_io phase
        assert device.ledger.disk_bytes > 0
        from repro.stream.prefetch import modeled_overlap

        times = modeled_overlap(device)
        assert times["modeled_io_s"] > 0
        assert times["modeled_compute_s"] > 0

    def test_demo_entrypoint_quick(self):
        from repro.stream.demo import run_stream_demo

        result = run_stream_demo(quick=True)
        assert result.matches_inmem
        assert result.digest == result.inmem_digest
        assert result.peak_resident_bytes <= result.budget_bytes
        assert result.counters["blocks_spilled_total"] > 0
        assert "quantized_entries" in result.oom_message
        assert f"STREAM_DIGEST {result.digest}" in result.text
