"""Block envelope + spillable LRU store: format, faults, budget discipline.

The block store is the disk tier of out-of-core training, so its failure
modes are filesystem failure modes: torn writes, truncated files, bit rot,
a crash mid-spill.  These tests pin the ``repro-blk-v1`` envelope contract
(exact round-trip, every damage class detected), the cache-budget
arithmetic (hard ceiling, LRU victims, pins never evicted, peak tracking),
and the recovery path (torn file -> counted, deleted, re-materialized).
"""

import numpy as np
import pytest

from repro.gpusim.kernel import GpuDevice
from repro.ioutil import SimulatedCrash, atomic_write_bytes
from repro.obs import MetricsRegistry, use_registry
from repro.stream.blockstore import (
    BLOCK_MAGIC,
    BlockStore,
    ColumnBlock,
    TornBlockError,
    attrs_from_gbin,
)


def _block(block_id=0, n=50, seed=0, use_rle=True):
    rng = np.random.default_rng(seed)
    gbin = np.sort(rng.integers(0, 12, n)).astype(np.int64)
    inst = rng.integers(0, 1000, n).astype(np.int64)
    # build() requires bin-sorted entries; instance order within a bin is free
    order = np.lexsort((inst, gbin))
    return ColumnBlock.build(
        block_id, 0, n, inst[order], gbin[order], use_rle=use_rle
    )


class TestEnvelope:
    @pytest.mark.parametrize("use_rle", [True, False])
    def test_round_trip_exact(self, use_rle):
        blk = _block(3, use_rle=use_rle)
        out = ColumnBlock.from_bytes(blk.to_bytes())
        assert out.block_id == 3
        assert out.n_entries == blk.n_entries
        assert out.is_rle == use_rle
        np.testing.assert_array_equal(out.ent_inst, blk.ent_inst)
        bin_offset = np.array([0, 6, 12], dtype=np.int64)
        for a, b in zip(out.entries(bin_offset), blk.entries(bin_offset)):
            np.testing.assert_array_equal(a, b)

    def test_empty_block_round_trips(self):
        blk = ColumnBlock.build(
            0, 0, 0, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        out = ColumnBlock.from_bytes(blk.to_bytes())
        assert out.n_entries == 0

    def test_rle_smaller_on_runny_bins(self):
        gbin = np.repeat(np.arange(8, dtype=np.int64), 100)
        inst = np.arange(800, dtype=np.int64)
        dense = ColumnBlock.build(0, 0, 800, inst, gbin, use_rle=False)
        rle = ColumnBlock.build(0, 0, 800, inst, gbin, use_rle=True)
        assert rle.nbytes < dense.nbytes

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ColumnBlock.build(
                0, 0, 2,
                np.array([0, 1], dtype=np.int64),
                np.array([5, 3], dtype=np.int64),
            )

    def test_attr_recovery_is_exact(self):
        bin_offset = np.array([0, 4, 4, 9, 15], dtype=np.int64)  # empty attr 1
        gbin = np.arange(15, dtype=np.int64)
        attrs = attrs_from_gbin(gbin, bin_offset)
        want = np.repeat([0, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(attrs, want)

    @pytest.mark.parametrize("n", [0, 1, 200], ids=["empty", "one", "many"])
    @pytest.mark.parametrize("use_rle", [True, False], ids=["rle", "dense"])
    def test_entries_match_per_entry_attr_lookup(self, use_rle, n):
        bin_offset = np.array([0, 4, 4, 9, 15], dtype=np.int64)  # empty attr 1
        rng = np.random.default_rng(n)
        gbin = np.sort(rng.integers(0, 15, n)).astype(np.int64)
        inst = rng.permutation(n).astype(np.int64)
        blk = ColumnBlock.build(0, 0, n, inst, gbin, use_rle=use_rle)
        assert blk.is_rle == use_rle
        got_inst, got_gbin, got_attr = blk.entries(bin_offset)
        np.testing.assert_array_equal(got_inst, inst)
        np.testing.assert_array_equal(got_gbin, gbin)
        want = attrs_from_gbin(gbin, bin_offset)
        assert got_attr.dtype == want.dtype
        np.testing.assert_array_equal(got_attr, want)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[len(raw) // 2 :],  # header gone
            lambda raw: raw.replace(BLOCK_MAGIC.encode(), b"repro-blk-v9"),
            lambda raw: raw[:-4],  # truncated body
            lambda raw: raw + b"XY",  # trailing junk
            lambda raw: raw[: raw.find(b"\n") + 5]
            + b"\xff"
            + raw[raw.find(b"\n") + 6 :],  # flipped body byte
            lambda raw: b"not json\n" + raw,
        ],
    )
    def test_damage_detected(self, damage):
        raw = _block().to_bytes()
        with pytest.raises(TornBlockError):
            ColumnBlock.from_bytes(damage(raw))


class TestBlockStore:
    def test_put_get_hit_without_disk(self, tmp_path):
        store = BlockStore(tmp_path, 1 << 20)
        blk = _block(0)
        store.put(blk)
        assert store.get(0) is blk
        assert not store.block_path(0).exists()  # lazy spill: no IO yet

    def test_unknown_block_raises(self, tmp_path):
        store = BlockStore(tmp_path, 1 << 20)
        with pytest.raises(KeyError):
            store.get(99)

    def test_eviction_spills_then_fetch_reads_back(self, tmp_path):
        reg = MetricsRegistry(max_label_sets=64)
        blocks = [_block(i, seed=i) for i in range(4)]
        budget = blocks[0].nbytes * 2 + 8
        with use_registry(reg):
            store = BlockStore(tmp_path, budget, device=GpuDevice())
            for b in blocks:
                store.put(b)
            assert store.resident_bytes <= budget
            spilled = [b.block_id for b in blocks if store.block_path(b.block_id).exists()]
            assert spilled  # some LRU victims hit disk
            got = store.get(spilled[0])
            assert got.n_entries == blocks[spilled[0]].n_entries
        assert reg.get("blocks_spilled_total").value >= len(spilled)
        assert reg.get("blocks_fetched_total").value >= 1
        # spills and fetches are modeled disk traffic
        assert store.device.ledger.disk_bytes > 0
        assert all(
            t.phase == "stream_io"
            for t in store.device.ledger.transfers
            if t.channel == "disk"
        )

    def test_budget_is_a_hard_ceiling_with_peak_tracking(self, tmp_path):
        blocks = [_block(i, seed=i) for i in range(6)]
        budget = blocks[0].nbytes * 3 + 16
        store = BlockStore(tmp_path, budget)
        for b in blocks:
            store.put(b)
        for b in blocks:
            store.get(b.block_id)
        assert store.peak_resident_bytes <= budget
        assert store.resident_bytes <= budget

    def test_pinned_blocks_never_evicted(self, tmp_path):
        blocks = [_block(i, seed=i) for i in range(4)]
        budget = blocks[0].nbytes * 2 + 8
        store = BlockStore(tmp_path, budget)
        store.put(blocks[0])
        store.get(0, pin=True)
        for b in blocks[1:]:
            store.put(b)
        assert store.get(0) is blocks[0]  # still the same object: never left
        store.release(0)
        store.put(_block(5, seed=5))
        store.put(_block(6, seed=6))
        assert store.block_path(0).exists() or 0 in store._cache

    def test_pinned_set_overflow_raises(self, tmp_path):
        blocks = [_block(i, seed=i) for i in range(3)]
        budget = blocks[0].nbytes * 2 + 8
        store = BlockStore(tmp_path, budget)
        for b in blocks[:2]:
            store.put(b)
            store.get(b.block_id, pin=True)
        with pytest.raises(RuntimeError, match="pinned working set"):
            store.put(blocks[2])

    def test_torn_file_skipped_and_rematerialized(self, tmp_path):
        reg = MetricsRegistry(max_label_sets=64)
        blk = _block(0)
        with use_registry(reg):
            store = BlockStore(tmp_path, 1 << 20)
            store.put(blk)
            store.flush()  # forces the spill
            path = store.block_path(0)
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) - 7])  # torn tail
            store.set_materializer(lambda bid: _block(bid))
            got = store.get(0)
        assert got.n_entries == blk.n_entries
        assert reg.get("blockstore_torn_skipped_total").value == 1
        assert reg.get("blocks_rematerialized_total").value == 1
        assert not path.exists() or path.read_bytes() != raw[: len(raw) - 7]

    def test_missing_file_rematerialized(self, tmp_path):
        reg = MetricsRegistry(max_label_sets=64)
        blk = _block(0)
        with use_registry(reg):
            store = BlockStore(tmp_path, 1 << 20)
            store.put(blk)
            store.flush()
            store.block_path(0).unlink()
            store.set_materializer(lambda bid: _block(bid))
            got = store.get(0)
        assert got.n_entries == blk.n_entries
        assert reg.get("blocks_rematerialized_total").value == 1

    def test_torn_file_without_materializer_raises(self, tmp_path):
        store = BlockStore(tmp_path, 1 << 20)
        store.put(_block(0))
        store.flush()
        store.block_path(0).write_bytes(b"garbage, no newline at all")
        with pytest.raises(TornBlockError):
            store.get(0)

    def test_crash_mid_spill_leaves_no_partial_file(self, tmp_path):
        # a hard kill between write and rename must leave at most an
        # orphaned *.tmp -- the destination is either absent or complete
        blk = _block(0)
        raw = blk.to_bytes()
        path = tmp_path / "block-000000.blk"

        def kill_before_rename(step):
            if step == "synced":
                raise SimulatedCrash("kill -9 mid-spill")

        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, raw, fault_hook=kill_before_rename)
        assert not path.exists()
        # a fresh store that finds nothing simply rebuilds
        store = BlockStore(tmp_path, 1 << 20)
        store.put(blk)
        store.flush()
        assert ColumnBlock.from_bytes(path.read_bytes()).n_entries == blk.n_entries
