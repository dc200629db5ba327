"""Streaming histogram trainer: out-of-core, byte-identical by construction.

:class:`StreamingHistTrainer` subclasses the in-memory
:class:`~repro.approx.histogram_trainer.HistogramGBDTTrainer` and overrides
only its entry-source hooks, so the one histogram grow loop -- split
scanning, GOSS, sibling subtraction, leaf finalization -- is the *same
code*:

``_setup_entries``
    instead of materializing the full quantized entry stream on the device,
    rows are cut into ``block_rows``-sized chunks.  Pass 1 sketches each
    chunk's columns in one call (:func:`~repro.approx.quantile.sketch_columns`)
    and merges all the chunks' sketches at once into the global quantile
    cuts -- bit-equal to the monolithic
    :func:`~repro.approx.quantile.build_bins` by the sketch contract.  Pass
    2 quantizes each chunk against those cuts, sorts its entries by global
    bin (entry order within a block is free -- see below), and registers
    them as spillable RLE blocks in a
    :class:`~repro.stream.blockstore.BlockStore` under the cache budget.
``_entry_chunks``
    the shared entry pass (``_route_and_accumulate``) walks the blocks
    through the :class:`~repro.stream.prefetch.PrefetchPipeline` instead of
    one in-memory entry array, each block with its row range.  A block
    holds every entry of its rows, so one walk routes the rows of the
    leaves that just split and adds their entries to the histograms the
    next level scores.  Fixed-point int64 scatter-adds are associative and
    commutative, and each instance owns at most one entry per attribute,
    so any blocking (and any within-block order) produces the identical
    tables and routing.

Everything downstream of identical tables and identical routing is shared
code, so the serialized model is **byte-identical** to in-memory training
for any ``block_rows``, any ``cache_budget_bytes``, RLE on or off, and GOSS
on or off -- the differential tests fit the whole grid and compare model
digests.  What *does* change is the cost ledger: one full-scale chunk of
device memory instead of the whole entry stream (the OOM wall moves), plus
modeled disk traffic in the ``stream_io`` phase.

The stream trainer grows depthwise; a tree of depth D takes D + 1 passes
over the blocks: a route-free one that builds the root's histograms, then
one per split level that routes the level's rows and, unless the
children sit at ``max_depth``, builds their histograms in the same walk.
It takes no ``grow_policy``.

The passes walk the blocks serpentine: setup puts them ascending, so
pass 0 runs descending and every later pass reverses the one before.  With
a cache smaller than the blocks, a fixed order would miss on every fetch
(a cyclic scan is LRU's worst case); the reversed pass starts on the
blocks the last one left resident, so each pass fetches only the blocks
that did not fit.  Setup resets the pass index, so every ``fit`` walks the
same orders and records the same ledger.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..approx.quantile import (
    BinSpec,
    bin_column_values,
    build_bins_from_sketches,
    merge_sketches,
    sketch_columns,
)
from ..core.booster_model import GBDTModel
from ..core.params import GBDTParams
from ..data.matrix import CSRMatrix
from ..data.sorted_columns import SortedColumns, build_sorted_columns
from ..gpusim.kernel import GpuDevice
from .blockstore import BlockStore, ColumnBlock
from .prefetch import PrefetchPipeline

__all__ = ["StreamingHistTrainer"]


class StreamingHistTrainer(HistogramGBDTTrainer):
    """Out-of-core histogram GBDT over a spillable block store.

    Parameters beyond the in-memory trainer's:

    block_rows:
        Rows per column block.  Smaller blocks mean a smaller device
        chunk buffer and finer spill granularity, at more per-block
        launch/IO overhead.
    cache_budget_bytes:
        Hard host-memory ceiling for resident blocks.  Must cover the
        pinned prefetch working set (roughly ``(prefetch_depth + 2)``
        blocks); the store raises a clear error otherwise.
    spill_dir:
        Block file directory.  ``None`` uses a per-fit temporary directory
        removed afterwards.
    prefetch_depth:
        Read-ahead queue depth of the prefetch pipeline.
    use_rle:
        RLE-compress the block bin arrays (identity is unaffected).

    Growth is depthwise: there is no ``grow_policy`` or ``max_leaves``.
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        device: GpuDevice | None = None,
        *,
        block_rows: int = 2048,
        cache_budget_bytes: int = 8 << 20,
        spill_dir: Path | str | None = None,
        prefetch_depth: int = 2,
        use_rle: bool = True,
        max_bins: int = 64,
        row_scale: float = 1.0,
        use_subtraction: bool | None = None,
    ) -> None:
        if block_rows < 1:
            raise ValueError("block_rows must be >= 1")
        super().__init__(
            params,
            device,
            max_bins=max_bins,
            row_scale=row_scale,
            use_subtraction=use_subtraction,
        )
        self.block_rows = int(block_rows)
        self.cache_budget_bytes = int(cache_budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.prefetch_depth = int(prefetch_depth)
        self.use_rle = bool(use_rle)
        self.store_: BlockStore | None = None
        self._chunks: list[tuple[int, int]] = []
        self._block_ids: list[int] = []
        self._passes = 0
        self._bin_offset: np.ndarray | None = None

    # ------------------------------------------------------------------- fit
    def fit(
        self, X: CSRMatrix, y: np.ndarray, *, init_model: GBDTModel | None = None
    ) -> GBDTModel:
        """In-memory ``fit`` over a fresh block store; cleans up spills."""
        tmp = None
        if self.spill_dir is None:
            tmp = tempfile.mkdtemp(prefix="repro-stream-")
            directory: Path | str = tmp
        else:
            directory = self.spill_dir
        self.store_ = BlockStore(
            directory, self.cache_budget_bytes, device=self.device
        )
        try:
            return super().fit(X, y, init_model=init_model)
        finally:
            self.store_.close()
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)

    # ------------------------------------------------------- entry-source hooks
    def _chunk_columns(self, X: CSRMatrix, lo: int, hi: int) -> SortedColumns:
        """Sorted columns of rows ``[lo, hi)`` (local instance ids)."""
        sub = X.select_rows(np.arange(lo, hi, dtype=np.int64))
        return build_sorted_columns(sub.to_csc(), self.device)

    def _build_block(
        self, X: CSRMatrix, block_id: int, spec: BinSpec, bin_offset: np.ndarray
    ) -> ColumnBlock:
        """Quantize one row chunk into a bin-sorted block (also the
        re-materializer for torn or missing block files)."""
        lo, hi = self._chunks[block_id]
        d = X.shape[1]
        cols = self._chunk_columns(X, lo, hi)
        ent_bin = bin_column_values(spec, cols)
        ent_attr = np.repeat(
            np.arange(d, dtype=np.int64), np.diff(cols.col_offsets)
        )
        ent_gbin = bin_offset[ent_attr] + ent_bin
        ent_inst = cols.inst + lo  # lift to global instance ids
        self.device.launch(
            "quantize_to_bins",
            elements=cols.nnz,
            flops_per_element=np.log2(max(self.max_bins, 2)),
            coalesced_bytes=cols.nnz * (8 + 4),
        )
        # within-block entry order is free (int64 scatter-adds commute and
        # routing writes are disjoint); sort by bin so the bin array RLEs
        # into at most total_bins runs, then by instance for determinism
        order = np.lexsort((ent_inst, ent_gbin))
        return ColumnBlock.build(
            block_id, lo, hi, ent_inst[order], ent_gbin[order],
            use_rle=self.use_rle,
        )

    def _setup_entries(self, X: CSRMatrix):
        device = self.device
        n = X.shape[0]
        self._chunks = [
            (lo, min(lo + self.block_rows, n))
            for lo in range(0, n, self.block_rows)
        ]
        self._block_ids = list(range(len(self._chunks)))
        self._passes = 0

        # pass 1: per-chunk mergeable sketches -> the global quantile cuts
        # (exactly build_bins() of the unchunked columns, by the sketch
        # merge contract of repro.approx.quantile)
        sketches = []
        max_chunk_nnz = 0
        for lo, hi in self._chunks:
            cols = self._chunk_columns(X, lo, hi)
            sketches.append(sketch_columns(cols))
            max_chunk_nnz = max(max_chunk_nnz, cols.nnz)
        spec = build_bins_from_sketches(merge_sketches(sketches), self.max_bins)
        bin_offset = spec.bin_offset
        total_bins = int(bin_offset[-1])
        self._bin_offset = bin_offset

        # pass 2: quantize chunk by chunk into spillable blocks
        store = self.store_
        assert store is not None, "fit() owns the block store lifecycle"
        for bid in self._block_ids:
            store.put(self._build_block(X, bid, spec, bin_offset))
        store.set_materializer(
            lambda bid: self._build_block(X, bid, spec, bin_offset)
        )

        # device footprint: ONE full-scale chunk resident at a time -- the
        # whole point; the in-memory trainer's nnz_full * 8 entry buffer is
        # what cannot exist out-of-core
        mem = device.memory
        n_full = n * self.row_scale
        mem.alloc("stream_chunk_entries", max_chunk_nnz * device.work_scale * 8)
        mem.alloc("gradients_gh", n_full * 8)
        mem.alloc("predictions", n_full * 4)
        mem.alloc("instance_to_node", n_full * 4)
        mem.alloc(
            "level_histograms",
            total_bins * device.seg_scale * 4 * 16,
        )
        return spec, None, None, None, bin_offset

    def _blocks(self) -> PrefetchPipeline:
        """The next pass over the store, reversing the previous pass's
        order (see the module docstring)."""
        assert self.store_ is not None
        ids = self._block_ids if self._passes % 2 else self._block_ids[::-1]
        self._passes += 1
        return PrefetchPipeline(self.store_, ids, depth=self.prefetch_depth)

    def _entry_chunks(self, ent_inst, ent_gbin, ent_attr, n):
        bin_offset = self._bin_offset
        for block in self._blocks():
            entries = block.entries(bin_offset)
            self.device.transfer("upload_block_entries", block.nbytes)
            yield (*entries, block.row_lo, block.row_hi)
