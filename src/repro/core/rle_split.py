"""Splitting nodes under RLE compression (Section III-C, Figs. 6 and 7).

When a node splits, each of its RLE runs potentially splits into two runs
(the part whose instances go left, the part going right).  The paper gives
two strategies:

* **Splitting RLE with decompression** (Fig. 6): decompress the runs,
  order-preservingly partition the raw values, recompress.  Correct but
  repeats (de)compression work at every level of every tree.
* **Directly splitting RLE elements** (Fig. 7): pre-allocate two output
  runs per input run, compute each new run's length from the
  instance-to-node mapping, and remove zero-length runs with a prefix-sum
  stream compaction.  The value array is never expanded.

Both produce identical run arrays (a property test asserts it); the Fig. 9
"Directly Split RLE" ablation measures the cost difference.

The *instance-id* array is not compressible and is partitioned by the
shared order-preserving scatter regardless of strategy, so these functions
handle only the run (value, length) arrays.
"""

from __future__ import annotations

import numpy as np

from ..data.rle import RunLengthColumns, encode_segments
from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import (
    check_offsets,
    segmented_inclusive_cumsum,
    segmented_sum,
    stream_compact,
)
from ..obs import traced
from .partition import check_segment_maps
from .workspace import WorkspaceArena

__all__ = ["split_runs_direct", "split_runs_with_decompression"]


@traced("rle_split_direct")
def split_runs_direct(
    device: GpuDevice,
    rle: RunLengthColumns,
    side: np.ndarray,
    left_seg: np.ndarray,
    right_seg: np.ndarray,
    n_new_segments: int,
    *,
    workspace: WorkspaceArena | None = None,
    parity: int = 0,
) -> RunLengthColumns:
    """Directly split every run (Fig. 7).

    Parameters
    ----------
    rle:
        Current compressed values, segmented over ``S`` old segments.
    side:
        Per-*element* destination: 0 left, 1 right, -1 dropped.
    left_seg, right_seg:
        Old segment -> new segment maps (``-1`` = that side is dropped).
    n_new_segments:
        New segmentation size.
    workspace:
        Arena backing the element-linear temporaries and the returned run
        arrays (a fresh arena when omitted).
    parity:
        Selects which of two output buffer generations to write (the caller
        alternates per level: the input ``rle`` still views the previous
        generation while this call fills the next one).
    """
    n = int(rle.n_elements)
    side = np.asarray(side, dtype=np.int8)
    if side.size != n:
        raise ValueError("side must have one entry per element")
    left_seg, right_seg = check_segment_maps(
        left_seg, right_seg, rle.run_offsets.size - 1, n_new_segments
    )
    ws = workspace if workspace is not None else WorkspaceArena()

    nr = rle.n_runs
    # new run lengths from the instance-to-node mapping (one pass over the
    # elements; this is the only element-linear work of the direct strategy)
    elem_off = ws.buf("rled/eoff", nr + 1, np.int64)
    elem_off[0] = 0
    np.cumsum(rle.run_lengths, out=elem_off[1:])
    acc = ws.buf("rled/acc", n, np.int64)
    scan = ws.buf("rled/scan", n + 1, np.int64)
    np.equal(side, 0, out=acc)
    left_len = segmented_sum(device, acc, elem_off, name="rle_left_lengths", scratch=scan)
    np.equal(side, 1, out=acc)
    right_len = segmented_sum(device, acc, elem_off, name="rle_right_lengths", scratch=scan)
    rid_seg = ws.seg_ids("rled/rid", rle.run_offsets, nr)  # run -> old segment

    tgt_left = left_seg[rid_seg]
    tgt_right = right_seg[rid_seg]
    keep_left = (left_len > 0) & (tgt_left >= 0)
    keep_right = (right_len > 0) & (tgt_right >= 0)

    # per-(old segment, side) stable ranks among kept candidates; each new
    # segment receives candidates of exactly one (old segment, side) pair,
    # so this rank is the position within the new segment
    keep64 = ws.buf("rled/keep64", nr, np.int64)
    np.copyto(keep64, keep_left)
    rank_left = ws.buf("rled/rank_l", nr, np.int64)
    segmented_inclusive_cumsum(
        device, keep64, rle.run_offsets, name="rle_compact_scan_l", out=rank_left
    )
    np.subtract(rank_left, 1, out=rank_left)
    np.copyto(keep64, keep_right)
    rank_right = ws.buf("rled/rank_r", nr, np.int64)
    segmented_inclusive_cumsum(
        device, keep64, rle.run_offsets, name="rle_compact_scan_r", out=rank_right
    )
    np.subtract(rank_right, 1, out=rank_right)

    runs_per_new = ws.zeros("rled/rpn", n_new_segments, np.int64)
    if keep_left.any():
        np.add.at(runs_per_new, tgt_left[keep_left], 1)
    if keep_right.any():
        np.add.at(runs_per_new, tgt_right[keep_right], 1)
    new_run_offsets = ws.buf(f"rled/roff/{parity % 2}", n_new_segments + 1, np.int64)
    new_run_offsets[0] = 0
    np.cumsum(runs_per_new, out=new_run_offsets[1:])
    n_new_runs = int(new_run_offsets[-1])

    new_values = ws.buf(f"rled/vals/{parity % 2}", n_new_runs, np.float64)
    new_lengths = ws.buf(f"rled/lens/{parity % 2}", n_new_runs, np.int64)
    dl = new_run_offsets[tgt_left[keep_left]] + rank_left[keep_left]
    new_values[dl] = rle.run_values[keep_left]
    new_lengths[dl] = left_len[keep_left]
    dr = new_run_offsets[tgt_right[keep_right]] + rank_right[keep_right]
    new_values[dr] = rle.run_values[keep_right]
    new_lengths[dr] = right_len[keep_right]

    # pre-allocate 2 runs per run, then the compaction write-out
    device.launch(
        "direct_split_rle_scatter",
        elements=2 * nr,
        flops_per_element=3.0,
        coalesced_bytes=2 * nr * (8 + 8),
        irregular_bytes=n_new_runs * 16,
    )
    return RunLengthColumns(
        run_values=new_values, run_lengths=new_lengths, run_offsets=new_run_offsets
    )


@traced("rle_split_decompress")
def split_runs_with_decompression(
    device: GpuDevice,
    rle: RunLengthColumns,
    dest: np.ndarray,
    new_offsets: np.ndarray,
) -> RunLengthColumns:
    """Decompress -> scatter -> recompress (Fig. 6).

    ``dest``/``new_offsets`` come from the element-level order-preserving
    partition the trainer already ran for the instance-id array, so the
    scattered raw values land exactly where the sparse path would put them.
    """
    n = int(rle.n_elements)
    dest = np.asarray(dest, dtype=np.int64)
    if dest.size != n:
        raise ValueError("dest must have one entry per element")
    n_new = int(new_offsets[-1])
    check_offsets(new_offsets, n_new)

    # decompress (Fig. 6 middle row)
    raw = np.repeat(rle.run_values, rle.run_lengths)
    device.launch(
        "rle_decompress",
        elements=n,
        flops_per_element=1.0,
        coalesced_bytes=n * 8 + rle.n_runs * 16,
    )
    # order-preserving scatter of the raw values
    keep = dest >= 0
    new_vals = np.empty(n_new, dtype=np.float64)
    new_vals[dest[keep]] = raw[keep]
    device.launch(
        "rle_scatter_raw_values",
        elements=n,
        flops_per_element=1.0,
        coalesced_bytes=n * 8,
        irregular_bytes=n_new * 8,
    )
    # recompress (Fig. 6 bottom row): boundary detection + compaction
    out = encode_segments(new_vals, new_offsets)
    _, _ = stream_compact(device, np.ones(max(n_new, 1), dtype=bool), name="rle_recompress_compact")
    device.launch(
        "rle_recompress",
        elements=n_new,
        flops_per_element=2.0,
        coalesced_bytes=n_new * 8 + out.n_runs * 16,
    )
    return out
