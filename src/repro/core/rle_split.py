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
shared order-preserving gather regardless of strategy, so these functions
handle only the run (value, length) arrays.
"""

from __future__ import annotations

import numpy as np

from ..data.rle import RunLengthColumns, encode_segments
from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import check_offsets
from ..obs import traced
from .partition import SideLists, _group_gather, check_segment_maps
from .workspace import IDX_DTYPE, WorkspaceArena

__all__ = ["split_runs_direct", "split_runs_with_decompression"]


@traced("rle_split_direct")
def split_runs_direct(
    device: GpuDevice,
    rle: RunLengthColumns,
    sides: SideLists,
    left_seg: np.ndarray,
    right_seg: np.ndarray,
    n_new_segments: int,
    *,
    workspace: WorkspaceArena | None = None,
    parity: int = 0,
) -> RunLengthColumns:
    """Directly split every run (Fig. 7).

    A run's left length is the number of left-going elements inside its
    element range, a ``searchsorted`` difference of the left list at the
    run boundaries (the right length likewise), so no pass touches the
    elements.  Runs of nonzero length form run-level side lists, and the
    same group gather as the element partition places them.

    Parameters
    ----------
    rle:
        Current compressed values, segmented over ``S`` old segments.
    sides:
        The left-going and right-going *elements*
        (:func:`~repro.core.partition.split_sides`).
    left_seg, right_seg:
        Old segment -> new segment maps (``-1`` = that side is dropped).
    n_new_segments:
        New segmentation size.
    workspace:
        Arena backing the returned run arrays (a fresh arena when omitted).
    parity:
        Selects which of two output buffer generations to write (the caller
        alternates per level: the input ``rle`` still views the previous
        generation while this call fills the next one).
    """
    n = rle.n_elements
    nr = rle.n_runs
    sides = sides.checked(n)
    run_offsets = rle.run_offsets  # checked when the RunLengthColumns was built
    maps = check_segment_maps(left_seg, right_seg, run_offsets.size - 1, n_new_segments)
    ws = workspace if workspace is not None else WorkspaceArena()
    pp = parity % 2

    # each run's length on either side; its nonzero parts are the run lists
    bounds = rle.run_elem_offsets
    lens = [np.diff(np.searchsorted(part, bounds)) for part in (sides.left, sides.right)]
    kept = [np.flatnonzero(side_len) for side_len in lens]
    run_sides = SideLists(np.concatenate(kept), kept[0].size)
    run_len = np.concatenate([side_len[k] for side_len, k in zip(lens, kept)])
    pos, new_run_offsets = _group_gather(run_offsets, run_sides, *maps, n_new_segments, ws)
    n_new_runs = pos.size
    new_values = ws.buf(f"rled/vals/{pp}", n_new_runs, np.float64)
    np.take(rle.run_values, run_sides.idx[pos], out=new_values)
    new_lengths = np.take(run_len, pos, out=ws.buf(f"rled/lens/{pp}", n_new_runs, np.int64))
    new_elem_offsets = ws.buf(f"rled/reo/{pp}", n_new_runs + 1, IDX_DTYPE)
    new_elem_offsets[0] = 0
    np.cumsum(new_lengths, out=new_elem_offsets[1:])

    _charge_direct_split(device, n, nr, run_offsets.size, n_new_runs)
    return RunLengthColumns(new_values, new_lengths, new_run_offsets, new_elem_offsets)


def _charge_direct_split(
    device: GpuDevice, n: int, nr: int, n_run_offsets: int, n_new_runs: int
) -> None:
    """The modeled device cost of Fig. 7, whatever the host does: per-run
    left/right lengths from the instance-to-node mapping (the strategy's
    only element-linear work), the compaction scans over the 2 runs
    pre-allocated per run, and the compacted write-out."""
    for name in ("rle_left_lengths", "rle_right_lengths"):
        device.launch(name, n, flops_per_element=1.0, coalesced_bytes=n * 8 + 2 * (nr + 1) * 8)
    for name in ("rle_compact_scan_l", "rle_compact_scan_r"):
        device.launch(name, nr, flops_per_element=2.0,
                      coalesced_bytes=2.0 * nr * 8 + n_run_offsets * 8)
    device.launch("direct_split_rle_scatter", 2 * nr, flops_per_element=3.0,
                  coalesced_bytes=2 * nr * (8 + 8), irregular_bytes=n_new_runs * 16)


@traced("rle_split_decompress")
def split_runs_with_decompression(
    device: GpuDevice,
    rle: RunLengthColumns,
    perm: np.ndarray,
    new_offsets: np.ndarray,
) -> RunLengthColumns:
    """Decompress -> scatter -> recompress (Fig. 6).

    ``perm``/``new_offsets`` come from the element-level order-preserving
    partition the trainer already ran for the instance-id array, so the
    gathered raw values land exactly where the sparse path would put them.
    """
    n = rle.n_elements
    perm = np.asarray(perm, dtype=np.int64)
    n_new = perm.size
    check_offsets(new_offsets, n_new)
    if n_new and (perm.min() < 0 or perm.max() >= n):
        raise ValueError("perm must index elements in [0, n)")

    # decompress (Fig. 6 middle row)
    raw = np.repeat(rle.run_values, rle.run_lengths)
    device.launch(
        "rle_decompress",
        elements=n,
        flops_per_element=1.0,
        coalesced_bytes=n * 8 + rle.n_runs * 16,
    )
    # order-preserving move of the raw values
    new_vals = raw[perm]
    device.launch(
        "rle_scatter_raw_values",
        elements=n,
        flops_per_element=1.0,
        coalesced_bytes=n * 8,
        irregular_bytes=n_new * 8,
    )
    # recompress (Fig. 6 bottom row): boundary detection + compaction
    out = encode_segments(new_vals, new_offsets)
    m = max(n_new, 1)  # prefix-sum compaction over the boundary flags
    device.launch(
        "rle_recompress_compact",
        elements=m,
        flops_per_element=2.0,
        coalesced_bytes=m * (1 + 8 + 8),
    )
    device.launch(
        "rle_recompress",
        elements=n_new,
        flops_per_element=2.0,
        coalesced_bytes=n_new * 8 + out.n_runs * 16,
    )
    return out
