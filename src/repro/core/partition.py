"""Order-preserving node partitioning (Section III-B, Figs. 2 and 3).

When a node splits, every attribute's sorted value list must be divided into
the two children *without destroying the sorted order* -- otherwise each new
node would need a fresh sort (the bottleneck the paper criticizes in prior
work [26]).  The paper extends histogram-based partitioning [13]: each
thread counts its elements per destination partition (the histogram), an
exclusive scan over the counters yields every element's scatter position,
and a stable scatter moves the data.

Thread-workload choice ("Customized IdxComp Workload")
------------------------------------------------------
Counter memory is ``#threads x #partitions`` entries.  A fixed per-thread
workload (the naive ``b = 16``) makes that product uncontrollable -- with
many nodes it "runs out of GPU memory for large datasets".  The paper picks
the workload from the data instead::

    thread_workload = ceil(#attribute_values * #nodes / max_counter_mem)
    #threads        = ceil(#attribute_values / thread_workload)

:func:`plan_partition` reproduces both policies.  When the naive policy
exceeds the counter budget, the kernel must process the data in multiple
passes (re-reading its input each time), which is how the ablation's
slowdown arises without aborting the run.

On the host, :func:`split_sides` reads the sides once into ascending lists
of left-going and right-going elements; :func:`partition_segments` counts
each (old segment, side) group by ``searchsorted`` of those lists and
returns the gather permutation of the new, node-major layout -- no sort.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import check_offsets
from ..obs import traced
from .workspace import IDX_DTYPE, WorkspaceArena

__all__ = [
    "PartitionPlan", "plan_partition", "SideLists", "split_sides",
    "partition_segments", "check_segment_maps", "COUNTER_BYTES",
    "MAX_COUNTER_MEM_BYTES", "FIXED_THREAD_WORKLOAD",
]

#: bytes per histogram counter (a 32-bit count)
COUNTER_BYTES = 4
#: counter memory budget of one partition pass (the paper's example, 2^30)
MAX_COUNTER_MEM_BYTES = 2**30
#: the naive per-thread workload ``b = 16`` the paper ablates against
FIXED_THREAD_WORKLOAD = 16


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Resource plan for one histogram-based partition pass."""

    n_values: int
    n_partitions: int
    thread_workload: int
    n_threads: int
    counter_bytes: int
    passes: int
    custom: bool

    def __post_init__(self) -> None:
        if self.passes < 1:
            raise ValueError("passes must be >= 1")


def plan_partition(
    n_values: int,
    n_nodes: int,
    *,
    max_counter_mem_bytes: int = MAX_COUNTER_MEM_BYTES,
    use_custom_workload: bool = True,
    fixed_thread_workload: int = FIXED_THREAD_WORKLOAD,
    fanout: int = 2,
) -> PartitionPlan:
    """Choose the per-thread workload for partitioning ``n_values`` elements
    of ``n_nodes`` splitting nodes into ``fanout`` children each.

    The custom policy keeps ``counter_bytes <= max_counter_mem_bytes`` by
    construction; the fixed policy may exceed the budget, in which case the
    returned plan requires multiple passes over the input.
    """
    if n_values < 0 or n_nodes < 1:
        raise ValueError("need n_values >= 0 and n_nodes >= 1")
    n_partitions = n_nodes * fanout
    if n_values == 0:
        return PartitionPlan(0, n_partitions, 1, 1, COUNTER_BYTES * n_partitions, 1, use_custom_workload)
    if use_custom_workload:
        # the paper's formula up to the bytes-per-counter constant: *grow*
        # the per-thread workload beyond the default so that
        # #threads x #partitions x 4B stays within the budget ("we allocate
        # more workload to a thread when the number of partitions is large")
        workload = max(
            int(fixed_thread_workload),
            -(-n_values * n_partitions * COUNTER_BYTES // max_counter_mem_bytes),
        )
    else:
        workload = max(1, int(fixed_thread_workload))
    n_threads = max(1, -(-n_values // workload))
    counter_bytes = n_threads * n_partitions * COUNTER_BYTES
    passes = max(1, -(-counter_bytes // max_counter_mem_bytes))
    return PartitionPlan(
        n_values=n_values,
        n_partitions=n_partitions,
        thread_workload=workload,
        n_threads=n_threads,
        counter_bytes=counter_bytes,
        passes=passes,
        custom=use_custom_workload,
    )


class SideLists(NamedTuple):
    """Ascending indices of the left-going elements, then of the
    right-going ones; elements in neither list are dropped."""

    idx: np.ndarray
    n_left: int

    @property
    def left(self) -> np.ndarray:
        return self.idx[: self.n_left]

    @property
    def right(self) -> np.ndarray:
        return self.idx[self.n_left :]

    def checked(self, n: int) -> "SideLists":
        """Validated over ``n`` elements (each list assumed ascending)."""
        sides = SideLists(np.asarray(self.idx, dtype=IDX_DTYPE), int(self.n_left))
        if not 0 <= sides.n_left <= sides.idx.size <= n or any(
            part.size and (part[0] < 0 or part[-1] >= n) for part in (sides.left, sides.right)
        ):
            raise ValueError("side lists must index at most n elements in [0, n)")
        return sides


def split_sides(side: np.ndarray, workspace: WorkspaceArena | None = None) -> SideLists:
    """Per-element sides (``0`` left, ``1`` right, else dropped) read once
    into :class:`SideLists`."""
    ws = workspace if workspace is not None else WorkspaceArena()
    side = np.asarray(side, dtype=np.int8)
    n = side.size
    # both masks end to end: one flatnonzero, faster than two plus a copy
    mask = ws.buf("sides/mask", 2 * n, bool)
    np.equal(side, 0, out=mask[:n])
    np.equal(side, 1, out=mask[n:])
    idx = np.flatnonzero(mask).astype(IDX_DTYPE, copy=False)
    n_left = int(np.searchsorted(idx, n))
    idx[n_left:] -= n
    return SideLists(idx, n_left)


def check_segment_maps(
    left_seg: np.ndarray, right_seg: np.ndarray, n_old: int, n_new: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate old-segment -> new-segment maps; returns them as int64.

    Each map needs one entry per old segment, and every target must be
    ``-1`` (side dropped) or below ``n_new``.  The maps must be injective:
    a new segment receives at most one (old segment, side) group.
    """
    left_seg = np.asarray(left_seg, dtype=IDX_DTYPE)
    right_seg = np.asarray(right_seg, dtype=IDX_DTYPE)
    if left_seg.size != n_old or right_seg.size != n_old:
        raise ValueError("segment maps must have one entry per old segment")
    targets = np.concatenate((left_seg, right_seg))
    if targets.size and (targets.max() >= n_new or targets.min() < -1):
        raise ValueError("segment map points past n_new_segments")
    targets = targets[targets >= 0]
    if targets.size and np.bincount(targets).max() > 1:
        raise ValueError("segment maps send two groups to one new segment")
    return left_seg, right_seg


def _group_gather(
    offsets: np.ndarray, sides: SideLists, left_seg: np.ndarray, right_seg: np.ndarray,
    n_new: int, ws: WorkspaceArena,
) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, new_offsets)``: new position ``i`` holds ``sides.idx[pos[i]]``.

    Segment ``s``'s left group is ``idx[lcut[s]:lcut[s + 1]]`` with
    ``lcut = searchsorted(left list, offsets)`` (right likewise), so group
    sizes and starts need no pass over the elements; new segment ``j``
    takes the one group mapped to it, in source order (Fig. 2).
    """
    size = np.zeros(n_new, dtype=IDX_DTYPE)
    start = np.zeros(n_new, dtype=IDX_DTYPE)
    for part, base, seg_map in ((sides.left, 0, left_seg), (sides.right, sides.n_left, right_seg)):
        cut = np.searchsorted(part, offsets) + base
        mapped = seg_map >= 0
        size[seg_map[mapped]] = np.diff(cut)[mapped]
        start[seg_map[mapped]] = cut[:-1][mapped]
    new_offsets = np.zeros(n_new + 1, dtype=IDX_DTYPE)
    np.cumsum(size, out=new_offsets[1:])
    pos = np.repeat(start - new_offsets[:-1], size)
    pos += ws.arange(pos.size)
    return pos, new_offsets


@traced("partition")
def partition_segments(
    device: GpuDevice,
    offsets: np.ndarray,
    sides: SideLists,
    left_seg: np.ndarray,
    right_seg: np.ndarray,
    n_new_segments: int,
    plan: PartitionPlan,
    *,
    bytes_per_element: int = 16,
    name: str = "histogram_partition",
    workspace: WorkspaceArena | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Order-preserving split of every old segment into mapped children.

    ``perm`` lists the source element of every new position, each (old
    segment, side) group whole and in source order -- the Fig. 2
    invariant.  The device is charged for the paper's histogram/scan/
    scatter kernel (:func:`_charge_partition`).

    Parameters
    ----------
    offsets:
        Current segmentation (``S + 1`` entries) of the elements.
    sides:
        The left-going and right-going elements (:func:`split_sides`);
        the rest (in nodes that became leaves) are dropped.
    left_seg, right_seg:
        ``(S,)`` new-segment index receiving each old segment's left/right
        elements; ``-1`` means that side is dropped entirely.  Injective:
        no two groups share a new segment.
    n_new_segments:
        Size of the new segmentation.
    plan:
        Cost plan from :func:`plan_partition` (the result does not depend
        on it; modeled time does, via the passes and counter traffic).
    bytes_per_element:
        Payload moved per element across all arrays being scattered.
    workspace:
        :class:`~repro.core.workspace.WorkspaceArena` backing ``perm`` (a
        fresh arena when omitted).

    Returns
    -------
    perm:
        ``(new_offsets[-1],)`` source element of each new position: the
        caller gathers every payload array with ``x[perm]``.
    new_offsets:
        ``(n_new_segments + 1,)`` segmentation of the gathered arrays.
    """
    ws = workspace if workspace is not None else WorkspaceArena()
    offsets = np.asarray(offsets, dtype=IDX_DTYPE)
    n = int(offsets[-1]) if offsets.size else 0
    offsets = check_offsets(offsets, n)
    sides = sides.checked(n)
    maps = check_segment_maps(left_seg, right_seg, offsets.size - 1, n_new_segments)
    pos, new_offsets = _group_gather(offsets, sides, *maps, n_new_segments, ws)
    perm = np.take(sides.idx, pos, out=ws.buf(f"{name}/perm", pos.size, IDX_DTYPE))
    _charge_partition(device, n, plan, bytes_per_element, name)
    return perm, new_offsets


def _charge_partition(
    device: GpuDevice, n: int, plan: PartitionPlan, bytes_per_element: int, name: str
) -> None:
    """The modeled device cost of one partition pass: the paper's
    histogram-count, counter-scan and stable-scatter kernel, whatever the
    host does to compute the same result."""
    # histogram pass(es) + scatter: the naive fixed workload may need
    # several passes when its counters blow the memory budget.  Traffic: one
    # histogram read pass per `passes` (side byte + bookkeeping), one payload
    # read and one payload write; destinations increase monotonically within
    # each (segment, side) group, so ~90% of the write coalesces
    device.launch(
        name,
        elements=n * plan.passes,
        flops_per_element=5.0,
        coalesced_bytes=n * 9 * plan.passes + n * bytes_per_element * (1.0 + 0.9),
        irregular_bytes=0.1 * n * bytes_per_element,
        launches=plan.passes,
    )
    # counter traffic: the plan is computed from *full-scale* element counts
    # (the caller passes them), so it must not be rescaled by work_scale;
    # every counter is written once and scanned once regardless of passes
    device.launch(
        f"{name}/counter_scan",
        elements=float(plan.n_threads) * plan.n_partitions,
        flops_per_element=1.0,
        coalesced_bytes=2.0 * plan.counter_bytes,
        scale=False,
    )
