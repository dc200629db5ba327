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

The *functional* scatter itself is
:func:`repro.gpusim.primitives.two_way_partition` generalized to an
arbitrary old-segment -> new-segment mapping (:func:`partition_segments`),
so the trainer can keep the new layout node-major.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import check_offsets
from ..obs import traced
from .workspace import IDX_DTYPE, WorkspaceArena

__all__ = [
    "PartitionPlan", "plan_partition", "partition_segments", "check_segment_maps",
    "COUNTER_BYTES",
]

#: bytes per histogram counter (a 32-bit count)
COUNTER_BYTES = 4


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
    max_counter_mem_bytes: int,
    use_custom_workload: bool = True,
    fixed_thread_workload: int = 16,
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


def check_segment_maps(
    left_seg: np.ndarray, right_seg: np.ndarray, n_old: int, n_new: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate old-segment -> new-segment maps; returns them as int64.

    Each map needs one entry per old segment, and every target must be
    ``-1`` (side dropped) or below ``n_new``.
    """
    left_seg = np.asarray(left_seg, dtype=IDX_DTYPE)
    right_seg = np.asarray(right_seg, dtype=IDX_DTYPE)
    if left_seg.size != n_old or right_seg.size != n_old:
        raise ValueError("segment maps must have one entry per old segment")
    for m in (left_seg, right_seg):
        if m.size and m.max() >= n_new:
            raise ValueError("segment map points past n_new_segments")
    return left_seg, right_seg


@traced("partition")
def partition_segments(
    device: GpuDevice,
    offsets: np.ndarray,
    side: np.ndarray,
    left_seg: np.ndarray,
    right_seg: np.ndarray,
    n_new_segments: int,
    plan: PartitionPlan,
    *,
    bytes_per_element: int = 16,
    name: str = "histogram_partition",
    workspace: WorkspaceArena | None = None,
    drop_to_trash: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Order-preserving scatter of every old segment into mapped children.

    Every element gets its new segment as a sort key -- the left or right
    target by ``side``, and ``n_new_segments`` (a trash key past the last
    segment) when dropped -- and one stable LSD radix sort over 16-bit
    digits orders the keys.  A stable sort keeps each (old segment, side)
    group in source order, which is the Fig. 2 invariant; ``dest`` is the
    inverse permutation and ``new_offsets`` comes from ``bincount``.  Keys
    stay ``uint16`` up to 65,535 new segments; wider keys take one more
    stable pass per further 16-bit digit.  The device is charged for the
    paper's histogram/scan/scatter kernel (:func:`_charge_partition`).

    Parameters
    ----------
    offsets:
        Current segmentation (``S + 1`` entries).
    side:
        Per-element: ``0`` left child, ``1`` right child, ``-1`` dropped
        (elements of nodes that became leaves).
    left_seg, right_seg:
        ``(S,)`` new-segment index receiving each old segment's left/right
        elements; ``-1`` means that side is dropped entirely.
    n_new_segments:
        Size of the new segmentation.
    plan:
        Cost plan from :func:`plan_partition` (functional result does not
        depend on it; modeled time does, via the pass count and counter
        traffic).
    bytes_per_element:
        Payload moved per element across all arrays being scattered.
    workspace:
        :class:`~repro.core.workspace.WorkspaceArena` backing the mask and
        ``dest`` (a fresh arena when omitted).
    drop_to_trash:
        When True, dropped elements get ``dest == new_offsets[-1]`` (one
        past the end) instead of ``-1``, so callers can scatter *without*
        boolean compression by writing into a buffer with one trash slot.

    Returns
    -------
    dest:
        Per-element destination (``-1`` if dropped, unless
        ``drop_to_trash``).  Order within each ``(old segment, side)`` group
        is preserved -- the Fig. 2 invariant.
    new_offsets:
        ``(n_new_segments + 1,)`` segmentation of the scattered array.
    """
    workspace = workspace if workspace is not None else WorkspaceArena()
    side = np.asarray(side, dtype=np.int8)
    n = side.size
    offsets = check_offsets(offsets, n)
    left_seg, right_seg = check_segment_maps(
        left_seg, right_seg, offsets.size - 1, n_new_segments
    )
    trash = int(n_new_segments)
    key_dtype = np.uint16 if trash <= 0xFFFF else IDX_DTYPE
    lkey = np.where(left_seg >= 0, left_seg, trash).astype(key_dtype)
    rkey = np.where(right_seg >= 0, right_seg, trash).astype(key_dtype)
    lens = np.diff(offsets)

    # key = left target, plus (right - left) where side is 1, plus
    # (trash - left) where side is neither 0 nor 1 (-1 views as 255);
    # branch-free (modular in uint16): masked writes over a random side
    # pattern are several times slower
    key = np.repeat(lkey, lens)
    mask = workspace.buf(f"{name}/mask", n, bool)
    key += np.repeat(rkey - lkey, lens) * np.equal(side, 1, out=mask)
    key += np.repeat(trash - lkey, lens) * np.greater(side.view(np.uint8), 1, out=mask)

    perm = np.argsort(key.astype(np.uint16, copy=False), kind="stable")
    for shift in range(16, trash.bit_length(), 16):
        digit = (key >> shift).astype(np.uint16)
        perm = perm[np.argsort(digit[perm], kind="stable")]
    dest = workspace.buf(f"{name}/dest", n, IDX_DTYPE)
    dest[perm] = workspace.arange(n)
    new_offsets = np.zeros(n_new_segments + 1, dtype=IDX_DTYPE)
    np.cumsum(np.bincount(key, minlength=trash + 1)[:trash], out=new_offsets[1:])
    # dropped elements sorted past the last segment: one slot or -1
    kept = new_offsets[-1]
    if drop_to_trash:
        np.minimum(dest, kept, out=dest)
    else:
        np.copyto(dest, -1, where=dest >= kept)

    _charge_partition(device, n, plan, bytes_per_element, name)
    return dest, new_offsets


def _charge_partition(
    device: GpuDevice, n: int, plan: PartitionPlan, bytes_per_element: int, name: str
) -> None:
    """The modeled device cost of one partition pass: the paper's
    histogram-count, counter-scan and stable-scatter kernel, whatever the
    host does to compute the same result."""
    # histogram pass(es) + scatter: the naive fixed workload may need
    # several passes when its counters blow the memory budget.
    # The scatter's destinations increase monotonically within each
    # (segment, side) group, so most writes coalesce; only the interleaving
    # between groups is irregular.
    # traffic: one histogram read pass per `passes` (side byte + bookkeeping),
    # one payload read and one payload write; destinations increase
    # monotonically within each (segment, side) group so ~90% of the write
    # coalesces
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
