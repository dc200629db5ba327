"""Index-dtype audit: every offset / destination / rank buffer is int64.

A partition over more than 2**31 elements silently wraps if any index
buffer uses a 32-bit (or platform-dependent) integer dtype.  Three layers
of defense:

1. a static audit of the hot-path sources for forbidden index dtypes;
2. runtime checks that narrow inputs are widened to int64, with and
   without a caller-supplied arena;
3. index *arithmetic* regression tests in the >2**31 value range, run on
   small arrays by mocking the partition-plan memory threshold so the
   huge-element regime's numbers flow through the real code.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.partition import plan_partition, partition_segments
from repro.core.split import SegmentLayout
from repro.core.workspace import IDX_DTYPE, WorkspaceArena
from repro.gpusim.device import TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice
from repro.gpusim.primitives import check_offsets

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: hot-path modules whose index buffers the audit covers
AUDITED = [
    "core/partition.py",
    "core/trainer.py",
    "core/workspace.py",
    "core/split.py",
    "core/rle_split.py",
    "gpusim/primitives.py",
]

#: dtypes that are platform-sized or too narrow for element offsets
FORBIDDEN = re.compile(
    r"dtype\s*=\s*(int\b|np\.int32\b|np\.intc\b|np\.intp\b|\"i4\"|'i4')"
    r"|astype\(\s*(int\b|np\.int32\b|np\.intc\b|np\.intp\b)"
)


def test_static_audit_no_narrow_index_dtypes():
    """No hot-path file creates an index array with a narrow/platform int."""
    offenders = []
    for rel in AUDITED:
        text = (SRC / rel).read_text(encoding="utf-8")
        for i, line in enumerate(text.splitlines(), 1):
            if FORBIDDEN.search(line):
                offenders.append(f"{rel}:{i}: {line.strip()}")
    assert not offenders, "narrow index dtypes found:\n" + "\n".join(offenders)


def test_idx_dtype_is_int64():
    assert np.dtype(IDX_DTYPE) == np.dtype(np.int64)
    assert np.dtype(IDX_DTYPE).itemsize == 8


@pytest.mark.parametrize("arena", [False, True])
def test_partition_widens_narrow_inputs(arena):
    """int32 offsets/maps in -> int64 dest/offsets out, whether the caller
    passes an arena or the kernel makes its own."""
    device = GpuDevice(TITAN_X_PASCAL)
    offsets = np.array([0, 3, 5], dtype=np.int32)
    side = np.array([0, 1, 0, 1, 0], dtype=np.int8)
    left = np.array([0, 1], dtype=np.int32)
    right = np.array([2, 3], dtype=np.int32)
    plan = plan_partition(5, 2, max_counter_mem_bytes=2**30)
    dest, new_off = partition_segments(
        device, offsets, side, left, right, 4, plan,
        workspace=WorkspaceArena() if arena else None,
    )
    assert np.asarray(dest).dtype == np.int64
    assert np.asarray(new_off).dtype == np.int64


def test_workspace_index_helpers_pin_int64():
    ws = WorkspaceArena()
    assert ws.arange(10).dtype == np.int64
    offsets = np.array([0, 2, 2, 5], dtype=np.int32)
    sid = ws.seg_ids("t/sid", offsets, 5)
    assert sid.dtype == np.int64
    assert list(sid) == [0, 0, 2, 2, 2]


def test_segment_layout_descriptors_are_int64():
    layout = SegmentLayout(np.array([0, 2, 4, 6, 8], dtype=np.int32), 2, 2)
    assert layout.offsets.dtype == np.int64
    assert layout.seg_node().dtype == np.int64
    assert layout.node_offsets().dtype == np.int64


# ------------------------------------------------------------ >2**31 regime
N_HUGE = 2**31 + 11  # one more than int32 can index


def test_check_offsets_past_int32_range():
    """Offset *values* beyond 2**31 validate and round-trip exactly."""
    offsets = np.array([0, 2**31 - 1, N_HUGE], dtype=np.int64)
    out = check_offsets(offsets, N_HUGE)
    assert out.dtype == np.int64
    assert int(out[-1]) == N_HUGE


def test_plan_partition_huge_elements_with_mocked_threshold():
    """The plan's thread/counter arithmetic for a 2**31+ element partition,
    forced through the multi-pass branch by mocking the counter-memory
    threshold down to 1 MiB.  Every derived quantity must be an exact
    (non-wrapped, non-negative) Python/int64 number."""
    plan = plan_partition(
        N_HUGE, 4096, max_counter_mem_bytes=1 << 20, use_custom_workload=True
    )
    assert plan.n_values == N_HUGE
    assert plan.n_threads * plan.thread_workload >= N_HUGE
    assert plan.counter_bytes >= 0 and plan.passes >= 1
    # the fixed-workload policy overflows the budget instead of growing the
    # per-thread workload -- the pass count must still be exact
    fixed = plan_partition(
        N_HUGE, 4096, max_counter_mem_bytes=1 << 20, use_custom_workload=False
    )
    assert fixed.n_threads == -(-N_HUGE // fixed.thread_workload)
    assert fixed.counter_bytes == fixed.n_threads * fixed.n_partitions * 4
    assert fixed.passes == -(-fixed.counter_bytes // (1 << 20))
    assert fixed.counter_bytes > 2**31  # the quantity that would have wrapped


def test_segment_layout_offsets_past_int32_range():
    """A layout whose segment boundaries live beyond 2**31: descriptor
    caches are segment-sized, so the huge element count costs nothing."""
    base = 2**31
    offsets = np.array([0, base, base + 7, 2 * base], dtype=np.int64)
    layout = SegmentLayout(offsets, 3, 1)
    assert layout.n_elements == 2 * base
    assert np.array_equal(layout.seg_node(), [0, 1, 2])
    # element offsets keep their >2**31 values exactly
    assert layout.offsets.dtype == np.int64
    assert int(layout.offsets[-1] - layout.offsets[1]) == base


def test_arena_scatter_math_past_int32_range():
    """dest = segment base + rank stays exact with bases beyond 2**31
    (the arithmetic the fused partition performs per element)."""
    seg_base = np.array([0, 2**31 + 3], dtype=IDX_DTYPE)
    rank = np.array([5, 7], dtype=IDX_DTYPE)
    dest = seg_base + rank
    assert dest.dtype == np.int64
    assert int(dest[1]) == 2**31 + 10
