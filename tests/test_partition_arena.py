"""Order-preserving partition on adversarial segment layouts.

``partition_segments`` is the paper's Fig. 2/3 kernel: every old segment's
elements move to left/right child segments *keeping their relative
order*.  Its gather permutation, built from the side lists by
``searchsorted``, must agree with a plain-Python oracle element-for-element,
without a workspace and on a caller's arena that earlier calls left dirty,
including on degenerate layouts (empty segments, all-left, all-right,
dropped sides, empty input, more than 65,535 new segments).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition import partition_segments, plan_partition, split_sides
from repro.core.workspace import WorkspaceArena
from repro.gpusim.device import TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle(offsets, side, left_seg, right_seg, n_new):
    """Reference stable partition in plain Python: the buckets,
    concatenated, are ``perm``."""
    buckets = [[] for _ in range(n_new)]
    for s in range(offsets.size - 1):
        for i in range(offsets[s], offsets[s + 1]):
            tgt = {0: left_seg[s], 1: right_seg[s]}.get(int(side[i]), -1)
            if tgt >= 0:
                buckets[int(tgt)].append(i)
    new_offsets = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum([len(b) for b in buckets], out=new_offsets[1:])
    perm = np.array([i for b in buckets for i in b], dtype=np.int64)
    return perm, new_offsets


def _run(offsets, side, left_seg, right_seg, n_new, *, ws=None):
    device = GpuDevice(TITAN_X_PASCAL)
    plan = plan_partition(int(offsets[-1]), max(1, left_seg.size), max_counter_mem_bytes=2**30)
    perm, new_off = partition_segments(
        device,
        offsets,
        split_sides(side, ws),
        left_seg,
        right_seg,
        n_new,
        plan,
        workspace=ws,
    )
    return np.array(perm), np.asarray(new_off)


def _check_case(offsets, side, left_seg, right_seg, n_new):
    offsets = np.asarray(offsets, dtype=np.int64)
    side = np.asarray(side, dtype=np.int8)
    left_seg = np.asarray(left_seg, dtype=np.int64)
    right_seg = np.asarray(right_seg, dtype=np.int64)
    want_perm, want_off = _oracle(offsets, side, left_seg, right_seg, n_new)

    # the arena's second run starts from the buffers its first run left
    arena = WorkspaceArena()
    for ws in (None, arena, arena):
        perm, new_off = _run(offsets, side, left_seg, right_seg, n_new, ws=ws)
        assert perm.dtype == np.int64
        assert np.array_equal(perm, want_perm)
        assert np.array_equal(new_off, want_off)

    # exact per-child counts
    for s in range(left_seg.size):
        lo, hi = offsets[s], offsets[s + 1]
        n_left = int(np.sum(side[lo:hi] == 0))
        n_right = int(np.sum(side[lo:hi] == 1))
        if left_seg[s] >= 0:
            j = left_seg[s]
            assert want_off[j + 1] - want_off[j] == n_left
        if right_seg[s] >= 0:
            j = right_seg[s]
            assert want_off[j + 1] - want_off[j] == n_right
    return want_perm, want_off


class TestAdversarialLayouts:
    def test_empty_input(self):
        _check_case([0, 0], [], [0], [1], 2)

    def test_empty_segments_interleaved(self):
        offsets = [0, 0, 3, 3, 5, 5]
        side = [0, 1, 0, 1, 1]
        left = [0, 1, 2, 3, 4]
        right = [5, 6, 7, 8, 9]
        _check_case(offsets, side, left, right, 10)

    def test_all_left(self):
        _check_case([0, 6], np.zeros(6, dtype=np.int8), [0], [1], 2)

    def test_all_right(self):
        _check_case([0, 6], np.ones(6, dtype=np.int8), [0], [1], 2)

    def test_all_dropped(self):
        _check_case([0, 4], np.full(4, -1, dtype=np.int8), [0], [1], 2)

    def test_dropped_left_side(self):
        _check_case([0, 5], [0, 1, 0, 1, 0], [-1], [0], 1)

    def test_dropped_right_side(self):
        _check_case([0, 5], [0, 1, 0, 1, 0], [0], [-1], 1)

    def test_single_element_segments(self):
        offsets = list(range(7))  # six 1-element segments
        side = [0, 1, 0, 1, 0, 1]
        left = [0, 2, 4, 6, 8, 10]
        right = [1, 3, 5, 7, 9, 11]
        _check_case(offsets, side, left, right, 12)

    def test_stable_order_within_children(self):
        """Relative source order survives into every new segment."""
        offsets = np.array([0, 8], dtype=np.int64)
        side = np.array([0, 1, 0, 0, 1, 0, 1, 0], dtype=np.int8)
        perm, new_off = _run(offsets, side, np.array([0]), np.array([1]), 2)
        left_sources = np.flatnonzero(side == 0)
        right_sources = np.flatnonzero(side == 1)
        assert np.array_equal(perm[new_off[0] : new_off[1]], left_sources)
        assert np.array_equal(perm[new_off[1] : new_off[2]], right_sources)

    def test_non_injective_maps_raise(self):
        """Two (segment, side) groups mapped to one new segment have no
        order-preserving layout; the maps are refused."""
        with pytest.raises(ValueError, match="two groups"):
            _run(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), np.array([0, 0]),
                 np.array([1, 2]), 3)
        with pytest.raises(ValueError, match="two groups"):
            _run(np.array([0, 4]), np.array([0, 1, 0, 1]), np.array([1]),
                 np.array([1]), 2)


def test_more_new_segments_than_a_uint16_key_holds():
    """70,000 new segments, more than a 16-bit id holds.  The new-segment
    ids are a random permutation, so groups land far from their source
    order."""
    rng = np.random.default_rng(7)
    n_seg = 35_000
    lengths = rng.integers(0, 4, size=n_seg)
    offsets = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    n = int(offsets[-1])
    side = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n, p=[0.1, 0.45, 0.45])
    ids = rng.permutation(2 * n_seg).astype(np.int64)
    ids[rng.random(2 * n_seg) < 0.05] = -1  # some sides dropped entirely
    n_new = 2 * n_seg
    assert n_new > 0xFFFF
    _check_case(offsets, side, ids[:n_seg], ids[n_seg:], n_new)


@st.composite
def partition_case(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n_seg = draw(st.integers(1, 8))
    lengths = [draw(st.integers(0, 10)) for _ in range(n_seg)]
    offsets = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    n = int(offsets[-1])
    side = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=n, p=[0.1, 0.45, 0.45])
    # dense new-segment maps with occasional dropped sides
    maps = []
    nxt = 0
    for _ in range(2 * n_seg):
        if rng.random() < 0.15:
            maps.append(-1)
        else:
            maps.append(nxt)
            nxt += 1
    left_seg = np.array(maps[:n_seg], dtype=np.int64)
    right_seg = np.array(maps[n_seg:], dtype=np.int64)
    return offsets, side, left_seg, right_seg, max(1, nxt)


@given(partition_case())
@SETTINGS
def test_fuzz_matches_oracle_with_and_without_arena(case):
    _check_case(*case)


def test_arena_reuses_buffers_across_calls():
    """Repeated partitions on one arena allocate once, then reuse."""
    ws = WorkspaceArena()
    device = GpuDevice(TITAN_X_PASCAL)
    offsets = np.array([0, 40], dtype=np.int64)
    plan = plan_partition(40, 1, max_counter_mem_bytes=2**30)
    rng = np.random.default_rng(0)
    for _ in range(5):
        side = rng.choice(np.array([0, 1], dtype=np.int8), size=40)
        partition_segments(
            device, offsets, split_sides(side, ws), np.array([0]), np.array([1]), 2, plan,
            workspace=ws,
        )
    assert ws.n_allocs < ws.n_requests
    assert ws.n_reuses > 0
