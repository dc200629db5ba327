"""Tests for Customized SetKey and the histogram-partition planning."""

import numpy as np
import pytest

from repro.core.partition import COUNTER_BYTES, partition_segments, plan_partition, split_sides
from repro.core.setkey import plan_segment_grid
from repro.gpusim import GpuDevice, TITAN_X_PASCAL


class TestSetKey:
    def test_small_segment_count_one_per_block(self):
        plan = plan_segment_grid(TITAN_X_PASCAL, 100)
        assert plan.segments_per_block == 1
        assert plan.blocks == 100

    def test_paper_formula_caps_blocks(self):
        """1 + #segments/(#SM * C): blocks stay near #SM * C = 28,000."""
        n_seg = 40_000_000
        plan = plan_segment_grid(TITAN_X_PASCAL, n_seg, c=1000)
        assert plan.segments_per_block == 1 + n_seg // (28 * 1000)
        assert plan.blocks <= 28 * 1000 + 1

    def test_disabled_is_one_block_per_segment(self):
        plan = plan_segment_grid(TITAN_X_PASCAL, 5_000_000, enabled=False)
        assert plan.blocks == 5_000_000
        assert not plan.custom

    def test_blocks_cover_all_segments(self):
        for n in (1, 27_999, 28_001, 123_456_789):
            plan = plan_segment_grid(TITAN_X_PASCAL, n)
            assert plan.blocks * plan.segments_per_block >= n

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_segment_grid(TITAN_X_PASCAL, 0)
        with pytest.raises(ValueError):
            plan_segment_grid(TITAN_X_PASCAL, 10, c=0)


class TestPartitionPlan:
    BUDGET = 2**20  # 1 MiB counter budget for readable numbers

    def test_custom_defaults_to_fixed_workload_when_memory_is_fine(self):
        plan = plan_partition(1000, 2, max_counter_mem_bytes=self.BUDGET)
        fixed = plan_partition(
            1000, 2, max_counter_mem_bytes=self.BUDGET, use_custom_workload=False
        )
        assert plan.thread_workload == fixed.thread_workload == 16
        assert plan.passes == fixed.passes == 1

    def test_custom_grows_workload_to_respect_budget(self):
        """The paper's formula: more work per thread when #values x #nodes
        is large, so the counters never exceed the budget."""
        plan = plan_partition(10**8, 32, max_counter_mem_bytes=self.BUDGET)
        assert plan.custom
        assert plan.counter_bytes <= 2 * self.BUDGET  # within ceil rounding
        assert plan.passes == 1

    def test_naive_blows_budget_and_needs_passes(self):
        plan = plan_partition(
            10**8, 32, max_counter_mem_bytes=self.BUDGET, use_custom_workload=False
        )
        assert plan.counter_bytes > self.BUDGET
        assert plan.passes > 1

    def test_thread_count_covers_values(self):
        plan = plan_partition(1001, 4, max_counter_mem_bytes=self.BUDGET)
        assert plan.n_threads * plan.thread_workload >= 1001

    def test_counter_bytes_formula(self):
        plan = plan_partition(
            160, 3, max_counter_mem_bytes=self.BUDGET, use_custom_workload=False,
            fixed_thread_workload=16,
        )
        assert plan.n_threads == 10
        assert plan.counter_bytes == 10 * 6 * COUNTER_BYTES

    def test_empty_input(self):
        plan = plan_partition(0, 1, max_counter_mem_bytes=self.BUDGET)
        assert plan.passes == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            plan_partition(-1, 1, max_counter_mem_bytes=self.BUDGET)


class TestPartitionSegments:
    def _plan(self, n):
        return plan_partition(n, 1, max_counter_mem_bytes=2**30)

    def test_remap_to_node_major_layout(self):
        """Two segments (node0 x attr0, attr1) split into a node-major
        4-segment layout: children of attr j land at [child*2 + j]."""
        d = GpuDevice(TITAN_X_PASCAL)
        offsets = np.array([0, 3, 5])
        side = np.array([0, 1, 0, 1, 0], dtype=np.int8)
        # left child of seg j -> new seg j; right child -> new seg 2 + j
        left_seg = np.array([0, 1])
        right_seg = np.array([2, 3])
        perm, new_off = partition_segments(
            d, offsets, split_sides(side), left_seg, right_seg, 4, self._plan(5)
        )
        assert list(new_off) == [0, 2, 3, 4, 5]
        # new seg 0 = left of old seg 0 (elements 0, 2 in order)
        assert list(perm[0:2]) == [0, 2]
        assert list(perm[2:3]) == [4]  # left of old seg 1
        assert list(perm[3:4]) == [1]  # right of old seg 0
        assert list(perm[4:5]) == [3]  # right of old seg 1

    def test_dropped_side_maps(self):
        d = GpuDevice(TITAN_X_PASCAL)
        offsets = np.array([0, 4])
        side = np.array([0, 1, 0, 1], dtype=np.int8)
        perm, new_off = partition_segments(
            d, offsets, split_sides(side), np.array([0]), np.array([-1]), 1, self._plan(4)
        )
        assert list(new_off) == [0, 2]
        assert list(perm) == [0, 2]  # elements 1 and 3 are dropped

    def test_dropped_elements(self):
        d = GpuDevice(TITAN_X_PASCAL)
        offsets = np.array([0, 3])
        side = np.array([0, -1, 1], dtype=np.int8)
        perm, new_off = partition_segments(
            d, offsets, split_sides(side), np.array([0]), np.array([1]), 2, self._plan(3)
        )
        assert list(perm) == [0, 2]  # element 1 is dropped
        assert list(new_off) == [0, 1, 2]

    def test_passes_multiply_recorded_work(self):
        d1 = GpuDevice(TITAN_X_PASCAL)
        d8 = GpuDevice(TITAN_X_PASCAL)
        offsets = np.array([0, 100])
        side = np.zeros(100, dtype=np.int8)
        one = plan_partition(100, 1, max_counter_mem_bytes=2**30)
        import dataclasses

        many = dataclasses.replace(one, passes=8)
        sides = split_sides(side)
        partition_segments(d1, offsets, sides, np.array([0]), np.array([1]), 2, one)
        partition_segments(d8, offsets, sides, np.array([0]), np.array([1]), 2, many)
        k1 = [k for k in d1.ledger.kernels if k.name == "histogram_partition"][0]
        k8 = [k for k in d8.ledger.kernels if k.name == "histogram_partition"][0]
        assert k8.work.elements == 8 * k1.work.elements
        assert k8.launches == 8

    def test_bad_segment_maps(self):
        d = GpuDevice(TITAN_X_PASCAL)
        with pytest.raises(ValueError):
            partition_segments(
                d, np.array([0, 1]), split_sides(np.array([0], dtype=np.int8)),
                np.array([5]), np.array([0]), 2, self._plan(1),
            )
