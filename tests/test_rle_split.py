"""Tests for RLE node splitting: Directly-Split-RLE (Fig. 7) must equal the
decompress -> partition -> recompress path (Fig. 6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import plan_partition, partition_segments
from repro.core.rle_split import split_runs_direct, split_runs_with_decompression
from repro.data.rle import encode_segments
from repro.gpusim import GpuDevice, TITAN_X_PASCAL


def dev():
    return GpuDevice(TITAN_X_PASCAL)


def make_state(values, offsets):
    return encode_segments(np.asarray(values, float), np.asarray(offsets, np.int64))


def element_partition(device, offsets, side, left_seg, right_seg, n_new):
    plan = plan_partition(int(offsets[-1]), 1, max_counter_mem_bytes=2**30)
    return partition_segments(device, offsets, side, left_seg, right_seg, n_new, plan)


class TestFig7Example:
    def test_each_run_splits_into_at_most_two(self):
        """A run whose instances straddle the split yields a left part and a
        right part; single-sided runs yield one (zero-length removed)."""
        values = [3.0, 3.0, 3.0, 1.0, 1.0]
        offsets = np.array([0, 5])
        rle = make_state(values, offsets)
        #           3s: L, R, L     1s: R, R
        side = np.array([0, 1, 0, 1, 1], dtype=np.int8)
        out = split_runs_direct(dev(), rle, side, np.array([0]), np.array([1]), 2)
        # left child: run (3.0, len 2); right child: (3.0, 1), (1.0, 2)
        assert list(out.run_values) == [3.0, 3.0, 1.0]
        assert list(out.run_lengths) == [2, 1, 2]
        assert list(out.run_offsets) == [0, 1, 3]

    def test_zero_length_runs_removed(self):
        """'We use prefix sum to remove the RLE element with length of 0.'"""
        values = [2.0, 2.0, 1.0]
        rle = make_state(values, np.array([0, 3]))
        side = np.array([0, 0, 0], dtype=np.int8)  # everything goes left
        out = split_runs_direct(dev(), rle, side, np.array([0]), np.array([1]), 2)
        assert out.n_runs == 2  # no empty right-side runs survive
        assert list(out.run_offsets) == [0, 2, 2]

    def test_dropped_segment(self):
        rle = make_state([5.0, 5.0], np.array([0, 2]))
        side = np.array([-1, -1], dtype=np.int8)
        out = split_runs_direct(dev(), rle, side, np.array([-1]), np.array([-1]), 1)
        assert out.n_runs == 0
        assert list(out.run_offsets) == [0, 0]

    def test_misaligned_side_rejected(self):
        rle = make_state([1.0], np.array([0, 1]))
        with pytest.raises(ValueError):
            split_runs_direct(dev(), rle, np.zeros(5, np.int8), np.array([0]), np.array([1]), 2)

    def test_map_past_new_segments_rejected(self):
        """Same typed error as ``partition_segments`` for the same maps."""
        rle = make_state([2.0, 1.0], np.array([0, 2]))
        side = np.array([0, 1], dtype=np.int8)
        with pytest.raises(ValueError, match="past n_new_segments"):
            split_runs_direct(dev(), rle, side, np.array([0]), np.array([5]), 2)
        with pytest.raises(ValueError, match="past n_new_segments"):
            element_partition(dev(), np.array([0, 2]), side, np.array([0]), np.array([5]), 2)


class TestEquivalenceWithDecompression:
    def _both(self, values, offsets, side, left_seg, right_seg, n_new):
        rle = make_state(values, offsets)
        direct = split_runs_direct(
            dev(), rle, side, np.asarray(left_seg), np.asarray(right_seg), n_new
        )
        d2 = dev()
        dest, new_off = element_partition(
            d2, np.asarray(offsets, np.int64), side,
            np.asarray(left_seg), np.asarray(right_seg), n_new,
        )
        via_decomp = split_runs_with_decompression(d2, rle, dest, new_off)
        return direct, via_decomp

    def test_simple_case(self):
        side = np.array([0, 1, 0, 1, 1], dtype=np.int8)
        a, b = self._both([3.0, 3.0, 3.0, 1.0, 1.0], [0, 5], side, [0], [1], 2)
        assert np.array_equal(a.run_values, b.run_values)
        assert np.array_equal(a.run_lengths, b.run_lengths)
        assert np.array_equal(a.run_offsets, b.run_offsets)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_direct_equals_decompress(self, data):
        """The paper's two splitting strategies are interchangeable."""
        n_seg = data.draw(st.integers(1, 4))
        chunks, offsets = [], [0]
        for _ in range(n_seg):
            seg = sorted(
                data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=0, max_size=8)),
                reverse=True,
            )
            chunks.append(seg)
            offsets.append(offsets[-1] + len(seg))
        values = np.array([v for c in chunks for v in c])
        offsets = np.array(offsets, dtype=np.int64)
        n = values.size
        side = np.array(
            [data.draw(st.sampled_from([0, 1]))] * 0
            + [data.draw(st.sampled_from([0, 1])) for _ in range(n)],
            dtype=np.int8,
        )
        # node-major mapping: children of seg s -> 2s (L) and 2s+1 (R)
        left_seg = np.arange(n_seg) * 2
        right_seg = np.arange(n_seg) * 2 + 1
        a, b = self._both(values, offsets, side, left_seg, right_seg, 2 * n_seg)
        assert np.array_equal(a.run_values, b.run_values)
        assert np.array_equal(a.run_lengths, b.run_lengths)
        assert np.array_equal(a.run_offsets, b.run_offsets)

    def test_with_drops(self):
        side = np.array([0, 1, -1, -1], dtype=np.int8)
        a, b = self._both(
            [4.0, 4.0, 2.0, 2.0], [0, 2, 4], side, [0, -1], [1, -1], 2
        )
        assert np.array_equal(a.run_values, b.run_values)
        assert np.array_equal(a.run_lengths, b.run_lengths)


class TestCostShape:
    def test_direct_moves_fewer_bytes_than_decompression(self):
        """The point of Fig. 7: no full decompress/recompress round trip."""
        rng = np.random.default_rng(0)
        values = np.sort(rng.choice([1.0, 2.0, 3.0], size=4000))[::-1]
        offsets = np.array([0, 4000])
        side = (rng.random(4000) < 0.5).astype(np.int8)
        rle = make_state(values, offsets)

        d_direct = dev()
        split_runs_direct(d_direct, rle, side, np.array([0]), np.array([1]), 2)

        d_dec = dev()
        dest, new_off = element_partition(
            d_dec, offsets, side, np.array([0]), np.array([1]), 2
        )
        bytes_dec_before = d_dec.ledger.total_bytes
        split_runs_with_decompression(d_dec, rle, dest, new_off)
        bytes_dec = d_dec.ledger.total_bytes - bytes_dec_before

        assert d_direct.ledger.total_bytes < bytes_dec
