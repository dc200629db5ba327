"""Tests for the device primitives, including hypothesis property tests
against per-segment NumPy references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import GpuDevice, TITAN_X_PASCAL
from repro.gpusim.primitives import (
    argmax_first,
    bincount_sum,
    check_offsets,
    exclusive_cumsum,
    gather,
    seg_ids,
    segment_order_desc,
    segment_sort_desc,
    segmented_argmax,
    segmented_inclusive_cumsum,
    segmented_sum,
    stream_compact,
    two_way_partition,
)


def dev() -> GpuDevice:
    return GpuDevice(TITAN_X_PASCAL)


@st.composite
def segmented_array(draw, max_segments=8, max_len=12, elements=None):
    """A (values, offsets) pair with possibly-empty segments."""
    n_seg = draw(st.integers(0, max_segments))
    lens = [draw(st.integers(0, max_len)) for _ in range(n_seg)]
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    n = int(offsets[-1])
    elt = elements if elements is not None else st.floats(-100, 100, allow_nan=False, width=32)
    values = np.array([draw(elt) for _ in range(n)], dtype=np.float64)
    return values, offsets


class TestCheckOffsets:
    def test_valid(self):
        out = check_offsets(np.array([0, 2, 2, 5]), 5)
        assert out.dtype == np.int64

    def test_bad_span(self):
        with pytest.raises(ValueError, match="span"):
            check_offsets(np.array([0, 3]), 5)

    def test_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            check_offsets(np.array([0, 3, 2, 5]), 5)

    def test_seg_ids(self):
        ids = seg_ids(np.array([0, 2, 2, 4]), 4)
        assert list(ids) == [0, 0, 2, 2]


class TestScans:
    def test_exclusive_cumsum_basic(self):
        out = exclusive_cumsum(dev(), np.array([1, 2, 3]))
        assert list(out) == [0, 1, 3]

    def test_exclusive_cumsum_empty(self):
        assert exclusive_cumsum(dev(), np.array([])).size == 0

    def test_segmented_cumsum_resets_at_boundaries(self):
        out = segmented_inclusive_cumsum(
            dev(), np.array([1.0, 1, 1, 1, 1]), np.array([0, 2, 5])
        )
        assert list(out) == [1, 2, 1, 2, 3]

    def test_segmented_cumsum_int_input(self):
        out = segmented_inclusive_cumsum(dev(), np.array([1, 2, 3]), np.array([0, 3]))
        assert out.dtype == np.int64
        assert list(out) == [1, 3, 6]

    @given(segmented_array())
    @settings(max_examples=60, deadline=None)
    def test_segmented_cumsum_matches_per_segment_reference(self, va):
        values, offsets = va
        out = segmented_inclusive_cumsum(dev(), values, offsets)
        for s in range(offsets.size - 1):
            seg = values[offsets[s] : offsets[s + 1]]
            ref = np.cumsum(seg)
            assert np.allclose(out[offsets[s] : offsets[s + 1]], ref, atol=1e-9)

    @given(segmented_array())
    @settings(max_examples=60, deadline=None)
    def test_segmented_sum_matches_reference(self, va):
        values, offsets = va
        out = segmented_sum(dev(), values, offsets)
        for s in range(offsets.size - 1):
            assert out[s] == pytest.approx(values[offsets[s] : offsets[s + 1]].sum(), abs=1e-9)


class TestArgmax:
    def test_empty_segment_yields_sentinel(self):
        mx, am = segmented_argmax(dev(), np.array([1.0, 2.0]), np.array([0, 0, 2]))
        assert mx[0] == -np.inf and am[0] == -1
        assert mx[1] == 2.0 and am[1] == 1

    def test_first_max_wins(self):
        """Tie-breaking rule the split selection relies on."""
        mx, am = segmented_argmax(dev(), np.array([5.0, 5.0, 5.0]), np.array([0, 3]))
        assert am[0] == 0

    def test_all_minus_inf(self):
        mx, am = segmented_argmax(dev(), np.array([-np.inf, -np.inf]), np.array([0, 2]))
        assert am[0] == 0  # still an index; caller filters on finiteness

    @given(segmented_array())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, va):
        values, offsets = va
        mx, am = segmented_argmax(dev(), values, offsets)
        for s in range(offsets.size - 1):
            seg = values[offsets[s] : offsets[s + 1]]
            if seg.size == 0:
                assert am[s] == -1
            else:
                assert mx[s] == seg.max()
                assert am[s] == offsets[s] + int(np.argmax(seg))

    def test_argmax_first_whole_array(self):
        assert argmax_first(dev(), np.array([1.0, 9.0, 9.0])) == 1

    def test_argmax_first_empty_raises(self):
        with pytest.raises(ValueError):
            argmax_first(dev(), np.array([]))


class TestGatherBincount:
    def test_gather(self):
        out = gather(dev(), np.array([10.0, 20.0, 30.0]), np.array([2, 0]))
        assert list(out) == [30.0, 10.0]

    def test_bincount_sum(self):
        out = bincount_sum(dev(), np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]), 3)
        assert list(out) == [4.0, 2.0, 0.0]

    def test_bincount_out_of_range(self):
        with pytest.raises(ValueError):
            bincount_sum(dev(), np.array([5]), np.array([1.0]), 3)


class TestTwoWayPartition:
    def test_fig2_style_split(self):
        """The paper's order-preserving partition example shape."""
        offsets = np.array([0, 4])
        side = np.array([0, 1, 0, 1], dtype=np.int8)
        dest, new_off = two_way_partition(dev(), offsets, side)
        assert list(dest) == [0, 2, 1, 3]
        assert list(new_off) == [0, 2, 4]

    def test_drop_elements(self):
        dest, new_off = two_way_partition(
            dev(), np.array([0, 3]), np.array([0, -1, 1], dtype=np.int8)
        )
        assert dest[1] == -1
        assert list(new_off) == [0, 1, 2]

    def test_bad_side_values(self):
        with pytest.raises(ValueError):
            two_way_partition(dev(), np.array([0, 1]), np.array([2], dtype=np.int8))

    @given(segmented_array(), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_order_preservation_property(self, va, rnd):
        """Within each child, elements keep their original relative order --
        the invariant that keeps attribute values sorted (Fig. 2)."""
        values, offsets = va
        n = values.size
        side = np.array([rnd.choice([-1, 0, 1]) for _ in range(n)], dtype=np.int8)
        dest, new_off = two_way_partition(dev(), offsets, side)
        n_new = int(new_off[-1])
        out = np.full(n_new, np.nan)
        keep = dest >= 0
        out[dest[keep]] = values[keep]
        assert not np.isnan(out).any()
        for s in range(offsets.size - 1):
            seg = slice(offsets[s], offsets[s + 1])
            for child, mask_val in ((2 * s, 0), (2 * s + 1, 1)):
                expected = values[seg][side[seg] == mask_val]
                got = out[new_off[child] : new_off[child + 1]]
                assert np.array_equal(got, expected)


class TestStreamCompact:
    def test_basic(self):
        dest, count = stream_compact(dev(), np.array([True, False, True, True]))
        assert count == 3
        assert list(dest) == [0, -1, 1, 2]

    def test_empty(self):
        dest, count = stream_compact(dev(), np.array([], dtype=bool))
        assert count == 0 and dest.size == 0

    @given(st.lists(st.booleans(), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_property(self, mask):
        mask = np.array(mask, dtype=bool)
        dest, count = stream_compact(dev(), mask)
        assert count == mask.sum()
        assert sorted(dest[mask]) == list(range(count))
        assert np.all(dest[~mask] == -1)


class TestSegmentSort:
    def test_descending_stable(self):
        vals = np.array([1.0, 3.0, 3.0, 2.0])
        payload = np.array([0, 1, 2, 3])
        sv, sp = segment_sort_desc(dev(), vals, payload, np.array([0, 4]))
        assert list(sv) == [3.0, 3.0, 2.0, 1.0]
        assert list(sp) == [1, 2, 3, 0]  # equal values keep payload order

    def test_respects_segments(self):
        vals = np.array([1.0, 2.0, 5.0, 0.0])
        sv, _ = segment_sort_desc(dev(), vals, np.arange(4), np.array([0, 2, 4]))
        assert list(sv) == [2.0, 1.0, 5.0, 0.0]

    @given(segmented_array())
    @settings(max_examples=40, deadline=None)
    def test_property_sorted_desc_per_segment(self, va):
        values, offsets = va
        sv, sp = segment_sort_desc(dev(), values, np.arange(values.size), offsets)
        for s in range(offsets.size - 1):
            seg = sv[offsets[s] : offsets[s + 1]]
            assert np.all(np.diff(seg) <= 0)
            # same multiset of values per segment
            assert sorted(seg) == sorted(values[offsets[s] : offsets[s + 1]])

    def test_misaligned_payload_raises(self):
        with pytest.raises(ValueError):
            segment_sort_desc(dev(), np.ones(3), np.ones(2), np.array([0, 3]))

    @given(
        segmented_array(
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324]),
                st.floats(allow_nan=False, width=64),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_keyed_order_equals_lexsort(self, va):
        """Ties (``-0.0`` ties ``0.0``), infinities and empty segments: the
        rank-keyed permutation is exactly ``lexsort``'s."""
        values, offsets = va
        sid = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        expected = np.lexsort((-values, sid))
        np.testing.assert_array_equal(segment_order_desc(values, offsets), expected)
        sv, sp = segment_sort_desc(dev(), values, np.arange(values.size), offsets)
        np.testing.assert_array_equal(sp, expected)
        np.testing.assert_array_equal(sv.view(np.int64), values[expected].view(np.int64))

    @pytest.mark.parametrize("offsets", [[0], [0, 0], [0, 0, 0, 0]])
    def test_rank_keyed_order_empty(self, offsets):
        order = segment_order_desc(np.empty(0), np.array(offsets))
        assert order.dtype == np.int64 and order.size == 0
        sv, sp = segment_sort_desc(dev(), np.empty(0), np.empty(0, np.int64), np.array(offsets))
        assert sv.size == sp.size == 0

    @pytest.mark.parametrize("runs", [False, True])
    def test_both_sorts_equal_lexsort(self, runs):
        """Ties spread apart take the rank-keyed sort; the same multiset
        laid out in runs of equal values takes ``lexsort``.  Both orders are
        ``lexsort``'s, ``-0.0`` tying ``0.0``."""
        rng = np.random.default_rng(7)
        pool = np.array([2.0, -0.0, 1.0, 0.0, -1.0, 3.0])
        if runs:
            values = np.repeat(pool[rng.integers(0, pool.size, 40)], 5)
        else:
            # consecutive picks never repeat a pool index, so only the two
            # zeros can compare equal to their neighbour
            idx = np.cumsum(rng.integers(1, pool.size, 200)) % pool.size
            values = pool[idx]
        changes = np.count_nonzero(values[1:] != values[:-1])
        assert (2 * changes <= values.size) == runs
        offsets = np.array([0, 0, 37, 150, 150, 200])
        sid = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        np.testing.assert_array_equal(
            segment_order_desc(values, offsets), np.lexsort((-values, sid))
        )
