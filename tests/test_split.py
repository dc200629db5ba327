"""Tests for split finding: Eq. (2) gains against brute force, duplicate
suppression, missing-value direction, RLE/sparse equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.split import (
    SegmentLayout,
    eq2_gain,
    find_best_splits_rle,
    find_best_splits_sparse,
    quantize_gain,
)
from repro.data import build_sorted_columns, encode_segments
from repro.gpusim import GpuDevice, TITAN_X_PASCAL
from tests.conftest import random_csr

LAM = 1.0


def brute_force_best(X, g, h, lam=LAM):
    """Exhaustive candidate enumeration straight from Eq. (2): for every
    attribute, every way of cutting the descending value order (plus the
    present|missing boundary), trying missing on both sides."""
    n, d = X.shape
    G, H = g.sum(), h.sum()
    best = (-np.inf, None)  # (gain, (attr, left_instance_set, default_left))
    for a in range(d):
        entries = [(X.get(i, a), i) for i in range(n) if X.get(i, a) is not None]
        entries.sort(key=lambda t: (-t[0], t[1]))
        present = [i for _, i in entries]
        missing = [i for i in range(n) if i not in present]
        vals = [v for v, _ in entries]
        cuts = [k for k in range(1, len(entries)) if vals[k] != vals[k - 1]]
        if missing and entries:
            cuts.append(len(entries))  # present | missing boundary
        for k in cuts:
            left = present[:k]
            gl = sum(g[i] for i in left)
            hl = sum(h[i] for i in left)
            for miss_left in (True, False):
                if k == len(entries) and miss_left:
                    continue  # everything left: not a split
                gl2 = gl + (sum(g[i] for i in missing) if miss_left else 0.0)
                hl2 = hl + (sum(h[i] for i in missing) if miss_left else 0.0)
                gain = float(quantize_gain(eq2_gain(
                    np.float64(gl2), np.float64(hl2), G, H, lam
                )))
                if gain > best[0] + 1e-10:
                    best = (gain, a)
    return best


def run_sparse(X, g, h, lam=LAM, device=None):
    device = device or GpuDevice(TITAN_X_PASCAL)
    cols = build_sorted_columns(X.to_csc())
    layout = SegmentLayout(cols.col_offsets, 1, X.n_cols)
    return find_best_splits_sparse(
        device, cols.values, cols.inst, layout, g, h,
        np.array([g.sum()]), np.array([h.sum()]), np.array([X.n_rows]),
        lambda_=lam,
    )


def run_rle(X, g, h, lam=LAM):
    device = GpuDevice(TITAN_X_PASCAL)
    cols = build_sorted_columns(X.to_csc())
    rle = encode_segments(cols.values, cols.col_offsets)
    layout = SegmentLayout(cols.col_offsets, 1, X.n_cols)
    return find_best_splits_rle(
        device, rle, cols.inst, layout, g, h,
        np.array([g.sum()]), np.array([h.sum()]), np.array([X.n_rows]),
        lambda_=lam,
    )


class TestEq2Gain:
    def test_symmetric_split_of_opposite_gradients(self):
        # two instances g = +-1: splitting them apart is maximally useful
        gain = eq2_gain(np.float64(-1.0), np.float64(2.0), 0.0, 4.0, 1.0)
        assert gain == pytest.approx(0.5 * (1 / 3 + 1 / 3))

    def test_useless_split_zero_gain(self):
        # both sides have proportional G/H -> no improvement
        gain = eq2_gain(np.float64(1.0), np.float64(1.0), 2.0, 2.0, 0.0)
        assert gain == pytest.approx(0.0)

    def test_lambda_shrinks_gain(self):
        g0 = eq2_gain(np.float64(-2.0), np.float64(2.0), 0.0, 4.0, 0.1)
        g1 = eq2_gain(np.float64(-2.0), np.float64(2.0), 0.0, 4.0, 10.0)
        assert g0 > g1

    def test_nonfinite_becomes_neg_inf(self):
        out = eq2_gain(np.float64(1.0), np.float64(0.0), 1.0, 0.0, 0.0)
        assert out == -np.inf

    def test_quantize_flushes_noise(self):
        assert quantize_gain(np.array([1e-13]))[0] == 0.0
        assert quantize_gain(np.array([-np.inf]))[0] == -np.inf
        assert quantize_gain(np.array([0.5]))[0] == pytest.approx(0.5, rel=1e-7)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_best_gain_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        X = random_csr(rng, n=18, d=4, density=0.7, levels=4 if seed % 2 else 0)
        g = rng.normal(size=18)
        h = np.full(18, 2.0)
        expect_gain, _ = brute_force_best(X, g, h)
        got = run_sparse(X, g, h)
        assert got.gain[0] == pytest.approx(expect_gain, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_rle_matches_brute_force_too(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = random_csr(rng, n=16, d=3, density=0.8, levels=3)
        g = rng.normal(size=16)
        h = np.full(16, 2.0)
        expect_gain, _ = brute_force_best(X, g, h)
        got = run_rle(X, g, h)
        assert got.gain[0] == pytest.approx(expect_gain, rel=1e-5, abs=1e-7)


class TestSparseRleEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_split_choice(self, seed):
        rng = np.random.default_rng(200 + seed)
        X = random_csr(rng, n=30, d=5, density=0.6, levels=4)
        g = rng.normal(size=30)
        h = np.full(30, 2.0)
        a = run_sparse(X, g, h)
        b = run_rle(X, g, h)
        assert a.attr[0] == b.attr[0]
        assert a.gain[0] == pytest.approx(b.gain[0], rel=1e-7)
        assert a.elem_pos[0] == b.elem_pos[0]
        assert a.threshold[0] == pytest.approx(b.threshold[0])
        assert a.default_left[0] == b.default_left[0]
        assert a.left_g[0] == pytest.approx(b.left_g[0], abs=1e-9)
        assert a.left_n[0] == b.left_n[0]


class TestDuplicateSuppression:
    def test_cut_inside_value_group_is_invalid(self):
        """'Reset gain of repeated split points': with values [2,2,1] the
        only valid cut is between the 2-group and the 1."""
        from repro.data import CSRMatrix

        X = CSRMatrix.from_rows(
            [[(0, 2.0)], [(0, 2.0)], [(0, 1.0)]], n_cols=1
        )
        g = np.array([-3.0, -3.0, 5.0])  # cutting between the 2s would win
        h = np.full(3, 2.0)
        got = run_sparse(X, g, h)
        # left must contain BOTH 2.0-valued instances
        assert got.left_n[0] == 2
        assert got.left_g[0] == pytest.approx(-6.0)

    def test_all_same_value_no_interior_candidate(self):
        from repro.data import CSRMatrix

        X = CSRMatrix.from_rows([[(0, 1.0)], [(0, 1.0)], [(0, 1.0)]], n_cols=1)
        g = np.array([1.0, -1.0, 1.0])
        got = run_sparse(X, g, np.full(3, 2.0))
        assert not got.found[0]  # no missing either -> nothing to cut


class TestMissingValues:
    def test_default_direction_maximizes_gain(self):
        """Missing mass goes to whichever side yields more gain (II-A)."""
        from repro.data import CSRMatrix

        # instance 2 misses attr 0; its gradient matches the LEFT group
        X = CSRMatrix.from_rows(
            [[(0, 3.0)], [(0, 1.0)], [(1, 9.9)]], n_cols=2
        )
        g = np.array([-4.0, 4.0, -4.0])
        h = np.full(3, 2.0)
        got = run_sparse(X, g, h)
        assert got.attr[0] == 0
        assert bool(got.default_left[0])
        assert got.left_g[0] == pytest.approx(-8.0)  # includes the missing one

    def test_present_vs_missing_boundary_split(self):
        """The boundary candidate separates present from missing entirely."""
        from repro.data import CSRMatrix

        X = CSRMatrix.from_rows(
            [[(0, 1.0)], [(0, 1.0)], [], []], n_cols=1
        )
        g = np.array([-5.0, -5.0, 5.0, 5.0])
        h = np.full(4, 2.0)
        got = run_sparse(X, g, h)
        assert got.found[0]
        assert got.left_n[0] == 2
        assert not bool(got.default_left[0])
        # every present value beats the threshold
        assert got.threshold[0] < 1.0

    def test_empty_attribute_cannot_split(self):
        from repro.data import CSRMatrix

        X = CSRMatrix.from_rows([[(0, 1.0)], []], n_cols=2)
        g = np.array([1.0, -1.0])
        got = run_sparse(X, g, np.full(2, 2.0))
        # attr 1 is entirely missing; only attr 0's boundary candidate exists
        assert got.attr[0] == 0


class TestMultiNode:
    def test_two_nodes_found_independently(self):
        rng = np.random.default_rng(42)
        X = random_csr(rng, n=40, d=3, density=0.9)
        g = rng.normal(size=40)
        h = np.full(40, 2.0)
        cols = build_sorted_columns(X.to_csc())
        device = GpuDevice(TITAN_X_PASCAL)

        # split instances arbitrarily into two "nodes" and build a 2-node
        # layout by partitioning each attribute's list
        node_of = (np.arange(40) % 2).astype(np.int64)
        vals_parts, inst_parts, lens = [], [], []
        for nd in range(2):
            for a in range(3):
                v, i = cols.column(a)
                m = node_of[i] == nd
                vals_parts.append(v[m])
                inst_parts.append(i[m])
                lens.append(int(m.sum()))
        offsets = np.concatenate(([0], np.cumsum(lens)))
        layout = SegmentLayout(offsets, 2, 3)
        node_g = np.array([g[node_of == 0].sum(), g[node_of == 1].sum()])
        node_h = np.array([h[node_of == 0].sum(), h[node_of == 1].sum()])
        node_n = np.array([(node_of == 0).sum(), (node_of == 1).sum()])
        got = find_best_splits_sparse(
            device, np.concatenate(vals_parts), np.concatenate(inst_parts),
            layout, g, h, node_g, node_h, node_n, lambda_=LAM,
        )

        # each node's answer equals a single-node run on its subset
        for nd in range(2):
            sub_rows = np.flatnonzero(node_of == nd)
            Xs = X.select_rows(sub_rows)
            single = run_sparse(Xs, g[sub_rows], h[sub_rows])
            assert got.attr[nd] == single.attr[0]
            assert got.gain[nd] == pytest.approx(single.gain[0], rel=1e-6)

    def test_tie_breaks_to_lowest_attribute(self):
        """Duplicate attribute columns -> identical gains -> lowest wins."""
        from repro.data import CSRMatrix

        rows = [[(0, v), (1, v)] for v in (3.0, 2.0, 1.0, 4.0)]
        X = CSRMatrix.from_rows(rows, n_cols=2)
        g = np.array([1.0, -1.0, 1.0, -1.0])
        got = run_sparse(X, g, np.full(4, 2.0))
        assert got.attr[0] == 0


class TestLayoutHelpers:
    def test_seg_maps(self):
        layout = SegmentLayout(np.zeros(7, dtype=np.int64), 2, 3)
        assert list(layout.seg_node()) == [0, 0, 0, 1, 1, 1]
        assert list(layout.seg_attr()) == [0, 1, 2, 0, 1, 2]
        assert list(layout.node_offsets()) == [0, 3, 6]

    def test_bad_offsets_length(self):
        with pytest.raises(ValueError):
            SegmentLayout(np.zeros(5, dtype=np.int64), 2, 3)

    def test_short_instance_array_rejected(self):
        """One instance id per value, checked up front like the RLE path."""
        values = np.array([3.0, 2.0, 1.0])
        layout = SegmentLayout(np.array([0, 3]), 1, 1)
        g = h = np.ones(3)
        with pytest.raises(ValueError, match="instance array"):
            find_best_splits_sparse(
                GpuDevice(TITAN_X_PASCAL), values, np.array([0, 1]), layout, g, h,
                np.array([3.0]), np.array([3.0]), np.array([3]), lambda_=1.0,
            )


@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_property_gain_never_exceeds_brute_force(seed, rnd):
    """The selected gain is the maximum over all legal candidates."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 14))
    X = random_csr(rng, n=n, d=2, density=0.7, levels=int(rng.integers(0, 4)))
    g = rng.normal(size=n)
    h = np.full(n, 2.0)
    expect_gain, _ = brute_force_best(X, g, h)
    got = run_sparse(X, g, h)
    got_gain = got.gain[0] if got.found[0] else -np.inf
    if np.isfinite(expect_gain) or np.isfinite(got_gain):
        assert got_gain == pytest.approx(expect_gain, rel=1e-5, abs=1e-7)
