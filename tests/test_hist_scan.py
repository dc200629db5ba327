"""Level-wide histogram split scan: differential fuzz against a loop oracle.

:func:`repro.approx.histops.scan_histograms` evaluates every candidate of a
level in one vectorized pass.  The oracle below is the straightforward
per-attribute loop it replaced: for each attribute, the best interior cut
by first maximum, then the present|missing boundary, each taken only when
strictly better than the running best.  The two must agree on all seven
outputs, values and dtypes, including ties, nodes with no valid candidate,
``lambda_ = 0``, fixed-point magnitudes at the ``2**50`` bound of
:func:`repro.approx.fixedpoint.choose_shift`, the multi-chunk path and
sparse levels, where the vectorized scan scores only occupied bins and the
oracle still scores every one.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.approx import histops
from repro.approx.fixedpoint import inv_scale
from repro.approx.histops import scan_histograms
from repro.core.split import eq2_gain, quantize_gain

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def loop_scan(hist_gq, hist_hq, hist_c, node_gq, node_hq, node_n, bin_offset, shift, lambda_):
    """Per-attribute reference scan (the oracle)."""
    inv = inv_scale(shift)
    n_active = hist_gq.shape[0]
    d = bin_offset.size - 1
    node_g = node_gq * inv
    node_h = node_hq * inv

    best_gain = np.full(n_active, -np.inf)
    best_attr = np.full(n_active, -1, dtype=np.int64)
    best_cut = np.full(n_active, -1, dtype=np.int64)
    best_dir = np.zeros(n_active, dtype=bool)
    best_lgq = np.zeros(n_active, dtype=np.int64)
    best_lhq = np.zeros(n_active, dtype=np.int64)
    best_ln = np.zeros(n_active, dtype=np.int64)

    for a in range(d):
        lo, hi = int(bin_offset[a]), int(bin_offset[a + 1])
        nb = hi - lo
        cgq = np.cumsum(hist_gq[:, lo:hi], axis=1)
        chq = np.cumsum(hist_hq[:, lo:hi], axis=1)
        cc = np.cumsum(hist_c[:, lo:hi], axis=1)
        gq_present = cgq[:, -1]
        hq_present = chq[:, -1]
        c_present = cc[:, -1]
        gq_miss = node_gq - gq_present
        hq_miss = node_hq - hq_present
        n_miss = node_n - c_present

        # interior boundaries: cut k in 1..nb-1, left = bins [0, k)
        if nb > 1:
            glq = cgq[:, :-1]
            hlq = chq[:, :-1]
            cl = cc[:, :-1]
            valid = (cl > 0) & (cl < c_present[:, None])
            gain_mr = quantize_gain(
                eq2_gain(glq * inv, hlq * inv, node_g[:, None], node_h[:, None], lambda_)
            )
            gain_ml = quantize_gain(
                eq2_gain(
                    (glq + gq_miss[:, None]) * inv,
                    (hlq + hq_miss[:, None]) * inv,
                    node_g[:, None],
                    node_h[:, None],
                    lambda_,
                )
            )
            dirs = gain_ml >= gain_mr
            gains = np.where(valid, np.maximum(gain_ml, gain_mr), -np.inf)
            kbest = np.argmax(gains, axis=1)
            rows = np.arange(n_active)
            cand = gains[rows, kbest]
            better = cand > best_gain
            if better.any():
                bsel = np.flatnonzero(better)
                kb = kbest[bsel]
                best_gain[bsel] = cand[bsel]
                best_attr[bsel] = a
                best_cut[bsel] = kb + 1
                dsel = dirs[bsel, kb]
                best_dir[bsel] = dsel
                best_lgq[bsel] = glq[bsel, kb] + np.where(dsel, gq_miss[bsel], 0)
                best_lhq[bsel] = hlq[bsel, kb] + np.where(dsel, hq_miss[bsel], 0)
                best_ln[bsel] = cl[bsel, kb] + np.where(dsel, n_miss[bsel], 0)

        # present | missing boundary
        sp_ok = (n_miss > 0) & (c_present > 0)
        sp_gain = np.where(
            sp_ok,
            quantize_gain(
                eq2_gain(gq_present * inv, hq_present * inv, node_g, node_h, lambda_)
            ),
            -np.inf,
        )
        better = sp_gain > best_gain
        if better.any():
            bsel = np.flatnonzero(better)
            best_gain[bsel] = sp_gain[bsel]
            best_attr[bsel] = a
            best_cut[bsel] = nb
            best_dir[bsel] = False
            best_lgq[bsel] = gq_present[bsel]
            best_lhq[bsel] = hq_present[bsel]
            best_ln[bsel] = c_present[bsel]

    return best_gain, best_attr, best_cut, best_dir, best_lgq, best_lhq, best_ln


def random_level(rng, n_active, nbins, bound, dup_attrs=False, empty=(), empty_frac=0.3):
    """Integer histogram tables of one level plus node totals.

    Cells are nonnegative counts with gradient sums in ``[-bound, bound]``
    and hessian sums in ``[0, bound]``; about ``empty_frac`` of them are
    empty (all three sums 0, as in accumulated tables).  Node totals cover
    every attribute's present rows plus some missing ones.  ``dup_attrs``
    appends a copy of the first attribute (exact gain ties across
    attributes); nodes listed in ``empty`` hold no rows at all (no valid
    candidate).
    """
    nbins = list(nbins)
    if dup_attrs:
        nbins.append(nbins[0])
    bin_offset = np.concatenate([[0], np.cumsum(nbins)]).astype(np.int64)
    total = int(bin_offset[-1])
    c = rng.integers(0, 4, size=(n_active, total), dtype=np.int64)
    c[rng.random(c.shape) < empty_frac] = 0
    gq = np.where(c > 0, rng.integers(-bound, bound + 1, size=c.shape, dtype=np.int64), 0)
    hq = np.where(c > 0, rng.integers(0, bound + 1, size=c.shape, dtype=np.int64), 0)
    if dup_attrs:
        lo, hi = bin_offset[0], bin_offset[1]
        for t in (c, gq, hq):
            t[:, total - (hi - lo):] = t[:, lo:hi]
    for r in empty:
        if r < n_active:
            c[r] = gq[r] = hq[r] = 0

    def present(t):
        return np.add.reduceat(t, bin_offset[:-1], axis=1) if n_active else t[:, :0]

    node_n = present(c).max(axis=1, initial=0) + rng.integers(0, 3, size=n_active)
    node_gq = rng.integers(-bound, bound + 1, size=n_active, dtype=np.int64)
    node_hq = present(hq).max(axis=1, initial=0) + rng.integers(0, bound + 1, size=n_active)
    for r in empty:
        if r < n_active:
            node_n[r] = node_gq[r] = node_hq[r] = 0
    return gq, hq, c, node_gq, node_hq, node_n.astype(np.int64), bin_offset


def assert_same(got, want):
    assert len(got) == len(want) == 7
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestDifferential:
    @given(
        n_active=st.integers(0, 9),
        nbins=st.lists(st.integers(1, 7), min_size=1, max_size=6),
        bound=st.sampled_from([1, 5, 1000, 2**40, 2**49, 2**50 - 1]),
        shift=st.sampled_from([0, 10, 25, 40]),
        lambda_=st.sampled_from([0.0, 0.5, 1.0]),
        dup_attrs=st.booleans(),
        empty=st.lists(st.integers(0, 8), max_size=3),
        cells=st.sampled_from([1, 3, 7, 40, 1 << 16]),
        empty_frac=st.sampled_from([0.0, 0.3, 0.9, 0.99]),
        seed=st.integers(0, 2**16),
    )
    @FUZZ
    def test_matches_loop_oracle(
        self, n_active, nbins, bound, shift, lambda_, dup_attrs, empty, cells, empty_frac, seed
    ):
        rng = np.random.default_rng(seed)
        level = random_level(rng, n_active, nbins, bound, dup_attrs, empty, empty_frac)
        with np.errstate(over="ignore"), mock.patch.object(histops, "_SCAN_CELLS", cells):
            got = scan_histograms(*level, shift, lambda_)
        with np.errstate(over="ignore"):
            want = loop_scan(*level, shift, lambda_)
        assert_same(got, want)
        for r in empty:
            if r < n_active:
                assert got[1][r] == -1 and got[2][r] == -1 and got[0][r] == -np.inf

    def test_duplicate_attribute_tie_goes_to_first(self):
        rng = np.random.default_rng(3)
        level = random_level(rng, 6, [5, 3], 1000, dup_attrs=True)
        got = scan_histograms(*level, 20, 1.0)
        assert_same(got, loop_scan(*level, 20, 1.0))
        assert not np.any(got[1] == 2), "a duplicate attribute must never beat its original"

    def test_single_bin_attributes_only_split_on_missing(self):
        rng = np.random.default_rng(4)
        level = random_level(rng, 8, [1, 1, 1], 50)
        got = scan_histograms(*level, 10, 0.0)
        assert_same(got, loop_scan(*level, 10, 0.0))
        split = got[1] >= 0
        assert split.any()
        np.testing.assert_array_equal(got[2][split], 1)
        assert not got[3].any()

    def test_no_valid_candidate(self):
        gq, hq, c, node_gq, node_hq, node_n, off = random_level(
            np.random.default_rng(5), 4, [3, 2], 10, empty=(0, 1, 2, 3)
        )
        got = scan_histograms(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0)
        assert_same(got, loop_scan(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0))
        np.testing.assert_array_equal(got[0], -np.inf)
        np.testing.assert_array_equal(got[1], -1)
        np.testing.assert_array_equal(got[2], -1)

    def test_leading_empty_bins(self):
        """Every node's first bins are empty: the slots over them have an
        empty left side, so the best cut lies past them."""
        rng = np.random.default_rng(7)
        gq, hq, c, *node, off = random_level(rng, 6, [6, 4], 1000, empty_frac=0.0)
        for t in (gq, hq, c):
            t[:, :3] = 0
            t[:, 6:8] = 0
        node[2] = np.maximum(node[2], 1)
        got = scan_histograms(gq, hq, c, *node, off, 10, 1.0)
        assert_same(got, loop_scan(gq, hq, c, *node, off, 10, 1.0))
        interior = (got[1] >= 0) & (got[2] < np.diff(off)[np.maximum(got[1], 0)])
        assert interior.any()
        assert (got[2][interior & (got[1] == 0)] > 3).all()
        assert (got[2][interior & (got[1] == 1)] > 2).all()

    def test_attribute_with_all_bins_empty_keeps_only_its_boundary(self):
        """In node 0 attribute 1 has no present row: only its boundary is a
        candidate, and it is invalid (nothing present to send left)."""
        rng = np.random.default_rng(8)
        gq, hq, c, node_gq, node_hq, node_n, off = random_level(rng, 4, [3, 5, 2], 1000)
        for t in (gq, hq, c):
            t[0, 3:8] = 0
        node_n = node_n + 2  # missing rows on every attribute
        got = scan_histograms(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0)
        assert_same(got, loop_scan(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0))
        assert got[1][0] != 1
        # with every other attribute emptied too, node 0 has no candidate
        for t in (gq, hq, c):
            t[0] = 0
        got = scan_histograms(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0)
        assert_same(got, loop_scan(gq, hq, c, node_gq, node_hq, node_n, off, 10, 1.0))
        assert got[1][0] == -1 and got[0][0] == -np.inf

    def test_cross_attribute_tie_after_empty_bin_goes_to_first(self):
        """Attribute 1 = (empty, x, empty, y) ties attribute 0 = (x, y) at
        its slot after the leading empty bin (and again after the middle
        one); the first maximum must stay on attribute 0's cut 1."""
        x = (np.array([[-300]]), np.array([[40]]), np.array([[3]]))
        y = (np.array([[500]]), np.array([[60]]), np.array([[5]]))
        z = (np.zeros((1, 1), dtype=np.int64),) * 3
        gq, hq, c = (
            np.concatenate([xi, yi, zi, xi, zi, yi], axis=1).astype(np.int64)
            for xi, yi, zi in zip(x, y, z)
        )
        off = np.array([0, 2, 6], dtype=np.int64)
        node = (np.array([200]), np.array([100]), np.array([8]))  # nothing missing
        got = scan_histograms(gq, hq, c, *node, off, 0, 1.0)
        assert_same(got, loop_scan(gq, hq, c, *node, off, 0, 1.0))
        assert got[0][0] > 0
        assert (got[1][0], got[2][0]) == (0, 1)
        # reversed, the tie goes to the occupied slot, never the one after it
        perm = [2, 3, 4, 5, 0, 1]
        off2 = np.array([0, 4, 6], dtype=np.int64)
        got = scan_histograms(gq[:, perm], hq[:, perm], c[:, perm], *node, off2, 0, 1.0)
        assert_same(got, loop_scan(gq[:, perm], hq[:, perm], c[:, perm], *node, off2, 0, 1.0))
        assert (got[1][0], got[2][0]) == (0, 2)

    def test_row_prefix_sum_wrapping_int64_stays_exact(self):
        """9000 one-bin attributes at the 2**50 cell bound: the level-wide
        running sum passes 2**63 and wraps, the per-attribute sums do not."""
        rng = np.random.default_rng(6)
        n, total = 2, 9000
        c = np.ones((n, total), dtype=np.int64)
        hq = np.full((n, total), 2**50 - 1, dtype=np.int64)
        gq = rng.integers(-(2**50), 2**50, size=(n, total), dtype=np.int64)
        assert int(hq[0].astype(object).sum()) > np.iinfo(np.int64).max
        node = (
            rng.integers(-(2**50), 2**50, size=n, dtype=np.int64),
            np.full(n, 2**50 + 5, dtype=np.int64),
            np.full(n, 2, dtype=np.int64),
        )
        off = np.arange(total + 1, dtype=np.int64)
        got = scan_histograms(gq, hq, c, *node, off, 0, 1.0)
        assert_same(got, loop_scan(gq, hq, c, *node, off, 0, 1.0))
        assert (got[1] >= 0).all()


def _scan_peak_bytes(n_nodes, nbins, empty_frac=0.3):
    rng = np.random.default_rng(0)
    level = random_level(rng, n_nodes, nbins, 2**20, empty_frac=empty_frac)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        scan_histograms(*level, 20, 1.0)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_nodes():
    """Row chunking keeps the scan's temporaries at a fixed cell budget: a
    128-node level peaks no higher than a 16-node level over the same
    ~20k bins, and below the size of one int64 input table."""
    nbins = [250] * 80
    small = _scan_peak_bytes(16, nbins)
    large = _scan_peak_bytes(128, nbins)
    assert large <= small + 64 * 1024, (small, large)
    assert large < 128 * sum(nbins) * 8, large


def test_sparse_scan_memory_does_not_grow_with_nodes():
    """The same bound on a deep-level table: 38,400 bins (600 attributes x
    64, as ``e2006-hist``) at 95% empty cells, where a chunk holds many
    more rows than on a dense level."""
    nbins = [64] * 600
    small = _scan_peak_bytes(16, nbins, empty_frac=0.95)
    large = _scan_peak_bytes(128, nbins, empty_frac=0.95)
    assert large <= small + 64 * 1024, (small, large)
    assert large < 128 * sum(nbins) * 8, large
