"""Exact split finding across score chunks, against a per-segment loop.

``find_best_splits_sparse`` / ``find_best_splits_rle`` score candidates
``split._SCORE_CHUNK`` at a time and broadcast per-segment constants with
``np.repeat`` over each chunk's slice of every segment.  The oracle below
walks every segment's candidates in a plain Python loop, so agreement on
every ``NodeBestSplits`` field, bit for bit, is the check.  The chunk
constant is patched small so that levels span many chunks, segments
straddle chunk edges, and chunks start inside runs of repeated values.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import split
from repro.core.split import (
    SegmentLayout,
    eq2_gain,
    find_best_splits_rle,
    find_best_splits_sparse,
    quantize_gain,
)
from repro.core.workspace import WorkspaceArena
from repro.data import encode_segments
from repro.gpusim import TITAN_X_PASCAL, GpuDevice
from repro.gpusim.primitives import segmented_inclusive_cumsum, segmented_sum

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIELDS = (
    "gain", "attr", "seg", "elem_pos", "threshold", "default_left", "left_g", "left_h", "left_n",
)


def node_major_level(rng, n_rows, n_attrs, n_nodes, levels, density):
    """A level's node-major segmentation: instance -> node at random, each
    (node, attribute) segment holds the node's present values descending.
    Node 0 is empty when ``n_nodes > 1``, and attribute 0 is missing for
    every instance of the last node, so empty segments always occur."""
    dense = rng.normal(size=(n_rows, n_attrs))
    if levels:
        dense = np.round(dense * levels) / levels  # repeated values
    present = rng.random((n_rows, n_attrs)) < density
    node = rng.integers(1 if n_nodes > 1 else 0, n_nodes, size=n_rows)
    present[node == n_nodes - 1, 0] = False
    values, inst, lens = [], [], []
    for j in range(n_nodes):
        for a in range(n_attrs):
            rows = np.flatnonzero((node == j) & present[:, a])
            rows = rows[np.argsort(-dense[rows, a], kind="stable")]
            values.append(dense[rows, a])
            inst.append(rows)
            lens.append(rows.size)
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    g = rng.normal(size=n_rows)
    h = rng.uniform(0.1, 1.0, size=n_rows)
    node_g = np.bincount(node, weights=g, minlength=n_nodes)
    node_h = np.bincount(node, weights=h, minlength=n_nodes)
    node_n = np.bincount(node, minlength=n_nodes).astype(np.int64)
    return (
        np.concatenate(values), np.concatenate(inst).astype(np.int64),
        SegmentLayout(offsets, n_nodes, n_attrs), g, h, node_g, node_h, node_n,
    )


def loop_best_splits(vals, cand_g, cand_h, cand_offsets, cand_pos, elem_offsets,
                     layout, node_g, node_h, node_n, lambda_=1.0):
    """Per-segment reference split search (the oracle).

    Candidates are entries (sparse) or runs (RLE), segmented by
    ``cand_offsets``; ``cand_pos`` is each candidate's first element and
    ``elem_offsets`` the element segmentation.  Only the prefix sums come
    from a kernel, ``segmented_inclusive_cumsum``, which
    ``tests/test_primitives.py`` checks on its own.  A candidate is a cut
    when it is not its segment's first and its value differs from its
    predecessor's; interior candidates come in order, then the
    present|missing boundary, and strictly greater gains win, so the first
    maximum is kept (in each segment, then over a node's attributes).
    """
    dev = GpuDevice(TITAN_X_PASCAL)
    cg = segmented_inclusive_cumsum(dev, cand_g, cand_offsets)
    ch = segmented_inclusive_cumsum(dev, cand_h, cand_offsets)
    d = layout.n_attrs
    none = (-np.inf, -1, -1, -1, np.nan, False, 0.0, 0.0, 0)
    rows = []
    for j in range(layout.n_nodes):
        G, H = node_g[j], node_h[j]
        node_best = none
        for a in range(d):
            s = j * d + a
            lo, hi = cand_offsets[s], cand_offsets[s + 1]
            e_lo, e_hi = elem_offsets[s], elem_offsets[s + 1]
            seg_g = cg[hi - 1] if hi > lo else 0.0
            seg_h = ch[hi - 1] if hi > lo else 0.0
            miss_g, miss_h, miss_n = G - seg_g, H - seg_h, node_n[j] - (e_hi - e_lo)
            best = none
            for i in range(lo + 1, hi):
                if vals[i] == vals[i - 1]:
                    continue
                gl, hl = cg[i] - cand_g[i], ch[i] - cand_h[i]
                mr = float(quantize_gain(eq2_gain(gl, hl, G, H, lambda_)))
                ml = float(quantize_gain(eq2_gain(gl + miss_g, hl + miss_h, G, H, lambda_)))
                left = ml >= mr
                if max(ml, mr) > best[0]:
                    best = (
                        max(ml, mr), a, s, cand_pos[i], (vals[i - 1] + vals[i]) / 2.0, left,
                        gl + (miss_g if left else 0.0), hl + (miss_h if left else 0.0),
                        cand_pos[i] - e_lo + (miss_n if left else 0),
                    )
            if miss_n > 0 and e_hi > e_lo:
                gain = float(quantize_gain(eq2_gain(seg_g, seg_h, G, H, lambda_)))
                if gain > best[0]:
                    best = (gain, a, s, e_hi, np.nextafter(vals[hi - 1], -np.inf), False,
                            seg_g, seg_h, e_hi - e_lo)
            if best[0] > node_best[0]:
                node_best = best
        rows.append(node_best)
    dtypes = (np.float64, np.int64, np.int64, np.int64, np.float64, bool,
              np.float64, np.float64, np.int64)
    return {f: np.array([r[k] for r in rows], dtype=t)
            for k, (f, t) in enumerate(zip(FIELDS, dtypes))}


def sparse_oracle(values, inst, layout, g, h, node_g, node_h, node_n):
    offsets = layout.offsets
    return loop_best_splits(values, g[inst], h[inst], offsets, np.arange(values.size),
                            offsets, layout, node_g, node_h, node_n)


def rle_oracle(rle, inst, layout, g, h, node_g, node_h, node_n):
    dev = GpuDevice(TITAN_X_PASCAL)
    run_elems = np.append(rle.run_starts(), inst.size)
    return loop_best_splits(
        rle.run_values, segmented_sum(dev, g[inst], run_elems),
        segmented_sum(dev, h[inst], run_elems), rle.run_offsets, rle.run_starts(),
        layout.offsets, layout, node_g, node_h, node_n,
    )


def check(find, oracle, first, inst, layout, g, h, node_g, node_h, node_n, chunk):
    """The kernel equals the oracle without a workspace and twice on one
    arena (the second call starts from the first one's buffers)."""
    want = oracle(first, inst, layout, g, h, node_g, node_h, node_n)
    ws = WorkspaceArena()
    for workspace in (None, ws, ws):
        with mock.patch.object(split, "_SCORE_CHUNK", chunk):
            got = find(
                GpuDevice(TITAN_X_PASCAL), first, inst, layout, g, h, node_g, node_h, node_n,
                lambda_=1.0, workspace=workspace,
            )
        for f in FIELDS:
            a, b = want[f], getattr(got, f)
            assert a.dtype == b.dtype, f
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f
    return got


@st.composite
def level_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    case = node_major_level(
        rng,
        n_rows=draw(st.integers(8, 80)),
        n_attrs=draw(st.integers(1, 5)),
        n_nodes=draw(st.integers(1, 4)),
        levels=draw(st.sampled_from([0, 1, 2, 4])),
        density=draw(st.floats(0.3, 1.0)),
    )
    return case, draw(st.sampled_from([1, 2, 3, 5, 8, 13]))


def straddles(offsets, chunk):
    """Whether some segment has entries on both sides of a chunk edge."""
    edges = np.arange(chunk, int(offsets[-1]), chunk)
    seg = np.searchsorted(offsets, edges, side="right") - 1
    return bool(np.any(offsets[seg] < edges))


@given(level_case())
@SETTINGS
def test_sparse_matches_loop_oracle_across_chunks(case):
    (values, inst, layout, *stats), chunk = case
    check(find_best_splits_sparse, sparse_oracle, values, inst, layout, *stats, chunk)


@given(level_case())
@SETTINGS
def test_rle_matches_loop_oracle_across_chunks(case):
    (values, inst, layout, *stats), chunk = case
    rle = encode_segments(values, layout.offsets)
    check(find_best_splits_rle, rle_oracle, rle, inst, layout, *stats, chunk)


@pytest.mark.parametrize("chunk", [3, 7, 16])
def test_fixed_level_spans_chunks_with_every_edge_case(chunk):
    """One level that provably has several chunks, a segment straddling a
    chunk edge, empty segments, missing values and repeated values."""
    values, inst, layout, *stats = node_major_level(
        np.random.default_rng(3), n_rows=120, n_attrs=4, n_nodes=3, levels=3, density=0.7
    )
    offsets = layout.offsets
    rle = encode_segments(values, offsets)
    assert values.size > 2 * chunk and rle.n_runs > 2 * chunk
    assert straddles(offsets, chunk) and straddles(rle.run_offsets, chunk)
    assert np.any(np.diff(offsets) == 0)  # empty segments
    assert np.any(stats[-1][layout.seg_node()] > np.diff(offsets))  # missing values
    assert rle.n_runs < values.size  # repeated values
    got = check(find_best_splits_sparse, sparse_oracle, values, inst, layout, *stats, chunk)
    assert got.found[1:].all()
    check(find_best_splits_rle, rle_oracle, rle, inst, layout, *stats, chunk)
