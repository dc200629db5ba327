"""Exact split finding with the workspace arena on and off, across chunks.

The arena branches of ``find_best_splits_sparse`` / ``find_best_splits_rle``
score candidates ``split._SCORE_CHUNK`` at a time and broadcast per-segment
constants with ``np.repeat`` over each chunk's slice of every segment.  The
legacy branches score the whole level in one go, so agreement on every
``NodeBestSplits`` field is the differential check.  The chunk constant is
patched small so that levels span many chunks, segments straddle chunk
edges, and chunks start inside runs of repeated values.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GBDTParams, GPUGBDTTrainer
from repro.core import split
from repro.core.split import SegmentLayout, find_best_splits_rle, find_best_splits_sparse
from repro.core.workspace import WorkspaceArena
from repro.data import encode_segments, make_dataset
from repro.gpusim import TITAN_X_PASCAL, GpuDevice

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


def both_ways(find, first, inst, layout, g, h, node_g, node_h, node_n, chunk):
    out = []
    for ws in (None, WorkspaceArena(enabled=True)):
        with mock.patch.object(split, "_SCORE_CHUNK", chunk):
            out.append(find(
                GpuDevice(TITAN_X_PASCAL), first, inst, layout, g, h, node_g, node_h, node_n,
                lambda_=1.0, workspace=ws,
            ))
    return out


def assert_same(legacy, arena):
    for f in FIELDS:
        a, b = getattr(legacy, f), getattr(arena, f)
        assert a.dtype == b.dtype, f
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f


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
def test_sparse_arena_matches_legacy_across_chunks(case):
    (values, inst, layout, *stats), chunk = case
    assert_same(*both_ways(find_best_splits_sparse, values, inst, layout, *stats, chunk))


@given(level_case())
@SETTINGS
def test_rle_arena_matches_legacy_across_chunks(case):
    (values, inst, layout, *stats), chunk = case
    rle = encode_segments(values, layout.offsets)
    assert_same(*both_ways(find_best_splits_rle, rle, inst, layout, *stats, chunk))


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
    legacy, arena = both_ways(find_best_splits_sparse, values, inst, layout, *stats, chunk)
    assert_same(legacy, arena)
    assert legacy.found[1:].all()
    assert_same(*both_ways(find_best_splits_rle, rle, inst, layout, *stats, chunk))


@pytest.mark.parametrize("rle_policy", ["never", "always"])
def test_trainer_arena_identity_past_one_chunk(rle_policy):
    """Whole fits at the shipped chunk size, on a level with more
    candidates than one chunk holds."""
    data = make_dataset("higgs", run_rows=1000)
    assert data.X.nnz > split._SCORE_CHUNK
    p = GBDTParams(n_trees=2, max_depth=4, rle_policy=rle_policy)
    on = GPUGBDTTrainer(p, use_arena=True)
    off = GPUGBDTTrainer(p, use_arena=False)
    assert on.fit(data.X, data.y).to_json() == off.fit(data.X, data.y).to_json()
    assert on.report.used_rle == (rle_policy == "always")
