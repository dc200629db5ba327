"""Per-level invariants probed *inside* live training runs.

DESIGN.md §5's first invariant -- every (node, attribute) segment stays
descending-sorted after every order-preserving partition, at every level of
every tree -- is asserted here by wrapping the split-finding entry points
the trainer calls each level and inspecting the arrays they receive.
"""

import numpy as np
import pytest

import repro.core.trainer as trainer_mod
from repro import GBDTParams, GPUGBDTTrainer
from repro.gpusim.primitives import seg_ids


@pytest.fixture
def probe_sparse(monkeypatch):
    """Wrap find_best_splits_sparse to validate layout before each level."""
    seen = {"levels": 0}
    original = trainer_mod.find_best_splits_sparse

    def wrapper(device, values, inst, layout, *args, **kwargs):
        offsets = layout.offsets
        # 1. every segment is descending-sorted
        for s in range(layout.n_segments):
            seg = values[offsets[s] : offsets[s + 1]]
            assert np.all(np.diff(seg) <= 0), f"segment {s} unsorted at level {seen['levels']}"
        # 2. instance ids are valid and no instance appears twice per segment
        for s in range(layout.n_segments):
            ins = inst[offsets[s] : offsets[s + 1]]
            assert np.unique(ins).size == ins.size
        seen["levels"] += 1
        return original(device, values, inst, layout, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "find_best_splits_sparse", wrapper)
    return seen


@pytest.fixture
def probe_rle(monkeypatch):
    """Wrap find_best_splits_rle to validate run structure before each level."""
    seen = {"levels": 0}
    original = trainer_mod.find_best_splits_rle

    def wrapper(device, rle, inst, layout, *args, **kwargs):
        assert rle.run_lengths.min() >= 1
        assert rle.n_elements == inst.size
        # adjacent runs within a segment carry distinct, descending values
        rid = seg_ids(rle.run_offsets, rle.n_runs)
        if rle.n_runs > 1:
            same_seg = rid[1:] == rid[:-1]
            diffs = np.diff(rle.run_values)
            assert np.all(diffs[same_seg] < 0), f"runs not strictly descending at level {seen['levels']}"
        # run segmentation matches the element segmentation
        assert np.array_equal(rle.element_offsets(), layout.offsets)
        seen["levels"] += 1
        return original(device, rle, inst, layout, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "find_best_splits_rle", wrapper)
    return seen


class TestSortednessAcrossLevels:
    def test_sparse_path_every_level(self, susy_small, probe_sparse):
        ds = susy_small
        GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=5), rle_policy="never").fit(ds.X, ds.y)
        assert probe_sparse["levels"] >= 3  # probed multiple levels

    def test_sparse_path_with_missing_values(self, sparse_small, probe_sparse):
        ds = sparse_small
        GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4), rle_policy="never").fit(ds.X, ds.y)
        assert probe_sparse["levels"] >= 2

    def test_rle_path_every_level(self, covtype_small, probe_rle):
        ds = covtype_small
        GPUGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=5), rle_policy="always"
        ).fit(ds.X, ds.y)
        assert probe_rle["levels"] >= 3

    def test_rle_decompression_path_every_level(self, covtype_small, probe_rle):
        ds = covtype_small
        GPUGBDTTrainer(
            GBDTParams(n_trees=2, max_depth=4), rle_policy="always", use_direct_rle=False
        ).fit(ds.X, ds.y)
        assert probe_rle["levels"] >= 2

    def test_sparse_path_under_sampling(self, covtype_small, probe_sparse):
        ds = covtype_small
        GPUGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=4, subsample=0.6, colsample_bytree=0.5, seed=3),
            rle_policy="never",
        ).fit(ds.X, ds.y)
        assert probe_sparse["levels"] >= 3
