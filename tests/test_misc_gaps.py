"""Small targeted tests for less-travelled paths."""

import dataclasses

import numpy as np

from repro import GBDTParams, GPUGBDTTrainer
from repro.bench.harness import run_gpu_gbdt
from repro.data import make_dataset


class TestHarnessOOMPath:
    def test_gpu_gbdt_oom_reported_not_raised(self):
        """Even GPU-GBDT has a ceiling; the harness reports it as a row
        status instead of crashing the experiment."""
        base = make_dataset("susy", run_rows=200)
        huge = dataclasses.replace(
            base,
            spec=dataclasses.replace(
                base.spec, n_full=2_000_000_000, d_full=18, density_full=0.98
            ),
        )
        res = run_gpu_gbdt(huge, GBDTParams(n_trees=1, max_depth=3))
        assert res.status == "oom"
        assert res.seconds is None
        assert res.train_rmse is None
        assert not res.ok


class TestModelEdges:
    def test_predict_with_negative_n_trees_clamped(self, susy_small):
        ds = susy_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=2)).fit(ds.X, ds.y)
        out = model.predict(ds.X_test, n_trees=-5)
        assert np.allclose(out, model.base_score)

    def test_models_equal_tree_count_mismatch(self, susy_small):
        from repro import models_equal

        ds = susy_small
        a = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=2)).fit(ds.X, ds.y)
        b = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=2)).fit(ds.X, ds.y)
        assert not models_equal(a, b)


class TestSetKeyAblationGridRecording:
    def test_disabled_setkey_records_seg_scaled_grids(self, covtype_small):
        """With SetKey off and a high seg_scale, the recorded argmax grids
        blow up exactly as one-block-per-segment implies."""
        from repro import GpuDevice, TITAN_X_PASCAL

        ds = covtype_small
        d_on = GpuDevice(TITAN_X_PASCAL, seg_scale=1000.0)
        GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=3), d_on).fit(ds.X, ds.y)
        d_off = GpuDevice(TITAN_X_PASCAL, seg_scale=1000.0)
        GPUGBDTTrainer(
            GBDTParams(n_trees=1, max_depth=3), d_off, use_custom_setkey=False
        ).fit(ds.X, ds.y)

        def max_blocks(dev):
            return max(
                k.blocks for k in dev.ledger.kernels if k.name == "seg_reduce_best_split"
            )

        assert max_blocks(d_off) > 100 * max_blocks(d_on) / 100  # grids exist
        assert max_blocks(d_off) > max_blocks(d_on)
        assert d_off.elapsed_seconds() > d_on.elapsed_seconds()
