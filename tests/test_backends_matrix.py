"""Facade backend matrix: every backend trains through the same API and the
relationships between them hold (identity, approximation, drift)."""

import numpy as np
import pytest

from repro import BACKENDS, GBDTParams, GradientBoostedTrees
from repro.gpusim.device import A100_80GB, TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice


class TestBackendMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_fits_and_predicts(self, covtype_small, backend):
        ds = covtype_small
        est = GradientBoostedTrees(
            GBDTParams(n_trees=2, max_depth=3), backend=backend
        ).fit(ds.X, ds.y)
        out = est.predict(ds.X_test)
        assert out.shape == (ds.X_test.n_rows,)
        assert np.all(np.isfinite(out))

    def test_backend_registry(self):
        assert set(BACKENDS) == {
            "gpu-gbdt", "cpu-reference", "xgb-gpu-dense", "histogram"
        }

    def test_histogram_backend_matches_exact_on_quantized(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=3)
        exact = GradientBoostedTrees(p, backend="gpu-gbdt").fit(ds.X, ds.y)
        # covtype run-scale distinct values fit into the default 64 bins? use
        # the device-facing facade and compare training predictions loosely
        hist = GradientBoostedTrees(p, backend="histogram").fit(ds.X, ds.y)
        e = exact.predict(ds.X)
        h = hist.predict(ds.X)
        assert np.corrcoef(e, h)[0, 1] > 0.99

    def test_eval_set_works_on_every_backend(self, covtype_small):
        ds = covtype_small
        for backend in BACKENDS:
            est = GradientBoostedTrees(
                GBDTParams(n_trees=3, max_depth=2), backend=backend
            ).fit(ds.X, ds.y, eval_set=(ds.X_test, ds.y_test))
            assert est.eval_history_.shape == (3,)


class TestA100WhatIf:
    def test_a100_faster_than_titan(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=3, max_depth=4)
        times = {}
        for spec in (TITAN_X_PASCAL, A100_80GB):
            d = GpuDevice(spec, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
            GradientBoostedTrees(p, device=d, row_scale=ds.row_scale).fit(ds.X, ds.y)
            times[spec.name] = d.elapsed_seconds()
        # HBM2e vs GDDR5X: ~4x bandwidth should shine through a
        # memory-bound workload
        assert times["A100 80GB"] < times["Titan X (Pascal)"] / 2

    def test_a100_memory_holds_what_titan_cannot(self):
        import dataclasses

        from repro.bench.harness import run_gpu_gbdt
        from repro.data import make_dataset

        base = make_dataset("insurance", run_rows=250)
        huge = dataclasses.replace(
            base,
            spec=dataclasses.replace(
                base.spec, n_full=60_000_000, d_full=142, density_full=0.9
            ),
        )
        p = GBDTParams(n_trees=1, max_depth=4)
        assert run_gpu_gbdt(huge, p, spec=TITAN_X_PASCAL).status == "oom"
        assert run_gpu_gbdt(huge, p, spec=A100_80GB).status == "ok"
