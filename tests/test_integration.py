"""End-to-end integration tests crossing every subsystem boundary:
LibSVM file -> training -> persistence -> inference -> profiling."""

import numpy as np

from repro import (
    GBDTParams,
    GradientBoostedTrees,
    make_dataset,
    rmse,
)
from repro.core.booster_model import GBDTModel
from repro.data import dump_libsvm, load_libsvm
from repro.gpusim import GpuDevice, TITAN_X_PASCAL
from repro.obs.export import export_merged_chrome_trace


class TestFullPipeline:
    def test_libsvm_to_deployed_model(self, tmp_path):
        """The full user journey: data file in, deployable model out."""
        # 1. write a dataset to LibSVM text (what a user would start from)
        ds = make_dataset("covtype", run_rows=300, seed=42)
        data_path = tmp_path / "train.libsvm"
        dump_libsvm(data_path, ds.X, ds.y)

        # 2. load it back
        X, y = load_libsvm(data_path, n_cols=ds.X.n_cols)

        # 3. train with eval set + early stopping
        device = GpuDevice(TITAN_X_PASCAL)
        est = GradientBoostedTrees(
            GBDTParams(n_trees=20, max_depth=4, learning_rate=0.5), device=device
        ).fit(
            X, y,
            eval_set=(ds.X_test, ds.y_test),
            early_stopping_rounds=5,
        )
        assert est.best_iteration_ is not None

        # 4. persist, reload, verify identical inference
        model_path = tmp_path / "model.json"
        est.model_.save(model_path)
        loaded = GBDTModel.load(model_path)
        assert np.allclose(est.predict(ds.X_test), loaded.predict(ds.X_test))

        # 5. a trace for the profiler
        n_events = export_merged_chrome_trace(tmp_path / "train.trace.json", device=device)
        assert n_events > 100

        # 6. the model actually learned something
        assert rmse(ds.y_test, loaded.predict(ds.X_test)) < rmse(
            ds.y_test, np.zeros(ds.y_test.size)
        )

    def test_three_trainers_one_dataset(self):
        """Exact GPU, histogram, and reference trainers interoperate on the
        same data and agree where theory says they must."""
        from repro import GPUGBDTTrainer, HistogramGBDTTrainer, models_equal
        from repro.cpu.exact_greedy import ReferenceTrainer

        ds = make_dataset("covtype", run_rows=250, seed=9)
        p = GBDTParams(n_trees=3, max_depth=3)
        exact = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        ref = ReferenceTrainer(p).fit(ds.X, ds.y)
        hist = HistogramGBDTTrainer(p, max_bins=256).fit(ds.X, ds.y)
        assert models_equal(exact, ref)
        assert np.allclose(exact.predict(ds.X), hist.predict(ds.X))

    def test_cross_loss_pipeline(self, susy_small):
        """Each built-in loss trains, predicts finitely and transforms."""
        ds = susy_small
        for loss in ("squared_error", "logistic", "huber"):
            est = GradientBoostedTrees(
                GBDTParams(n_trees=3, max_depth=3, loss=loss)
            ).fit(ds.X, ds.y)
            out = est.predict(ds.X_test, transform=True)
            assert np.all(np.isfinite(out)), loss
