"""Tests for the dense GPU XGBoost baseline: missing-as-zero semantics,
device OOM at Table-II scale, comparable time on dense data."""

import numpy as np
import pytest

from repro import (
    DeviceOutOfMemory,
    GBDTParams,
    GPUGBDTTrainer,
    GpuDevice,
    TITAN_X_PASCAL,
    models_equal,
)
from repro.cpu.gpu_xgboost import DenseGpuXgboostTrainer, dense_device_bytes, densify
from repro.data import CSRMatrix, make_dataset


class TestDensify:
    def test_all_cells_present(self):
        X = CSRMatrix.from_rows([[(1, 2.0)], []], n_cols=3)
        D = densify(X)
        assert D.nnz == 6
        assert D.get(0, 0) == 0.0  # absent became literal zero
        assert D.get(0, 1) == 2.0
        assert D.get(1, 2) == 0.0

    def test_preserves_shape(self):
        X = CSRMatrix.from_rows([[(0, 1.0)]], n_cols=5)
        assert densify(X).shape == (1, 5)


class TestMemoryFootprint:
    def test_formula(self):
        assert dense_device_bytes(10, 10, 1) == 10 * 10 * 8 + 10 * 8

    def test_interleaving_grows_with_depth(self):
        """'The number of copies equals the number of nodes to split.'"""
        shallow = dense_device_bytes(1000, 10, 2)
        deep = dense_device_bytes(1000, 10, 6)
        assert deep > shallow

    @pytest.mark.parametrize(
        "name,expect_oom",
        [
            ("covtype", False),
            ("e2006", True),
            ("higgs", False),
            ("log1p", True),
            ("news20", True),
            ("real-sim", False),  # 11.3 GiB: barely fits, as in the paper
            ("susy", False),
        ],
    )
    def test_table2_oom_pattern(self, name, expect_oom):
        """xgbst-gpu 'cannot process most of the datasets tested ... because
        of out of memory' -- exactly the large sparse ones."""
        from repro.bench.harness import run_xgb_gpu

        ds = make_dataset(name, run_rows=120, run_cols=40)
        res = run_xgb_gpu(ds, GBDTParams(n_trees=1, max_depth=6))
        assert (res.status == "oom") == expect_oom

    def test_oom_raises_from_trainer(self):
        ds = make_dataset("news20", run_rows=100, run_cols=30)
        cells_full = ds.spec.n_full * ds.spec.d_full
        cells_run = 75 * 30  # after test split
        device = GpuDevice(TITAN_X_PASCAL, work_scale=cells_full / cells_run)
        trainer = DenseGpuXgboostTrainer(GBDTParams(n_trees=1), device)
        with pytest.raises(DeviceOutOfMemory):
            trainer.fit(ds.X, ds.y)


class TestSemantics:
    def test_matches_reference_on_fully_dense_data(self):
        """With no absent cells, zero-filling changes nothing: the dense
        baseline must learn the exact same trees."""
        rng = np.random.default_rng(5)
        dense = rng.uniform(0.5, 2.0, size=(80, 6))
        from repro.core.booster import as_csr

        X = as_csr(dense)
        y = rng.normal(size=80)
        p = GBDTParams(n_trees=3, max_depth=3)
        base = GPUGBDTTrainer(p, rle_policy="never").fit(X, y)
        densed = DenseGpuXgboostTrainer(p).fit(X, y)
        assert models_equal(base, densed)

    def test_differs_on_sparse_data(self, sparse_small):
        """Missing-as-zero changes the learned trees -> the RMSE drift of
        Table II ('probably because of dense representation which considers
        missing values as 0')."""
        ds = sparse_small
        p = GBDTParams(n_trees=3, max_depth=4)
        base = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        densed = DenseGpuXgboostTrainer(p).fit(ds.X, ds.y)
        assert not models_equal(base, densed)

    def test_rle_disabled_in_dense_baseline(self, covtype_small):
        ds = covtype_small
        t = DenseGpuXgboostTrainer(GBDTParams(n_trees=1, max_depth=2))
        t.fit(ds.X, ds.y)
        assert t.report is not None and not t.report.used_rle

    def test_comparable_time_on_dense_susy_like_data(self):
        """Paper: 'the execution time of our algorithm is comparable to
        xgbst-gpu' for susy (a nearly-dense dataset)."""
        from repro.bench.harness import run_gpu_gbdt, run_xgb_gpu

        ds = make_dataset("susy", run_rows=300)
        p = GBDTParams(n_trees=3, max_depth=4)
        ours = run_gpu_gbdt(ds, p)
        theirs = run_xgb_gpu(ds, p)
        assert theirs.ok
        ratio = theirs.seconds / ours.seconds
        assert 0.5 < ratio < 2.0
