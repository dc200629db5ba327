"""End-to-end trainer tests: tree identity across every optimization
combination and against the independent CPU reference (the paper's
Table-II 'identical trees' verification)."""

import itertools

import numpy as np
import pytest

from repro import (
    GBDTParams,
    GPUGBDTTrainer,
    GpuDevice,
    GradientBoostedTrees,
    TITAN_X_PASCAL,
    models_equal,
)
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.metrics import rmse

ABLATION_GRID = list(itertools.product([True, False], repeat=3))


class TestTable1:
    def test_trains_on_paper_example(self, table1):
        X, y = table1
        model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=2)).fit(X, y)
        assert model.n_trees == 2
        assert np.isfinite(model.predict(X)).all()

    def test_matches_reference_on_paper_example(self, table1):
        X, y = table1
        p = GBDTParams(n_trees=3, max_depth=3)
        a = GPUGBDTTrainer(p).fit(X, y)
        b = ReferenceTrainer(p).fit(X, y)
        assert models_equal(a, b)


class TestTreeIdentity:
    @pytest.mark.parametrize("dataset", ["covtype_small", "susy_small", "sparse_small"])
    def test_identical_to_reference_all_ablations(self, dataset, request):
        ds = request.getfixturevalue(dataset)
        base = GBDTParams(n_trees=4, max_depth=4)
        ref = ReferenceTrainer(base).fit(ds.X, ds.y)
        for rle, direct, smart in ABLATION_GRID:
            p = base.replace(
                use_rle=rle,
                use_direct_rle=direct,
                use_smartgd=smart,
                rle_policy="always" if rle else "never",
            )
            got = GPUGBDTTrainer(p).fit(ds.X, ds.y)
            assert models_equal(got, ref), (dataset, rle, direct, smart)

    def test_setkey_and_workload_do_not_change_trees(self, covtype_small):
        ds = covtype_small
        base = GBDTParams(n_trees=3, max_depth=4)
        ref = GPUGBDTTrainer(base).fit(ds.X, ds.y)
        for setkey, workload in itertools.product([True, False], repeat=2):
            p = base.replace(use_custom_setkey=setkey, use_custom_workload=workload)
            got = GPUGBDTTrainer(p).fit(ds.X, ds.y)
            assert models_equal(got, ref)

    def test_rmse_identical_to_reference(self, covtype_small):
        """The 'rmse' columns of Table II: ours == xgbst."""
        ds = covtype_small
        p = GBDTParams(n_trees=5, max_depth=4)
        a = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        b = ReferenceTrainer(p).fit(ds.X, ds.y)
        assert rmse(ds.y, a.predict(ds.X)) == pytest.approx(rmse(ds.y, b.predict(ds.X)), abs=1e-10)


class TestTrainingBehaviour:
    def test_boosting_reduces_training_rmse(self, susy_small):
        ds = susy_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=10, max_depth=4)).fit(ds.X, ds.y)
        staged = model.staged_predict(ds.X)
        first = rmse(ds.y, staged[0])
        last = rmse(ds.y, staged[-1])
        assert last < first

    def test_max_depth_respected(self, covtype_small):
        ds = covtype_small
        for depth in (1, 2, 4):
            model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=depth)).fit(ds.X, ds.y)
            assert all(t.max_depth() <= depth for t in model.trees)

    def test_gamma_prunes_splits(self, covtype_small):
        ds = covtype_small
        loose = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=5, gamma=0.0)).fit(ds.X, ds.y)
        strict = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=5, gamma=1e6)).fit(ds.X, ds.y)
        assert sum(t.n_nodes for t in strict.trees) < sum(t.n_nodes for t in loose.trees)
        # an impossibly large gamma yields single-leaf trees
        assert all(t.n_nodes == 1 for t in strict.trees)

    def test_n_instances_partition_at_every_split(self, covtype_small):
        ds = covtype_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4)).fit(ds.X, ds.y)
        for t in model.trees:
            for nid in range(t.n_nodes):
                if not t.is_leaf(nid):
                    l, r = t.left[nid], t.right[nid]
                    assert t.n_instances[nid] == t.n_instances[l] + t.n_instances[r]
                    assert t.n_instances[l] > 0 and t.n_instances[r] > 0

    def test_report_populated(self, covtype_small):
        ds = covtype_small
        trainer = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3))
        trainer.fit(ds.X, ds.y)
        assert trainer.report is not None
        assert trainer.report.used_rle  # covtype is highly compressible
        assert trainer.report.compression_ratio > 2
        assert trainer.report.n_nodes_total > 0

    def test_report_tree_statistics(self, covtype_small):
        ds = covtype_small
        trainer = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3))
        model = trainer.fit(ds.X, ds.y)
        r = trainer.report
        assert r.n_trees == 3
        assert r.tree_sizes == [t.n_nodes for t in model.trees]
        assert sum(r.tree_sizes) == r.n_nodes_total
        assert 0 < r.max_depth_seen <= 3
        assert r.mean_tree_size == pytest.approx(sum(r.tree_sizes) / 3)

    def test_learning_rate_scales_leaves(self, susy_small):
        ds = susy_small
        p1 = GBDTParams(n_trees=1, max_depth=2, learning_rate=1.0)
        p2 = GBDTParams(n_trees=1, max_depth=2, learning_rate=0.5)
        a = GPUGBDTTrainer(p1).fit(ds.X, ds.y)
        b = GPUGBDTTrainer(p2).fit(ds.X, ds.y)
        # same first-tree structure, halved leaf values
        assert a.trees[0].attr == b.trees[0].attr
        av = np.array(a.trees[0].value)
        bv = np.array(b.trees[0].value)
        assert np.allclose(bv, av / 2, atol=1e-12)

    def test_logistic_loss_trains(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=5, max_depth=3, loss="logistic")
        model = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        probs = model.predict(ds.X, transform=True)
        assert np.all((probs >= 0) & (probs <= 1))


class TestDeviceInteraction:
    def test_phases_recorded(self, covtype_small):
        ds = covtype_small
        d = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3), d).fit(ds.X, ds.y)
        phases = set(d.ledger.phases())
        assert {"setup", "gradients", "find_split", "split_node"} <= phases

    def test_split_finding_dominates(self, susy_small):
        """Section IV-A: finding the best split is ~95% of GPU-GBDT time
        at full scale; at any scale it must dominate the phase profile."""
        from repro.gpusim.costmodel import phase_times

        ds = susy_small
        d = GpuDevice(TITAN_X_PASCAL, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
        GPUGBDTTrainer(GBDTParams(n_trees=4, max_depth=5), d, row_scale=ds.row_scale).fit(
            ds.X, ds.y
        )
        per = phase_times(TITAN_X_PASCAL, d.ledger)
        assert per["find_split"] == max(per.values())

    def test_memory_registered(self, covtype_small):
        ds = covtype_small
        d = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=2), d).fit(ds.X, ds.y)
        names = set(d.memory.live_allocations())
        assert "instance_ids" in names
        assert "rle_runs" in names  # covtype compresses

    def test_pcie_upload_recorded(self, covtype_small):
        ds = covtype_small
        d = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=2), d).fit(ds.X, ds.y)
        assert any(t.name == "upload_training_data" for t in d.ledger.transfers)

    def test_rle_reduces_upload_bytes(self, covtype_small):
        ds = covtype_small
        d1 = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(
            GBDTParams(n_trees=1, max_depth=2, rle_policy="always"), d1
        ).fit(ds.X, ds.y)
        d2 = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(
            GBDTParams(n_trees=1, max_depth=2, use_rle=False), d2
        ).fit(ds.X, ds.y)
        up1 = sum(t.nbytes for t in d1.ledger.transfers if t.name == "upload_training_data")
        up2 = sum(t.nbytes for t in d2.ledger.transfers if t.name == "upload_training_data")
        assert up1 < up2


class TestInputValidation:
    def test_y_size_mismatch(self, table1):
        X, y = table1
        with pytest.raises(ValueError, match="entries"):
            GPUGBDTTrainer(GBDTParams(n_trees=1)).fit(X, y[:2])

    def test_too_few_instances(self):
        from repro.data import CSRMatrix

        X = CSRMatrix.from_rows([[(0, 1.0)]], n_cols=1)
        with pytest.raises(ValueError, match="at least 2"):
            GPUGBDTTrainer(GBDTParams(n_trees=1)).fit(X, np.array([1.0]))

    @staticmethod
    def _trainer(kind, p):
        from repro.approx import HistogramGBDTTrainer
        from repro.dist import DistributedHistTrainer
        from repro.ext import MultiGpuGBDTTrainer, OutOfCoreGBDTTrainer
        from repro.stream import StreamingHistTrainer

        return {
            "single": lambda: GPUGBDTTrainer(p),
            "multigpu": lambda: MultiGpuGBDTTrainer(p, n_devices=2),
            "outofcore": lambda: OutOfCoreGBDTTrainer(p, group_budget_bytes=4096),
            "hist": lambda: HistogramGBDTTrainer(p, max_bins=16),
            "stream": lambda: StreamingHistTrainer(p, max_bins=16, block_rows=100),
            "dist": lambda: DistributedHistTrainer(p, n_workers=2, max_bins=16),
            "cpu": lambda: ReferenceTrainer(p),
        }[kind]()

    @pytest.mark.parametrize(
        "kind", ["single", "multigpu", "outofcore", "hist", "stream", "dist", "cpu"]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_label_fails_fit(self, covtype_small, kind, bad):
        """One NaN or inf label used to come back as an all-NaN model."""
        trainer = self._trainer(kind, GBDTParams(n_trees=2, max_depth=3))
        y = covtype_small.y.copy()
        y[7] = bad
        model = None
        with pytest.raises(ValueError, match="NaN or inf"):
            model = trainer.fit(covtype_small.X, y)
        assert model is None and getattr(trainer, "report", None) is None

    @pytest.mark.parametrize("kind", ["single", "hist", "stream", "cpu"])
    def test_warm_start_rejects_other_learning_rate(self, covtype_small, kind):
        """Resuming with another learning rate cannot match uninterrupted
        training, so every warm-startable trainer refuses it."""
        ds = covtype_small
        head = self._trainer(kind, GBDTParams(n_trees=1, max_depth=3)).fit(ds.X, ds.y)
        trainer = self._trainer(
            kind, GBDTParams(n_trees=2, max_depth=3, learning_rate=0.05)
        )
        with pytest.raises(ValueError, match="learning_rate"):
            trainer.fit(ds.X, ds.y, init_model=head)


class TestFacade:
    def test_backend_dispatch(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=3)
        gpu = GradientBoostedTrees(p, backend="gpu-gbdt").fit(ds.X, ds.y)
        ref = GradientBoostedTrees(p, backend="cpu-reference").fit(ds.X, ds.y)
        assert models_equal(gpu.model_, ref.model_)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            GradientBoostedTrees(backend="tpu")

    def test_kwarg_overrides(self, covtype_small):
        ds = covtype_small
        est = GradientBoostedTrees(n_trees=2, max_depth=2).fit(ds.X, ds.y)
        assert est.model_.n_trees == 2

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            GradientBoostedTrees().predict(np.zeros((1, 1)))

    def test_ndarray_input(self, susy_small):
        ds = susy_small
        dense = ds.X.to_dense(fill=0.0).values
        est = GradientBoostedTrees(n_trees=2, max_depth=3).fit(dense, ds.y)
        out = est.predict(dense)
        assert out.shape == (ds.X.n_rows,)

    def test_as_csr_nan_is_missing(self):
        from repro.core.booster import as_csr

        X = as_csr(np.array([[1.0, np.nan], [0.0, 2.0]]))
        assert X.nnz == 3
        assert X.get(0, 1) is None
        assert X.get(1, 0) == 0.0  # zeros stay real observations
