"""Tests for the out-of-core (column-group streamed) trainer."""

import dataclasses

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.bench.harness import run_gpu_gbdt
from repro.ext.outofcore import OutOfCoreGBDTTrainer, plan_column_groups
from repro.gpusim.memory import DeviceOutOfMemory

#: per-tree row/column draws the shared grow loop must honour on every group
SAMPLING = {
    "subsample": dict(subsample=0.5),
    "colsample": dict(colsample_bytree=0.5),
    "both": dict(subsample=0.5, colsample_bytree=0.5),
}


def _budget(ds, n_cols):
    """A group budget holding about ``n_cols`` of the largest columns."""
    return int(np.diff(ds.X.to_csc().indptr).max()) * 8 * n_cols + 64


class TestGroupPlanning:
    def test_single_group_when_everything_fits(self):
        groups = plan_column_groups(np.array([10, 10, 10]), 1.0, budget_bytes=1e6)
        assert len(groups) == 1
        assert list(groups[0]) == [0, 1, 2]

    def test_splits_when_budget_small(self):
        groups = plan_column_groups(np.array([10, 10, 10]), 1.0, budget_bytes=100)
        assert len(groups) == 3

    def test_work_scale_lifts_sizes(self):
        one = plan_column_groups(np.array([10, 10]), 1.0, budget_bytes=1000)
        scaled = plan_column_groups(np.array([10, 10]), 10.0, budget_bytes=1000)
        assert len(one) == 1 and len(scaled) == 2

    def test_oversized_single_attribute_raises(self):
        with pytest.raises(DeviceOutOfMemory, match="alone"):
            plan_column_groups(np.array([1000]), 1.0, budget_bytes=100)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            plan_column_groups(np.array([1]), 1.0, budget_bytes=0)


class TestTreeIdentity:
    @pytest.mark.parametrize("budget_cols", [1, 3, 1000])
    def test_identical_to_in_memory(self, covtype_small, budget_cols):
        """Streaming never changes the learned trees -- still exact."""
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        # size the budget to hold roughly `budget_cols` of the largest
        # columns at a time (first-fit packs by the real per-column sizes)
        per_col = int(np.diff(ds.X.to_csc().indptr).max()) * 8
        ooc = OutOfCoreGBDTTrainer(p, group_budget_bytes=per_col * budget_cols + 64)
        model = ooc.fit(ds.X, ds.y)
        assert models_equal(model, single)
        expected_groups = 1 if budget_cols >= ds.X.n_cols else None
        if expected_groups:
            assert ooc.n_groups_ == 1
        else:
            assert ooc.n_groups_ > 1

    def test_identical_on_sparse_without_rle(self, sparse_small):
        ds = sparse_small
        p = GBDTParams(n_trees=2, max_depth=3, use_rle=False)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        ooc = OutOfCoreGBDTTrainer(p, group_budget_bytes=ds.X.nnz * 2)
        model = ooc.fit(ds.X, ds.y)
        assert models_equal(model, single)
        assert ooc.n_groups_ > 1


    @pytest.mark.parametrize("dataset", ["covtype_small", "susy_small"])
    @pytest.mark.parametrize("sampling", sorted(SAMPLING))
    @pytest.mark.parametrize("budget_cols", [1, 3])
    def test_identical_under_sampling(self, request, dataset, sampling, budget_cols):
        ds = request.getfixturevalue(dataset)
        p = GBDTParams(n_trees=3, max_depth=4, seed=5, **SAMPLING[sampling])
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        ooc = OutOfCoreGBDTTrainer(p, group_budget_bytes=_budget(ds, budget_cols))
        model = ooc.fit(ds.X, ds.y)
        assert ooc.n_groups_ > 1
        assert models_equal(model, single)

    @pytest.mark.parametrize("sampling", ["none", "both"])
    @pytest.mark.parametrize("budget_cols", [1000, 3])
    def test_warm_start_matches_uninterrupted(self, covtype_small, budget_cols, sampling):
        """fit(k) then fit(m, init_model=) is byte-equal to fit(k + m) with
        the same groups.  One group is byte-equal to in-memory training too;
        with several, leaf values match it only to rounding (each group's
        segmented scans cancel carries over a different flat prefix)."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4, seed=5, **SAMPLING.get(sampling, {}))
        p4 = dataclasses.replace(p, n_trees=4)
        budget = _budget(ds, budget_cols)
        head = OutOfCoreGBDTTrainer(p, group_budget_bytes=budget).fit(ds.X, ds.y)
        ooc = OutOfCoreGBDTTrainer(p, group_budget_bytes=budget)
        resumed = ooc.fit(ds.X, ds.y, init_model=head)
        whole = OutOfCoreGBDTTrainer(p4, group_budget_bytes=budget).fit(ds.X, ds.y)
        single = GPUGBDTTrainer(p4).fit(ds.X, ds.y)
        assert resumed.n_trees == 4
        assert resumed.to_json() == whole.to_json()
        assert models_equal(resumed, single)
        if ooc.n_groups_ == 1:
            assert resumed.to_json() == single.to_json()

    def test_goss_rejected(self, covtype_small):
        p = GBDTParams(n_trees=1, max_depth=2, goss_a=0.2)
        with pytest.raises(ValueError, match="GOSS"):
            OutOfCoreGBDTTrainer(p).fit(covtype_small.X, covtype_small.y)


class TestEconomics:
    def test_streaming_costs_pcie_time(self, covtype_small):
        """More groups => more PCIe traffic => slower modeled training."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=3)
        per_col = int(np.diff(ds.X.to_csc().indptr).max()) * 8

        small = OutOfCoreGBDTTrainer(
            p, work_scale=ds.work_scale, row_scale=ds.row_scale,
            group_budget_bytes=per_col * ds.work_scale * 4,
        )
        small.fit(ds.X, ds.y)
        big = OutOfCoreGBDTTrainer(
            p, work_scale=ds.work_scale, row_scale=ds.row_scale,
            group_budget_bytes=per_col * ds.work_scale * 1000,
        )
        big.fit(ds.X, ds.y)
        assert small.n_groups_ > big.n_groups_ == 1
        assert small.elapsed_seconds() > big.elapsed_seconds()

    def test_trains_where_in_memory_ooms(self):
        """The headline: a dataset whose lists exceed device memory trains
        out-of-core and still learns the exact trees."""
        import dataclasses

        from repro.data import make_dataset

        base = make_dataset("insurance", run_rows=250)
        huge = dataclasses.replace(
            base,
            spec=dataclasses.replace(
                base.spec, n_full=60_000_000, d_full=142, density_full=0.9
            ),
        )
        p = GBDTParams(n_trees=1, max_depth=4)
        inmem = run_gpu_gbdt(huge, p)
        assert inmem.status == "oom"

        ooc = OutOfCoreGBDTTrainer(
            p, work_scale=huge.work_scale, seg_scale=huge.seg_scale,
            row_scale=huge.row_scale,
        )
        model = ooc.fit(huge.X, huge.y)
        assert ooc.n_groups_ > 1
        reference = GPUGBDTTrainer(p).fit(huge.X, huge.y)
        assert models_equal(model, reference)
