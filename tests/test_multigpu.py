"""Tests for the multi-GPU extension (Section VI future work)."""

import dataclasses

import pytest

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.ext.multigpu import MultiGpuGBDTTrainer

#: per-tree row/column draws the shared grow loop must honour on every shard
SAMPLING = {
    "subsample": dict(subsample=0.5),
    "colsample": dict(colsample_bytree=0.5),
    "both": dict(subsample=0.5, colsample_bytree=0.5),
}


class TestTreeIdentity:
    @pytest.mark.parametrize("n_devices", [1, 2, 3, 4])
    def test_identical_to_single_gpu(self, covtype_small, n_devices):
        """Attribute sharding must not change the learned trees."""
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=n_devices).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_on_sparse_data(self, sparse_small):
        ds = sparse_small
        p = GBDTParams(n_trees=3, max_depth=3)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=3).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_without_rle(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=2, max_depth=4, use_rle=False)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=2).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_with_decompression_split(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=3, use_direct_rle=False, rle_policy="always")
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=2).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    @pytest.mark.parametrize("dataset", ["covtype_small", "susy_small"])
    @pytest.mark.parametrize("sampling", sorted(SAMPLING))
    @pytest.mark.parametrize("n_devices", [2, 3])
    def test_identical_under_sampling(self, request, dataset, sampling, n_devices):
        ds = request.getfixturevalue(dataset)
        p = GBDTParams(n_trees=3, max_depth=4, seed=5, **SAMPLING[sampling])
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=n_devices).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    @pytest.mark.parametrize("sampling", ["none", "both"])
    @pytest.mark.parametrize("n_devices", [1, 3])
    def test_warm_start_matches_uninterrupted(self, covtype_small, n_devices, sampling):
        """fit(k) then fit(m, init_model=) is byte-equal to fit(k + m) on the
        same devices.  One shard is byte-equal to single-GPU training too;
        with several, leaf values match it only to rounding (each shard's
        segmented scans cancel carries over a different flat prefix)."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4, seed=5, **SAMPLING.get(sampling, {}))
        p4 = dataclasses.replace(p, n_trees=4)
        head = MultiGpuGBDTTrainer(p, n_devices=n_devices).fit(ds.X, ds.y)
        resumed = MultiGpuGBDTTrainer(p, n_devices=n_devices).fit(
            ds.X, ds.y, init_model=head
        )
        whole = MultiGpuGBDTTrainer(p4, n_devices=n_devices).fit(ds.X, ds.y)
        single = GPUGBDTTrainer(p4).fit(ds.X, ds.y)
        assert resumed.n_trees == 4
        assert resumed.to_json() == whole.to_json()
        assert models_equal(resumed, single)
        if n_devices == 1:
            assert resumed.to_json() == single.to_json()


class TestScaling:
    def test_per_device_time_shrinks_with_devices(self, covtype_small):
        """The whole point of going multi-GPU: each device does ~1/k of the
        split-finding work."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4)
        t1 = MultiGpuGBDTTrainer(p, n_devices=1, work_scale=ds.work_scale,
                                 row_scale=ds.row_scale)
        t1.fit(ds.X, ds.y)
        t4 = MultiGpuGBDTTrainer(p, n_devices=4, work_scale=ds.work_scale,
                                 row_scale=ds.row_scale)
        t4.fit(ds.X, ds.y)
        assert t4.elapsed_seconds() < t1.elapsed_seconds()

    def test_speedup_is_sublinear(self, covtype_small):
        """Communication (gradient broadcast, side-array broadcast) keeps
        scaling below ideal."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4)
        times = {}
        for k in (1, 4):
            t = MultiGpuGBDTTrainer(p, n_devices=k, work_scale=ds.work_scale,
                                    row_scale=ds.row_scale)
            t.fit(ds.X, ds.y)
            times[k] = t.elapsed_seconds()
        assert 1.0 < times[1] / times[4] < 4.0

    def test_communication_recorded(self, covtype_small):
        ds = covtype_small
        t = MultiGpuGBDTTrainer(GBDTParams(n_trees=2, max_depth=3), n_devices=2)
        t.fit(ds.X, ds.y)
        names = {tr.name for dev in t.devices for tr in dev.ledger.transfers}
        assert "broadcast_gradients" in names
        assert "allreduce_best_splits" in names
        assert "broadcast_side_array" in names


class TestValidation:
    def test_at_least_one_device(self):
        with pytest.raises(ValueError):
            MultiGpuGBDTTrainer(n_devices=0)

    def test_more_devices_than_attributes(self, table1):
        """Sharding degrades gracefully when k > d (some shards are thin)."""
        X, y = table1
        p = GBDTParams(n_trees=2, max_depth=2)
        single = GPUGBDTTrainer(p).fit(X, y)
        multi = MultiGpuGBDTTrainer(p, n_devices=8).fit(X, y)
        assert models_equal(multi, single)

    def test_idle_shards_under_colsample(self, table1):
        """With k > d most shards draw no column in a tree and sit it out."""
        X, y = table1
        p = GBDTParams(n_trees=3, max_depth=2, colsample_bytree=0.5, seed=1)
        single = GPUGBDTTrainer(p).fit(X, y)
        multi = MultiGpuGBDTTrainer(p, n_devices=8).fit(X, y)
        assert multi.to_json() == single.to_json()

    def test_goss_rejected(self, covtype_small):
        p = GBDTParams(n_trees=1, max_depth=2, goss_a=0.2)
        with pytest.raises(ValueError, match="GOSS"):
            MultiGpuGBDTTrainer(p, n_devices=2).fit(covtype_small.X, covtype_small.y)

    def test_used_rle_flag(self, covtype_small):
        ds = covtype_small
        t = MultiGpuGBDTTrainer(GBDTParams(n_trees=1, max_depth=2), n_devices=2)
        t.fit(ds.X, ds.y)
        assert t.used_rle
