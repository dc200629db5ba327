"""Differential tests for distributed data-parallel training.

The load-bearing property of ``repro.dist``: sharding rows across W workers
must not change anything observable -- global quantile cuts from merged
sketches equal the single-process cuts exactly, and the W-worker model is
byte-identical (serialized JSON) to the single-process histogram trainer
for any W, under both comms backends, with or without an injected crash.
"""

import numpy as np
import pytest

from repro import GBDTParams
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.approx.quantile import (
    build_bins,
    build_bins_from_sketches,
    merge_sketches,
    sketch_columns,
)
from repro.data import make_dataset
from repro.data.sorted_columns import build_sorted_columns
from repro.dist import DistributedHistTrainer, FaultPlan, WorkerFailure
from repro.obs import MetricsRegistry, use_registry
from repro.pipeline.checkpoint import model_digest

from tests.conftest import random_csr

PARAMS = GBDTParams(n_trees=4, max_depth=4, seed=7)
MAX_BINS = 32


def _single_model(ds, max_bins=MAX_BINS, params=PARAMS):
    return HistogramGBDTTrainer(params, max_bins=max_bins).fit(ds.X, ds.y)


# --------------------------------------------------------------------- cuts
class TestSketchMerge:
    def _global_and_merged(self, X, shard_splits, max_bins):
        global_spec = build_bins(build_sorted_columns(X.to_csc()), max_bins)
        idx = np.arange(X.shape[0], dtype=np.int64)
        per_shard = [
            sketch_columns(build_sorted_columns(X.select_rows(part).to_csc()))
            for part in np.split(idx, shard_splits)
        ]
        return global_spec, build_bins_from_sketches(merge_sketches(per_shard), max_bins)

    @pytest.mark.parametrize("max_bins", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_duplicate_heavy_columns(self, max_bins, n_shards):
        rng = np.random.default_rng(5)
        X = random_csr(rng, 211, 6, density=0.8, levels=9)  # many ties
        splits = (np.arange(1, n_shards) * 211) // n_shards
        global_spec, merged_spec = self._global_and_merged(X, splits, max_bins)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(
                global_spec.edges[j], merged_spec.edges[j]
            )

    def test_skewed_sharding_with_empty_columns(self):
        rng = np.random.default_rng(9)
        X = random_csr(rng, 180, 5, density=0.4, levels=4)
        # pathological split: 3-row shard, then a huge one, then the rest
        global_spec, merged_spec = self._global_and_merged(X, [3, 170], 16)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(
                global_spec.edges[j], merged_spec.edges[j]
            )


# -------------------------------------------------------------- byte identity
class TestByteIdentity:
    @pytest.mark.parametrize("backend", ["sim", "threaded"])
    @pytest.mark.parametrize("w", [1, 2, 4])
    def test_matches_single_process(self, covtype_small, backend, w):
        ds = covtype_small
        reference = _single_model(ds).to_json()
        trainer = DistributedHistTrainer(
            PARAMS, n_workers=w, max_bins=MAX_BINS, backend=backend
        )
        model = trainer.fit(ds.X, ds.y)
        assert model.to_json() == reference
        assert trainer.recoveries == 0

    def test_skewed_data_distribution(self):
        """Sorted labels: each shard sees a disjoint slice of the response."""
        ds = make_dataset("susy", run_rows=240, seed=2)
        order = np.argsort(ds.y, kind="stable").astype(np.int64)
        X, y = ds.X.select_rows(order), ds.y[order]
        reference = HistogramGBDTTrainer(PARAMS, max_bins=MAX_BINS).fit(X, y)
        trainer = DistributedHistTrainer(PARAMS, n_workers=4, max_bins=MAX_BINS)
        model = trainer.fit(X, y)
        assert model.to_json() == reference.to_json()

    def test_more_workers_than_rows_clamps(self):
        ds = make_dataset("covtype", run_rows=8, seed=1)
        trainer = DistributedHistTrainer(
            GBDTParams(n_trees=2, max_depth=2, seed=7),
            n_workers=16,
            max_bins=8,
        )
        model = trainer.fit(ds.X, ds.y)
        single = HistogramGBDTTrainer(
            GBDTParams(n_trees=2, max_depth=2, seed=7), max_bins=8
        ).fit(ds.X, ds.y)
        assert model.to_json() == single.to_json()


# ------------------------------------------------------------ fault recovery
class TestCrashRecovery:
    @pytest.mark.parametrize("backend", ["sim", "threaded"])
    def test_kill_worker_recovers_to_identical_digest(
        self, covtype_small, backend, tmp_path
    ):
        ds = covtype_small
        reference = _single_model(ds)
        trainer = DistributedHistTrainer(
            PARAMS,
            n_workers=4,
            max_bins=MAX_BINS,
            backend=backend,
            faults=FaultPlan(kill_rank=2, kill_round=2),
            checkpoint_dir=tmp_path,
        )
        model = trainer.fit(ds.X, ds.y)
        assert model_digest(model) == model_digest(reference)
        assert model.to_json() == reference.to_json()
        assert trainer.recoveries == 1
        first, second = trainer.attempts_
        assert (first.workers, first.failed_ranks) == (4, [2])
        assert second.workers == 3 and second.failed_ranks == []
        assert second.resumed_round == 2  # restored the round-2 checkpoint

    def test_crash_before_any_checkpoint_restarts_from_scratch(
        self, covtype_small, tmp_path
    ):
        ds = covtype_small
        reference = _single_model(ds)
        trainer = DistributedHistTrainer(
            PARAMS,
            n_workers=3,
            max_bins=MAX_BINS,
            faults=FaultPlan(kill_rank=0, kill_round=0),
            checkpoint_dir=tmp_path,
        )
        model = trainer.fit(ds.X, ds.y)
        assert model.to_json() == reference.to_json()
        assert trainer.attempts_[1].resumed_round == 0

    def test_crash_without_checkpoint_dir_still_recovers(self, covtype_small):
        ds = covtype_small
        trainer = DistributedHistTrainer(
            PARAMS,
            n_workers=2,
            max_bins=MAX_BINS,
            faults=FaultPlan(kill_rank=1, kill_round=1),
        )
        model = trainer.fit(ds.X, ds.y)
        assert model.to_json() == _single_model(ds).to_json()

    def test_sole_worker_death_is_fatal(self, covtype_small):
        ds = covtype_small
        trainer = DistributedHistTrainer(
            PARAMS,
            n_workers=1,
            max_bins=MAX_BINS,
            faults=FaultPlan(kill_rank=0, kill_round=0),
        )
        with pytest.raises(WorkerFailure):
            trainer.fit(ds.X, ds.y)

    def test_straggler_does_not_change_model(self, covtype_small):
        ds = covtype_small
        trainer = DistributedHistTrainer(
            PARAMS,
            n_workers=3,
            max_bins=MAX_BINS,
            faults=FaultPlan(straggler_rank=1, straggler_delay_s=0.01),
        )
        model = trainer.fit(ds.X, ds.y)
        assert model.to_json() == _single_model(ds).to_json()
        assert trainer.comm_stats_[1].wait_s >= 0.01 * PARAMS.n_trees


# ------------------------------------------------- subtraction comm volume
class TestSubtractionCommVolume:
    """Sibling subtraction must shrink the histogram allreduce by exactly
    the smaller-child fraction: at every level past the root only half the
    sibling tables are reduced, so the saved payload is, in
    ``test_ext_comm_accounting`` style, a closed-form replay of the grown
    trees:

        saved = sum over trees and levels L >= 1 of
                3 * total_bins * 8 * (n_active(L) / 2) * 2 * (W - 1)

    (three int64 tables per level; the simulated ring allreduce charges
    ``nbytes * 2(W-1)/W`` per rank, summed over W ranks).  n_active(L) is
    the node count at depth L of the final tree -- exact because levels are
    entered iff nodes exist there and siblings always arrive in pairs.
    Every other collective (sketches, root sums, shift max) is identical in
    both runs and cancels in the difference.
    """

    W = 3

    def _fit(self, ds, use_subtraction):
        registry = MetricsRegistry()
        with use_registry(registry):
            trainer = DistributedHistTrainer(
                PARAMS,
                n_workers=self.W,
                max_bins=MAX_BINS,
                use_subtraction=use_subtraction,
            )
            model = trainer.fit(ds.X, ds.y)
        counter = registry.get(
            "collective_bytes_total", backend="sim", op="allreduce"
        )
        return model, trainer, counter.value

    def test_counter_drop_matches_analytic_formula(self, covtype_small):
        ds = covtype_small
        model_on, t_on, bytes_on = self._fit(ds, True)
        model_off, t_off, bytes_off = self._fit(ds, False)
        assert model_on.to_json() == model_off.to_json()

        single = HistogramGBDTTrainer(PARAMS, max_bins=MAX_BINS)
        single.fit(ds.X, ds.y)
        spec = single.bins_
        total_bins = sum(spec.n_bins(j) for j in range(ds.X.shape[1]))

        saved = 0.0
        for tree in model_on.trees:
            depths = np.asarray(tree.depth)
            for lvl in range(1, PARAMS.max_depth):
                n_active = int((depths == lvl).sum())
                if n_active == 0:
                    break
                assert n_active % 2 == 0
                saved += 3 * total_bins * 8 * (n_active / 2) * 2 * (self.W - 1)

        assert saved > 0, "no level ever subtracted -- workload too shallow"
        assert bytes_off - bytes_on == pytest.approx(saved, rel=1e-9)
        # the same saving shows in the per-rank CollectiveStats ledgers
        assert t_off.comm_bytes() - t_on.comm_bytes() == pytest.approx(
            saved, rel=1e-9
        )

    def test_reduction_is_roughly_half_of_histogram_traffic(self, covtype_small):
        """Sanity on magnitude: the histogram share of allreduce traffic
        drops by ~50% (never more, never trivially little)."""
        ds = covtype_small
        _, _, bytes_on = self._fit(ds, True)
        _, _, bytes_off = self._fit(ds, False)
        ratio = bytes_on / bytes_off
        assert 0.5 <= ratio < 0.9
