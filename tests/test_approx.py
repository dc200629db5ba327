"""Tests for the histogram/approximate trainer and quantile binning."""

import hashlib
import json

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, TITAN_X_PASCAL
from repro.approx import HistogramGBDTTrainer, build_bins
from repro.approx.quantile import bin_column_values
from repro.data import CSRMatrix, build_sorted_columns, make_dataset
from repro.metrics import rmse
from repro.obs import Tracer, use_tracer
from tests.conftest import random_csr


def sorted_cols(X):
    return build_sorted_columns(X.to_csc())


class TestQuantileBins:
    def test_few_distinct_values_keep_one_bin_each(self):
        X = CSRMatrix.from_rows(
            [[(0, 1.0)], [(0, 2.0)], [(0, 2.0)], [(0, 3.0)]], n_cols=1
        )
        spec = build_bins(sorted_cols(X), max_bins=8)
        assert spec.n_bins(0) == 3  # values {1, 2, 3}
        assert list(spec.edges[0]) == sorted(spec.edges[0], reverse=True)

    def test_bin_of_descending_convention(self):
        X = CSRMatrix.from_rows(
            [[(0, 1.0)], [(0, 2.0)], [(0, 3.0)]], n_cols=1
        )
        spec = build_bins(sorted_cols(X), max_bins=8)
        bins = spec.bin_of(0, np.array([3.0, 2.0, 1.0]))
        assert list(bins) == [0, 1, 2]  # largest value -> bin 0

    def test_value_groups_never_straddle_bins(self):
        rng = np.random.default_rng(0)
        X = random_csr(rng, 200, 3, density=0.9, levels=5)
        cols = sorted_cols(X)
        spec = build_bins(cols, max_bins=3)  # fewer bins than levels
        for j in range(3):
            vals, _ = cols.column(j)
            bins = spec.bin_of(j, vals)
            # same value => same bin
            for v in np.unique(vals):
                assert len(set(bins[vals == v])) == 1

    def test_equi_mass_on_continuous_data(self):
        rng = np.random.default_rng(1)
        X = random_csr(rng, 1000, 1, density=1.0)
        cols = sorted_cols(X)
        spec = build_bins(cols, max_bins=8)
        vals, _ = cols.column(0)
        counts = np.bincount(spec.bin_of(0, vals), minlength=spec.n_bins(0))
        assert counts.max() <= 2.5 * counts[counts > 0].mean()

    def test_empty_column(self):
        X = CSRMatrix.from_rows([[(0, 1.0)]], n_cols=2)
        spec = build_bins(sorted_cols(X), max_bins=4)
        assert spec.n_bins(1) == 1  # no edges

    def test_max_bins_validation(self):
        X = CSRMatrix.from_rows([[(0, 1.0)]], n_cols=1)
        with pytest.raises(ValueError):
            build_bins(sorted_cols(X), max_bins=1)

    def test_bin_column_values_matches_bin_of(self):
        rng = np.random.default_rng(2)
        X = random_csr(rng, 50, 4, density=0.7)
        cols = sorted_cols(X)
        spec = build_bins(cols, max_bins=6)
        ent = bin_column_values(spec, cols)
        for j in range(4):
            lo, hi = cols.col_offsets[j], cols.col_offsets[j + 1]
            assert np.array_equal(ent[lo:hi], spec.bin_of(j, cols.values[lo:hi]))

    def test_binned_values_descending_per_column(self):
        """Descending values => non-decreasing bin indices."""
        rng = np.random.default_rng(3)
        X = random_csr(rng, 120, 3, density=0.8)
        cols = sorted_cols(X)
        spec = build_bins(cols, max_bins=5)
        ent = bin_column_values(spec, cols)
        for j in range(3):
            lo, hi = cols.col_offsets[j], cols.col_offsets[j + 1]
            assert np.all(np.diff(ent[lo:hi]) >= 0)


class TestHistogramTrainer:
    def test_exact_partitions_on_quantized_data(self, covtype_small):
        """With bins >= distinct values the candidate sets coincide, so the
        learned partitions match the exact trainer's."""
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4)
        exact = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        hist = HistogramGBDTTrainer(p, max_bins=256).fit(ds.X, ds.y)
        for a, b in zip(exact.trees, hist.trees):
            assert a.attr == b.attr
            assert a.left == b.left
            assert a.n_instances == b.n_instances
            assert np.allclose(a.value, b.value, atol=1e-8)
        assert np.allclose(exact.predict(ds.X), hist.predict(ds.X))

    def test_approximation_on_continuous_data(self, susy_small):
        """Coarse bins genuinely change the trees but stay competitive --
        the LightGBM trade-off the paper contrasts against."""
        ds = susy_small
        p = GBDTParams(n_trees=5, max_depth=4)
        exact = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        hist = HistogramGBDTTrainer(p, max_bins=8).fit(ds.X, ds.y)
        e = rmse(ds.y_test, exact.predict(ds.X_test))
        a = rmse(ds.y_test, hist.predict(ds.X_test))
        assert a < e * 1.25  # close, not equal
        assert not np.allclose(exact.predict(ds.X), hist.predict(ds.X))

    def test_histograms_cost_less_than_exact_at_scale(self, susy_small):
        """The whole point of the approximate family: per level it touches
        bins, not sorted entries, and never partitions value lists."""
        ds = susy_small
        p = GBDTParams(n_trees=3, max_depth=5)
        d_exact = GpuDevice(TITAN_X_PASCAL, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
        GPUGBDTTrainer(p, d_exact, row_scale=ds.row_scale).fit(ds.X, ds.y)
        d_hist = GpuDevice(TITAN_X_PASCAL, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
        HistogramGBDTTrainer(p, d_hist, max_bins=32, row_scale=ds.row_scale).fit(ds.X, ds.y)
        assert d_hist.elapsed_seconds() < d_exact.elapsed_seconds()

    def test_missing_values_follow_default(self, sparse_small):
        ds = sparse_small
        p = GBDTParams(n_trees=3, max_depth=3)
        model = HistogramGBDTTrainer(p, max_bins=16).fit(ds.X, ds.y)
        pred = model.predict(ds.X_test)
        assert np.all(np.isfinite(pred))

    def test_boosting_reduces_error(self, susy_small):
        ds = susy_small
        model = HistogramGBDTTrainer(GBDTParams(n_trees=8, max_depth=4), max_bins=16).fit(
            ds.X, ds.y
        )
        hist = model.eval_history(ds.X, ds.y)
        assert hist[-1] < hist[0]

    def test_instance_counts_partition(self, covtype_small):
        ds = covtype_small
        model = HistogramGBDTTrainer(GBDTParams(n_trees=2, max_depth=4), max_bins=16).fit(
            ds.X, ds.y
        )
        for t in model.trees:
            for nid in range(t.n_nodes):
                if not t.is_leaf(nid):
                    assert (
                        t.n_instances[nid]
                        == t.n_instances[t.left[nid]] + t.n_instances[t.right[nid]]
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramGBDTTrainer(max_bins=1)
        X = CSRMatrix.from_rows([[(0, 1.0)]], n_cols=1)
        with pytest.raises(ValueError):
            HistogramGBDTTrainer(GBDTParams(n_trees=1)).fit(X, np.array([1.0]))

    def test_gamma_prunes(self, covtype_small):
        ds = covtype_small
        loose = HistogramGBDTTrainer(GBDTParams(n_trees=2, max_depth=4), max_bins=16).fit(ds.X, ds.y)
        strict = HistogramGBDTTrainer(
            GBDTParams(n_trees=2, max_depth=4, gamma=1e6), max_bins=16
        ).fit(ds.X, ds.y)
        assert sum(t.n_nodes for t in strict.trees) < sum(t.n_nodes for t in loose.trees)

    @pytest.mark.parametrize("kind", ["depthwise", "lossguide", "stream", "dist"])
    @pytest.mark.parametrize(
        "sampling", [{"subsample": 0.5}, {"colsample_bytree": 0.5}],
        ids=["subsample", "colsample"],
    )
    def test_ignored_sampling_params_rejected(self, susy_small, kind, sampling):
        """The histogram family implements GOSS only; uniform row or column
        sampling used to be silently ignored."""
        from repro.dist import DistributedHistTrainer
        from repro.stream import StreamingHistTrainer

        p = GBDTParams(n_trees=2, max_depth=3, **sampling)
        with pytest.raises(ValueError, match="subsample"):
            {
                "depthwise": lambda: HistogramGBDTTrainer(p),
                "lossguide": lambda: HistogramGBDTTrainer(
                    p, grow_policy="lossguide", max_leaves=4
                ),
                "stream": lambda: StreamingHistTrainer(p, block_rows=100),
                "dist": lambda: DistributedHistTrainer(p, n_workers=2),
            }[kind]().fit(susy_small.X, susy_small.y)


class TestLossguideGrowth:
    def test_unbounded_matches_depthwise(self, susy_small):
        """With no leaf cap, per-leaf decisions are order-independent, so
        lossguide grows the same partition as depthwise."""
        ds = susy_small
        p = GBDTParams(n_trees=3, max_depth=4)
        depth = HistogramGBDTTrainer(p, max_bins=16).fit(ds.X, ds.y)
        loss = HistogramGBDTTrainer(p, max_bins=16, grow_policy="lossguide").fit(ds.X, ds.y)
        assert np.array_equal(depth.predict(ds.X), loss.predict(ds.X))
        assert [t.n_leaves for t in depth.trees] == [t.n_leaves for t in loss.trees]

    #: sha256 of ``to_json()`` for lossguide fits on ``susy_small`` (3 trees,
    #: 16 bins); a max_depth=2 tree holds at most 4 leaves, so every cap
    #: grows the same model there
    PINNED = {
        (0, 2): "87b1016f3a8715a5c891db26a08b515b8849c8d25899d69fab1c01523ffe5423",
        (0, 6): "ac6e3fa08d1cebe8c40425f5c78cc7c213d9afa3a614eadbfd61b2ac88cc3d82",
        (4, 2): "87b1016f3a8715a5c891db26a08b515b8849c8d25899d69fab1c01523ffe5423",
        (4, 6): "b518816f1967fa2e7337a58efb571657512b15e1b440e425d1460836330f8aa1",
        (16, 2): "87b1016f3a8715a5c891db26a08b515b8849c8d25899d69fab1c01523ffe5423",
        (16, 6): "d52b28b26103c3f2cf155a0afe3b5707f343068b9e9c834fc1431eb1a8a5a299",
    }
    PINNED_WARM = "4f8a67d37ade595828c9db050117ef13b6f753f9a7836c1311341645dfabcd38"

    @pytest.mark.parametrize("use_subtraction", [True, False], ids=["sub", "nosub"])
    @pytest.mark.parametrize("max_depth", [2, 6])
    @pytest.mark.parametrize("max_leaves", [0, 4, 16])
    def test_pinned_model_digests(self, susy_small, max_leaves, max_depth, use_subtraction):
        """Lossguide models are pinned byte for byte, subtraction on or off."""
        ds = susy_small
        model = HistogramGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=max_depth), max_bins=16,
            grow_policy="lossguide", max_leaves=max_leaves,
            use_subtraction=use_subtraction,
        ).fit(ds.X, ds.y)
        digest = hashlib.sha256(model.to_json().encode()).hexdigest()
        assert digest == self.PINNED[(max_leaves, max_depth)]

    def test_pinned_warm_start_digest(self, susy_small):
        """fit(2) then fit(4, init_model=...) (n_trees is the total)."""
        ds = susy_small

        def trainer(n_trees):
            return HistogramGBDTTrainer(
                GBDTParams(n_trees=n_trees, max_depth=4), max_bins=16,
                grow_policy="lossguide", max_leaves=8,
            )

        half = trainer(2).fit(ds.X, ds.y)
        model = trainer(4).fit(ds.X, ds.y, init_model=half)
        digest = hashlib.sha256(model.to_json().encode()).hexdigest()
        assert digest == self.PINNED_WARM

    def test_emits_find_split_spans(self, susy_small):
        ds = susy_small
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            HistogramGBDTTrainer(
                GBDTParams(n_trees=1, max_depth=4), max_bins=16,
                grow_policy="lossguide", max_leaves=6,
            ).fit(ds.X, ds.y)
        assert any(s.name == "find_split" for s in tracer.finished())

    def test_max_leaves_cap_respected(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=2, max_depth=6)
        model = HistogramGBDTTrainer(
            p, max_bins=16, grow_policy="lossguide", max_leaves=5
        ).fit(ds.X, ds.y)
        assert all(t.n_leaves <= 5 for t in model.trees)

    def test_best_first_order_splits_largest_gain_first(self, susy_small):
        """The leaf cap keeps the highest-gain subtrees: with k leaves, the
        kept internal nodes are the k-1 largest gains the unbounded tree
        would realize along the frontier."""
        ds = susy_small
        p = GBDTParams(n_trees=1, max_depth=6)
        capped = HistogramGBDTTrainer(
            p, max_bins=16, grow_policy="lossguide", max_leaves=4
        ).fit(ds.X, ds.y)
        t = capped.trees[0]
        assert t.n_leaves == 4
        # root must hold the single largest gain of its frontier
        gains = [t.gain[i] for i in range(t.n_nodes) if not t.is_leaf(i)]
        assert t.gain[0] == max(gains)

    def test_depth_still_bounds_lossguide(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=2, max_depth=2)
        model = HistogramGBDTTrainer(
            p, max_bins=16, grow_policy="lossguide", max_leaves=64
        ).fit(ds.X, ds.y)
        assert all(t.max_depth() <= 2 for t in model.trees)

    def test_smartgd_consistency_lossguide(self, susy_small):
        """yhat bookkeeping stays exact under best-first growth: boosting
        reduces training error monotonically enough."""
        ds = susy_small
        model = HistogramGBDTTrainer(
            GBDTParams(n_trees=8, max_depth=4), max_bins=16,
            grow_policy="lossguide", max_leaves=8,
        ).fit(ds.X, ds.y)
        hist = model.eval_history(ds.X, ds.y)
        assert hist[-1] < hist[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramGBDTTrainer(grow_policy="breadthfirst")
        with pytest.raises(ValueError):
            HistogramGBDTTrainer(max_leaves=-1)


class TestLedgerPin:
    """The in-memory histogram trainer's gpusim ledger, pinned as a multiset.

    Each digest is the sha256 of the sorted ``(kernel or transfer name,
    phase, elements, bytes)`` tuples of one fit on ``susy_small`` (3 trees,
    depth 5, 16 bins), taken before histogram accumulation moved into the
    routing pass.  Launch order may change; what the device is charged,
    and in which phase, may not -- this guards modeled ``device_s`` and its
    per-phase split.
    """

    PINNED = {
        "depthwise-sub": "7e46507595c048d4b6ca125b0038b96196b753d139787f946d553774abd7e116",
        "depthwise-nosub": "c43b37662e4585185ddcff9f589569af67cc8832e85006e3eb0be8df8f957c7a",
        "depthwise-goss": "36f19e354278f2b42de350c1abf9ae9ab21a8a1d9d9b5f7ebfe456b1525b370c",
        "lossguide": "43b5e828746439c3778d3f33db84b384c73dcdcd1e5f5bdb5dbeabd4e29ccc62",
        "lossguide-capped": "c0b3a9db25a9ab72463a70a2a488136ffe24641a9ac39324bc374223c2b6d538",
    }
    CONFIGS = {
        "depthwise-sub": ({}, {"use_subtraction": True}),
        "depthwise-nosub": ({}, {"use_subtraction": False}),
        "depthwise-goss": ({"goss_a": 0.3, "goss_b": 0.3}, {"use_subtraction": True}),
        "lossguide": ({}, {"grow_policy": "lossguide"}),
        "lossguide-capped": ({}, {"grow_policy": "lossguide", "max_leaves": 6}),
    }

    @staticmethod
    def ledger_digest(device):
        ledger = device.ledger
        items = [(k.name, k.phase, k.work.elements, k.work.total_bytes) for k in ledger.kernels]
        items += [(t.name, t.phase, 0.0, t.nbytes) for t in ledger.transfers]
        return hashlib.sha256(json.dumps(sorted(items)).encode()).hexdigest()

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_ledger_multiset_pinned(self, susy_small, config):
        params, knobs = self.CONFIGS[config]
        device = GpuDevice()
        HistogramGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=5, **params), device, max_bins=16, **knobs
        ).fit(susy_small.X, susy_small.y)
        assert self.ledger_digest(device) == self.PINNED[config]
