"""GOSS (gradient-based one-side sampling) in the histogram trainer.

Sampling is the one hot-path optimization that is *not* byte-identical to
the baseline, so its contract is different from subtraction's: the draw
must be a pure function of ``(seed, round, gradients)`` (seed determinism,
bit-identical warm-start resume), the reweighting must conserve gradient
mass (the (1-a)/b amplification), and accuracy must stay within a pinned
differential gate of full-data training on a holdout.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.sampling import goss_sample
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.data import make_dataset
from repro.dist import DistributedHistTrainer
from repro.losses import goss_weighted_gradients
from repro.metrics import rmse
from repro.obs import MetricsRegistry, use_registry

PARAMS = GBDTParams(n_trees=6, max_depth=4, goss_a=0.3, goss_b=0.3, seed=7)
#: HistogramGBDTTrainer keyword arguments per grow policy
POLICIES = {
    "depthwise": {},
    "lossguide": {"grow_policy": "lossguide", "max_leaves": 8},
}


def _split(ds, frac=0.75):
    n = ds.X.shape[0]
    cut = int(n * frac)
    tr = np.arange(cut, dtype=np.int64)
    te = np.arange(cut, n, dtype=np.int64)
    return ds.X.select_rows(tr), ds.y[tr], ds.X.select_rows(te), ds.y[te]


# ------------------------------------------------------------------ the draw
class TestGossSample:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.g = rng.normal(size=500)

    def test_top_rows_always_kept(self):
        s = goss_sample(7, 0, self.g, 0.2, 0.3)
        n_top = round(500 * 0.2)
        top = np.argsort(-np.abs(self.g), kind="stable")[:n_top]
        assert s.inst_mask[top].all()
        assert not s.amplified[top].any()

    def test_sampled_rest_is_amplified_subset(self):
        s = goss_sample(7, 0, self.g, 0.2, 0.3)
        assert s.amplified.sum() == round(500 * 0.3)
        assert (s.amplified & ~s.inst_mask).sum() == 0
        assert s.n_kept == round(500 * 0.2) + round(500 * 0.3)
        assert s.factor == pytest.approx((1 - 0.2) / 0.3)

    def test_deterministic_per_seed_and_round(self):
        a = goss_sample(7, 3, self.g, 0.2, 0.3)
        b = goss_sample(7, 3, self.g, 0.2, 0.3)
        np.testing.assert_array_equal(a.inst_mask, b.inst_mask)
        np.testing.assert_array_equal(a.amplified, b.amplified)
        c = goss_sample(7, 4, self.g, 0.2, 0.3)
        assert not np.array_equal(a.amplified, c.amplified)

    def test_off_is_none(self):
        assert goss_sample(7, 0, self.g, 1.0, 0.3) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            goss_sample(7, 0, self.g, 0.0, 0.3)
        with pytest.raises(ValueError):
            goss_sample(7, 0, self.g, 0.5, 0.0)
        with pytest.raises(ValueError):
            goss_sample(7, 0, self.g, 0.7, 0.4)  # a + b > 1

    def test_weight_conservation(self):
        """Amplification keeps the expected gradient mass: for the constant
        hessian h=2 the reweighted total equals the full total to within the
        rounding of the two sample sizes."""
        h = np.full_like(self.g, 2.0)
        s = goss_sample(7, 0, self.g, 0.2, 0.3)
        hw = h.copy()
        gw = self.g.copy()
        goss_weighted_gradients(gw, hw, s.inst_mask, s.amplified, s.factor)
        # kept-top mass + amplified mass ~ full mass: a*n + b*n*(1-a)/b = n
        assert hw.sum() == pytest.approx(h.sum(), rel=0.02)
        # excluded rows contribute exactly nothing
        assert gw[~s.inst_mask].sum() == 0.0 and hw[~s.inst_mask].sum() == 0.0


# --------------------------------------------------------------- determinism
class TestDeterminism:
    def test_repeat_fit_is_byte_identical(self, covtype_small):
        a = HistogramGBDTTrainer(PARAMS, max_bins=32).fit(
            covtype_small.X, covtype_small.y
        )
        b = HistogramGBDTTrainer(PARAMS, max_bins=32).fit(
            covtype_small.X, covtype_small.y
        )
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("policy", POLICIES, ids=list(POLICIES))
    def test_warm_start_replay_identity(self, covtype_small, policy):
        """fit(k) then fit(m, init_model=...) == fit(k+m) bit-for-bit:
        the GOSS draw is keyed by the *global* round index and the resumed
        margins replay exactly, so the resumed rounds see identical
        gradients, draw identical samples, and grow identical trees."""
        ds = covtype_small
        kw = POLICIES[policy]
        one_shot = HistogramGBDTTrainer(PARAMS, max_bins=32, **kw).fit(ds.X, ds.y)
        half = HistogramGBDTTrainer(
            PARAMS.replace(n_trees=3), max_bins=32, **kw
        ).fit(ds.X, ds.y)
        resumed = HistogramGBDTTrainer(
            PARAMS.replace(n_trees=PARAMS.n_trees - 3), max_bins=32, **kw
        ).fit(ds.X, ds.y, init_model=half)
        assert resumed.to_json() == one_shot.to_json()

    def test_warm_start_identity_without_goss(self, covtype_small):
        """The new init_model= path is exact for plain training too."""
        ds = covtype_small
        p = GBDTParams(n_trees=6, max_depth=4, seed=7)
        one_shot = HistogramGBDTTrainer(p, max_bins=32).fit(ds.X, ds.y)
        half = HistogramGBDTTrainer(p.replace(n_trees=3), max_bins=32).fit(ds.X, ds.y)
        resumed = HistogramGBDTTrainer(p.replace(n_trees=3), max_bins=32).fit(
            ds.X, ds.y, init_model=half
        )
        assert resumed.to_json() == one_shot.to_json()

    def test_smartgd_matches_traversal(self, covtype_small):
        """Excluded rows get their margins by traversal (apply_tree_to);
        the two gradient strategies must still agree bit-for-bit."""
        ds = covtype_small
        smart = HistogramGBDTTrainer(PARAMS, max_bins=32).fit(ds.X, ds.y)
        trav = HistogramGBDTTrainer(
            PARAMS.replace(use_smartgd=False), max_bins=32
        ).fit(ds.X, ds.y)
        from repro import models_equal

        assert models_equal(smart, trav)

    def test_subtraction_identity_under_goss(self, covtype_small):
        """Sampling composes with subtraction: children still partition the
        (sampled) parent, so derivation stays exact."""
        ds = covtype_small
        on = HistogramGBDTTrainer(
            PARAMS, max_bins=32, use_subtraction=True
        ).fit(ds.X, ds.y)
        off = HistogramGBDTTrainer(
            PARAMS, max_bins=32, use_subtraction=False
        ).fit(ds.X, ds.y)
        assert on.to_json() == off.to_json()


# ------------------------------------------------------------- accuracy gate
@pytest.mark.parametrize("policy", POLICIES, ids=list(POLICIES))
def test_differential_accuracy_gate(policy):
    """GOSS (a=0.2, b=0.2) must stay within 10% holdout RMSE of full-data
    training under the same grow policy on the gated workload (a sampler
    that loses the amplification or samples the wrong side blows far
    past)."""
    ds = make_dataset("covtype", run_rows=1200, seed=11)
    Xtr, ytr, Xte, yte = _split(ds)
    p = GBDTParams(n_trees=20, max_depth=5)
    kw = POLICIES[policy]
    full = HistogramGBDTTrainer(p, max_bins=32, **kw).fit(Xtr, ytr)
    goss = HistogramGBDTTrainer(
        p.replace(goss_a=0.2, goss_b=0.2), max_bins=32, **kw
    ).fit(Xtr, ytr)
    r_full = rmse(yte, full.predict(Xte))
    r_goss = rmse(yte, goss.predict(Xte))
    assert r_goss <= r_full * 1.10, (r_goss, r_full)


def test_rows_kept_counter():
    registry = MetricsRegistry()
    with use_registry(registry):
        ds = make_dataset("covtype", run_rows=200, seed=3)
        HistogramGBDTTrainer(PARAMS, max_bins=16).fit(ds.X, ds.y)
    kept = registry.get("goss_rows_kept_total")
    n = ds.X.shape[0]
    expected_per_round = round(n * 0.3) + round(n * 0.3)
    assert kept is not None
    assert kept.value == PARAMS.n_trees * expected_per_round


# ---------------------------------------------------------------- rejections
class TestScope:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="goss_a"):
            GBDTParams(goss_a=0.0)
        with pytest.raises(ValueError, match="goss_b"):
            GBDTParams(goss_a=0.5, goss_b=0.0)
        with pytest.raises(ValueError, match="goss_a \\+ goss_b"):
            GBDTParams(goss_a=0.8, goss_b=0.3)

    def test_exact_trainer_rejects(self, covtype_small):
        with pytest.raises(ValueError, match="histogram"):
            GPUGBDTTrainer(PARAMS).fit(covtype_small.X, covtype_small.y)

    def test_reference_trainer_rejects(self, covtype_small):
        with pytest.raises(ValueError, match="histogram"):
            ReferenceTrainer(PARAMS).fit(covtype_small.X, covtype_small.y)

    def test_distributed_rejects(self):
        with pytest.raises(ValueError, match="not supported"):
            DistributedHistTrainer(PARAMS, n_workers=2)
