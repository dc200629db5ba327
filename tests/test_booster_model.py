"""Tests for GBDTModel: prediction composition, staging, serialization."""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.core.booster_model import GBDTModel
from repro.core.tree import DecisionTree


def leaf_tree(v):
    t = DecisionTree()
    t.add_root()
    t.set_leaf(0, v)
    return t


class TestPrediction:
    def test_sum_of_trees_plus_base(self):
        m = GBDTModel(trees=[leaf_tree(1.0), leaf_tree(0.5)], params=GBDTParams(), base_score=0.25)
        out = m.predict(np.zeros((3, 1)))
        assert np.allclose(out, 1.75)

    def test_n_trees_prefix(self):
        m = GBDTModel(trees=[leaf_tree(1.0), leaf_tree(2.0)], params=GBDTParams())
        assert m.predict(np.zeros((1, 1)), n_trees=1)[0] == 1.0
        assert m.predict(np.zeros((1, 1)), n_trees=0)[0] == 0.0

    def test_staged_predict_cumulative(self):
        m = GBDTModel(trees=[leaf_tree(1.0), leaf_tree(2.0), leaf_tree(4.0)], params=GBDTParams())
        staged = m.staged_predict(np.zeros((2, 1)))
        assert staged.shape == (3, 2)
        assert np.allclose(staged[:, 0], [1.0, 3.0, 7.0])

    def test_transform_logistic(self):
        m = GBDTModel(trees=[leaf_tree(0.0)], params=GBDTParams(loss="logistic"))
        out = m.predict(np.zeros((1, 1)), transform=True)
        assert out[0] == pytest.approx(0.5)


class TestSerialization:
    def test_json_roundtrip(self, covtype_small):
        ds = covtype_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
        restored = GBDTModel.from_json(model.to_json(), params=model.params)
        assert models_equal(model, restored)
        assert np.allclose(model.predict(ds.X_test), restored.predict(ds.X_test))

    def test_json_preserves_base_score(self):
        m = GBDTModel(trees=[leaf_tree(1.0)], params=GBDTParams(), base_score=0.75)
        r = GBDTModel.from_json(m.to_json())
        assert r.base_score == 0.75

    def test_json_is_text(self):
        m = GBDTModel(trees=[leaf_tree(1.0)], params=GBDTParams())
        import json

        payload = json.loads(m.to_json())
        assert "trees" in payload and len(payload["trees"]) == 1


def stump(attr=0, threshold=0.5, left=-0.25, right=0.75, default_left=True):
    t = DecisionTree()
    t.add_root()
    lid, rid = t.split_node(0, attr, threshold, default_left, 1.0)
    t.set_leaf(lid, left)
    t.set_leaf(rid, right)
    return t


class TestAdversarialRoundTrip:
    """Round-trip under the degenerate shapes a pipeline can produce."""

    def test_empty_ensemble(self):
        m = GBDTModel(trees=[], params=GBDTParams(), base_score=0.5)
        r = GBDTModel.from_json(m.to_json())
        assert r.n_trees == 0
        assert r.to_json() == m.to_json()
        assert np.allclose(r.predict(np.zeros((4, 2))), 0.5)

    def test_single_stump(self):
        m = GBDTModel(trees=[stump()], params=GBDTParams(), base_score=0.0)
        r = GBDTModel.from_json(m.to_json())
        X = np.array([[1.0], [0.0], [np.nan]])
        assert np.array_equal(m.predict(X), r.predict(X))
        assert r.to_json() == m.to_json()

    def test_leaf_only_trees(self):
        m = GBDTModel(trees=[leaf_tree(0.25), leaf_tree(-1.5)], params=GBDTParams())
        r = GBDTModel.from_json(m.to_json())
        assert r.to_json() == m.to_json()
        assert np.allclose(r.predict(np.zeros((2, 1))), -1.25)

    def test_nan_threshold(self):
        """A NaN threshold routes in memory -- every observed value fails
        ``v > nan``, so only ``default_left`` (missing) rows can go left --
        but no present value can ever go left, so loading refuses it."""
        m = GBDTModel(
            trees=[stump(threshold=float("nan"), default_left=True)],
            params=GBDTParams(),
        )
        out = m.predict(np.array([[5.0], [-5.0], [np.nan]]))
        assert out[0] == out[1] == 0.75  # observed values go right
        assert out[2] == -0.25  # missing follows default_left
        with pytest.raises(ValueError, match="non-finite split threshold"):
            GBDTModel.from_json(m.to_json())

    def test_infinite_leaf_and_threshold_values(self):
        """A ``+inf`` threshold and an infinite leaf serialize but do not
        load; ``-inf`` thresholds and leaves at the float edge round-trip."""
        for bad in (stump(threshold=float("inf")), stump(left=float("-inf"))):
            with pytest.raises(ValueError, match="non-finite"):
                GBDTModel.from_json(GBDTModel(trees=[bad], params=GBDTParams()).to_json())
        m = GBDTModel(
            trees=[stump(threshold=float("-inf"), left=-1.7e308, right=1e308)],
            params=GBDTParams(),
        )
        r = GBDTModel.from_json(m.to_json())
        assert r.to_json() == m.to_json()
        X = np.array([[1.0], [np.nan]])
        assert np.array_equal(r.predict(X), m.predict(X))

    def test_double_roundtrip_is_byte_stable(self, covtype_small):
        ds = covtype_small
        model = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
        once = GBDTModel.from_json(model.to_json(), params=model.params)
        twice = GBDTModel.from_json(once.to_json(), params=model.params)
        assert model.to_json() == once.to_json() == twice.to_json()


class TestCrashSafeSave:
    def test_save_load_roundtrip(self, tmp_path):
        m = GBDTModel(trees=[stump()], params=GBDTParams(), base_score=0.1)
        path = tmp_path / "model.json"
        m.save(path)
        r = GBDTModel.load(path)
        assert r.to_json() == m.to_json()

    def test_save_is_atomic_under_kill(self, tmp_path, monkeypatch):
        from repro import ioutil
        from repro.ioutil import SimulatedCrash

        m = GBDTModel(trees=[stump()], params=GBDTParams())
        path = tmp_path / "model.json"
        m.save(path)
        before = path.read_text(encoding="utf-8")

        m2 = GBDTModel(trees=[stump(), stump()], params=GBDTParams())
        orig = ioutil.atomic_write_text

        def killing_write(p, text, **kw):
            def hook(step):
                if step == "synced":
                    raise SimulatedCrash(step)

            return orig(p, text, fault_hook=hook)

        # save() resolves atomic_write_text lazily, so patching the module
        # attribute intercepts the write
        monkeypatch.setattr(ioutil, "atomic_write_text", killing_write)
        with pytest.raises(SimulatedCrash):
            m2.save(path)
        # the kill mid-save never tore the destination
        assert path.read_text(encoding="utf-8") == before
