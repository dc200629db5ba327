"""Training determinism guards for the registry's version-by-content scheme.

The registry identifies models by a digest of their canonical JSON payload;
that is only a stable identity if training the same configuration on the
same data twice yields byte-identical payloads.
"""

import numpy as np

from repro import GBDTParams, GPUGBDTTrainer, models_equal, trees_equal
from repro.core.booster_model import canonical_model_payload
from repro.serve import ModelRegistry


def _train(ds, seed: int, n_trees: int = 5, max_depth: int = 4):
    params = GBDTParams(n_trees=n_trees, max_depth=max_depth, seed=seed)
    return GPUGBDTTrainer(params).fit(ds.X, ds.y)


class TestTrainingDeterminism:
    def test_same_seed_same_trees(self, susy_small):
        a = _train(susy_small, seed=7)
        b = _train(susy_small, seed=7)
        assert models_equal(a, b)
        for ta, tb in zip(a.trees, b.trees):
            assert trees_equal(ta, tb)

    def test_same_seed_byte_identical_payload(self, susy_small):
        a = _train(susy_small, seed=7)
        b = _train(susy_small, seed=7)
        assert a.to_json() == b.to_json()
        assert canonical_model_payload(a) == canonical_model_payload(b)

    def test_subsampled_training_still_deterministic(self, covtype_small):
        """The seed drives row/column sampling; same seed, same subsample."""
        params = GBDTParams(n_trees=4, max_depth=3, seed=3, subsample=0.7, colsample_bytree=0.8)
        a = GPUGBDTTrainer(params).fit(covtype_small.X, covtype_small.y)
        b = GPUGBDTTrainer(params).fit(covtype_small.X, covtype_small.y)
        assert a.to_json() == b.to_json()

    def test_predictions_reproducible(self, susy_small):
        a = _train(susy_small, seed=7)
        b = _train(susy_small, seed=7)
        pa = a.predict(susy_small.X_test)
        pb = b.predict(susy_small.X_test)
        assert np.array_equal(pa, pb)


class TestVersionByContent:
    def test_same_seed_same_version(self, susy_small):
        registry = ModelRegistry()
        va = registry.publish(_train(susy_small, seed=7))
        vb = registry.publish(_train(susy_small, seed=7))
        assert va == vb
        assert registry.versions() == [va]  # deduplicated, one stored version

    def test_different_config_different_version(self, susy_small):
        """Structurally different configs hash to distinct content versions.

        (A seed change alone is *not* enough: exact-greedy training without
        subsampling is seed-independent, so same data + same structure means
        the same model -- and, correctly, the same version.)
        """
        registry = ModelRegistry()
        va = registry.publish(_train(susy_small, seed=7))
        vb = registry.publish(_train(susy_small, seed=7, max_depth=2))
        vc = registry.publish(_train(susy_small, seed=7, n_trees=2))
        assert len({va, vb, vc}) == 3
        assert registry.versions() == [va, vb, vc]

    def test_version_survives_round_trip(self, susy_small):
        """Publishing the restored model yields the same content version."""
        registry = ModelRegistry()
        model = _train(susy_small, seed=7)
        va = registry.publish(model)
        restored = registry.active().restore()
        vb = registry.publish(restored)
        assert va == vb
