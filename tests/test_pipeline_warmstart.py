"""Differential tests for warm-start boosting.

The guarantee dist crash recovery rests on: training ``k`` rounds, serializing,
and resuming ``m`` more rounds produces a model **byte-identical** (same
``to_json`` text, same content digest) to training ``k + m`` rounds in one
run -- across RLE/non-RLE layouts, row/column sampling, and on both the GPU
trainer and the CPU reference.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.core.booster import GradientBoostedTrees
from repro.core.booster_model import GBDTModel, model_digest
from repro.cpu.exact_greedy import ReferenceTrainer

#: (GBDTParams overrides, GPUGBDTTrainer keywords)
CONFIGS = [
    pytest.param({}, {"rle_policy": "always"}, id="rle"),
    pytest.param({}, {"rle_policy": "never"}, id="no-rle"),
    pytest.param({"subsample": 0.7, "colsample_bytree": 0.8}, {}, id="sampled"),
]


def _params(total: int, **overrides) -> GBDTParams:
    return GBDTParams(n_trees=total, max_depth=3, seed=13).replace(**overrides)


@pytest.mark.parametrize("overrides,kernels", CONFIGS)
def test_gpu_resume_is_bit_identical(covtype_small, overrides, kernels):
    ds = covtype_small
    k, m = 2, 3
    full = GPUGBDTTrainer(_params(k + m, **overrides), **kernels).fit(ds.X, ds.y)
    head = GPUGBDTTrainer(_params(k, **overrides), **kernels).fit(ds.X, ds.y)
    resumed = GPUGBDTTrainer(_params(m, **overrides), **kernels).fit(
        ds.X, ds.y, init_model=head
    )
    assert resumed.to_json() == full.to_json()
    assert model_digest(resumed) == model_digest(full)


@pytest.mark.parametrize("overrides,kernels", CONFIGS)
def test_gpu_resume_through_json_is_bit_identical(covtype_small, overrides, kernels):
    """Resuming from a serialized model (the checkpoint path) changes nothing:
    JSON round-trips Python floats exactly."""
    ds = covtype_small
    k, m = 2, 3
    full = GPUGBDTTrainer(_params(k + m, **overrides), **kernels).fit(ds.X, ds.y)
    head = GPUGBDTTrainer(_params(k, **overrides), **kernels).fit(ds.X, ds.y)
    head = GBDTModel.from_json(head.to_json(), params=_params(k, **overrides))
    resumed = GPUGBDTTrainer(_params(m, **overrides), **kernels).fit(
        ds.X, ds.y, init_model=head
    )
    assert resumed.to_json() == full.to_json()


def test_cpu_reference_resume_is_bit_identical(covtype_small):
    ds = covtype_small
    k, m = 2, 2
    full = ReferenceTrainer(_params(k + m)).fit(ds.X, ds.y)
    head = ReferenceTrainer(_params(k)).fit(ds.X, ds.y)
    resumed = ReferenceTrainer(_params(m)).fit(ds.X, ds.y, init_model=head)
    assert resumed.to_json() == full.to_json()


def test_round_by_round_equals_one_shot(covtype_small):
    """The demo's one-round-at-a-time loop lands on the one-shot model."""
    ds = covtype_small
    total = 4
    one_shot = GPUGBDTTrainer(_params(total)).fit(ds.X, ds.y)
    model = None
    for _ in range(total):
        model = GPUGBDTTrainer(_params(1)).fit(ds.X, ds.y, init_model=model)
    assert model.to_json() == one_shot.to_json()


@pytest.mark.parametrize("backend", ["gpu-gbdt", "histogram"])
def test_facade_forwards_init_model(covtype_small, backend):
    ds = covtype_small

    def est(n_trees):
        return GradientBoostedTrees(_params(n_trees), backend=backend)

    head = est(2).fit(ds.X, ds.y).model_
    full = est(4).fit(ds.X, ds.y).model_
    resumed = est(2).fit(ds.X, ds.y, init_model=head)
    assert resumed.model_.to_json() == full.to_json()
    assert resumed.report_.n_trees == 2


def test_resume_rejects_wrong_learning_rate(covtype_small):
    ds = covtype_small
    head = GPUGBDTTrainer(_params(2)).fit(ds.X, ds.y)
    with pytest.raises(ValueError, match="learning_rate"):
        GPUGBDTTrainer(_params(2, learning_rate=0.05)).fit(
            ds.X, ds.y, init_model=head
        )


def test_resume_rejects_wrong_base_score(covtype_small):
    """Warm-starting from a model whose base score differs from this run's
    would silently shift every margin -- it must be refused."""
    ds = covtype_small
    head = GPUGBDTTrainer(_params(2)).fit(ds.X, ds.y)
    head = GBDTModel(trees=list(head.trees), params=head.params, base_score=0.5)
    with pytest.raises(ValueError, match="base_score"):
        GPUGBDTTrainer(_params(2)).fit(ds.X, ds.y, init_model=head)


def test_predict_matches_sequential_sum(covtype_small):
    """``predict`` sums in the replay order: base score plus each tree in
    training order, exactly the accumulation order ``fit`` maintains."""
    ds = covtype_small
    model = GPUGBDTTrainer(_params(5)).fit(ds.X, ds.y)
    dense = ds.X_test.to_dense(fill=np.nan).values
    expected = np.full(dense.shape[0], model.base_score)
    for tree in model.trees:
        expected = expected + tree.predict(dense)
    assert np.array_equal(model.predict(dense), expected)
