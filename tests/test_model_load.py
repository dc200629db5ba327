"""The model-load boundary: ``GBDTModel.from_json`` / ``DecisionTree.from_dict``.

A damaged model must fail to load with a ``ValueError`` -- not load and then
predict garbage, raise a bare ``IndexError`` in a predictor, or reach the
registry.  Every valid model round-trips byte-identically, and the stored
learning rate survives the trip.
"""

import json

import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.booster_model import GBDTModel, model_digest
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.dist import DistributedHistTrainer
from repro.serve import ModelRegistry
from repro.stream import StreamingHistTrainer


@pytest.fixture
def model(covtype_small):
    ds = covtype_small
    return GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3)).fit(ds.X, ds.y)


def _first_internal(tree):
    return next(i for i, l in enumerate(tree["left"]) if l != -1)


def _first_leaf(tree):
    return next(i for i, l in enumerate(tree["left"]) if l == -1)


def _set(key, pick, value):
    def damage(d):
        d["trees"][0][key][pick(d["trees"][0])] = value

    return damage


def _detached_cycle(d):
    # the root is a leaf; nodes 1 and 2 are each other's child, so every
    # non-root node has exactly one parent yet none is reachable
    d["trees"][0] = {
        "left": [-1, 2, 1, -1, -1],
        "right": [-1, 3, 4, -1, -1],
        "attr": [-1, 0, 0, -1, -1],
        "threshold": [float("nan"), 0.5, 0.5, float("nan"), float("nan")],
        "default_left": [False] * 5,
        "value": [0.1, 0.0, 0.0, 0.2, 0.3],
        "gain": [0.0] * 5,
        "n_instances": [0] * 5,
        "depth": [0, 1, 2, 2, 3],
    }


def _right_one_entry(d):
    tree = d["trees"][0]
    tree["left"][0] = -1
    tree["right"] = [-1]


def _base_score_nan(d):
    d["base_score"] = float("nan")


def _drop(key, tree=False):
    def damage(d):
        del (d["trees"][0] if tree else d)[key]

    return damage


#: damage -> the message fragment of the check that must catch it
DAMAGE = {
    "root-left-is-root": (_set("left", lambda t: 0, 0), "out of range"),
    "left-child-999": (_set("left", _first_internal, 999), "out of range"),
    "left-child-minus-5": (_set("left", _first_internal, -5), "out of range"),
    "value-one-short": (lambda d: d["trees"][0]["value"].pop(), "differ in length"),
    "nan-leaf": (_set("value", _first_leaf, float("nan")), "non-finite leaf"),
    "nan-base-score": (_base_score_nan, "non-finite base score"),
    "internal-attr-minus-1": (_set("attr", _first_internal, -1), "negative attribute"),
    "detached-cycle": (_detached_cycle, "unreachable"),
    "plus-inf-threshold": (
        _set("threshold", _first_internal, float("inf")), "non-finite split threshold"
    ),
    "right-one-entry-left-leaf": (_right_one_entry, "differ in length"),
    "one-child": (_set("left", _first_internal, -1), "one child"),
    "wrong-depth": (_set("depth", _first_leaf, 99), "depths do not follow"),
    # payloads of the wrong shape (a text entry replaces the whole payload)
    "payload-is-a-list": ("[]", "not a model payload"),
    "tree-without-right": (_drop("right", tree=True), "not a model payload"),
    "no-learning-rate": (_drop("learning_rate"), "not a model payload"),
    "trees-is-a-number": (lambda d: d.update(trees=5), "not a model payload"),
}


def _damaged(model, name):
    damage = DAMAGE[name][0]
    if isinstance(damage, str):
        return damage
    d = json.loads(model.to_json())
    damage(d)
    return json.dumps(d)


@pytest.mark.parametrize("name", sorted(DAMAGE))
def test_damaged_model_refused_at_load(model, name):
    with pytest.raises(ValueError, match=DAMAGE[name][1]):
        GBDTModel.from_json(_damaged(model, name))


def test_damaged_file_refused_by_load(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_damaged(model, "left-child-999"), encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        GBDTModel.load(path)


def test_wrong_shape_file_refused_by_load(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_damaged(model, "no-learning-rate"), encoding="utf-8")
    with pytest.raises(ValueError, match="not a model payload"):
        GBDTModel.load(path)


def test_damaged_model_never_published(model):
    """The registry's one check is the ``from_json`` round trip."""
    poisoned = GBDTModel.from_json(model.to_json(), params=model.params)
    poisoned.trees[0].attr[0] = -1
    registry = ModelRegistry()
    with pytest.raises(ValueError, match="negative attribute"):
        registry.publish(poisoned)
    assert registry.names() == []


def test_minus_inf_threshold_and_extreme_finite_values_load(model):
    d = json.loads(model.to_json())
    tree = d["trees"][0]
    tree["threshold"][_first_internal(tree)] = float("-inf")
    tree["value"][_first_leaf(tree)] = -1.7e308
    text = json.dumps(d)
    assert GBDTModel.from_json(text).to_json() == text


TRAINERS = {
    "exact": GPUGBDTTrainer,
    "histogram": HistogramGBDTTrainer,
    "stream": lambda p: StreamingHistTrainer(p, block_rows=64),
    "dist": lambda p: DistributedHistTrainer(p, n_workers=2),
    "reference": ReferenceTrainer,
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_valid_models_round_trip_byte_identically(covtype_small, trainer):
    ds = covtype_small
    m = TRAINERS[trainer](GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
    r = GBDTModel.from_json(m.to_json(), params=m.params)
    assert r.to_json() == m.to_json()
    assert model_digest(r) == model_digest(m)
    assert ModelRegistry().publish(m) == model_digest(m)


# ------------------------------------------------------- stored learning rate
def _fit(ds, n_trees, learning_rate, init_model=None):
    params = GBDTParams(n_trees=n_trees, max_depth=3, learning_rate=learning_rate)
    return GPUGBDTTrainer(params).fit(ds.X, ds.y, init_model=init_model)


def test_restored_model_keeps_its_version(covtype_small):
    """A model restored from the registry republishes as the same version."""
    m = _fit(covtype_small, 2, 0.1)
    registry = ModelRegistry()
    version = registry.publish(m)
    restored = registry.active().restore()
    assert restored.params.learning_rate == 0.1
    assert registry.publish(restored) == version
    assert registry.versions() == [version]


def test_loaded_model_warm_starts_at_its_learning_rate(covtype_small, tmp_path):
    ds = covtype_small
    path = tmp_path / "model.json"
    _fit(ds, 2, 0.1).save(path)
    resumed = _fit(ds, 2, 0.1, init_model=GBDTModel.load(path))
    assert resumed.to_json() == _fit(ds, 4, 0.1).to_json()


def test_loaded_model_refuses_another_learning_rate(covtype_small, tmp_path):
    ds = covtype_small
    path = tmp_path / "model.json"
    _fit(ds, 2, 0.1).save(path)
    with pytest.raises(ValueError, match="learning_rate"):
        _fit(ds, 2, 0.3, init_model=GBDTModel.load(path))
    with pytest.raises(ValueError, match="learning_rate"):
        GBDTModel.load(path, params=GBDTParams(learning_rate=0.3))
