"""Fit-input fuzz over every trainer: poisoned input never becomes a model.

Every trainer calls :func:`repro.core.validate_fit` before it touches the
data, so each bad-input case must raise a typed ``ValueError`` at the
boundary -- never an ``IndexError`` from deep inside tree traversal, and
never a model.
"""

import numpy as np
import pytest

from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.booster_model import GBDTModel
from repro.core.params import GBDTParams
from repro.core.trainer import GPUGBDTTrainer
from repro.core.tree import DecisionTree
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.data import make_dataset
from repro.dist.trainer import DistributedHistTrainer
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.ext.outofcore import OutOfCoreGBDTTrainer
from repro.stream import StreamingHistTrainer

PARAMS = GBDTParams(n_trees=2, max_depth=2, seed=3)

TRAINERS = {
    "exact": lambda p: GPUGBDTTrainer(p),
    "hist": lambda p: HistogramGBDTTrainer(p),
    "lossguide": lambda p: HistogramGBDTTrainer(
        p, grow_policy="lossguide", max_leaves=4
    ),
    "stream": lambda p: StreamingHistTrainer(
        p, block_rows=32, cache_budget_bytes=1 << 18
    ),
    "multigpu": lambda p: MultiGpuGBDTTrainer(p, n_devices=2),
    "outofcore": lambda p: OutOfCoreGBDTTrainer(p),
    "reference": lambda p: ReferenceTrainer(p),
    "dist": lambda p: DistributedHistTrainer(p, n_workers=2),
}


@pytest.fixture(scope="module")
def ds():
    return make_dataset("covtype", run_rows=80, seed=5)


def _nan_labels(y):
    y = y.copy()
    y[7] = np.nan
    return y


def _foreign_model(X, y):
    """A one-split ensemble whose split attribute is past ``X``'s columns
    (as if trained on a wider matrix), with a base score and learning rate
    this fit accepts -- only its attribute can be wrong."""
    tree = DecisionTree()
    root = tree.add_root(X.n_rows)
    left, right = tree.split_node(root, X.n_cols, 0.5, True, 1.0)
    tree.set_leaf(left, 0.1)
    tree.set_leaf(right, -0.1)
    base = PARAMS.loss_fn.base_score(np.asarray(y, dtype=np.float64))
    return GBDTModel(trees=[tree], params=PARAMS, base_score=base)


@pytest.mark.parametrize("name", list(TRAINERS))
@pytest.mark.parametrize(
    "case,match",
    [
        ("nan-labels", "non-finite"),
        ("short-y", "entries for"),
        ("foreign-attr-warm-start", "attribute"),
    ],
)
def test_bad_fit_input_raises_and_yields_no_model(ds, name, case, match):
    if case == "foreign-attr-warm-start" and name == "dist":
        pytest.skip("the distributed trainer takes no init_model")
    trainer = TRAINERS[name](PARAMS)
    X, y, kwargs = ds.X, ds.y, {}
    if case == "nan-labels":
        y = _nan_labels(y)
    elif case == "short-y":
        y = y[:-1]
    else:
        kwargs["init_model"] = _foreign_model(X, y)
    model = None
    with pytest.raises(ValueError, match=match):
        model = trainer.fit(X, y, **kwargs)
    assert model is None
    assert getattr(trainer, "model_", None) is None


def test_warm_start_within_columns_still_accepted(ds):
    """The attribute check rejects only attributes ``X`` lacks."""
    one = GBDTParams(n_trees=1, max_depth=2, seed=3)
    base = HistogramGBDTTrainer(one).fit(ds.X, ds.y)
    resumed = HistogramGBDTTrainer(PARAMS).fit(ds.X, ds.y, init_model=base)
    full = HistogramGBDTTrainer(PARAMS).fit(ds.X, ds.y)
    assert resumed.to_json() == full.to_json()
