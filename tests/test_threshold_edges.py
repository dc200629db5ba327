"""Split thresholds at the edges of the float range.

One attribute holds two values, 150 rows each, and the label is +5 or -5
by value; one depth-1 tree must separate them.  The plain midpoint
``(hi + lo) / 2`` overflows to ``+inf`` near +max, to ``-inf`` near -max,
and rounds onto ``hi`` at subnormals, and a threshold outside
``[lo, hi)`` sends both values to one child.  Every exact trainer, the
histogram trainers (whose bin edges are the thresholds), the distributed,
multi-GPU and out-of-core trainers and the CPU reference must place
``lo <= threshold < hi`` and fit the labels, and the model must pass the
load-boundary check (``GBDTModel.from_json``) unchanged.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer, as_csr
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.booster_model import GBDTModel
from repro.core.split import midpoint_thresholds
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.dist import DistributedHistTrainer
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.ext.outofcore import OutOfCoreGBDTTrainer
from repro.stream import StreamingHistTrainer

PAIRS = {
    "near-plus-max": (1.7e308, 1.5e308),
    "near-minus-max": (-1.5e308, -1.7e308),
    "subnormal": (1e-323, 5e-324),
    "adjacent-near-1": (1.0, np.nextafter(1.0, -np.inf)),
}

TRAINERS = {
    "sparse-exact": lambda p: GPUGBDTTrainer(p, rle_policy="never"),
    "direct-rle-exact": lambda p: GPUGBDTTrainer(p, rle_policy="always"),
    "decompress-rle-exact": lambda p: GPUGBDTTrainer(
        p, rle_policy="always", use_direct_rle=False
    ),
    "reference": ReferenceTrainer,
    "histogram": HistogramGBDTTrainer,
    "stream": lambda p: StreamingHistTrainer(p, block_rows=64),
    "dist": lambda p: DistributedHistTrainer(p, n_workers=2),
    "multigpu": lambda p: MultiGpuGBDTTrainer(p, n_devices=2),
    "outofcore": OutOfCoreGBDTTrainer,
}


def _probe(hi, lo):
    x = np.repeat([hi, lo], 150)
    y = np.where(x == hi, 5.0, -5.0)
    return as_csr(x[:, None]), y


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_depth_one_tree_separates_the_two_values(pair, trainer):
    hi, lo = PAIRS[pair]
    X, y = _probe(hi, lo)
    params = GBDTParams(n_trees=1, max_depth=1, learning_rate=1.0)
    model = TRAINERS[trainer](params).fit(X, y)
    tree = model.trees[0]
    assert tree.attr[0] == 0
    thr = tree.threshold[0]
    assert lo <= thr < hi
    pred = model.predict(X)
    assert np.all(np.sign(pred) == np.sign(y))
    assert np.sqrt(np.mean((pred - y) ** 2)) < 0.1
    assert GBDTModel.from_json(model.to_json(), params=model.params).to_json() == model.to_json()


def test_midpoint_is_plain_away_from_the_edges():
    """The guard leaves every ordinary pair's plain midpoint bit-equal."""
    rng = np.random.default_rng(0)
    lo = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
    hi = lo + np.abs(lo) * rng.random(1000) + 1e-300
    got = midpoint_thresholds(hi, lo)
    assert np.array_equal(got, (hi + lo) / 2)
    assert np.all((lo <= got) & (got < hi))


def test_skipped_pairs_keep_the_plain_midpoint():
    hi = np.array([3.0, 1e-323, -1.7e308])
    lo = np.array([3.0, 5e-324, -1.7e308])
    skip = np.array([True, False, True])
    got = midpoint_thresholds(hi, lo, skip=skip)
    assert got[0] == 3.0 and got[1] == 5e-324 and got[2] == -np.inf
