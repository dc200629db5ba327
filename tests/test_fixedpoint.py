"""Fixed-point gradient quantization rejects non-finite input.

A NaN or infinite label makes NaN or infinite gradients.  No int64 grid
point represents them, so quantizing them would cast garbage into the
histograms and grow a finite but wrong model.  Quantization raises instead,
and every histogram-family trainer surfaces that as a failed ``fit``.
"""

import numpy as np
import pytest

from repro import GBDTParams
from repro.approx.fixedpoint import GRAD_SHIFT_CAP, choose_shift, quantize_gradients
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.data import make_dataset
from repro.dist.trainer import DistributedHistTrainer
from repro.stream.trainer import StreamingHistTrainer

BAD = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", BAD)
def test_choose_shift_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        choose_shift(bad, 1.0, 10)
    with pytest.raises(ValueError, match="non-finite"):
        choose_shift(1.0, bad, 10)


def test_choose_shift_zero_gradients_use_cap():
    assert choose_shift(0.0, 0.0, 10) == GRAD_SHIFT_CAP


@pytest.mark.parametrize("bad", BAD)
def test_quantize_gradients_rejects_non_finite(bad):
    g = np.array([0.5, -0.25, 1.0])
    h = np.ones(3)
    bad_g = g.copy()
    bad_g[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantize_gradients(bad_g, h, 10)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_gradients(g, np.where(h > 0, bad, h), 10)
    gq, hq = quantize_gradients(g, h, 10)
    np.testing.assert_array_equal(gq, [512, -256, 1024])


def _trainer(kind, tmp_path):
    p = GBDTParams(n_trees=2, max_depth=3)
    if kind == "hist":
        return HistogramGBDTTrainer(p)
    if kind == "stream":
        return StreamingHistTrainer(
            p, block_rows=100, cache_budget_bytes=1 << 18, spill_dir=tmp_path
        )
    return DistributedHistTrainer(p, n_workers=2)


@pytest.mark.parametrize("kind", ["hist", "stream", "dist"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_poisoned_label_fails_fit(kind, bad, tmp_path):
    ds = make_dataset("covtype", run_rows=400, seed=0)
    y = ds.y.copy()
    y[7] = bad
    trainer = _trainer(kind, tmp_path)
    with pytest.raises(ValueError, match="non-finite"):
        trainer.fit(ds.X, y)
    assert getattr(trainer, "model_", None) is None
