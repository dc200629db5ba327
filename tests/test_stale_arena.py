"""A reused trainer must not leak one fit's buffers into the next model.

Every trainer keeps its :class:`~repro.core.workspace.WorkspaceArena`
across ``fit`` calls, and arena views are uninitialized: a kernel that
reads a slot it did not write this fit would pick up whatever the previous
fit left there.  Each case first fits a larger, denser problem (higgs,
more entries than one split-scoring chunk holds), which grows the arena's
buffers and leaves them dirty, then fits a smaller one (covtype) on the
same trainer; its serialized model must equal a fresh trainer's.
"""

import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core import split
from repro.data import make_dataset
from repro.stream import StreamingHistTrainer

PARAMS = GBDTParams(n_trees=2, max_depth=5)


@pytest.fixture(scope="module")
def datasets():
    big = make_dataset("higgs", run_rows=1500)
    small = make_dataset("covtype", run_rows=600)
    assert big.X.nnz > split._SCORE_CHUNK > small.X.nnz
    return big, small


def _exact(rle_policy, direct):
    p = PARAMS.replace(rle_policy=rle_policy, use_direct_rle=direct)
    return lambda tmp: GPUGBDTTrainer(p)


def _hist(grow_policy, subtraction):
    return lambda tmp: HistogramGBDTTrainer(
        PARAMS, max_bins=32, grow_policy=grow_policy, use_subtraction=subtraction
    )


CASES = {
    **{
        f"exact-{policy}-{'direct' if direct else 'decompress'}": _exact(policy, direct)
        for policy in ("never", "always", "paper")
        for direct in (True, False)
    },
    **{
        f"hist-{grow}-{'sub' if sub else 'nosub'}": _hist(grow, sub)
        for grow in ("depthwise", "lossguide")
        for sub in (True, False)
    },
    "stream": lambda tmp: StreamingHistTrainer(
        PARAMS, block_rows=256, max_bins=32, spill_dir=tmp
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refit_after_larger_fit_matches_fresh_trainer(case, datasets, tmp_path):
    big, small = datasets
    make = CASES[case]
    reused = make(tmp_path / "reused")
    reused.fit(big.X, big.y)
    got = reused.fit(small.X, small.y).to_json()
    assert got == make(tmp_path / "fresh").fit(small.X, small.y).to_json()
