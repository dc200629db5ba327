"""A reused trainer must not leak one fit's buffers into the next model.

Every trainer keeps its :class:`~repro.core.workspace.WorkspaceArena`
across ``fit`` calls, and arena views are uninitialized: a kernel that
reads a slot it did not write this fit would pick up whatever the previous
fit left there.  Each case first fits a larger, denser problem (higgs,
more entries than one split-scoring chunk holds), which grows the arena's
buffers and leaves them dirty, then fits a smaller one (covtype) on the
same trainer; its serialized model must equal a fresh trainer's.

The histogram trainers zero only the rows of a level table they build and
overwrite the rest by subtraction, so their cases go further: every
``hist/*`` buffer is filled with a sentinel before the refit (before every
round on the dist ranks, whose trainers live for one fit).
"""

import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core import split
from repro.data import make_dataset
from repro.dist import DistributedHistTrainer
from repro.dist.trainer import _WorkerTrainer
from repro.stream import StreamingHistTrainer

PARAMS = GBDTParams(n_trees=2, max_depth=5)


@pytest.fixture(scope="module")
def datasets():
    big = make_dataset("higgs", run_rows=1500)
    small = make_dataset("covtype", run_rows=600)
    assert big.X.nnz > split._SCORE_CHUNK > small.X.nnz
    return big, small


def _exact(rle_policy, direct):
    return lambda tmp: GPUGBDTTrainer(
        PARAMS, rle_policy=rle_policy, use_direct_rle=direct
    )


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


# ---------------------------------------------------- poisoned level tables
#: written over every cell of every ``hist/*`` arena buffer: a level table
#: cell read before this fit wrote it carries the sentinel into a split
SENTINEL = 7_654_321


def _poison_level_tables(workspace) -> int:
    bufs = [b for key, b in workspace._bufs.items() if key.startswith("hist/")]
    for b in bufs:
        b.fill(SENTINEL)
    return len(bufs)


HIST_CASES = {
    "hist-depthwise-sub": _hist("depthwise", True),
    "hist-depthwise-nosub": _hist("depthwise", False),
    "hist-lossguide": _hist("lossguide", False),
    "stream": CASES["stream"],
}


@pytest.mark.parametrize("case", sorted(HIST_CASES))
def test_refit_over_poisoned_level_tables_matches_fresh_trainer(case, datasets, tmp_path):
    """Only the built rows of a level's tables are zeroed before its entry
    pass and the derived rows are overwritten by subtraction; no cell may
    keep what the buffer held before."""
    _, small = datasets
    make = HIST_CASES[case]
    reused = make(tmp_path / "reused")
    reused.fit(small.X, small.y)
    assert _poison_level_tables(reused.workspace) == 6  # (gq, hq, c) x 2 parities
    got = reused.fit(small.X, small.y).to_json()
    assert got == make(tmp_path / "fresh").fit(small.X, small.y).to_json()


def test_dist_rounds_over_poisoned_level_tables_match_single_process(datasets, monkeypatch):
    """Each rank's trainer lives for one fit, so its tables are poisoned at
    the start of every round instead: round r must not read round r-1's
    tables, on any rank, before or after the allreduce."""
    _, small = datasets
    poisoned = []
    round_start = _WorkerTrainer._round_start

    def poison_then_start(self, round_):
        poisoned.append(_poison_level_tables(self.workspace))
        round_start(self, round_)

    monkeypatch.setattr(_WorkerTrainer, "_round_start", poison_then_start)
    got = DistributedHistTrainer(PARAMS, n_workers=2, max_bins=32).fit(small.X, small.y)
    assert sorted(poisoned) == [0, 0, 6, 6]  # 2 ranks x 2 rounds
    monkeypatch.undo()
    want = HistogramGBDTTrainer(PARAMS, max_bins=32).fit(small.X, small.y)
    assert got.to_json() == want.to_json()
