"""Crash-safety tests for the dist trainer's checkpoint store and the
atomic writer.

Fault injection at every step of the atomic write proves a kill never
leaves a partial destination file; the params guard proves a loader resumes
only the run it was asked to.  The damaged-envelope battery is in
``tests/test_envelope.py``.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.core.booster_model import model_digest
from repro.dist.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    load_checkpoint,
    params_digest,
)
from repro.ioutil import SimulatedCrash, atomic_write_text


@pytest.fixture
def model(covtype_small):
    return GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3, seed=13)).fit(
        covtype_small.X, covtype_small.y
    )


@pytest.fixture
def params():
    return GBDTParams(n_trees=3, max_depth=3, seed=13)


# ------------------------------------------------------------ atomic writes
class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        out = atomic_write_text(tmp_path / "f.txt", "hello")
        assert out.read_text(encoding="utf-8") == "hello"

    @pytest.mark.parametrize("kill_step", ["begin", "written", "synced"])
    def test_kill_before_rename_leaves_old_content(self, tmp_path, kill_step):
        dest = tmp_path / "f.txt"
        dest.write_text("old", encoding="utf-8")

        def hook(step):
            if step == kill_step:
                raise SimulatedCrash(step)

        with pytest.raises(SimulatedCrash):
            atomic_write_text(dest, "new", fault_hook=hook)
        # the destination is untouched; at most an orphaned tmp remains
        assert dest.read_text(encoding="utf-8") == "old"
        leftovers = [p.name for p in tmp_path.iterdir() if p != dest]
        assert all(name.endswith(".tmp") for name in leftovers)

    def test_kill_after_rename_leaves_new_content(self, tmp_path):
        dest = tmp_path / "f.txt"
        dest.write_text("old", encoding="utf-8")

        def hook(step):
            if step == "renamed":
                raise SimulatedCrash(step)

        with pytest.raises(SimulatedCrash):
            atomic_write_text(dest, "new", fault_hook=hook)
        assert dest.read_text(encoding="utf-8") == "new"

    def test_ordinary_error_cleans_tmp(self, tmp_path):
        def hook(step):
            if step == "written":
                raise RuntimeError("disk quota")

        with pytest.raises(RuntimeError):
            atomic_write_text(tmp_path / "f.txt", "x", fault_hook=hook)
        assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- load guards
class TestLoadGuards:
    def test_round_trip(self, tmp_path, model, params):
        store = CheckpointStore(tmp_path)
        written = store.save(model, params, meta={"phase": "test"})
        ck = load_checkpoint(written.path, params=params)
        assert ck.round == model.n_trees
        assert ck.meta == {"phase": "test"}
        assert ck.model_digest == model_digest(model)
        restored = ck.restore_model(params)
        assert restored.to_json() == model.to_json()

    def test_params_mismatch_refused(self, tmp_path, model, params):
        store = CheckpointStore(tmp_path)
        path = store.save(model, params).path
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, params=params.replace(max_depth=5))

    def test_n_trees_excluded_from_digest(self, params):
        """``n_trees`` budgets rounds, it does not shape trees: resuming with
        a different budget must be allowed."""
        assert params_digest(params) == params_digest(params.replace(n_trees=99))
        assert params_digest(params) != params_digest(params.replace(seed=1))


# ----------------------------------------------------------------- recovery
class TestStoreRecovery:
    def test_latest_skips_corrupt_and_recovers(self, tmp_path, model, params):
        store = CheckpointStore(tmp_path)
        store.save(model, params, round_=1)
        store.save(model, params, round_=2)
        # a torn write at round 3, as a kill mid-write would leave
        store.path_for(3).write_text('{"format": "repro-ckpt-v1", "chec')
        ck = store.latest(params)
        assert ck is not None and ck.round == 2

    def test_latest_none_when_empty(self, tmp_path, params):
        assert CheckpointStore(tmp_path).latest(params) is None

    def test_latest_propagates_mismatch(self, tmp_path, model, params):
        store = CheckpointStore(tmp_path)
        store.save(model, params)
        with pytest.raises(CheckpointMismatch):
            store.latest(params.replace(learning_rate=0.01))

    def test_save_with_fault_hook_keeps_previous(self, tmp_path, model, params):
        store = CheckpointStore(tmp_path)
        store.save(model, params, round_=1)

        def hook(step):
            if step == "synced":
                raise SimulatedCrash("kill")

        with pytest.raises(SimulatedCrash):
            store.save(model, params, round_=2, fault_hook=hook)
        ck = store.latest(params)
        assert ck is not None and ck.round == 1


# ------------------------------------------------- resume == uninterrupted
def test_resume_from_checkpoint_matches_uninterrupted(tmp_path, covtype_small):
    """Kill after round k, resume from the checkpoint, finish: the final
    digest equals an uninterrupted run's."""
    ds = covtype_small
    params = GBDTParams(n_trees=5, max_depth=3, seed=13)
    store = CheckpointStore(tmp_path)

    uninterrupted = GPUGBDTTrainer(params).fit(ds.X, ds.y)

    model = None
    for r in range(1, 4):  # rounds 1..3, then "crash"
        model = GPUGBDTTrainer(params.replace(n_trees=1)).fit(
            ds.X, ds.y, init_model=model
        )
        store.save(model, params)

    ck = store.latest(params)
    resumed = ck.restore_model(params)
    remaining = params.n_trees - ck.round
    resumed = GPUGBDTTrainer(params.replace(n_trees=remaining)).fit(
        ds.X, ds.y, init_model=resumed
    )
    assert model_digest(resumed) == model_digest(uninterrupted)
    assert resumed.to_json() == uninterrupted.to_json()
    assert np.array_equal(
        resumed.predict(ds.X_test), uninterrupted.predict(ds.X_test)
    )
