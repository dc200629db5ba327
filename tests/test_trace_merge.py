"""Per-rank distributed traces: merging, lockstep alignment, flight recorder.

A distributed regression is diagnosed from one merged Perfetto timeline, so
the structural guarantees under test are: one pid per rank, lockstep
sequence numbers monotonic within a rank and aligned across ranks, blocked
time surfaced as ``collective_wait_seconds_total{rank=...}``, typed
:class:`CollectiveTimeout` on a wedged rendezvous, and a flight-recorder
snapshot per rank riding on :class:`WorkerFailure`.
"""

import json
import time

import numpy as np
import pytest

from repro.dist.comms import (
    Collective,
    CollectiveTimeout,
    FaultPlan,
    LinkSpec,
    WorkerFailure,
    _World,
    run_spmd,
)
from repro.obs import MetricsRegistry, Tracer, use_registry
from repro.obs.export import (
    HOST_PID,
    RANK_PID_BASE,
    _lockstep_offsets,
    export_merged_chrome_trace,
    merged_chrome_trace_events,
)

#: ``sim`` ranks charge a gpusim ledger each; ``threaded`` ranks are bare
#: threads with no device attached (ids kept from the retired backends)
LEDGERS = ("sim", "threaded")


def ledger_devices(ledger, world_size):
    return None if ledger == "sim" else [None] * world_size


def spmd_program(coll):
    """A small fixed collective program every rank executes in lockstep."""
    coll.barrier()
    total = coll.allreduce_sum(np.arange(4, dtype=np.int64) + coll.rank)
    gathered = coll.allgather(coll.rank)
    top = coll.broadcast("model", root=0)
    return total.sum(), gathered, top


def run_world(world_size=4, ledger="sim"):
    tracers = [Tracer(tags={"rank": r}) for r in range(world_size)]
    results, colls = run_spmd(
        world_size,
        spmd_program,
        devices=ledger_devices(ledger, world_size),
        tracers=tracers,
    )
    return results, colls, tracers


# ------------------------------------------------------------- merged trace
class TestMergedTrace:
    @pytest.mark.parametrize("ledger", LEDGERS)
    def test_one_pid_per_rank(self, ledger, tmp_path):
        _, _, tracers = run_world(4, ledger)
        path = tmp_path / "dist.trace.json"
        n = export_merged_chrome_trace(path, rank_tracers=tracers)
        assert n > 0
        events = json.loads(path.read_text())["traceEvents"]
        slices = [e for e in events if e.get("ph") == "X"]
        pids = {e["pid"] for e in slices}
        assert pids == {RANK_PID_BASE + r for r in range(4)}
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "rank 0 (wall-clock spans)" in names
        assert "rank 3 (wall-clock spans)" in names

    def test_lockstep_seq_monotonic_per_rank(self):
        _, _, tracers = run_world(4)
        events = merged_chrome_trace_events(rank_tracers=tracers)
        for r in range(4):
            seqs = [
                e["args"]["seq"]
                for e in events
                if e.get("ph") == "X"
                and e["pid"] == RANK_PID_BASE + r
                and e["name"].startswith("dist.")
                and "seq" in e["args"]
            ]
            assert seqs, f"rank {r} recorded no collective spans"
            assert seqs == sorted(seqs)
        # SPMD: every rank ran the same program, so the same seq set
        per_rank = [
            {
                e["args"]["seq"]
                for e in events
                if e.get("ph") == "X"
                and e["pid"] == RANK_PID_BASE + r
                and "seq" in e["args"]
            }
            for r in range(4)
        ]
        assert all(s == per_rank[0] for s in per_rank)

    def test_host_and_ranks_coexist(self):
        host = Tracer()
        with host.span("fit"):
            pass
        _, _, tracers = run_world(2)
        events = merged_chrome_trace_events(tracer=host, rank_tracers=tracers)
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {HOST_PID, RANK_PID_BASE, RANK_PID_BASE + 1}
        assert min(e["ts"] for e in events if e.get("ph") == "X") == 0.0

    def test_rank_from_tracer_tags(self):
        """Rank identity comes from the tracer's tag, not list position."""
        _, _, tracers = run_world(2)
        events = merged_chrome_trace_events(rank_tracers=list(reversed(tracers)))
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pids == {RANK_PID_BASE, RANK_PID_BASE + 1}


class TestLockstepOffsets:
    @staticmethod
    def ev(name, seq, t_start, t_end):
        return {
            "name": name,
            "attrs": {"seq": seq},
            "t_start": t_start,
            "t_end": t_end,
            "thread_id": 1,
        }

    def test_disjoint_clocks_align_on_first_common_end(self):
        # rank 0's clock starts at 0, rank 1's at 1000 -- the first common
        # collective (seq 1) must coincide at its end
        rank_events = {
            0: [self.ev("dist.barrier", 1, 0.0, 0.5)],
            1: [self.ev("dist.barrier", 1, 1000.0, 1000.2)],
        }
        offsets = _lockstep_offsets(rank_events)
        ref = max(0.5 + offsets[0], 1000.2 + offsets[1])
        assert 0.5 + offsets[0] == pytest.approx(ref)
        assert 1000.2 + offsets[1] == pytest.approx(ref)

    def test_straggler_wait_stays_visible(self):
        # rank 1 entered late (longer span) but ends with rank 0; aligning
        # on span END must preserve the differing widths
        rank_events = {
            0: [self.ev("dist.allreduce_sum", 1, 10.0, 10.1)],
            1: [self.ev("dist.allreduce_sum", 1, 5.0, 6.0)],
        }
        offsets = _lockstep_offsets(rank_events)
        end0 = 10.1 + offsets[0]
        end1 = 6.0 + offsets[1]
        assert end0 == pytest.approx(end1)
        width1 = 6.0 - 5.0  # shifting never changes a span's width
        assert width1 == pytest.approx(1.0)

    def test_no_common_seq_means_no_shift(self):
        rank_events = {
            0: [self.ev("dist.barrier", 1, 0.0, 0.5)],
            1: [self.ev("dist.barrier", 2, 7.0, 7.5)],
        }
        assert _lockstep_offsets(rank_events) == {0: 0.0, 1: 0.0}

    def test_non_dist_spans_ignored(self):
        rank_events = {
            0: [self.ev("compute", 1, 0.0, 9.0), self.ev("dist.b", 2, 9.0, 9.1)],
            1: [self.ev("dist.b", 2, 0.0, 0.1)],
        }
        offsets = _lockstep_offsets(rank_events)
        assert 9.1 + offsets[0] == pytest.approx(0.1 + offsets[1])


# --------------------------------------------------- hot-path span coverage
class TestHotPathSpans:
    """The subtraction/GOSS hot path must be visible in the same merged
    timeline used to diagnose everything else: every rank emits per-level
    ``hist.subtract`` spans under its own pid, and the engagement counters
    land in the active registry."""

    def test_subtract_spans_per_rank_in_merged_trace(self):
        from repro import GBDTParams
        from repro.data import make_dataset
        from repro.dist import DistributedHistTrainer
        from repro.obs import use_tracer

        ds = make_dataset("covtype", run_rows=160, seed=13)
        registry = MetricsRegistry()
        with use_registry(registry), use_tracer(Tracer()):
            trainer = DistributedHistTrainer(
                GBDTParams(n_trees=2, max_depth=4, seed=7),
                n_workers=2,
                max_bins=16,
                use_subtraction=True,
            )
            trainer.fit(ds.X, ds.y)

        events = merged_chrome_trace_events(rank_tracers=trainer.rank_tracers_)
        for r in range(2):
            subs = [
                e
                for e in events
                if e.get("ph") == "X"
                and e["pid"] == RANK_PID_BASE + r
                and e["name"] == "hist.subtract"
            ]
            assert subs, f"rank {r} emitted no hist.subtract spans"
            # each span names the level and how many tables it derived
            for e in subs:
                assert e["args"]["depth"] >= 1
                assert e["args"]["derived"] >= 1
        skipped = registry.get("subtract_skipped_total")
        assert skipped is not None and skipped.value > 0

    def test_goss_counter_lands_in_registry(self):
        from repro import GBDTParams
        from repro.approx.histogram_trainer import HistogramGBDTTrainer
        from repro.data import make_dataset

        ds = make_dataset("covtype", run_rows=160, seed=13)
        registry = MetricsRegistry()
        with use_registry(registry):
            HistogramGBDTTrainer(
                GBDTParams(n_trees=2, max_depth=3, goss_a=0.3, goss_b=0.3),
                max_bins=16,
            ).fit(ds.X, ds.y)
        kept = registry.get("goss_rows_kept_total")
        assert kept is not None and kept.value > 0


# ------------------------------------------------------------ wait metrics
class TestWaitMetrics:
    def test_threaded_run_records_wait_per_rank(self):
        """Every rank thread's time blocked in the rendezvous is metered."""
        registry = MetricsRegistry()
        with use_registry(registry):
            _, colls, _ = run_world(4)
        waits = {
            inst.label_dict["rank"]: inst.value
            for _, _, _, series in registry.families()
            for inst in series
            if inst.name == "collective_wait_seconds_total"
        }
        assert set(waits) == {"0", "1", "2", "3"}
        assert all(v > 0 for v in waits.values())
        for coll in colls:
            assert coll.stats.wait_s > 0


# ---------------------------------------------------------------- timeout
class TestCollectiveTimeout:
    def make_collective(self, recv_timeout_s=0.05):
        """A rank-0 collective whose peer never arrives, on a fake clock
        that advances a full second per reading."""
        state = {"t": 0.0}

        def clock():
            state["t"] += 1.0
            return state["t"]

        return Collective(
            _World(2),
            0,
            None,  # no device: timeout accounting must not need a ledger
            LinkSpec(),
            None,
            clock=clock,
            tracer=Tracer(tags={"rank": 0}),
            recv_timeout_s=recv_timeout_s,
        )

    def test_recv_timeout_is_typed_and_counted(self):
        coll = self.make_collective()
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(CollectiveTimeout) as excinfo:
                coll.allreduce_sum(np.ones(4, dtype=np.int64))
        exc = excinfo.value
        assert exc.rank == 0 and exc.op == "allreduce"
        assert exc.elapsed_s > coll.recv_timeout_s
        assert "rank 0" in str(exc) and "allreduce" in str(exc)
        counter = registry.get(
            "collective_timeout_total", op="allreduce", rank=0
        )
        assert counter is not None and counter.value == 1
        wait = registry.get("collective_wait_seconds_total", op="allreduce", rank=0)
        assert wait is not None and wait.value == exc.elapsed_s

    def test_timeout_captures_flight_snapshot(self):
        coll = self.make_collective()
        with use_registry(MetricsRegistry()):
            with pytest.raises(CollectiveTimeout):
                coll.allreduce_sum(np.ones(4, dtype=np.int64))
        flight = coll.flight_
        assert flight is not None
        assert flight["rank"] == 0
        assert flight["reason"] == "timed out in allreduce"
        assert flight["last_op"] == "allreduce_sum" and flight["seq"] == 1
        assert flight["wait_s"] > 0
        assert any(
            sp["name"] == "dist.allreduce_sum" for sp in flight["unclosed"]
        )

    def test_timeout_fails_the_world_as_itself(self):
        """A wedged rank must surface as CollectiveTimeout, never be
        mistaken for an injected fault."""

        def lopsided(coll):
            if coll.rank == 0:
                return coll.allgather(coll.rank)  # peer never shows up
            return None

        with use_registry(MetricsRegistry()):
            t0 = time.perf_counter()
            with pytest.raises(CollectiveTimeout) as excinfo:
                run_spmd(2, lopsided, recv_timeout_s=0.3)
        assert excinfo.value.rank == 0 and excinfo.value.op == "allgather"
        # the deadline, not run_spmd's last-resort thread join, ends the run
        assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------- flight recorder
class TestFlightRecorder:
    @pytest.mark.parametrize("ledger", LEDGERS)
    def test_worker_failure_carries_snapshots(self, ledger):
        def fn(coll):
            coll.fault_point(0)
            coll.barrier()
            return coll.rank

        with use_registry(MetricsRegistry()):
            with pytest.raises(WorkerFailure) as excinfo:
                run_spmd(
                    4,
                    fn,
                    devices=ledger_devices(ledger, 4),
                    faults=FaultPlan(kill_rank=2, kill_round=0),
                )
        failure = excinfo.value
        assert failure.failed_ranks == {2}
        rec = failure.flight_recorder
        assert rec[2]["reason"] == "injected kill at round 0"
        assert rec[2]["rank"] == 2
        # survivors that were blocked on the dead rank also left snapshots
        survivors = set(rec) - {2}
        assert survivors, "no survivor captured a post-mortem snapshot"
        for r in survivors:
            assert "failure" in rec[r]["reason"]
            assert rec[r]["last_op"] == "barrier"
