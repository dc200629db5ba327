"""Unit tests for the collective-comms layer (``repro.dist.comms``).

The one ``Collective`` must produce rank-order-deterministic results for
the five collectives whether or not its ranks charge a device ledger, must
charge the ring-step cost table exactly, and injected faults must surface
as ``WorkerFailure`` in the survivors while real bugs re-raise as
themselves.
"""

import threading
import time

import numpy as np
import pytest

from repro.dist.comms import (
    FaultPlan,
    LinkSpec,
    WorkerFailure,
    _Rendezvous,
    run_spmd,
)
from repro.gpusim.costmodel import PCIE_LATENCY_S
from repro.gpusim.device import TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice
from repro.obs import MetricsRegistry, use_registry

WORLD_SIZES = (1, 2, 3, 5)

#: ``sim`` ranks charge a gpusim ledger each; ``threaded`` ranks are bare
#: threads with no device attached -- results must not depend on whether
#: the link cost is modeled (ids kept from the retired backends)
LEDGERS = ("sim", "threaded")


def run(w, fn, ledger, **kwargs):
    """``run_spmd`` with or without a device ledger per rank."""
    devices = None if ledger == "sim" else [None] * w
    return run_spmd(w, fn, devices=devices, **kwargs)


@pytest.mark.parametrize("ledger", LEDGERS)
@pytest.mark.parametrize("w", WORLD_SIZES)
class TestCollectiveResults:
    def test_allreduce_sum_int64_exact(self, ledger, w):
        def fn(coll):
            local = (np.arange(37, dtype=np.int64) + 1) * (coll.rank + 1) ** 3
            return coll.allreduce_sum(local)

        results, _ = run(w, fn, ledger)
        want = (np.arange(37, dtype=np.int64) + 1) * sum(
            (r + 1) ** 3 for r in range(w)
        )
        for got in results:
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_allreduce_sum_multidim(self, ledger, w):
        def fn(coll):
            return coll.allreduce_sum(
                np.full((3, 4, 5), coll.rank + 1, dtype=np.int64)
            )

        results, _ = run(w, fn, ledger)
        want = np.full((3, 4, 5), sum(range(1, w + 1)), dtype=np.int64)
        for got in results:
            np.testing.assert_array_equal(got, want)

    def test_allreduce_max(self, ledger, w):
        def fn(coll):
            return coll.allreduce_max(
                np.array([float(coll.rank), -float(coll.rank)])
            )

        results, _ = run(w, fn, ledger)
        for got in results:
            np.testing.assert_array_equal(got, np.array([float(w - 1), 0.0]))

    def test_allgather_rank_ordered(self, ledger, w):
        def fn(coll):
            return coll.allgather({"rank": coll.rank, "blob": "x" * (coll.rank + 1)})

        results, _ = run(w, fn, ledger)
        for got in results:
            assert [g["rank"] for g in got] == list(range(w))

    def test_broadcast_from_nonzero_root(self, ledger, w):
        root = w - 1

        def fn(coll):
            payload = ("secret", coll.rank) if coll.rank == root else None
            return coll.broadcast(payload, root=root)

        results, _ = run(w, fn, ledger)
        assert results == [("secret", root)] * w

    def test_barrier_completes(self, ledger, w):
        def fn(coll):
            coll.barrier()
            return coll.rank

        results, _ = run(w, fn, ledger)
        assert results == list(range(w))

    def test_mixed_sequence_stays_in_lockstep(self, ledger, w):
        """Back-to-back heterogeneous collectives must not cross wires."""

        def fn(coll):
            a = coll.allreduce_sum(np.array([coll.rank + 1], dtype=np.int64))
            g = coll.allgather(coll.rank * 10)
            b = coll.broadcast("b", root=0)
            m = coll.allreduce_max(np.array([float(coll.rank)]))
            return (int(a[0]), g, b, float(m[0]))

        results, _ = run(w, fn, ledger)
        want = (
            sum(range(1, w + 1)),
            [r * 10 for r in range(w)],
            "b",
            float(w - 1),
        )
        assert results == [want] * w


class TestSimCostAccounting:
    def test_allreduce_ring_steps_and_bytes(self):
        w, elems = 4, 1024
        nbytes = elems * 8

        def fn(coll):
            return coll.allreduce_sum(np.ones(elems, dtype=np.int64))

        _, colls = run_spmd(w, fn)
        for coll in colls:
            # ring allreduce: 2(W-1) steps moving B/W bytes per step per rank
            assert coll.stats.steps_total == 2 * (w - 1)
            assert coll.stats.bytes_total == pytest.approx(
                nbytes * 2 * (w - 1) / w
            )

    def test_allgather_charges_forwarded_blocks_only(self):
        w = 3

        def fn(coll):
            return coll.allgather(np.ones(10, dtype=np.float64))  # 80 B each

        _, colls = run_spmd(w, fn)
        for coll in colls:
            assert coll.stats.bytes_total == pytest.approx(80.0 * (w - 1))
            assert coll.stats.steps_total == w - 1

    def test_single_rank_moves_nothing(self):
        def fn(coll):
            coll.allreduce_sum(np.ones(8, dtype=np.int64))
            coll.allgather("x")
            coll.broadcast("y")
            coll.barrier()
            return True

        _, colls = run_spmd(1, fn)
        assert colls[0].stats.bytes_total == 0.0
        assert colls[0].stats.steps_total == 0

    def test_link_cost_lands_on_device_ledger(self):
        w = 2
        devices = [GpuDevice(TITAN_X_PASCAL) for _ in range(w)]
        link = LinkSpec(bandwidth_gbs=TITAN_X_PASCAL.pcie_bandwidth_gbs)

        def fn(coll):
            return coll.allreduce_sum(np.ones(4096, dtype=np.int64))

        run_spmd(w, fn, devices=devices, link=link)
        for dev in devices:
            names = [t.name for t in dev.ledger.transfers]
            assert "collective_allreduce" in names
            # equal link and PCIe bandwidth: payload bytes carry over 1:1,
            # plus the extra ring-step latency expressed as bytes
            t = next(
                t for t in dev.ledger.transfers if t.name == "collective_allreduce"
            )
            payload = 4096 * 8 * 2 * (w - 1) / w
            extra_lat = (2 * (w - 1)) * PCIE_LATENCY_S - PCIE_LATENCY_S
            assert t.nbytes == pytest.approx(
                payload + extra_lat * TITAN_X_PASCAL.pcie_bandwidth_gbs * 1e9
            )

    def test_comm_counters_recorded(self):
        registry = MetricsRegistry(max_label_sets=1024)
        with use_registry(registry):
            def fn(coll):
                return coll.allreduce_sum(np.ones(16, dtype=np.int64))

            _, colls = run_spmd(3, fn)
        counted = registry.counter(
            "collective_bytes_total", op="allreduce"
        ).value
        assert counted == pytest.approx(sum(c.stats.bytes_total for c in colls))


@pytest.mark.parametrize("ledger", LEDGERS)
class TestFaults:
    def test_crash_fails_world_and_names_rank(self, ledger):
        faults = FaultPlan(kill_rank=1, kill_round=0)

        def fn(coll):
            coll.fault_point(0)
            coll.barrier()
            return coll.rank

        with pytest.raises(WorkerFailure) as exc:
            run(3, fn, ledger, faults=faults)
        assert sorted(exc.value.failed_ranks) == [1]

    def test_fault_only_at_its_round(self, ledger):
        faults = FaultPlan(kill_rank=0, kill_round=5)

        def fn(coll):
            for round_ in range(3):
                coll.fault_point(round_)
                coll.barrier()
            return "done"

        results, _ = run(2, fn, ledger, faults=faults)
        assert results == ["done", "done"]

    def test_real_bug_reraises_as_itself(self, ledger):
        def fn(coll):
            if coll.rank == 0:
                raise ValueError("genuine bug")
            coll.barrier()
            return coll.rank

        with pytest.raises(ValueError, match="genuine bug"):
            run(2, fn, ledger)


class TestStraggler:
    def test_sim_straggler_is_modeled_not_slept(self):
        faults = FaultPlan(straggler_rank=0, straggler_delay_s=0.5)
        devices = [GpuDevice(TITAN_X_PASCAL) for _ in range(2)]

        def fn(coll):
            coll.fault_point(0)
            coll.barrier()
            return True

        registry = MetricsRegistry()
        with use_registry(registry):
            _, colls = run_spmd(2, fn, devices=devices, faults=faults)
        # the stall is modeled wait on the straggler alone ...
        stalled = registry.get(
            "collective_wait_seconds_total", op="straggler", rank=0
        )
        assert stalled.value == pytest.approx(0.5)
        assert registry.get(
            "collective_wait_seconds_total", op="straggler", rank=1
        ) is None
        # ... and never slept: its peer's measured barrier wait stays far
        # below the half second a real sleep would have blocked it
        assert colls[0].stats.wait_s >= 0.5
        assert colls[1].stats.wait_s < 0.5
        stalls = [
            t for t in devices[0].ledger.transfers if t.name == "straggler_stall"
        ]
        assert len(stalls) == 1
        # half a second of stall at PCIe bandwidth, minus one transfer latency
        want = (0.5 - PCIE_LATENCY_S) * TITAN_X_PASCAL.pcie_bandwidth_gbs * 1e9
        assert stalls[0].nbytes == pytest.approx(want)


class TestRendezvous:
    def test_abort_never_breaks_a_completed_generation(self):
        """A rank that passes a rendezvous and then aborts (crash at its
        next fault point) must not spuriously break peers still draining
        the generation it completed -- the stdlib Barrier gets this wrong,
        which made rank 0's end-of-round checkpoint racy."""
        rv = _Rendezvous(2)
        errors = []

        def waiter():
            try:
                rv.wait()
            except threading.BrokenBarrierError:
                errors.append("broken")

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)  # waiter is blocked inside the rendezvous
        rv.wait()  # completes the generation ...
        rv.abort()  # ... and immediately breaks the *next* one
        t.join(timeout=5)
        assert not t.is_alive() and errors == []

    def test_abort_breaks_incomplete_generation_and_later_arrivals(self):
        rv = _Rendezvous(2)
        caught = []

        def waiter():
            try:
                rv.wait()
            except threading.BrokenBarrierError:
                caught.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        rv.abort()  # generation never filled: the waiter must break
        t.join(timeout=5)
        assert caught == [True]
        with pytest.raises(threading.BrokenBarrierError):
            rv.wait()

    def test_timeout_breaks_the_generation(self):
        rv = _Rendezvous(2)
        with pytest.raises(TimeoutError):
            rv.wait(timeout=0.01)  # the second party never arrives
        with pytest.raises(threading.BrokenBarrierError):
            rv.wait()
