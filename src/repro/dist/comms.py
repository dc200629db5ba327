"""Collective communication for distributed GBDT training.

The paper's future work (Section VI) names multi-GPU / cluster training;
the production path for it is row-sharded data parallelism over allreduced
histograms (Mitchell et al. 2018, Zhang et al. 2017).  This module provides
the collectives that design needs -- ``allreduce_sum``, ``allreduce_max``,
``allgather``, ``broadcast``, ``barrier`` -- as one SPMD class,
:class:`Collective`.

Ranks run on threads and every collective is a *rendezvous*: all ranks
deposit, synchronize, and then each computes the reduction locally in rank
order (deterministic; exact for the int64 payloads the trainer moves).
Communication cost is charged to each rank's
:class:`~repro.gpusim.kernel.GpuDevice` ledger by one ring-step table --
a ring allreduce of ``B`` bytes across ``W`` ranks costs every rank
``2(W-1)`` steps of ``B/W`` bytes over its link -- so the cost model
produces a modeled scaling curve.  Time a rank spends blocked in a
rendezvous is measured on its clock as wait seconds, and a rendezvous that
does not fill within ``recv_timeout_s`` raises :class:`CollectiveTimeout`
instead of hanging the world.

Link cost is expressed in "equivalent PCIe bytes": one
:class:`~repro.gpusim.kernel.Transfer` is recorded per collective whose
byte count is chosen so the roofline cost model reproduces ``steps *
link.latency_s + bytes / link.bandwidth``.  The *true* payload bytes are
what the obs counters (``collective_bytes_total`` etc.) and per-rank
:class:`CollectiveStats` report.

Fault injection lives here because faults *manifest* in the comms layer: a
:class:`FaultPlan` can kill a rank at a round boundary (``WorkerCrash``;
surviving ranks observe ``WorkerFailure`` at their next collective) or
stall a straggler rank (a modeled link stall, never a real sleep).
:func:`run_spmd` is the driver: it spawns one
thread per rank, runs the same function everywhere, and converts a crashed
world into a single :class:`WorkerFailure` naming the failed ranks so the
caller can reshard and retry.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..gpusim.costmodel import PCIE_LATENCY_S
from ..gpusim.device import DeviceSpec, TITAN_X_PASCAL
from ..gpusim.kernel import GpuDevice
from ..obs import Tracer, current_tracer, get_registry, get_tracer, use_thread_tracer

__all__ = [
    "Collective",
    "CollectiveStats",
    "CollectiveTimeout",
    "FaultPlan",
    "LinkSpec",
    "WorkerCrash",
    "WorkerFailure",
    "run_spmd",
]

#: give up a rendezvous that has not filled after this long (a deadlocked
#: test should fail loudly, not hang the suite)
_RECV_TIMEOUT_S = 60.0


class WorkerCrash(RuntimeError):
    """Raised *inside* the rank that an injected fault kills."""

    def __init__(self, rank: int, round_: int) -> None:
        super().__init__(f"worker {rank} crashed (injected fault, round {round_})")
        self.rank = rank
        self.round = round_


class WorkerFailure(RuntimeError):
    """Raised in surviving ranks (and by :func:`run_spmd`) when peers died.

    When raised by :func:`run_spmd`, :attr:`flight_recorder` holds one
    post-mortem snapshot per rank that captured one (unclosed spans, the
    last collective op and its lockstep sequence number, accumulated wait
    seconds) so a hung or crashed world can be diagnosed from the report.
    """

    def __init__(self, failed_ranks, flight_recorder=None) -> None:
        ranks = frozenset(int(r) for r in failed_ranks)
        super().__init__(f"worker(s) {sorted(ranks)} failed")
        self.failed_ranks = ranks
        self.flight_recorder: Dict[int, Dict[str, Any]] = dict(flight_recorder or {})


class CollectiveTimeout(RuntimeError):
    """A rendezvous gave up waiting: carries rank, op, and elapsed seconds.

    This is a *real* failure (deadlock, a rank that skipped a collective),
    not an injected fault -- :func:`run_spmd` fails the world and re-raises
    it as itself so it is never mistaken for a planned :class:`WorkerCrash`.
    """

    def __init__(self, rank: int, op: str, elapsed_s: float) -> None:
        super().__init__(
            f"rank {rank}: timed out in {op} after {elapsed_s:.1f}s"
        )
        self.rank = int(rank)
        self.op = op
        self.elapsed_s = float(elapsed_s)


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """Per-link bandwidth/latency of the interconnect between ranks."""

    bandwidth_gbs: float = 12.0
    latency_s: float = PCIE_LATENCY_S

    @classmethod
    def for_spec(cls, spec: DeviceSpec) -> "LinkSpec":
        """A link matching the device's PCIe (the single-node default)."""
        return cls(bandwidth_gbs=spec.pcie_bandwidth_gbs, latency_s=PCIE_LATENCY_S)


@dataclasses.dataclass
class FaultPlan:
    """Injectable faults, triggered at round-boundary fault points.

    ``kill_rank`` raises :class:`WorkerCrash` in that rank when it reaches
    the fault point of ``kill_round``.  ``straggler_rank`` stalls that rank
    by ``straggler_delay_s`` at every round's fault point (or only at
    ``straggler_round`` if given), modeled as a link stall on its ledger.
    """

    kill_rank: Optional[int] = None
    kill_round: int = 0
    straggler_rank: Optional[int] = None
    straggler_delay_s: float = 0.0
    straggler_round: Optional[int] = None


@dataclasses.dataclass
class CollectiveStats:
    """Per-rank communication totals (true payload bytes, not modeled)."""

    bytes_total: float = 0.0
    steps_total: int = 0
    wait_s: float = 0.0
    ops: int = 0


class _Rendezvous:
    """Generation-counted barrier whose ``abort`` is not retroactive.

    ``threading.Barrier.abort()`` breaks *every* thread still inside
    ``wait()`` -- including threads whose generation already completed but
    that have not yet been scheduled out of the wait.  Here a crashing rank
    that races ahead (completes rendezvous k, then aborts at its next fault
    point) cannot spuriously fail peers still draining rendezvous k: a
    waiter whose generation advanced returns success regardless of the
    broken flag, so e.g. rank 0's end-of-round checkpoint always happens
    when every rank finished the round.  Only incomplete generations break
    (as :class:`threading.BrokenBarrierError`, matching the stdlib type).
    A generation that does not fill within ``timeout`` seconds raises
    :class:`TimeoutError` and breaks the rendezvous, as the stdlib barrier
    does: its peers can never complete it.
    """

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self.count = 0
        self.generation = 0
        self.broken = False
        self.cond = threading.Condition()

    def wait(self, timeout: Optional[float] = None) -> None:
        with self.cond:
            if self.broken:
                raise threading.BrokenBarrierError
            gen = self.generation
            self.count += 1
            if self.count == self.parties:
                self.count = 0
                self.generation += 1
                self.cond.notify_all()
                return
            if not self.cond.wait_for(
                lambda: self.generation != gen or self.broken, timeout
            ):
                self.broken = True
                self.cond.notify_all()
                raise TimeoutError
            if self.generation == gen:  # broke before this generation filled
                raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self.cond:
            self.broken = True
            self.cond.notify_all()


class _World:
    """State shared by all ranks of one SPMD run."""

    def __init__(self, world_size: int) -> None:
        self.world_size = world_size
        self.barrier = _Rendezvous(world_size)
        self.slots: List[Any] = [None] * world_size
        self.failed: set[int] = set()
        self.lock = threading.Lock()

    def fail(self, rank: int) -> None:
        """Mark ``rank`` dead and wake every blocked peer."""
        with self.lock:
            self.failed.add(int(rank))
        self.barrier.abort()

    def failed_snapshot(self) -> frozenset:
        with self.lock:
            return frozenset(self.failed)


class Collective:
    """One rank's handle on the world: SPMD collectives + fault points.

    Payloads the trainer moves are int64/float64 ndarrays (reductions) or
    small picklable objects (allgather/broadcast of sketches and models).
    Results are computed identically on every rank by reducing the deposited
    contributions in rank order, so every collective is deterministic by
    construction; the gpusim ledger carries the comm cost.
    """

    def __init__(
        self,
        world: _World,
        rank: int,
        device: Optional[GpuDevice],
        link: LinkSpec,
        faults: Optional[FaultPlan],
        *,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Optional[Tracer] = None,
        recv_timeout_s: float = _RECV_TIMEOUT_S,
    ) -> None:
        self.world = world
        self.rank = int(rank)
        self.device = device
        self.link = link
        self.faults = faults
        self.stats = CollectiveStats()
        #: injectable time source for wait measurement (deterministic tests)
        self.clock = clock
        #: rank-tagged tracer installed by :func:`run_spmd` (None = whatever
        #: tracer is current on the calling thread)
        self.tracer = tracer
        self.recv_timeout_s = float(recv_timeout_s)
        #: lockstep sequence number: every rank executes the same collective
        #: program, so op k on rank r pairs with op k on every other rank --
        #: the merged-trace exporter aligns ranks on it
        self.seq = 0
        #: (op name, seq) of the most recent collective this rank entered
        self.last_op: Optional[tuple] = None
        #: post-mortem snapshot captured at failure time (flight recorder)
        self.flight_: Optional[Dict[str, Any]] = None

    @property
    def world_size(self) -> int:
        return self.world.world_size

    # -------------------------------------------------------------- tracing
    def _op_span(self, op: str, **attrs: Any):
        """Open a rank-tagged span for one collective, stamping the lockstep
        sequence number and recording it as the last op entered."""
        self.seq += 1
        self.last_op = (op, self.seq)
        tracer = self.tracer if self.tracer is not None else current_tracer()
        return tracer.span(f"dist.{op}", seq=self.seq, **attrs)

    def flight_snapshot(self, reason: str) -> Dict[str, Any]:
        """Freeze this rank's state for the failure report: the last
        collective entered (op + lockstep seq), accumulated blocked time,
        and every span still open on the calling thread."""
        tracer = self.tracer if self.tracer is not None else current_tracer()
        now = tracer.clock()
        snapshot = {
            "rank": self.rank,
            "reason": reason,
            "last_op": self.last_op[0] if self.last_op else None,
            "seq": self.last_op[1] if self.last_op else 0,
            "wait_s": self.stats.wait_s,
            "unclosed": [
                {
                    "name": sp.name,
                    "attrs": dict(sp.attrs),
                    "elapsed_s": max(0.0, now - sp.t_start),
                }
                for sp in tracer.open_spans()
            ],
        }
        self.flight_ = snapshot
        return snapshot

    # -------------------------------------------------------------- faults
    def fault_point(self, round_: int) -> None:
        """Trigger any injected fault scheduled for this rank/round."""
        f = self.faults
        if f is None:
            return
        if (
            f.straggler_rank == self.rank
            and f.straggler_delay_s > 0
            and (f.straggler_round is None or f.straggler_round == round_)
        ):
            self._stall(f.straggler_delay_s)
        if f.kill_rank == self.rank and f.kill_round == round_:
            self.flight_snapshot(f"injected kill at round {round_}")
            self.world.fail(self.rank)
            raise WorkerCrash(self.rank, round_)

    def _stall(self, seconds: float) -> None:
        """Model a straggler as an equivalent link stall on this rank."""
        if self.device is not None:
            pcie_bps = self.device.spec.pcie_bandwidth_gbs * 1e9
            nbytes = max(0.0, seconds - PCIE_LATENCY_S) * pcie_bps
            self.device.transfer("straggler_stall", nbytes, scale=False)
        self._note_wait("straggler", seconds)

    # ----------------------------------------------------------- accounting
    def _charge(self, op: str, nbytes: float, steps: int) -> None:
        """Record true payload traffic and (if a device is attached) the
        modeled link time as equivalent PCIe bytes."""
        self.stats.bytes_total += nbytes
        self.stats.steps_total += steps
        self.stats.ops += 1
        reg = get_registry()
        reg.counter(
            "collective_bytes_total",
            "payload bytes moved by collective ops (per rank)",
            op=op,
        ).inc(nbytes)
        reg.counter(
            "collective_steps_total",
            "ring/chain steps executed by collective ops (per rank)",
            op=op,
        ).inc(steps)
        if self.device is not None and steps > 0:
            self.device.transfer(
                f"collective_{op}", self._equiv_bytes(nbytes, steps), scale=False
            )

    def _equiv_bytes(self, nbytes: float, steps: int) -> float:
        """PCIe byte count whose modeled time equals ``steps * latency +
        nbytes / bandwidth`` over this rank's link."""
        pcie_bps = self.device.spec.pcie_bandwidth_gbs * 1e9
        link_bps = self.link.bandwidth_gbs * 1e9
        lat = max(0.0, steps * self.link.latency_s - PCIE_LATENCY_S)
        return lat * pcie_bps + nbytes * (pcie_bps / link_bps)

    def _note_wait(self, op: str, seconds: float) -> None:
        if seconds <= 0:
            return
        self.stats.wait_s += seconds
        get_registry().counter(
            "collective_wait_seconds_total",
            "time ranks spent blocked or stalled in collectives",
            op=op, rank=self.rank,
        ).inc(seconds)

    # ------------------------------------------------------------ exchange
    def _exchange(self, payload: Any, op: str) -> List[Any]:
        """All ranks deposit, then all ranks see every deposit.

        The time blocked in the two rendezvous is metered as ``op`` wait;
        a peer failure surfaces as :class:`WorkerFailure`, a rendezvous
        that does not fill within ``recv_timeout_s`` as
        :class:`CollectiveTimeout`.
        """
        w = self.world
        w.slots[self.rank] = payload
        t0 = self.clock()
        try:
            w.barrier.wait(self.recv_timeout_s)  # everyone deposited
            out = list(w.slots)
            w.barrier.wait(self.recv_timeout_s)  # everyone read; slots reusable
        except threading.BrokenBarrierError:
            self._note_wait(op, self.clock() - t0)
            self.flight_snapshot("rendezvous broken by peer failure")
            raise WorkerFailure(w.failed_snapshot()) from None
        except TimeoutError:
            elapsed = self.clock() - t0
            self._note_wait(op, elapsed)
            get_registry().counter(
                "collective_timeout_total",
                "rendezvous that gave up waiting (deadlock suspected)",
                op=op, rank=self.rank,
            ).inc()
            self.flight_snapshot(f"timed out in {op}")
            raise CollectiveTimeout(self.rank, op, elapsed) from None
        self._note_wait(op, self.clock() - t0)
        return out

    # ---------------------------------------------------------- collectives
    def allreduce_sum(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        with self._op_span("allreduce_sum", nbytes=arr.nbytes):
            parts = self._exchange(arr, "allreduce")
            out = np.zeros_like(arr)
            for part in parts:  # rank order: deterministic (exact for int64)
                out = out + part
        W = self.world_size
        if W > 1:
            # ring allreduce: 2(W-1) steps of B/W bytes per rank
            self._charge("allreduce", arr.nbytes * 2 * (W - 1) / W, 2 * (W - 1))
        return out

    def allreduce_max(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        with self._op_span("allreduce_max", nbytes=arr.nbytes):
            parts = self._exchange(arr, "allreduce")
            out = parts[0]
            for part in parts[1:]:  # max is exact and order-independent
                out = np.maximum(out, part)
        W = self.world_size
        if W > 1:
            self._charge("allreduce", arr.nbytes * 2 * (W - 1) / W, 2 * (W - 1))
        return np.array(out, copy=True)

    def allgather(self, obj: Any, nbytes: Optional[float] = None) -> List[Any]:
        own = _payload_bytes(obj, nbytes)
        with self._op_span("allgather", nbytes=own):
            parts = self._exchange((obj, own), "allgather")
        W = self.world_size
        if W > 1:
            # ring allgather: every rank forwards all blocks but its own
            total = sum(p[1] for p in parts)
            self._charge("allgather", total - own, W - 1)
        return [p[0] for p in parts]

    def broadcast(self, obj: Any, root: int = 0, nbytes: Optional[float] = None) -> Any:
        with self._op_span("broadcast"):
            parts = self._exchange((obj, _payload_bytes(obj, nbytes)), "broadcast")
        out, size = parts[root]
        if self.world_size > 1:
            # chain relay: every rank but the tail forwards the payload once
            self._charge("broadcast", size, 1)
        return out

    def barrier(self) -> None:
        with self._op_span("barrier"):
            self._exchange(None, "barrier")
        if self.world_size > 1:
            self._charge("barrier", 8.0 * (self.world_size - 1), self.world_size - 1)


def _payload_bytes(obj: Any, hint: Optional[float]) -> float:
    if hint is not None:
        return float(hint)
    if isinstance(obj, np.ndarray):
        return float(obj.nbytes)
    return 64.0  # small control message


def run_spmd(
    world_size: int,
    fn: Callable[[Collective], Any],
    *,
    devices: Optional[Sequence[Optional[GpuDevice]]] = None,
    spec: DeviceSpec = TITAN_X_PASCAL,
    link: Optional[LinkSpec] = None,
    faults: Optional[FaultPlan] = None,
    tracers: Optional[Sequence[Tracer]] = None,
    recv_timeout_s: float = _RECV_TIMEOUT_S,
):
    """Run ``fn(collective)`` on ``world_size`` rank threads.

    Returns ``(results, collectives)`` with one entry per rank.  Every rank
    records its spans into a rank-tagged :class:`~repro.obs.Tracer`
    (``tracers[r]`` if given, else a fresh one inheriting the process
    tracer's settings) installed as the thread-local tracer for the rank's
    thread -- read them back from ``coll.tracer`` and feed them to
    :func:`repro.obs.export.export_merged_chrome_trace` for a per-rank
    timeline.

    If any rank died -- injected :class:`WorkerCrash` or an escaped
    exception -- every surviving rank unblocks with :class:`WorkerFailure`,
    and after all threads join this raises :class:`WorkerFailure` naming the
    failed ranks and carrying each rank's flight-recorder snapshot
    (non-fault exceptions -- including the :class:`CollectiveTimeout` of a
    rank left waiting ``recv_timeout_s`` -- are re-raised as themselves so
    real bugs are not mistaken for injected faults).
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    world = _World(world_size)
    if devices is None:
        devices = [GpuDevice(spec) for _ in range(world_size)]
    if tracers is None:
        parent = get_tracer()
        tracers = [
            Tracer(
                enabled=parent.enabled,
                clock=parent.clock,
                max_spans=parent.max_spans,
                tags={"rank": r},
            )
            for r in range(world_size)
        ]
    elif len(tracers) != world_size:
        raise ValueError("tracers must have one entry per rank")
    colls = [
        Collective(
            world,
            r,
            devices[r],
            link or LinkSpec.for_spec(spec),
            faults,
            tracer=tracers[r],
            recv_timeout_s=recv_timeout_s,
        )
        for r in range(world_size)
    ]

    results: List[Any] = [None] * world_size
    errors: List[Optional[BaseException]] = [None] * world_size

    def target(r: int) -> None:
        try:
            with use_thread_tracer(tracers[r]):
                with tracers[r].span("dist.worker"):
                    results[r] = fn(colls[r])
        except (WorkerCrash, WorkerFailure) as exc:
            errors[r] = exc
        except BaseException as exc:  # a real bug: fail the world, re-raise below
            errors[r] = exc
            world.fail(r)

    threads = [
        threading.Thread(target=target, args=(r,), name=f"dist-w{r}", daemon=True)
        for r in range(world_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300.0)
        if t.is_alive():
            world.fail(-1)
            raise RuntimeError(f"{t.name} did not finish (deadlock?)")

    for err in errors:
        if err is not None and not isinstance(err, (WorkerCrash, WorkerFailure)):
            raise err
    failed = world.failed_snapshot()
    if failed:
        raise WorkerFailure(
            failed,
            flight_recorder={
                r: colls[r].flight_
                for r in range(world_size)
                if colls[r].flight_ is not None
            },
        )
    return results, colls
