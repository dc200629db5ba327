"""Prefetch pipeline: overlap block IO with histogram compute.

Out-of-core training reads every block once per histogram pass; done
naively the device idles for the whole disk latency of each read.  The fix
(Ou, arXiv:2005.09148, Section IV) is a classic two-stage pipeline: a
background thread fetches block ``k+1`` while the trainer accumulates block
``k``, decoupled by a bounded depth-``K`` queue so at most ``K`` fetched
blocks wait in host memory (they stay **pinned** in the
:class:`~repro.stream.blockstore.BlockStore` cache until the consumer
releases them, so the cache budget covers everything resident).

Two views of the overlap are recorded:

* **measured** -- ``io_wait_seconds_total`` counts wall seconds the
  consumer actually blocked on the queue, and ``prefetch_hits_total``
  counts blocks that were already waiting when asked for;
* **modeled** -- every fetch/spill is a ``stream_io``-phase disk transfer
  in the gpusim ledger, so :func:`modeled_overlap` can compare the serial
  makespan (io + compute) against the pipelined bound
  ``max(io, compute)`` from the same ledger the PCIe accounting uses.  The
  worker hands each fetch's transfers over with its block and the consumer
  records them on taking it, so the ledger order repeats from run to run.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterator, Sequence

from ..gpusim.costmodel import phase_times
from ..gpusim.kernel import GpuDevice
from ..obs import get_registry
from .blockstore import IO_PHASE, BlockStore, ColumnBlock

__all__ = ["PrefetchPipeline", "modeled_overlap"]


class PrefetchPipeline:
    """Iterate blocks in a fixed order with background read-ahead.

    Each iteration starts a fresh fetch thread; blocks are yielded in
    exactly the requested order (the trainer's determinism does not depend
    on thread timing -- only the io-wait metrics do).  Blocks are pinned
    while queued or being consumed and released afterwards, even when the
    consumer abandons the loop early.
    """

    def __init__(
        self, store: BlockStore, block_ids: Sequence[int], *, depth: int = 2
    ) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.store = store
        self.block_ids = list(block_ids)
        self.depth = int(depth)

    def __iter__(self) -> Iterator[ColumnBlock]:
        store = self.store
        # items are (kind, block id, block or error, deferred disk IO)
        q: "queue.Queue[tuple]" = queue.Queue(maxsize=self.depth)
        stop = threading.Event()
        #: disk IO of a fetch the worker could not hand over
        unsent: list = []
        reg = get_registry()
        hits = reg.counter(
            "prefetch_hits_total", "blocks already fetched when the consumer asked"
        )
        waits = reg.counter(
            "io_wait_seconds_total", "wall seconds the consumer blocked on block IO"
        )

        def _put(item) -> bool:
            while not stop.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def worker() -> None:
            io: list = []
            try:
                for bid in self.block_ids:
                    if stop.is_set():
                        return
                    io = []
                    block = store.get_deferring_io(bid, io, pin=True)
                    if not _put(("block", bid, block, io)):
                        store.release(bid)
                        unsent.extend(io)
                        return
            except BaseException as exc:  # surface in the consumer thread
                if not _put(("error", None, exc, io)):
                    unsent.extend(io)
                return
            _put(("done", None, None, []))

        thread = threading.Thread(
            target=worker, name="stream-prefetch", daemon=True
        )
        thread.start()
        try:
            while True:
                try:
                    item = q.get_nowait()
                    if item[0] == "block":
                        hits.inc(1)
                except queue.Empty:
                    t0 = time.perf_counter()
                    item = q.get()
                    waits.inc(time.perf_counter() - t0)
                kind, bid, payload, io = item
                # the fetch's disk IO enters the ledger now, in consumer
                # order, not whenever the worker thread happened to run
                store.charge(io)
                if kind == "done":
                    return
                if kind == "error":
                    raise payload
                try:
                    yield payload
                finally:
                    store.release(bid)
        finally:
            stop.set()
            # join BEFORE draining: the worker bails out of its timed put
            # once stop is set, so this ends as soon as its current get
            # does -- and afterwards nothing can enqueue behind the drain
            thread.join()
            while True:  # drop pins of anything still queued, charge its IO
                try:
                    kind, bid, _, io = q.get_nowait()
                except queue.Empty:
                    break
                store.charge(io)
                if kind == "block":
                    store.release(bid)
            store.charge(unsent)


def modeled_overlap(device: GpuDevice) -> dict[str, float]:
    """Modeled io-vs-compute split and the two-stage pipeline bound.

    Splits the device's phase times into the ``stream_io`` slice (disk
    traffic recorded by the block store) and everything else, then reports
    the no-overlap makespan ``io + compute`` next to the pipelined bound
    ``max(io, compute)`` -- the wall time when every fetch hides behind the
    previous block's compute (or vice versa).
    """
    times = phase_times(device.spec, device.ledger, device.disk)
    io = times.get(IO_PHASE, 0.0)
    compute = sum(t for p, t in times.items() if p != IO_PHASE)
    serial = io + compute
    overlapped = max(io, compute)
    return {
        "modeled_io_s": io,
        "modeled_compute_s": compute,
        "modeled_serial_s": serial,
        "modeled_overlap_s": overlapped,
        "overlap_speedup": serial / overlapped if overlapped > 0 else 1.0,
    }
