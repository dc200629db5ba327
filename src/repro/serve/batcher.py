"""Micro-batching request transport for the flattened ensemble.

Single-row prediction requests are expensive to serve one by one (every call
pays the full per-tree dispatch overhead); batches amortize it.  The
:class:`MicroBatcher` keeps a bounded, locked FIFO of
``(row, t_enqueue, handle)`` triples and flushes a batch through the
:class:`~repro.serve.flat_model.FlatEnsemble` when either

* ``max_batch`` requests are waiting, or
* the oldest request has waited ``max_wait`` seconds.

The max-wait deadline is anchored to the **first** queued request: a late
arrival joins the flush but never extends the wait of the requests already
queued.  No per-push deadline is stored -- it is derived from the head's
enqueue time -- so the anchor cannot drift under a steady trickle of
arrivals (``test_late_arrival_does_not_extend_deadline`` pins it).

``submit`` is the input boundary: a row narrower than the active ensemble's
``n_features`` raises ``FlatEnsemble.predict``'s ``ValueError`` and is never
queued, so one malformed request cannot fail the flush it would have joined.
Wider rows serve; a batch mixing widths keeps the columns all its rows have.

Flushing is decomposed into two steps so any serving loop can drive it:

``take_ready(now)``
    pop one due batch (or None) -- pure scheduling, no prediction work;
``complete(batch, now)``
    predict the batch, resolve its handles at ``now``, charge the simulated
    device, and record stats.

``poll``/``drain`` compose the two on the caller's thread; a driver that
models service time can instead take a batch at ``t`` and complete it at
``t + service_time`` so queue wait *and* service time both land in the
latency distribution.

Between polls the queue is the only buffer, and when it reaches ``max_queue``
the batcher degrades gracefully instead of growing without bound:

* ``overload="degrade"`` serves the overflow request immediately through the
  scalar per-row fallback (higher unit cost, zero queue wait, never lost);
* ``overload="reject"`` applies backpressure by raising :class:`QueueFull`.

A simulated :class:`~repro.gpusim.kernel.GpuDevice` may ride along: every
completed batch is charged through the Section III-D prediction-kernel cost
model.  The clock is injectable (``clock=`` or explicit ``now=`` arguments),
so batching policy is testable with a simulated clock and usable with
``time.monotonic`` in a real loop.  The queue is locked, so many producers
may ``submit`` while one consumer polls.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..core.predictor import charge_prediction_kernels
from ..data.matrix import predict_rows
from ..gpusim.kernel import GpuDevice
from ..obs import span
from .flat_model import FlatEnsemble
from .registry import DEFAULT_NAME, ModelRegistry
from .stats import ServingStats

__all__ = ["Batch", "BatchPolicy", "MicroBatcher", "PendingPrediction", "QueueFull"]

#: what `take_ready` hands back: ``(row, t_enqueue, handle)`` triples
Batch = List[Tuple[np.ndarray, float, "PendingPrediction"]]


class QueueFull(RuntimeError):
    """Raised (under ``overload="reject"``) when the bounded queue is full."""


@dataclasses.dataclass(frozen=True)
class BatchPolicy:
    """Knobs governing when batches flush and how overload is handled."""

    #: flush as soon as this many requests are queued
    max_batch: int = 256
    #: flush when the oldest queued request has waited this long (seconds)
    max_wait: float = 0.002
    #: bounded queue depth; submissions beyond it degrade or reject
    max_queue: int = 2048
    #: "degrade" (serve overflow per-row immediately) or "reject" (QueueFull)
    overload: str = "degrade"

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.max_queue < 1:
            raise ValueError("max_batch and max_queue must be positive")
        if self.max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if self.overload not in ("degrade", "reject"):
            raise ValueError(f"unknown overload policy {self.overload!r}")


class PendingPrediction:
    """Handle returned by :meth:`MicroBatcher.submit`; resolved exactly once
    when its batch completes (or immediately on the degraded path), with a
    value or with the error that failed its batch."""

    __slots__ = ("done", "value", "error", "version", "degraded", "t_done")

    def __init__(self) -> None:
        self.done = False
        self.value: float | None = None
        self.error: Exception | None = None
        self.version: str | None = None
        self.degraded = False
        #: completion time on the batcher's clock (None until resolved)
        self.t_done: float | None = None

    def result(self) -> float:
        if not self.done:
            raise RuntimeError("prediction not flushed yet (poll or drain the batcher)")
        if self.error is not None:
            raise self.error
        assert self.value is not None
        return self.value

    def _resolve(self, value: float | None, version: str | None, now: float | None = None,
                 error: Exception | None = None) -> None:
        if self.done:
            raise RuntimeError("prediction resolved twice (duplicated response)")
        self.value = None if error is not None else float(value)
        self.error = error
        self.version = version
        self.t_done = now
        self.done = True


class MicroBatcher:
    """Groups single-row requests into batched flat-ensemble predictions.

    Parameters
    ----------
    source:
        A :class:`FlatEnsemble` to serve, a :class:`ModelRegistry` whose
        active version (of ``model_name``) is resolved at every submit/flush
        -- so a hot swap takes effect on the *next* batch, and every request
        within one batch is served by a single consistent version.
    policy:
        Flush/overload policy.
    device:
        Optional simulated GPU; each completed batch charges the prediction
        kernels so modeled serving cost accumulates in its ledger.
    clock:
        0-arg callable returning seconds; every public method also accepts an
        explicit ``now`` for simulated time.
    """

    def __init__(
        self,
        source: FlatEnsemble | ModelRegistry,
        *,
        model_name: str = DEFAULT_NAME,
        policy: BatchPolicy | None = None,
        device: GpuDevice | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(source, (FlatEnsemble, ModelRegistry)):
            raise TypeError("source must be a FlatEnsemble or a ModelRegistry")
        self._source = source
        self._model_name = model_name
        self.policy = policy if policy is not None else BatchPolicy()
        self.stats = ServingStats()
        self.device = device
        self._clock = clock
        self._lock = threading.Lock()
        #: queued ``(row, t_enqueue, handle)`` triples, oldest first
        self.queue: Deque[Tuple[np.ndarray, float, PendingPrediction]] = deque()

    # -------------------------------------------------------------- resolving
    def _resolve(self) -> Tuple[FlatEnsemble, Optional[str]]:
        """Active ensemble + version id."""
        if isinstance(self._source, ModelRegistry):
            active = self._source.active(self._model_name)
            return active.flat, active.version
        return self._source, None

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------- submitting
    def submit(self, row: np.ndarray, now: float | None = None) -> PendingPrediction:
        """Enqueue one feature vector; returns its result handle.

        Raises ``ValueError`` (queueing nothing) when the row has fewer
        entries than the active ensemble tests.  Under overload the handle
        completes immediately through the degraded per-row path; otherwise
        it resolves at the flush that includes it.
        """
        now = self._clock() if now is None else now
        self.stats.note_time(now)
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        predict_rows(row[None], self._resolve()[0].n_features)  # too narrow: ValueError

        handle = PendingPrediction()
        with self._lock:
            queued = len(self.queue) < self.policy.max_queue
            if queued:
                self.queue.append((row, now, handle))
        if queued:
            return handle
        if self.policy.overload == "reject":
            self.stats.record_reject()
            raise QueueFull(f"queue at max_queue={self.policy.max_queue}; request rejected")
        return self.shed(row, now, handle)

    def shed(
        self, row: np.ndarray, now: float, handle: PendingPrediction
    ) -> PendingPrediction:
        """Serve one row immediately through the degraded per-row fallback
        (the overload path)."""
        with span("serve_shed", queue_depth=len(self.queue)):
            flat, version = self._resolve()
            handle.degraded = True
            handle._resolve(flat.predict_one(row), version, now)
        self.stats.record_request(0.0, degraded=True)
        return handle

    # --------------------------------------------------------------- flushing
    def take_ready(self, now: float | None = None) -> Optional[Batch]:
        """Pop one due batch (max-batch reached or max-wait expired); None
        when nothing is due.  Pure scheduling -- no prediction work."""
        now = self._clock() if now is None else now
        with self._lock:
            if not self.queue:
                return None
            if (
                len(self.queue) < self.policy.max_batch
                and now - self.queue[0][1] < self.policy.max_wait
            ):
                return None
            return self._pop_locked()

    def take(self) -> Batch:
        """Pop up to one batch unconditionally (drain paths)."""
        with self._lock:
            return self._pop_locked()

    def _pop_locked(self) -> Batch:
        n = min(len(self.queue), self.policy.max_batch)
        return [self.queue.popleft() for _ in range(n)]

    def complete(self, batch: Batch, now: float | None = None) -> int:
        """Predict ``batch`` and resolve its handles at time ``now``.

        Latency recorded per request is ``now - t_enqueue`` -- the driving
        loop decides whether ``now`` is the take instant (synchronous
        ``poll``) or take + modeled service time.  A batch too narrow for
        the active ensemble (after a hot swap) fails every handle with the
        ``ValueError`` and counts each request as rejected.
        Returns the number of rows served.
        """
        if not batch:
            return 0
        now = self._clock() if now is None else now
        with span("serve_flush", batch=len(batch), queued=len(self.queue)):
            try:
                rows = np.stack([row for row, _, _ in batch])
            except ValueError:  # rows of different widths: keep the shared columns
                width = min(row.size for row, _, _ in batch)
                rows = np.stack([row[:width] for row, _, _ in batch])
            flat, version = self._resolve()
            try:
                values = flat.predict(rows)
            except ValueError as exc:
                for _, _, handle in batch:
                    handle._resolve(None, version, now, error=exc)
                    self.stats.record_reject()
                return 0
            if self.device is not None:
                charge_prediction_kernels(
                    self.device,
                    n_rows=len(batch),
                    n_trees=flat.n_trees,
                    avg_depth=max(1.0, flat.mean_depth),
                )
            self.stats.note_time(now)
            self.stats.record_batch(len(batch))
            for (_, t_enq, handle), value in zip(batch, values):
                handle._resolve(value, version, now)
                self.stats.record_request(max(0.0, now - t_enq))
        return len(batch)

    def poll(self, now: float | None = None) -> int:
        """One serving-loop tick: complete every due batch at ``now``
        (full batches first, then an overdue partial).  Returns rows flushed."""
        now = self._clock() if now is None else now
        flushed = 0
        while True:
            batch = self.take_ready(now)
            if batch is None:
                return flushed
            flushed += self.complete(batch, now)

    def drain(self, now: float | None = None) -> int:
        """Flush everything still queued (shutdown / end of bench)."""
        now = self._clock() if now is None else now
        flushed = 0
        while self.queue:
            flushed += self.complete(self.take(), now)
        return flushed
