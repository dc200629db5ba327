"""Micro-batching request transport over the pure :class:`BatchQueue` core.

Single-row prediction requests are expensive to serve one by one (every call
pays the full per-tree dispatch overhead); batches amortize it.  The
:class:`MicroBatcher` accumulates requests in a bounded
:class:`~repro.serve.batch_core.BatchQueue` and flushes a batch through the
:class:`~repro.serve.flat_model.FlatEnsemble` when either

* ``max_batch`` requests are waiting, or
* the oldest request has waited ``max_wait`` seconds (the deadline is
  anchored to the *first* queued request -- late arrivals join the batch
  but never extend the wait; see :mod:`repro.serve.batch_core`).

The queue/deadline policy lives in the core; this class is the *transport*
binding it to a model, a clock, metrics, and an overload story.  Flushing is
decomposed into two steps so any serving loop can drive it:

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

An optional :class:`~repro.serve.feature_cache.FeatureCache` short-circuits
repeated feature vectors; it is keyed to the active model version,
invalidated on hot swap, and its hit/miss/eviction counters land on the
shared :mod:`repro.obs` registry.  A simulated
:class:`~repro.gpusim.kernel.GpuDevice` may ride along: every completed
batch is charged through the Section III-D prediction-kernel cost model.

The clock is injectable (``clock=`` or explicit ``now=`` arguments), so
batching policy is testable with a simulated clock and usable with
``time.monotonic`` in a real loop.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.predictor import charge_prediction_kernels
from ..gpusim.kernel import GpuDevice
from ..obs import span
from .batch_core import BatchQueue
from .feature_cache import FeatureCache
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
    #: feature-hash prediction cache entries (0 disables the cache)
    cache_size: int = 0
    #: "degrade" (serve overflow per-row immediately) or "reject" (QueueFull)
    overload: str = "degrade"

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.max_queue < 1:
            raise ValueError("max_batch and max_queue must be positive")
        if self.max_wait < 0 or self.cache_size < 0:
            raise ValueError("max_wait and cache_size must be non-negative")
        if self.overload not in ("degrade", "reject"):
            raise ValueError(f"unknown overload policy {self.overload!r}")


class PendingPrediction:
    """Handle returned by :meth:`MicroBatcher.submit`; resolved exactly once
    when its batch completes (or immediately: cache hit / degraded path)."""

    __slots__ = ("done", "value", "version", "cache_hit", "degraded", "t_done")

    def __init__(self) -> None:
        self.done = False
        self.value: float | None = None
        self.version: str | None = None
        self.cache_hit = False
        self.degraded = False
        #: completion time on the batcher's clock (None until resolved)
        self.t_done: float | None = None

    def result(self) -> float:
        if not self.done:
            raise RuntimeError("prediction not flushed yet (poll or drain the batcher)")
        assert self.value is not None
        return self.value

    def _resolve(self, value: float, version: str | None, now: float | None = None) -> None:
        if self.done:
            raise RuntimeError("prediction resolved twice (duplicated response)")
        self.value = float(value)
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
        Flush/overload/caching policy.
    stats:
        Metrics sink (a fresh :class:`ServingStats` when omitted).
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
        stats: ServingStats | None = None,
        device: GpuDevice | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(source, (FlatEnsemble, ModelRegistry)):
            raise TypeError("source must be a FlatEnsemble or a ModelRegistry")
        self._source = source
        self._model_name = model_name
        self.policy = policy if policy is not None else BatchPolicy()
        self.stats = stats if stats is not None else ServingStats()
        self.device = device
        self._clock = clock
        self.queue = BatchQueue(
            max_batch=self.policy.max_batch,
            max_wait=self.policy.max_wait,
            max_queue=self.policy.max_queue,
        )
        self.cache = FeatureCache(self.policy.cache_size)

    # -------------------------------------------------------------- resolving
    def _resolve(self) -> Tuple[FlatEnsemble, Optional[str]]:
        """Active ensemble + version id; drops the cache on version change."""
        if isinstance(self._source, ModelRegistry):
            active = self._source.active(self._model_name)
            flat, version = active.flat, active.version
        else:
            flat, version = self._source, None
        self.cache.sync_version(version)
        return flat, version

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------- submitting
    def submit(self, row: np.ndarray, now: float | None = None) -> PendingPrediction:
        """Enqueue one feature vector; returns its result handle.

        Completes immediately on a cache hit or (under overload) through the
        degraded per-row path; otherwise the handle resolves at the flush
        that includes it.
        """
        now = self._clock() if now is None else now
        self.stats.note_time(now)
        row = np.asarray(row, dtype=np.float64).reshape(-1)

        if self.cache.enabled:
            flat, version = self._resolve()
            cached = self.cache.lookup(row.tobytes(), version)
            if cached is not None:
                handle = PendingPrediction()
                handle.cache_hit = True
                handle._resolve(cached, version, now)
                self.stats.record_request(0.0)
                return handle

        handle = PendingPrediction()
        if not self.queue.push((row, handle), now):
            if self.policy.overload == "reject":
                self.stats.record_reject()
                raise QueueFull(
                    f"queue at max_queue={self.policy.max_queue}; request rejected"
                )
            return self.shed(row, now, handle)
        return handle

    def shed(
        self,
        row: np.ndarray,
        now: float | None = None,
        handle: PendingPrediction | None = None,
    ) -> PendingPrediction:
        """Serve one row immediately through the degraded per-row fallback
        (the overload path)."""
        now = self._clock() if now is None else now
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        handle = handle if handle is not None else PendingPrediction()
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
        taken = self.queue.take_ready(now)
        if taken is None:
            return None
        return [(row, t_enq, handle) for (row, handle), t_enq in taken]

    def take(self) -> Batch:
        """Pop up to one batch unconditionally (drain paths)."""
        return [(row, t_enq, handle) for (row, handle), t_enq in self.queue.take()]

    def complete(self, batch: Batch, now: float | None = None) -> int:
        """Predict ``batch`` and resolve its handles at time ``now``.

        Latency recorded per request is ``now - t_enqueue`` -- the driving
        loop decides whether ``now`` is the take instant (synchronous
        ``poll``) or take + modeled service time.
        Returns the number of rows served.
        """
        if not batch:
            return 0
        now = self._clock() if now is None else now
        with span("serve_flush", batch=len(batch), queued=len(self.queue)):
            rows = np.stack([row for row, _, _ in batch])
            flat, version = self._resolve()
            values = flat.predict(rows)
            if self.device is not None:
                charge_prediction_kernels(
                    self.device,
                    n_rows=len(batch),
                    n_trees=flat.n_trees,
                    avg_depth=max(1.0, flat.mean_depth),
                )
            self.stats.note_time(now)
            self.stats.record_batch(len(batch))
            for (row, t_enq, handle), value in zip(batch, values):
                handle._resolve(value, version, now)
                self.stats.record_request(max(0.0, now - t_enq))
                self.cache.store(row.tobytes(), float(value))
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
        while len(self.queue):
            flushed += self.complete(self.take(), now)
        return flushed
