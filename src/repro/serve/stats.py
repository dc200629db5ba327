"""Serving metrics: latency percentiles, throughput, shed/reject counters.

One :class:`ServingStats` instance rides along with a
:class:`~repro.serve.batcher.MicroBatcher`; every request outcome is recorded
here, and :meth:`ServingStats.summary` emits a JSON-safe dict that a bench
payload can carry into the run store (:mod:`repro.obs.runstore`) to diff
and gate.

The counters and percentile math live in the shared observability primitives
(:mod:`repro.obs.metrics_registry`): latencies and batch sizes go into
:class:`~repro.obs.metrics_registry.Histogram` instances (exact percentiles
while the sample window holds, fixed-bucket estimates beyond it), counts into
:class:`~repro.obs.metrics_registry.Counter` instances.
"""

from __future__ import annotations

from typing import Dict

from ..obs.metrics_registry import DEFAULT_LATENCY_BUCKETS, Counter, Histogram

__all__ = ["ServingStats", "BATCH_SIZE_BUCKETS"]

#: powers of two up to the largest plausible max_batch
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                      512.0, 1024.0, 2048.0, 4096.0)


class ServingStats:
    """Counters and latency samples for one serving session.

    Latencies are recorded in seconds from request enqueue to batch flush
    (shed requests complete immediately and record zero queue wait).
    Timestamps come from whatever clock the batcher uses -- wall or
    simulated -- so percentiles are meaningful either way.
    """

    def __init__(self) -> None:
        self._latency = Histogram(
            "serve_request_latency_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self._batches = Histogram("serve_batch_size", buckets=BATCH_SIZE_BUCKETS)
        self._requests = Counter("serve_requests_total")
        self._shed = Counter("serve_shed_total")
        self._rejected = Counter("serve_rejected_total")
        self._t_first: float | None = None
        self._t_last: float | None = None

    # -------------------------------------------------------------- recording
    def note_time(self, now: float) -> None:
        """Track the observation window for :meth:`throughput`."""
        if self._t_first is None:
            self._t_first = now
        self._t_last = now

    def record_request(self, latency: float, *, degraded: bool = False) -> None:
        """One completed request (served from a batch or the degraded
        per-row fallback)."""
        self._requests.inc()
        self._latency.observe(float(latency))
        if degraded:
            self._shed.inc()

    def record_reject(self) -> None:
        """One request turned away (backpressure, or too narrow after a swap)."""
        self._rejected.inc()

    def record_batch(self, size: int) -> None:
        self._batches.observe(int(size))

    # ------------------------------------------------------------- reductions
    @property
    def n_requests(self) -> int:
        return int(self._requests.value)

    @property
    def n_batches(self) -> int:
        return self._batches.count

    @property
    def shed(self) -> int:
        return int(self._shed.value)

    @property
    def rejected(self) -> int:
        return int(self._rejected.value)

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (0.0 when nothing was recorded)."""
        return self._latency.percentile(q)

    @property
    def p50(self) -> float:
        return self._latency.p50

    @property
    def p95(self) -> float:
        return self._latency.p95

    @property
    def p99(self) -> float:
        return self._latency.p99

    @property
    def mean_batch_size(self) -> float:
        return self._batches.mean

    def throughput(self, duration: float | None = None) -> float:
        """Completed requests per second over ``duration`` (defaults to the
        observed first-to-last event window)."""
        if duration is None:
            if self._t_first is None or self._t_last is None:
                return 0.0
            duration = self._t_last - self._t_first
        return self.n_requests / duration if duration > 0 else 0.0

    def summary(self, duration: float | None = None) -> Dict[str, float]:
        """JSON-safe snapshot for reports and regression tracking."""
        return {
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "mean_batch_size": self.mean_batch_size,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "throughput_rps": self.throughput(duration),
            "shed": self.shed,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:
        return (
            f"ServingStats(requests={self.n_requests}, batches={self.n_batches}, "
            f"p50={self.p50 * 1e3:.3g}ms, p99={self.p99 * 1e3:.3g}ms, "
            f"shed={self.shed}, rejected={self.rejected})"
        )
