"""Transport-agnostic micro-batching core: pure queue + deadline logic.

:class:`BatchQueue` is the policy kernel extracted from the original
``MicroBatcher``: it decides *what is queued*, *when a batch is due*, and
*which items leave together* -- and nothing else.  It never touches a model,
a clock, a thread, or a metric; the
:class:`~repro.serve.batcher.MicroBatcher` binds it to all of those and
drives it with ``poll``/``drain`` on the caller's thread.

Deadline contract (the first-request anchor)
--------------------------------------------
The max-wait window of a batch is anchored to the **enqueue time of the
oldest queued item**: a request that arrives just before the deadline joins
the flush but never extends the wait of the requests already queued.  The
naive implementation -- re-arming ``deadline = now + max_wait`` on every
push -- starves the head under a steady trickle of arrivals; this core
stores no per-push deadline at all, deriving it from the head item instead,
so the anchor cannot drift by construction.
``tests/test_serve_batcher.py::test_late_arrival_does_not_extend_deadline``
pins the contract.

All mutating calls take an explicit ``now`` (seconds, any monotonic
timebase); the core is thread-safe so many producers may ``push`` while one
consumer takes batches.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

__all__ = ["BatchQueue"]


class BatchQueue:
    """Bounded FIFO of ``(item, t_enqueue)`` pairs with batch-flush triggers.

    Parameters
    ----------
    max_batch:
        A batch is due as soon as this many items are queued, and no take
        ever returns more than this many items.
    max_wait:
        A partial batch is due once its *oldest* item has waited this many
        seconds (first-request-anchored; see the module docstring).
    max_queue:
        Bound on queued items; :meth:`push` refuses beyond it and the caller
        decides whether to degrade or reject.
    """

    def __init__(self, *, max_batch: int, max_wait: float, max_queue: int) -> None:
        if max_batch < 1 or max_queue < 1:
            raise ValueError("max_batch and max_queue must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_queue = int(max_queue)
        self._lock = threading.Lock()
        self._queue: Deque[Tuple[Any, float]] = deque()

    # -------------------------------------------------------------- producing
    def push(self, item: Any, now: float) -> bool:
        """Enqueue ``item`` at time ``now``; False when the queue is full
        (the transport decides what overflow means -- shed or reject)."""
        with self._lock:
            if len(self._queue) >= self.max_queue:
                return False
            self._queue.append((item, float(now)))
            return True

    # -------------------------------------------------------------- consuming
    def __len__(self) -> int:
        return len(self._queue)

    def take_ready(self, now: float) -> Optional[List[Tuple[Any, float]]]:
        """Pop one due batch (oldest first, at most ``max_batch`` items);
        None when nothing is due yet."""
        with self._lock:
            if not self._queue:
                return None
            due = (
                len(self._queue) >= self.max_batch
                or now - self._queue[0][1] >= self.max_wait
            )
            if not due:
                return None
            return self._pop_locked()

    def take(self) -> List[Tuple[Any, float]]:
        """Pop up to ``max_batch`` items unconditionally (drain and shutdown
        ignore readiness)."""
        with self._lock:
            return self._pop_locked()

    def _pop_locked(self) -> List[Tuple[Any, float]]:
        n = min(len(self._queue), self.max_batch)
        return [self._queue.popleft() for _ in range(n)]

    def __repr__(self) -> str:
        return (
            f"BatchQueue(depth={len(self._queue)}, max_batch={self.max_batch}, "
            f"max_wait={self.max_wait}, max_queue={self.max_queue})"
        )
