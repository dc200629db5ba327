"""Reusable training workspace: preallocated, geometrically-grown buffers.

The level loop of :meth:`GPUGBDTTrainer._grow_tree
<repro.core.trainer.GPUGBDTTrainer._grow_tree>` historically allocated every
working array fresh -- ``np.empty`` / ``np.zeros`` / ``np.concatenate`` per
level, per boosting round.  The paper's own profiling argument (Section
IV-A: split finding and node splitting dominate) holds for the host
reproduction too, and most of that host time was allocator churn and
re-derived segment descriptors rather than numpy arithmetic.  Mitchell et
al. (GPU XGBoost) attribute a large share of their speedup to reusing
preallocated device workspaces across levels; this module is the host-side
analogue.

:class:`WorkspaceArena` hands out *views* into named, per-dtype buffers that
persist across levels, trees, and boosting rounds:

* a buffer is allocated once on first request and **grown geometrically**
  (never shrunk), so a training run performs O(log n) real allocations per
  buffer name instead of O(levels x rounds);
* requests are keyed by name -- two arrays that must be live at the same
  time use two names (the trainer's ping-pong pairs use ``name + "/a"`` and
  ``name + "/b"``);
* index buffers are pinned to ``int64`` (:data:`IDX_DTYPE`) so offsets and
  scatter destinations are safe past 2**31 elements on every platform
  (Windows' default ``np.intp``/platform-int would silently wrap);
* everything is observable: request/reuse/grow/allocation counters and a
  reserved-bytes gauge publish into the shared metrics registry
  (:mod:`repro.obs`).

The arena is purely a host optimization and the only allocation strategy
of the exact kernels: it never changes the simulated-device ledger or the
trees.  A kernel called without a workspace uses a fresh arena for that
call.  Correctness rests on the CPU reference trainer's identical-tree
tests and the per-kernel loop oracles in ``tests/``; a trainer reused after
a fit that left larger, dirty buffers behind must give the same model as a
fresh one (``tests/test_stale_arena.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["WorkspaceArena", "IDX_DTYPE"]

#: the pinned dtype for every index-like buffer (offsets, destinations,
#: ranks, segment ids).  int64 keeps >2**31-element layouts safe on every
#: platform; see ``tests/test_dtype_safety.py``.
IDX_DTYPE = np.int64

#: geometric growth factor for buffer capacity
_GROWTH = 1.5

#: capacities are rounded up to a multiple of this many elements
_ALIGN = 64


def _round_capacity(size: int) -> int:
    return -(-max(size, 1) // _ALIGN) * _ALIGN


class WorkspaceArena:
    """Named, geometrically-grown scratch buffers for hot-path reuse.

    Notes
    -----
    Views returned by :meth:`buf` / :meth:`full` / :meth:`zeros` alias the
    arena's storage: a second request under the same name invalidates the
    first.  Callers own the naming discipline (the trainer prefixes names
    per logical array and swaps explicit ``/a``-``/b`` pairs).
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}
        self._arange: np.ndarray | None = None
        # plain-int counters; published to the obs registry on demand so the
        # hot path never takes the registry lock
        self.n_requests = 0
        self.n_reuses = 0
        self.n_allocs = 0
        self.n_grows = 0
        self._published: dict[str, int] = {}

    # ------------------------------------------------------------- inventory
    @property
    def reserved_bytes(self) -> int:
        """Total bytes currently held by the arena's buffers."""
        total = sum(b.nbytes for b in self._bufs.values())
        if self._arange is not None:
            total += self._arange.nbytes
        return total

    @property
    def n_buffers(self) -> int:
        return len(self._bufs) + (self._arange is not None)

    # --------------------------------------------------------------- buffers
    def buf(self, name: str, size: int, dtype) -> np.ndarray:
        """An *uninitialized* 1-D view of ``size`` elements of ``dtype``.

        The underlying buffer is keyed by ``(name, dtype)`` and grown
        geometrically when ``size`` exceeds its capacity.  Contents are
        whatever the previous user of the buffer left behind -- fill before
        reading, exactly as with ``np.empty``.
        """
        dtype = np.dtype(dtype)
        self.n_requests += 1
        key = f"{name}|{dtype.str}"
        cur = self._bufs.get(key)
        if cur is None:
            cur = np.empty(_round_capacity(size), dtype)
            self._bufs[key] = cur
            self.n_allocs += 1
        elif cur.size < size:
            cap = max(_round_capacity(size), int(cur.size * _GROWTH))
            cur = np.empty(cap, dtype)
            self._bufs[key] = cur
            self.n_allocs += 1
            self.n_grows += 1
        else:
            self.n_reuses += 1
        return cur[:size]

    def buf2d(self, name: str, rows: int, cols: int, dtype) -> np.ndarray:
        """An *uninitialized* ``(rows, cols)`` view backed by :meth:`buf`.

        Backing storage is the flat buffer keyed by ``(name, dtype)``, so a
        table that shrinks or grows between levels (histogram node tables)
        reuses the same allocation.  The histogram trainer ping-pongs two
        names by level parity -- ``hist/gq/0`` holds even-depth tables while
        ``hist/gq/1`` holds odd-depth ones -- so a level's parent tables
        stay alive (for sibling subtraction) while its children are built.
        """
        return self.buf(name, rows * cols, dtype).reshape(rows, cols)

    def full(self, name: str, size: int, dtype, fill) -> np.ndarray:
        """Like :meth:`buf` but filled with ``fill``."""
        out = self.buf(name, size, dtype)
        out[...] = fill
        return out

    def zeros(self, name: str, size: int, dtype) -> np.ndarray:
        """Like :meth:`buf` but zero-filled."""
        return self.full(name, size, dtype, 0)

    def arange(self, size: int) -> np.ndarray:
        """A **read-only** view of ``[0, size)`` as :data:`IDX_DTYPE`.

        The ascending sequence is materialized once and only extended when a
        larger prefix is requested; the view is marked non-writeable because
        every caller shares it.
        """
        self.n_requests += 1
        if self._arange is None or self._arange.size < size:
            self._arange = np.arange(_round_capacity(size), dtype=IDX_DTYPE)
            self._arange.setflags(write=False)
            self.n_allocs += 1
        else:
            self.n_reuses += 1
        return self._arange[:size]

    # --------------------------------------------------------------- metrics
    def publish_metrics(self) -> None:
        """Flush the arena's counters into the shared obs registry.

        Counters are published as deltas since the previous flush so the
        registry totals stay monotone across repeated ``fit`` calls.
        """
        from ..obs import get_registry

        registry = get_registry()
        for metric, value in (
            ("arena_requests_total", self.n_requests),
            ("arena_reuses_total", self.n_reuses),
            ("arena_allocs_total", self.n_allocs),
            ("arena_grows_total", self.n_grows),
        ):
            delta = value - self._published.get(metric, 0)
            if delta:
                registry.counter(metric, "workspace arena buffer events").inc(delta)
            self._published[metric] = value
        registry.gauge(
            "arena_reserved_bytes", "bytes held by the training workspace arena"
        ).set(float(self.reserved_bytes))

    def __repr__(self) -> str:
        return (
            f"WorkspaceArena(buffers={self.n_buffers}, "
            f"reserved={self.reserved_bytes}B, reuses={self.n_reuses}/"
            f"{self.n_requests})"
        )
