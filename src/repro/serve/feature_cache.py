"""Version-keyed LRU prediction cache with shared-registry counters.

The cache used to live as an ``OrderedDict`` plus ad-hoc hit/miss counters
buried inside the batcher and :class:`~repro.serve.stats.ServingStats`.
:class:`FeatureCache` owns both concerns:

* the LRU map itself, keyed by the feature vector's bytes and invalidated
  whenever the serving model version changes (a stale prediction can never
  be served across a hot swap);
* hit/miss/eviction accounting, recorded **twice** -- as plain instance
  attributes (``cache.hits``) for summaries and deterministic tests, and as
  ``serve_cache_*_total`` counters on the process-global :mod:`repro.obs`
  registry, so cache behaviour lands in the same Prometheus/JSONL export as
  every other metric.

A ``capacity`` of 0 disables the cache entirely: lookups miss without
counting and stores are dropped, matching the original batcher's
"disabled cache records nothing" behavior.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..obs import get_registry

__all__ = ["FeatureCache"]


class FeatureCache:
    """LRU ``feature-bytes -> prediction`` map for one batcher.

    Parameters
    ----------
    capacity:
        Maximum resident entries (0 disables the cache).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[bytes, float]" = OrderedDict()
        self._version: Optional[str] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        reg = get_registry()
        self._hits_total = reg.counter("serve_cache_hits_total", "prediction cache hits")
        self._misses_total = reg.counter("serve_cache_misses_total", "prediction cache misses")
        self._evictions_total = reg.counter(
            "serve_cache_evictions_total", "prediction cache LRU evictions"
        )

    # -------------------------------------------------------------- inspection
    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    # --------------------------------------------------------------- operation
    def sync_version(self, version: Optional[str]) -> None:
        """Drop every entry when the serving model version changed."""
        if version != self._version:
            self._entries.clear()
            self._version = version

    def lookup(self, key: bytes, version: Optional[str]) -> Optional[float]:
        """Probe for ``key`` under ``version``; counts the hit or miss.

        Returns the cached prediction or None.  Disabled caches return None
        without counting (there is no cache to have missed).
        """
        if not self.enabled:
            return None
        self.sync_version(version)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            self._misses_total.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._hits_total.inc()
        return value

    def store(self, key: bytes, value: float) -> None:
        """Insert/refresh ``key`` and evict LRU entries beyond capacity."""
        if not self.enabled:
            return
        self._entries[key] = float(value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._evictions_total.inc()

    def __repr__(self) -> str:
        return (
            f"FeatureCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
