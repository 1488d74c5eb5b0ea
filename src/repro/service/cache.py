"""Thread-safe plan cache: LRU by entry count.

A deliberately small, dependency-free cache: the service stores one
:class:`~repro.core.result.OptimizationReport` per workload fingerprint.
Reports are immutable for the service's purposes (callers only read
them), so hits can hand back the cached object directly.

The one bound is ``maxsize`` entries, least recently used evicted
first.  A fingerprint covers the dataset's content and statistics, so
data that drifts gets a new key instead of a stale hit, and a
calibration change re-costs an entry instead of expiring it.

This is the *in-memory* tier only: eviction here never touches the
persistent plan store (:mod:`repro.service.backends`), which the
service writes through to and reloads from on construction.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Counters snapshot of one :class:`PlanCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def summary(self) -> str:
        return (
            f"plan cache: {self.size}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions"
        )


class PlanCache:
    """LRU mapping workload fingerprint -> cached value (thread-safe)."""

    def __init__(self, maxsize=256):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency; counts a hit/miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert ``value``; evicts the least recently used entries
        beyond ``maxsize``."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def peek(self, key):
        """The value under ``key`` or None, without counting a hit/miss
        or refreshing the entry's recency."""
        with self._lock:
            return self._data.get(key)

    def __contains__(self, key) -> bool:
        return self.peek(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )
