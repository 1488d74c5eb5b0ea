"""Thread-safe plan cache: LRU + size-aware + TTL eviction.

A deliberately small, dependency-free cache: the service stores one
:class:`~repro.core.result.OptimizationReport` per workload fingerprint.
Reports are immutable for the service's purposes (callers only read
them), so hits can hand back the cached object directly.

Three eviction policies compose:

* **LRU by entry count** (``maxsize``) -- the original policy;
* **size-aware** (``max_bytes``) -- reports carry numpy arrays of very
  different sizes (speculation error curves scale with the iteration
  budget), so a byte budget evicts a few fat entries instead of many
  thin ones;
* **TTL** (``ttl_s``) -- workloads whose ``DatasetStats`` drift as data
  grows keep their fingerprint while the cached decision goes stale;
  a time-to-live bounds how long a stale plan can be served.  The
  clock is injectable for deterministic tests.

This is the *in-memory* tier only: eviction here never touches the
persistent plan store (:mod:`repro.service.backends`), which the
service writes through to and reloads from on construction.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections import OrderedDict

import numpy as np


def approx_nbytes(value, _depth=0) -> int:
    """Rough recursive byte footprint of a cached value.

    Exact accounting is not the point -- relative sizes drive eviction.
    Numpy arrays dominate real reports and are measured exactly; the
    rest is ``sys.getsizeof`` plus recursion over common containers and
    dataclasses, depth-capped against pathological nesting.
    """
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 128
    size = sys.getsizeof(value, 64)
    if _depth >= 8:
        return size
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            size += approx_nbytes(getattr(value, field.name), _depth + 1)
        return size
    if isinstance(value, dict):
        for k, v in value.items():
            size += approx_nbytes(k, _depth + 1) + approx_nbytes(v, _depth + 1)
        return size
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            size += approx_nbytes(item, _depth + 1)
        return size
    return size


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Counters snapshot of one :class:`PlanCache`."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    maxsize: int
    total_bytes: int
    max_bytes: int | None
    ttl_s: float | None

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def summary(self) -> str:
        text = (
            f"plan cache: {self.size}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.evictions} evictions"
        )
        if self.ttl_s is not None:
            text += f", {self.expirations} expired (ttl {self.ttl_s:g}s)"
        if self.max_bytes is not None:
            text += (
                f", {self.total_bytes:,}/{self.max_bytes:,} bytes"
            )
        return text


@dataclasses.dataclass
class _Entry:
    value: object
    nbytes: int
    inserted_at: float


class PlanCache:
    """LRU mapping workload fingerprint -> cached value (thread-safe).

    ``max_bytes`` (optional) bounds the summed approximate byte size of
    cached values; ``ttl_s`` (optional) expires entries that have lived
    longer than the time-to-live.  ``clock`` defaults to
    ``time.monotonic`` and is injectable for tests.
    """

    def __init__(self, maxsize=256, max_bytes=None, ttl_s=None, clock=None):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("cache max_bytes must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("cache ttl_s must be positive")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self._clock = clock or time.monotonic
        self._data = OrderedDict()
        self._total_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    # -- internals (lock held) ------------------------------------------
    def _drop(self, key) -> None:
        entry = self._data.pop(key)
        self._total_bytes -= entry.nbytes

    def _expired(self, entry) -> bool:
        return (
            self.ttl_s is not None
            and self._clock() - entry.inserted_at > self.ttl_s
        )

    def _purge_expired(self) -> None:
        if self.ttl_s is None:
            return
        stale = [k for k, e in self._data.items() if self._expired(e)]
        for key in stale:
            self._drop(key)
            self._expirations += 1

    def _evict_over_budget(self) -> None:
        while len(self._data) > self.maxsize or (
            self.max_bytes is not None
            and self._total_bytes > self.max_bytes
            and self._data
        ):
            key = next(iter(self._data))
            self._drop(key)
            self._evictions += 1

    # -- public API ------------------------------------------------------
    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency; counts a hit/miss.

        An entry past its TTL is dropped and reported as a miss.
        """
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._misses += 1
                return default
            if self._expired(entry):
                self._drop(key)
                self._expirations += 1
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return entry.value

    def put(self, key, value, nbytes=None) -> None:
        """Insert ``value``; evicts LRU entries over either budget.

        ``nbytes`` overrides the approximate size estimate (callers that
        already know a value's footprint skip the recursive walk); the
        walk is skipped entirely when no byte budget is configured.  A
        value larger than the whole byte budget is refused outright --
        caching it would evict every warm entry and then itself.
        """
        if nbytes is not None:
            size = int(nbytes)
        elif self.max_bytes is not None:
            size = approx_nbytes(value)
        else:
            size = 0
        with self._lock:
            if key in self._data:
                self._drop(key)
            if self.max_bytes is not None and size > self.max_bytes:
                self._evictions += 1
                return
            self._data[key] = _Entry(value, size, self._clock())
            self._total_bytes += size
            self._purge_expired()
            self._evict_over_budget()

    def peek(self, key):
        """The live value under ``key`` or None, without counting a
        hit/miss or refreshing the entry's recency."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None or self._expired(entry):
                return None
            return entry.value

    def __contains__(self, key) -> bool:
        return self.peek(key) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._total_bytes = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._data),
                maxsize=self.maxsize,
                total_bytes=self._total_bytes,
                max_bytes=self.max_bytes,
                ttl_s=self.ttl_s,
            )
