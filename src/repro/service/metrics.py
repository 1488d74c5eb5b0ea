"""A small counter/gauge/histogram registry threaded through the service.

One :class:`MetricsRegistry` is shared by the optimizer core
(:mod:`repro.service.core`: hits, misses, recosts, coalesced requests),
the job layer (:mod:`repro.service.jobs`: leases started / resumed /
preempted / completed) and the front-end (:mod:`repro.service.frontend`:
served, shed, quota rejections, queue depth), so one ``metrics`` request
against a running server answers for every layer at once.

Three instrument kinds, all thread-safe behind one lock:

* **counters** -- monotonically increasing ints (:meth:`inc`);
* **gauges** -- last-written values (:meth:`gauge`), for levels like the
  admission queue depth;
* **histograms** -- cumulative-bucket duration counters
  (:meth:`histogram`), fed by the trace recorder with one series per
  span name (request latency is ``span.request``); they never forget,
  so rates and totals are exact over the process lifetime.

The registry is deliberately dependency-free and samples nothing by
itself; :meth:`snapshot` returns plain JSON-ready dicts, which is what
the ``metrics`` verb of the line protocol serves, and
:meth:`render_prometheus` renders every instrument in the Prometheus
text exposition format for scrape-style consumers.
"""

from __future__ import annotations

import bisect
import itertools
import re
import threading

#: Histogram bucket upper bounds in seconds (latency-shaped; the
#: trailing implicit bucket is +Inf).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name, prefix="repro") -> str:
    """Sanitise a dotted metric name into a Prometheus metric name."""
    flat = _PROM_NAME_RE.sub("_", name)
    if prefix and not flat.startswith(prefix + "_"):
        flat = f"{prefix}_{flat}"
    return flat


class MetricsRegistry:
    """Thread-safe named counters, gauges and duration histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- counters --------------------------------------------------------
    def inc(self, name, value=1) -> int:
        """Add ``value`` to counter ``name`` (created at 0); returns the
        new total."""
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
            return total

    def value(self, name) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges ----------------------------------------------------------
    def gauge(self, name, value) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name, default=None):
        with self._lock:
            return self._gauges.get(name, default)

    # -- histograms ------------------------------------------------------
    def histogram(self, name, value, buckets=DEFAULT_BUCKETS) -> None:
        """Record one observation into cumulative-bucket histogram
        ``name`` (buckets fixed at first observation).  It counts the
        observation in the first bucket that holds it (none for NaN);
        :meth:`histogram_stats` accumulates the counts."""
        value = float(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                bounds = tuple(sorted(float(b) for b in buckets))
                hist = self._histograms[name] = {
                    "buckets": bounds,
                    "counts": [0] * (len(bounds) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            bounds = hist["buckets"]
            index = (bisect.bisect_left(bounds, value) if value == value
                     else len(bounds))
            hist["counts"][index] += 1
            hist["sum"] += value
            hist["count"] += 1

    def histogram_stats(self, name) -> dict | None:
        """count / sum / cumulative bucket counts of histogram ``name``
        (None when it has no observations)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                return None
            return {
                "count": hist["count"],
                "sum_s": hist["sum"],
                "buckets": {
                    f"{bound:g}": count
                    for bound, count in zip(
                        hist["buckets"], itertools.accumulate(hist["counts"]))
                },
            }

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Every instrument as one JSON-ready dict (sorted by name)."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            histogram_names = list(self._histograms)
        histograms = {}
        for name in sorted(histogram_names):
            stats = self.histogram_stats(name)
            if stats is not None:
                histograms[name] = stats
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def prometheus_lines(self, prefix="repro") -> list:
        """Every instrument in the Prometheus text exposition format.

        Counters render as ``<name>_total``, gauges as-is, histograms as
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
        """
        snapshot = self.snapshot()
        lines = []
        for name, value in snapshot["counters"].items():
            flat = _prom_name(name, prefix) + "_total"
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {value}")
        for name, value in snapshot["gauges"].items():
            flat = _prom_name(name, prefix)
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {value}")
        for name, stats in snapshot["histograms"].items():
            flat = _prom_name(name, prefix) + "_seconds"
            lines.append(f"# TYPE {flat} histogram")
            for bound, count in stats["buckets"].items():
                lines.append(f'{flat}_bucket{{le="{bound}"}} {count}')
            lines.append(f'{flat}_bucket{{le="+Inf"}} {stats["count"]}')
            lines.append(f"{flat}_sum {stats['sum_s']:g}")
            lines.append(f"{flat}_count {stats['count']}")
        return lines

    def render_prometheus(self, prefix="repro") -> str:
        """The full exposition as one text blob (trailing newline)."""
        return "\n".join(self.prometheus_lines(prefix)) + "\n"

    def summary_lines(self) -> list:
        """The snapshot rendered as ``name value`` text lines (what the
        CLI's line loop prints for a ``metrics`` request)."""
        snapshot = self.snapshot()
        lines = []
        for name, value in snapshot["counters"].items():
            lines.append(f"{name} {value}")
        for name, value in snapshot["gauges"].items():
            lines.append(f"{name} {value}")
        for name, stats in snapshot["histograms"].items():
            lines.append(
                f"{name} count={stats['count']} "
                f"mean={stats['sum_s'] / stats['count'] * 1e3:.1f}ms"
            )
        return lines
