"""Arithmetic the benchmark's numbers rest on, kept free of I/O so the
self-test can check every function on hand-built inputs.

* percentiles and the "at least ten samples beyond" rule for tails;
* quartile spread (the driver's steadiness measure);
* span self time (duration minus the union of child intervals) and the
  overlap-scaled attribution that makes concurrent children sum to
  their parent's wall time;
* open-loop latency from *due* time and generator lag.
"""

from __future__ import annotations

import statistics

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(n, q) -> float:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return n * (1.0 - q / 100.0)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness measure the driver applies to ten runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _children(spans) -> dict:
    kids = {}
    for span in spans:
        kids.setdefault(span["parent"], []).append(span)
    return kids


def self_times(spans) -> dict:
    """``{span id: self time}``: each span's duration minus the part of
    its interval its children cover.  Children are clipped to the
    parent's interval and may overlap one another (pool threads)."""
    kids = _children(spans)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, kid["start"]), min(end, kid["end"]))
            for kid in kids.get(span["id"], ())
            if kid["end"] > start and kid["start"] < end
        ]
        out[span["id"]] = max(0.0, (end - start) - union_length(clipped))
    return out


def attributed_times(spans) -> dict:
    """Self times rescaled so every tree sums to its root's duration.

    Children that ran concurrently (speculation trials on pool threads)
    have durations summing to more than the wall time they blocked their
    parent for.  Each sibling group is scaled by ``union / sum`` of its
    intervals, and the factor carries down the subtree, so the shares of
    one request add up to the request instead of to the thread count.
    """
    kids = _children(spans)
    own = self_times(spans)
    known = {span["id"] for span in spans}
    out = {}

    def walk(span, factor):
        out[span["id"]] = own[span["id"]] * factor
        group = kids.get(span["id"], ())
        if not group:
            return
        total = sum(kid["end"] - kid["start"] for kid in group)
        covered = union_length(
            [(kid["start"], kid["end"]) for kid in group]
        )
        scale = factor * (covered / total if total > 0 else 1.0)
        for kid in group:
            walk(kid, scale)

    for span in spans:
        if span["parent"] is None or span["parent"] not in known:
            walk(span, 1.0)
    return out


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
def latencies_from_due(due, done) -> list:
    """Per-request latency measured from when the request was *due*, so
    a stall charges the requests queued behind it."""
    return [finish - scheduled for scheduled, finish in zip(due, done)]


def generator_lag(due, sent) -> list:
    """How late the generator put each request on the wire."""
    return [max(0.0, actual - scheduled)
            for scheduled, actual in zip(due, sent)]


def backlog_growing(latencies_in_due_order, tail_q=95, factor=2.0) -> bool:
    """True when the last quarter's tail exceeds ``factor`` times the
    first quarter's: latency that climbs through a phase is a queue that
    is not draining."""
    quarter = len(latencies_in_due_order) // 4
    if quarter < 1:
        return False
    first = percentile(latencies_in_due_order[:quarter], tail_q)
    last = percentile(latencies_in_due_order[-quarter:], tail_q)
    return last > factor * first
