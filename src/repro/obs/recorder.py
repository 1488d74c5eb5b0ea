"""The trace recorder: where finished spans go.

One :class:`TraceRecorder` per server.  ``record(span)`` is called by
:func:`repro.obs.spans.span` on every span exit and fans the span out
four ways, each optional:

* an in-memory ring of the most recent ``max_traces`` traces (what the
  ``trace <id>`` wire verb answers from);
* a JSON-lines file ``<trace_dir>/<trace_id>.jsonl`` when a trace
  directory is configured (what ``repro trace`` reads back);
* a ``span.<name>`` histogram in the shared
  :class:`~repro.service.metrics.MetricsRegistry`;
* the ``repro.trace`` DEBUG log, plus -- for root spans over the
  configured threshold -- a ``repro.slow`` WARNING record and a
  ``slow_requests.jsonl`` sidecar file (the slow-request log).

:func:`assemble_tree` / :func:`render_tree` turn a flat span list back
into the request's call tree for humans.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict

from repro.obs.context import TraceContext, new_trace_id
from repro.obs.logs import get_logger
from repro.obs.spans import _Scope

#: Traces kept in memory; the oldest falls off when a new one starts.
MAX_TRACES = 256

#: Spans kept per in-memory trace (a runaway loop must not eat the heap).
MAX_SPANS_PER_TRACE = 512

_TRACE_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._:-]{0,63}\Z")


def valid_trace_id(trace_id) -> bool:
    """True when ``trace_id`` is safe on the wire and as a file name."""
    return isinstance(trace_id, str) and bool(_TRACE_ID_RE.match(trace_id))


def _filename(trace_id) -> str:
    # ':' is legal on the wire but not in filenames everywhere.
    return trace_id.replace(":", "_") + ".jsonl"


class TraceRecorder:
    """Collects finished spans per trace; memory-first, disk-optional."""

    def __init__(self, trace_dir=None, metrics=None, max_traces=MAX_TRACES,
                 max_spans_per_trace=MAX_SPANS_PER_TRACE,
                 slow_threshold_s=None):
        self.trace_dir = trace_dir
        self.metrics = metrics
        self.max_traces = max(1, int(max_traces))
        self.max_spans_per_trace = max(1, int(max_spans_per_trace))
        #: Root spans at least this slow raise a slow-request record;
        #: None disables the slow log.
        self.slow_threshold_s = slow_threshold_s
        self._traces = OrderedDict()
        self._lock = threading.Lock()
        self._logger = get_logger("trace")
        self._slow_logger = get_logger("slow")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def trace(self, name, trace_id=None, **attributes):
        """Open a *root* span around a ``with`` block, minting (or
        adopting) the trace id.

        The entered span's ``trace_id`` is the id to hand back to the
        client; everything instrumented inside the block becomes part
        of the same tree.
        """
        resolved = trace_id if valid_trace_id(trace_id) else new_trace_id()
        return _Scope(name, attributes, TraceContext(resolved, None, self))

    # ------------------------------------------------------------------
    def record(self, span) -> None:
        """Accept one finished span (called from ``span()`` exit).  The
        ring keeps the :class:`~repro.obs.spans.Span` itself; a dict is
        built only where one leaves the recorder."""
        with self._lock:
            bucket = self._traces.get(span.trace_id)
            if bucket is None:
                bucket = self._traces[span.trace_id] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            else:
                self._traces.move_to_end(span.trace_id)
            if len(bucket) < self.max_spans_per_trace:
                bucket.append(span)
        if self.metrics is not None:
            self.metrics.histogram(f"span.{span.name}", span.duration_s)
        if self.trace_dir:
            self._append(_filename(span.trace_id), span.to_dict())
        if self._logger.isEnabledFor(10):  # DEBUG
            self._logger.debug(
                "span %s %.3fms", span.name, span.duration_s * 1e3,
                extra={"span": span.to_dict()},
            )
        if (
            span.parent_id is None
            and self.slow_threshold_s is not None
            and span.duration_s >= self.slow_threshold_s
        ):
            self._record_slow(span)

    def _record_slow(self, span) -> None:
        self._slow_logger.warning(
            "slow request: trace %s (%s) took %.3fs (threshold %.3fs)",
            span.trace_id, span.name, span.duration_s,
            self.slow_threshold_s,
            extra={"duration_s": span.duration_s},
        )
        if self.metrics is not None:
            self.metrics.inc("obs.slow_requests")
        if self.trace_dir:
            self._append("slow_requests.jsonl", span.to_dict())

    def _append(self, filename, payload) -> None:
        path = os.path.join(self.trace_dir, filename)
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, default=str) + "\n")
        except OSError:
            pass  # tracing must never take the serve path down

    # ------------------------------------------------------------------
    def spans(self, trace_id) -> list | None:
        """Every recorded span dict of ``trace_id`` (memory first, then
        the trace directory); None when the trace is unknown."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is not None:
                return [span.to_dict() for span in bucket]
        if self.trace_dir and valid_trace_id(trace_id):
            path = os.path.join(self.trace_dir, _filename(trace_id))
            if os.path.exists(path):
                return load_trace(path)
        return None


# ----------------------------------------------------------------------
def load_trace(path) -> list:
    """Read one JSON-lines trace file back into a span-dict list."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def assemble_tree(spans) -> list:
    """Nest a flat span list into root nodes with ``children`` lists.

    Children sort by start time; spans whose parent is missing (e.g. a
    trace truncated by the per-trace cap) surface as extra roots rather
    than disappearing.
    """
    nodes = {}
    for record in spans:
        node = dict(record)
        node["children"] = []
        nodes[node["span_id"]] = node
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def order(branch):
        branch.sort(key=lambda n: (n.get("start_s", 0.0), n["span_id"]))
        for child in branch:
            order(child["children"])
    order(roots)
    return roots


def _attr_text(attributes) -> str:
    parts = []
    for key, value in attributes.items():
        if isinstance(value, (list, tuple, dict)):
            parts.append(f"{key}=<{len(value)} items>")
        elif isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_tree(spans) -> list:
    """Pretty-print a span list as indented text lines."""
    lines = []

    def walk(node, depth):
        indent = "  " * depth
        label = f"{indent}{node['name']} {node['duration_s'] * 1e3:.2f}ms"
        if node.get("status") and node["status"] != "ok":
            label += f" [{node['status']}]"
        attrs = _attr_text(node.get("attributes") or {})
        if attrs:
            label += f" {attrs}"
        lines.append(label)
        for child in node["children"]:
            walk(child, depth + 1)

    for root in assemble_tree(spans):
        walk(root, 0)
    return lines
