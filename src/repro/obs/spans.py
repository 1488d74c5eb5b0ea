"""Spans: named, timed, attributed blocks of one traced request.

The one function instrumented code calls is :func:`span`::

    with span("plan_choice", dataset=name) as sp:
        ...
        sp.set("chosen", str(plan))

Outside an active trace it enters as a shared no-op span and records
nothing -- the cost is one small object and one contextvar read.
Inside a trace it opens a
child of the current span, re-points the ambient context at itself for
the duration of the block (so nested ``span()`` calls become children),
stamps an ``error`` status if the block raises, and hands the finished
span to the trace's recorder.

:func:`emit_span` covers the one case a ``with`` block cannot: a
duration measured *before* the trace context existed (the admission
queue wait -- the request only enters its trace once a worker picks it
up, but the wait itself belongs in the tree).
"""

from __future__ import annotations

import dataclasses
import time

from repro.obs.context import (
    TraceContext,
    activate,
    current_context,
    new_span_id,
    restore,
)


@dataclasses.dataclass(slots=True)
class Span:
    """One finished (or in-flight) unit of traced work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    #: Wall-clock start (``time.time()``), for cross-process ordering.
    start_s: float
    duration_s: float = 0.0
    status: str = "ok"
    attributes: dict = dataclasses.field(default_factory=dict)

    def set(self, key, value) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def to_dict(self) -> dict:
        """The span as a JSON-ready dict (the JSON-lines record shape)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": self.attributes,
        }


class _NullSpan:
    """The do-nothing span yielded outside any active trace."""

    __slots__ = ()

    def set(self, key, value) -> None:  # noqa: ARG002 - signature parity
        pass


NULL_SPAN = _NullSpan()


class _Scope:
    """What ``with span(...)`` enters: two plain method calls, where a
    generator-based context manager costs several times as much.
    ``root`` is the context of a trace to open, the span its root
    (:meth:`~repro.obs.recorder.TraceRecorder.trace`)."""

    __slots__ = ("name", "attributes", "root", "span", "recorder", "token",
                 "begun")

    def __init__(self, name, attributes, root=None):
        self.name = name
        self.attributes = attributes
        self.root = root

    def __enter__(self):
        context = current_context() if self.root is None else self.root
        if context is None or context.recorder is None:
            self.span = None
            return NULL_SPAN
        current = self.span = Span(
            self.name, context.trace_id, new_span_id(), context.span_id,
            time.time(), attributes=self.attributes,
        )
        self.recorder = context.recorder
        self.token = activate(TraceContext(
            context.trace_id, current.span_id, context.recorder))
        self.begun = time.perf_counter()
        return current

    def __exit__(self, kind, error, traceback):
        current = self.span
        if current is not None:
            current.duration_s = time.perf_counter() - self.begun
            if kind is not None:
                current.status = "error"
                current.attributes.setdefault(
                    "error", f"{kind.__name__}: {error}")
            restore(self.token)
            self.recorder.record(current)


def span(name, **attributes):
    """Open a child span of the current trace around a ``with`` block.

    No-op (yields :data:`NULL_SPAN`) when no trace context is active.
    Exceptions propagate, after stamping ``status="error"`` and an
    ``error`` attribute on the span.
    """
    return _Scope(name, attributes)


def emit_span(name, duration_s, **attributes) -> Span | None:
    """Record an already-measured child span (e.g. the admission queue
    wait, timed before the trace context existed).  Returns the span,
    or None when not tracing."""
    context = current_context()
    if context is None or context.recorder is None:
        return None
    now = time.time()
    duration_s = max(0.0, float(duration_s))
    finished = Span(
        name=name,
        trace_id=context.trace_id,
        span_id=new_span_id(),
        parent_id=context.span_id,
        start_s=now - duration_s,
        duration_s=duration_s,
        attributes=attributes,
    )
    context.recorder.record(finished)
    return finished
