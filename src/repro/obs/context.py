"""The ambient trace context: who is tracing, and under which span.

A :class:`TraceContext` is an immutable triple -- trace id, current span
id, and the :class:`~repro.obs.recorder.TraceRecorder` that owns the
trace -- carried in a :mod:`contextvars` variable.  Instrumentation
points (:func:`repro.obs.spans.span`) read it; when it is unset they do
nothing, which is what keeps tracing free for direct library callers.

Because the context rides a contextvar, it follows the call stack
naturally and crosses thread-pool boundaries only when copied
explicitly (``contextvars.copy_context().run(...)``) -- the
``optimize_many`` / ``train_many`` pools do exactly that, so each
request's spans land in its trace even though it runs on a worker
thread.
"""

from __future__ import annotations

import contextvars
import os
from typing import NamedTuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_context", default=None
)


class TraceContext(NamedTuple):
    """The ambient tracing state for the current logical request (a
    named tuple: every span builds one, and a frozen dataclass costs
    several times as much to construct)."""

    #: Correlates every span of one request (16 hex chars, or whatever
    #: the client supplied on the wire).
    trace_id: str
    #: Span id new child spans attach to; None at the trace root.
    span_id: str | None
    #: The recorder finished spans are written to.
    recorder: object


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (32 random bits)."""
    return os.urandom(4).hex()


def current_context() -> TraceContext | None:
    """The active :class:`TraceContext`, or None when not tracing."""
    return _CURRENT.get()


def current_trace_id() -> str | None:
    """The active trace id, or None when not tracing."""
    context = _CURRENT.get()
    return context.trace_id if context is not None else None


def current_span_id() -> str | None:
    """The active span id, or None outside any span."""
    context = _CURRENT.get()
    return context.span_id if context is not None else None


def activate(context) -> contextvars.Token:
    """Make ``context`` the ambient trace context; returns a reset token."""
    return _CURRENT.set(context)


def restore(token) -> None:
    """Undo a matching :func:`activate`."""
    _CURRENT.reset(token)
