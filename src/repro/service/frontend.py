"""The protocol front-end of the optimizer service.

This module is the serving tier the paper's "declarative GD service"
story needs above :class:`~repro.service.core.OptimizerService`: parse a
request line, dispatch it to the optimizer core, and -- for the socket
server -- decide *whether to accept it at all*.  Three pieces:

* **Line parsing** (:func:`parse_request_line`, :func:`parse_wire_line`)
  -- the CLI's ``<dataset> key=value ...`` grammar, extended on the wire
  with JSON-object lines and wire-only keys: ``verb`` (``optimize`` /
  ``train`` / ``enqueue`` -- park a durable job for the worker fleet --
  / ``metrics`` / ``trace`` / ``jobs``), ``tenant`` (quota accounting),
  ``deadline_s`` (per-request deadline) and ``trace_id`` (adopt a
  client-chosen trace id, or name the trace the ``trace`` verb reads).
* **Dispatch** (:class:`Dispatcher`) -- turns one parsed request into
  one structured response dict, catching request errors into
  ``{"ok": false, "error": ...}`` instead of letting them kill a serve
  loop.  The stdin loop (``repro serve``) and the socket server share
  this path, so a malformed line behaves identically on both.
* **Admission control** (:class:`SocketFrontend`) -- the TCP server on
  :mod:`repro.service.lineserver`'s loop, which answers what needs no
  I/O, no GD and no wait itself and hands the rest to a worker pool;
  with load-shedding above ``shed_after`` admitted requests, per-tenant
  max-inflight quotas, and per-request deadlines that map into
  :class:`~repro.runtime.JobBudget` ``max_seconds``, so a deadline
  preempts running work gracefully, checkpoint included.

Rejections are cheap and structured (``overloaded`` /
``quota_exceeded`` / ``deadline_exceeded``), which is the point of
admission control: under overload the server sheds load in O(1) instead
of queueing unboundedly and timing everyone out.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError
from repro.obs import TraceRecorder, emit_span, render_tree
from repro.obs.recorder import valid_trace_id
from repro.service.lineserver import LineServer

#: Request-line keys coerced to int / float; the rest stay strings.
_INT_KEYS = {"max_iter", "batch", "fixed_iterations", "seed",
             "checkpoint_every", "lease_iterations"}
_FLOAT_KEYS = {"epsilon", "time_budget", "step", "l2", "lease_seconds"}
_STR_KEYS = {"task", "algorithm", "convergence", "job_id"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

#: Wire-only keys: protocol envelope, never part of the optimizer
#: request (they must not reach ML4all.optimize/train kwargs).
_WIRE_KEYS = {"verb", "tenant", "deadline_s", "id", "trace_id"}
_VERBS = {"optimize", "train", "enqueue", "metrics", "trace", "jobs"}

#: Verbs that carry no optimizer request: ``metrics``/``jobs`` report
#: server/fleet state, ``trace`` looks a recorded trace up.
_NO_REQUEST_VERBS = {"metrics", "trace", "jobs"}

#: Tenant used when a request does not name one.
DEFAULT_TENANT = "default"

_NO_CHECKPOINT_STORE = ("this server has no checkpoint store "
                        "(start it with --checkpoint)")


def _failure(error, detail, wire=None) -> dict:
    """A structured failure reply, echoing the request's ``id``."""
    response = {"ok": False, "error": error, "detail": detail}
    if wire is not None and wire.id is not None:
        response["id"] = wire.id
    return response


def _coerce(key, value):
    """Coerce one request value to its declared type (int/float/str)."""
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        return str(value)
    except (TypeError, ValueError):
        raise ReproError(f"invalid value for {key}: {value!r}") from None


def parse_request_line(line) -> dict:
    """Parse one ``<dataset> key=value ...`` request line."""
    tokens = line.split()
    if not tokens or "=" in tokens[0]:
        raise ReproError(
            f"request line must start with a dataset reference: {line!r}"
        )
    request = {"dataset": tokens[0]}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ReproError(f"expected key=value, got {token!r}")
        if key not in _ALL_KEYS:
            raise ReproError(
                f"unknown request key {key!r}; expected one of "
                f"{sorted(_ALL_KEYS)}"
            )
        request[key] = _coerce(key, value)
    return request


def train_lines(request, result) -> list:
    """What a train request prints: its summary, then one line per
    mid-flight plan switch."""
    switches = result.trace.switches if result.trace is not None else ()
    return [f"{request['dataset']}: {result.summary()}"] + [
        f"  switched {s.from_plan} -> {s.to_plan} at iteration "
        f"{s.iteration}: {s.reason}" for s in switches]


def iter_request_lines(handle):
    """Yield parsed request dicts from a line stream, skipping comments."""
    for line in handle:
        line = line.split("#", 1)[0].strip()
        if line:
            yield parse_request_line(line)


@dataclasses.dataclass(frozen=True)
class WireRequest:
    """One parsed protocol line: envelope plus optimizer request."""

    #: ``optimize`` / ``train`` / ``enqueue`` / ``metrics`` / ``trace``
    #: / ``jobs``; None means "server default" (train mode, or a line
    #: naming a job_id, trains).
    verb: str | None
    #: The optimizer request dict (None for ``metrics``).
    request: dict | None
    #: Tenant the per-tenant inflight quota accounts this request to.
    tenant: str = DEFAULT_TENANT
    #: Relative deadline in seconds; maps into JobBudget.max_seconds.
    deadline_s: float | None = None
    #: Opaque client correlation id, echoed on the response.
    id: object = None
    #: Client-supplied trace id (adopted for the request's trace); for
    #: the ``trace`` verb, the trace to look up.
    trace_id: str | None = None


def _split_envelope(pairs) -> tuple:
    """Split ``(key, value)`` pairs into (envelope dict, request dict)."""
    wire, request = {}, {}
    for key, value in pairs:
        if key in _WIRE_KEYS:
            wire[key] = value
        elif key == "dataset":
            request[key] = str(value)
        elif key in _ALL_KEYS:
            request[key] = _coerce(key, value)
        else:
            raise ReproError(
                f"unknown request key {key!r}; expected one of "
                f"{sorted(_ALL_KEYS | _WIRE_KEYS | {'dataset'})}"
            )
    verb = wire.get("verb")
    if verb is not None:
        verb = str(verb)
        if verb not in _VERBS:
            raise ReproError(
                f"unknown verb {verb!r}; expected one of {sorted(_VERBS)}"
            )
    deadline = wire.get("deadline_s")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ReproError(
                f"invalid value for deadline_s: {deadline!r}"
            ) from None
        if deadline <= 0:
            raise ReproError("deadline_s must be positive")
    tenant = str(wire.get("tenant", DEFAULT_TENANT))
    trace_id = wire.get("trace_id")
    if trace_id is not None:
        trace_id = str(trace_id)
        if not valid_trace_id(trace_id):
            raise ReproError(
                f"invalid trace_id {trace_id!r}: expected 1-64 chars of "
                "[A-Za-z0-9._:-] starting with a letter or digit"
            )
    return verb, request, tenant, deadline, wire.get("id"), trace_id


def parse_wire_line(line) -> WireRequest:
    """Parse one protocol line into a :class:`WireRequest`.

    Two syntaxes, one grammar:

    * a JSON object per line -- ``{"dataset": "adult", "epsilon": 0.01,
      "verb": "train", "tenant": "t1", "deadline_s": 2.5}``;
    * the CLI request-line syntax, optionally carrying the wire keys as
      ``key=value`` tokens -- ``adult epsilon=0.01 deadline_s=2.5`` --
      plus the bare verb line ``metrics`` and the two-token lookup
      ``trace <id>``.
    """
    text = line.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # malformed / too deep
            raise ReproError(f"invalid JSON request: {exc}") from None
        if not isinstance(payload, dict):
            raise ReproError(
                f"JSON request must be an object, got {type(payload).__name__}"
            )
        verb, request, tenant, deadline, rid, trace_id = _split_envelope(
            payload.items()
        )
    else:
        text = text.split("#", 1)[0].strip()
        tokens = text.split()
        if (len(tokens) == 1 and tokens[0] in _VERBS
                or len(tokens) == 2 and tokens[0] == "trace"):
            verb, request, tenant, deadline, rid, trace_id = \
                _split_envelope(zip(("verb", "trace_id"), tokens))
        else:
            pairs, rest = [], []
            for token in tokens[1:]:
                key, sep, value = token.partition("=")
                if sep and key in _WIRE_KEYS:
                    pairs.append((key, value))
                else:
                    rest.append(token)
            request = parse_request_line(" ".join(tokens[:1] + rest))
            verb, _, tenant, deadline, rid, trace_id = _split_envelope(pairs)
    if verb == "trace" and trace_id is None:
        raise ReproError("the 'trace' verb needs a trace_id")
    if verb not in _NO_REQUEST_VERBS and "dataset" not in request:
        raise ReproError(
            "request line must name a dataset (or use the 'metrics' verb)"
        )
    return WireRequest(
        verb=verb,
        request=request if verb not in _NO_REQUEST_VERBS else None,
        tenant=tenant,
        deadline_s=deadline,
        id=rid,
        trace_id=trace_id,
    )


class Dispatcher:
    """Turn parsed requests into structured responses over one ML4all.

    This is the protocol-independent half of the front-end: the stdin
    serve loop and :class:`SocketFrontend` both feed lines through it,
    so a malformed request produces the identical structured error on
    both -- and neither loop dies.

    Response dicts always carry ``ok``; successful ones add ``verb``,
    ``summary`` and the human-readable ``lines`` the stdin loop prints,
    failed ones ``error`` (a stable kind: ``bad_request``,
    ``request_failed``, ``internal``, or the front-end's admission kinds)
    plus a ``detail`` message.

    The dispatcher is also where traces begin: every optimize/train
    request runs under a root ``request`` span (the client's
    ``trace_id`` adopted when supplied, a fresh one minted otherwise)
    whose id is echoed on the response, and the ``trace`` verb reads a
    recorded trace back out of the shared :class:`TraceRecorder`.
    """

    def __init__(self, system, train=False, adaptive=False, tracer=None):
        self.system = system
        self.adaptive = adaptive
        self.train_mode = train or adaptive
        self.metrics = system.service().metrics
        self.tracer = (
            tracer if tracer is not None
            else TraceRecorder(metrics=self.metrics)
        )

    # ------------------------------------------------------------------
    def handle_line(self, line) -> dict:
        """Parse and dispatch one protocol line; never raises for
        request-level failures."""
        try:
            wire = parse_wire_line(line)
        except ReproError as exc:
            self.metrics.inc("frontend.bad_requests")
            return _failure("bad_request", str(exc))
        return self.handle(wire)

    def _trains(self, wire) -> bool:
        return wire.verb == "train" or (
            wire.verb is None
            and (self.train_mode or "job_id" in wire.request)
        )

    def resolve(self, wire):
        """Fingerprint and look up an optimize request without loading
        data, touching a store or running GD, so a front-end can tell
        work that needs none of them (``.inline``) from the rest before
        it picks a thread; pass the result to :meth:`handle`.  None for
        any other verb, for a dataset not loaded yet and for a request
        that does not resolve (:meth:`handle` reports what is wrong)."""
        if wire.verb not in (None, "optimize") or self._trains(wire):
            return None
        try:
            return self.system.resolve(wire.request)
        except Exception:  # noqa: BLE001 - handle() reports it
            return None

    def handle(self, wire, remaining_s=None, queue_wait_s=None,
               resolved=None) -> dict:
        """Dispatch one :class:`WireRequest` (already admitted).

        ``remaining_s`` is the deadline budget left *after* queueing;
        it defaults to the request's full ``deadline_s``.
        ``queue_wait_s`` (when the caller measured one) becomes the
        request trace's ``admission`` span.  ``resolved`` is what
        :meth:`resolve` returned for this request, if it was asked; None
        (nothing done) when :meth:`OptimizerService.claim` finds that an
        ``inline`` miss would wait or run GD after all.
        """
        if (resolved is not None and resolved.inline and not resolved.hit
                and not self.system.service().claim(resolved, wait=False)):
            return None
        self.metrics.inc("frontend.requests")
        if wire.verb == "metrics":
            snapshot = self.metrics.snapshot()
            return self._respond(wire, {
                "verb": "metrics",
                "metrics": snapshot,
                "prometheus": self.metrics.render_prometheus(),
                "lines": self.metrics.summary_lines(),
            })
        if wire.verb == "trace":
            return self._trace_body(wire)
        if wire.verb == "jobs":
            return self._jobs_body(wire)
        request = dict(wire.request)
        verb = ("enqueue" if wire.verb == "enqueue"
                else "train" if self._trains(wire) else "optimize")
        with self.tracer.trace(
            "request",
            trace_id=wire.trace_id,
            verb=verb,
            dataset=request.get("dataset"),
            tenant=wire.tenant,
        ) as root:
            if queue_wait_s is not None:
                emit_span("admission", queue_wait_s)
            trace_id = getattr(root, "trace_id", None)
            if (trace_id is not None and verb != "optimize"
                    and "job_id" in request):
                # Stamp the request trace's id into the job request:
                # it rides into the checkpointed descriptor, so a fleet
                # worker running or resuming this job on another
                # machine joins the submitting request's trace.
                request.setdefault("trace_id", trace_id)
            if verb == "enqueue":
                response = self._enqueue(wire, request)
            else:
                response = self._execute(wire, request, verb == "train",
                                         remaining_s, resolved)
            root.set("ok", bool(response.get("ok")))
            if not response.get("ok"):
                root.set("error", response.get("error"))
        if trace_id is not None:
            response.setdefault("trace_id", trace_id)
        return response

    def _execute(self, wire, request, trains, remaining_s, resolved) -> dict:
        """Run one optimize/train request inside its root span."""
        if remaining_s is None:
            remaining_s = wire.deadline_s
        if remaining_s is not None and trains:
            # The deadline bounds *execution*, not just queueing: it
            # tightens the request's lease budget, so the run stops
            # gracefully (checkpointing, for durable jobs) instead of
            # being cut off.
            current = request.get("lease_seconds")
            request["lease_seconds"] = (
                remaining_s if current is None
                else min(current, remaining_s)
            )
        try:
            if trains:
                (result,) = self.system.train_many(
                    [request], max_workers=1, adaptive=self.adaptive,
                )
                body = self._train_body(request, result)
            else:
                if resolved is not None:
                    result = self.system.service().answer(resolved)
                else:
                    (result,) = self.system.optimize_many(
                        [request], max_workers=1,
                    )
                body = self._optimize_body(request, result)
        except ReproError as exc:
            self.metrics.inc("frontend.request_failed")
            return _failure("request_failed", str(exc), wire)
        except Exception as exc:  # noqa: BLE001 - serve loops must live
            self.metrics.inc("frontend.internal_errors")
            return _failure("internal", f"{type(exc).__name__}: {exc}", wire)
        self.metrics.inc("frontend.served")
        return self._respond(wire, body)

    def _trace_body(self, wire) -> dict:
        """Answer one ``trace <id>`` lookup from the recorder."""
        spans = self.tracer.spans(wire.trace_id)
        if spans is None:
            return _failure(
                "not_found", f"no recorded trace {wire.trace_id!r}", wire
            )
        return self._respond(wire, {
            "verb": "trace",
            "trace_id": wire.trace_id,
            "spans": spans,
            "lines": render_tree(spans),
        })

    def _jobs_body(self, wire) -> dict:
        """Fleet status: per-job progress/ETA and worker heartbeats,
        derived from the shared checkpoint store (see
        :func:`repro.service.worker.job_progress_records`)."""
        from repro.service.worker import job_progress_records

        checkpoints = self.system.service().checkpoints
        if checkpoints is None:
            return _failure("bad_request", _NO_CHECKPOINT_STORE, wire)
        jobs, workers = job_progress_records(
            checkpoints.backend.load(), now=time.time()
        )
        lines = []
        for job in jobs:
            line = (f"{job['job_id']}: {job['status']} at iteration "
                    f"{job['done_iterations']}")
            if job["remaining_iterations"]:
                line += (f", ~{job['remaining_iterations']} to go "
                         f"(eta {job['eta_sim_seconds']:.2f}s simulated)")
            lines.append(line)
        for worker in workers:
            lines.append(
                f"worker {worker.get('worker')}: {worker.get('status')}, "
                f"{worker.get('jobs_done', 0)} job(s) done"
            )
        return self._respond(wire, {
            "verb": "jobs",
            "jobs": jobs,
            "workers": workers,
            "lines": lines,
        })

    def _enqueue(self, wire, request) -> dict:
        """Park a durable job in the shared checkpoint store without
        executing it -- fleet workers pointed at the store claim it
        (and, through the descriptor's ``trace_id``, join this
        request's trace)."""
        from repro.service.checkpoint import CheckpointError

        job_id = request.get("job_id")
        if not job_id:
            self.metrics.inc("frontend.bad_requests")
            return _failure(
                "bad_request", "the 'enqueue' verb needs a job_id", wire
            )
        checkpoints = self.system.service().checkpoints
        if checkpoints is None:
            return _failure("bad_request", _NO_CHECKPOINT_STORE, wire)
        try:
            checkpoint = checkpoints.submit(job_id, request)
        except CheckpointError as exc:
            self.metrics.inc("frontend.request_failed")
            return _failure("request_failed", str(exc), wire)
        self.metrics.inc("frontend.enqueued")
        return self._respond(wire, {
            "verb": "enqueue",
            "job_id": job_id,
            "status": checkpoint.status,
            "lines": [f"{job_id}: {checkpoint.status}"],
        })

    # ------------------------------------------------------------------
    @staticmethod
    def _respond(wire, body) -> dict:
        response = {"ok": True}
        if wire.id is not None:
            response["id"] = wire.id
        response.update(body)
        return response

    @staticmethod
    def _optimize_body(request, result) -> dict:
        summary = result.summary()
        return {
            "verb": "optimize",
            "dataset": request["dataset"],
            "summary": summary,
            "lines": [f"{request['dataset']}: {summary}"],
            "plan": str(result.chosen_plan),
            "cache_hit": result.cache_hit,
            "coalesced": result.coalesced,
            "recalibrated": result.recalibrated,
            "wall_s": result.wall_s,
        }

    @staticmethod
    def _train_body(request, result) -> dict:
        body = {
            "verb": "train",
            "dataset": request["dataset"],
            "summary": result.summary(),
            "lines": train_lines(request, result),
            "plan": str(result.report.chosen_plan),
            "cache_hit": result.optimization.cache_hit,
            "coalesced": result.optimization.coalesced,
            "recalibrated": result.optimization.recalibrated,
            "iterations": int(result.result.iterations),
            "converged": bool(result.result.converged),
            "preempted": bool(result.preempted),
            "switches": (
                len(result.trace.switches) if result.trace is not None else 0
            ),
        }
        if result.job is not None:
            body["job"] = {
                "job_id": result.job.job_id,
                "status": result.job.status,
                "resumed": result.job.resumed,
                "preempted": result.job.preempted,
                "done_iterations": int(result.job.done_iterations),
                "already_done": result.job.already_done,
            }
        return body


class SocketFrontend(LineServer):
    """Concurrent TCP front-end with admission control.

    One line in, one JSON object out (pipelined responses carry the
    request's ``id`` for correlation; they may complete out of order).
    The :class:`~repro.service.lineserver.LineServer` loop thread parses
    lines, runs admission, and answers inline what needs no I/O, no GD
    and no wait -- ``metrics``, ``trace``, a current hit and, without a
    persistent plan store, a miss nobody else computes that is a
    ``fixed_iterations`` pricing, a re-cost or a re-cold (every trial
    memoised; :meth:`Dispatcher.resolve` decides).  Everything else (a
    first touch, a store's miss, a coalesced wait, ``train``,
    ``enqueue``, ``jobs``) runs on ``max_workers`` pool threads, which
    send their reply themselves, so a hit never queues behind a first
    touch.  A slow client's queued requests are dropped unexecuted; one
    that sends ``quit`` still gets every reply it is owed.

    Admission happens *at receipt*, before any optimizer work:

    * more than ``shed_after`` requests admitted (queued or running) ->
      ``{"ok": false, "error": "overloaded"}``;
    * ``max_inflight`` requests already inflight for the request's
      tenant -> ``"quota_exceeded"``;
    * deadline already spent by queueing when a worker picks the
      request up -> ``"deadline_exceeded"`` (a request that *starts*
      within its deadline instead gets the remainder as its
      execution budget -- see :meth:`Dispatcher.handle`).

    ``metrics``, ``trace`` and ``jobs`` bypass admission entirely:
    observability must keep answering precisely when the server is
    saturated.
    """

    def __init__(self, dispatcher, host="127.0.0.1", port=0,
                 max_workers=8, shed_after=64, max_inflight=None):
        super().__init__(host, port)
        self.dispatcher = dispatcher
        self.metrics = dispatcher.metrics
        self.shed_after = max(1, int(shed_after))
        #: Per-tenant inflight cap; None disables the quota.
        self.max_inflight = max_inflight
        #: A dispatcher that cannot resolve (a test stub) gets nothing
        #: but metrics/trace answered inline.
        self._resolve = getattr(dispatcher, "resolve", lambda wire: None)
        self._admitted = 0
        self._per_tenant = {}
        self._admission_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(max_workers)), thread_name_prefix="frontend"
        )

    def stop(self) -> None:
        """Stop serving; queued requests find their connection closed."""
        super().stop()
        self._pool.shutdown(wait=True)

    def _encode(self, response) -> bytes:
        # bench/tracing.py times this module's json.dumps as "encode".
        return json.dumps(response, default=str).encode() + b"\n"

    # ------------------------------------------------------------------
    def _handle_line(self, conn, line) -> None:
        """Parse and admit one request, then answer it here or hand it
        to the pool (runs on the loop thread -- must not block)."""
        if line in ("quit", "exit"):
            self._hang_up(conn)
            return
        try:
            wire = parse_wire_line(line)
        except ReproError as exc:
            self.metrics.inc("frontend.bad_requests")
            self._send(conn, _failure("bad_request", str(exc)))
            return
        if wire.verb in _NO_REQUEST_VERBS:
            # Observability (metrics/trace/jobs) bypasses admission: it
            # must answer while the server sheds everything else.
            # ``jobs`` reads the checkpoint store, so not on this thread.
            (self._submit if wire.verb == "jobs" else self._serve)(conn, wire)
            return

        with self._admission_lock:
            inflight = self._per_tenant.get(wire.tenant, 0)
            if self._admitted >= self.shed_after:
                self.metrics.inc("frontend.shed")
                rejection = _failure(
                    "overloaded",
                    f"{self._admitted} requests already admitted "
                    f"(shed_after={self.shed_after}); retry later",
                    wire,
                )
            elif (self.max_inflight is not None
                  and inflight >= self.max_inflight):
                self.metrics.inc("frontend.quota_rejected")
                rejection = _failure(
                    "quota_exceeded",
                    f"tenant {wire.tenant!r} already has {inflight} "
                    f"requests inflight (max_inflight={self.max_inflight})",
                    wire,
                )
            else:
                rejection = None
                self._admitted += 1
                self._per_tenant[wire.tenant] = inflight + 1
                self.metrics.gauge("frontend.queue_depth", self._admitted)
        if rejection is not None:
            self._send(conn, rejection)
            return

        admitted_at = time.monotonic()
        resolved = self._resolve(wire)
        if resolved is not None and resolved.inline:
            self._serve(conn, wire, admitted_at, resolved)
        else:
            self._submit(conn, wire, admitted_at, resolved)

    def _submit(self, conn, wire, admitted_at=None, resolved=None) -> None:
        """Hand one request to the pool; the connection stays open,
        even past EOF, until it has been served."""
        with conn.lock:
            conn.pending += 1
        self._pool.submit(self._serve, conn, wire, admitted_at, resolved,
                          pooled=True)

    def _serve(self, conn, wire, admitted_at=None, resolved=None,
               pooled=False) -> None:
        """Answer one request and send the reply -- on the loop thread
        for an inline answer, on a pool worker (``pooled``) otherwise.
        A request that passed admission carries ``admitted_at`` and
        gives its slot back here."""
        try:
            if conn.closed:
                return  # reset, or too slow: nobody is left to answer
            admitted, remaining = {}, None
            if admitted_at is not None:
                waited = time.monotonic() - admitted_at
                if wire.deadline_s is not None:
                    remaining = wire.deadline_s - waited
                admitted = {"remaining_s": remaining, "queue_wait_s": waited}
                if resolved is not None:
                    admitted["resolved"] = resolved
            if remaining is not None and remaining <= 0:
                self.metrics.inc("frontend.deadline_rejected")
                response = _failure(
                    "deadline_exceeded",
                    f"deadline of {wire.deadline_s:g}s expired while queued",
                    wire,
                )
            else:
                response = self.dispatcher.handle(wire, **admitted)
                if response is None:  # it would wait or run GD after all
                    self._submit(conn, wire, admitted_at, resolved)
                    admitted_at = None  # the worker gives the slot back
                    return
            self._send(conn, response)
        except Exception as exc:  # noqa: BLE001 - the client gets a reply
            self.metrics.inc("frontend.internal_errors")
            self._send(conn, _failure(
                "internal", f"{type(exc).__name__}: {exc}", wire
            ))
        finally:
            if admitted_at is not None:
                with self._admission_lock:
                    self._admitted -= 1
                    count = self._per_tenant.get(wire.tenant, 1) - 1
                    if count <= 0:
                        self._per_tenant.pop(wire.tenant, None)
                    else:
                        self._per_tenant[wire.tenant] = count
                    self.metrics.gauge("frontend.queue_depth", self._admitted)
            if pooled:
                with conn.lock:
                    conn.pending -= 1
                if conn.hangup:
                    self._flag(conn)  # maybe the last thing it waited for
