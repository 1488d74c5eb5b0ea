"""Layer spans recorded from outside ``src/``.

Timing wrappers are installed around each layer's public callables from
the table below; no file under ``src/`` changes.  Each call records one
span (name, start, end, thread, parent) in memory; the parent is carried
in a contextvar, so it follows work onto the speculation pool threads
(which run under ``copy_context()``) and starts fresh on the front-end's
pool threads (which do not).

A row names the attribute *where it is looked up at call time*: a
function another module imported by name (``from x import f``) must be
wrapped in the importing module, or the wrapper is never called.  A row
that no longer resolves, or that sees no call on a workload where it
must, fails the run by name -- a rename is loud, not a silent zero.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import threading
import time
import types

_current_span = contextvars.ContextVar("bench_span", default=None)

COLD = frozenset({"cold_core", "cold_extended"})
EVERY = COLD | {"warm_hits", "mixed_open", "train_durable"}
STORED = frozenset({"train_durable", "mixed_open"})
JOBS = frozenset({"train_durable"})


class WrapperTargetError(RuntimeError):
    """A wrapper-table row does not resolve or was never called."""


def _estimate_attrs(args, kwargs, result):
    estimator = args[0]
    algorithm = args[4] if len(args) > 4 else kwargs.get("algorithm")
    attrs = {"algorithm": algorithm}
    if result is not None:
        attrs["spec_iters"] = int(result.speculation_iterations)
        attrs["budget_stop"] = bool(
            result.speculation_wall_s >= estimator.settings.time_budget_s
        )
    return attrs


def _run_attrs(args, kwargs, result):
    return {"algorithm": args[0] if args else kwargs.get("name"),
            "iterations": int(result.iterations) if result is not None
            else 0}


#: (layer, target, span name, workloads that must call it, extractor).
#: Target ``module:attr[.attr]`` is wrapped in place; ``module:json!fn``
#: wraps one function of the ``json`` module *as that module sees it*.
TABLE = (
    ("service.frontend", "repro.service.frontend:parse_wire_line",
     "frontend.parse", EVERY, None),
    ("service.frontend", "repro.service.frontend:Dispatcher.handle",
     "frontend.handle", EVERY, None),
    ("service.frontend", "repro.service.frontend:json!dumps",
     "frontend.encode", EVERY,
     lambda a, k, r: {"bytes": len(r) if r is not None else 0}),
    ("service.fingerprint", "repro.service.core:OptimizerService.fingerprint",
     "fingerprint", EVERY, None),
    ("cluster.storage",
     "repro.cluster.storage:PartitionedDataset.content_digest",
     "fingerprint.content_digest", EVERY, None),
    ("service.cache", "repro.service.cache:PlanCache.get", "cache.get",
     EVERY, lambda a, k, r: {"hit": r is not None}),
    ("service.cache", "repro.service.cache:PlanCache.put", "cache.put",
     COLD | STORED, None),
    ("runtime.calibration",
     "repro.runtime.calibration:CalibrationStore.state_digest",
     "calibration.digest", EVERY, None),
    ("core.iterations",
     "repro.core.iterations:SpeculativeEstimator.estimate_all",
     "iterations.estimate_all", COLD | STORED, None),
    ("core.iterations",
     "repro.core.iterations:SpeculativeEstimator.estimate",
     "iterations.estimate", COLD | STORED, _estimate_attrs),
    ("core.iterations",
     "repro.core.iterations:SpeculativeEstimator.take_sample",
     "iterations.take_sample", COLD | STORED, None),
    ("gd", "repro.gd.registry:run", "gd.run", COLD | STORED, _run_attrs),
    ("core.curve_fit", "repro.core.iterations:fit_error_sequence",
     "curve_fit.fit", COLD | STORED, None),
    ("core.plan_space", "repro.core.optimizer:enumerate_plans",
     "plan_space.enumerate", COLD | STORED,
     lambda a, k, r: {"plans": len(r) if r is not None else 0}),
    ("core.cost_model", "repro.core.cost_model:CostModel.estimate_batch",
     "cost_model.estimate_batch", COLD | STORED,
     lambda a, k, r: {"plans": len(a[1])}),
    ("core.optimizer", "repro.core.optimizer:GDOptimizer.optimize",
     "optimizer.optimize", COLD | STORED, None),
    ("service.serialize", "repro.service.core:entry_to_dict",
     "serialize.entry_to_dict", frozenset({"mixed_open"}), None),
    ("service.serialize", "repro.service.core:entry_from_dict",
     "serialize.entry_from_dict", frozenset({"mixed_open"}), None),
    ("service.serialize", "repro.service.jobs:entry_to_dict",
     "serialize.entry_to_dict", JOBS, None),
    ("service.serialize", "repro.service.jobs:entry_from_dict",
     "serialize.entry_from_dict", JOBS, None),
    ("service.backends", "repro.service.backends:SqliteBackend.store",
     "backends.sqlite.store", STORED, None),
    ("service.backends", "repro.service.backends:SqliteBackend.get",
     "backends.sqlite.get", frozenset({"mixed_open"}), None),
    ("service.backends", "repro.service.backends:SqliteBackend.update",
     "backends.sqlite.update", JOBS, None),
    ("service.backends", "repro.service.backends:json!dumps",
     "backends.json_dumps", STORED,
     lambda a, k, r: {"bytes": len(r) if r is not None else 0}),
    ("service.backends", "repro.service.backends:json!loads",
     "backends.json_loads", STORED, None),
    ("core.executor", "repro.core.executor:PlanExecutor.run",
     "executor.run", JOBS,
     lambda a, k, r: {"iterations": int(r.iterations) if r is not None
                      else 0}),
    ("service.jobs", "repro.service.jobs:TrainingJobs.train",
     "jobs.train", JOBS, None),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.save",
     "checkpoint.save", JOBS, None),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.acquire",
     "checkpoint.load", JOBS,
     lambda a, k, r: {"resumed": r is not None}),
)


class _JsonShim(types.SimpleNamespace):
    """A module's private stand-in for ``json`` with wrapped functions;
    the real module (and this process's own client) stay untouched."""


class Recorder:
    """In-memory span sink (list.append is atomic under the GIL)."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def clear(self) -> None:
        self.spans = []
        self.calls = {}


def _wrap(function, name, target, recorder, extract):
    def wrapper(*args, **kwargs):
        span_id = recorder.next_id()
        parent = _current_span.get()
        token = _current_span.set(span_id)
        result = None
        error = None
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            _current_span.reset(token)
            span = {"id": span_id, "name": name, "start": start,
                    "end": end, "thread": threading.get_ident(),
                    "parent": parent}
            if error is not None:
                span["error"] = error
            if extract is not None:
                span.update(extract(args, kwargs, result))
            recorder.spans.append(span)
            recorder.calls[target] = recorder.calls.get(target, 0) + 1

    wrapper.__wrapped__ = function
    return wrapper


def wrapper_cost_s(calls=20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""
    def noop():
        return None

    wrapped = _wrap(noop, "noop", "noop", Recorder(), None)
    timings = []
    for function in (wrapped, noop):
        started = time.perf_counter()
        for _ in range(calls):
            function()
        timings.append(time.perf_counter() - started)
    return max(0.0, timings[0] - timings[1]) / calls


def resolve(target):
    """``(owner, attribute, original callable)`` of one table target."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise WrapperTargetError(
            f"wrapper target {target!r}: cannot import {module_name} "
            f"({exc})"
        ) from None
    if "!" in path:
        holder, function = path.split("!")
        current = getattr(owner, holder, None)
        if current is not json and not isinstance(current, _JsonShim):
            raise WrapperTargetError(
                f"wrapper target {target!r}: {module_name}.{holder} is not "
                "the json module any more"
            )
        return owner, holder, getattr(json, function)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    original = getattr(owner, attribute, None) if owner is not None else None
    if not callable(original):
        raise WrapperTargetError(
            f"wrapper target {target!r} does not resolve to a callable -- "
            "was it renamed or moved?  Update bench/tracing.py TABLE."
        )
    return owner, attribute, original


class Installed:
    """The wrapper table applied to the imported ``repro`` modules."""

    def __init__(self, recorder, table=TABLE):
        self.recorder = recorder
        self.table = table
        self._undo = []

    def __enter__(self):
        try:
            for _layer, target, name, _expect, extract in self.table:
                owner, attribute, original = resolve(target)
                if "!" in target:
                    function = target.split("!")[1]
                    shim = getattr(owner, attribute)
                    if not isinstance(shim, _JsonShim):
                        self._undo.append((owner, attribute, shim))
                        shim = _JsonShim(dumps=json.dumps, loads=json.loads,
                                         dump=json.dump, load=json.load)
                        setattr(owner, attribute, shim)
                    setattr(shim, function,
                            _wrap(original, name, target, self.recorder,
                                  extract))
                else:
                    self._undo.append((owner, attribute, original))
                    setattr(owner, attribute,
                            _wrap(original, name, target, self.recorder,
                                  extract))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo = []

    def check_called(self, workload) -> None:
        """Every row that must see calls on this workload did."""
        silent = [
            target for _layer, target, _name, expect, _x in self.table
            if workload in expect and not self.recorder.calls.get(target)
        ]
        if silent:
            raise WrapperTargetError(
                f"wrapped targets never called on {workload}: "
                + ", ".join(silent)
                + " -- the call path moved; update bench/tracing.py TABLE"
            )


class InProcessServer:
    """The same stack ``repro serve --listen`` builds, in this process,
    so the wrappers above see its calls."""

    def __init__(self, flags):
        from repro.api import ML4all
        from repro.obs import TraceRecorder
        from repro.service.frontend import Dispatcher, SocketFrontend

        options = dict(zip(flags[::2], flags[1::2]))
        kwargs = {"seed": 7}
        if "--algorithms" in options:
            kwargs["algorithms"] = tuple(options["--algorithms"].split(","))
        self.system = ML4all(cache_path=options.get("--cache"),
                             checkpoint_path=options.get("--checkpoint"),
                             **kwargs)
        self.service = self.system.service(
            cache_size=int(options.get("--cache-size", 256))
        )
        tracer = TraceRecorder(metrics=self.service.metrics)
        self.frontend = SocketFrontend(
            Dispatcher(self.system, tracer=tracer), port=0, max_workers=8,
            shed_after=64,
        )
        self.port = self.frontend.start()

    def stop(self) -> None:
        self.frontend.stop()
        self.service.close()
