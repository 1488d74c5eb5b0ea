#!/usr/bin/env python
"""Where a durable training job's CPU goes, layer by layer.

Replays the benchmark's ``train_durable`` job stream (``bench/workloads.py``)
in-process through ``scripts/replay.py``: the system ``repro serve
--checkpoint jobs.db --cache plans.db`` builds, in a temporary
directory, answers each job through a
:class:`~repro.service.frontend.Dispatcher`, and a leased job is re-sent
until it reports ``done`` -- as the benchmark's client does.  Each
callable in ``LAYERS`` charges the thread CPU time spent inside it minus
what the wrapped callables it calls spent (exclusive time), so the rows
add up to at most the replay's process CPU; ``other`` is the rest.  The
executor's per-iteration callables (the engine's ``charge``, the
sampler's ``draw``, the three operators, the monitor) are rows of their
own, so ``core.executor`` is the loop's own bookkeeping.  Wrapping them
costs CPU too: the stream is first replayed without wrappers, and its
CPU per job is recorded beside the instrumented one.

Beside the layer table it records every backend ``json.dumps`` by row
kind (calls, mean bytes, mean CPU), the CPU of one ``json.dumps`` of a
list of 124 floats (the size of a checkpoint row's float payload) and
the thread CPU of one ``COMMIT`` under ``synchronous=FULL`` on a WAL
database.

    PYTHONPATH=src python scripts/durable_breakdown.py --seed 1 --jobs 80 \\
        --output docs/perf/durable-breakdown.json
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import random
import sqlite3
import statistics
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

#: (layer, ``module:attr[.attr]``) -- the callables charged their
#: exclusive thread CPU.
LAYERS = (
    ("frontend.dispatcher", "repro.service.frontend:Dispatcher.handle"),
    ("service.jobs", "repro.service.jobs:TrainingJobs.train"),
    ("core.optimizer", "repro.core.optimizer:GDOptimizer.optimize"),
    ("core.executor", "repro.core.executor:PlanExecutor.run"),
    ("executor.__init__", "repro.core.executor:PlanExecutor.__init__"),
    ("engine.charge", "repro.cluster.engine:SimulatedCluster.charge"),
    ("sampler.draw", "repro.cluster.sampling:BernoulliSampler.draw"),
    ("sampler.draw", "repro.cluster.sampling:RandomPartitionSampler.draw"),
    ("sampler.draw",
     "repro.cluster.sampling:ShuffledPartitionSampler.draw"),
    ("operator.compute",
     "repro.core.reference_ops:GradientCompute.compute"),
    ("operator.update", "repro.core.reference_ops:WeightUpdate.update"),
    ("operator.converge", "repro.core.reference_ops:L1Converge.converge"),
    ("runtime.monitor",
     "repro.runtime.telemetry:TelemetryRecorder.on_iteration"),
    ("runtime.monitor",
     "repro.runtime.telemetry:ConvergenceMonitor.on_iteration"),
    ("metrics.snapshot", "repro.cluster.metrics:MetricsRecorder.snapshot"),
    ("service.checkpoint", "repro.service.checkpoint:CheckpointStore.save"),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.acquire"),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.release"),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.save_plan"),
    ("service.checkpoint",
     "repro.service.checkpoint:CheckpointStore.load_plan"),
    ("service.checkpoint", "repro.service.checkpoint:CheckpointStore.load"),
    ("backends.sqlite (python)",
     "repro.service.backends:SqliteBackend.get"),
    ("backends.sqlite (python)",
     "repro.service.backends:SqliteBackend.store"),
    ("backends.sqlite (python)",
     "repro.service.backends:SqliteBackend.update"),
)


class Charges:
    """Exclusive thread-CPU per layer; a per-thread stack of open calls
    subtracts each callee's time from its caller."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.cpu = collections.Counter()
        self.calls = collections.Counter()
        self.encodes = collections.defaultdict(list)

    def timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.thread_time() - start
                children = stack.pop()
                if stack:
                    stack[-1] += spent
                with self._lock:
                    self.cpu[layer] += spent - children
                    self.calls[layer] += 1
        return wrapper

    def timed_dumps(self, dumps):
        charged = self.timed("backends json.dumps", dumps)

        def wrapper(value, *args, **kwargs):
            start = time.thread_time()
            text = charged(value, *args, **kwargs)
            kind = ("checkpoint row" if "checkpoint_format" in value
                    else "plan row" if value.get("kind") == "plan"
                    else "plan-cache entry")
            with self._lock:
                self.encodes[kind].append(
                    (len(text), time.thread_time() - start))
            return text
        return wrapper


class _Connection:
    """A sqlite3 connection whose statements charge ``backends.sqlite
    (engine)``: sqlite's own execution, as the caller sees it."""

    def __init__(self, conn, charges):
        self._conn = conn
        self.execute = charges.timed("backends.sqlite (engine)",
                                     conn.execute)
        self.executemany = charges.timed("backends.sqlite (engine)",
                                         conn.executemany)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _install(charges):
    from repro.service import backends

    for layer, target in LAYERS:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        setattr(owner, attr, charges.timed(layer, getattr(owner, attr)))
    json_module = backends.json
    backends.json = type("json", (), {
        "dumps": staticmethod(charges.timed_dumps(json_module.dumps)),
        "loads": staticmethod(charges.timed("backends json.loads",
                                            json_module.loads)),
        "load": staticmethod(json_module.load),
        "dump": staticmethod(json_module.dump),
    })
    connection = backends.SqliteBackend._connection

    def wrapped_connection(self):
        conn = connection(self)
        if not isinstance(conn, _Connection):
            conn = self._conn = _Connection(conn, charges)
        return conn
    backends.SqliteBackend._connection = wrapped_connection


def replay(seed, jobs, workdir, charges):
    """Send ``jobs`` jobs of the stream (both connections' ops,
    alternating) and return (requests, process CPU s, wall s); set-up
    is not charged."""
    import workloads
    from replay import build_dispatcher, send

    dispatcher = build_dispatcher(
        workloads.WORKLOADS["train_durable"].server_flags, workdir)
    for op in workloads.setup_ops("train_durable", seed):
        send(dispatcher, op.line)
    streams = [workloads.stream("train_durable", seed, c) for c in (0, 1)]
    charges.reset()
    requests = 0
    cpu, wall = time.process_time(), time.perf_counter()
    for index in range(jobs):
        op = next(streams[index % 2])
        requests += len(send(dispatcher, op.line, op.leased))
    return (requests, time.process_time() - cpu,
            time.perf_counter() - wall)


def float_list_us(count=124, repeats=2000):
    rng = random.Random(0)
    values = [rng.gauss(0.0, 1.0) for _ in range(count)]
    start = time.thread_time()
    for _ in range(repeats):
        json.dumps(values)
    return (time.thread_time() - start) / repeats * 1e6


def commit_cpu_us(workdir, payload_bytes=5500, repeats=200):
    """Thread CPU of ``COMMIT`` alone, WAL + ``synchronous=FULL``."""
    conn = sqlite3.connect(os.path.join(workdir, "commit.db"),
                           isolation_level=None)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=FULL")
    conn.execute("CREATE TABLE t (k TEXT PRIMARY KEY, v TEXT)")
    text = "x" * payload_bytes
    samples = []
    for index in range(repeats):
        conn.execute("BEGIN IMMEDIATE")
        conn.execute("INSERT OR REPLACE INTO t VALUES (?, ?)",
                     (f"k{index % 8}", text))
        start = time.thread_time()
        conn.execute("COMMIT")
        samples.append(time.thread_time() - start)
    conn.close()
    return statistics.median(samples) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=80)
    parser.add_argument("--output", help="write the record here as JSON")
    args = parser.parse_args(argv)

    charges = Charges()
    with tempfile.TemporaryDirectory() as workdir:
        _, bare_cpu_s, _ = replay(args.seed, args.jobs, workdir, charges)
    _install(charges)
    with tempfile.TemporaryDirectory() as workdir:
        requests, cpu_s, wall_s = replay(args.seed, args.jobs, workdir,
                                          charges)
        floats_us = float_list_us()
        commit_us = commit_cpu_us(workdir)
    attributed = sum(charges.cpu.values())
    layers = {
        layer: {"cpu_s": round(spent, 4), "share": round(spent / cpu_s, 4),
                "calls": charges.calls[layer]}
        for layer, spent in charges.cpu.most_common()
    }
    layers["other"] = {"cpu_s": round(cpu_s - attributed, 4),
                       "share": round(1 - attributed / cpu_s, 4),
                       "calls": None}
    encodes = {
        kind: {"calls": len(rows),
               "mean_bytes": round(statistics.mean(b for b, _ in rows)),
               "mean_us": round(statistics.mean(t for _, t in rows) * 1e6,
                                1)}
        for kind, rows in sorted(charges.encodes.items())
    }
    record = {
        "what": "train_durable job stream replayed in-process; exclusive "
                "thread CPU per layer",
        "seed": args.seed, "jobs": args.jobs, "requests": requests,
        "process_cpu_s": round(cpu_s, 3), "wall_s": round(wall_s, 3),
        "cpu_ms_per_job": round(cpu_s / args.jobs * 1e3, 3),
        "uninstrumented_cpu_ms_per_job": round(
            bare_cpu_s / args.jobs * 1e3, 3),
        "layers": layers,
        "encodes": encodes,
        "json_dumps_124_floats_us": round(floats_us, 1),
        "full_commit_cpu_us": round(commit_us, 1),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    text = json.dumps(record, indent=1)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
