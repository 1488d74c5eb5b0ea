"""Importable test helpers.

Lives outside ``conftest.py`` so test modules can ``from support import
make_dataset`` regardless of which ``conftest`` module pytest registered
first (running from the repo root used to import ``benchmarks/conftest.py``
under the top-level name ``conftest``, breaking every ``from conftest
import ...`` in this directory).  Named ``support`` -- not ``_helpers``
-- so it can never race ``benchmarks/_helpers.py`` for a top-level
module name either.
"""

import random
import threading

import numpy as np

from repro.cluster import ClusterSpec, PartitionedDataset
from repro.cluster.storage import DatasetStats
from repro.data import make_classification, make_regression
from repro.gd.gradients import task_gradient
from repro.service.backends import CacheBackend


def make_dataset(
    n_phys=200,
    d=10,
    sim_n=None,
    spec=None,
    task="logreg",
    representation="text",
    seed=0,
    sparse=False,
    block_bytes=None,
    **gen_kwargs,
):
    """Build a small PartitionedDataset for tests.

    ``sim_n`` (default: n_phys) sets the simulated row count;
    ``block_bytes`` optionally overrides the HDFS block size so tests can
    force a specific partition count.
    """
    spec = spec or ClusterSpec(jitter_sigma=0.0)
    if block_bytes is not None:
        spec = spec.with_overrides(hdfs_block_bytes=block_bytes)
    rng = np.random.default_rng(seed)
    if task == "linreg":
        X, y, _ = make_regression(n_phys, d, sparse=sparse, rng=rng, **gen_kwargs)
    else:
        X, y, _ = make_classification(
            n_phys, d, sparse=sparse, rng=rng, **gen_kwargs
        )
    stats = DatasetStats(
        name="test",
        task=task,
        n=sim_n or n_phys,
        d=d,
        density=gen_kwargs.get("density", 1.0),
        is_sparse=sparse,
    )
    return PartitionedDataset(X, y, stats, spec, representation=representation)


class FaultyBackend(CacheBackend):
    """A :class:`CacheBackend` wrapper that injects faults on a schedule.

    Wraps *any* real backend and makes selected operations fail the way
    flaky storage fails, so tests can exercise degradation and retry
    paths against the genuine backend underneath rather than a mock:

    * ``"timeout"`` -- raise :class:`TimeoutError` *before* the
      operation runs (nothing happened on the inner backend);
    * ``"reset"`` -- raise :class:`ConnectionResetError` before the
      operation runs (ditto);
    * ``"fail_after_write"`` -- run the operation on the inner backend
      first, *then* raise :class:`ConnectionResetError`.  This is the
      partial-failure case -- the write landed but the caller never
      heard back -- that idempotent retry (CAS txn replay) must handle.
      On read-only operations it degrades to ``"reset"``.

    Faults come from an explicit per-operation ``plan`` (a dict mapping
    operation name to a list of fault kinds / ``None``, consumed one
    entry per call, then clean) or -- when ``seed`` is given -- from a
    seeded :class:`random.Random` firing with probability ``rate`` on
    each operation in ``ops``.  The same seed always yields the same
    fault sequence.  Every injected fault is recorded in ``injected``
    as an ``(operation, kind)`` pair so tests can assert the schedule
    actually fired.
    """

    #: Fault kinds raised *before* the inner operation runs.
    ABORT_KINDS = ("timeout", "reset")
    KINDS = ABORT_KINDS + ("fail_after_write",)

    def __init__(self, inner, plan=None, seed=None, rate=0.2,
                 kinds=KINDS, ops=("get", "store", "update", "delete")):
        self.inner = inner
        self.plan = {op: list(queue) for op, queue in (plan or {}).items()}
        self.rng = None if seed is None else random.Random(seed)
        self.rate = rate
        self.kinds = tuple(kinds)
        self.ops = frozenset(ops)
        self.injected = []

    # -- fault scheduling ------------------------------------------------
    def _next_fault(self, op):
        queue = self.plan.get(op)
        if queue:
            return queue.pop(0)
        if self.rng is not None and op in self.ops:
            if self.rng.random() < self.rate:
                return self.rng.choice(self.kinds)
        return None

    def _raise(self, op, kind):
        self.injected.append((op, kind))
        if kind == "timeout":
            raise TimeoutError(f"injected timeout during {op}")
        raise ConnectionResetError(f"injected reset during {op}")

    def _call(self, op, fn, mutates):
        kind = self._next_fault(op)
        if kind in self.ABORT_KINDS:
            self._raise(op, kind)
        if kind == "fail_after_write" and not mutates:
            kind = "reset"
            self._raise(op, kind)
        result = fn()
        if kind == "fail_after_write":
            self._raise(op, kind)
        return result

    # -- CacheBackend contract ------------------------------------------
    def load(self):
        return self._call("load", self.inner.load, mutates=False)

    def get(self, key):
        return self._call("get", lambda: self.inner.get(key), mutates=False)

    def store(self, key, entry):
        return self._call(
            "store", lambda: self.inner.store(key, entry), mutates=True
        )

    def update(self, key, fn):
        return self._call(
            "update", lambda: self.inner.update(key, fn), mutates=True
        )

    def mutate_all(self, fn):
        return self._call(
            "mutate_all", lambda: self.inner.mutate_all(fn), mutates=True
        )

    def delete(self, key):
        return self._call(
            "delete", lambda: self.inner.delete(key), mutates=True
        )

    def close(self):
        self.inner.close()

    def __len__(self):
        return len(self.inner)


class BlockingGradient:
    """Counts concurrent ``gradient`` entries; the first one blocks."""

    def __init__(self, task):
        self._inner = task_gradient(task)
        self._lock = threading.Lock()
        self.active = 0
        self.max_active = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def gradient(self, w, X, y):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            first = not self.entered.is_set()
            self.entered.set()
        try:
            if first:
                assert self.release.wait(60)
            return self._inner.gradient(w, X, y)
        finally:
            with self._lock:
                self.active -= 1


class SpyLane:
    """The speculation lane, announcing every acquire attempt."""

    def __init__(self):
        self._lock = threading.Lock()
        self.attempts = threading.Semaphore(0)

    def acquire(self):
        self.attempts.release()
        return self._lock.acquire()

    def release(self):
        self._lock.release()
