"""Concurrent optimizer serving layer (plan cache + persistence).

The one-shot :class:`~repro.core.optimizer.GDOptimizer` answers a single
query; this package turns it into a component that serves *many* users
across *many* processes, in explicit layers:

* :mod:`repro.service.core` -- :class:`OptimizerService`: caches
  optimization reports per workload fingerprint, coalesces concurrent
  identical requests (cold computes and recalibration re-costs alike),
  and -- via the pluggable :class:`CacheBackend` plan store -- persists
  every decision so a restarted service starts warm;
* :mod:`repro.service.jobs` -- the execution layer: ``train()``,
  durable checkpointed jobs, budgets and leases;
* :mod:`repro.service.requests` -- the request/result dataclasses;
* :mod:`repro.service.frontend` -- the protocol tier: request-line
  parsing, the :class:`Dispatcher` shared by ``repro serve`` stdin and
  socket modes, and the admission-controlled :class:`SocketFrontend`;
* :mod:`repro.service.metrics` -- the :class:`MetricsRegistry` counters
  /gauges/histograms threaded through all of the above;
* :mod:`repro.service.lineserver` -- the one TCP line server (event
  loop, framing, slow-client rule) both socket servers run on;
* :mod:`repro.service.remote` -- the fleet's network boundary: the
  ``repro store`` line-protocol server (:class:`StoreServer`) and the
  :class:`RemoteBackend` client behind ``tcp://host:port/namespace``
  store paths;
* :mod:`repro.service.worker` -- the ``repro worker`` drain/steal loop
  (:class:`FleetWorker`), per-job progress/ETA derivation, and the
  lease-history exactly-once audit;
* :mod:`repro.service.storetools` -- offline store inspection and
  compaction (``repro cache``).
"""

from repro.service.backends import (
    CacheBackend,
    JsonFileBackend,
    MemoryBackend,
    SqliteBackend,
    open_backend,
)
from repro.service.cache import CacheStats, PlanCache
from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointStore,
    JobCheckpoint,
    JobLeaseError,
)
from repro.service.core import OptimizerService
from repro.service.fingerprint import freeze, workload_fingerprint
from repro.service.frontend import (
    Dispatcher,
    SocketFrontend,
    WireRequest,
    iter_request_lines,
    parse_request_line,
    parse_wire_line,
)
from repro.service.metrics import MetricsRegistry
from repro.service.remote import (
    RemoteBackend,
    RemoteStoreError,
    StoreServer,
    open_remote_backend,
    parse_store_url,
)
from repro.service.requests import (
    JobProgress,
    ServiceRequest,
    ServiceResult,
    TrainServiceResult,
    normalize_request,
)
from repro.service.serialize import (
    PlanStoreError,
    entry_from_dict,
    entry_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.service.storetools import compact_store, inspect_store
from repro.service.worker import (
    FleetWorker,
    audit_lease_history,
    job_progress,
    job_progress_records,
    read_heartbeats,
    write_heartbeat,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CacheBackend",
    "CacheStats",
    "CheckpointError",
    "CheckpointStore",
    "Dispatcher",
    "FleetWorker",
    "JobCheckpoint",
    "JobLeaseError",
    "JobProgress",
    "JsonFileBackend",
    "MemoryBackend",
    "MetricsRegistry",
    "OptimizerService",
    "PlanCache",
    "PlanStoreError",
    "RemoteBackend",
    "RemoteStoreError",
    "ServiceRequest",
    "ServiceResult",
    "SocketFrontend",
    "SqliteBackend",
    "StoreServer",
    "TrainServiceResult",
    "WireRequest",
    "audit_lease_history",
    "compact_store",
    "entry_from_dict",
    "entry_to_dict",
    "freeze",
    "inspect_store",
    "iter_request_lines",
    "job_progress",
    "job_progress_records",
    "normalize_request",
    "open_backend",
    "open_remote_backend",
    "parse_request_line",
    "parse_store_url",
    "parse_wire_line",
    "read_heartbeats",
    "report_from_dict",
    "report_to_dict",
    "workload_fingerprint",
    "write_heartbeat",
]
