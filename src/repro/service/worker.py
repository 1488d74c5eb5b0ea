"""The fleet worker: drain, steal, resume, report.

A *fleet* is N ``repro worker`` processes pointed at one shared
checkpoint store (typically a ``tcp://`` namespace served by
``repro store``, but any :class:`~repro.service.backends.CacheBackend`
path works -- the worker is backend-agnostic by construction).  Each
worker loops over :meth:`CheckpointStore.pending` and claims jobs
through the exact same lease machinery a single server uses:

* **Claiming is acquiring.**  A worker never invents a scheduling
  protocol; it simply re-issues the job's checkpointed request
  descriptor through :meth:`OptimizerService.train`, whose
  ``job_id=`` path takes the advisory lease atomically.  Two workers
  racing for one job resolve through the backend's CAS: one wins, the
  other gets :class:`~repro.service.checkpoint.JobLeaseError` and moves
  on.
* **Stealing is waiting.**  A crashed peer's lease expires
  ``lease_ttl_s`` after its last checkpoint write; the job then shows
  up as claimable and any worker resumes it -- bit-identically, from
  the banked weights/state/trace.  There is no failure detector beyond
  the lease clock.
* **Progress is already persisted.**  Every checkpoint carries the
  job's :class:`~repro.runtime.trace.ExecutionTrace`, so per-job
  progress and ETA are *derived* (:func:`job_progress`) from the
  stored iteration cadence -- the store can answer a ``jobs`` query
  without any worker being reachable.
* **Identity is auditable.**  Each lease appends a
  ``{owner, worker, start_iteration, end_iteration, status}`` record
  to the checkpoint's ``history``; :func:`audit_lease_history` checks
  that the records chain exactly (no gap: lost work; no overlap:
  duplicated execution).  The chaos suite leans on this for its
  exactly-once proof.

Workers park small heartbeat records (``{"kind": "worker", ...}``)
next to the checkpoints they drain, under ``worker!<id>`` keys; the
checkpoint store skips them when listing jobs, and the ``jobs`` wire
verb reports them alongside per-job progress.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid
import warnings

from repro.errors import ReproError
from repro.runtime import ExecutionTrace
from repro.service.checkpoint import JobLeaseError

#: Key prefix of worker heartbeat records in a shared checkpoint store.
#: ``!`` keeps them visually (and lexically) apart from job ids; the
#: payload's ``{"kind": "worker"}`` marker is what readers key on.
HEARTBEAT_PREFIX = "worker!"

#: Default seconds between drain-loop polls of the shared store.
DEFAULT_POLL_S = 0.5


# ----------------------------------------------------------------------
# heartbeats
# ----------------------------------------------------------------------
def heartbeat_key(worker_id) -> str:
    return HEARTBEAT_PREFIX + str(worker_id)


def write_heartbeat(backend, worker_id, now=None, **fields) -> dict:
    """Upsert ``worker_id``'s heartbeat record in the shared store.

    One writer per worker id, so a plain overwrite is race-free; the
    record is ephemeral operational state (compaction may drop it).
    """
    record = {
        "kind": "worker",
        "worker": str(worker_id),
        "written_at": float(time.time() if now is None else now),
        **fields,
    }
    backend.store(heartbeat_key(worker_id), record)
    return record


def read_heartbeats(entries, now=None) -> list:
    """Worker heartbeat records out of a raw ``{key: payload}`` store
    snapshot, oldest-key-first, each annotated with ``age_s``."""
    out = []
    for key in sorted(entries):
        payload = entries[key]
        if not (isinstance(payload, dict)
                and payload.get("kind") == "worker"):
            continue
        record = dict(payload)
        if now is not None and record.get("written_at") is not None:
            record["age_s"] = max(
                0.0, float(now) - float(record["written_at"])
            )
        out.append(record)
    return out


# ----------------------------------------------------------------------
# progress / ETA
# ----------------------------------------------------------------------
def job_progress(checkpoint, now=None) -> dict:
    """One job's progress/ETA record, derived from its checkpoint.

    The ETA is in *simulated* seconds (the currency of the execution
    traces): remaining predicted iterations of the in-flight plan
    segment times that segment's observed per-iteration cadence
    (:attr:`~repro.runtime.trace.PlanSegment.effective_per_iteration_s`).
    Deterministic -- derived purely from persisted state -- so any
    store replica answers identically.  Fields degrade to None when the
    checkpoint has no trace yet (a ``queued`` stub).
    """
    record = {
        "job_id": checkpoint.job_id,
        "status": checkpoint.status,
        "done_iterations": int(checkpoint.done_iterations or 0),
        "adaptive": bool(checkpoint.adaptive),
        "written_at": checkpoint.written_at,
        "leases": len(checkpoint.history or []),
        "worker": (
            (checkpoint.history or [{}])[-1].get("worker")
        ),
        "lease_owner": (
            checkpoint.lease.get("owner")
            if checkpoint.lease is not None else None
        ),
        "leased": (
            checkpoint.lease is not None
            and now is not None
            and float(checkpoint.lease.get("expires_at", 0.0)) > float(now)
        ),
        "predicted_iterations": None,
        "remaining_iterations": None,
        "per_iteration_s": None,
        "eta_sim_seconds": None,
        "converged": None,
    }
    if checkpoint.trace is None:
        return record
    try:
        trace = ExecutionTrace.from_dict(checkpoint.trace)
    except Exception:
        return record
    if not trace.segments:
        return record
    last = trace.segments[-1]
    done = trace.total_iterations
    # The in-flight segment's prediction, anchored at the iterations
    # banked before it started.  A segment that overran its prediction
    # counts as "almost there" (remaining 0), never negative.
    predicted_total = (done - last.iterations) + max(
        int(last.predicted_iterations), int(last.iterations)
    )
    remaining = 0 if checkpoint.status == "done" \
        else max(0, predicted_total - done)
    cadence = float(last.effective_per_iteration_s)
    record.update(
        predicted_iterations=int(predicted_total),
        remaining_iterations=int(remaining),
        per_iteration_s=cadence,
        eta_sim_seconds=remaining * cadence,
        converged=bool(trace.converged),
    )
    return record


def job_progress_records(entries, now=None) -> tuple:
    """``(jobs, workers)`` progress report over a raw store snapshot.

    ``entries`` is a ``{key: payload}`` dict as a backend's ``load()``
    (or the store server's namespace scan) returns it.  Non-checkpoint
    entries -- plan-store entries sharing a namespace, undecodable
    payloads -- are skipped silently: this is a monitoring read, it
    must never fail because the store also holds something else.
    """
    from repro.service.checkpoint import JobCheckpoint

    jobs = []
    for key in sorted(entries):
        payload = entries[key]
        # Rows with a kind are heartbeats and jobs' plan rows.
        if not isinstance(payload, dict) or "kind" in payload:
            continue
        try:
            checkpoint = JobCheckpoint.from_dict(payload)
        except Exception:
            continue
        jobs.append(job_progress(checkpoint, now=now))
    return jobs, read_heartbeats(entries, now=now)


# ----------------------------------------------------------------------
# the exactly-once audit
# ----------------------------------------------------------------------
def audit_lease_history(checkpoint) -> list:
    """Problems with a job's lease-history audit trail ([] = clean).

    The invariant: the persisted lease records partition the job's
    iteration range exactly.  Each record's ``start_iteration`` must
    equal the previous record's ``end_iteration`` (the first starts at
    0), and the last record's end must equal the checkpoint's banked
    ``done_iterations``.  A gap means iterations were lost; an overlap
    means two leases executed the same range -- a double-run.  This is
    the chaos suite's machine-checkable exactly-once proof.
    """
    problems = []
    history = checkpoint.history or []
    done = int(checkpoint.done_iterations or 0)
    if not history:
        if done:
            problems.append(
                f"job {checkpoint.job_id!r}: {done} iterations banked "
                "but no lease history"
            )
        return problems
    prev_end = 0
    for index, record in enumerate(history):
        start = int(record.get("start_iteration", -1))
        end = int(record.get("end_iteration", -1))
        if start != prev_end:
            kind = "gap" if start > prev_end else "overlap"
            problems.append(
                f"job {checkpoint.job_id!r}: lease {index} "
                f"({record.get('worker') or record.get('owner')}) starts "
                f"at {start}, previous ended at {prev_end} ({kind})"
            )
        if end < start:
            problems.append(
                f"job {checkpoint.job_id!r}: lease {index} regresses "
                f"({start} -> {end})"
            )
        prev_end = max(prev_end, end)
    if prev_end != done:
        problems.append(
            f"job {checkpoint.job_id!r}: history covers {prev_end} "
            f"iterations but the checkpoint banked {done}"
        )
    if checkpoint.status == "done" \
            and history[-1].get("status") != "done":
        problems.append(
            f"job {checkpoint.job_id!r}: finished but the last lease "
            f"record says {history[-1].get('status')!r}"
        )
    return problems


# ----------------------------------------------------------------------
# claiming
# ----------------------------------------------------------------------
def claimable_jobs(checkpoints) -> list:
    """``(job_id, checkpoint, request)`` for every pending job with a
    request descriptor (a job started programmatically has none and is
    its owner's business).  ``request`` lacks the per-lease budget keys,
    so a resumed job finishes instead of re-preempting forever; run it
    with ``adaptive=checkpoint.adaptive``, the job's own mode."""
    return [
        (job_id, checkpoint, {
            k: v for k, v in checkpoint.request.items()
            if k not in ("lease_iterations", "lease_seconds")
        })
        for job_id, checkpoint in sorted(checkpoints.pending().items())
        if isinstance(checkpoint.request, dict)
        and "dataset" in checkpoint.request
    ]


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
class FleetWorker:
    """One fleet worker over a system's shared checkpoint store.

    ``system`` is an :class:`~repro.api.ML4all` whose service was
    constructed with a checkpoint store (``checkpoint_path=``, usually
    ``tcp://...``).  The worker claims pending jobs by re-issuing their
    checkpointed request descriptors through ``system.train_many`` --
    lease arbitration, resume, budgets and checkpoint cadence are all
    the service's existing machinery; the worker adds only the loop,
    the heartbeat, and the cross-machine trace adoption (a job's spans
    join the submitting request's ``trace_id``).
    """

    def __init__(self, system, worker_id=None, poll_s=DEFAULT_POLL_S,
                 tracer=None, clock=None):
        service = system.service()
        if service.checkpoints is None:
            raise ReproError(
                "a fleet worker needs a shared checkpoint store; "
                "construct the system with checkpoint_path="
            )
        self.system = system
        self.service = service
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        # Stamped into every lease-history record this worker writes.
        service.worker_id = self.worker_id
        self.poll_s = float(poll_s)
        self.tracer = tracer
        self._clock = clock or time.time
        self._stop = threading.Event()
        self.jobs_done = 0
        self.jobs_failed = 0
        self.steals = 0

    # -- claiming ------------------------------------------------------
    def _run_job(self, job_id, checkpoint, request) -> bool:
        """Claim and run one job to its next stop; True when it
        finished ``done`` under this worker's lease."""
        # A stored lease on a *claimable* job means its owner died
        # without releasing (graceful exits clear it): this claim is a
        # steal in the fleet sense.
        stolen = checkpoint.lease is not None
        context = contextlib.nullcontext()
        if self.tracer is not None:
            context = self.tracer.trace(
                "worker_job",
                trace_id=(request.get("trace_id")
                          if isinstance(request.get("trace_id"), str)
                          else None),
                job_id=job_id,
                worker=self.worker_id,
                stolen=stolen,
            )
        with context:
            results = self.system.train_many(
                [request], max_workers=1,
                adaptive=bool(checkpoint.adaptive),
            )
        if stolen:
            self.steals += 1
        job = results[0].job
        return job is not None and job.status == "done"

    # -- the loop ------------------------------------------------------
    def run_once(self) -> dict:
        """One pass over the claimable jobs.

        Returns ``{"pending", "completed", "leased", "failed"}`` --
        ``pending`` is the claimable count at the start of the pass,
        which is the drain loop's exit signal.
        """
        claimable = claimable_jobs(self.service.checkpoints)
        stats = {"pending": len(claimable), "completed": 0,
                 "leased": 0, "failed": 0}
        for job_id, checkpoint, request in claimable:
            if self._stop.is_set():
                break
            self.heartbeat(status="running", job_id=job_id)
            try:
                finished = self._run_job(job_id, checkpoint, request)
            except JobLeaseError:
                # A live peer holds it; not ours this round.
                stats["leased"] += 1
                continue
            except ReproError as exc:
                stats["failed"] += 1
                self.jobs_failed += 1
                warnings.warn(
                    f"worker {self.worker_id}: job {job_id!r} failed "
                    f"({exc}); leaving its checkpoint for a retry",
                    stacklevel=2,
                )
                continue
            if finished:
                stats["completed"] += 1
                self.jobs_done += 1
        self.heartbeat(status="idle")
        return stats

    def run(self, drain=False, max_seconds=None) -> dict:
        """The worker loop: poll, claim, run, repeat.

        ``drain=True`` exits once no claimable jobs remain (jobs a live
        peer is running still count as claimable until they finish, so
        a draining fleet's workers all stay up until the store is
        actually empty of work) -- or after a pass in which *every*
        claimable job failed on this worker: nothing completed, no peer
        holds a lease, so no event is left that could change the
        outcome and re-claiming would only re-fail forever (the totals
        keep ``failed``).  ``max_seconds`` bounds the loop by the
        injected clock.  Returns the totals this worker banked.
        """
        started = self._clock()
        self.heartbeat(status="starting")
        while not self._stop.is_set():
            stats = self.run_once()
            if drain and stats["failed"] == stats["pending"]:
                break  # nothing left, or nothing left that can succeed
            if max_seconds is not None \
                    and self._clock() - started >= max_seconds:
                break
            if stats["completed"] == 0:
                # Nothing moved: wait for peers to finish/crash rather
                # than hot-spinning lease refusals against the store.
                self._stop.wait(self.poll_s)
        self.heartbeat(status="stopped")
        return {"done": self.jobs_done, "failed": self.jobs_failed,
                "steals": self.steals}

    def stop(self) -> None:
        """Ask a looping :meth:`run` to exit after the current job."""
        self._stop.set()

    # -- liveness ------------------------------------------------------
    def heartbeat(self, **fields) -> None:
        """Best-effort: liveness reporting must never kill the loop
        that does the actual work."""
        try:
            write_heartbeat(
                self.service.checkpoints.backend, self.worker_id,
                now=self._clock(), jobs_done=self.jobs_done,
                steals=self.steals, **fields,
            )
        except Exception as exc:
            warnings.warn(
                f"worker {self.worker_id}: heartbeat write failed "
                f"({exc})", stacklevel=2,
            )
