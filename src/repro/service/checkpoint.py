"""Durable training jobs: the :class:`CheckpointStore`.

PR 4 made :class:`~repro.gd.state.OptimizerState` a bit-identical,
JSON-round-trippable snapshot -- but it only lived inside one process: a
killed ``repro serve`` still lost all training progress.  This module
persists it.  A *training job* is a named (``job_id``) train() request
whose progress -- model weights, optimizer state, execution trace, the
plan decision that is being executed -- is checkpointed through the same
pluggable :class:`~repro.service.backends.CacheBackend` machinery as the
plan store (JSON file / SQLite, versioned format, corrupt entries
degrade to a cold start).  A fresh process pointed at the same store
resumes a killed or preempted job *mid-plan*, bit-identically: the
resumed trajectory equals the uninterrupted one, weights and deltas.

Two store-level mechanisms make jobs safe to share:

* **Leases.**  :meth:`CheckpointStore.acquire` takes an advisory,
  expiring lease on a job via the backend's atomic check-and-set
  (:meth:`CacheBackend.update` -- the JSON flock / SQLite
  ``BEGIN IMMEDIATE`` path), so two processes pointed at the same store
  cannot double-run a job: the second caller gets a
  :class:`JobLeaseError` instead of silently duplicating work.  Leases
  expire (``lease_ttl_s``) so a crashed owner's job becomes resumable
  without manual cleanup; every checkpoint write refreshes the writer's
  lease, and a job's final one ends it.
* **Versioned entries.**  Every checkpoint carries
  :data:`CHECKPOINT_FORMAT`; an unreadable or future-format entry is
  reported and treated as absent (the job restarts cold) -- never
  half-decoded.

The service layer (:meth:`OptimizerService.train` with ``job_id=``)
drives this store; nothing here knows about datasets or engines.

**Write cost.**  A durability point costs one encode and one commit,
and a lease one commit more, its acquire: the final checkpoint ends
the lease itself.  The trainer exports the optimizer state once per
snapshot and the row stores it once -- not again in the trace's last
segment, and not Converge's previous iterate, which is ``weights`` --
``to_dict`` assembles the payload from those already-plain lists and
dicts without copying them, and the backend walks it once, in
``json.dumps``; on SQLite the text goes to one row in one
``BEGIN IMMEDIATE`` transaction on the store's persistent WAL
connection -- one fsync.  What still grows is the payload: it carries
the job's whole trajectory (the execution trace gains a delta per
iteration), and the JSON backend rewrites its whole file per write.
For long runs, pick a cadence proportional to the work you can afford
to replay (``checkpoint_every`` is iterations *between* durability
points, not a free knob) and prefer the SQLite backend, whose writes
are per-entry.
"""

from __future__ import annotations

import dataclasses
import time
import uuid
import warnings

from repro.gd.state import field_dict
from repro.obs import span
from repro.service.backends import open_backend
from repro.service.serialize import PlanStoreError

#: Format version of one persisted job checkpoint.  Bump when the
#: payload shape changes incompatibly; old entries are then reported and
#: skipped at load time (the job restarts cold, never resumes wrongly).
CHECKPOINT_FORMAT = 1

#: Default lease time-to-live: a crashed owner's job becomes resumable
#: after this many wall seconds without a checkpoint write.  Kept short
#: relative to typical checkpoint cadences (every write refreshes the
#: lease) so a hard-killed server's jobs are not stranded long -- a
#: restarted server can only pick them up once the dead owner's lease
#: expires.
DEFAULT_LEASE_TTL_S = 60.0


class CheckpointError(PlanStoreError):
    """A job checkpoint could not be decoded or used."""


class JobLeaseError(CheckpointError):
    """The job is actively leased by another owner (double-run guard)."""


def new_owner_token() -> str:
    """A unique lease-owner identity for one train() call."""
    return uuid.uuid4().hex


@dataclasses.dataclass
class JobCheckpoint:
    """One persisted snapshot of a training job.

    ``weights``/``state``/``chosen``/``trace`` are stored in their
    plain-JSON forms (lists and dicts) so any backend can hold them as
    text; ``plan_entry`` is the full plan-store entry
    (:func:`~repro.service.serialize.entry_to_dict`) of the pricing
    decision, so a resuming process re-enters warm -- it never
    re-speculates a job that is sitting on disk.  ``request`` is an
    optional caller-supplied descriptor (the CLI stores the parsed
    request line) that lets a restarted server *re-issue* the job
    without being handed the original request again.
    """

    job_id: str
    #: ``queued`` (submitted, no lease has run it yet), ``running`` (in
    #: flight), ``preempted`` (lease budget stopped it), ``done``
    #: (converged or out of iteration budget).
    status: str
    #: Workload fingerprint the job is bound to; a resume under a
    #: different fingerprint is refused (same job id, different work).
    fingerprint: str
    #: Model vector as a float list; None for a lease stub that has not
    #: checkpointed any progress yet (resume starts fresh).
    weights: list | None = None
    #: :class:`~repro.gd.state.OptimizerState` dict at the checkpoint.
    state: dict | None = None
    #: Serialized :class:`PlanCostEstimate` being executed.
    chosen: dict | None = None
    #: Serialized :class:`~repro.runtime.trace.ExecutionTrace` so far.
    trace: dict | None = None
    #: Global training iterations banked by previous leases.
    done_iterations: int = 0
    #: Remaining mid-flight switch allowance at the checkpoint.
    switches_left: int | None = None
    #: Whether the job runs under the adaptive runtime.  Part of the
    #: job's identity: a resume under the opposite flag would half-apply
    #: it (the persisted switch allowance would keep monitoring alive),
    #: so the service resumes with the checkpointed mode and warns.
    adaptive: bool = False
    #: Plan-store entry of the pricing decision (report + stamps).
    plan_entry: dict | None = None
    #: Caller-supplied request descriptor (e.g. a parsed CLI request
    #: line) enabling restart-time re-issue; opaque to the store.
    request: dict | None = None
    #: Advisory lease ``{"owner": str, "expires_at": unix_s}`` or None.
    lease: dict | None = None
    #: Audit trail of every lease that made progress on this job: one
    #: ``{"owner", "worker", "start_iteration", "end_iteration",
    #: "status"}`` record per lease, appended by the job layer and
    #: updated on every checkpoint write of that lease.  Consecutive
    #: records must chain (each start equals the previous end) -- a gap
    #: means lost work, an overlap means a duplicated execution -- which
    #: is what the fleet chaos suite audits.
    history: list = dataclasses.field(default_factory=list)
    #: Unix seconds of the last checkpoint write.
    written_at: float | None = None

    @property
    def resumable(self) -> bool:
        """True when the checkpoint holds actual training progress."""
        return self.weights is not None and self.chosen is not None

    def leased_by_other(self, owner, now) -> bool:
        """True when a different owner holds an unexpired lease."""
        return (
            self.lease is not None
            and self.lease.get("owner") != owner
            and float(self.lease.get("expires_at", 0.0)) > now
        )

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        """The stored form: one new dict over the field values, which
        it shares (see :func:`~repro.gd.state.field_dict`) -- backends
        encode it to text before ``save()`` returns."""
        payload = field_dict(self)
        payload["checkpoint_format"] = CHECKPOINT_FORMAT
        return payload

    @classmethod
    def from_dict(cls, payload) -> "JobCheckpoint":
        """Decode one checkpoint; raises :class:`CheckpointError` on a
        format mismatch or structural damage (callers degrade to a cold
        start, they never trust a partial decode)."""
        try:
            fmt = payload["checkpoint_format"]
            if fmt != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"job checkpoint format {fmt!r} != supported "
                    f"{CHECKPOINT_FORMAT}; checkpoint ignored"
                )
            known = {f.name for f in dataclasses.fields(cls)}
            return cls(**{
                k: v for k, v in payload.items() if k in known
            })
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"malformed job checkpoint: {exc}"
            ) from exc


class CheckpointStore:
    """Durable ``job_id -> JobCheckpoint`` store over a CacheBackend.

    ``path`` picks the backend by extension exactly like the plan store
    (``.db``/``.sqlite*`` -> SQLite, anything else -> JSON); an explicit
    ``backend`` wins.  A checkpoint store and a plan store must not
    share one file -- their entries carry different format markers and
    compaction keeps both apart, but the stores' key spaces (job ids vs
    workload fingerprints) have no collision guarantee.

    All lease arbitration goes through the backend's atomic
    :meth:`~repro.service.backends.CacheBackend.update`, so it holds
    across *processes*, not just threads.  ``clock`` is injectable for
    deterministic lease-expiry tests.
    """

    def __init__(self, backend=None, path=None,
                 lease_ttl_s=DEFAULT_LEASE_TTL_S, clock=None):
        if backend is None:
            if path is None:
                raise ValueError(
                    "CheckpointStore needs a backend or a path"
                )
            backend = open_backend(path)
        self.backend = backend
        self.lease_ttl_s = float(lease_ttl_s)
        self._clock = clock or time.time

    @property
    def path(self):
        return self.backend.path

    # -- decode helpers --------------------------------------------------
    def _decode(self, job_id, payload, warn=True):
        if payload is None:
            return None
        try:
            return JobCheckpoint.from_dict(payload)
        except CheckpointError as exc:
            if warn:
                warnings.warn(
                    f"job checkpoint {job_id!r} is unusable ({exc}); "
                    "treating the job as fresh", stacklevel=3,
                )
            return None

    # -- reads -----------------------------------------------------------
    def load(self, job_id) -> JobCheckpoint | None:
        """The job's checkpoint, or None (missing or undecodable)."""
        return self._decode(job_id, self.backend.get(job_id))

    def jobs(self) -> dict:
        """``{job_id: JobCheckpoint}`` for every decodable entry.

        Worker heartbeat records (``{"kind": "worker", ...}`` entries a
        fleet worker parks next to the checkpoints it drains) share the
        store but are not jobs; they are skipped without a warning.
        """
        out = {}
        for job_id, payload in self.backend.load().items():
            if isinstance(payload, dict) and payload.get("kind") == "worker":
                continue
            checkpoint = self._decode(job_id, payload)
            if checkpoint is not None:
                out[job_id] = checkpoint
        return out

    def pending(self) -> dict:
        """Jobs a restarted server or a fleet worker should pick up:
        submitted-but-never-run (``queued``) jobs, and interrupted jobs
        with banked progress."""
        return {
            job_id: checkpoint
            for job_id, checkpoint in self.jobs().items()
            if (checkpoint.status == "queued"
                or (checkpoint.status in ("running", "preempted")
                    and checkpoint.resumable))
        }

    # -- submission ------------------------------------------------------
    def submit(self, job_id, request) -> JobCheckpoint:
        """Enqueue a job by descriptor, without executing anything.

        Writes a ``queued`` stub carrying ``request`` (a dict with at
        least ``dataset``, the same shape as a parsed request line) so
        any fleet worker pointed at this store can claim and run the
        job.  Idempotent: re-submitting a job that already exists in any
        state returns the existing checkpoint untouched -- submission
        can be retried without resetting progress or outcomes.
        """
        if not isinstance(request, dict) or "dataset" not in request:
            raise CheckpointError(
                f"job {job_id!r} needs a request descriptor with a "
                "'dataset' key; workers could not re-issue it otherwise"
            )
        box = {}

        def enqueue(payload):
            existing = self._decode(job_id, payload)
            if existing is not None:
                box["checkpoint"] = existing
                return payload  # idempotent re-submission
            record = JobCheckpoint(
                job_id=job_id, status="queued", fingerprint="",
                request=dict(request), written_at=self._clock(),
            )
            box["checkpoint"] = record
            return record.to_dict()

        with span("job_submit", job_id=job_id):
            self.backend.update(job_id, enqueue)
        return box["checkpoint"]

    # -- leases ----------------------------------------------------------
    def acquire(self, job_id, owner) -> JobCheckpoint | None:
        """Atomically lease ``job_id`` for ``owner``.

        Returns the job's current checkpoint (None for a fresh job).
        Raises :class:`JobLeaseError` when a different owner holds an
        unexpired lease -- the double-run guard.  An undecodable
        existing entry is overwritten by a fresh lease stub (corrupt
        checkpoints degrade to a cold start, they never block a job
        forever).
        """
        now = self._clock()
        box = {}

        with span("lease_acquire", job_id=job_id, owner=owner) as lease_span:
            existing = self._acquire(job_id, owner, now, box)
            lease_span.set("resumed", existing is not None)
            return existing

    def _acquire(self, job_id, owner, now, box):
        def take(payload):
            existing = self._decode(job_id, payload)
            if existing is not None and existing.leased_by_other(owner, now):
                raise JobLeaseError(
                    f"job {job_id!r} is leased by another owner until "
                    f"{existing.lease['expires_at']:.0f} "
                    "(unix seconds); refusing to double-run it"
                )
            box["existing"] = existing
            record = existing if existing is not None else JobCheckpoint(
                job_id=job_id, status="running", fingerprint="",
            )
            record.lease = {
                "owner": owner,
                "expires_at": now + self.lease_ttl_s,
            }
            return record.to_dict()

        self.backend.update(job_id, take)
        return box["existing"]

    def save(self, checkpoint, owner=None) -> bool:
        """Persist one checkpoint (and refresh ``owner``'s lease).

        A final (``done``/``preempted``) checkpoint ends the lease in
        the same commit: it is stored with ``lease: null``, the bytes
        :meth:`release` would leave, and ``save`` returns True.

        Raises :class:`JobLeaseError` when another owner has taken the
        job in the meantime (this writer's lease expired): a zombie
        lease-loser must stop rather than clobber the new owner's
        progress.  Unlike plan-store writes this is *not* best-effort --
        a job that cannot checkpoint has lost its durability guarantee,
        so the error propagates.
        """
        now = self._clock()
        checkpoint.written_at = now
        final = checkpoint.status in ("done", "preempted")

        def write(payload):
            current = self._decode(checkpoint.job_id, payload, warn=False)
            if owner is not None and current is not None \
                    and current.leased_by_other(owner, now):
                raise JobLeaseError(
                    f"lost the lease on job {checkpoint.job_id!r}: another "
                    "owner holds it; aborting this writer"
                )
            checkpoint.lease = (
                {"owner": owner, "expires_at": now + self.lease_ttl_s}
                if owner is not None and not final else None
            )
            return checkpoint.to_dict()

        with span(
            "checkpoint_write",
            job_id=checkpoint.job_id,
            status=checkpoint.status,
            done_iterations=int(checkpoint.done_iterations or 0),
            released=final,
        ):
            self.backend.update(checkpoint.job_id, write)
        return final

    def release(self, job_id, owner) -> None:
        """Drop ``owner``'s lease (other owners' leases are untouched)."""
        def drop(payload):
            if payload is None:
                return None
            lease = payload.get("lease") if isinstance(payload, dict) else None
            if lease is not None and lease.get("owner") == owner:
                payload = dict(payload)
                payload["lease"] = None
            return payload

        with span("lease_release", job_id=job_id, owner=owner):
            self.backend.update(job_id, drop)

    # -- maintenance -----------------------------------------------------
    def delete(self, job_id) -> None:
        self.backend.delete(job_id)

    def close(self) -> None:
        self.backend.close()

    def __len__(self) -> int:
        return len(self.backend)
