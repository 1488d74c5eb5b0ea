"""Durable training jobs: the :class:`CheckpointStore`.

The store persists :class:`~repro.gd.state.OptimizerState`, the
bit-identical, JSON-round-trippable snapshot of a run, beyond the
process that took it, so a killed ``repro serve`` loses at most the
work since the last checkpoint.  A *training job* is a named
(``job_id``) train() request whose progress -- model weights, optimizer
state, execution trace, the plan decision that is being executed -- is
checkpointed through the same pluggable
:class:`~repro.service.backends.CacheBackend` machinery as the plan
store (JSON file / SQLite, versioned format, corrupt entries degrade to
a cold start).  A fresh process pointed at the same store
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
and a lease one commit more, its acquire (the final checkpoint ends the
lease itself).  The row holds only what changes between saves: the
pricing decision is the job's *plan row* (``plan!<job_id>``), written
once by the lease that priced it, before its first save; the shuffle
sampler stores the generator state its permutation was drawn from; the
optimizer state is stored once, not again in a trace segment or as
Converge's previous iterate (``weights``).  ``to_dict`` shares those
plain lists and dicts, the backend walks them once, in ``json.dumps``,
and on SQLite the text goes to one row in one ``BEGIN IMMEDIATE``
transaction on a persistent WAL connection -- one fsync.  The payload
still grows with the trajectory (a trace delta per iteration) and the
JSON backend rewrites its whole file per write: pick
``checkpoint_every`` (iterations *between* durability points) by the
work you can afford to replay, and prefer SQLite for long runs.
"""

from __future__ import annotations

import dataclasses
import time
import warnings

from repro.gd.state import field_dict, known_fields
from repro.obs import span
from repro.service.backends import open_backend
from repro.service.serialize import PlanStoreError

#: Format version of one persisted job checkpoint; unknown formats are
#: reported and skipped at load time (the job restarts cold).  Format 2
#: moved the plan entry to the plan row; format-1 rows still decode.
CHECKPOINT_FORMAT = 2

#: Key prefix of a job's plan row; like the fleet's ``worker!``
#: heartbeats, its ``{"kind": "plan"}`` marker is what readers key on.
PLAN_PREFIX = "plan!"

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


@dataclasses.dataclass
class JobCheckpoint:
    """One persisted snapshot of a training job.

    ``weights``/``state``/``chosen``/``trace`` are stored in their
    plain-JSON forms (lists and dicts) so any backend can hold them as
    text.  The pricing decision lives in the job's plan row
    (:meth:`CheckpointStore.load_plan`), so a resuming process re-enters
    warm -- it never re-speculates a job that is sitting on disk.
    ``request`` is an optional caller-supplied descriptor (the CLI
    stores the parsed request line) that lets a restarted server
    *re-issue* the job without being handed the original request again.
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
    #: Plan-store entry of the pricing decision, inline in a format-1
    #: row until a lease moves it to the plan row; else not stored.
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
        if self.plan_entry is None:
            del payload["plan_entry"]
        payload["checkpoint_format"] = CHECKPOINT_FORMAT
        return payload

    @classmethod
    def from_dict(cls, payload) -> "JobCheckpoint":
        """Decode one checkpoint; raises :class:`CheckpointError` on a
        format mismatch or structural damage (callers degrade to a cold
        start, they never trust a partial decode)."""
        fmt = payload.get("checkpoint_format") \
            if isinstance(payload, dict) else None
        if fmt not in (1, CHECKPOINT_FORMAT):
            raise CheckpointError(
                f"job checkpoint format {fmt!r} is not a supported one "
                f"(1, {CHECKPOINT_FORMAT}); checkpoint ignored"
            )
        try:
            return cls(**known_fields(cls, payload))
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

        Rows with a ``kind`` marker -- worker heartbeats a fleet worker
        parks next to the checkpoints it drains, jobs' plan rows --
        share the store but are not jobs; they are skipped without a
        warning.
        """
        out = {}
        for job_id, payload in self.backend.load().items():
            if isinstance(payload, dict) and "kind" in payload:
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

    def load_plan(self, job_id) -> dict | None:
        """The plan-store entry in ``job_id``'s plan row, or None."""
        payload = self.backend.get(PLAN_PREFIX + job_id)
        if isinstance(payload, dict) and payload.get("kind") == "plan":
            return payload.get("plan_entry")
        return None

    def save_plan(self, job_id, plan_entry) -> None:
        """Write ``job_id``'s plan row.  One plain write, once per lease
        that priced the job: only the lease holder writes it, and before
        the first save that relies on it."""
        self.backend.store(PLAN_PREFIX + job_id,
                           {"kind": "plan", "plan_entry": plan_entry})

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

        with span("lease_acquire", job_id=job_id, owner=owner) as lease_span:
            self.backend.update(job_id, take)
            lease_span.set("resumed", box["existing"] is not None)
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
            lease = payload.get("lease") if isinstance(payload, dict) else None
            if lease is not None and lease.get("owner") == owner:
                return dict(payload, lease=None)
            return payload

        with span("lease_release", job_id=job_id, owner=owner):
            self.backend.update(job_id, drop)

    # -- maintenance -----------------------------------------------------
    def delete(self, job_id) -> None:
        self.backend.delete(job_id)
        self.backend.delete(PLAN_PREFIX + job_id)

    def close(self) -> None:
        self.backend.close()
