"""Request and result types of the optimizer service.

These are the wire-free data shapes shared by every service layer: the
core (:mod:`repro.service.core`), the job layer
(:mod:`repro.service.jobs`) and the protocol front-end
(:mod:`repro.service.frontend`).  They carry no behaviour beyond
summaries, so protocol code can depend on them without dragging the
optimizer machinery in.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class ServiceRequest:
    """One optimize() request: a dataset plus its training spec.

    ``algorithms`` / ``batch_sizes`` optionally override the service's
    search-space configuration for this request only (e.g. pinning a
    single GD algorithm); they participate in the cache fingerprint.

    The job fields only apply to train() requests: ``job_id`` turns the
    request into a durable checkpointed job, ``checkpoint_every`` sets
    the persistence cadence, ``budget`` bounds this lease
    (:class:`~repro.runtime.JobBudget`) and ``job_request`` attaches a
    caller-level descriptor to the checkpoints.  None of them changes
    the optimizer's answer, so none participates in the fingerprint.
    """

    dataset: object
    training: object
    fixed_iterations: int | None = None
    algorithms: tuple | None = None
    batch_sizes: object = None
    job_id: str | None = None
    checkpoint_every: int | None = None
    budget: object = None
    job_request: object = None


@dataclasses.dataclass(slots=True)
class Resolved:
    """A request fingerprinted and looked up in the in-memory plan
    cache -- the half of ``optimize()`` that needs no I/O and no GD
    (:meth:`OptimizerService.resolve`).  A front-end reads ``inline`` to
    pick a thread, then hands the same object to
    :meth:`OptimizerService.answer`, so nothing is derived twice."""

    request: ServiceRequest
    fingerprint: str
    #: The in-memory cache entry, or None (a persistent backend may
    #: still hold one: ``answer`` reads through).
    entry: object
    #: True when ``entry`` was priced against the live calibration.
    hit: bool
    #: Seconds the two steps took, for the request trace's spans.
    fingerprint_s: float
    lookup_s: float
    #: The decision: ``answer`` needs no store I/O, no GD and no wait.
    inline: bool = False
    #: A speculating miss's trial-memo scope and keys (else None).
    context: str | None = None
    trial_keys: dict | None = None
    #: Set by :meth:`OptimizerService.claim`: the key's in-flight
    #: future, whether this request owns it, the trials it pinned.
    future: object = None
    owner: bool = False
    trials: dict | None = None


@dataclasses.dataclass
class ServiceResult:
    """Outcome of one service request."""

    #: The (possibly cached) OptimizationReport.
    report: object
    #: Workload fingerprint the plan cache was keyed on.
    fingerprint: str
    #: True when the report came out of the plan cache.
    cache_hit: bool
    #: True when the request piggybacked on a concurrent identical one.
    coalesced: bool
    #: Wall seconds this request spent inside the service.
    wall_s: float
    #: True when a cached entry was re-costed with fresh calibration
    #: factors (reusing its cached speculation -- no re-speculation).
    recalibrated: bool = False

    @property
    def chosen_plan(self):
        return self.report.chosen_plan

    def summary(self) -> str:
        if self.cache_hit:
            source = "cache"
        elif self.recalibrated:
            source = "recalibrated"
        elif self.coalesced:
            source = "coalesced"
        else:
            source = "computed"
        return (
            f"{self.report.chosen_plan} "
            f"(est. {self.report.chosen.total_s:.2f}s simulated) "
            f"[{source}, {self.wall_s * 1e3:.1f} ms]"
        )


@dataclasses.dataclass
class JobProgress:
    """What one train(job_id=...) call did to its durable job."""

    job_id: str
    #: ``running`` / ``preempted`` / ``done`` after this lease.
    status: str
    #: True when this call continued a persisted checkpoint.
    resumed: bool
    #: True when the lease budget stopped the run before the job ended.
    preempted: bool
    #: Global training iterations banked so far (all leases).
    done_iterations: int
    #: True when the job had already finished and the stored outcome was
    #: returned without executing anything.
    already_done: bool = False

    def summary(self) -> str:
        verb = "already done" if self.already_done else self.status
        return (
            f"job {self.job_id}: {verb} at iteration "
            f"{self.done_iterations}"
            + (" (resumed)" if self.resumed else "")
        )


@dataclasses.dataclass
class TrainServiceResult:
    """Outcome of one train() request: plan decision plus execution."""

    #: The plan-selection ServiceResult (cache/coalescing semantics).
    optimization: ServiceResult
    #: TrainResult of the executed (final) plan segment.
    result: object
    #: ExecutionTrace of the run (None for non-adaptive, non-job,
    #: non-budgeted requests).
    trace: object = None
    #: AdaptiveResult when the request ran under the adaptive runtime
    #: (``adaptive=True``, or any non-job request bounded by a budget).
    adaptive: object = None
    #: JobProgress when the request named a durable job_id.
    job: object = None

    @property
    def report(self):
        return self.optimization.report

    @property
    def weights(self):
        return self.result.weights

    @property
    def switched(self) -> bool:
        return self.trace is not None and bool(self.trace.switches)

    @property
    def preempted(self) -> bool:
        """True when a lease/deadline budget stopped this run early."""
        if self.job is not None:
            return bool(self.job.preempted)
        if self.adaptive is not None:
            return bool(self.adaptive.preempted)
        return False

    def summary(self) -> str:
        text = f"{self.optimization.summary()}; {self.result.summary()}"
        if self.switched:
            text += f"; {len(self.trace.switches)} mid-flight switch(es)"
        if self.job is not None:
            text += f"; {self.job.summary()}"
        elif self.preempted:
            text += "; preempted by budget"
        return text
