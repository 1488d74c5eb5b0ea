"""The training/job layer of the optimizer service.

:class:`TrainingJobs` is the mixin that gives
:class:`~repro.service.core.OptimizerService` its execution surface:
``train()`` (optimize through the plan cache, then execute on a
per-caller engine clone), ``train_many()`` batching, and the durable
checkpointed-job machinery (``job_id=`` leases, budget preemption,
crash/resume).  It owns no state of its own -- everything it touches
(cache, backends, calibration, checkpoint store, metrics) is constructed
by the core's ``__init__``; the split is purely structural so the plan
cache/lookup layer and the execution layer can be read and changed
independently.
"""

from __future__ import annotations

import contextvars
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.cluster import SimulatedCluster
from repro.core.executor import execute_plan
from repro.core.result import TrainResult
from repro.gd.state import OptimizerState
from repro.obs import span
from repro.runtime import (
    AdaptiveSettings,
    AdaptiveTrainer,
    ExecutionTrace,
    ResumePoint,
)
from repro.service.checkpoint import (
    CheckpointError,
    JobCheckpoint,
    new_owner_token,
)
from repro.service.requests import (
    JobProgress,
    ServiceResult,
    TrainServiceResult,
    normalize_request,
)
from repro.service.serialize import (
    PlanStoreError,
    candidate_from_dict,
    candidate_to_dict,
    entry_from_dict,
    entry_to_dict,
)


class TrainingJobs:
    """Train/execute methods mixed into the OptimizerService core."""

    # ------------------------------------------------------------------
    def train(self, dataset, training, fixed_iterations=None,
              algorithms=None, batch_sizes=None, adaptive=False,
              adaptive_settings=None, operators=None,
              engine=None, job_id=None, checkpoint_every=None,
              budget=None, job_request=None) -> TrainServiceResult:
        """Optimize (through the plan cache), then execute the plan.

        Execution runs on a **per-caller engine clone** -- a fresh
        :class:`SimulatedCluster` per request (or the caller's own via
        ``engine``), so one caller's simulated clock, cache residency
        and metrics never leak into another's.

        With ``adaptive=True`` the plan runs under the adaptive runtime:
        convergence/cost monitoring, mid-flight re-optimization, and the
        resulting :class:`~repro.runtime.trace.ExecutionTrace` is folded
        into this service's calibration store -- subsequent requests for
        the same workload are then re-costed from cached speculation
        with the learned corrections (never re-speculated).

        A ``budget`` (:class:`~repro.runtime.JobBudget`) bounds the run
        even without a ``job_id``: the request executes under the
        runtime's lease monitor (no mid-flight switching unless
        ``adaptive``) and comes back with ``result.preempted`` when the
        budget stops it early.  This is what per-request deadlines from
        the front-end map into.

        **Durable jobs.**  With ``job_id`` the request becomes a
        checkpointed, preemptible job against this service's
        :class:`~repro.service.checkpoint.CheckpointStore`
        (``checkpoint_path=``): progress -- weights, optimizer state,
        execution trace, the plan decision -- is persisted every
        ``checkpoint_every`` global iterations and at every graceful
        stop, under an advisory lease so sibling processes cannot
        double-run the job.  A ``budget`` bounds this lease; when it
        runs out the call returns with ``job.preempted`` and a fresh
        process (same store, same request, same ``job_id``) resumes
        mid-plan, bit-identically, without re-speculating.  A job that
        already finished returns its stored outcome without executing
        anything.  ``job_request`` optionally attaches a caller-level
        request descriptor to the checkpoints (the CLI stores the parsed
        request line, which is how a restarted server re-issues
        in-flight jobs).
        """
        if job_id is not None:
            if operators is not None:
                raise CheckpointError(
                    "durable jobs cannot run custom operator bundles: "
                    "a resuming process could not reconstruct them from "
                    "the checkpoint; drop operators= or job_id="
                )
            return self._train_job(
                dataset, training, fixed_iterations, algorithms,
                batch_sizes, adaptive, adaptive_settings, job_id,
                checkpoint_every, budget, job_request,
            )
        optimization = self.optimize(
            dataset, training, fixed_iterations, algorithms, batch_sizes
        )
        if engine is None:
            engine = SimulatedCluster(self.spec, seed=self.seed)
        report = optimization.report
        if not optimization.cache_hit and not optimization.recalibrated:
            # This request paid for speculation: reflect it in the
            # caller's simulated clock (sample collection + trial wall),
            # like GDOptimizer.train does.  Cached/recalibrated requests
            # skip it -- that saving is the point of the plan cache.
            report.charge_speculation(engine, include_sample_collection=True)

        if adaptive or budget is not None:
            trainer = AdaptiveTrainer(
                self._make_optimizer(algorithms, batch_sizes, engine=engine),
                settings=(
                    (adaptive_settings or self.adaptive_settings)
                    if adaptive
                    # A budget without adaptive= runs the same
                    # single-plan execution as plain train(): telemetry
                    # and the lease monitor only, no switching.
                    else AdaptiveSettings(max_switches=0)
                ),
                calibration=self.calibration if adaptive else None,
            )
            adaptive_result = trainer.train(
                dataset, training, fixed_iterations=fixed_iterations,
                report=report, budget=budget,
            )
            result, trace = adaptive_result.result, adaptive_result.trace
        else:
            adaptive_result = None
            trace = None
            with span(
                "plan_segment",
                algorithm=report.chosen_plan.algorithm,
                plan=str(report.chosen_plan),
                start_iteration=0,
            ) as segment_span:
                result = execute_plan(
                    engine, dataset, report.chosen_plan, training, operators
                )
                segment_span.set("iterations", int(result.iterations))
                segment_span.set("converged", bool(result.converged))
        self.metrics.inc("service.trained")
        return TrainServiceResult(
            optimization=optimization,
            result=result,
            trace=trace,
            adaptive=adaptive_result,
        )

    # ------------------------------------------------------------------
    def _report_from_entry(self, key, plan_entry):
        """Restore a job's pricing report from its checkpointed
        plan-store entry (and re-seed the plan cache/store with it), or
        None when the entry is unusable.

        The entry is re-persisted *verbatim* -- original calibration
        stamp, original ``written_at`` -- so a resume neither mislabels
        old pricing as freshly calibrated (the stamp staleness rule
        must keep firing) nor rejuvenates an entry the disk-tier TTL
        should age out.
        """
        if plan_entry is None:
            return None
        try:
            report, version, digest, _ = entry_from_dict(plan_entry)
        except PlanStoreError as exc:
            warnings.warn(
                f"job plan entry is unusable ({exc}); re-optimizing",
                stacklevel=3,
            )
            return None
        self._cache_restored(key, report, version, digest)
        if self.backend is not None:
            try:
                self.backend.store(key, plan_entry)
            except Exception as exc:
                warnings.warn(
                    f"plan store write failed ({exc}); "
                    "entry is served from memory only", stacklevel=2,
                )
        return report

    def _finished_job_result(self, job_id, key, checkpoint, report,
                             start) -> TrainServiceResult:
        """The stored outcome of a job that already ran to completion
        (idempotent re-submission: nothing executes, nothing
        re-speculates)."""
        trace = ExecutionTrace.from_dict(checkpoint.trace)
        chosen = candidate_from_dict(checkpoint.chosen)
        last = trace.segments[-1] if trace.segments else None
        result = TrainResult(
            plan=chosen.plan,
            weights=np.asarray(checkpoint.weights, dtype=float),
            iterations=trace.total_iterations,
            converged=trace.converged,
            deltas=np.asarray(last.deltas if last else [], dtype=float),
            sim_seconds=trace.sim_seconds,
            phase_seconds=dict(last.phase_seconds) if last else {},
            metrics={},
            state=(
                OptimizerState.from_dict(checkpoint.state)
                if checkpoint.state is not None else None
            ),
        )
        return TrainServiceResult(
            optimization=ServiceResult(
                report=report,
                fingerprint=key,
                cache_hit=True,
                coalesced=False,
                wall_s=time.perf_counter() - start,
            ),
            result=result,
            trace=trace,
            job=JobProgress(
                job_id=job_id,
                status="done",
                resumed=True,
                preempted=False,
                done_iterations=int(checkpoint.done_iterations),
                already_done=True,
            ),
        )

    def _train_job(self, dataset, training, fixed_iterations, algorithms,
                   batch_sizes, adaptive, adaptive_settings, job_id,
                   checkpoint_every, budget,
                   job_request) -> TrainServiceResult:
        """One lease of a durable training job (see :meth:`train`)."""
        if self.checkpoints is None:
            raise CheckpointError(
                f"train(job_id={job_id!r}) needs a checkpoint store; "
                "construct the service with checkpoint_path= or "
                "checkpoint_store="
            )
        start = time.perf_counter()
        key = self.fingerprint(
            dataset, training, fixed_iterations, algorithms, batch_sizes
        )
        owner = new_owner_token()
        # The lease is the double-run guard: acquired atomically through
        # the backend (flock / BEGIN IMMEDIATE), raising JobLeaseError
        # when a sibling process actively holds the job.
        checkpoint = self.checkpoints.acquire(job_id, owner)
        lease_ended = False
        try:
            if checkpoint is not None and checkpoint.fingerprint \
                    and checkpoint.fingerprint != key:
                raise CheckpointError(
                    f"job {job_id!r} is bound to workload "
                    f"{checkpoint.fingerprint[:12]}..., but this request "
                    f"fingerprints as {key[:12]}...; refusing to resume a "
                    "different workload under the same job id"
                )
            if checkpoint is not None and checkpoint.status == "done" \
                    and checkpoint.resumable:
                report = self._report_from_entry(key, checkpoint.plan_entry)
                if report is not None:
                    self.metrics.inc("service.requests")
                else:
                    # Undecodable plan entry: re-optimize (warm via the
                    # plan store when possible) so every downstream
                    # consumer still gets a real report.
                    report = self.optimize(
                        dataset, training, fixed_iterations, algorithms,
                        batch_sizes,
                    ).report
                return self._finished_job_result(
                    job_id, key, checkpoint, report, start
                )

            resume = None
            restored_entry = False
            if checkpoint is not None and checkpoint.resumable:
                if bool(checkpoint.adaptive) != bool(adaptive):
                    # The mode is part of the job, not of the lease: a
                    # non-adaptive resume of an adaptive job would keep
                    # the persisted switch allowance monitoring while
                    # feeding no calibration (and vice versa would pin
                    # a job that was promised switching).
                    warnings.warn(
                        f"job {job_id!r} was started with "
                        f"adaptive={bool(checkpoint.adaptive)}; resuming "
                        f"with that mode (requested adaptive={adaptive})",
                        stacklevel=3,
                    )
                    adaptive = bool(checkpoint.adaptive)
                # Resume mid-plan: the checkpoint carries the pricing
                # decision, so nothing re-speculates -- not even when
                # the plan store was lost.
                report = self._report_from_entry(key, checkpoint.plan_entry)
                restored_entry = report is not None
                resume = ResumePoint(
                    weights=checkpoint.weights,
                    state=checkpoint.state,
                    chosen=candidate_from_dict(checkpoint.chosen),
                    trace=ExecutionTrace.from_dict(checkpoint.trace),
                    done_iterations=checkpoint.done_iterations,
                    switches_left=checkpoint.switches_left,
                )
                if report is not None:
                    optimization = ServiceResult(
                        report=report,
                        fingerprint=key,
                        cache_hit=True,
                        coalesced=False,
                        wall_s=time.perf_counter() - start,
                    )
                    self.metrics.inc("service.requests")
                else:
                    # The checkpointed pricing decision is unusable:
                    # re-optimize for the report (the training itself
                    # still resumes from the checkpointed plan/state).
                    optimization = self.optimize(
                        dataset, training, fixed_iterations, algorithms,
                        batch_sizes,
                    )
                    report = optimization.report
                self.metrics.inc("service.jobs_resumed")
            else:
                optimization = self.optimize(
                    dataset, training, fixed_iterations, algorithms,
                    batch_sizes,
                )
                report = optimization.report
                self.metrics.inc("service.jobs_started")

            engine = SimulatedCluster(self.spec, seed=self.seed)
            if resume is None and not optimization.cache_hit \
                    and not optimization.recalibrated:
                report.charge_speculation(
                    engine, include_sample_collection=True
                )
            if restored_entry:
                # Carry the checkpointed entry verbatim: its original
                # calibration stamp must keep driving the staleness
                # rule, and its original written_at must keep driving
                # disk-tier aging.  Only freshly optimized reports get
                # a fresh stamp.
                plan_entry = checkpoint.plan_entry
            else:
                plan_entry = entry_to_dict(
                    report, self.calibration.version,
                    self.calibration.state_digest(),
                )

            trainer = AdaptiveTrainer(
                self._make_optimizer(algorithms, batch_sizes, engine=engine),
                settings=(
                    (adaptive_settings or self.adaptive_settings)
                    if adaptive
                    # Non-adaptive jobs run the same single-plan
                    # execution as plain train(): telemetry only, no
                    # mid-flight switching.
                    else AdaptiveSettings(max_switches=0)
                ),
                calibration=self.calibration if adaptive else None,
            )

            # This lease's entry in the job's audit trail: carried
            # forward from the previous checkpoint and extended on every
            # write, so the persisted history records exactly which
            # owner executed which iteration range.  The chaos suite's
            # exactly-once check is that these ranges chain without gap
            # or overlap.
            lease_record = {
                "owner": owner,
                "worker": self.worker_id,
                "start_iteration": int(
                    resume.done_iterations if resume is not None else 0
                ),
                "end_iteration": int(
                    resume.done_iterations if resume is not None else 0
                ),
                "status": "running",
            }
            earlier_leases = list(checkpoint.history) \
                if checkpoint is not None else []

            def persist(snapshot):
                # NOT best-effort: a job that cannot checkpoint has lost
                # its durability guarantee, so store errors propagate
                # (the finally below releases the lease unless a final
                # save already ended it).
                nonlocal lease_ended
                lease_record["end_iteration"] = int(snapshot.done_iterations)
                lease_record["status"] = snapshot.status
                lease_ended = self.checkpoints.save(JobCheckpoint(
                    job_id=job_id,
                    status=snapshot.status,
                    fingerprint=key,
                    weights=np.asarray(
                        snapshot.weights, dtype=float
                    ).tolist(),
                    state=snapshot.state,
                    chosen=candidate_to_dict(snapshot.chosen),
                    trace=snapshot.trace.to_dict(),
                    done_iterations=snapshot.done_iterations,
                    switches_left=snapshot.switches_left,
                    adaptive=adaptive,
                    plan_entry=plan_entry,
                    request=job_request,
                    # The one thing in this payload that changes after
                    # the save: each checkpoint gets its own copy of
                    # this lease's record.
                    history=earlier_leases + [dict(lease_record)],
                ), owner=owner)

            adaptive_result = trainer.train(
                dataset, training, fixed_iterations=fixed_iterations,
                report=report, resume=resume,
                checkpoint_every=checkpoint_every, budget=budget,
                on_checkpoint=persist,
            )
        finally:
            if not lease_ended:
                self.checkpoints.release(job_id, owner)

        self.metrics.inc("service.trained")
        if adaptive_result.preempted:
            self.metrics.inc("service.jobs_preempted")
        else:
            self.metrics.inc("service.jobs_completed")
        return TrainServiceResult(
            optimization=optimization,
            result=adaptive_result.result,
            trace=adaptive_result.trace,
            adaptive=adaptive_result if adaptive else None,
            job=JobProgress(
                job_id=job_id,
                status=(
                    "preempted" if adaptive_result.preempted else "done"
                ),
                resumed=resume is not None,
                preempted=adaptive_result.preempted,
                done_iterations=adaptive_result.trace.total_iterations,
            ),
        )

    # ------------------------------------------------------------------
    def train_many(self, requests, max_workers=None, adaptive=False,
                   adaptive_settings=None) -> list:
        """Serve a batch of train() requests concurrently; order preserved.

        Same request forms as :meth:`optimize_many`; every request
        executes on its own engine clone, so concurrent training runs
        stay isolated.
        """
        def one(request):
            return self.train(
                request.dataset, request.training, request.fixed_iterations,
                request.algorithms, request.batch_sizes,
                adaptive=adaptive, adaptive_settings=adaptive_settings,
                job_id=request.job_id,
                checkpoint_every=request.checkpoint_every,
                budget=request.budget,
                job_request=request.job_request,
            )

        return self._serve_many(requests, max_workers, one, "train")

    @staticmethod
    def _serve_many(requests, max_workers, one, thread_name) -> list:
        """``one(request)`` for every request (normalised), in order:
        on up to ``max_workers`` threads (default ``min(8, n)``)."""
        normalized = [normalize_request(r) for r in requests]
        max_workers = min(
            8 if max_workers is None else max(1, max_workers),
            len(normalized),
        )
        if max_workers <= 1:
            return [one(r) for r in normalized]
        with ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=thread_name
        ) as pool:
            # copy_context() keeps an ambient trace on the pool threads.
            futures = [
                pool.submit(contextvars.copy_context().run, one, r)
                for r in normalized
            ]
            return [f.result() for f in futures]
