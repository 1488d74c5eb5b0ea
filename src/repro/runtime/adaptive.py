"""Mid-flight re-optimization: adaptive plan execution.

The one-shot optimizer picks a plan from speculative curve fits and a
static cost model, then pays for any mis-estimate until convergence.
:class:`AdaptiveTrainer` closes the loop at runtime:

1. optimize as usual and start executing the chosen plan with a
   :class:`~repro.runtime.telemetry.ConvergenceMonitor` attached;
2. the monitor refits the observed error curve every K iterations and
   compares convergence *and* per-iteration cost against the optimizer's
   predictions;
3. on divergence the executor stops gracefully (model state intact),
   the trainer re-runs plan selection over the *remaining* error budget
   -- remaining iterations per algorithm from the curves, observed
   per-iteration cost folded in for the running algorithm, priced by
   the optimizer's own :meth:`~repro.core.optimizer.GDOptimizer.price`
   -- and resumes
   training under the winning plan from the current weights **and the
   current optimizer state**: the exported
   :class:`~repro.gd.state.OptimizerState` (step-schedule position,
   updater buffers, RNG stream, ...) is passed through the cross-plan
   transfer policy (:meth:`OptimizerState.transfer_to`) and imported by
   the next segment, so the MLlib ``beta/sqrt(i)`` schedule continues at
   global iteration ``k + 1`` instead of restarting with a giant
   ``beta/sqrt(1)`` step that undoes banked progress.

Every run produces an :class:`~repro.runtime.trace.ExecutionTrace`;
when a :class:`~repro.runtime.calibration.CalibrationStore` is supplied
the trace is folded into it, so the *next* optimization starts from
corrected estimates.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.executor import execute_plan
from repro.core.result import PlanCostEstimate
from repro.errors import EstimationError, PlanError
from repro.gd.state import OptimizerState
from repro.obs import span
from repro.runtime.calibration import cluster_signature, workload_signature
from repro.runtime.telemetry import AdaptiveSettings, ConvergenceMonitor
from repro.runtime.trace import (
    ExecutionTrace,
    PlanSegment,
    SwitchEvent,
    segment_from_result,
)


@dataclasses.dataclass(frozen=True)
class JobBudget:
    """Per-lease preemption budget of one :meth:`AdaptiveTrainer.train`
    call.

    A preemptible job is deliberately sliced across processes: each
    lease runs at most ``max_iterations`` training iterations and/or
    ``max_seconds`` wall-clock seconds, then stops gracefully with a
    ``preempted`` checkpoint that the next lease resumes bit-identically
    from.  Both limits are *per call*, not per job -- the job-wide
    iteration budget stays ``TrainingSpec.max_iter``.
    """

    max_iterations: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        # PlanError (a ReproError), not ValueError: budgets are built
        # from user request lines, and the CLI's per-request error
        # handling must catch a bad one instead of killing the server.
        if self.max_iterations is not None and self.max_iterations < 1:
            raise PlanError("budget max_iterations must be >= 1")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise PlanError("budget max_seconds must be positive")


@dataclasses.dataclass
class TrainerCheckpoint:
    """One checkpointable moment of a training run.

    Emitted through ``on_checkpoint`` at every cadence boundary, plan
    switch, graceful preemption and completion; the service layer
    persists it as a :class:`~repro.service.checkpoint.JobCheckpoint`,
    and hands the same record back as ``resume=`` to continue the run
    in a later lease.  ``status`` is ``"running"`` (more work to do),
    ``"preempted"`` (the lease budget stopped the run) or ``"done"``
    (converged or out of iteration budget).  ``state`` is the
    *exported* :class:`~repro.gd.state.OptimizerState` (its
    ``to_dict()``, or None) a resume imports -- the only copy of it:
    the trainer exports once per snapshot, and the trace's segments do
    not repeat it.  ``chosen`` is the plan being executed, ``trace``
    the segment history so far and ``done_iterations`` the global
    iterations banked.
    """

    status: str
    weights: object
    state: dict | None
    chosen: PlanCostEstimate
    trace: ExecutionTrace
    done_iterations: int
    switches_left: int


@dataclasses.dataclass
class AdaptiveResult:
    """Outcome of one adaptive training run."""

    #: The initial OptimizationReport (pre-switch decisions).
    report: object
    #: TrainResult of the final plan segment.
    result: object
    #: Full structured telemetry of the run.
    trace: ExecutionTrace
    #: Simulated seconds of the whole run (speculation + all segments).
    sim_seconds: float
    #: True when a :class:`JobBudget` stopped this lease before the job
    #: finished -- resume from the ``preempted`` checkpoint to continue.
    preempted: bool = False

    @property
    def weights(self):
        return self.result.weights

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def iterations(self) -> int:
        return self.trace.total_iterations

    @property
    def switched(self) -> bool:
        return self.trace.switched

    def summary(self) -> str:
        return self.trace.summary()


def remaining_iterations(curve, current_delta, target_tolerance) -> int:
    """Iterations a curve needs to go from ``current_delta`` to target.

    Reads both positions off the same fitted curve, so a systematically
    optimistic/pessimistic fit cancels out of the difference.
    """
    if not np.isfinite(current_delta) or current_delta <= target_tolerance:
        return 1
    total = curve.iterations_for(target_tolerance)
    done = curve.iterations_for(current_delta)
    return max(1, total - done)


class AdaptiveTrainer:
    """Optimize, execute, monitor, and re-optimize mid-flight.

    ``optimizer`` is a configured :class:`~repro.core.optimizer.GDOptimizer`
    (its engine carries the simulated clock across segments).
    ``calibration`` optionally receives the run's execution trace.

    Every segment carries the full
    :class:`~repro.gd.state.OptimizerState` into the next -- schedule
    position, updater buffers, RNG stream -- with the cross-plan
    transfer policy applied on every switch.
    """

    def __init__(self, optimizer, settings=None, calibration=None):
        self.optimizer = optimizer
        self.settings = settings or AdaptiveSettings()
        self.calibration = calibration

    # ------------------------------------------------------------------
    def train(self, dataset, training, fixed_iterations=None,
              report=None, resume=None, checkpoint_every=None,
              budget=None, on_checkpoint=None) -> AdaptiveResult:
        """Adaptively train to ``training.tolerance``.

        ``report`` may carry a precomputed OptimizationReport (e.g. from
        the serving layer's plan cache) so no re-speculation happens; by
        default the trainer optimizes first, charging speculation wall
        time into the simulated clock like ``GDOptimizer.train``.

        **Durable-job hooks.**  ``resume`` (the last
        :class:`TrainerCheckpoint` a previous lease's ``on_checkpoint``
        received) continues that run bit-identically instead of
        starting fresh (with ``resume`` set, a missing ``report`` is
        *not* recomputed -- the resumed plan is already decided).
        ``on_checkpoint`` receives a :class:`TrainerCheckpoint` at every
        ``checkpoint_every``-iteration cadence boundary (global
        iterations, exported mid-segment without perturbing the run),
        at every plan switch, on preemption and on completion.
        ``budget`` (a :class:`JobBudget`) bounds *this call*: when it
        runs out the lease stops gracefully, writes a ``preempted``
        checkpoint and returns ``AdaptiveResult.preempted``.
        """
        optimizer, engine = self.optimizer, self.optimizer.engine
        run_start = engine.clock
        if report is None and resume is None:
            report = optimizer.optimize(
                dataset, training, fixed_iterations=fixed_iterations
            )
            report.speculation_sim_s += report.charge_speculation(engine)

        estimates = report.iteration_estimates if report is not None else None
        iteration_budget = (
            int(fixed_iterations) if fixed_iterations is not None
            else training.max_iter
        )
        if resume is not None:
            trace = resume.trace
            chosen = resume.chosen
            weights = np.asarray(resume.weights, dtype=float)
            carried_state = (
                OptimizerState.from_dict(resume.state)
                if resume.state is not None else None
            )
            done_iterations = int(resume.done_iterations)
            switches_left = int(resume.switches_left)
            entry_notes = [
                f"resumed from checkpoint at global iteration "
                f"{done_iterations}"
            ]
        else:
            trace = ExecutionTrace(
                workload=dataset.stats.name,
                cluster_signature=cluster_signature(engine.spec),
                tolerance=training.tolerance,
            )
            chosen = report.chosen
            weights = None
            carried_state = None
            entry_notes = []
            switches_left = self.settings.max_switches
            done_iterations = 0
        lease_deadline = (
            time.perf_counter() + budget.max_seconds
            if budget is not None and budget.max_seconds is not None
            else None
        )
        lease_executed = 0
        preempted = False
        result = None

        while True:
            remaining = iteration_budget - done_iterations
            monitor = self._monitor(
                chosen, estimates, training, monitoring=switches_left > 0,
                iteration_offset=done_iterations,
                lease_iterations=(
                    budget.max_iterations - lease_executed
                    if budget is not None
                    and budget.max_iterations is not None else None
                ),
                lease_deadline=lease_deadline,
            )
            segment_training = self._segment_training(
                training, remaining, run_start
            )
            with span(
                "plan_segment",
                algorithm=chosen.plan.algorithm,
                plan=str(chosen.plan),
                start_iteration=done_iterations,
            ) as segment_span:
                result = execute_plan(
                    engine, dataset, chosen.plan, segment_training,
                    monitor=monitor, initial_weights=weights,
                    initial_state=carried_state,
                    checkpoint_every=(
                        checkpoint_every if on_checkpoint is not None
                        else None
                    ),
                    checkpoint_callback=self._cadence_callback(
                        on_checkpoint, trace, chosen, monitor, engine,
                        done_iterations, entry_notes, switches_left,
                    ),
                )
                segment_span.set("iterations", int(result.iterations))
                segment_span.set("converged", bool(result.converged))
                segment_span.set(
                    "stopped_by_monitor", bool(result.stopped_by_monitor)
                )
            segment = segment_from_result(
                result, chosen,
                observed_per_iteration_s=monitor.observed_per_iteration_s(),
                state_transfer=entry_notes,
            )
            trace.segments.append(segment)
            exported = result.state.to_dict()
            done_iterations += result.iterations
            lease_executed += result.iterations
            # Fold the observation in *now*, not at the end of the run:
            # a later re-optimization in this same run must remember
            # what this segment taught about its algorithm's true cost,
            # or it will happily switch straight back to it.  The
            # workload signature routes it to the two-level key, so this
            # dataset's own corrections take over once enough traces
            # accumulate.
            if self.calibration is not None:
                self.calibration.record_segment(
                    segment, engine.spec,
                    workload=workload_signature(dataset.stats),
                )

            remaining = iteration_budget - done_iterations
            if not result.stopped_by_monitor or remaining < 1:
                # Natural end -- converged, timed out, or the job-wide
                # iteration budget is spent.  The budget check must win
                # over a simultaneous lease preemption: a lease that
                # runs out exactly on the job's last iteration has
                # *finished* the job, and stamping it "preempted" would
                # make the next lease run past max_iter.
                self._emit(on_checkpoint, "done", result, exported,
                           chosen, trace, done_iterations, switches_left)
                break
            if monitor.preempted:
                preempted = True
                self._emit(on_checkpoint, "preempted", result, exported,
                           chosen, trace, done_iterations, switches_left)
                break
            if switches_left < 1:
                self._emit(on_checkpoint, "done", result, exported,
                           chosen, trace, done_iterations, switches_left)
                break
            weights = result.weights
            carried_state = result.state
            with span(
                "reoptimize", from_plan=str(chosen.plan)
            ) as reopt_span:
                new_chosen = self._reoptimize(
                    dataset, training, estimates, chosen, monitor, result,
                    remaining, run_start,
                )
                reopt_span.set(
                    "to_plan",
                    str(new_chosen.plan) if new_chosen is not None else None,
                )
                reopt_span.set(
                    "switched",
                    new_chosen is not None
                    and new_chosen.plan != chosen.plan,
                )
            if new_chosen is None or new_chosen.plan == chosen.plan:
                # No better plan for the remaining budget: carry on with
                # the current one (full state continuity -- same plan,
                # nothing to transfer) and stop second-guessing it.
                switches_left = 0
                entry_notes = (
                    ["full optimizer state carried (same plan resumed)"]
                    if carried_state is not None else []
                )
                if new_chosen is not None:
                    chosen = new_chosen
                self._emit(on_checkpoint, "running", result, exported,
                           chosen, trace, done_iterations, switches_left)
                continue
            switches_left -= 1
            if carried_state is not None:
                # Cross-plan switch: apply the transfer policy (offset
                # always carries, matching buffers carry, SVRG anchor
                # recomputes) and record what it decided in the trace.
                carried_state = carried_state.transfer_to(
                    new_chosen.plan.algorithm
                )
                entry_notes = list(carried_state.notes)
            else:
                entry_notes = []
            trace.switches.append(SwitchEvent(
                iteration=done_iterations,
                from_plan=str(chosen.plan),
                to_plan=str(new_chosen.plan),
                reason=monitor.reason or "divergence",
                clock=float(engine.clock),
            ))
            chosen = new_chosen
            # Switch-boundary checkpoint: the state to persist is the
            # *transferred* one the next segment will import, under the
            # *new* plan -- exactly what a resume must replay.
            self._emit(on_checkpoint, "running", result,
                       carried_state.to_dict()
                       if carried_state is not None else None,
                       chosen, trace, done_iterations, switches_left)

        return AdaptiveResult(
            report=report,
            result=result,
            trace=trace,
            sim_seconds=float(engine.clock - run_start),
            preempted=preempted,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _emit(on_checkpoint, status, result, state, chosen, trace,
              done_iterations, switches_left) -> None:
        """Hand one segment-boundary checkpoint to ``on_checkpoint``;
        ``state`` is the exported state dict a resume would import."""
        if on_checkpoint is None:
            return
        on_checkpoint(TrainerCheckpoint(
            status=status,
            weights=result.weights,
            state=state,
            chosen=chosen,
            trace=trace,
            done_iterations=int(done_iterations),
            switches_left=int(switches_left),
        ))

    def _cadence_callback(self, on_checkpoint, trace, chosen, monitor,
                          engine, done_before, entry_notes, switches_left):
        """The executor-level mid-segment checkpoint hook for one
        segment (None when no ``on_checkpoint`` is attached).

        The snapshot's trace ends in a ``partial`` segment -- the
        in-flight prefix built from the monitor's telemetry -- so a
        crash after this checkpoint loses no banked trajectory: the
        resumed run keeps the prefix as history and continues after it.
        """
        if on_checkpoint is None:
            return None
        segment_clock_start = engine.clock
        breakdown = chosen.breakdown or {}

        def callback(global_iteration, weights, state):
            partial = PlanSegment(
                plan=str(chosen.plan),
                algorithm=chosen.plan.algorithm,
                predicted_iterations=int(chosen.estimated_iterations),
                predicted_per_iteration_s=float(chosen.per_iteration_s),
                predicted_total_s=float(chosen.total_s),
                applied_cost_factor=float(
                    breakdown.get("calibration:cost_factor", 1.0)
                ),
                applied_iterations_factor=float(
                    breakdown.get("calibration:iterations_factor", 1.0)
                ),
                iterations=int(global_iteration - done_before),
                sim_seconds=float(engine.clock - segment_clock_start),
                converged=False,
                stopped_by_monitor=False,
                observed_per_iteration_s=float(
                    monitor.observed_per_iteration_s() or 0.0
                ),
                deltas=[float(d) for d in monitor.deltas],
                state_transfer=list(entry_notes),
                partial=True,
            )
            on_checkpoint(TrainerCheckpoint(
                status="running",
                weights=weights,
                state=state.to_dict(),
                chosen=chosen,
                trace=trace.with_partial(partial),
                done_iterations=int(global_iteration),
                switches_left=int(switches_left),
            ))

        return callback

    # ------------------------------------------------------------------
    def _monitor(self, chosen, estimates, training, monitoring,
                 iteration_offset, lease_iterations, lease_deadline):
        """A ConvergenceMonitor for one segment (telemetry-only when
        switching is exhausted) that also enforces the lease budget.
        ``iteration_offset`` -- global iterations completed before the
        segment -- aligns the error-space check with the from-scratch
        speculated curve."""
        common = dict(settings=self.settings,
                      lease_iterations=lease_iterations,
                      lease_deadline=lease_deadline)
        if not monitoring:
            # Record telemetry but never trip: thresholds unreachable.
            return ConvergenceMonitor(training.tolerance, **common)
        curve = None
        if estimates is not None:
            estimate = estimates.get(chosen.plan.algorithm)
            curve = estimate.curve if estimate is not None else None
        return ConvergenceMonitor(
            target_tolerance=training.tolerance,
            speculated_curve=curve,
            predicted_iterations=chosen.estimated_iterations,
            predicted_per_iteration_s=chosen.per_iteration_s,
            iteration_offset=iteration_offset,
            **common,
        )

    def _segment_training(self, training, remaining_budget, run_start):
        """The TrainingSpec for one segment: remaining iteration budget,
        and the remaining slice of the simulated time budget (the
        executor measures its budget from each segment's own start, so
        every segment must be handed what is actually left)."""
        time_budget = training.time_budget_s
        if time_budget is not None:
            elapsed = self.optimizer.engine.clock - run_start
            # Keep it positive: TrainingSpec validates > 0, and a spent
            # budget should stop after the next iteration, not crash.
            time_budget = max(time_budget - elapsed, 1e-9)
        return dataclasses.replace(
            training,
            max_iter=max(1, int(remaining_budget)),
            time_budget_s=time_budget,
        )

    # ------------------------------------------------------------------
    def _reoptimize(self, dataset, training, estimates, current, monitor,
                    result, remaining_budget, run_start):
        """Re-run plan selection over the remaining error budget.

        Returns the winning :class:`PlanCostEstimate` (plan == current's
        means "stay the course"), or None when selection is impossible.
        Pricing is :meth:`GDOptimizer.price`, the function the initial
        ranking used; what is specific to mid-flight is its inputs.
        """
        optimizer = self.optimizer
        # The trainer's store already holds this run's earlier segments.
        corrections = optimizer.corrections(dataset, self.calibration)

        iters_for = {}
        iter_factors = {}
        for alg in optimizer.algorithms:
            iters_for[alg], iter_factors[alg] = self._remaining_for(
                alg, estimates, current, monitor, result.final_delta,
                training, remaining_budget, corrections,
            )
        cost_factors = {alg: c.cost_factor for alg, c in corrections.items()}
        # Fold the live observation in: we *know* what the running
        # algorithm's iterations cost on this cluster, so its plans are
        # re-priced by observed/base rather than by any model guess
        # (base = the running plan's price without the factor it was
        # priced under).
        observed = monitor.observed_per_iteration_s()
        if observed is not None and observed > 0 \
                and current.per_iteration_s > 0:
            applied = (current.breakdown or {}).get(
                "calibration:cost_factor", 1.0
            )
            cost_factors[current.plan.algorithm] = observed / (
                current.per_iteration_s / applied
            )

        time_left = None
        if training.time_budget_s is not None:
            elapsed = optimizer.engine.clock - run_start
            time_left = training.time_budget_s - elapsed
        candidates = optimizer.price(
            dataset.stats, iters_for, cost_factors, iter_factors, time_left
        )
        # When nothing fits anyway, stay on the current plan rather
        # than raising mid-training.
        return min(
            (c for c in candidates if c.feasible),
            key=lambda c: c.total_s, default=None,
        )

    @staticmethod
    def _remaining_for(alg, estimates, current, monitor, current_delta,
                       training, remaining_budget, corrections):
        """(remaining iterations, applied correction factor) for one
        algorithm."""
        curve = None
        factor = 1.0
        if alg == current.plan.algorithm:
            if monitor.refit_curve is not None:
                # The live refit already reflects reality; no correction.
                curve = monitor.refit_curve
            elif not monitor.curve_diverged and estimates is not None \
                    and estimates.get(alg) is not None:
                # Cost-triggered stop: the speculated curve is still
                # credible.  (A curve-triggered stop without a usable
                # refit falls through to the pessimistic budget below.)
                curve = estimates[alg].curve
        elif estimates is not None and estimates.get(alg) is not None:
            curve = estimates[alg].curve
            factor = (
                corrections[alg].iterations_factor if corrections else 1.0
            )
        if curve is None:
            return max(1, int(remaining_budget)), 1.0
        try:
            remaining = remaining_iterations(
                curve, current_delta, training.tolerance
            )
        except EstimationError:
            return max(1, int(remaining_budget)), 1.0
        remaining = max(1, int(round(remaining * factor)))
        return min(remaining, max(1, int(remaining_budget))), factor
