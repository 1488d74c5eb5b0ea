"""GD plan executor: real math on physical data, simulated time.

Runs a :class:`~repro.core.plans.GDPlan` against a
:class:`~repro.cluster.engine.SimulatedCluster`:

* every data touch charges the engine (IO waves, sampling strategies,
  network aggregation, job overheads) so ``TrainResult.sim_seconds`` is
  the plan's simulated training time, and
* every gradient/update/convergence decision is computed for real through
  the plan's operator bundle, so iteration counts and the learned model
  are genuine.

Operator placement follows Appendix D: an operator whose input spans more
than one partition runs distributed (waves + job overhead); otherwise it
runs driver-local.  Stochastic plans with random/shuffled sampling become
"mix-based" plans -- Sample runs on the cluster, the batch is collected,
and Compute/Update run at the driver -- exactly the SGD plan the paper
reports ML4all producing.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.sampling import make_sampler
from repro.core.context import Context
from repro.core.cost_model import (
    compute_cpu_per_unit,
    converge_cpu,
    layout_for,
    transform_cpu_per_unit,
    update_cpu,
)
from repro.core.result import TrainResult
from repro.errors import PlanError
from repro.gd import registry as gd_registry
from repro.gd.base import Updater
from repro.gd.gradients import take_rows
from repro.gd.state import (
    OptimizerState,
    capture_rng,
    kernel_fields,
    load_kernel,
    restore_rng,
)


class PlanExecutor:
    """Executes one GD plan on the simulated cluster.

    ``monitor`` is an optional execution observer (duck-typed; see
    :mod:`repro.runtime.telemetry`): after every iteration the executor
    calls ``monitor.on_iteration(iteration, delta, clock)``.  A truthy
    return value requests a *graceful stop* -- the loop exits with
    ``TrainResult.stopped_by_monitor`` set, keeping the current model
    state, which is how the adaptive runtime switches plans mid-flight.
    With ``monitor=None`` (the default) behaviour is bit-identical to
    the unobserved executor.

    ``initial_weights`` seeds the model vector after Stage runs, so a
    follow-up plan can resume from where a stopped one left off.

    ``initial_state`` additionally resumes the *rest* of the optimizer
    state -- the step-schedule position (global iteration offset), the
    step kernel's state (direction buffers, SVRG anchor, Arc phase),
    convergence-criterion memory
    and the sampling RNG stream -- from an
    :class:`~repro.gd.state.OptimizerState` a previous run exported
    (every :class:`~repro.core.result.TrainResult` carries one).  With
    both set, stop-at-k + resume reproduces the uninterrupted run
    bit-identically for same-algorithm segments; a cross-algorithm
    resume applies whatever the transfer policy kept (see
    :meth:`OptimizerState.transfer_to`).
    """

    def __init__(self, engine, dataset, plan, training, operators=None,
                 monitor=None, initial_weights=None, initial_state=None,
                 checkpoint_every=None, checkpoint_callback=None):
        self.engine = engine
        self.dataset = dataset
        self.plan = plan
        self.training = training
        self.monitor = monitor
        if checkpoint_every is not None and checkpoint_every < 1:
            raise PlanError("checkpoint_every must be >= 1")
        #: Mid-run state export: every ``checkpoint_every`` *global*
        #: iterations the loop passes (and keeps going),
        #: ``checkpoint_callback(global_iteration, weights_copy,
        #: OptimizerState)`` fires.  Pure observation -- attaching it is
        #: behaviour-preserving -- but each exported snapshot resumes the
        #: run bit-identically, which is what makes crash-and-resume
        #: training jobs equivalent to uninterrupted ones.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_callback = checkpoint_callback
        self.initial_weights = (
            None if initial_weights is None
            else np.array(initial_weights, dtype=float, copy=True)
        )
        self.initial_state = (
            OptimizerState.from_dict(initial_state)
            if isinstance(initial_state, dict) else initial_state
        )
        offset = (
            0 if self.initial_state is None
            else int(self.initial_state.iteration_offset)
        )
        self._iteration_offset = offset
        d = dataset.stats.d
        #: ``X[rows]`` for a custom bundle, flat CSR rows for ours.
        self._take = take_rows if operators is None \
            else (lambda X, rows: X[rows])
        if operators is None:
            # The reference bundle, driving the step kernel of the
            # algorithm's registered spec.
            operators = gd_registry.make_operators(
                plan, d=d, training=training, iteration_offset=offset,
            )
        self.ops = operators
        #: The step kernel, found on the Update operator: reset after
        #: Stage, it owns the full-pass cadence and the algorithm's
        #: carry-over state.  A user Update without one counts as
        #: vanilla GD: every iteration on the plan's sample, and a
        #: weights-only resume.
        self._kernel = getattr(operators.update, "updater", None) \
            or Updater()
        self._rng = np.random.default_rng(training.seed)
        if self.initial_state is not None:
            restore_rng(self._rng, self.initial_state.rng_state)

    # ------------------------------------------------------------------
    def run(self) -> TrainResult:
        engine, plan, ds = self.engine, self.plan, self.dataset
        spec = engine.spec
        training = self.training
        t0 = engine.clock
        phase0 = {k: v.sim_seconds for k, v in engine.metrics.phases.items()}

        context = Context()
        # Stage: driver-local initialisation (Listing 4).
        self.ops.stage.stage(context)
        engine.local_op("stage")
        kernel = self._kernel
        kernel.reset(ds.stats.d)
        if self.initial_weights is not None:
            staged = context.require("weights")
            if staged.shape != self.initial_weights.shape:
                raise PlanError(
                    f"initial_weights shape {self.initial_weights.shape} does "
                    f"not match the staged model shape {staged.shape}"
                )
            context.put("weights", self.initial_weights)

        # ---- preparation: eager vs lazy transformation ----------------
        if plan.transform_mode == "eager":
            loop_ds = ds.as_binary()
            text_layout = layout_for(spec, ds.stats, "text")
            engine.scan(
                ds,
                phase="transform",
                cpu_per_row_s=transform_cpu_per_unit(spec, text_layout),
                cache=False,
            )
            # Parsed units are written into executor cache memory.
            engine.charge(
                loop_ds.total_bytes / spec.page_bytes * spec.page_io_mem_s
                / spec.cap,
                "transform",
            )
            engine.cache.insert(loop_ds)
            X_full, y_full = self.ops.transform.transform(ds.X, ds.y, context)
        else:
            if not plan.is_stochastic:
                raise PlanError("full-batch plans cannot use lazy transformation")
            loop_ds = ds
            X_full, y_full = ds.X, ds.y

        loop_layout = layout_for(spec, ds.stats, loop_ds.representation)
        weight_bytes = ds.stats.weight_vector_bytes
        distributed = loop_ds.n_partitions > 1

        sampler = None
        if plan.is_stochastic:
            sampler = make_sampler(
                plan.sampling, engine, loop_ds, plan.effective_batch_size,
                rng=self._rng,
            )

        converge_imported = self._import_state(context, sampler)
        if not converge_imported:
            # Prime Converge with the initial weights so the first delta
            # compares Update's output against w0.
            self.ops.converge.converge(context.require("weights"), context)

        deltas = []
        converged = False
        timed_out = False
        stopped_by_monitor = False
        iterations = 0

        for i in range(1, training.max_iter + 1):
            context.put("iter", i)
            # Full passes of a stochastic plan (SVRG anchors, Arc GD's
            # gradient probes) run, and are charged, as BGD iterations.
            if plan.is_stochastic and not kernel.full_pass(
                    self._iteration_offset + i):
                aggregated = self._stochastic_iteration(
                    context, sampler, loop_ds, loop_layout, X_full, y_full,
                    weight_bytes, distributed,
                )
            else:
                aggregated = self._full_batch_iteration(
                    context, loop_ds, loop_layout, X_full, y_full,
                    weight_bytes, distributed,
                )

            w_new = self.ops.update.update(aggregated, context)
            engine.charge(update_cpu(spec, loop_layout), "update")

            delta = self.ops.converge.converge(w_new, context)
            engine.charge(
                converge_cpu(spec, loop_layout) + spec.local_overhead_s,
                "converge",
            )
            engine.charge(spec.loop_s + spec.iteration_overhead_s, "loop")
            deltas.append(delta)
            iterations = i

            # The monitor observes every iteration (telemetry); its stop
            # request is honoured only after the plan's own exit checks,
            # so convergence always wins over a mid-flight switch.
            stop_requested = (
                self.monitor is not None
                and bool(self.monitor.on_iteration(i, delta, engine.clock))
            )
            if delta < training.tolerance:
                converged = True
                break
            if not self.ops.loop.should_continue(delta, context):
                break
            if (
                training.time_budget_s is not None
                and engine.clock - t0 > training.time_budget_s
            ):
                timed_out = True
                break
            if stop_requested:
                stopped_by_monitor = True
                break
            if (
                self.checkpoint_every is not None
                and self.checkpoint_callback is not None
                and i < training.max_iter
                and (self._iteration_offset + i) % self.checkpoint_every == 0
            ):
                # Iterations the loop exits on are not exported here --
                # the TrainResult's own state snapshot covers them.
                self.checkpoint_callback(
                    self._iteration_offset + i,
                    context.require("weights").copy(),
                    self._export_state(context, sampler, i),
                )

        phase_seconds = {
            k: v.sim_seconds - phase0.get(k, 0.0)
            for k, v in engine.metrics.phases.items()
            if v.sim_seconds - phase0.get(k, 0.0) > 0
        }
        return TrainResult(
            plan=plan,
            weights=context.require("weights"),
            iterations=iterations,
            converged=converged,
            deltas=np.asarray(deltas),
            sim_seconds=engine.clock - t0,
            phase_seconds=phase_seconds,
            metrics=engine.metrics.snapshot(),
            timed_out=timed_out,
            stopped_by_monitor=stopped_by_monitor,
            state=self._export_state(context, sampler, iterations),
        )

    # ------------------------------------------------------------------
    def _import_state(self, context, sampler) -> bool:
        """Seed context/operators/sampler from ``initial_state``.

        Runs after Stage and the ``initial_weights`` injection.  All
        operator hooks are duck-typed so custom bundles degrade to a
        weights-only resume rather than crashing.  Returns True when the
        Converge operator's memory was restored (the caller then skips
        re-priming it).
        """
        state = self.initial_state
        if state is None:
            return False
        context.put("iteration_offset", self._iteration_offset)
        load_kernel(self._kernel, state)
        if sampler is not None and state.sampler is not None \
                and hasattr(sampler, "load_state"):
            sampler.load_state(state.sampler)
        if state.convergence is not None and hasattr(self.ops.converge,
                                                     "import_state"):
            self.ops.converge.import_state(state.convergence)
            return True
        return False

    def _export_state(self, context, sampler, iterations) -> OptimizerState:
        """Snapshot the run's carry-over state at exit (duck-typed;
        custom operator bundles export whatever hooks they provide)."""
        sampler_state = None
        if sampler is not None and hasattr(sampler, "state_dict"):
            sampler_state = sampler.state_dict() or None
        convergence = None
        if hasattr(self.ops.converge, "export_state"):
            convergence = self.ops.converge.export_state()
        return OptimizerState(
            iteration_offset=self._iteration_offset + iterations,
            convergence=convergence,
            rng_state=capture_rng(self._rng),
            sampler=sampler_state,
            **kernel_fields(self._kernel),
        )

    # ------------------------------------------------------------------
    def _full_batch_iteration(
        self, context, loop_ds, loop_layout, X_full, y_full,
        weight_bytes, distributed,
    ):
        """One BGD-style pass: distributed partial gradients, aggregate."""
        engine, spec = self.engine, self.engine.spec
        engine.scan(
            loop_ds,
            phase="compute",
            cpu_per_row_s=compute_cpu_per_unit(spec, loop_layout),
        )
        aggregated = None
        for part in loop_ds.partitions:
            Xp = X_full[part.phys_lo:part.phys_hi]
            yp = y_full[part.phys_lo:part.phys_hi]
            partial = self.ops.compute.compute(Xp, yp, context)
            aggregated = (
                partial if aggregated is None
                else self.ops.compute.combine(aggregated, partial)
            )
        if distributed:
            engine.aggregate(
                loop_ds.n_partitions, weight_bytes, phase="update"
            )
            engine.broadcast_weights(weight_bytes, phase="update")
        return aggregated

    def _stochastic_iteration(
        self, context, sampler, loop_ds, loop_layout, X_full, y_full,
        weight_bytes, distributed,
    ):
        """One Sample -> (lazy Transform) -> Compute pass.

        For random/shuffled sampling on a distributed dataset this is the
        mix-based plan of Appendix D: Sample (and lazy Transform, and the
        gradient) run *data-locally* on the executor holding the sampled
        partition -- parallel across that node's cores -- and only the
        partial gradient (a weight-sized vector) travels to the driver,
        where Update runs.  This is the Compute/Update separation the
        Bismarck baseline cannot express.
        """
        engine, spec, plan = self.engine, self.engine.spec, self.plan
        draw = sampler.draw()
        Xb, yb = self._take(X_full, draw.indices), y_full[draw.indices]
        local_parallelism = spec.slots_per_node if distributed else 1

        if plan.transform_mode == "lazy":
            engine.charge(
                draw.sim_size * transform_cpu_per_unit(spec, loop_layout)
                / local_parallelism,
                "transform",
            )
            Xb, yb = self.ops.transform.transform(Xb, yb, context)

        if plan.sampling == "bernoulli" and distributed:
            # Sampled units stay spread over the cluster: distributed
            # gradient with partial aggregation (the sampling scan
            # already launched the job).
            engine.charge(
                draw.sim_size * compute_cpu_per_unit(spec, loop_layout)
                / spec.cap,
                "compute",
            )
            engine.aggregate(
                loop_ds.n_partitions, weight_bytes, phase="update"
            )
            engine.broadcast_weights(weight_bytes, phase="update")
        else:
            if distributed:
                # One job per iteration: ship the model to the sampled
                # partition's executor, compute there, return the partial.
                engine.job("sample")
                engine.collect(weight_bytes, "update")
            engine.charge(
                draw.sim_size * compute_cpu_per_unit(spec, loop_layout)
                / local_parallelism,
                "compute",
            )
            if distributed:
                engine.collect(weight_bytes, "update")
        return self.ops.compute.compute(Xb, yb, context)


def execute_plan(engine, dataset, plan, training, operators=None,
                 monitor=None, initial_weights=None,
                 initial_state=None, checkpoint_every=None,
                 checkpoint_callback=None) -> TrainResult:
    """Convenience wrapper: build a :class:`PlanExecutor` and run it."""
    return PlanExecutor(
        engine, dataset, plan, training, operators,
        monitor=monitor, initial_weights=initial_weights,
        initial_state=initial_state, checkpoint_every=checkpoint_every,
        checkpoint_callback=checkpoint_callback,
    ).run()
