"""Extension: the adaptive runtime vs the one-shot optimizer.

The paper's optimizer never revisits its choice, so a wrong cost model
is paid for the whole run.  This experiment injects a known fault -- a
:class:`~repro.runtime.PerturbedCostModel` that *under*-estimates one
algorithm's per-iteration cost by an integer factor, making the
optimizer mis-pick it -- and measures four executions of the same
workload:

1. **one-shot honest** -- the faithful cost model (reference);
2. **one-shot perturbed** -- the mis-picked plan, ridden to the end;
3. **adaptive perturbed** -- the same mis-pick, but the convergence/cost
   monitor notices mid-flight, re-runs plan selection over the remaining
   error budget and switches plans without losing model state;
4. **calibrated repeat** -- the same request again through the serving
   layer: the first run's trace taught the calibration store the true
   cost, so the cached speculation is re-costed (no re-speculation) and
   the honest plan is chosen outright.

Speculation runs once and is shared across all modes, so differences in
simulated seconds are pure execution-cost differences.
"""

from __future__ import annotations

import math

from repro.core.executor import execute_plan
from repro.core.optimizer import GDOptimizer
from repro.core.plans import TrainingSpec
from repro.experiments.common import ExperimentContext
from repro.experiments.report import Table
from repro.runtime import (
    AdaptiveTrainer,
    CalibrationStore,
    PerturbedCostModel,
)
from repro.service import OptimizerService

#: Under-estimation factors tried until the perturbed optimizer actually
#: flips its choice to the victim algorithm.
PERTURB_FACTORS = (0.25, 0.125, 0.0625)

DATASET = "adult"

#: The switch-heavy scenario pits the two adaptive-direction MGD
#: variants against each other: both keep updater buffers *and* ride the
#: MLlib ``beta/sqrt(i)`` schedule, so a mid-flight switch that resets
#: optimizer state pays maximally (schedule restart + zeroed buffers +
#: Adam bias-correction restart).
SWITCH_ALGORITHMS = ("momentum", "adam")
SWITCH_TOLERANCE = 1e-2


def _optimizer(ctx, seed_offset, cost_model=None, calibration=None):
    return GDOptimizer(
        ctx.engine(seed_offset),
        estimator=ctx.estimator(),
        cost_model=cost_model,
        calibration=calibration,
    )


def run(ctx=None) -> Table:
    ctx = ctx or ExperimentContext.from_env()
    dataset = ctx.dataset(DATASET)
    training = TrainingSpec(
        task="logreg",
        tolerance=ctx.tolerance(DATASET),
        max_iter=ctx.max_iter,
        seed=ctx.seed,
    )

    # Speculate once; every mode below re-costs these same estimates.
    estimates = ctx.estimator().estimate_all(
        dataset.X,
        dataset.y,
        training.gradient(),
        target_tolerance=training.tolerance,
        step_size=training.step_size,
        convergence=training.convergence,
    )

    # Mode 1: one-shot, honest cost model.
    honest_opt = _optimizer(ctx, 1)
    honest_report = honest_opt.optimize(
        dataset, training, iteration_estimates=estimates
    )
    honest_result = execute_plan(
        honest_opt.engine, dataset, honest_report.chosen_plan, training
    )
    honest_alg = honest_report.chosen_plan.algorithm

    # Fault injection: under-estimate the best *other* algorithm until
    # the optimizer mis-picks it.
    victim = next(
        c.plan.algorithm
        for c in honest_report.ranking()
        if c.plan.algorithm != honest_alg
    )
    perturbed_model = None
    perturbed_report = None
    factor = None
    for candidate_factor in PERTURB_FACTORS:
        model = PerturbedCostModel(ctx.spec, {victim: candidate_factor})
        report = _optimizer(ctx, 2, cost_model=model).optimize(
            dataset, training, iteration_estimates=estimates
        )
        if report.chosen_plan.algorithm == victim:
            perturbed_model, perturbed_report = model, report
            factor = candidate_factor
            break
    if perturbed_report is None:
        raise RuntimeError(
            f"fault injection failed: under-pricing {victim} by up to "
            f"{1 / PERTURB_FACTORS[-1]:g}x never flipped the optimizer's "
            f"choice away from {honest_report.chosen_plan} -- pick a "
            "different victim or workload"
        )
    notes = [
        f"fault injection: cost model x{factor:g} on {victim} "
        f"(under-estimated {1 / factor:g}x); honest choice was "
        f"{honest_report.chosen_plan}",
    ]

    rows = [{
        "mode": "one-shot honest",
        "plan": str(honest_report.chosen_plan),
        "iterations": honest_result.iterations,
        "sim_s": round(honest_result.sim_seconds, 2),
        "switches": 0,
    }]

    # Mode 2: one-shot, perturbed -- rides the mis-pick to the end.
    oneshot_engine = ctx.engine(3)
    oneshot_result = execute_plan(
        oneshot_engine, dataset, perturbed_report.chosen_plan, training
    )
    rows.append({
        "mode": "one-shot perturbed",
        "plan": str(perturbed_report.chosen_plan),
        "iterations": oneshot_result.iterations,
        "sim_s": round(oneshot_result.sim_seconds, 2),
        "switches": 0,
    })

    # Mode 3: adaptive, perturbed -- monitored execution, mid-flight
    # re-optimization, trace-fed calibration.
    store = CalibrationStore()
    adaptive_opt = _optimizer(
        ctx, 3, cost_model=perturbed_model, calibration=store
    )
    trainer = AdaptiveTrainer(adaptive_opt, calibration=store)
    adaptive = trainer.train(dataset, training, report=perturbed_report)
    rows.append({
        "mode": "adaptive perturbed",
        "plan": " -> ".join(s.plan for s in adaptive.trace.segments),
        "iterations": adaptive.iterations,
        "sim_s": round(adaptive.sim_seconds, 2),
        "switches": len(adaptive.trace.switches),
    })

    # Mode 4: the same workload again, through the serving layer sharing
    # the calibration store: re-costed from cached speculation (no
    # re-speculation), honest plan chosen outright.
    service = OptimizerService(
        spec=ctx.spec,
        seed=ctx.seed,
        speculation=ctx.speculation,
        cost_model=perturbed_model,
        calibration=store,
    )
    first = service.train(dataset, training, adaptive=True)
    repeat = service.train(dataset, training, adaptive=True)
    rows.append({
        "mode": "calibrated repeat",
        "plan": " -> ".join(s.plan for s in repeat.trace.segments),
        "iterations": repeat.result.iterations,
        "sim_s": round(repeat.adaptive.sim_seconds, 2),
        "switches": len(repeat.trace.switches),
    })
    repeat_source = (
        "recalibrated from cached speculation"
        if repeat.optimization.recalibrated else "served from cache"
    )
    notes.append(
        f"repeat request: {repeat_source}; service computed "
        f"{service.metrics.value('service.computed')} optimization(s) for "
        f"{service.metrics.value('service.requests')} requests"
    )
    corrections = "; ".join(
        f"{alg}: cost x{c.cost_factor:.2f}"
        for alg, c in sorted(store.corrections_for(ctx.spec).items())
    )
    notes.append(f"learned corrections: {corrections}")
    del first

    return Table(
        experiment="Extension D",
        title="Adaptive runtime vs one-shot optimizer under a perturbed "
              "cost model",
        columns=["mode", "plan", "iterations", "sim_s", "switches"],
        rows=rows,
        notes=notes,
    )


def run_switch(ctx=None) -> Table:
    """Switch-heavy scenario: optimizer state carried across switches.

    A perturbed cost model forces a mis-pick between momentum and Adam;
    the convergence/cost monitor notices and switches mid-flight (twice,
    with the default switch budget).  Every post-switch segment imports
    the transferred :class:`~repro.gd.state.OptimizerState`, so the
    MLlib ``beta/sqrt(i)`` schedule resumes at global ``k + 1`` -- the
    first post-switch step is *continuous* -- where a weights-only
    hand-over would restart it at ``beta/sqrt(1)``, undo banked
    progress and ride the iteration cap.
    """
    ctx = ctx or ExperimentContext.from_env()
    dataset = ctx.dataset(DATASET)
    training = TrainingSpec(
        task="logreg",
        tolerance=SWITCH_TOLERANCE,
        max_iter=ctx.max_iter,
        seed=ctx.seed,
    )
    estimates = ctx.estimator().estimate_all(
        dataset.X,
        dataset.y,
        training.gradient(),
        target_tolerance=training.tolerance,
        step_size=training.step_size,
        convergence=training.convergence,
        algorithms=SWITCH_ALGORITHMS,
    )

    def optimizer(seed_offset, cost_model=None):
        return GDOptimizer(
            ctx.engine(seed_offset),
            estimator=ctx.estimator(),
            algorithms=SWITCH_ALGORITHMS,
            cost_model=cost_model,
        )

    honest = optimizer(1).optimize(
        dataset, training, iteration_estimates=estimates
    )
    victim = next(
        c.plan.algorithm
        for c in honest.ranking()
        if c.plan.algorithm != honest.chosen_plan.algorithm
    )
    perturbed_model = None
    report = None
    factor = None
    for candidate_factor in PERTURB_FACTORS:
        model = PerturbedCostModel(ctx.spec, {victim: candidate_factor})
        candidate = optimizer(2, cost_model=model).optimize(
            dataset, training, iteration_estimates=estimates
        )
        if candidate.chosen_plan.algorithm == victim:
            perturbed_model, report, factor = model, candidate, candidate_factor
            break
    if report is None:
        raise RuntimeError(
            f"fault injection failed: under-pricing {victim} never flipped "
            f"the optimizer away from {honest.chosen_plan}"
        )

    carried = AdaptiveTrainer(
        optimizer(3, cost_model=perturbed_model)
    ).train(dataset, training, report=report)
    rows = [{
        "mode": "state carried",
        "plan": " -> ".join(s.plan for s in carried.trace.segments),
        "iterations": carried.iterations,
        "sim_s": round(carried.sim_seconds, 2),
        "switches": len(carried.trace.switches),
        "converged": carried.converged,
    }]
    notes = [
        f"fault injection: cost model x{factor:g} on {victim}; honest "
        f"choice was {honest.chosen_plan}",
    ]
    if carried.trace.switches:
        switch_iteration = carried.trace.switches[0].iteration
        beta = (
            float(training.step_size)
            if isinstance(training.step_size, (int, float)) else 1.0
        )
        resumed_alpha = beta / math.sqrt(switch_iteration + 1)
        post = carried.trace.segments[1]
        # The final state's offset, less every post-switch segment's
        # iterations: the offset the first switch carried.
        carried_offset = carried.result.state.iteration_offset - sum(
            s.iterations for s in carried.trace.segments[1:]
        )
        notes.append(
            f"post-switch step size continuous: beta/sqrt("
            f"{switch_iteration + 1}) = {resumed_alpha:.4f} at global "
            f"iteration {carried_offset + 1} (a state-reset run restarts "
            f"at beta/sqrt(1) = {beta:g})"
        )
        for note in post.state_transfer:
            notes.append(f"state transfer: {note}")
    return Table(
        experiment="Extension D (switch-heavy)",
        title="Mid-flight switches with optimizer-state carry-over",
        columns=["mode", "plan", "iterations", "sim_s", "switches",
                 "converged"],
        rows=rows,
        notes=notes,
    )
