"""The cost-based GD optimizer (Sections 3, 6, 7).

Given a dataset and a training spec, the optimizer

1. estimates T(epsilon) for each candidate GD algorithm with the
   speculation-based iterations estimator (skipped -- "less than 100 msec"
   in the paper -- when the user fixed the iteration count),
2. enumerates the plan space of Figure 5,
3. costs every plan with the Section 7 cost model, and
4. picks the cheapest plan that satisfies the user's constraints,
   raising :class:`~repro.errors.ConstraintError` naming the constraint
   to revisit when none does (Appendix A semantics).

Steps 2-4 go through :meth:`GDOptimizer.price` -- the analytic model
times one learned cost factor per algorithm -- which is also what a
stale cache entry is re-costed with and what the adaptive runtime ranks
mid-flight: every :class:`PlanCostEstimate` is built there.

Like database optimizers, "the main goal of our optimizer is to avoid the
worst execution plans" (Section 3) -- correctness of the *ranking* matters
more than absolute accuracy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cost_model import CostModel
from repro.core.executor import execute_plan
from repro.core.iterations import SpeculativeEstimator
from repro.core.plan_space import enumerate_plans
from repro.core.result import OptimizationReport, PlanCostEstimate
from repro.errors import ConstraintError, PlanError
from repro.gd.registry import CORE_ALGORITHMS
from repro.obs import span
from repro.obs.spans import NULL_SPAN
from repro.runtime.calibration import workload_signature


class GDOptimizer:
    """Cost-based choice among GD execution plans."""

    def __init__(
        self,
        engine,
        estimator=None,
        algorithms=CORE_ALGORITHMS,
        batch_sizes=None,
        cost_model=None,
        calibration=None,
    ):
        self.engine = engine
        self.estimator = estimator or SpeculativeEstimator()
        self.algorithms = tuple(algorithms)
        self.batch_sizes = dict(batch_sizes or {})
        self.cost_model = cost_model or CostModel(engine.spec)
        #: Optional :class:`~repro.runtime.calibration.CalibrationStore`.
        #: When set, learned per-(algorithm, cluster) correction factors
        #: scale the cost model's per-iteration estimates and the
        #: speculative iteration counts; an empty store is the identity.
        self.calibration = calibration

    # ------------------------------------------------------------------
    def optimize(self, dataset, training, fixed_iterations=None,
                 iteration_estimates=None) -> OptimizationReport:
        """Choose the best plan; returns the full :class:`OptimizationReport`.

        ``fixed_iterations`` short-circuits speculation with a known
        iteration count (the "run for exactly N iterations" query shape;
        the paper reports sub-100 ms optimization time for it).

        ``iteration_estimates`` short-circuits speculation with
        *precomputed* per-algorithm :class:`IterationsEstimate` results
        (e.g. the serving layer re-costing a cached workload after the
        calibration store learned new correction factors -- calibrated
        estimates without re-speculation).
        """
        with span(
            "plan_choice",
            fixed_iterations=fixed_iterations,
            precosted=iteration_estimates is not None,
        ) as choice_span:
            report = self._optimize(
                dataset, training, fixed_iterations, iteration_estimates
            )
            choice_span.set("chosen", str(report.chosen_plan))
            choice_span.set(
                "estimated_iterations", report.chosen.estimated_iterations
            )
            choice_span.set("estimated_total_s", report.chosen.total_s)
            if choice_span is NULL_SPAN:
                return report
            # The "explain" record: the full ranked candidate table.
            choice_span.set("candidates", [
                {
                    "plan": str(candidate.plan),
                    "total_s": candidate.total_s,
                    "per_iteration_s": candidate.per_iteration_s,
                    "iterations": candidate.estimated_iterations,
                    "feasible": candidate.feasible,
                }
                for candidate in sorted(
                    report.candidates, key=lambda c: c.total_s
                )
            ])
            return report

    def _optimize(self, dataset, training, fixed_iterations=None,
                  iteration_estimates=None) -> OptimizationReport:
        start = time.perf_counter()
        speculation_sim_s = 0.0
        speculated = False

        if fixed_iterations is not None:
            if fixed_iterations < 1:
                raise PlanError("fixed_iterations must be >= 1")
            iteration_estimates = None
            iters_for = {alg: int(fixed_iterations) for alg in self.algorithms}
        else:
            if iteration_estimates is None:
                # on_error="skip": a registered plugin whose error curve
                # cannot be fitted on this workload's sample drops out of
                # this optimization instead of failing it (the sweep
                # still raises when *no* algorithm fits).
                iteration_estimates = self.estimator.estimate_all(
                    dataset.X,
                    dataset.y,
                    training.gradient(),
                    target_tolerance=training.tolerance,
                    algorithms=self.algorithms,
                    step_size=training.step_size,
                    batch_sizes=self.batch_sizes,
                    convergence=training.convergence,
                    on_error="skip",
                )
                # Collecting D' is one Spark job over the input (the paper
                # measures ~4s of the 4.6-8s optimization overhead here).
                speculation_sim_s = self._charge_speculation(dataset)
            speculated = True
            iters_for = {
                alg: min(est.estimated_iterations, training.max_iter)
                for alg, est in iteration_estimates.items()
            }

        corrections = self.corrections(dataset)
        iterations_factors = None
        if corrections and speculated:
            # Learned iteration corrections apply only to speculative
            # estimates; a user-fixed count is a constraint, not a guess.
            iterations_factors = {
                alg: corrections[alg].iterations_factor for alg in iters_for
            }
            iters_for = {
                alg: min(
                    max(1, int(round(count * iterations_factors[alg]))),
                    training.max_iter,
                )
                for alg, count in iters_for.items()
            }

        # Only algorithms with an iteration estimate are priced (ones
        # whose speculation was skipped have no T(epsilon) to cost).
        candidates = self.price(
            dataset.stats,
            iters_for,
            {alg: c.cost_factor for alg, c in corrections.items()},
            iterations_factors,
            training.time_budget_s,
        )
        feasible = [c for c in candidates if c.feasible]
        if not feasible:
            best_total = min(c.total_s for c in candidates)
            raise ConstraintError(
                "time",
                f"no GD plan fits the {training.time_budget_s:.0f}s budget; "
                f"the cheapest plan needs an estimated {best_total:.0f}s -- "
                "revisit the time constraint (or relax epsilon/max_iter)",
            )
        chosen = min(feasible, key=lambda c: c.total_s)
        return OptimizationReport(
            chosen=chosen,
            candidates=candidates,
            iteration_estimates=iteration_estimates,
            optimizer_wall_s=time.perf_counter() - start,
            speculation_sim_s=speculation_sim_s,
            corrections=corrections or None,
        )

    def price(self, stats, iterations, cost_factors,
              iterations_factors=None, time_budget_s=None) -> list:
        """Price the plan space: the one place a
        :class:`PlanCostEstimate` is built.

        Cold optimization, the fixed-iterations path, stale-stamp
        re-costs and the adaptive runtime's mid-flight re-optimization
        all rank the candidates this returns (in enumeration order), so
        "how is a plan priced" has one answer: the analytic cost model
        times one cost factor per algorithm.

        ``iterations`` maps algorithm -> iteration count; only the
        algorithms it names are enumerated.  ``cost_factors`` maps
        algorithm -> multiplier on the model's per-iteration seconds
        (absent = 1.0).  ``iterations_factors`` maps algorithm -> the
        correction the caller already folded into ``iterations``; it is
        only recorded.  Non-identity factors land in the breakdown's
        ``calibration:*`` slots: the feedback loop composes observed
        ratios with them, so the store keeps learning absolute
        observed/base ratios.  ``time_budget_s`` decides ``feasible``.
        """
        algorithms = tuple(a for a in self.algorithms if a in iterations)
        plans = enumerate_plans(algorithms, self.batch_sizes)
        counts = [iterations[plan.algorithm] for plan in plans]
        # The whole space in one call, priced once per dataset.
        batch = self.cost_model.estimate_batch(plans, stats, counts)
        factors = np.array(
            [cost_factors.get(plan.algorithm, 1.0) for plan in plans],
            dtype=float,
        )
        per_iteration_s = batch.per_iteration_s * factors
        total_s = batch.one_time_s + batch.iterations * per_iteration_s
        if time_budget_s is None:
            feasible = [True] * len(plans)
        else:
            feasible = (total_s <= time_budget_s).tolist()
        candidates = []
        for i, plan in enumerate(plans):
            breakdown = batch.breakdown(i)
            if factors[i] != 1.0:
                breakdown["calibration:cost_factor"] = float(factors[i])
            if iterations_factors is not None:
                iterations_factor = iterations_factors[plan.algorithm]
                if iterations_factor != 1.0:
                    breakdown["calibration:iterations_factor"] = float(
                        iterations_factor
                    )
            candidates.append(PlanCostEstimate(
                plan=plan,
                estimated_iterations=counts[i],
                one_time_s=float(batch.one_time_s[i]),
                per_iteration_s=float(per_iteration_s[i]),
                total_s=float(total_s[i]),
                breakdown=breakdown,
                feasible=feasible[i],
            ))
        return candidates

    def corrections(self, dataset, store=None) -> dict:
        """Learned corrections per algorithm ({} without a store).

        The dataset's workload signature selects the store's
        workload-specific corrections (with the algorithm-level
        aggregate as fallback -- see
        :meth:`~repro.runtime.calibration.CalibrationStore.correction`).
        ``store`` defaults to this optimizer's own.
        """
        store = store or self.calibration
        if store is None:
            return {}
        workload = workload_signature(dataset.stats)
        return {
            alg: store.correction(alg, self.engine.spec, workload=workload)
            for alg in self.algorithms
        }

    def _charge_speculation(self, dataset) -> float:
        """Charge the simulated cost of collecting the speculation sample."""
        engine = self.engine
        t0 = engine.clock
        sample_size = self.estimator.settings.sample_size
        row_bytes = dataset.stats.bytes_per_row(dataset.representation)
        if dataset.n_partitions > 1:
            engine.job("speculation")
        # Read + ship one sample's worth of raw units to the driver.
        engine.sequential_read(
            dataset, nbytes=sample_size * row_bytes, phase="speculation",
            new_segment=True,
        )
        engine.collect(int(sample_size * row_bytes), "speculation")
        return engine.clock - t0

    # ------------------------------------------------------------------
    def train(self, dataset, training, fixed_iterations=None, operators=None):
        """Optimize, then execute the chosen plan.

        Returns ``(report, result)``.  The speculative runs' wall time is
        charged into the simulated clock so Figure 8's "speculation +
        execution" bars can be reproduced.
        """
        report = self.optimize(dataset, training, fixed_iterations)
        report.speculation_sim_s += report.charge_speculation(self.engine)
        result = execute_plan(
            self.engine, dataset, report.chosen_plan,
            training.capped_at(fixed_iterations), operators,
        )
        return report, result
