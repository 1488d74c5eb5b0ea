"""Cost-based hyperparameter tuning (the paper's proposed extension).

The conclusion of the paper: "our approach can easily be extended to
assist in other design choices in ML systems, such as hyperparameter
tuning".  This module is that extension: hyperparameter candidates
(step-size schedules, MGD batch sizes) are treated exactly like GD plans
-- each candidate is *speculated* on a sample (Algorithm 1 gives its
T(epsilon)), *costed* with the Section 7 cost model, and the cheapest
estimated total time wins.  No accuracy proxy is needed: a step size that
diverges or crawls simply gets a huge estimated iteration count.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core.cost_model import CostModel
from repro.core.iterations import SpeculativeEstimator
from repro.core.plans import GDPlan
from repro.errors import EstimationError, PlanError
from repro.gd.step_size import make_step_size

#: Default step-size candidates: the MLlib schedule at three scales plus
#: the Appendix E adaptive schedules.
DEFAULT_STEP_CANDIDATES = (
    "inv_sqrt:0.5", "inv_sqrt:1", "inv_sqrt:2", "1/i:1", "constant:0.1",
)

DEFAULT_BATCH_CANDIDATES = (100, 1_000, 10_000)


@dataclasses.dataclass
class TuningCandidate:
    """One hyperparameter setting with its speculation-backed estimate."""

    setting: object
    plan: GDPlan
    estimated_iterations: int | None
    estimated_total_s: float | None
    #: Why the candidate was rejected, if it was (e.g. fit failure on a
    #: diverging step size).
    rejected: str | None = None

    @property
    def feasible(self) -> bool:
        return self.rejected is None

    def summary(self) -> str:
        if not self.feasible:
            return f"{self.setting}: rejected ({self.rejected})"
        return (
            f"{self.setting}: est. {self.estimated_iterations} iters, "
            f"{self.estimated_total_s:.2f}s total"
        )


@dataclasses.dataclass
class TuningReport:
    """Outcome of one tuning sweep."""

    parameter: str
    best: TuningCandidate
    candidates: list
    wall_s: float

    def summary(self) -> str:
        lines = [f"tuned {self.parameter}: best = {self.best.setting} "
                 f"({self.wall_s:.2f}s wall)"]
        ordered = sorted(
            self.candidates,
            key=lambda c: (not c.feasible,
                           c.estimated_total_s
                           if c.estimated_total_s is not None else 1e30),
        )
        lines.extend(f"  {c.summary()}" for c in ordered)
        return "\n".join(lines)


class CostBasedTuner:
    """Chooses hyperparameters by estimated training time.

    Reuses the two ingredients of the GD optimizer: the speculation-based
    iterations estimator (per candidate) and the plan cost model.  The
    candidate minimizing ``one_time + T(eps) x per_iteration`` wins.
    """

    def __init__(self, engine, estimator=None, seed=0):
        self.engine = engine
        self.estimator = estimator or SpeculativeEstimator(seed=seed)
        self.cost_model = CostModel(engine.spec)

    # ------------------------------------------------------------------
    def _sweep(self, parameter, dataset, training, candidates, failure):
        """Speculate and cost every ``(setting, plan, step_size,
        batch_size)`` of ``candidates`` on one sample; the cheapest
        feasible candidate wins, and none raises ``failure``."""
        start = time.perf_counter()
        sample = self.estimator.take_sample(dataset.X, dataset.y)
        out = []
        for setting, plan, step_size, batch_size in candidates:
            try:
                estimate = self.estimator.estimate(
                    dataset.X,
                    dataset.y,
                    training.gradient(),
                    plan.algorithm,
                    target_tolerance=training.tolerance,
                    step_size=step_size,
                    batch_size=batch_size,
                    convergence=training.convergence,
                    sample=sample,
                )
                iterations = min(estimate.estimated_iterations,
                                 training.max_iter)
                _, _, total, _ = self.cost_model.estimate(
                    plan, dataset.stats, iterations
                )
                out.append(TuningCandidate(setting, plan, iterations, total))
            except EstimationError as exc:
                out.append(TuningCandidate(setting, plan, None, None,
                                           rejected=str(exc)))
        feasible = [c for c in out if c.feasible]
        if not feasible:
            raise EstimationError(failure)
        best = min(feasible, key=lambda c: c.estimated_total_s)
        return TuningReport(parameter, best, out,
                            time.perf_counter() - start)

    def tune_step_size(
        self,
        dataset,
        training,
        algorithm="bgd",
        candidates=DEFAULT_STEP_CANDIDATES,
        plan=None,
    ) -> TuningReport:
        """Pick the step schedule minimizing estimated training time."""
        if not candidates:
            raise PlanError("need at least one step-size candidate")
        if plan is None:
            from repro.gd.registry import info as algo_info

            if algo_info(algorithm).stochastic:
                plan = GDPlan(algorithm, "lazy", "shuffle")
            else:
                plan = GDPlan(algorithm)

        def settings():
            for spec in candidates:
                make_step_size(spec)  # validate eagerly
                yield spec, plan, spec, plan.effective_batch_size

        return self._sweep(
            "step_size", dataset, training, settings(),
            "no step-size candidate produced a usable error sequence; "
            "all speculations failed to fit",
        )

    def tune_batch_size(
        self,
        dataset,
        training,
        candidates=DEFAULT_BATCH_CANDIDATES,
        transform_mode="eager",
        sampling="shuffle",
    ) -> TuningReport:
        """Pick the MGD batch size minimizing estimated training time.

        Larger batches cut the iteration count (less gradient noise) but
        raise the per-iteration cost -- precisely the statistical- vs
        hardware-efficiency trade-off DimmWitted studies and the paper
        cites; here it falls out of the cost framework for free.
        """
        if not candidates:
            raise PlanError("need at least one batch-size candidate")
        return self._sweep(
            "batch_size", dataset, training,
            ((batch, GDPlan("mgd", transform_mode, sampling,
                            batch_size=batch), training.step_size, batch)
             for batch in candidates),
            "no batch-size candidate produced a usable error sequence",
        )
