"""A deliberately wrong cost model, for adaptive-runtime evaluation.

:class:`PerturbedCostModel` scales the per-iteration cost of chosen
algorithms by fixed factors.  A factor < 1 makes the optimizer
*underestimate* an algorithm (it gets picked and then under-delivers);
a factor > 1 makes the optimizer avoid it.  The adaptive runtime's job
is to notice and undo exactly this kind of systematic error, so the
experiments, benchmarks and tests use this model as the controlled
fault injection.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CostModel


class PerturbedCostModel(CostModel):
    """CostModel whose per-iteration prices are scaled per algorithm.

    ``factors`` maps algorithm name -> multiplier applied to the
    per-iteration cost, and to every ``iter:`` breakdown component, of
    that algorithm's plans as :meth:`estimate_batch` (the optimizer's
    pricing call) returns them.  One-time costs are untouched, unlisted
    algorithms are costed faithfully, and the per-plan methods
    (``estimate``, ``per_iteration_cost``) stay unperturbed.
    """

    def __init__(self, spec, factors):
        super().__init__(spec)
        self.factors = {str(k): float(v) for k, v in dict(factors).items()}
        if any(f <= 0 for f in self.factors.values()):
            raise ValueError("perturbation factors must be positive")

    def estimate_batch(self, plans, stats, iterations):
        batch = super().estimate_batch(plans, stats, iterations)
        factors = [self.factors.get(plan.algorithm, 1.0) for plan in batch.plans]
        # The unperturbed sum times the factor (not the sum of the scaled
        # components, which can differ in the last bit).
        batch.per_iteration_s = batch.per_iteration_s * np.array(
            factors, dtype=float
        )
        batch.total_s = (
            batch.one_time_s + batch.iterations * batch.per_iteration_s
        )
        batch.breakdowns = [
            {name: seconds * factor if name.startswith("iter:") else seconds
             for name, seconds in breakdown.items()}
            for breakdown, factor in zip(batch.breakdowns, factors)
        ]
        return batch
