"""Expressing custom GD algorithms in the seven-operator abstraction.

The paper's Section 4 / Appendix C point: the Transform / Stage / Sample /
Compute / Update / Converge / Loop operators are UDFs, so new algorithms
plug in without touching the system.  This example

1. runs SVRG (Appendix C, Algorithm 2) through the executor -- the
   reference operators driving the registered ``SVRGUpdater`` kernel --
   and
2. defines a *custom* Update operator implementing gradient clipping and
   runs a plan with it -- an algorithm the paper never shipped, expressed
   purely as a UDF override.

Run:  python examples/custom_gd_algorithm.py
"""

import numpy as np

from repro.api import ML4all
from repro.core import GDPlan, TrainingSpec, execute_plan
from repro.core.reference_ops import WeightUpdate, default_operators
from repro.gd.gradients import task_gradient


class ClippedUpdate(WeightUpdate):
    """w <- w - alpha_i * clip(mean gradient, max_norm)."""

    def __init__(self, max_norm=1.0):
        super().__init__()
        self.max_norm = float(max_norm)

    def update(self, aggregated, context):
        grad_sum, count = aggregated
        norm = float(np.linalg.norm(grad_sum / count))
        if norm > self.max_norm:
            grad_sum = grad_sum * (self.max_norm / norm)
        return super().update((grad_sum, count), context)


def main():
    system = ML4all(seed=7)
    dataset = system.load_dataset("yearpred")
    training = TrainingSpec(task="linreg", tolerance=1e-2, max_iter=800,
                            seed=7)

    # --- 1. SVRG through the abstraction --------------------------------
    print("--- SVRG (Appendix C) via the 7-operator abstraction ---")
    plan = GDPlan("svrg", "eager", "shuffle")
    result = execute_plan(system.engine, dataset, plan, training)
    print(result.summary())
    print()

    # --- 2. custom Update operator --------------------------------------
    print("--- custom ClippedUpdate operator ---")
    gradient = task_gradient("linreg")
    ops = default_operators(
        d=dataset.stats.d,
        gradient=gradient,
        batch_size=1000,
        step_size=training.step_size,
        tolerance=training.tolerance,
        max_iter=training.max_iter,
    )
    ops.update = ClippedUpdate(max_norm=0.5)

    system.engine.reset()
    result = execute_plan(
        system.engine, dataset, GDPlan("mgd", "eager", "shuffle", 1000),
        training, operators=ops,
    )
    print(result.summary())
    loss = gradient.loss(result.weights, dataset.X, dataset.y)
    print(f"final training loss: {loss:.4f}")


if __name__ == "__main__":
    main()
