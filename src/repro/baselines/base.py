"""Shared machinery for the baseline ML systems (Section 8.1).

The baselines run the *same GD math* as ML4all (same gradients, step
size, initial weights, convergence condition -- exactly how the paper
configured all systems identically) but charge the simulated cluster
according to each system's execution strategy: MLlib's Bernoulli sampling
and treeAggregate, SystemML's binary-block conversion and hybrid
local/distributed mode, Bismarck's serialized processing phase.

Each baseline implements

* :meth:`prepare`  -- one-time costs (parsing, caching, conversion);
  may raise :class:`~repro.errors.SimulatedOutOfMemory`, and
* :meth:`charge_iteration` -- per-iteration costs,

while :meth:`train` lets :func:`~repro.gd.base.run_loop` -- the loop
speculation also runs -- drive the algorithm's step kernel, charges
each iteration from its callback, and assembles a
:class:`BaselineResult`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import SimulatedOutOfMemory, SimulatedTimeout
from repro.gd import registry as gd_registry
from repro.gd.base import Updater, full_batch_selector, run_loop


@dataclasses.dataclass
class BaselineResult:
    """Outcome of training one algorithm on one baseline system."""

    system: str
    algorithm: str
    dataset: str
    iterations: int
    converged: bool
    sim_seconds: float
    weights: np.ndarray | None
    #: One-time data preparation charged before the loop (SystemML's
    #: binary conversion; reported separately in Figure 9).
    conversion_s: float = 0.0
    #: Failure tag ("OOM", "timeout") when the system could not finish.
    failed: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed is None

    def cell(self) -> str:
        """Figure-style cell text: seconds, 'fail', or '>limit'."""
        if self.failed == "OOM":
            return "OOM"
        if self.failed == "timeout":
            return f">{self.sim_seconds:.0f}s"
        return f"{self.sim_seconds:.1f}"


def wave_seconds(spec, n_partitions, per_partition_s) -> float:
    """Wave-parallel execution time of homogeneous partition tasks."""
    full_waves = n_partitions // spec.cap
    remaining = n_partitions - full_waves * spec.cap
    return (full_waves + (1 if remaining else 0)) * per_partition_s


class BaselineSystem:
    """Interface of one comparison system."""

    name = "baseline"

    def prepare(self, engine, dataset, training):
        """Charge one-time costs; returns opaque state for iterations."""
        raise NotImplementedError

    def charge_iteration(self, engine, state, iteration, sim_batch):
        """Charge the cost of one iteration touching ``sim_batch`` units."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def train(
        self,
        engine,
        dataset,
        training,
        algorithm,
        batch_size=1000,
        time_limit_s=None,
        raise_on_timeout=False,
    ) -> BaselineResult:
        """Run any registered GD algorithm on this system.

        :func:`~repro.gd.base.run_loop` drives the algorithm's step
        kernel at the step the plan executor trains it at; the
        algorithm's spec sizes the batch, which this system samples
        without replacement.  Every iteration is charged through
        :meth:`charge_iteration` -- as a full scan when the kernel read
        the whole dataset (SVRG's anchors, Arc's probes) -- so a newly
        registered algorithm is covered by every baseline without
        touching this method.  ``time_limit_s`` is the simulated-time
        cut-off used to reproduce the paper's "we had to stop the
        execution after 3 hours" cells.
        """
        t0 = engine.clock

        def result(**fields):
            return BaselineResult(
                system=self.name, algorithm=algorithm,
                dataset=dataset.stats.name,
                sim_seconds=engine.clock - t0, **fields,
            )

        try:
            state = self.prepare(engine, dataset, training)
        except SimulatedOutOfMemory:
            return result(iterations=0, converged=False, weights=None,
                          failed="OOM")
        conversion_s = engine.clock - t0

        n_phys = dataset.n_phys
        n_sim = dataset.stats.n
        spec_info = gd_registry.info(algorithm)
        sim_batch = min(gd_registry.batch_rows(spec_info, n_sim, batch_size),
                        n_sim)
        phys_batch = max(1, min(sim_batch, n_phys))
        kernel = gd_registry.updater_for(algorithm) or Updater()
        sampled = 0  # the last iteration that drew a sample
        timed_out = False

        def sample(i, rng):
            nonlocal sampled
            sampled = i
            return rng.choice(n_phys, size=phys_batch, replace=False)

        def charge(i, w, delta):
            nonlocal timed_out
            self.charge_iteration(engine, state, i,
                                  sim_batch if sampled == i else n_sim)
            timed_out = (time_limit_s is not None
                         and engine.clock - t0 > time_limit_s)
            return timed_out

        run = run_loop(
            dataset.X, dataset.y, training.gradient(),
            sample if spec_info.stochastic else full_batch_selector,
            step_size=gd_registry.training_step(kernel, training),
            tolerance=training.tolerance,
            max_iter=training.max_iter,
            convergence=training.convergence,
            updater=kernel,
            rng=np.random.default_rng(training.seed),
            iteration_callback=charge,
        )
        failed = None
        if timed_out and not run.converged:
            if raise_on_timeout:
                raise SimulatedTimeout(self.name, engine.clock - t0,
                                       time_limit_s)
            failed = "timeout"
        return result(iterations=run.iterations, converged=run.converged,
                      weights=run.weights, conversion_s=conversion_s,
                      failed=failed)


__all__ = ["BaselineResult", "BaselineSystem", "wave_seconds"]
