"""GD execution plans (Section 6, Figure 5).

A :class:`GDPlan` fixes the three *physical* choices the optimizer
searches over:

* which GD algorithm computes the gradient (BGD / MGD / SGD, or any
  registered stochastic extension),
* **transformation mode** -- eager (Transform the whole dataset before
  the loop) vs lazy (commute Transform after Sample, parsing only the
  sampled units each iteration),
* **sampling strategy** -- Bernoulli / random-partition /
  shuffled-partition (stochastic algorithms only).

:class:`TrainingSpec` carries the *logical* task parameters (gradient,
step size, tolerance, iteration cap) shared by every plan in a search.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.cluster.sampling import SAMPLER_NAMES
from repro.errors import PlanError
from repro.gd import registry as gd_registry

TRANSFORM_MODES = ("eager", "lazy")


@dataclasses.dataclass(frozen=True)
class GDPlan:
    """One point of the optimizer's search space."""

    algorithm: str
    transform_mode: str = "eager"
    sampling: str | None = None
    batch_size: int | None = None

    def __post_init__(self):
        info = gd_registry.info(self.algorithm)  # validates the name
        if self.transform_mode not in TRANSFORM_MODES:
            raise PlanError(
                f"transform_mode must be one of {TRANSFORM_MODES}, "
                f"got {self.transform_mode!r}"
            )
        if info.stochastic:
            if self.sampling is None:
                raise PlanError(
                    f"{self.algorithm} plans require a sampling strategy"
                )
            if self.sampling not in SAMPLER_NAMES:
                raise PlanError(
                    f"unknown sampling strategy {self.sampling!r}; expected "
                    f"one of {SAMPLER_NAMES}"
                )
            if self.transform_mode == "lazy" and self.sampling == "bernoulli":
                # "Our optimizer also discards the lazy-transformation plan
                # with Bernoulli sampling, because Bernoulli sampling goes
                # through all the data anyways." (Section 6)
                raise PlanError(
                    "lazy transformation with Bernoulli sampling is never "
                    "beneficial and is excluded from the plan space"
                )
        else:
            if self.sampling is not None:
                raise PlanError(
                    f"{self.algorithm} is a full-batch algorithm; it does "
                    "not take a sampling strategy"
                )
            if self.transform_mode == "lazy":
                # BGD touches every unit every iteration; lazy would
                # re-parse the full dataset per iteration.
                raise PlanError(
                    "full-batch plans must use eager transformation"
                )
        if self.batch_size is not None and self.batch_size < 1:
            raise PlanError("batch_size must be >= 1")

    @property
    def info(self) -> gd_registry.AlgorithmSpec:
        return gd_registry.info(self.algorithm)

    @property
    def is_stochastic(self) -> bool:
        return self.info.stochastic

    @property
    def effective_batch_size(self) -> int | None:
        """Sample size per iteration (None for full-batch plans)."""
        if not self.is_stochastic:
            return None
        if self.batch_size is not None:
            return self.batch_size
        return self.info.default_batch_size

    @functools.cached_property
    def label(self) -> str:
        """Human-readable plan name, e.g. ``"SGD-lazy-shuffle"`` (built
        once per plan object: the optimizer reads it a dozen times a
        request, and :func:`~repro.core.plan_space.enumerate_plans`
        hands out the same plans every time)."""
        parts = [self.algorithm.upper()]
        if self.is_stochastic:
            parts.append(self.transform_mode)
            parts.append(self.sampling)
        return "-".join(parts)

    def __str__(self):
        return self.label


@dataclasses.dataclass(frozen=True)
class TrainingSpec:
    """Logical task parameters shared across all candidate plans."""

    task: str = "classification"
    step_size: object = 1.0
    tolerance: float = 1e-3
    max_iter: int = 1000
    convergence: str = "l1"
    l2: float = 0.0
    #: Optional wall budget on *simulated* training time, from the
    #: declarative ``having time`` clause.
    time_budget_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise PlanError("tolerance must be positive")
        if self.max_iter < 1:
            raise PlanError("max_iter must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise PlanError("time budget must be positive")
        if self.l2 < 0:
            raise PlanError("l2 must be >= 0")

    def capped_at(self, fixed_iterations):
        """The spec a run priced at ``fixed_iterations`` executes: that
        count replaces ``max_iter`` (unchanged when None)."""
        if fixed_iterations is None:
            return self
        return dataclasses.replace(self, max_iter=int(fixed_iterations))

    def gradient(self):
        """Materialise the task gradient (Table 3 + optional L2)."""
        from repro.gd.gradients import task_gradient

        return task_gradient(self.task, l2=self.l2)
