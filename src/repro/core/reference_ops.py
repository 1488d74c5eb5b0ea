"""Reference implementations of the seven GD operators.

These mirror the paper's Java listings (Listings 1-7) as vectorised
Python.  Compute and Update drive one step kernel
(:class:`~repro.gd.base.Updater`) -- the same object
:func:`~repro.gd.base.run_loop` drives -- so Listing 8's if-else for
SVRG, like every other algorithm's mathematics, lives in the kernel and
this bundle is the only one the registry builds.  "While we provide reference
implementations for all the common use cases, expert users could readily
customize or override them if necessary" (Section 4) -- the executor
accepts any :class:`~repro.core.operators.GDOperators` bundle, and
``examples/custom_gd_algorithm.py`` shows an override in action.
"""

from __future__ import annotations

import numpy as np

from repro.core.operators import (
    Compute,
    Converge,
    GDOperators,
    Loop,
    Sample,
    Stage,
    Transform,
    Update,
)
from repro.errors import PlanError
from repro.gd.base import Updater
from repro.gd.convergence import make_convergence
from repro.gd.step_size import make_step_size


class ParseTransform(Transform):
    """Listing 1: parse raw units into numeric form.

    The physical arrays are already numeric (parsing raw text is charged
    by the engine's cost accounting; see DESIGN.md), so the reference
    Transform optionally applies feature scaling and otherwise passes the
    batch through -- exactly the information-preserving map the listing
    performs.
    """

    def __init__(self, feature_scale=1.0):
        if feature_scale <= 0:
            raise PlanError("feature_scale must be positive")
        self.feature_scale = float(feature_scale)

    def transform(self, X, y, context):
        if self.feature_scale != 1.0:
            X = X * self.feature_scale
        return X, y


class DefaultStage(Stage):
    """Listing 4: weights = 0-vector, step schedule, iteration counter.

    ``iteration_offset`` stages the *global* iteration count already
    completed before this (resumed) segment: Update evaluates the step
    schedule and the updater at ``iter + iteration_offset``, so a resumed
    segment continues the ``beta/sqrt(i)`` decay at global ``k + 1``
    instead of restarting at the schedule's largest first step.
    """

    def __init__(self, d, step_size=1.0, tolerance=1e-3, max_iter=1000,
                 iteration_offset=0):
        self.d = int(d)
        self.step_size = step_size
        self.tolerance = float(tolerance)
        self.max_iter = int(max_iter)
        self.iteration_offset = int(iteration_offset)

    def stage(self, context, data_sample=None):
        context.put("weights", np.zeros(self.d))
        context.put("step", make_step_size(self.step_size))
        context.put("iter", 0)
        context.put("iteration_offset", self.iteration_offset)
        context.put("tolerance", self.tolerance)
        context.put("max_iter", self.max_iter)
        return data_sample


def _global_iteration(context) -> int:
    return context.require("iter") + context.get("iteration_offset", 0)


class GradientCompute(Compute):
    """Listing 2: the task gradient of a batch of data units, at each of
    the kernel's points (one, ``w``, for all but SVRG between anchors).

    Emits ``(gradient_sum, ..., count)`` partials so distributed
    partitions can be combined by addition before Update normalises to
    the means.
    """

    def __init__(self, gradient, updater=None):
        self.gradient = gradient
        self.updater = updater or Updater()

    def compute(self, X, y, context):
        w = context.require("weights")
        n = X.shape[0]
        points = self.updater.points(w, _global_iteration(context))
        # gradient() returns the mean; re-scale to a sum-partial so that
        # combining partitions of different sizes stays exact.
        return (*(self.gradient.gradient(p, X, y) * n for p in points), n)


class WeightUpdate(Update):
    """Listing 3: w <- kernel.apply(w, alpha_i, mean gradients, i).

    Both the step schedule and the kernel see the **global** iteration
    ``iter + iteration_offset`` -- the schedule position, Adam's bias
    correction and SVRG's anchor cadence are optimizer state that
    survives a plan switch.  ``updater`` is where the plan executor
    finds the kernel (reset after Stage, full-pass cadence, carry-over
    state); whoever drives the operators by hand resets a stateful
    kernel first, as :func:`~repro.gd.base.run_loop` does.
    """

    def __init__(self, updater=None):
        self.updater = updater or Updater()

    def update(self, aggregated, context):
        *grad_sums, count = aggregated
        if count <= 0:
            raise PlanError("Update received an empty aggregate")
        w = context.require("weights")
        i = _global_iteration(context)
        step = context.require("step")
        means = [grad_sum / count for grad_sum in grad_sums]
        w_new = self.updater.apply(w, step(i), means, i)
        context.put("weights", w_new)
        return w_new


class FixedSizeSample(Sample):
    """Listing 7's role: declare how many units the iteration draws.

    The physical strategy (Bernoulli / random / shuffle) is a plan
    property; this logical operator only fixes the batch size (1 for SGD,
    b for MGD -- "It is via Sample that users can enable the MGD and SGD
    methods, by setting the right sample size", Section 4.2).
    """

    def __init__(self, batch_size):
        if batch_size < 1:
            raise PlanError("sample batch size must be >= 1")
        self.batch_size = int(batch_size)

    def sample_size(self, context):
        return self.batch_size


class L1Converge(Converge):
    """Listing 5: delta = sum_j |w_j - w'_j| (criterion is pluggable)."""

    def __init__(self, criterion="l1"):
        self.criterion = make_convergence(criterion)
        self._previous = None

    def converge(self, weights_new, context):
        if self._previous is None:
            delta = float("inf")
        else:
            delta = self.criterion.delta(self._previous, weights_new)
        self._previous = np.array(weights_new, copy=True)
        return delta


class ToleranceLoop(Loop):
    """Listing 6 plus the iteration cap: continue while delta >= tol."""

    def should_continue(self, delta, context):
        tolerance = context.require("tolerance")
        max_iter = context.require("max_iter")
        i = context.require("iter")
        if i >= max_iter:
            return False
        return not delta < tolerance


def default_operators(
    d,
    gradient,
    batch_size=None,
    step_size=1.0,
    tolerance=1e-3,
    max_iter=1000,
    convergence="l1",
    updater=None,
    feature_scale=1.0,
    iteration_offset=0,
) -> GDOperators:
    """The reference operator bundle, driving one step kernel.

    ``batch_size=None`` omits the Sample operator (a BGD plan, Figure
    3(b)); any positive value yields the stochastic plan of Figure 3(a).
    ``updater`` is the algorithm's kernel (vanilla GD by default):
    Compute and Update share the one instance, and ``step_size`` means
    what the kernel reads it as (a number is a constant step to SVRG,
    ``beta/sqrt(i)`` to most).
    ``iteration_offset`` resumes the step schedule / kernel at that
    many completed global iterations (see :class:`DefaultStage`).
    """
    updater = updater or Updater()
    sample = FixedSizeSample(batch_size) if batch_size else None
    return GDOperators(
        transform=ParseTransform(feature_scale),
        stage=DefaultStage(d, updater.schedule(step_size), tolerance,
                           max_iter, iteration_offset=iteration_offset),
        compute=GradientCompute(gradient, updater),
        update=WeightUpdate(updater),
        sample=sample,
        converge=L1Converge(convergence),
        loop=ToleranceLoop(),
    )
