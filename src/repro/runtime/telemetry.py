"""Execution monitors: telemetry recording and divergence detection.

:class:`PlanExecutor` accepts a duck-typed monitor whose
``on_iteration(iteration, delta, clock)`` hook is called after every
training iteration; a truthy return value requests a graceful stop.
Two monitors live here:

* :class:`TelemetryRecorder` -- pure observation.  Records the
  per-iteration error curve and simulated clock so a structured
  :class:`~repro.runtime.trace.ExecutionTrace` can be assembled.  Never
  stops a run; attaching one is behaviour-preserving.
* :class:`ConvergenceMonitor` -- the mid-flight tripwire.  Every
  ``refit_every`` iterations it refits the observed error curve
  (Section 5's machinery, re-applied online) and compares both the
  *convergence* trajectory and the *cost* trajectory against what the
  optimizer speculated.  When either diverges beyond its threshold it
  requests a stop so the adaptive trainer can re-run plan selection over
  the remaining error budget.  It also enforces a durable job lease's
  :class:`~repro.runtime.JobBudget` (``preempted``).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.curve_fit import fit_error_sequence
from repro.errors import EstimationError
from repro.runtime.trace import IterationRecord


@dataclasses.dataclass(frozen=True)
class AdaptiveSettings:
    """Knobs of the adaptive runtime (monitor + trainer)."""

    #: Refit the observed error curve every this many iterations.
    refit_every: int = 25
    #: Minimum observed iterations before any divergence verdict.
    min_points: int = 10
    #: Trigger when the projected iterations-to-target exceed the
    #: speculated estimate by this factor (worse-than-promised
    #: convergence).
    divergence_factor: float = 2.0
    #: Trigger when observed per-iteration simulated cost exceeds the
    #: cost model's prediction by this factor (mis-modelled hardware or
    #: a perturbed cost model).
    cost_divergence_factor: float = 2.0
    #: Error-sequence model used for online refits.
    curve_model: str = "power"
    #: Minimum log-space R^2 before an online refit (or the speculated
    #: curve itself) is trusted -- stochastic plans produce noisy delta
    #: sequences whose bad fits extrapolate to nonsense.
    min_refit_r2: float = 0.3
    #: Maximum number of mid-flight plan switches per training run.
    max_switches: int = 2

    def __post_init__(self):
        if self.refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must be > 1")
        if self.cost_divergence_factor <= 1.0:
            raise ValueError("cost_divergence_factor must be > 1")


class TelemetryRecorder:
    """Monitor that records per-iteration telemetry and never stops."""

    def __init__(self):
        self.records = []

    # -- executor hook ---------------------------------------------------
    def on_iteration(self, iteration, delta, clock) -> bool:
        self.records.append(IterationRecord(iteration, float(delta), clock))
        return False

    # -- derived telemetry ----------------------------------------------
    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def deltas(self):
        return [r.delta for r in self.records]

    def observed_per_iteration_s(self) -> float | None:
        """Mean simulated seconds per iteration from clock differences.

        The first record absorbs one-time costs (Stage, eager Transform),
        so the average is taken over the *gaps* between records; needs at
        least two records.
        """
        if len(self.records) < 2:
            return None
        first, last = self.records[0], self.records[-1]
        span = last.clock - first.clock
        steps = last.iteration - first.iteration
        if steps <= 0 or span < 0:
            return None
        return span / steps


class ConvergenceMonitor(TelemetryRecorder):
    """Detects divergence from the speculated curve / predicted cost.

    Parameters
    ----------
    target_tolerance:
        The training run's epsilon (where the error budget ends).
    speculated_curve:
        The :class:`~repro.core.curve_fit.FittedCurve` the optimizer's
        iteration estimate came from, or None (fixed iteration counts)
        to disable curve-divergence checks.
    predicted_iterations:
        The optimizer's T(epsilon) estimate for the running plan.
    predicted_per_iteration_s:
        The cost model's per-iteration seconds for the running plan
        (<= 0 disables cost-divergence checks).
    settings:
        :class:`AdaptiveSettings` thresholds.
    iteration_offset:
        Global iterations completed before this segment started.  The
        speculated curve describes decay from scratch, so a post-switch
        segment -- which starts mid-way down the curve -- must be
        compared at ``local_iteration + offset``: evaluating
        ``error_at(local_i)`` would over-promise decay the run already
        banked and fire spurious divergence verdicts.  (The overrun
        check stays segment-local: ``predicted_iterations`` for a
        post-switch segment is the re-optimizer's *remaining* count.)
    lease_iterations, lease_deadline:
        What is left of the lease's :class:`~repro.runtime.JobBudget`:
        iterations this segment may run, and the ``time.perf_counter()``
        instant the lease ends (None = unbounded).  Reaching either sets
        ``preempted`` and requests a stop, checked on every iteration
        after the divergence check; the trainer then checkpoints and
        returns instead of re-optimizing.
    """

    def __init__(
        self,
        target_tolerance,
        speculated_curve=None,
        predicted_iterations=None,
        predicted_per_iteration_s=None,
        settings=None,
        iteration_offset=0,
        lease_iterations=None,
        lease_deadline=None,
    ):
        super().__init__()
        self.target_tolerance = float(target_tolerance)
        self.speculated_curve = speculated_curve
        self.iteration_offset = int(iteration_offset)
        self.predicted_iterations = (
            None if predicted_iterations is None else int(predicted_iterations)
        )
        self.predicted_per_iteration_s = (
            None if predicted_per_iteration_s is None
            else float(predicted_per_iteration_s)
        )
        self.settings = settings or AdaptiveSettings()
        #: Set when a divergence verdict fires.
        self.diverged = False
        self.reason = None
        #: True when the verdict came from the convergence curve (as
        #: opposed to per-iteration cost) -- the re-optimizer then knows
        #: not to trust the speculated curve for the running algorithm.
        self.curve_diverged = False
        #: Latest acceptable online refit of the observed error curve.
        self.refit_curve = None
        self.lease_iterations = lease_iterations
        self.lease_deadline = lease_deadline
        #: Set when the lease budget ran out (a stop, not a divergence).
        self.preempted = False

    # -- executor hook ---------------------------------------------------
    def on_iteration(self, iteration, delta, clock) -> bool:
        super().on_iteration(iteration, delta, clock)
        n = len(self.records)
        if (not self.diverged and n >= self.settings.min_points
                and not n % self.settings.refit_every):
            self._check_cost()
            if not self.diverged:
                self._check_curve()
        if ((self.lease_iterations is not None
                and iteration >= self.lease_iterations)
                or (self.lease_deadline is not None
                    and time.perf_counter() >= self.lease_deadline)):
            self.preempted = True
        return self.diverged or self.preempted

    # -- divergence checks ----------------------------------------------
    def observed_cost_ratio(self) -> float | None:
        """Observed / predicted per-iteration cost, or None if unknown."""
        if not self.predicted_per_iteration_s:
            return None
        observed = self.observed_per_iteration_s()
        if observed is None or self.predicted_per_iteration_s <= 0:
            return None
        return observed / self.predicted_per_iteration_s

    def _check_cost(self):
        ratio = self.observed_cost_ratio()
        if ratio is None:
            return
        if ratio > self.settings.cost_divergence_factor:
            self.diverged = True
            self.reason = (
                f"per-iteration cost {ratio:.2f}x the cost model's "
                f"prediction ({self.observed_per_iteration_s():.4g}s vs "
                f"{self.predicted_per_iteration_s:.4g}s)"
            )

    def _refit(self):
        """Online curve refit, kept only when the fit is trustworthy."""
        try:
            curve = fit_error_sequence(
                self.deltas, model=self.settings.curve_model
            )
        except EstimationError:
            try:
                curve = fit_error_sequence(self.deltas, model="auto")
            except EstimationError:
                return None
        if curve.r2 < self.settings.min_refit_r2:
            return None
        return curve

    def recent_window(self):
        """(median iteration, median delta) of the trailing window.

        Stochastic plans produce spiky delta sequences; the window
        median is the noise-robust "where is the error now" estimate.
        Both medians come from the *same* window, so the observed error
        is compared against the curve at the iteration it actually
        represents -- comparing a window median against the curve's
        value at the window's trailing edge would over-read the error by
        half a window of curve decay.
        """
        window = self.records[-self.settings.refit_every:]
        if not window:
            return None, float("inf")
        mid = int(np.median([r.iteration for r in window]))
        return max(1, mid), float(np.median([r.delta for r in window]))

    def _check_curve(self):
        """Convergence divergence, two noise-robust criteria.

        1. **Overrun**: we are ``divergence_factor`` times past the
           predicted iteration count and still running.  Extrapolation-
           free, so it works however noisy the deltas are.
        2. **Error-space**: the windowed median of observed deltas is
           ``divergence_factor`` times the error the speculated curve
           promised at this iteration.  Catches slow convergence early,
           but only when the speculated fit itself was trustworthy and
           has not decayed below the target (where criterion 1 takes
           over anyway).
        """
        if self.speculated_curve is None or self.predicted_iterations is None:
            return
        factor = self.settings.divergence_factor
        i = self.records[-1].iteration
        predicted = max(1, self.predicted_iterations)
        if i > factor * predicted:
            self.diverged = True
            self.curve_diverged = True
            self.refit_curve = self._refit()
            self.reason = (
                f"iteration {i} is {i / predicted:.1f}x past the "
                f"speculated T(epsilon)={predicted} without converging"
            )
            return
        if self.speculated_curve.r2 < self.settings.min_refit_r2:
            return
        i_mid, observed = self.recent_window()
        if i_mid is None:
            return
        try:
            expected = self.speculated_curve.error_at(
                i_mid + self.iteration_offset
            )
        except EstimationError:
            return
        if not np.isfinite(expected) or expected < self.target_tolerance:
            return
        if observed > factor * expected:
            self.diverged = True
            self.curve_diverged = True
            self.refit_curve = self._refit()
            self.reason = (
                f"observed error {observed:.3g} around global iteration "
                f"{i_mid + self.iteration_offset} is "
                f"{observed / expected:.1f}x the speculated curve's "
                f"{expected:.3g} ({self.speculated_curve.describe()})"
            )
