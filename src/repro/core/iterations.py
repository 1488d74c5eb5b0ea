"""Speculation-based iterations estimator (Section 5, Algorithm 1).

    Input : desired tolerance e_d, speculation tolerance e_s,
            speculation time budget B, dataset D
    Output: estimated number of iterations T(e_d)

    1. D' <- sample of D
    2. run the GD algorithm on D' collecting (iteration, error) pairs
       until error <= e_s or the budget B is consumed
    3. fit T(e) = a/e and return T(e_d) = a / e_d

Defaults follow the paper: speculation tolerance 0.05, a small fixed
sample (the experiments use 1,000 data units and a 10 s budget; this
laptop-scale reproduction defaults to a 2 s wall budget).  "MGD and SGD
take their data samples from sample D' and not from the input dataset D.
BGD runs over the entire D'."
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time

import numpy as np

from repro.core.curve_fit import FittedCurve, fit_error_sequence
from repro.errors import EstimationError
from repro.gd import registry as gd_registry
from repro.obs import span

#: The speculation lane: one :meth:`SpeculativeEstimator.estimate_all`
#: pass at a time, process-wide (the scope is the process because the
#: GIL is).  A trial is thousands of microsecond-sized numpy calls, each
#: of which drops and re-takes the GIL, so concurrent passes do not run
#: in parallel -- they stretch each other 2-3x bouncing it across cores.
#: Queueing them is faster for every caller.
_LANE = threading.Lock()

#: A trial whose error exceeds its running minimum by this factor (or
#: stops being finite) is diverging and will never yield a fit; stop it
#: instead of burning the whole iteration cap.
_DIVERGENCE_FACTOR = 1e12


@dataclasses.dataclass
class IterationsEstimate:
    """Estimate of T(e_d) for one GD algorithm."""

    algorithm: str
    target_tolerance: float
    estimated_iterations: int
    curve: FittedCurve
    #: (iteration, error) pairs observed during speculation.
    speculation_errors: np.ndarray
    speculation_iterations: int
    speculation_wall_s: float
    #: True when speculation itself already reached the target tolerance,
    #: in which case the estimate is the observed iteration count.
    observed_directly: bool = False


@dataclasses.dataclass
class SpeculationSettings:
    """Knobs of Algorithm 1 (user/administrator adjustable, Section 5)."""

    sample_size: int = 1000
    speculation_tolerance: float = 0.05
    time_budget_s: float = 2.0
    #: Error-sequence model.  The paper's main text fits T(e) = a/e; its
    #: Appendix E fits the observed curve shape under other step sizes as
    #: well, so the default here is the generalised power law a/i^p
    #: (p = 1 recovers the paper's model exactly).
    model: str = "power"
    #: Iteration cap for one speculative run, so tiny wall budgets still
    #: terminate deterministically in tests.
    max_speculation_iters: int = 5000
    min_points_for_fit: int = 5


class SpeculativeEstimator:
    """Runs Algorithm 1 for each GD algorithm on a shared sample D'.

    :meth:`estimate_all` is one sequential pass: it draws D' once, runs
    the trials in order while holding the process-wide speculation lane,
    and runs trials that are the *same computation* (see
    :func:`repro.gd.registry.trial_key`) once.  Every trial seeds its
    own RNG from ``seed``, so an estimate depends neither on the order
    of the algorithms nor on which other algorithms share the pass.
    """

    def __init__(self, settings=None, seed=0, model_overrides=None,
                 metrics=None):
        self.settings = settings or SpeculationSettings()
        self.seed = seed
        #: Per-algorithm error-curve family overrides ({algorithm:
        #: model name}), e.g. fed back from the learned model's
        #: curve-family votes.  Applied after any registry-level
        #: speculation overrides, before fitting.
        self.model_overrides = dict(model_overrides or {})
        #: Optional :class:`~repro.service.metrics.MetricsRegistry`;
        #: receives the ``speculation.lane_wait_s`` histogram.
        self.metrics = metrics

    # ------------------------------------------------------------------
    def take_sample(self, X, y, rng=None):
        """Line 1: D' <- sample on D (uniform, without replacement)."""
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        n = X.shape[0]
        size = min(self.settings.sample_size, n)
        idx = rng.choice(n, size=size, replace=False)
        return X[idx], y[idx]

    def _settings_for(self, algorithm) -> SpeculationSettings:
        """Algorithm 1's knobs as one algorithm sees them."""
        cfg = self.settings
        overrides = gd_registry.speculation_overrides(algorithm)
        if overrides:
            # A spec may tune Algorithm 1's knobs for its own convergence
            # profile (e.g. a longer budget for slow-start algorithms).
            cfg = dataclasses.replace(cfg, **overrides)
        family = self.model_overrides.get(algorithm)
        if family:
            # Learned per-algorithm curve family (adaptive refits that
            # kept preferring a different family voted it in).
            cfg = dataclasses.replace(cfg, model=family)
        return cfg

    def estimate(
        self,
        X,
        y,
        gradient,
        algorithm,
        target_tolerance,
        step_size=1.0,
        batch_size=None,
        convergence="l1",
        sample=None,
    ) -> IterationsEstimate:
        """Estimate T(target_tolerance) for one algorithm.

        ``sample`` may carry a pre-drawn (X', y') so that all algorithms
        speculate on the same D' (as Algorithm 1 prescribes).
        """
        if target_tolerance <= 0:
            raise EstimationError("target tolerance must be positive")
        cfg = self._settings_for(algorithm)
        rng = np.random.default_rng(self.seed)
        Xs, ys = sample if sample is not None else self.take_sample(X, y, rng)

        errors = []
        lowest = math.inf

        def collect(i, w, delta):
            nonlocal lowest
            if not math.isfinite(delta) or \
                    delta > lowest * _DIVERGENCE_FACTOR:
                raise EstimationError(
                    f"speculation for {algorithm} diverged at iteration "
                    f"{i} (error {delta:.3g})"
                )
            lowest = min(lowest, delta)
            errors.append(delta)
            return delta <= cfg.speculation_tolerance

        start = time.perf_counter()
        result = gd_registry.run(
            algorithm,
            Xs,
            ys,
            gradient,
            batch_size=batch_size,
            step_size=step_size,
            tolerance=min(target_tolerance, cfg.speculation_tolerance) / 10,
            max_iter=cfg.max_speculation_iters,
            convergence=convergence,
            rng=rng,
            time_budget_s=cfg.time_budget_s,
            iteration_callback=collect,
        )
        wall = time.perf_counter() - start
        observations = np.column_stack(
            [np.arange(1, len(errors) + 1), np.asarray(errors)]
        )
        return self._fit(
            algorithm, target_tolerance, cfg, observations,
            result.iterations, wall,
        )

    def _fit(self, algorithm, target_tolerance, cfg, observations,
             iterations, wall_s) -> IterationsEstimate:
        """Lines 9-10: turn one trial's error sequence into T(e_d)."""
        errors = observations[:, 1]
        common = dict(
            algorithm=algorithm,
            target_tolerance=target_tolerance,
            speculation_errors=observations,
            speculation_iterations=iterations,
            speculation_wall_s=wall_s,
        )
        # If speculation itself got to the target, report what we saw.
        reached = np.flatnonzero(errors < target_tolerance)
        if len(reached):
            return IterationsEstimate(
                estimated_iterations=int(reached[0]) + 1,
                curve=self._safe_fit(errors),
                observed_directly=True,
                **common,
            )
        if len(errors) < cfg.min_points_for_fit:
            raise EstimationError(
                f"speculation for {algorithm} produced only {len(errors)} "
                f"observations (need {cfg.min_points_for_fit}); increase the "
                "time budget or the speculation tolerance"
            )
        curve = fit_error_sequence(errors, model=cfg.model)
        return IterationsEstimate(
            estimated_iterations=curve.iterations_for(target_tolerance),
            curve=curve,
            **common,
        )

    def _safe_fit(self, errors):
        """Best-effort curve for reporting when we converged directly."""
        try:
            return fit_error_sequence(errors, model=self.settings.model)
        except EstimationError:
            # Degenerate sequences (e.g. one hinge step to zero delta)
            # still need a placeholder curve for the report.
            first = next((e for e in errors if e > 0), 1.0)
            return FittedCurve("inverse", (float(first),), 0.0, len(errors))

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        X,
        y,
        gradient,
        target_tolerance,
        algorithms=gd_registry.CORE_ALGORITHMS,
        step_size=1.0,
        batch_sizes=None,
        convergence="l1",
        on_error="raise",
    ) -> dict:
        """Run Algorithm 1 for every algorithm on one shared sample D'.

        One sequential pass under the process-wide speculation lane:
        concurrent callers queue (the wait is the ``speculation_wait``
        span and the ``speculation.lane_wait_s`` histogram) and a
        trial's wall budget only starts once the lane is held.
        Algorithms whose trial is the same computation on D' -- MGD at
        a batch covering the whole sample *is* BGD -- share one GD run;
        each still gets its own fit and its own ``speculation`` span
        (``shared_with`` names the algorithm that ran the trial, and the
        sharer's ``speculation_wall_s`` is 0).

        ``on_error="skip"`` drops algorithms whose speculative trial
        cannot be fitted (a registered plugin may simply not converge on
        this workload's sample) instead of failing the whole sweep; the
        returned dict then only holds the algorithms that fitted.  When
        *every* algorithm fails, the first failure is raised regardless
        -- an empty estimate dict would just defer the error.
        """
        batch_sizes = batch_sizes or {}
        results, failures, ran = {}, {}, {}
        queued = time.perf_counter()
        with span("speculation_wait"):
            _LANE.acquire()
        try:
            if self.metrics is not None:
                self.metrics.histogram(
                    "speculation.lane_wait_s", time.perf_counter() - queued
                )
            sample = self.take_sample(X, y)
            for algorithm in algorithms:
                batch_size = batch_sizes.get(algorithm)
                key = gd_registry.trial_key(
                    algorithm, sample[0].shape[0], batch_size
                )
                try:
                    results[algorithm] = self._speculate(
                        X, y, gradient, algorithm, target_tolerance,
                        step_size, batch_size, convergence, sample,
                        shared=ran.get(key),
                    )
                except EstimationError as exc:
                    if on_error != "skip":
                        raise
                    failures[algorithm] = exc
                    continue
                if key is not None:
                    ran.setdefault(key, results[algorithm])
        finally:
            _LANE.release()
        if failures and not results:
            raise next(iter(failures.values()))
        return results

    def _speculate(self, X, y, gradient, algorithm, target_tolerance,
                   step_size, batch_size, convergence, sample, shared):
        """One algorithm's traced trial; ``shared`` is the estimate of
        an algorithm that already ran the identical trial (or None)."""
        attributes = {"algorithm": algorithm}
        if shared is not None:
            attributes["shared_with"] = shared.algorithm
        with span("speculation", **attributes) as trial_span:
            if shared is None:
                estimate = self.estimate(
                    X, y, gradient, algorithm, target_tolerance,
                    step_size=step_size, batch_size=batch_size,
                    convergence=convergence, sample=sample,
                )
            else:
                estimate = self._fit(
                    algorithm, target_tolerance,
                    self._settings_for(algorithm),
                    shared.speculation_errors,
                    shared.speculation_iterations, 0.0,
                )
            trial_span.set(
                "estimated_iterations", estimate.estimated_iterations
            )
            trial_span.set(
                "speculation_iterations", estimate.speculation_iterations
            )
            trial_span.set("observed_directly", estimate.observed_directly)
            return estimate
