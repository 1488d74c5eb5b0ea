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

Lines 1-2 -- the *trial* -- never read e_d: the trial is a function of
D', the task gradient, the algorithm, the step, the convergence
criterion, e_s, B, the iteration cap and the seed.  Only line 3
evaluates anything at e_d.  The code keeps the two apart: a trial runs
with no target at all and leaves a :class:`_Trial` behind, the
per-request fit reads it, and a :class:`TrialMemo` keeps trials so that
asking again about the same data with another tolerance, iteration cap
or time budget runs no GD.  A memo hit is bit-identical to a re-run
because only trials whose stop was deterministic are kept: one that
ended on its wall-clock budget (machine speed) is run again every time.
"""

from __future__ import annotations

import collections
import contextlib
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
#: pass that has trials to run at a time, process-wide (the scope is
#: the process because the GIL is).  A trial is thousands of
#: microsecond-sized numpy calls, each of which drops and re-takes the
#: GIL, so concurrent passes do not run in parallel -- they stretch each
#: other 2-3x bouncing it across cores.  Queueing them is faster for
#: every caller.  A pass whose trials are all memoised never takes it.
_LANE = threading.Lock()

#: A trial whose error exceeds its running minimum by this factor (or
#: stops being finite) is diverging and will never yield a fit; stop it
#: instead of burning the whole iteration cap.
_DIVERGENCE_FACTOR = 1e12

#: What a :class:`TrialMemo` may hold: the bytes of its observation
#: tables plus a flat charge per entry (a diverged trial has no rows),
#: about 200 worst-case 5000-point traces.  Least recently used go first.
_MEMO_MAX_BYTES = 16 << 20
_MEMO_ENTRY_BYTES = 256


def trial_keys(context, settings, n_rows, algorithms,
               batch_sizes=None) -> dict:
    """``{algorithm: key}`` of each trial on a D' of ``n_rows`` rows in a
    :class:`TrialMemo` scoped by ``context``: what ``estimate_all`` uses
    and a service checks to tell a re-cold from a first touch."""
    rows, batch_sizes = min(settings.sample_size, n_rows), batch_sizes or {}
    return {algorithm: (context, gd_registry.trial_key(
        algorithm, rows, batch_sizes.get(algorithm)))
        for algorithm in algorithms}


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


@dataclasses.dataclass(eq=False)
class _Trial:
    """What one speculative GD run on D' left behind (lines 1-8)."""

    #: The algorithm whose request ran the trial (a span's
    #: ``shared_with`` when another algorithm reads it).
    ran_by: str
    #: error_i of every completed iteration (``observations[:, 1]``).
    errors: np.ndarray
    iterations: int
    #: ``(iteration, error)`` that tripped the divergence guard, or None.
    diverged: tuple | None = None
    #: {curve family: FittedCurve, or the EstimationError its fit
    #: raised}; a fit reads nothing but ``errors`` and the family.
    curves: dict = dataclasses.field(default_factory=dict)
    #: ``(iteration, error)`` rows, read-only: the ``speculation_errors``
    #: of every estimate cut from this trial.  Column-major, so that
    #: ``errors`` is a contiguous view.
    observations: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        table = np.array(  # a transposed (2, n): column-major (n, 2)
            [np.arange(1, len(self.errors) + 1), self.errors], dtype=float).T
        table.flags.writeable = False
        self.observations, self.errors = table, table[:, 1]

    def repeats(self, cfg) -> bool:
        """Whether any machine would have stopped this trial here:
        true of divergence, the iteration cap and reaching e_s, not of
        the wall-clock budget."""
        return (
            self.diverged is not None
            or len(self.errors) >= cfg.max_speculation_iters
            or (len(self.errors) > 0
                and self.errors[-1] <= cfg.speculation_tolerance)
        )

    def curve(self, family) -> FittedCurve:
        """This trace's fit of one curve family, fitted once."""
        fitted = self.curves.get(family)
        if fitted is None:
            try:
                fitted = fit_error_sequence(self.errors, model=family)
            except EstimationError as exc:
                fitted = exc
            self.curves[family] = fitted
        if isinstance(fitted, EstimationError):
            raise EstimationError(*fitted.args)
        return fitted


class TrialMemo:
    """Trials already run, by ``(context, trial_key)`` (thread-safe LRU).

    ``context`` digests everything a trial reads apart from the
    algorithm (data, gradient, step, convergence criterion, seed,
    settings; see
    :func:`repro.service.fingerprint.trial_context_digest`) and
    :func:`repro.gd.registry.trial_key` says which algorithms run the
    same loop, so two requests with equal keys would run the very same
    computation.  ``metrics`` receives the
    ``speculation.memo.evictions`` counter and the ``.entries`` /
    ``.bytes`` gauges.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._lock = threading.Lock()
        self._trials = collections.OrderedDict()
        self._nbytes = 0

    @staticmethod
    def _cost(trial) -> int:
        return trial.observations.nbytes + _MEMO_ENTRY_BYTES

    def get(self, key):
        """The trial stored under ``key`` (now most recently used)."""
        with self._lock:
            trial = self._trials.get(key)
            if trial is not None:
                self._trials.move_to_end(key)
            return trial

    def put(self, key, trial) -> None:
        evicted = 0
        with self._lock:
            previous = self._trials.pop(key, None)
            if previous is not None:
                self._nbytes -= self._cost(previous)
            self._trials[key] = trial
            self._nbytes += self._cost(trial)
            while self._nbytes > _MEMO_MAX_BYTES and len(self._trials) > 1:
                _, oldest = self._trials.popitem(last=False)
                self._nbytes -= self._cost(oldest)
                evicted += 1
            entries, nbytes = len(self._trials), self._nbytes
        if self.metrics is not None:
            if evicted:
                self.metrics.inc("speculation.memo.evictions", evicted)
            self.metrics.gauge("speculation.memo.entries", entries)
            self.metrics.gauge("speculation.memo.bytes", nbytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._trials)


class SpeculativeEstimator:
    """Runs Algorithm 1 for each GD algorithm on a shared sample D'.

    :meth:`estimate_all` is one sequential pass: it runs the trials no
    :class:`TrialMemo` entry answers, in order, on one D', while holding
    the process-wide speculation lane.  Every trial seeds its own RNG
    from ``seed``, so an estimate depends neither on the order of the
    algorithms nor on which other algorithms share the pass -- nor on
    whether its trial ran in this pass or an earlier one.

    ``memo`` with ``context`` (both or neither) is a service's memo and
    the digest of what this request's trials read; without them every
    pass shares trials within itself only.  ``memo`` may also be a dict
    of trials pinned out of one, by their :func:`trial_keys`.
    """

    def __init__(self, settings=None, seed=0, metrics=None, memo=None,
                 context=None):
        if (memo is None) != (context is None):
            raise ValueError(
                "a trial memo is only sound with the context its keys "
                "are scoped by: pass both or neither"
            )
        self.settings = settings or SpeculationSettings()
        self.seed = seed
        #: Optional :class:`~repro.service.metrics.MetricsRegistry`;
        #: receives the ``speculation.lane_wait_s`` histogram and the
        #: ``speculation.memo.hits`` / ``.misses`` counters.
        self.metrics = metrics
        self.memo = memo
        self.context = context

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
        # A spec may tune Algorithm 1's knobs for its own convergence
        # profile (e.g. a longer budget for slow-start algorithms).
        overrides = gd_registry.speculation_overrides(algorithm)
        if overrides:
            return dataclasses.replace(self.settings, **overrides)
        return self.settings

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
        memo=None,
        memo_key=None,
    ) -> IterationsEstimate:
        """Run one algorithm's trial and estimate T(target_tolerance).

        ``sample`` may carry a pre-drawn (X', y') so that all algorithms
        speculate on the same D' (as Algorithm 1 prescribes).  The trial
        always runs; ``memo`` (a :class:`TrialMemo`) is where its
        outcome is left for later requests, under ``memo_key`` (its
        :func:`trial_keys` entry).
        """
        if target_tolerance <= 0:
            raise EstimationError("target tolerance must be positive")
        cfg = self._settings_for(algorithm)
        rng = np.random.default_rng(self.seed)
        Xs, ys = sample if sample is not None else self.take_sample(X, y, rng)
        start = time.perf_counter()
        trial = self._run_trial(
            Xs, ys, gradient, algorithm, cfg, step_size, batch_size,
            convergence, rng,
        )
        wall = time.perf_counter() - start
        if memo is not None and trial.repeats(cfg):
            memo.put(memo_key, trial)
        return self._fit(algorithm, target_tolerance, cfg, trial, wall)

    def _run_trial(self, Xs, ys, gradient, algorithm, cfg, step_size,
                   batch_size, convergence, rng) -> _Trial:
        """Lines 2-8: GD on D' until e_s, the cap, the budget or the
        divergence guard stops it.  No target tolerance goes in."""
        errors = []
        lowest = math.inf
        diverged = None

        def collect(i, w, delta):
            nonlocal lowest, diverged
            if not math.isfinite(delta) or \
                    delta > lowest * _DIVERGENCE_FACTOR:
                diverged = (i, delta)
                return True
            lowest = min(lowest, delta)
            errors.append(delta)
            return delta <= cfg.speculation_tolerance

        result = gd_registry.run(
            algorithm,
            Xs,
            ys,
            gradient,
            batch_size=batch_size,
            step_size=step_size,
            # The callback decides the stop; a delta is never negative.
            tolerance=0.0,
            max_iter=cfg.max_speculation_iters,
            convergence=convergence,
            rng=rng,
            time_budget_s=cfg.time_budget_s,
            iteration_callback=collect,
        )
        return _Trial(algorithm, np.asarray(errors, dtype=float),
                      result.iterations, diverged)

    def _fit(self, algorithm, target_tolerance, cfg, trial,
             wall_s) -> IterationsEstimate:
        """Lines 9-10: turn one trial's error sequence into T(e_d)."""
        if trial.diverged is not None:
            i, delta = trial.diverged
            raise EstimationError(
                f"speculation for {algorithm} diverged at iteration "
                f"{i} (error {delta:.3g})"
            )
        errors = trial.errors
        common = dict(
            algorithm=algorithm,
            target_tolerance=target_tolerance,
            speculation_errors=trial.observations,
            speculation_iterations=trial.iterations,
            speculation_wall_s=wall_s,
        )
        # If speculation itself got to the target, report what we saw.
        reached = np.flatnonzero(errors < target_tolerance)
        if len(reached):
            try:
                curve = trial.curve(cfg.model)
            except EstimationError:
                # Degenerate sequences (e.g. one hinge step to zero
                # delta) still need a placeholder curve for the report.
                first = next((e for e in errors if e > 0), 1.0)
                curve = FittedCurve(
                    "inverse", (float(first),), 0.0, len(errors)
                )
            return IterationsEstimate(
                estimated_iterations=int(reached[0]) + 1,
                curve=curve,
                observed_directly=True,
                **common,
            )
        if len(errors) < cfg.min_points_for_fit:
            raise EstimationError(
                f"speculation for {algorithm} produced only {len(errors)} "
                f"observations (need {cfg.min_points_for_fit}); increase the "
                "time budget or the speculation tolerance"
            )
        curve = trial.curve(cfg.model)
        return IterationsEstimate(
            estimated_iterations=curve.iterations_for(target_tolerance),
            curve=curve,
            **common,
        )

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

        Every algorithm is looked up in the memo first.  If all of them
        hit, the pass fits and returns: no lane, no D'.  Otherwise it
        queues for the process-wide speculation lane (the wait is the
        ``speculation_wait`` span and the ``speculation.lane_wait_s``
        histogram; a trial's wall budget only starts once the lane is
        held), looks again -- a pass queued ahead may have run the same
        trial -- draws D' once and runs what is still missing.
        Algorithms whose trial is the same computation on D' -- MGD at
        a batch covering the whole sample *is* BGD -- hit each other's
        entry.  Each algorithm gets its own fit and its own
        ``speculation`` span (``memo`` says hit or miss, ``shared_with``
        names another algorithm that ran the trial); an estimate served
        from the memo has a ``speculation_wall_s`` of 0.

        ``on_error="skip"`` drops algorithms whose speculative trial
        cannot be fitted (a registered plugin may simply not converge on
        this workload's sample) instead of failing the whole sweep; the
        returned dict then only holds the algorithms that fitted.  When
        *every* algorithm fails, the first failure is raised regardless
        -- an empty estimate dict would just defer the error.
        """
        if target_tolerance <= 0:
            raise EstimationError("target tolerance must be positive")
        batch_sizes = batch_sizes or {}
        memo = self.memo if self.memo is not None else TrialMemo()
        keys = trial_keys(self.context, self.settings, X.shape[0],
                          algorithms, batch_sizes)
        found = {algorithm: memo.get(key) for algorithm, key in keys.items()}
        results, failures = {}, {}
        missing = any(trial is None for trial in found.values())
        with self._lane_held() if missing else contextlib.nullcontext():
            sample = None
            for algorithm in algorithms:
                trial = found[algorithm] or memo.get(keys[algorithm])
                if trial is None and sample is None:
                    sample = self.take_sample(X, y)
                try:
                    results[algorithm] = self._speculate(
                        X, y, gradient, algorithm, target_tolerance,
                        step_size, batch_sizes.get(algorithm), convergence,
                        sample, memo, keys[algorithm], trial,
                    )
                except EstimationError as exc:
                    if on_error != "skip":
                        raise
                    failures[algorithm] = exc
        if failures and not results:
            raise next(iter(failures.values()))
        return results

    @contextlib.contextmanager
    def _lane_held(self):
        """Queue for the speculation lane, then hold it."""
        queued = time.perf_counter()
        with span("speculation_wait"):
            _LANE.acquire()
        try:
            if self.metrics is not None:
                self.metrics.histogram(
                    "speculation.lane_wait_s", time.perf_counter() - queued
                )
            yield
        finally:
            _LANE.release()

    def _speculate(self, X, y, gradient, algorithm, target_tolerance,
                   step_size, batch_size, convergence, sample, memo, key,
                   trial):
        """One algorithm's traced estimate, from the memo's ``trial`` or
        (None) from a trial run here on ``sample`` and kept at ``key``."""
        hit = trial is not None
        if self.metrics is not None:
            self.metrics.inc(
                "speculation.memo.hits" if hit else "speculation.memo.misses"
            )
        attributes = {"algorithm": algorithm,
                      "memo": "hit" if hit else "miss"}
        if hit and trial.ran_by != algorithm:
            attributes["shared_with"] = trial.ran_by
        with span("speculation", **attributes) as trial_span:
            if hit:
                estimate = self._fit(
                    algorithm, target_tolerance,
                    self._settings_for(algorithm), trial, 0.0,
                )
            else:
                estimate = self.estimate(
                    X, y, gradient, algorithm, target_tolerance,
                    step_size=step_size, batch_size=batch_size,
                    convergence=convergence, sample=sample, memo=memo,
                    memo_key=key,
                )
            trial_span.set(
                "estimated_iterations", estimate.estimated_iterations
            )
            trial_span.set(
                "speculation_iterations", estimate.speculation_iterations
            )
            trial_span.set("observed_directly", estimate.observed_directly)
            return estimate
