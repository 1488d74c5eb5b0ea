"""The optimizer core of the service: plan cache, stamping, persistence.

:class:`OptimizerService` sits above :class:`~repro.core.optimizer.GDOptimizer`
and turns the one-shot optimizer into a serving component: many callers,
many workloads, repeated queries.  Four mechanisms make the hot path
cheap:

* a **plan cache** (:mod:`repro.service.cache`) keyed by a fingerprint of
  ``(DatasetStats, TrainingSpec, ClusterSpec)`` plus the service's own
  configuration, so a repeated workload skips re-speculation and
  re-costing entirely;
* under it a **trial memo**
  (:class:`~repro.core.iterations.TrialMemo`) keyed by what a
  speculative trial reads (:meth:`OptimizerService.trial_context`), so a
  *new* fingerprint over data already speculated on -- another
  tolerance, iteration cap, time budget or algorithm subset -- is
  fitted and costed without running GD;
* **request coalescing** -- concurrent requests for the same fingerprint
  share one computation instead of racing to duplicate it;
* the **cost model** (one per-plan implementation, a plan space priced
  once per dataset) and **one-pass speculation** underneath
  (:meth:`CostModel.estimate_batch`,
  :meth:`SpeculativeEstimator.estimate_all`: cold requests take turns
  on one process-wide speculation lane instead of contending for the
  GIL; hits, store I/O and training never take it).

This module is the *lookup/pricing* layer of the service; execution
(train, durable jobs, budgets) lives in :mod:`repro.service.jobs`, the
request/result shapes in :mod:`repro.service.requests`, and the network
protocol in :mod:`repro.service.frontend`.  Operational counters live in
a :class:`~repro.service.metrics.MetricsRegistry` shared by all three
layers (``service.metrics.value("service.computed")`` ...).  Cached
plans carry the calibration state that priced them: a stale entry is
*re-costed* from its cached speculation results, never re-speculated
(see :class:`OptimizerService`).

A **persistent plan store** (:mod:`repro.service.backends`) extends all
of this across process restarts: with ``cache_path`` (or an explicit
``cache_backend``) every cached decision -- report, speculation
artifacts, calibration stamp -- is written through to disk and reloaded
on startup, so ``repro serve --cache plans.json`` restarted answers
previously seen workloads warm.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import warnings
from concurrent.futures import Future

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core.cost_model import CostModel
from repro.core.iterations import (
    SpeculationSettings,
    SpeculativeEstimator,
    TrialMemo,
    trial_keys,
)
from repro.core.optimizer import GDOptimizer
from repro.gd.registry import CORE_ALGORITHMS
from repro.obs import emit_span, span
from repro.runtime import CalibrationStore
from repro.service.backends import open_backend
from repro.service.cache import PlanCache
from repro.service.checkpoint import CheckpointStore
from repro.service.fingerprint import (
    memo_key,
    trial_context_digest,
    workload_fingerprint,
    workload_parts,
)
from repro.service.jobs import TrainingJobs
from repro.service.metrics import MetricsRegistry
from repro.service.requests import (
    Resolved,
    ServiceRequest,
    ServiceResult,
)
from repro.service.serialize import (
    PlanStoreError,
    entry_from_dict,
    entry_to_dict,
)


#: Request -> digest pairs each of OptimizerService's digest memos keeps.
_FINGERPRINT_MEMO_SIZE = 1024


@dataclasses.dataclass
class _CachedPlan:
    """One plan-cache value: a report plus its pricing stamp.

    ``calibration_digest`` is the calibration store's *content digest*
    (:meth:`CalibrationStore.state_digest`) at the moment the report
    was priced -- a fingerprint of the correction factors themselves,
    not a counter, so it stays comparable across restarts and across
    processes sharing one store.  A lookup whose stamp does not match
    the live digest is *stale*: the service re-costs it from the
    report's cached ``iteration_estimates`` (no re-speculation) and
    re-stamps it.  The same stamp is what a persistent backend stores,
    so a restarted service applies the identical staleness rule to
    warm-loaded entries (``calibration_version`` rides along for
    inspection).
    """

    report: object
    calibration_version: int
    calibration_digest: str


class OptimizerService(TrainingJobs):
    """Concurrent, caching facade over the cost-based GD optimizer.

    **Cache stamping.**  Every cached decision carries the calibration
    state it was priced against (:class:`_CachedPlan`), read *before*
    pricing: an entry whose stamp is not the live state is *re-costed*
    from its cached speculation (no GD) and re-stamped, and a
    calibration update racing a computation leaves the entry stale.

    **Eviction.**  The in-memory :class:`~repro.service.cache.PlanCache`
    keeps the ``cache_size`` most recently used entries; eviction only
    affects the in-memory tier -- entries in a persistent backend
    (``cache_path`` / ``cache_backend``) outlive it and are read through
    on the next miss (``repro cache --compact --ttl`` ages them out).

    **Calibration factors.**  The shared store learns multiplicative
    cost/iteration corrections from adaptive :meth:`train` traces, keyed
    two-level (workload-specific with algorithm-level fallback).  Every
    optimizer this service builds prices plans through those factors, so
    one tenant's observed mis-estimates correct every tenant's future
    estimates on the same cluster.

    **Concurrency.**  Identical concurrent requests coalesce onto one
    computation (cold computes and recalibration re-costs alike); each
    computed request runs on a fresh :class:`SimulatedCluster` so no
    simulated state leaks between callers.
    """

    def __init__(
        self,
        spec=None,
        seed=0,
        speculation=None,
        algorithms=CORE_ALGORITHMS,
        batch_sizes=None,
        cache_size=256,
        calibration=None,
        calibration_path=None,
        adaptive_settings=None,
        cost_model=None,
        cache_path=None,
        cache_backend=None,
        checkpoint_path=None,
        checkpoint_store=None,
        lease_ttl_s=300.0,
        metrics=None,
    ):
        self.spec = spec or ClusterSpec()
        self.seed = seed
        self.speculation = speculation or SpeculationSettings()
        self.algorithms = tuple(algorithms)
        self.batch_sizes = dict(batch_sizes or {})
        self.cache = PlanCache(cache_size)
        #: Operational counters/gauges/histograms for every service
        #: layer (:class:`~repro.service.metrics.MetricsRegistry`); pass
        #: one in to share a registry with a front-end.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Speculative trials this process already ran, under the plan
        #: cache: a new fingerprint over data, gradient, step and
        #: settings seen before (another tolerance, iteration cap, time
        #: budget or algorithm subset) is fitted from them, no GD run.
        self.trials = TrialMemo(metrics=self.metrics)
        #: Learned cost/iteration corrections; loaded from
        #: ``calibration_path`` when it exists, so a restarted service
        #: starts calibrated.  Adaptive train() traces feed it.
        self.calibration = (
            calibration
            if calibration is not None
            else CalibrationStore.open(calibration_path)
        )
        self.adaptive_settings = adaptive_settings
        #: The CostModel (it memoises plan-space prices) every optimizer
        #: this service builds prices with; e.g. a PerturbedCostModel
        #: when evaluating the adaptive runtime.
        self.cost_model = cost_model or CostModel(self.spec)
        #: Optional :class:`~repro.service.backends.CacheBackend`: every
        #: cached decision is written through to it, and its entries
        #: warm-start the in-memory cache here at construction -- a
        #: restarted service answers previously seen workloads without
        #: re-speculating.  ``cache_path`` is the convenience form
        #: (extension picks JSON vs SQLite, see
        #: :func:`~repro.service.backends.open_backend`).
        self.backend = (
            cache_backend if cache_backend is not None
            else open_backend(cache_path) if cache_path else None
        )
        #: Durable training-job checkpoints
        #: (:class:`~repro.service.checkpoint.CheckpointStore`); None
        #: disables the job API.  ``checkpoint_path`` is the convenience
        #: form (same extension rules as the plan store).
        self.checkpoints = (
            checkpoint_store if checkpoint_store is not None
            else CheckpointStore(path=checkpoint_path,
                                 lease_ttl_s=lease_ttl_s)
            if checkpoint_path else None
        )
        #: Identity stamped into checkpoint lease-history records when
        #: this service runs inside a ``repro worker`` process (the
        #: worker loop sets it); None for plain in-process services.
        self.worker_id = None
        self._inflight = {}
        self._inflight_lock = threading.Lock()
        #: What :meth:`fingerprint` / :meth:`trial_context` digested
        #: before -> the digest it got, and the service-constant part of
        #: a fingerprint -> its :func:`workload_parts` text (see
        #: :meth:`_remembered`).
        self._fingerprints = {}
        self._workload_parts = {}
        self._trial_contexts = {}
        self._fingerprints_lock = threading.Lock()
        #: Entries restored from the persistent backend at startup.
        self.warm_loaded = self._load_persisted()

    # ------------------------------------------------------------------
    def _load_persisted(self) -> int:
        """Warm-start the in-memory cache from the persistent backend.

        Unreadable or format-incompatible entries are skipped (those
        workloads compute cold); entries stamped with a calibration
        version the live store has moved past load normally and are
        re-costed from their persisted speculation on first use -- the
        same staleness rule as in-memory entries.
        """
        if self.backend is None:
            return 0
        loaded = 0
        for key, payload in self.backend.load().items():
            try:
                self._restore(key, payload)
                loaded += 1
            except PlanStoreError as exc:
                warnings.warn(
                    f"skipping persisted plan {key[:12]}...: {exc}",
                    stacklevel=2,
                )
        return loaded

    def _restore(self, key, payload):
        """Decode one persisted entry into the in-memory cache and
        return it.  Raises PlanStoreError for an incompatible payload."""
        report, version, digest, _ = entry_from_dict(payload)
        entry = _CachedPlan(report, version, digest)
        self.cache.put(key, entry)
        return entry

    def _stamp_current(self, entry) -> bool:
        """True when the entry was priced against the correction state
        the live store serves right now.  Content comparison, not
        counter comparison: every pristine store digests identically
        (which is what lets a calibration-free restart serve warm-loaded
        entries as plain hits), and two stores that evolved different
        histories never collide."""
        return entry.calibration_digest == self.calibration.state_digest()

    def _read_through(self, key):
        """Fetch and promote an entry the in-memory cache does not hold.

        An entry the cache evicted (LRU bound) or never loaded
        still exists in the persistent store; serve it rather than
        re-speculating a workload that is sitting on disk."""
        try:
            payload = self.backend.get(key)
            return None if payload is None else self._restore(key, payload)
        except PlanStoreError:
            return None  # incompatible entry: compute cold
        except Exception as exc:
            warnings.warn(
                f"plan store read failed ({exc}); computing cold",
                stacklevel=2,
            )
            return None

    def _cache_restored(self, key, entry, report, version, digest) -> None:
        """Re-seed the cache and the plan store with ``entry``, restored
        from a job checkpoint and stored verbatim (the job layer's half
        of :meth:`_read_through`).  A key the cache holds is left alone:
        everything cached was read from the store or written through to
        it."""
        if key in self.cache:
            return
        cached = _CachedPlan(report, version, digest)
        self.cache.put(key, cached)
        self._persist(key, cached, entry)

    def _persist(self, key, cached, entry=None) -> None:
        """Write one cache entry -- ``entry``, or the one ``cached``
        encodes to -- through to the backend (best effort: a failing
        store must degrade persistence, not requests)."""
        if self.backend is None:
            return
        try:
            self.backend.store(key, entry or entry_to_dict(
                cached.report, cached.calibration_version,
                cached.calibration_digest,
            ))
        except Exception as exc:
            warnings.warn(
                f"plan store write failed ({exc}); "
                "entry is served from memory only", stacklevel=2,
            )

    def close(self) -> None:
        """Release the persistent backends (write-through means there
        is nothing to flush)."""
        if self.backend is not None:
            self.backend.close()
        if self.checkpoints is not None:
            self.checkpoints.close()

    # ------------------------------------------------------------------
    def fingerprint(self, dataset, training, fixed_iterations=None,
                    algorithms=None, batch_sizes=None) -> str:
        """Cache key of one workload under this service's configuration.

        With ``fixed_iterations`` the optimizer's answer depends only on
        ``(DatasetStats, TrainingSpec, ClusterSpec)``; without it,
        speculation runs GD on the *actual* data, so the physical
        content digest joins the key -- two datasets with coinciding
        statistics but different data must not share a report.
        """
        data_digest = (
            None if fixed_iterations is not None
            else dataset.content_digest()
        )
        algorithms = (
            self.algorithms if algorithms is None else tuple(algorithms)
        )
        batch_sizes = (
            self.batch_sizes if batch_sizes is None else dict(batch_sizes)
        )
        # Freezing four dataclasses costs ~60x the cache lookup the key
        # is for, and a server sees the same few hundred requests over
        # and over: remember the key per *value* of everything it
        # digests (``speculation`` is mutable, hence its fields) -- and,
        # for a new request, the text of all but its training spec.
        constant = memo_key(
            dataset.stats, self.spec, self.speculation,
            (data_digest, dataset.representation, fixed_iterations,
             self.seed),
            algorithms,
            tuple(itertools.chain.from_iterable(batch_sizes.items())),
        )
        request = memo_key(training)
        memo = (None if constant is None or request is None
                else request + constant)
        return self._remembered(self._fingerprints, memo, lambda: (
            workload_fingerprint(
                dataset.stats, training, self.spec, self._remembered(
                    self._workload_parts, constant, lambda: workload_parts(
                        dataset.stats, self.spec, data_digest=data_digest,
                        representation=dataset.representation,
                        algorithms=algorithms, batch_sizes=batch_sizes,
                        fixed_iterations=fixed_iterations,
                        speculation=self.speculation, seed=self.seed)))))

    def trial_context(self, dataset, training) -> str:
        """Trial-memo scope of one workload under this service's
        configuration: what its speculative trials read, and nothing
        that only re-prices or re-fits them."""
        data = dataset.content_digest()
        # The gradient is a function of (task, l2): key on those values.
        memo = memo_key(self.speculation, (
            data, training.task, training.l2, training.step_size,
            training.convergence, self.seed))
        return self._remembered(self._trial_contexts, memo, lambda: (
            trial_context_digest(data, training.gradient(),
                                 training.step_size, training.convergence,
                                 self.seed, self.speculation)))

    def _remembered(self, memo, key, digest):
        """``digest()``, kept in ``memo`` under ``key`` unless it is None
        (bounded, oldest out first; reads take no lock)."""
        value = memo.get(key) if key is not None else None
        if value is None:
            value = digest()
            if key is not None:
                with self._fingerprints_lock:
                    if len(memo) >= _FINGERPRINT_MEMO_SIZE:
                        del memo[next(iter(memo))]
                    memo[key] = value
        return value

    def _make_optimizer(self, algorithms=None, batch_sizes=None,
                        context=None, trials=None) -> GDOptimizer:
        """A fresh optimizer for one computation, on a fresh simulated
        cluster.  With a ``context`` (:meth:`trial_context`) its
        estimator reads and fills the service's trial memo -- or reads
        only ``trials``, the ones a :meth:`claim` took out of it."""
        estimator = SpeculativeEstimator(
            self.speculation,
            seed=self.seed,
            metrics=self.metrics,
            memo=(None if context is None
                  else self.trials if trials is None else trials),
            context=context,
        )
        return GDOptimizer(
            SimulatedCluster(self.spec, seed=self.seed),
            estimator=estimator,
            algorithms=self.algorithms if algorithms is None else algorithms,
            batch_sizes=(
                self.batch_sizes if batch_sizes is None else batch_sizes
            ),
            cost_model=self.cost_model,
            calibration=self.calibration,
        )

    # ------------------------------------------------------------------
    def optimize(self, dataset, training, fixed_iterations=None,
                 algorithms=None, batch_sizes=None) -> ServiceResult:
        """Answer one optimize() request, from cache when possible:
        :meth:`resolve`, then :meth:`answer`."""
        return self.answer(self.resolve(ServiceRequest(
            dataset, training, fixed_iterations, algorithms, batch_sizes
        )))

    def resolve(self, request) -> Resolved:
        """Fingerprint one :class:`ServiceRequest`, look it up in the
        in-memory cache and decide (``inline``) whether :meth:`answer`
        needs no store I/O, no GD and no wait -- with none of the three
        here, so a front-end's event loop can ask."""
        start = time.perf_counter()
        key = self.fingerprint(
            request.dataset, request.training, request.fixed_iterations,
            request.algorithms, request.batch_sizes,
        )
        looked = time.perf_counter()
        entry = self.cache.get(key)
        hit = entry is not None and self._stamp_current(entry)
        resolved = Resolved(request, key, entry, hit, looked - start, 0.0,
                            inline=hit)
        # Without a store a miss does no I/O; unowned, it waits for
        # nobody; priced at a fixed count, re-costed from its entry or
        # fitted from memoised trials, it runs no GD.
        if not hit and self.backend is None and key not in self._inflight:
            resolved.inline = True
            if entry is None and request.fixed_iterations is None:
                resolved.context = self.trial_context(
                    request.dataset, request.training)
                resolved.trial_keys = trial_keys(
                    resolved.context, self.speculation,
                    request.dataset.X.shape[0],
                    self.algorithms if request.algorithms is None
                    else request.algorithms,
                    self.batch_sizes if request.batch_sizes is None
                    else request.batch_sizes)
                resolved.inline = all(
                    self.trials.get(k) is not None
                    for k in resolved.trial_keys.values())
        resolved.lookup_s = time.perf_counter() - looked
        return resolved

    def claim(self, resolved, wait=True) -> bool:
        """Finish a miss's lookup (:meth:`answer` does, if nobody did):
        read through to the store, then find the key's computation or
        own it.  ``wait=False`` is an event loop's claim of an
        ``inline`` request: if another thread computes the key by now
        or the memo dropped a trial since :meth:`resolve`, it clears
        ``inline`` and returns False, changing nothing else; otherwise
        it pins the trials, so no later eviction makes :meth:`answer`
        run one."""
        reading = time.perf_counter()
        key, entry, hit = resolved.fingerprint, resolved.entry, False
        trials = None
        if not wait and resolved.trial_keys is not None:
            trials = {k: self.trials.get(k)
                      for k in resolved.trial_keys.values()}
            if None in trials.values():
                resolved.inline = False
                return False
        if (entry is None and self.backend is not None
                and key not in self.cache):
            entry = self._read_through(key)
            hit = entry is not None and self._stamp_current(entry)
        future, owner = None, False
        if not hit:
            # A miss, or a stale entry (the calibration store learned
            # something since it was priced), goes through the in-flight
            # table, so concurrent identical requests share one
            # computation instead of duplicating it.  The owner caches
            # its plan before it leaves the table; so under the table's
            # lock, nobody computing the key and no entry cached but the
            # one this request saw means nobody computed it while the
            # request waited for a worker.
            with self._inflight_lock:
                future = self._inflight.get(key)
                if future is None:
                    cached = self.cache.peek(key)
                    if cached is not None and cached is not entry:
                        entry, hit = cached, self._stamp_current(cached)
                    if not hit:
                        owner = True
                        future = self._inflight[key] = Future()
                elif not wait:
                    resolved.inline = False
                    return False
        resolved.entry, resolved.hit, resolved.trials = entry, hit, trials
        resolved.future, resolved.owner = future, owner
        resolved.lookup_s += time.perf_counter() - reading
        return True

    def answer(self, resolved) -> ServiceResult:
        """Serve a resolved request: the cached report on a hit, else
        :meth:`claim` it, then re-cost a stale entry or compute.

        Identical concurrent requests coalesce onto a single computation
        -- for cold computes *and* for recalibration re-costs: a stale
        cache entry is re-priced exactly once however many callers see
        it go stale together; everyone gets the same report object.
        """
        # wall_s counts the resolve steps too, wherever they ran.
        start = (time.perf_counter()
                 - resolved.fingerprint_s - resolved.lookup_s)
        self.metrics.inc("service.requests")
        if not resolved.hit and resolved.future is None:
            self.claim(resolved)
        request, key = resolved.request, resolved.fingerprint
        entry, hit, future = resolved.entry, resolved.hit, resolved.future
        # Measured in resolve(), possibly on another thread before this
        # request's trace began: emitted, like the admission wait.
        emit_span("fingerprint", resolved.fingerprint_s)
        emit_span("cache_lookup", resolved.lookup_s, hit=hit,
                  stale=entry is not None and not hit)
        if hit:
            self.metrics.inc("service.hits")
            return self._result(start, entry.report, key, cache_hit=True)

        self.metrics.inc("service.misses")
        if not resolved.owner:
            with span("coalesced_wait"):
                report, recalibrated = future.result()
            self.metrics.inc("service.coalesced")
            return self._result(start, report, key, coalesced=True,
                                recalibrated=recalibrated)

        try:
            # Stamp with the calibration state the report is priced
            # against, read before optimizing -- a concurrent
            # calibration update while this computation runs must leave
            # the entry stale (the next request must re-cost again, not
            # serve part-stale numbers).
            version = self.calibration.version
            digest = self.calibration.state_digest()
            # A stale entry is re-costed from its cached speculation
            # results -- calibrated estimates with no re-speculation; a
            # plain miss speculates from scratch.
            recalibrated = entry is not None
            with span("recost" if recalibrated else "compute_plan"):
                report = self._make_optimizer(
                    request.algorithms, request.batch_sizes,
                    context=(
                        resolved.context or self.trial_context(
                            request.dataset, request.training)
                        if request.fixed_iterations is None
                        and not recalibrated
                        else None
                    ),
                    trials=resolved.trials,
                ).optimize(
                    request.dataset,
                    request.training,
                    fixed_iterations=request.fixed_iterations,
                    iteration_estimates=(
                        entry.report.iteration_estimates
                        if recalibrated else None
                    ),
                )
        except BaseException as exc:
            # Waiters coalesced onto this computation see the same error.
            future.set_exception(exc)
            with self._inflight_lock:
                self._inflight.pop(key, None)
            raise
        # Populate the cache *before* dropping the in-flight entry, so a
        # concurrent identical request always finds one of the two.
        cached = _CachedPlan(report, version, digest)
        self.cache.put(key, cached)
        self._persist(key, cached)
        future.set_result((report, recalibrated))
        with self._inflight_lock:
            self._inflight.pop(key, None)
        self.metrics.inc(
            "service.recalibrated" if recalibrated else "service.computed"
        )
        return self._result(start, report, key, recalibrated=recalibrated)

    def _result(self, start, report, key, cache_hit=False, coalesced=False,
                recalibrated=False) -> ServiceResult:
        return ServiceResult(report, key, cache_hit, coalesced,
                             time.perf_counter() - start, recalibrated)

    def save_calibration(self, path=None) -> str | None:
        """Persist the calibration store (no-op without a path)."""
        if path is None and self.calibration.path is None:
            return None
        return self.calibration.save(path)

    # ------------------------------------------------------------------
    def cache_stats(self):
        return self.cache.stats()

    def stats_summary(self) -> str:
        value = self.metrics.value
        text = (
            f"{self.cache.stats().summary()}; "
            f"{value('service.requests')} requests "
            f"({value('service.computed')} computed, "
            f"{value('service.coalesced')} coalesced, "
            f"{value('service.recalibrated')} recalibrated)"
        )
        if value("service.trained"):
            text += f"; {value('service.trained')} trained"
        if self.calibration.observations:
            text += f"; calibration v{self.calibration.version}"
        if self.backend is not None:
            text += (
                f"; plan store: {self.backend.name}"
                f" ({self.warm_loaded} warm-loaded)"
            )
        resumed = value("service.jobs_resumed")
        jobs = value("service.jobs_started") + resumed
        if jobs:
            text += (
                f"; {jobs} job lease(s) "
                f"({resumed} resumed, "
                f"{value('service.jobs_preempted')} preempted, "
                f"{value('service.jobs_completed')} completed)"
            )
        return text
