"""Tests for the concurrent OptimizerService (plan cache + coalescing)."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import ClusterSpec
from repro.core.iterations import SpeculationSettings
from repro.core.plans import TrainingSpec
from repro.errors import ConstraintError
from repro.service import (
    OptimizerService,
    PlanCache,
    ServiceRequest,
    workload_fingerprint,
)

from support import make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(
        n_phys=2000, d=20, task="logreg", spec=spec, seed=3,
        separability=1.2, hard_fraction=0.3, noise_scale=0.3,
        label_noise=0.02,
    )


@pytest.fixture
def training():
    return TrainingSpec(task="logreg", tolerance=1e-2, seed=1)


@pytest.fixture
def service(spec):
    return OptimizerService(
        spec=spec,
        seed=5,
        speculation=SpeculationSettings(
            sample_size=400, time_budget_s=0.5, max_speculation_iters=800
        ),
    )


class TestPlanCache:
    def test_get_put_roundtrip(self):
        cache = PlanCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("nope") is None
        assert cache.get("nope", "fallback") == "fallback"

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats().evictions == 1

    def test_put_over_a_key_replaces_and_refreshes_it(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # no eviction; b is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_peek_neither_counts_nor_refreshes(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        cache.put("c", 3)       # a stayed least recent
        assert "a" not in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 0)

    def test_stats_counters(self):
        cache = PlanCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.requests == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert "hit" in stats.summary()

    def test_clear(self):
        cache = PlanCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_summary_reports_entries_requests_and_evictions(self):
        cache = PlanCache(maxsize=2)
        for key in "abc":
            cache.put(key, key)
        cache.get("c")
        cache.get("a")          # evicted by c
        assert cache.stats().summary() == (
            "plan cache: 2/2 entries, 1 hits / 1 misses "
            "(50% hit rate), 1 evictions"
        )

    def test_concurrent_puts_and_gets_keep_the_bound(self):
        cache = PlanCache(maxsize=8)

        def work(thread):
            for n in range(200):
                cache.put((thread, n), n)
                cache.get((thread, n))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
        stats = cache.stats()
        assert stats.size == len(cache) == 8
        assert stats.evictions == 4 * 200 - 8
        assert stats.requests == 4 * 200


class TestFingerprint:
    def test_stable_across_calls(self, service, dataset, training):
        assert service.fingerprint(dataset, training) == \
            service.fingerprint(dataset, training)

    def test_equal_for_equal_workloads(self, spec, dataset, training):
        a = workload_fingerprint(dataset.stats, training, spec)
        b = workload_fingerprint(dataset.stats, training, spec)
        assert a == b

    def test_tolerance_change_invalidates(self, service, dataset, training):
        import dataclasses

        tighter = dataclasses.replace(training, tolerance=1e-4)
        assert service.fingerprint(dataset, training) != \
            service.fingerprint(dataset, tighter)

    def test_cluster_spec_change_invalidates(self, spec, dataset, training):
        base = OptimizerService(spec=spec, seed=5)
        bigger = OptimizerService(
            spec=spec.with_overrides(n_nodes=8), seed=5
        )
        assert base.fingerprint(dataset, training) != \
            bigger.fingerprint(dataset, training)

    def test_fixed_iterations_invalidates(self, service, dataset, training):
        assert service.fingerprint(dataset, training) != \
            service.fingerprint(dataset, training, fixed_iterations=100)

    def test_algorithm_override_invalidates(self, service, dataset, training):
        assert service.fingerprint(dataset, training) != \
            service.fingerprint(dataset, training, algorithms=("bgd",))

    def test_representation_invalidates(self, service, dataset, training):
        assert service.fingerprint(dataset, training) != \
            service.fingerprint(dataset.as_binary(), training)

    def test_stats_drive_identity_with_fixed_iterations(
        self, spec, service, training
    ):
        """Without speculation the answer depends only on the stats, so
        same-stats datasets share one cache entry."""
        a = make_dataset(n_phys=500, d=10, spec=spec, seed=1)
        b = make_dataset(n_phys=500, d=10, spec=spec, seed=2)
        assert service.fingerprint(a, training, fixed_iterations=100) == \
            service.fingerprint(b, training, fixed_iterations=100)

    def test_data_content_invalidates_when_speculating(
        self, spec, service, training
    ):
        """Speculation runs on the actual data: same stats, different
        data must not collide in the cache."""
        a = make_dataset(n_phys=500, d=10, spec=spec, seed=1)
        b = make_dataset(n_phys=500, d=10, spec=spec, seed=2)
        assert service.fingerprint(a, training) != \
            service.fingerprint(b, training)
        same = make_dataset(n_phys=500, d=10, spec=spec, seed=1)
        assert service.fingerprint(a, training) == \
            service.fingerprint(same, training)


class TestOptimizerService:
    def test_cold_miss_then_warm_hit(self, service, dataset, training):
        first = service.optimize(dataset, training)
        second = service.optimize(dataset, training)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.report is first.report
        assert service.metrics.value("service.computed") == 1
        assert service.cache_stats().hits == 1

    def test_cached_report_matches_direct_optimizer(
        self, service, dataset, training
    ):
        direct = service._make_optimizer().optimize(dataset, training)
        served = service.optimize(dataset, training)
        assert served.report.chosen_plan == direct.chosen_plan
        assert [c.plan for c in served.report.candidates] == \
            [c.plan for c in direct.candidates]

    def test_warm_hit_is_fast(self, service, dataset, training):
        cold = service.optimize(dataset, training)
        warm_s = min(
            service.optimize(dataset, training).wall_s for _ in range(5)
        )
        assert warm_s < cold.wall_s

    def test_tolerance_change_misses(self, service, dataset, training):
        import dataclasses

        service.optimize(dataset, training)
        result = service.optimize(
            dataset, dataclasses.replace(training, tolerance=5e-3)
        )
        assert not result.cache_hit
        assert service.metrics.value("service.computed") == 2

    def test_fixed_iterations_requests_cache_separately(
        self, service, dataset, training
    ):
        a = service.optimize(dataset, training, fixed_iterations=100)
        b = service.optimize(dataset, training, fixed_iterations=200)
        c = service.optimize(dataset, training, fixed_iterations=100)
        assert not a.cache_hit and not b.cache_hit
        assert c.cache_hit
        assert all(
            cand.estimated_iterations == 100
            for cand in c.report.candidates
        )

    def test_algorithm_override_restricts_space(
        self, service, dataset, training
    ):
        result = service.optimize(
            dataset, training, fixed_iterations=50, algorithms=("bgd",)
        )
        assert len(result.report.candidates) == 1
        assert str(result.chosen_plan) == "BGD"

    def test_constraint_error_propagates_and_is_not_cached(
        self, service, dataset
    ):
        import dataclasses

        impossible = TrainingSpec(
            task="logreg", tolerance=1e-2, time_budget_s=1e-9, seed=1
        )
        with pytest.raises(ConstraintError):
            service.optimize(dataset, impossible, fixed_iterations=100)
        assert len(service.cache) == 0
        # The failed computation does not poison later requests.
        relaxed = dataclasses.replace(impossible, time_budget_s=None)
        assert service.optimize(
            dataset, relaxed, fixed_iterations=100
        ).report is not None

    def test_engine_isolation_between_requests(
        self, service, dataset, training
    ):
        """Each computation runs on a fresh simulated cluster."""
        first = service.optimize(dataset, training)
        second = service.optimize(
            dataset, training, fixed_iterations=123
        )
        assert first.report.speculation_sim_s > 0
        assert second.report.speculation_sim_s == 0


class TestResolveThenAnswer:
    """optimize() in two steps, so a front-end can look before it picks
    a thread -- and queue the second step behind other work."""

    def test_resolved_requests_answer_like_optimize(
        self, service, dataset, training
    ):
        request = ServiceRequest(dataset, training, fixed_iterations=50)
        miss = service.resolve(request)
        assert not miss.hit and miss.entry is None
        computed = service.answer(miss)
        assert not computed.cache_hit
        assert service.metrics.value("service.computed") == 1
        hit = service.resolve(request)
        assert hit.hit and hit.fingerprint == computed.fingerprint
        answer = service.answer(hit)
        assert answer.cache_hit and answer.report is computed.report
        assert service.metrics.value("service.requests") == 2
        assert service.metrics.value("service.hits") == 1

    def test_a_miss_resolved_before_its_twin_computed_is_a_hit(
        self, service, dataset, training
    ):
        """Two identical requests both miss on the event loop; by the
        time a worker reaches the second, the first has cached the
        plan: it must be served, not computed again."""
        request = ServiceRequest(dataset, training, fixed_iterations=50)
        first, second = service.resolve(request), service.resolve(request)
        assert not first.hit and not second.hit
        report = service.answer(first).report
        late = service.answer(second)
        assert late.cache_hit and late.report is report
        assert service.metrics.value("service.computed") == 1

    def test_a_queued_miss_still_reads_through_to_the_store(
        self, spec, dataset, training, tmp_path
    ):
        service = OptimizerService(
            spec=spec, seed=5, cache_size=1,
            cache_path=str(tmp_path / "plans.json"),
        )
        requests = [ServiceRequest(dataset, training, fixed_iterations=n)
                    for n in (50, 51, 52)]
        service.answer(service.resolve(requests[0]))
        service.answer(service.resolve(requests[1]))  # evicts the first
        evicted = service.resolve(requests[0])
        assert evicted.entry is None
        service.answer(service.resolve(requests[2]))  # the cache moved on
        restored = service.answer(evicted)
        assert restored.cache_hit
        assert service.metrics.value("service.computed") == 3
        service.close()

    def test_one_counted_cache_lookup_per_request_whatever_its_twins_do(
        self, service, dataset, training
    ):
        """32 misses (4 workloads x 8 twins) answered on 8 threads while
        their twins cache plans: each made the one PlanCache.get its
        resolve() made, and each workload was computed once."""
        resolved = [
            service.resolve(
                ServiceRequest(dataset, training, fixed_iterations=50 + n % 4))
            for n in range(32)
        ]
        assert not any(r.hit for r in resolved)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(service.answer, resolved))
        assert service.cache.stats().requests == 32
        assert service.metrics.value("service.computed") == 4
        assert sum(r.cache_hit or r.coalesced for r in results) == 28


def answer_three(service, dataset, training):
    for _ in range(3):
        service.answer(service.resolve(ServiceRequest(dataset, training)))


class TestOptimizeMany:
    def test_order_preserved(self, service, dataset, training):
        requests = [
            ServiceRequest(dataset, training, fixed_iterations=n)
            for n in (50, 100, 150)
        ]
        results = [service.answer(service.resolve(r)) for r in requests]
        iters = [
            r.report.candidates[0].estimated_iterations for r in results
        ]
        assert iters == [50, 100, 150]

    def test_identical_requests_compute_once(
        self, service, dataset, training
    ):
        request = ServiceRequest(dataset, training)
        results = [service.answer(service.resolve(request))
                   for _ in range(12)]
        assert service.metrics.value("service.computed") == 1
        reference = results[0].report
        assert all(r.report is reference for r in results)

    def test_stats_summary_renders(self, service, dataset, training):
        answer_three(service, dataset, training)
        text = service.stats_summary()
        assert "plan cache" in text
        assert "requests" in text

    def test_stats_summary_reads_the_metrics(self, service, dataset,
                                             training):
        answer_three(service, dataset, training)
        value = service.metrics.value
        assert value("service.requests") == 3
        assert value("service.computed") == 1
        assert value("service.hits") == 2
        assert "3 requests (1 computed, 0 coalesced, 0 recalibrated)" \
            in service.stats_summary()
        # The counters live in the registry only: no attribute views.
        assert not hasattr(service, "computed")


class TestML4allServiceAPI:
    def test_optimize_many_via_facade(self, spec):
        from repro.api import ML4all

        system = ML4all(cluster_spec=spec, seed=7)
        shared = {"max_iter": 200, "fixed_iterations": 80}
        results = [
            system.optimize_request({"dataset": "adult", **shared}),
            system.optimize_request({"dataset": "adult", "epsilon": 0.05,
                                     **shared}),
        ]
        assert all(r.report.chosen_plan is not None for r in results)
        # The facade reuses one service, so the warm cache persists.
        again = system.optimize_request({"dataset": "adult", **shared})
        assert again.cache_hit

    def test_facade_service_is_shared(self, spec):
        from repro.api import ML4all

        system = ML4all(cluster_spec=spec, seed=7)
        assert system.service() is system.service()

    def test_per_request_algorithm_pin(self, spec):
        from repro.api import ML4all

        system = ML4all(cluster_spec=spec, seed=7)
        result = system.optimize_request(
            {"dataset": "adult", "algorithm": "bgd", "max_iter": 100,
             "fixed_iterations": 60},
        )
        assert str(result.chosen_plan) == "BGD"

    def test_repeated_registry_names_resolve_once(self, spec, monkeypatch):
        from repro.api import ML4all

        system = ML4all(cluster_spec=spec, seed=7)
        calls = []
        original = ML4all.load_dataset

        def counting_load(self, source, **kwargs):
            calls.append(source)
            return original(self, source, **kwargs)

        monkeypatch.setattr(ML4all, "load_dataset", counting_load)
        for _ in range(5):
            system.optimize_request(
                {"dataset": "adult", "max_iter": 100, "fixed_iterations": 40})
        # One registry resolution for the five, not one per request.
        assert calls.count("adult") == 1

    def test_service_config_ignored_after_creation_warns(self, spec):
        from repro.api import ML4all

        system = ML4all(cluster_spec=spec, seed=7)
        system.service(cache_size=64)
        assert system.service().cache.maxsize == 64  # None: no warning
        with pytest.warns(UserWarning, match="cache_size"):
            system.service(cache_size=8)
        assert system.service().cache.maxsize == 64


class TestFreezeStepSchedules:
    def test_equal_schedules_equal_fingerprints(self, spec, dataset):
        import dataclasses

        from repro.gd.step_size import InverseSqrtStep

        service = OptimizerService(spec=spec, seed=5)
        t1 = TrainingSpec(task="logreg", tolerance=1e-2,
                          step_size=InverseSqrtStep(2.0), seed=1)
        t2 = dataclasses.replace(t1, step_size=InverseSqrtStep(2.0))
        assert service.fingerprint(dataset, t1, fixed_iterations=50) == \
            service.fingerprint(dataset, t2, fixed_iterations=50)

    def test_different_schedules_different_fingerprints(
        self, spec, dataset
    ):
        import dataclasses

        from repro.gd.step_size import InverseSqrtStep, InverseStep

        service = OptimizerService(spec=spec, seed=5)
        t1 = TrainingSpec(task="logreg", tolerance=1e-2,
                          step_size=InverseSqrtStep(1.0), seed=1)
        fingerprints = {
            service.fingerprint(
                dataset,
                dataclasses.replace(t1, step_size=schedule),
                fixed_iterations=50,
            )
            for schedule in (
                InverseSqrtStep(1.0),
                InverseSqrtStep(8.0),
                InverseStep(1.0),
            )
        }
        assert len(fingerprints) == 3

    def test_callables_freeze_by_name(self):
        from repro.service import freeze

        def schedule(i):
            return 1.0 / i

        frozen = freeze(schedule)
        assert "0x" not in str(frozen)
        assert frozen == freeze(schedule)
