"""Unit and property tests for the Section 7 cost model."""

import dataclasses
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.cluster.storage import DatasetStats
import test_cost_table as cost_table
from repro.core import cost_model
from repro.core.cost_model import (
    CostModel,
    compute_cpu_per_unit,
    cpu_cost,
    io_cost,
    layout_for,
    network_cost,
    transform_cpu_per_unit,
)
from repro.core.plan_space import enumerate_plans
from repro.core.plans import GDPlan
from repro.data import datasets
from repro.gd import registry as gd_registry
from repro.gd.spec import CostTerms
from repro.runtime import PerturbedCostModel

#: The registered algorithms: the 41-plan space.
REGISTERED = ("bgd", "mgd", "sgd", "svrg", "momentum", "adagrad", "adam",
              "arc", "grad_avg")


@pytest.fixture
def spec():
    return ClusterSpec(jitter_sigma=0.0)


def stats_for(n=100_000, d=50, density=1.0, sparse=False):
    return DatasetStats("x", "svm", n=n, d=d, density=density,
                        is_sparse=sparse)


class TestLayout:
    def test_partition_count_matches_table1(self, spec):
        stats = stats_for(n=2_000_000, d=100)
        layout = layout_for(spec, stats, "binary")
        expected_p = -(-stats.binary_bytes // spec.hdfs_block_bytes)
        assert layout.p == expected_p

    def test_units_per_partition(self, spec):
        stats = stats_for(n=2_000_000, d=100)
        layout = layout_for(spec, stats, "binary")
        assert layout.k == -(-stats.n // layout.p)
        assert layout.k * layout.p >= stats.n

    def test_text_layout_has_more_partitions_when_text_is_bigger(self, spec):
        stats = DatasetStats("x", "svm", n=5_000_000, d=100,
                             row_text_bytes=1800.0)
        text = layout_for(spec, stats, "text")
        binary = layout_for(spec, stats, "binary")
        assert text.p > binary.p


class TestFormulas:
    def test_io_cost_formula3_manual(self, spec):
        stats = stats_for(n=4_000_000, d=100)
        layout = layout_for(spec, stats, "binary")
        cost = io_cost(spec, layout, in_memory=False)
        full_waves = layout.p // spec.cap
        remaining = layout.p % spec.cap
        per_partition = spec.seek_disk_s + (
            layout.partition_bytes / spec.page_bytes * spec.page_io_disk_s
        )
        expected = (full_waves + (1 if remaining else 0)) * per_partition
        assert cost == pytest.approx(expected)

    def test_memory_io_cheaper(self, spec):
        layout = layout_for(spec, stats_for(n=4_000_000, d=100), "binary")
        assert io_cost(spec, layout, True) < io_cost(spec, layout, False)

    def test_cpu_cost_formula4_scales_with_waves(self, spec):
        small = layout_for(spec, stats_for(n=100_000, d=100), "binary")
        big = layout_for(spec, stats_for(n=10_000_000, d=100), "binary")
        cpu_unit = 1e-6
        assert cpu_cost(spec, big, cpu_unit) > cpu_cost(spec, small, cpu_unit)

    def test_network_cost_formula5(self, spec):
        nbytes = spec.packet_bytes * 10
        assert network_cost(spec, nbytes) == pytest.approx(
            spec.transfer_s(nbytes)
        )

    @given(n=st.integers(min_value=1000, max_value=10**8))
    @settings(max_examples=40, deadline=None)
    def test_io_cost_monotone_in_size(self, n):
        spec = ClusterSpec(jitter_sigma=0.0)
        small = layout_for(spec, stats_for(n=n, d=20), "binary")
        large = layout_for(spec, stats_for(n=2 * n, d=20), "binary")
        assert io_cost(spec, large, False) >= io_cost(spec, small, False)

    def test_cpu_per_unit_scales_with_nnz(self, spec):
        dense = layout_for(spec, stats_for(d=100), "binary")
        sparse = layout_for(
            spec, stats_for(d=100, density=0.1, sparse=True), "binary"
        )
        assert compute_cpu_per_unit(spec, dense) > \
            compute_cpu_per_unit(spec, sparse)
        assert transform_cpu_per_unit(spec, dense) > \
            transform_cpu_per_unit(spec, sparse)


class TestPlanCosts:
    def test_bgd_per_iteration_dominates_stochastic(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        bgd = sum(model.per_iteration_cost(GDPlan("bgd"), stats).values())
        sgd = sum(model.per_iteration_cost(
            GDPlan("sgd", "lazy", "shuffle"), stats).values())
        # Both share fixed per-iteration overheads (loop plumbing, the
        # sampling job), so the gap is bounded by the data-touch costs.
        assert bgd > 5 * sgd

    def test_bernoulli_costs_full_scan(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        bernoulli = model.per_iteration_cost(
            GDPlan("mgd", "eager", "bernoulli"), stats
        )["sample"]
        shuffle = model.per_iteration_cost(
            GDPlan("mgd", "eager", "shuffle"), stats
        )["sample"]
        assert bernoulli > 3 * shuffle

    def test_sgd_bernoulli_includes_empty_retries(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        sgd_sample = model.per_iteration_cost(
            GDPlan("sgd", "eager", "bernoulli"), stats
        )["sample"]
        mgd_sample = model.per_iteration_cost(
            GDPlan("mgd", "eager", "bernoulli"), stats
        )["sample"]
        # Poisson(1) is empty 37% of the time -> expected 1.58 scans.
        assert sgd_sample > 1.3 * mgd_sample

    def test_lazy_plans_have_no_transform_one_time(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        eager = model.one_time_cost(GDPlan("sgd", "eager", "shuffle"), stats)
        lazy = model.one_time_cost(GDPlan("sgd", "lazy", "shuffle"), stats)
        assert "transform" in eager
        assert "transform" not in lazy

    def test_lazy_pays_transform_per_iteration(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        lazy = model.per_iteration_cost(GDPlan("sgd", "lazy", "shuffle"),
                                        stats)
        assert "transform" in lazy
        eager = model.per_iteration_cost(GDPlan("sgd", "eager", "shuffle"),
                                         stats)
        assert "transform" not in eager

    def test_random_access_costs_scale_with_batch(self, spec):
        model = CostModel(spec)
        stats = stats_for(n=5_000_000, d=100)
        # Lazy plans sample the raw (uncached) text file, so every access
        # pays a disk seek -- the regime where random-partition hurts.
        small = model.per_iteration_cost(
            GDPlan("mgd", "lazy", "random", batch_size=10), stats
        )["sample"]
        large = model.per_iteration_cost(
            GDPlan("mgd", "lazy", "random", batch_size=1000), stats
        )["sample"]
        assert large > 20 * small

    def test_estimate_composition(self, spec):
        """Formula 7: total = one_time + T * per_iteration."""
        model = CostModel(spec)
        stats = stats_for()
        plan = GDPlan("bgd")
        one, per, total, breakdown = model.estimate(plan, stats, 100)
        assert total == pytest.approx(one + 100 * per)
        assert any(k.startswith("one_time:") for k in breakdown)
        assert any(k.startswith("iter:") for k in breakdown)

    @given(iterations=st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=30, deadline=None)
    def test_total_monotone_in_iterations(self, iterations):
        spec = ClusterSpec(jitter_sigma=0.0)
        model = CostModel(spec)
        stats = stats_for()
        plan = GDPlan("mgd", "eager", "shuffle")
        _, _, t1, _ = model.estimate(plan, stats, iterations)
        _, _, t2, _ = model.estimate(plan, stats, iterations + 1)
        assert t2 > t1

    def test_cache_capacity_changes_bgd_cost(self):
        stats = stats_for(n=50_000_000, d=100)  # ~40 GB binary
        cached_spec = ClusterSpec(jitter_sigma=0.0)
        tiny_cache = ClusterSpec(jitter_sigma=0.0,
                                 cache_bytes=1024 ** 3)
        fast = sum(CostModel(cached_spec).per_iteration_cost(
            GDPlan("bgd"), stats).values())
        slow = sum(CostModel(tiny_cache).per_iteration_cost(
            GDPlan("bgd"), stats).values())
        assert slow > fast

    def test_update_network_only_when_distributed(self, spec):
        model = CostModel(spec)
        small = stats_for(n=1000, d=10)  # single partition
        breakdown = model.per_iteration_cost(GDPlan("bgd"), small)
        # local update: pure CPU, roughly d * update_per_dim
        assert breakdown["update"] < 1e-3


class TestEstimateBatch:
    """The batch path must price and rank exactly like per-plan
    estimate()."""

    def plans(self):
        return enumerate_plans(batch_sizes={"mgd": 100})

    def assert_parity(self, spec, stats, iterations=None, factors=None):
        """Batch rows equal per-plan estimate() rows.  With ``factors``
        the batch comes from a PerturbedCostModel over the 41-plan
        registered space: a listed algorithm's per-iteration prices are
        the unperturbed ones times its factor, every other row is the
        unperturbed model's."""
        model = CostModel(spec)
        if factors is None:
            batch_model, plans = model, self.plans()
        else:
            batch_model = PerturbedCostModel(spec, factors)
            plans = enumerate_plans(REGISTERED)
        iters = iterations or [7 + 3 * i for i in range(len(plans))]
        batch = batch_model.estimate_batch(plans, stats, iters)
        totals = []
        for i, plan in enumerate(plans):
            one, per, total, breakdown = model.estimate(plan, stats, iters[i])
            factor = (factors or {}).get(plan.algorithm)
            if factor is not None:
                per = per * factor
                total = one + iters[i] * per
                breakdown = {k: v * factor if k.startswith("iter:") else v
                             for k, v in breakdown.items()}
            assert batch.one_time_s[i] == one
            assert batch.per_iteration_s[i] == per
            assert batch.total_s[i] == total
            assert batch.breakdown(i) == breakdown
            totals.append(total)
        loop_ranking = sorted(range(len(plans)), key=totals.__getitem__)
        batch_ranking = sorted(range(len(plans)),
                               key=lambda i: batch.total_s[i])
        assert loop_ranking == batch_ranking

    def test_parity_dense(self, spec):
        self.assert_parity(spec, stats_for(n=100_000, d=50))

    def test_parity_optimizer_scenario(self, spec):
        # The tests/test_optimizer.py dataset shape (2000 x 20 logreg).
        self.assert_parity(
            spec, DatasetStats("test", "logreg", n=2000, d=20)
        )

    def test_parity_large_distributed(self, spec):
        self.assert_parity(spec, stats_for(n=50_000_000, d=100))

    def test_parity_sparse(self, spec):
        self.assert_parity(
            spec, stats_for(n=10_000_000, d=50_000, density=1e-3,
                            sparse=True)
        )

    def test_parity_tiny_cache(self):
        self.assert_parity(
            ClusterSpec(jitter_sigma=0.0, cache_bytes=1024),
            stats_for(n=5_000_000, d=200),
        )

    def test_parity_single_node(self):
        self.assert_parity(
            ClusterSpec(jitter_sigma=0.0, n_nodes=1, slots_per_node=1),
            stats_for(n=100_000, d=50),
        )

    @pytest.mark.parametrize("factors", [{"sgd": 0.25}, {"bgd": 4.0}],
                             ids=["sgd", "bgd"])
    @pytest.mark.parametrize("stats", [
        stats_for(n=100_000, d=50),
        stats_for(n=50_000_000, d=100),
        stats_for(n=10_000_000, d=50_000, density=1e-3, sparse=True),
    ], ids=["dense", "large_distributed", "sparse"])
    def test_parity_perturbed(self, spec, stats, factors):
        # momentum, adagrad and adam share SGD's plan shapes, and Arc's
        # anchor passes are charged at BGD's full-batch price: neither
        # factor may leak into another algorithm's rows.
        self.assert_parity(spec, stats, factors=factors)

    @given(
        n=st.integers(min_value=1000, max_value=100_000_000),
        d=st.integers(min_value=1, max_value=10_000),
        iters=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_property(self, n, d, iters):
        spec = ClusterSpec(jitter_sigma=0.0)
        model = CostModel(spec)
        stats = stats_for(n=n, d=d)
        plans = self.plans()
        batch = model.estimate_batch(plans, stats, [iters] * len(plans))
        for i, plan in enumerate(plans):
            assert batch.total_s[i] == model.estimate(plan, stats, iters)[2]

    def test_empty_batch(self, spec):
        batch = CostModel(spec).estimate_batch([], stats_for(), [])
        assert len(batch) == 0

    def test_iteration_count_mismatch_raises(self, spec):
        from repro.errors import PlanError

        with pytest.raises(PlanError):
            CostModel(spec).estimate_batch(self.plans(), stats_for(), [1, 2])

    def test_argmin_is_cheapest(self, spec):
        model = CostModel(spec)
        plans = self.plans()
        batch = model.estimate_batch(plans, stats_for(),
                                     [100] * len(plans))
        best = batch.argmin()
        assert batch.total_s[best] == min(batch.total_s)

    def test_breakdown_is_a_new_dict_each_call(self, spec):
        plans = self.plans()
        batch = CostModel(spec).estimate_batch(plans, stats_for(),
                                               [100] * len(plans))
        first = batch.breakdown(0)
        first["calibration:cost_factor"] = 2.0
        assert "calibration:cost_factor" not in batch.breakdown(0)
        assert batch.breakdown(0) is not batch.breakdown(0)


class TestPriceMemo:
    """estimate_batch memoises the iteration-independent prices of a
    plan space; a call only multiplies them out."""

    def test_memoised_prices_are_a_fresh_models_on_the_pinned_table(self):
        golden = json.loads(cost_table.GOLDEN.read_text())
        for name in datasets.names():
            stats = datasets.REGISTRY[name].stats()
            for cluster, spec in cost_table.CLUSTERS.items():
                shared = CostModel(spec)
                for plans in cost_table.SPACES.values():
                    # Fill the memo at other iteration counts first.
                    shared.estimate_batch(plans, stats,
                                          range(1, len(plans) + 1))
                    memoised = cost_table.priced(shared, stats, plans)
                    assert len(shared._prices) >= 1
                    assert memoised == cost_table.priced(
                        CostModel(spec), stats, plans)
                    cost_table.assert_rows_match(
                        memoised, golden[f"{name}/{cluster}"],
                        (name, cluster))

    def test_the_stored_arrays_are_read_only(self, spec):
        plans = enumerate_plans(REGISTERED)
        model = CostModel(spec)
        batch = model.estimate_batch(plans, stats_for(), [10] * len(plans))
        for array in (batch.one_time_s, batch.per_iteration_s):
            with pytest.raises(ValueError):
                array[0] = 0.0
        again = model.estimate_batch(plans, stats_for(), [10] * len(plans))
        assert again.one_time_s is batch.one_time_s
        assert (again.total_s == batch.total_s).all()

    def test_a_perturbed_model_leaves_the_unperturbed_prices_alone(
        self, spec
    ):
        plans = enumerate_plans(REGISTERED)
        stats, iters = stats_for(), [50] * len(plans)
        perturbed = PerturbedCostModel(spec, {"sgd": 0.25, "bgd": 4.0})
        first = perturbed.estimate_batch(plans, stats, iters)
        second = perturbed.estimate_batch(plans, stats, iters)
        fresh = CostModel(spec).estimate_batch(plans, stats, iters)
        # Perturbed once per call, never twice through the memo...
        assert (first.per_iteration_s == second.per_iteration_s).all()
        assert first.breakdowns == second.breakdowns
        assert (first.per_iteration_s != fresh.per_iteration_s).any()
        # ...and what the memo holds is the faithful price.
        base = CostModel.estimate_batch(perturbed, plans, stats, iters)
        assert (base.per_iteration_s == fresh.per_iteration_s).all()
        assert (base.total_s == fresh.total_s).all()
        assert base.breakdowns == fresh.breakdowns

    def test_re_registering_an_algorithm_re_prices_it(self, spec):
        original = gd_registry.info("momentum")
        model = CostModel(spec)
        stats = stats_for()

        def price():
            plans = enumerate_plans(("sgd", "momentum"))
            batch = model.estimate_batch(plans, stats, [10] * len(plans))
            return plans, batch.per_iteration_s.tolist()

        plans, before = price()
        dearer = dataclasses.replace(
            original, cost=CostTerms(per_iteration_multiplier=3.0))
        try:
            gd_registry.register(dearer, replace=True)
            plans, after = price()
            fresh = CostModel(spec).estimate_batch(
                plans, stats, [10] * len(plans)).per_iteration_s.tolist()
            assert after == fresh
            for plan, old, new in zip(plans, before, after):
                if plan.algorithm == "momentum":
                    assert new == pytest.approx(3.0 * old)
                else:
                    assert new == old
        finally:
            gd_registry.register(original, replace=True)
        assert price()[1] == before

    def test_the_memo_is_bounded_and_least_recently_used_goes(self, spec):
        model = CostModel(spec)
        plans = enumerate_plans()
        bound = cost_model._PRICE_MEMO_SIZE

        def price(n):
            model.estimate_batch(plans, stats_for(n=n), [5] * len(plans))

        for n in range(1000, 1000 + bound):
            price(n)
        assert len(model._prices) == bound
        price(1000)  # the oldest, now the most recently used
        for n in range(5000, 5010):
            price(n)
            assert len(model._prices) == bound
        kept = {key[0].n for key in model._prices}
        assert 1000 in kept and 1001 not in kept

    def test_threads_sharing_one_model_get_fresh_prices(self, spec,
                                                        monkeypatch):
        monkeypatch.setattr(cost_model, "_PRICE_MEMO_SIZE", 4)
        model = CostModel(spec)
        plans = enumerate_plans(REGISTERED)
        sizes = [10_000 * (i + 1) for i in range(12)]
        expected = {
            n: CostModel(spec).estimate_batch(
                plans, stats_for(n=n), [9] * len(plans)).total_s.tolist()
            for n in sizes
        }
        wrong = []

        def worker(offset):
            for step in range(60):
                n = sizes[(offset + step) % len(sizes)]
                total = model.estimate_batch(
                    plans, stats_for(n=n), [9] * len(plans)).total_s
                if total.tolist() != expected[n]:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(model._prices) <= 4
