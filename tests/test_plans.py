"""Unit tests for GD plans and the Figure 5 plan space."""

import dataclasses

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core.optimizer import GDOptimizer
from repro.core.plan_space import (
    STOCHASTIC_VARIANTS,
    enumerate_plans,
    plans_for_algorithm,
    space_size,
)
from repro.core.plans import GDPlan, TrainingSpec
from repro.errors import PlanError
from repro.gd import registry as gd_registry

from support import make_dataset


class TestGDPlan:
    def test_bgd_plan(self):
        plan = GDPlan("bgd")
        assert not plan.is_stochastic
        assert plan.effective_batch_size is None
        assert plan.label == "BGD"

    def test_sgd_plan_label(self):
        plan = GDPlan("sgd", "lazy", "shuffle")
        assert plan.label == "SGD-lazy-shuffle"
        assert plan.effective_batch_size == 1

    def test_mgd_default_batch(self):
        plan = GDPlan("mgd", "eager", "bernoulli")
        assert plan.effective_batch_size == 1000

    def test_mgd_batch_override(self):
        plan = GDPlan("mgd", "eager", "shuffle", batch_size=10_000)
        assert plan.effective_batch_size == 10_000

    def test_stochastic_requires_sampler(self):
        with pytest.raises(PlanError):
            GDPlan("sgd")

    def test_bgd_rejects_sampler(self):
        with pytest.raises(PlanError):
            GDPlan("bgd", sampling="shuffle")

    def test_bgd_rejects_lazy(self):
        with pytest.raises(PlanError):
            GDPlan("bgd", transform_mode="lazy")

    def test_lazy_bernoulli_excluded(self):
        # Section 6: "Bernoulli sampling goes through all the data anyways".
        with pytest.raises(PlanError):
            GDPlan("sgd", "lazy", "bernoulli")

    def test_unknown_algorithm(self):
        with pytest.raises(PlanError):
            GDPlan("newton")

    def test_unknown_sampler(self):
        with pytest.raises(PlanError):
            GDPlan("sgd", "eager", "systematic")

    def test_unknown_transform_mode(self):
        with pytest.raises(PlanError):
            GDPlan("sgd", "deferred", "shuffle")

    def test_bad_batch(self):
        with pytest.raises(PlanError):
            GDPlan("mgd", "eager", "shuffle", batch_size=0)

    def test_plans_hashable_and_frozen(self):
        a = GDPlan("sgd", "lazy", "shuffle")
        b = GDPlan("sgd", "lazy", "shuffle")
        assert a == b
        assert len({a, b}) == 1


class TestPlanSpace:
    def test_eleven_plans_for_core_algorithms(self):
        # Figure 5: 1 (BGD) + 5 (MGD) + 5 (SGD) = 11 plans.
        plans = enumerate_plans()
        assert len(plans) == 11
        assert space_size() == 11

    def test_bgd_has_single_plan(self):
        assert len(plans_for_algorithm("bgd")) == 1

    def test_stochastic_variants_match_figure5(self):
        assert set(STOCHASTIC_VARIANTS) == {
            ("eager", "bernoulli"),
            ("eager", "random"),
            ("eager", "shuffle"),
            ("lazy", "random"),
            ("lazy", "shuffle"),
        }

    def test_space_grows_with_extra_algorithms(self):
        # "our search space size is fully parameterized based on the
        # number of GD algorithms" (Section 6).
        plans = enumerate_plans(("bgd", "mgd", "sgd", "svrg"))
        assert len(plans) == 16

    def test_all_plans_distinct(self):
        plans = enumerate_plans()
        assert len(set(plans)) == len(plans)

    def test_batch_size_propagated(self):
        plans = enumerate_plans(("mgd",), batch_sizes={"mgd": 5000})
        assert all(p.effective_batch_size == 5000 for p in plans)


    def test_a_space_is_built_once_per_registered_spec(self):
        first = enumerate_plans(batch_sizes={"mgd": 7})
        first.append("caller's own")
        again = enumerate_plans(batch_sizes={"mgd": 7})
        assert len(again) == 11
        assert all(a is b for a, b in zip(first, again))
        other = enumerate_plans(batch_sizes={"mgd": 8})
        assert [p.batch_size for p in other if p.algorithm == "mgd"] == \
            [8] * 5
        original = gd_registry.info("mgd")
        try:
            gd_registry.register(dataclasses.replace(
                original, plan_variants=(("eager", "random"),)),
                replace=True)
            narrowed = enumerate_plans(batch_sizes={"mgd": 7})
            assert [str(p) for p in narrowed if p.algorithm == "mgd"] == \
                ["MGD-eager-random"]
        finally:
            gd_registry.register(original, replace=True)
        assert enumerate_plans(batch_sizes={"mgd": 7}) == again


class TestTrainingSpec:
    def test_defaults(self):
        spec = TrainingSpec()
        assert spec.tolerance == 1e-3
        assert spec.max_iter == 1000

    def test_gradient_materialisation(self):
        spec = TrainingSpec(task="svm")
        assert spec.gradient().task == "svm"

    def test_l2_applied(self):
        from repro.gd.gradients import L2Regularized

        spec = TrainingSpec(task="logreg", l2=0.1)
        assert isinstance(spec.gradient(), L2Regularized)

    def test_validation(self):
        with pytest.raises(PlanError):
            TrainingSpec(tolerance=0)
        with pytest.raises(PlanError):
            TrainingSpec(max_iter=0)
        with pytest.raises(PlanError):
            TrainingSpec(time_budget_s=-1)
        with pytest.raises(PlanError, match="l2"):
            TrainingSpec(l2=-5)
        optimizer = GDOptimizer(SimulatedCluster(ClusterSpec(), seed=0))
        for count in (0, -5):
            with pytest.raises(PlanError, match="fixed_iterations"):
                optimizer.optimize(make_dataset(), TrainingSpec(),
                                   fixed_iterations=count)
