"""Service-level adaptive runtime: train(), calibration, recost."""

import dataclasses

import numpy as np
import pytest

from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.core.plans import TrainingSpec
from repro.core.reference_ops import GradientCompute, default_operators
from repro.errors import PlanError
from repro.runtime import JobBudget, PerturbedCostModel
from repro.service import OptimizerService

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


def make_service(spec, **kwargs):
    kwargs.setdefault("speculation", SpeculationSettings(
        sample_size=400, time_budget_s=0.5, max_speculation_iters=800
    ))
    return OptimizerService(spec=spec, seed=5, **kwargs)


def perturbing(service, spec, factors):
    """Make every optimizer the service builds use a perturbed model."""
    service.cost_model = PerturbedCostModel(spec, factors)
    return service


class TestServiceTrain:
    def test_train_executes_the_chosen_plan(self, spec, dataset, training):
        service = make_service(spec)
        outcome = service.train(dataset, training)
        assert outcome.result.iterations > 0
        assert outcome.weights.shape == (dataset.stats.d,)
        assert outcome.trace is None  # non-adaptive: no telemetry
        assert service.metrics.value("service.trained") == 1
        assert "iterations" in outcome.summary()

    def test_per_caller_engine_isolation(self, spec, dataset, training):
        """Each train() runs on a fresh simulated cluster clone."""
        service = make_service(spec)
        first = service.train(dataset, training)
        second = service.train(dataset, training)
        # Identical simulated cost: neither run saw the other's clock,
        # cache residency or RNG stream (second had a warm *plan* cache,
        # which must not leak into execution).
        assert first.result.sim_seconds == second.result.sim_seconds
        assert np.array_equal(first.weights, second.weights)
        assert second.optimization.cache_hit

    @pytest.mark.parametrize("monitored", [
        {"adaptive": True},
        {"budget": JobBudget(max_iterations=10)},
    ], ids=["adaptive", "budget"])
    def test_monitored_runs_refuse_custom_operators(
        self, spec, dataset, training, monitored
    ):
        # The runtime executes the reference operators, so a bundle
        # passed with adaptive= or budget= must be refused, not dropped.
        calls = []

        class CountingCompute(GradientCompute):
            def compute(self, X, y, context):
                calls.append(1)
                return super().compute(X, y, context)

        operators = default_operators(
            d=20, gradient=training.gradient(),
            max_iter=training.max_iter, tolerance=training.tolerance,
        )
        operators.compute = CountingCompute(training.gradient())
        service = make_service(spec, algorithms=("bgd",))
        with pytest.raises(PlanError, match="custom operator"):
            service.train(dataset, training, operators=operators,
                          **monitored)
        assert calls == []
        plain = service.train(dataset, training, operators=operators)
        assert len(calls) == plain.result.iterations > 0

    def test_adaptive_train_produces_trace_and_calibration(
        self, spec, dataset, training
    ):
        service = make_service(spec)
        outcome = service.train(dataset, training, adaptive=True)
        assert outcome.trace is not None
        assert outcome.trace.total_iterations == outcome.adaptive.iterations
        assert service.calibration.observations > 0

    def test_train_many_preserves_order(self, spec, dataset, training):
        service = make_service(spec)
        tighter = dataclasses.replace(training, tolerance=5e-3)
        results = [service.train(dataset, target)
                   for target in (training, tighter)]
        assert results[0].optimization.fingerprint != \
            results[1].optimization.fingerprint


class TestCalibratedRecost:
    def test_second_request_recosts_without_respeculation(
        self, spec, dataset, training, monkeypatch
    ):
        service = perturbing(make_service(spec), spec, {"bgd": 0.25})
        service.train(dataset, training, adaptive=True)
        assert service.calibration.version > 0

        speculations = []
        original = SpeculativeEstimator.estimate_all

        def counting(self, *args, **kwargs):
            speculations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpeculativeEstimator, "estimate_all", counting)
        repeat = service.optimize(dataset, training)
        assert repeat.recalibrated
        assert not repeat.cache_hit
        assert speculations == []  # calibrated estimates, no re-speculation
        assert repeat.report.calibrated
        # The re-costed entry is cached: a third request is a plain hit.
        version = service.calibration.version
        third = service.optimize(dataset, training)
        assert third.cache_hit
        assert service.calibration.version == version

    def test_unperturbed_adaptive_false_is_bit_identical(
        self, spec, dataset, training
    ):
        """adaptive=False through the service matches the direct
        one-shot optimizer exactly (same plan, same execution)."""
        from repro.cluster import SimulatedCluster
        from repro.core.executor import execute_plan
        from repro.core.optimizer import GDOptimizer

        direct_opt = GDOptimizer(
            SimulatedCluster(spec, seed=5),
            estimator=SpeculativeEstimator(
                SpeculationSettings(sample_size=400, time_budget_s=0.5,
                                    max_speculation_iters=800),
                seed=5,
            ),
        )
        direct_report = direct_opt.optimize(dataset, training)
        direct = execute_plan(
            SimulatedCluster(spec, seed=5), dataset,
            direct_report.chosen_plan, training,
        )

        service = make_service(spec)
        served = service.train(dataset, training)
        assert served.report.chosen_plan == direct_report.chosen_plan
        assert np.array_equal(served.weights, direct.weights)
        assert served.result.iterations == direct.iterations

    def test_calibration_persists_across_service_restarts(
        self, spec, dataset, training, tmp_path
    ):
        path = str(tmp_path / "calibration.json")
        first = perturbing(
            make_service(spec, calibration_path=path), spec, {"bgd": 0.25}
        )
        first.train(dataset, training, adaptive=True)
        learned = first.calibration.correction("bgd", spec)
        saved = first.save_calibration()
        assert saved == path

        # A "restarted" service on the same path starts calibrated...
        restarted = perturbing(
            make_service(spec, calibration_path=path), spec, {"bgd": 0.25}
        )
        restored = restarted.calibration.correction("bgd", spec)
        assert restored.cost_factor == pytest.approx(learned.cost_factor)
        # ...and its very first optimize() applies the corrections.
        report = restarted.optimize(dataset, training).report
        assert report.calibrated

    def test_save_without_path_is_noop(self, spec):
        assert make_service(spec).save_calibration() is None


class TestCacheKeys:
    def test_drifted_dataset_is_a_new_key_not_a_stale_hit(
        self, spec, dataset, training
    ):
        """Data that grows changes its fingerprint, so the plan cache
        needs no time-to-live to stop serving the old decision."""
        service = make_service(spec)
        service.optimize(dataset, training, fixed_iterations=50)
        assert service.optimize(dataset, training,
                                fixed_iterations=50).cache_hit
        grown = make_dataset(n_phys=2000, sim_n=4000, d=20, task="logreg",
                             spec=spec, seed=3)
        assert not service.optimize(grown, training,
                                    fixed_iterations=50).cache_hit
        assert service.metrics.value("service.computed") == 2
