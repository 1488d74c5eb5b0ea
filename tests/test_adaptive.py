"""AdaptiveTrainer: mid-flight re-optimization and trace structure."""

import types

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.core.curve_fit import FittedCurve
from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.core.optimizer import GDOptimizer
from repro.core.plans import TrainingSpec
from repro.data import datasets as dataset_registry
from repro.runtime import (
    AdaptiveSettings,
    AdaptiveTrainer,
    CalibrationStore,
    ExecutionTrace,
    PerturbedCostModel,
    remaining_iterations,
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


def speculation():
    return SpeculationSettings(
        sample_size=400, time_budget_s=0.5, max_speculation_iters=800
    )


def optimizer_for(spec, cost_model=None, calibration=None, seed=0):
    return GDOptimizer(
        SimulatedCluster(spec, seed=seed),
        estimator=SpeculativeEstimator(speculation(), seed=5),
        cost_model=cost_model,
        calibration=calibration,
    )


class TestUnperturbed:
    def test_accurate_run_matches_one_shot_exactly(
        self, spec, dataset, training
    ):
        report, result = optimizer_for(spec).train(dataset, training)
        adaptive = AdaptiveTrainer(optimizer_for(spec)).train(
            dataset, training
        )
        assert not adaptive.switched
        assert len(adaptive.trace.segments) == 1
        assert np.array_equal(result.weights, adaptive.weights)
        assert result.iterations == adaptive.iterations
        assert result.sim_seconds == adaptive.result.sim_seconds
        assert adaptive.report.chosen_plan == report.chosen_plan


class TestPerturbed:
    def test_switches_and_beats_the_one_shot_mispick(
        self, spec, dataset, training
    ):
        # Find the honest choice, then under-estimate a different
        # algorithm 4x so the optimizer mis-picks it.
        honest_report, honest_result = optimizer_for(spec).train(
            dataset, training
        )
        victim = next(
            c.plan.algorithm for c in honest_report.ranking()
            if c.plan.algorithm != honest_report.chosen_plan.algorithm
        )
        model = PerturbedCostModel(spec, {victim: 0.25})

        mispick_report = optimizer_for(spec, cost_model=model).optimize(
            dataset, training
        )
        assert mispick_report.chosen_plan.algorithm == victim

        one_shot_engine = SimulatedCluster(spec, seed=0)
        from repro.core.executor import execute_plan

        one_shot = execute_plan(
            one_shot_engine, dataset, mispick_report.chosen_plan, training
        )

        store = CalibrationStore()
        trainer = AdaptiveTrainer(
            optimizer_for(spec, cost_model=model, calibration=store),
            calibration=store,
        )
        adaptive = trainer.train(dataset, training)

        assert adaptive.switched
        switch = adaptive.trace.switches[0]
        assert switch.from_plan.startswith(victim.upper())
        assert adaptive.converged
        # The switch carried the optimizer state: the post-switch
        # segment resumed the step schedule at the global iteration (no
        # beta/sqrt(1) restart) and the trace records the transfer.
        segments = adaptive.trace.segments
        post = segments[1]
        assert any(f"iteration offset {segments[0].iterations} carried"
                   in note for note in post.state_transfer)
        assert adaptive.result.state.iteration_offset == \
            adaptive.trace.total_iterations
        # Execution-only comparison (the adaptive run's sim_seconds also
        # carries speculation; segments alone are the training cost).
        assert adaptive.trace.sim_seconds < one_shot.sim_seconds
        # The trace fed the calibration store: the victim's true cost
        # (~4x the perturbed prediction) was learned.
        correction = store.correction(victim, spec)
        assert correction.cost_factor > 2.0

    def test_no_switch_budget_left_rides_it_out(
        self, spec, dataset, training
    ):
        # max_switches=0 turns the trainer into a telemetry-only runner.
        honest_report, _ = optimizer_for(spec).train(dataset, training)
        victim = next(
            c.plan.algorithm for c in honest_report.ranking()
            if c.plan.algorithm != honest_report.chosen_plan.algorithm
        )
        model = PerturbedCostModel(spec, {victim: 0.25})
        trainer = AdaptiveTrainer(
            optimizer_for(spec, cost_model=model),
            settings=AdaptiveSettings(max_switches=0),
        )
        adaptive = trainer.train(dataset, training)
        assert not adaptive.switched
        assert len(adaptive.trace.segments) == 1


class TestTraceStructure:
    def test_trace_round_trips_through_json(
        self, spec, dataset, training, tmp_path
    ):
        adaptive = AdaptiveTrainer(optimizer_for(spec)).train(
            dataset, training
        )
        path = tmp_path / "trace.json"
        adaptive.trace.save(str(path))
        restored = ExecutionTrace.load(str(path))
        assert restored.workload == adaptive.trace.workload
        assert restored.total_iterations == adaptive.trace.total_iterations
        assert restored.converged == adaptive.trace.converged
        assert len(restored.segments) == len(adaptive.trace.segments)
        seg, orig = restored.segments[0], adaptive.trace.segments[0]
        assert seg.plan == orig.plan
        assert seg.deltas == pytest.approx(orig.deltas)
        assert seg.cost_ratio == pytest.approx(orig.cost_ratio)

    def test_summary_mentions_plans_and_switches(
        self, spec, dataset, training
    ):
        adaptive = AdaptiveTrainer(optimizer_for(spec)).train(
            dataset, training
        )
        text = adaptive.summary()
        assert adaptive.trace.segments[0].plan in text
        assert "switch" in text


class TestFixedIterations:
    def test_fixed_iteration_run_completes(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-9, seed=1,
                                max_iter=500)
        adaptive = AdaptiveTrainer(optimizer_for(spec)).train(
            dataset, training, fixed_iterations=30
        )
        assert adaptive.iterations <= 30
        assert adaptive.report.iteration_estimates is None


class TestML4allAdaptive:
    def system(self, spec):
        from repro.api import ML4all

        return ML4all(
            cluster_spec=spec,
            seed=7,
            speculation=speculation(),
        )

    def test_adaptive_train_returns_trace(self, spec, dataset):
        system = self.system(spec)
        model = system.train(dataset, epsilon=1e-2, max_iter=400,
                             adaptive=True)
        assert model.trace is not None
        assert model.adaptive is not None
        assert model.trace.total_iterations == model.result.iterations or \
            model.trace.switched
        assert system.calibration.observations > 0

    def test_default_train_has_no_trace(self, spec, dataset):
        system = self.system(spec)
        model = system.train(dataset, epsilon=1e-2, max_iter=400)
        assert model.trace is None
        assert model.adaptive is None
        assert not model.switched

    def test_adaptive_rejects_fully_pinned_plans(self, spec, dataset):
        from repro.errors import PlanError

        system = self.system(spec)
        with pytest.raises(PlanError):
            system.train(dataset, epsilon=1e-2, algorithm="sgd",
                         sampler="shuffle", adaptive=True)

    def test_calibration_store_shared_with_service(self, spec, dataset):
        system = self.system(spec)
        system.train(dataset, epsilon=1e-2, max_iter=400, adaptive=True)
        assert system.service().calibration is system.calibration

    def test_calibration_path_round_trip(self, spec, dataset, tmp_path):
        from repro.api import ML4all

        path = str(tmp_path / "calibration.json")
        system = ML4all(cluster_spec=spec, seed=7,
                        speculation=speculation(), calibration_path=path)
        system.train(dataset, epsilon=1e-2, max_iter=400, adaptive=True)
        system.save_calibration()

        reborn = ML4all(cluster_spec=spec, seed=7, calibration_path=path)
        assert reborn.calibration.observations == \
            system.calibration.observations


class TestTimeBudgetAcrossSegments:
    def test_segment_training_deducts_elapsed_budget(self, spec):
        trainer = AdaptiveTrainer(optimizer_for(spec))
        trainer.optimizer.engine.charge(5.0, "test", jitter=False)
        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                time_budget_s=8.0, seed=0)
        segment = trainer._segment_training(training, 100, run_start=0.0)
        assert segment.time_budget_s == pytest.approx(3.0)
        assert segment.max_iter == 100

    def test_spent_budget_stays_positive(self, spec):
        trainer = AdaptiveTrainer(optimizer_for(spec))
        trainer.optimizer.engine.charge(10.0, "test", jitter=False)
        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                time_budget_s=8.0, seed=0)
        segment = trainer._segment_training(training, 100, run_start=0.0)
        assert 0 < segment.time_budget_s <= 1e-9

    def test_no_budget_passes_through(self, spec):
        trainer = AdaptiveTrainer(optimizer_for(spec))
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=0)
        segment = trainer._segment_training(training, 50, run_start=0.0)
        assert segment.time_budget_s is None


class TestOnePricingPath:
    """Mid-flight re-optimization ranks what GDOptimizer.price() builds
    -- the candidates the initial ranking lists, not a second copy."""

    @staticmethod
    def stopped(observed=None):
        """A monitor/result pair as _reoptimize sees them after a stop
        with no usable curve (every algorithm prices at the remaining
        budget, like a fixed_iterations request)."""
        monitor = types.SimpleNamespace(
            observed_per_iteration_s=lambda: observed,
            refit_curve=None, curve_diverged=True,
        )
        return monitor, types.SimpleNamespace(final_delta=0.5)

    @pytest.mark.parametrize("time_budget_s", [None, 1e4])
    def test_reoptimization_returns_the_candidate_optimize_lists(
        self, spec, dataset, time_budget_s
    ):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1,
                                time_budget_s=time_budget_s)
        store = CalibrationStore()
        store.observe("mgd", spec, cost_ratio=0.5, iterations_ratio=3.0)
        store.observe("sgd", spec, cost_ratio=40.0)
        optimizer = optimizer_for(spec, calibration=store)
        report = optimizer.optimize(dataset, training, fixed_iterations=120)
        assert "calibration:cost_factor" in report.chosen.breakdown

        monitor, result = self.stopped()
        again = AdaptiveTrainer(optimizer)._reoptimize(
            dataset, training, None, report.chosen, monitor, result,
            remaining_budget=120, run_start=optimizer.engine.clock,
        )
        # Dataclass equality: plan, iterations, one-time, per-iteration,
        # total, breakdown (calibration slots included), feasibility.
        assert again == report.chosen
        assert again in report.candidates

    def test_live_observation_reprices_the_running_algorithm(
        self, spec, dataset, training
    ):
        optimizer = optimizer_for(spec)
        report = optimizer.optimize(dataset, training, fixed_iterations=120)
        current = report.chosen
        monitor, result = self.stopped(observed=current.per_iteration_s * 7)
        again = AdaptiveTrainer(optimizer)._reoptimize(
            dataset, training, None, current, monitor, result,
            remaining_budget=120, run_start=optimizer.engine.clock,
        )
        # 7x the model's price: some other algorithm wins now, priced
        # exactly as optimize() priced it.
        assert again.plan.algorithm != current.plan.algorithm
        assert again in report.candidates
        # Nothing else is cheaper, so staying means the 7x price.
        only = GDOptimizer(optimizer.engine,
                           algorithms=(current.plan.algorithm,))
        stay = AdaptiveTrainer(only)._reoptimize(
            dataset, training, None, current, monitor, result,
            remaining_budget=120, run_start=optimizer.engine.clock,
        )
        assert stay.plan == current.plan
        assert stay.breakdown["calibration:cost_factor"] == \
            pytest.approx(7.0)
        assert stay.per_iteration_s == pytest.approx(
            7 * current.per_iteration_s
        )

    def test_nothing_feasible_means_stay_the_course(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1,
                                time_budget_s=1e-6)
        optimizer = optimizer_for(spec)
        current = optimizer.price(dataset.stats, {"sgd": 10}, {})[0]
        monitor, result = self.stopped()
        assert AdaptiveTrainer(optimizer)._reoptimize(
            dataset, training, None, current, monitor, result,
            remaining_budget=10, run_start=optimizer.engine.clock,
        ) is None

    def test_seeded_switch_heavy_run_is_unchanged(self, spec):
        """Momentum vs Adam on adult, momentum under-priced 4x: the
        switch iterations, target plans and simulated seconds are the
        values the pre-price() trainer produced for this seed."""
        dataset = dataset_registry.load("adult", spec, seed=7)
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=7)
        store = CalibrationStore()
        optimizer = GDOptimizer(
            SimulatedCluster(spec, seed=7),
            estimator=SpeculativeEstimator(SpeculationSettings(
                time_budget_s=1.0, max_speculation_iters=1500,
            ), seed=7),
            algorithms=("momentum", "adam"),
            cost_model=PerturbedCostModel(spec, {"momentum": 0.25}),
            calibration=store,
        )
        report = optimizer.optimize(dataset, training)
        outcome = AdaptiveTrainer(optimizer, calibration=store).train(
            dataset, training, report=report
        )
        assert [(s.iteration, s.to_plan) for s in outcome.trace.switches] \
            == [(25, "ADAM-eager-shuffle"), (50, "MOMENTUM-eager-shuffle")]
        assert [(s.plan, s.iterations) for s in outcome.trace.segments] == [
            ("MOMENTUM-eager-shuffle", 25),
            ("ADAM-eager-shuffle", 25),
            ("MOMENTUM-eager-shuffle", 1),
        ]
        assert outcome.converged
        assert outcome.sim_seconds == pytest.approx(
            1.6932210356934831, rel=1e-12
        )
        # The way back was priced through the store's fresh correction.
        last = outcome.trace.segments[-1]
        assert last.applied_cost_factor == pytest.approx(
            3.973831700821752, rel=1e-9
        )
        assert last.predicted_per_iteration_s == pytest.approx(
            0.020232351796875072, rel=1e-9
        )


class TestRemainingIterations:
    def test_difference_of_positions_on_the_curve(self):
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        # From error 0.1 (i=10) to error 0.01 (i=100): 90 more.
        assert remaining_iterations(curve, 0.1, 0.01) == 90

    def test_already_converged_is_one(self):
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        assert remaining_iterations(curve, 0.005, 0.01) == 1

    def test_non_finite_delta_is_one(self):
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        assert remaining_iterations(curve, float("inf"), 0.01) == 1
