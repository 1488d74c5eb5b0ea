"""Integration tests for the cost-based optimizer."""

import pytest

from repro.core.executor import execute_plan
from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.core.optimizer import GDOptimizer
from repro.core.plan_space import enumerate_plans
from repro.core.plans import GDPlan, TrainingSpec
from repro.errors import ConstraintError
from repro.obs import TraceRecorder

from support import make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(
        n_phys=2000, d=20, task="logreg", spec=spec, seed=3,
        separability=1.2, hard_fraction=0.3, noise_scale=0.3,
        label_noise=0.02,
    )


@pytest.fixture
def estimator():
    return SpeculativeEstimator(
        SpeculationSettings(sample_size=400, time_budget_s=0.5,
                            max_speculation_iters=800),
        seed=5,
    )


@pytest.fixture
def optimizer(engine, estimator):
    return GDOptimizer(engine, estimator=estimator)


class TestOptimize:
    def test_costs_all_eleven_plans(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        assert len(report.candidates) == 11
        labels = {str(c.plan) for c in report.candidates}
        assert "BGD" in labels
        assert "SGD-lazy-shuffle" in labels

    def test_chosen_is_cheapest_feasible(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        feasible = [c for c in report.candidates if c.feasible]
        assert report.chosen.total_s == min(c.total_s for c in feasible)

    def test_fixed_iterations_skips_speculation(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training, fixed_iterations=500)
        assert report.iteration_estimates is None
        assert all(c.estimated_iterations == 500 for c in report.candidates)
        # "optimization time of less than 100 msec when just the number
        # of iterations is given" -- generous CI margin.
        assert report.optimizer_wall_s < 1.0

    def test_speculation_populates_estimates(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        assert set(report.iteration_estimates) == {"bgd", "mgd", "sgd"}
        assert report.speculation_sim_s > 0

    def test_time_constraint_filters_plans(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                time_budget_s=1e9, seed=1)
        report = optimizer.optimize(dataset, training)
        assert all(c.feasible for c in report.candidates)

    def test_impossible_time_constraint_raises(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                time_budget_s=1e-9, seed=1)
        with pytest.raises(ConstraintError) as err:
            optimizer.optimize(dataset, training)
        # Appendix A: the system names the constraint to revisit.
        assert "time" in str(err.value)

    def test_estimates_capped_by_max_iter(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-6, max_iter=50,
                                seed=1)
        report = optimizer.optimize(dataset, training)
        assert all(c.estimated_iterations <= 50 for c in report.candidates)

    def test_restricted_algorithm_set(self, engine, estimator, dataset):
        optimizer = GDOptimizer(engine, estimator=estimator,
                                algorithms=("bgd",))
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        assert len(report.candidates) == 1
        assert str(report.chosen_plan) == "BGD"

    def test_schedule_string_step_with_constant_step_kernels(
            self, engine, estimator, dataset):
        # Arc's driver used to float() the step and crash the whole
        # optimization with a bare ValueError; as kernels SVRG and Arc
        # take alpha_i from the run's schedule.
        optimizer = GDOptimizer(engine, estimator=estimator,
                                algorithms=("bgd", "sgd", "arc", "svrg"))
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1,
                                step_size="constant:0.1")
        report = optimizer.optimize(dataset, training)
        # (SVRG may drop out as unfittable on this sample; that is
        # on_error="skip" working, not a crash.)
        assert {"bgd", "sgd", "arc"} <= set(report.iteration_estimates)
        assert report.chosen is not None

    def test_report_summary_renders(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        text = report.summary()
        assert "chosen plan" in text
        assert "candidates" in text

    def test_ranking_sorted(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        report = optimizer.optimize(dataset, training)
        ranked = report.ranking()
        totals = [c.total_s for c in ranked if c.feasible]
        assert totals == sorted(totals)


class TestTrain:
    def test_train_executes_chosen_plan(self, optimizer, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                max_iter=2000, seed=1)
        report, result = optimizer.train(dataset, training)
        assert result.plan == report.chosen_plan
        assert result.iterations >= 1

    def test_optimizer_avoids_worst_plan(self, spec, engine, estimator,
                                         dataset):
        """The database-optimizer property: never pick the worst plan."""
        from repro.cluster import SimulatedCluster

        training = TrainingSpec(task="logreg", tolerance=1e-2,
                                max_iter=1500, seed=1)
        times = {}
        for plan in enumerate_plans(batch_sizes={"mgd": 100}):
            e = SimulatedCluster(spec, seed=9)
            times[plan.label] = execute_plan(e, dataset, plan,
                                             training).sim_seconds
        optimizer = GDOptimizer(engine, estimator=estimator,
                                batch_sizes={"mgd": 100})
        report, result = optimizer.train(dataset, training)
        worst = max(times.values())
        best = min(times.values())
        assert result.sim_seconds < worst * 0.6 or worst < best * 1.5


class TestExplainTable:
    """The ranked candidate table is built for a recording span only:
    the served path (always traced) records exactly what it did."""

    def count_labels(self, monkeypatch):
        calls = []
        label = GDPlan.label

        def counted(plan):
            calls.append(plan)
            return label.func(plan)

        monkeypatch.setattr(GDPlan, "label", property(counted))
        return calls

    def test_a_recording_span_gets_the_ranked_table(self, optimizer,
                                                    dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            report = optimizer.optimize(dataset, training,
                                        fixed_iterations=300)
        [choice] = [s for s in recorder.spans(root.trace_id)
                    if s["name"] == "plan_choice"]
        attributes = choice["attributes"]
        assert attributes["chosen"] == str(report.chosen_plan)
        assert attributes["estimated_iterations"] == 300
        assert attributes["estimated_total_s"] == report.chosen.total_s
        assert attributes["candidates"] == [
            {"plan": str(c.plan), "total_s": c.total_s,
             "per_iteration_s": c.per_iteration_s,
             "iterations": c.estimated_iterations, "feasible": c.feasible}
            for c in sorted(report.candidates, key=lambda c: c.total_s)
        ]

    def test_no_trace_builds_no_table(self, optimizer, dataset,
                                      monkeypatch):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        calls = self.count_labels(monkeypatch)
        optimizer.optimize(dataset, training, fixed_iterations=300)
        assert len(calls) == 1  # the chosen plan's attribute only
        del calls[:]
        with TraceRecorder().trace("request"):
            report = optimizer.optimize(dataset, training,
                                        fixed_iterations=300)
        assert len(calls) == 1 + len(report.candidates)
