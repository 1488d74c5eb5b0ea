"""Integration tests for the ML4all facade and the language interpreter."""

import numpy as np
import pytest

from repro.api import ML4all, TrainedModel
from repro.cluster import ClusterSpec
from repro.core.iterations import SpeculationSettings
from repro.data import write_libsvm
from repro.errors import DataFormatError, QueryError

FAST_SPECULATION = SpeculationSettings(
    sample_size=300, time_budget_s=0.4, max_speculation_iters=500
)


@pytest.fixture
def system():
    return ML4all(
        cluster_spec=ClusterSpec(jitter_sigma=0.0),
        seed=7,
        speculation=FAST_SPECULATION,
    )


class TestDatasets:
    def test_load_registry_dataset(self, system):
        ds = system.load_dataset("adult")
        assert ds.stats.name == "adult"

    def test_load_xy_pair(self, system):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = np.sign(X @ np.ones(4))
        ds = system.load_dataset((X, y), task="svm")
        assert ds.stats.task == "svm"
        assert ds.n_phys == 50

    def test_load_xy_requires_task(self, system):
        with pytest.raises(DataFormatError):
            system.load_dataset((np.zeros((5, 2)), np.zeros(5)))

    def test_load_libsvm_file(self, system, tmp_path):
        rng = np.random.default_rng(0)
        X = np.abs(rng.normal(size=(30, 5)))
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        path = str(tmp_path / "train.txt")
        write_libsvm(path, X, y)
        ds = system.load_dataset(path, task="logreg")
        assert ds.n_phys == 30

    def test_load_csv_file(self, system, tmp_path):
        data = np.column_stack([np.ones(20), np.arange(40).reshape(20, 2)])
        path = str(tmp_path / "data.csv")
        np.savetxt(path, data, delimiter=",")
        ds = system.load_dataset(path, task="linreg")
        assert ds.n_phys == 20
        assert ds.stats.d == 2

    def test_unknown_source(self, system):
        with pytest.raises(DataFormatError):
            system.load_dataset("no_such_dataset_or_file")


class TestTrain:
    def test_train_with_optimizer(self, system):
        model = system.train("adult", epsilon=0.05, max_iter=500)
        assert model.report is not None
        assert model.result.iterations >= 1
        assert model.weights.shape == (123,)

    def test_train_pinned_plan_skips_optimizer(self, system):
        model = system.train("adult", algorithm="sgd", sampler="shuffle",
                             transform="lazy", epsilon=0.05, max_iter=200)
        assert model.report is None
        assert str(model.result.plan) == "SGD-lazy-shuffle"

    def test_train_algorithm_restricted(self, system):
        model = system.train("adult", algorithm="bgd", epsilon=0.05,
                             max_iter=300)
        assert str(model.result.plan) == "BGD"

    def test_fixed_iterations(self, system):
        model = system.train("adult", fixed_iterations=50, max_iter=50,
                             epsilon=1e-12)
        assert model.result.iterations == 50

    def test_repeated_train_reports_the_same_seconds(self, system):
        # Each run executes on a fresh cluster, and the repeat's report
        # is the cached one: no trial wall time is added to it.
        first = system.train("adult", epsilon=0.05, max_iter=300)
        again = system.train("adult", epsilon=0.05, max_iter=300)
        np.testing.assert_array_equal(again.weights, first.weights)
        assert again.result.sim_seconds == first.result.sim_seconds
        assert again.report.speculation_sim_s == \
            first.report.speculation_sim_s

    def test_budget_bounds_a_train_without_a_job_id(self, system):
        from repro.runtime import JobBudget

        model = system.train("adult", fixed_iterations=40,
                             budget=JobBudget(max_iterations=10))
        assert model.result.iterations == 10

    def test_optimize_at_another_epsilon_reuses_the_trials(self, system):
        first = system.optimize("adult", epsilon=0.05)
        value = system.metrics.value
        hits = value("speculation.memo.hits")
        misses = value("speculation.memo.misses")
        second = system.optimize("adult", epsilon=0.01)
        assert value("speculation.memo.hits") > hits
        assert value("speculation.memo.misses") == misses
        assert second.iteration_estimates.keys() == \
            first.iteration_estimates.keys()

    def test_predict_and_error(self, system):
        ds = system.load_dataset("adult")
        model = system.train(ds, epsilon=0.05, max_iter=500)
        pred = model.predict(ds.X)
        assert pred.shape == ds.y.shape
        assert model.error_rate(ds.X, ds.y) < 0.5
        assert model.mse(ds.X, ds.y) >= 0

    def test_model_save_load_roundtrip(self, system, tmp_path):
        ds = system.load_dataset("adult")
        model = system.train(ds, epsilon=0.05, max_iter=300)
        path = str(tmp_path / "model.txt")
        model.save(path)
        loaded = TrainedModel.load(path)
        np.testing.assert_allclose(loaded.weights, model.weights)
        assert loaded.task == model.task
        np.testing.assert_array_equal(loaded.predict(ds.X),
                                      model.predict(ds.X))


class TestQueryInterface:
    def test_q1_style_query(self, system):
        session = system.query(
            "Q1 = run classification on adult having epsilon 0.05, "
            "max iter 300;"
        )
        assert "Q1" in session.results
        model = session.results["Q1"]
        assert model.result.iterations >= 1

    def test_using_clause_pins_algorithm(self, system):
        session = system.query(
            "run classification on adult having epsilon 0.05, max iter 200 "
            "using algorithm sgd, sampler shuffle();"
        )
        assert session.last_result.result.plan.algorithm == "sgd"

    def test_persist_and_predict(self, system, tmp_path):
        path = str(tmp_path / "m.txt")
        session = system.query(
            f"Q1 = run classification on adult having epsilon 0.05, "
            f"max iter 200; persist Q1 on {path};"
        )
        out = session.execute(f"r = predict on adult with {path};")
        assert "mse" in out
        assert "r" in session.predictions

    def test_predict_with_named_result(self, system):
        session = system.query(
            "Q2 = run classification on adult having epsilon 0.05, "
            "max iter 200;"
        )
        out = session.execute("predict on adult with Q2;")
        assert out["predictions"].shape[0] == \
            system.load_dataset("adult").n_phys

    def test_persist_unknown_result(self, system):
        with pytest.raises(QueryError):
            system.query("persist QX on /tmp/nope.txt;")

    def test_predict_unknown_model(self, system):
        with pytest.raises(QueryError):
            system.query("predict on adult with ghost_model;")

    def test_two_source_column_query(self, system, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = np.sign(X @ np.ones(4))
        data = np.column_stack([np.zeros(40), y, np.zeros(40), X])
        path = str(tmp_path / "cols.csv")
        np.savetxt(path, data, delimiter=",")
        session = system.query(
            f"run classification on {path}:1, {path}:3-6 "
            f"having epsilon 0.05, max iter 100;"
        )
        assert session.last_result.weights.shape == (4,)

    def test_mismatched_two_source_paths(self, system):
        with pytest.raises(QueryError):
            system.query("run classification on a.csv:1, b.csv:2-3;")
