"""Unit tests for the speculation-based iterations estimator (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.iterations import (
    SpeculationSettings,
    SpeculativeEstimator,
)
from repro.errors import EstimationError
from repro.gd.gradients import task_gradient

from support import make_dataset


@pytest.fixture
def dataset():
    return make_dataset(
        n_phys=2000, d=20, task="logreg",
        separability=1.2, hard_fraction=0.3, noise_scale=0.3,
        label_noise=0.02, seed=3,
    )


@pytest.fixture
def estimator():
    return SpeculativeEstimator(
        SpeculationSettings(sample_size=500, time_budget_s=1.0,
                            max_speculation_iters=1500),
        seed=11,
    )


class TestSample:
    def test_take_sample_size(self, estimator, dataset):
        Xs, ys = estimator.take_sample(dataset.X, dataset.y)
        assert Xs.shape[0] == 500
        assert ys.shape[0] == 500

    def test_sample_capped_by_n(self, estimator):
        small = make_dataset(n_phys=100, d=5)
        Xs, ys = estimator.take_sample(small.X, small.y)
        assert Xs.shape[0] == 100

    def test_sample_without_replacement(self, estimator, dataset):
        rng = np.random.default_rng(0)
        Xs, _ = estimator.take_sample(dataset.X, dataset.y, rng)
        # All rows distinct (dense rows as tuples).
        rows = {tuple(row) for row in np.asarray(Xs)}
        assert len(rows) == Xs.shape[0]


class TestEstimate:
    def test_estimates_for_core_algorithms(self, estimator, dataset):
        gradient = task_gradient("logreg")
        estimates = estimator.estimate_all(
            dataset.X, dataset.y, gradient, target_tolerance=1e-3
        )
        assert set(estimates) == {"bgd", "mgd", "sgd"}
        for est in estimates.values():
            assert est.estimated_iterations >= 1
            assert est.speculation_errors.shape[1] == 2

    def test_estimate_same_order_as_actual(self, estimator, dataset):
        """The paper's key claim: estimates in the right order of magnitude."""
        from repro.gd import bgd

        gradient = task_gradient("logreg")
        est = estimator.estimate(
            dataset.X, dataset.y, gradient, "bgd", target_tolerance=1e-2
        )
        actual = bgd(dataset.X, dataset.y, gradient, tolerance=1e-2,
                     max_iter=20000, rng=np.random.default_rng(0))
        assert actual.converged
        ratio = est.estimated_iterations / actual.iterations
        assert 0.1 <= ratio <= 10, f"ratio {ratio}"

    def test_tighter_tolerance_needs_more_iterations(self, estimator,
                                                     dataset):
        gradient = task_gradient("logreg")
        loose = estimator.estimate(
            dataset.X, dataset.y, gradient, "bgd", target_tolerance=1e-1
        )
        tight = estimator.estimate(
            dataset.X, dataset.y, gradient, "bgd", target_tolerance=1e-3
        )
        assert tight.estimated_iterations >= loose.estimated_iterations

    def test_observed_directly_when_target_reached(self, dataset):
        estimator = SpeculativeEstimator(
            SpeculationSettings(sample_size=500, time_budget_s=2.0,
                                speculation_tolerance=1e-4,
                                max_speculation_iters=3000),
            seed=1,
        )
        gradient = task_gradient("logreg")
        est = estimator.estimate(
            dataset.X, dataset.y, gradient, "sgd", target_tolerance=5e-2
        )
        # SGD reaches 5e-2 within speculation on this dataset.
        assert est.observed_directly
        assert est.estimated_iterations <= est.speculation_iterations + 1

    def test_invalid_tolerance(self, estimator, dataset):
        gradient = task_gradient("logreg")
        with pytest.raises(EstimationError):
            estimator.estimate(dataset.X, dataset.y, gradient, "bgd",
                               target_tolerance=0.0)

    def test_shared_sample_reused(self, estimator, dataset):
        gradient = task_gradient("logreg")
        sample = estimator.take_sample(dataset.X, dataset.y)
        est1 = estimator.estimate(
            dataset.X, dataset.y, gradient, "bgd",
            target_tolerance=1e-2, sample=sample,
        )
        est2 = estimator.estimate(
            dataset.X, dataset.y, gradient, "bgd",
            target_tolerance=1e-2, sample=sample,
        )
        assert est1.estimated_iterations == est2.estimated_iterations

    def test_too_few_observations_raises(self, dataset):
        estimator = SpeculativeEstimator(
            SpeculationSettings(sample_size=100, time_budget_s=1.0,
                                max_speculation_iters=2,
                                min_points_for_fit=5),
            seed=1,
        )
        gradient = task_gradient("logreg")
        with pytest.raises(EstimationError):
            estimator.estimate(dataset.X, dataset.y, gradient, "bgd",
                               target_tolerance=1e-9)

    def test_speculation_wall_time_recorded(self, estimator, dataset):
        gradient = task_gradient("logreg")
        est = estimator.estimate(dataset.X, dataset.y, gradient, "bgd",
                                 target_tolerance=1e-2)
        assert est.speculation_wall_s > 0
