"""Unit tests for the GD algorithm zoo (pure math)."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.gd import (
    ALGORITHMS,
    CORE_ALGORITHMS,
    bgd,
    mgd,
    SVRGUpdater,
    run_loop,
    sgd,
)
from repro.gd import registry as gd_registry
from repro.gd.base import full_batch_selector, make_minibatch_selector
from repro.gd.gradients import (
    LinearRegressionGradient,
    LogisticGradient,
    task_gradient,
)


def quadratic_problem(n=200, d=5, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_star = rng.normal(size=d)
    y = X @ w_star + noise * rng.normal(size=n)
    return X, y, w_star


class TestRunLoop:
    def test_bgd_converges_on_quadratic(self):
        X, y, w_star = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(),
                     step_size="constant:0.1", tolerance=1e-6,
                     max_iter=5000)
        assert result.converged
        np.testing.assert_allclose(result.weights, w_star, atol=1e-3)

    def test_iterations_recorded(self):
        X, y, _ = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(),
                     step_size="constant:0.1", tolerance=1e-6,
                     max_iter=5000)
        assert len(result.deltas) == result.iterations

    def test_deltas_decrease_for_bgd_constant_step(self):
        X, y, _ = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(),
                     step_size="constant:0.05", tolerance=0,
                     max_iter=100)
        # Deltas should trend down (compare first and last fifths).
        assert result.deltas[-20:].mean() < result.deltas[:20].mean()

    def test_max_iter_respected(self):
        X, y, _ = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(), tolerance=0,
                     max_iter=17)
        assert result.iterations == 17
        assert not result.converged

    def test_w0_used(self):
        X, y, w_star = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(), w0=w_star,
                     tolerance=1e-9, max_iter=10)
        assert result.converged
        assert result.iterations == 1

    def test_bad_w0_shape(self):
        X, y, _ = quadratic_problem(d=5)
        with pytest.raises(PlanError):
            bgd(X, y, LinearRegressionGradient(), w0=np.zeros(4))

    def test_empty_dataset(self):
        with pytest.raises(PlanError):
            bgd(np.zeros((0, 3)), np.zeros(0), LinearRegressionGradient())

    def test_record_loss(self):
        X, y, _ = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(),
                     step_size="constant:0.1", tolerance=0, max_iter=30,
                     record_loss=True)
        assert result.losses is not None
        assert len(result.losses) == 30
        assert result.losses[-1] < result.losses[0]

    def test_callback_stops_early(self):
        X, y, _ = quadratic_problem()
        result = bgd(X, y, LinearRegressionGradient(), tolerance=0,
                     max_iter=100,
                     iteration_callback=lambda i, w, d: i >= 5)
        assert result.iterations == 5

    def test_time_budget_stops(self):
        X, y, _ = quadratic_problem(n=2000)
        result = bgd(X, y, LinearRegressionGradient(), tolerance=0,
                     max_iter=10_000_000, time_budget_s=0.05)
        assert result.iterations < 10_000_000

    def test_sgd_mgd_reproducible_with_seed(self):
        X, y, _ = quadratic_problem()
        g = LinearRegressionGradient()
        r1 = sgd(X, y, g, max_iter=50, tolerance=0,
                 rng=np.random.default_rng(5))
        r2 = sgd(X, y, g, max_iter=50, tolerance=0,
                 rng=np.random.default_rng(5))
        np.testing.assert_array_equal(r1.weights, r2.weights)

    def test_mgd_batch_size_bounds(self):
        X, y, _ = quadratic_problem(n=50)
        g = LinearRegressionGradient()
        result = mgd(X, y, g, batch_size=500, max_iter=5, tolerance=0)
        assert result.iterations == 5  # batch clamped to n, no crash

    def test_selector_validation(self):
        with pytest.raises(PlanError):
            make_minibatch_selector(100, 0)

    def test_full_batch_selector(self):
        assert full_batch_selector(1, None) == slice(None)


class TestVarianceBehaviour:
    def test_bgd_deltas_smoother_than_sgd(self):
        X, y, _ = quadratic_problem(n=500, noise=0.5)
        g = LinearRegressionGradient()
        rb = bgd(X, y, g, tolerance=0, max_iter=200)
        rs = sgd(X, y, g, tolerance=0, max_iter=200,
                 rng=np.random.default_rng(1))
        tail_b = rb.deltas[50:]
        tail_s = rs.deltas[50:]
        assert np.std(tail_s) > np.std(tail_b)

    def test_mgd_between_bgd_and_sgd(self):
        X, y, _ = quadratic_problem(n=500, noise=0.5)
        g = LinearRegressionGradient()
        rb = bgd(X, y, g, tolerance=0, max_iter=200)
        rm = mgd(X, y, g, batch_size=64, tolerance=0, max_iter=200,
                 rng=np.random.default_rng(1))
        rs = sgd(X, y, g, tolerance=0, max_iter=200,
                 rng=np.random.default_rng(1))
        std_b, std_m, std_s = (np.std(r.deltas[50:]) for r in (rb, rm, rs))
        assert std_b <= std_m <= std_s


def svrg(X, y, gradient, update_frequency, **kwargs):
    """SVRG at a chosen anchor cadence: the kernel through run_loop."""
    return run_loop(
        X, y, gradient, make_minibatch_selector(X.shape[0], 1),
        updater=SVRGUpdater(update_frequency), **kwargs,
    )


class TestSVRG:
    def test_converges_on_quadratic(self):
        X, y, w_star = quadratic_problem(n=300)
        result = svrg(X, y, LinearRegressionGradient(),
                      update_frequency=30, step_size=0.05,
                      tolerance=1e-5, max_iter=3000,
                      rng=np.random.default_rng(2))
        assert result.converged
        np.testing.assert_allclose(result.weights, w_star, atol=0.05)

    def test_anchor_frequency_validated(self):
        X, y, _ = quadratic_problem()
        with pytest.raises(PlanError):
            svrg(X, y, LinearRegressionGradient(), update_frequency=1)

    def test_reduces_variance_vs_sgd(self):
        X, y, _ = quadratic_problem(n=400, noise=0.2)
        g = LinearRegressionGradient()
        rv = svrg(X, y, g, update_frequency=50, step_size=0.02,
                  tolerance=0, max_iter=400, rng=np.random.default_rng(3))
        rs = run_loop(
            X, y, g, make_minibatch_selector(400, 1),
            step_size="constant:0.02", tolerance=0, max_iter=400,
            rng=np.random.default_rng(3),
        )
        assert np.std(rv.deltas[100:]) < np.std(rs.deltas[100:])


class TestAdaptiveVariants:
    @pytest.mark.parametrize("name", ["momentum", "adagrad", "adam"])
    def test_converges_on_quadratic(self, name):
        X, y, w_star = quadratic_problem()
        result = gd_registry.run(
            name, X, y, LinearRegressionGradient(),
            batch_size=64,
            step_size="constant:0.05" if name != "adam" else "constant:0.1",
            tolerance=1e-4, max_iter=5000,
            rng=np.random.default_rng(4),
        )
        # Adaptive variants should at least reach low loss.
        g = LinearRegressionGradient()
        assert g.loss(result.weights, X, y) < g.loss(np.zeros(5), X, y) / 10


class TestRegistry:
    def test_core_algorithms(self):
        assert CORE_ALGORITHMS == ("bgd", "mgd", "sgd")
        for name in CORE_ALGORITHMS:
            assert name in ALGORITHMS

    def test_info_unknown(self):
        with pytest.raises(PlanError):
            gd_registry.info("newton")

    def test_run_dispatches_all(self):
        X, y, _ = quadratic_problem(n=60)
        g = LinearRegressionGradient()
        for name in ALGORITHMS:
            result = gd_registry.run(
                name, X, y, g, tolerance=0, max_iter=3,
                rng=np.random.default_rng(0),
            )
            assert result.iterations >= 1

    def test_sgd_ignores_batch_override(self):
        X, y, _ = quadratic_problem(n=60, noise=1.0)
        g = LinearRegressionGradient()
        r = gd_registry.run("sgd", X, y, g, batch_size=60, tolerance=0,
                            max_iter=100, rng=np.random.default_rng(0))
        rb = gd_registry.run("bgd", X, y, g, tolerance=0, max_iter=100)
        # If batch_size leaked, SGD would equal BGD's smooth trajectory.
        assert np.std(r.deltas[20:]) > np.std(rb.deltas[20:])

    def test_task_convergence_on_classification(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 4))
        w = np.array([1.0, -2.0, 0.5, 0.0])
        y = np.sign(X @ w)
        g = task_gradient("logreg")
        result = bgd(X, y, g, step_size="constant:0.5", tolerance=0,
                     max_iter=300)
        pred = g.predict(result.weights, X)
        assert np.mean(pred == y) > 0.95
