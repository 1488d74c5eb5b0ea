"""Unit tests for the seven GD operators and reference implementations."""

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.operators import GDOperators
from repro.core.reference_ops import (
    DefaultStage,
    FixedSizeSample,
    GradientCompute,
    L1Converge,
    ParseTransform,
    ToleranceLoop,
    WeightUpdate,
    default_operators,
)
from repro.errors import PlanError
from repro.gd.gradients import LinearRegressionGradient, LogisticGradient
from repro.gd.svrg import SVRGUpdater


@pytest.fixture
def context():
    ctx = Context()
    DefaultStage(d=3, step_size="constant:0.5", tolerance=1e-3,
                 max_iter=10).stage(ctx)
    return ctx


class TestContext:
    def test_put_get(self):
        ctx = Context()
        ctx.put("weights", [1, 2])
        assert ctx.get("weights") == [1, 2]
        assert ctx.get("missing") is None
        assert ctx.get("missing", 7) == 7

    def test_require_raises(self):
        ctx = Context()
        with pytest.raises(PlanError):
            ctx.require("weights")

    def test_contains_and_keys(self):
        ctx = Context({"a": 1})
        assert "a" in ctx
        assert "b" not in ctx
        assert set(ctx.keys()) == {"a"}

    def test_as_dict_is_copy(self):
        ctx = Context({"a": 1})
        d = ctx.as_dict()
        d["a"] = 2
        assert ctx.get("a") == 1


class TestStage:
    def test_initialises_conventional_keys(self, context):
        # Listing 4: weights zeroed, step set, iteration counter zeroed.
        np.testing.assert_array_equal(context.require("weights"), np.zeros(3))
        assert context.require("iter") == 0
        assert context.require("tolerance") == 1e-3
        assert context.require("max_iter") == 10
        assert callable(context.require("step"))

    def test_passes_data_through(self):
        ctx = Context()
        stage = DefaultStage(d=2)
        sample = np.ones((5, 2))
        out = stage.stage(ctx, data_sample=sample)
        assert out is sample


class TestTransform:
    def test_identity_by_default(self, context):
        t = ParseTransform()
        X = np.ones((4, 3))
        y = np.ones(4)
        Xt, yt = t.transform(X, y, context)
        np.testing.assert_array_equal(Xt, X)

    def test_feature_scaling(self, context):
        t = ParseTransform(feature_scale=2.0)
        X = np.ones((4, 3))
        Xt, _ = t.transform(X, np.ones(4), context)
        np.testing.assert_array_equal(Xt, 2 * X)

    def test_invalid_scale(self):
        with pytest.raises(PlanError):
            ParseTransform(feature_scale=0.0)


class TestComputeUpdate:
    def test_compute_emits_sum_partial(self, context):
        g = LinearRegressionGradient()
        compute = GradientCompute(g)
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        y = np.array([1.0, 2.0])
        partial, count = compute.compute(X, y, context)
        assert count == 2
        np.testing.assert_allclose(partial, g.gradient(np.zeros(3), X, y) * 2)

    def test_combine_adds_partials(self, context):
        g = LinearRegressionGradient()
        compute = GradientCompute(g)
        X = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        full = compute.compute(X, y, context)
        a = compute.compute(X[:1], y[:1], context)
        b = compute.compute(X[1:], y[1:], context)
        combined = compute.combine(a, b)
        np.testing.assert_allclose(combined[0], full[0])
        assert combined[1] == full[1]

    def test_update_applies_step(self, context):
        context.put("iter", 1)
        update = WeightUpdate()
        grad_sum = np.array([2.0, 0.0, 0.0])
        w_new = update.update((grad_sum, 2), context)
        # w - 0.5 * mean_grad = 0 - 0.5 * [1,0,0]
        np.testing.assert_allclose(w_new, [-0.5, 0.0, 0.0])
        np.testing.assert_allclose(context.require("weights"), w_new)

    def test_update_rejects_empty_aggregate(self, context):
        context.put("iter", 1)
        with pytest.raises(PlanError):
            WeightUpdate().update((np.zeros(3), 0), context)


class TestSampleConvergeLoop:
    def test_sample_size(self, context):
        assert FixedSizeSample(100).sample_size(context) == 100
        with pytest.raises(PlanError):
            FixedSizeSample(0)

    def test_converge_l1_between_successive_updates(self, context):
        converge = L1Converge()
        first = converge.converge(np.zeros(3), context)
        assert first == float("inf")
        delta = converge.converge(np.array([1.0, -1.0, 0.0]), context)
        assert delta == pytest.approx(2.0)

    def test_loop_stops_on_tolerance(self, context):
        loop = ToleranceLoop()
        context.put("iter", 1)
        assert loop.should_continue(1.0, context)
        assert not loop.should_continue(1e-4, context)

    def test_loop_stops_on_max_iter(self, context):
        loop = ToleranceLoop()
        context.put("iter", 10)
        assert not loop.should_continue(1.0, context)


class TestBundles:
    def test_default_operators_with_sample(self):
        ops = default_operators(d=4, gradient=LogisticGradient(),
                                batch_size=10)
        assert ops.sample is not None
        assert len(ops.operators()) == 7

    def test_default_operators_bgd_without_sample(self):
        ops = default_operators(d=4, gradient=LogisticGradient())
        assert ops.sample is None
        assert len(ops.operators()) == 6

    def test_bundle_repr(self):
        ops = default_operators(d=2, gradient=LogisticGradient())
        assert "compute" in repr(ops)


class TestSVRGOperators:
    """Listing 8 through the reference Compute/Update and the SVRG
    kernel they share."""

    X = np.array([[1.0, 0.0]])
    y = np.array([2.0])

    @staticmethod
    def staged(iteration, update_frequency=5):
        ctx = Context()
        DefaultStage(d=2, step_size="constant:0.1").stage(ctx)
        ctx.put("iter", iteration)
        kernel = SVRGUpdater(update_frequency)
        kernel.reset(2)
        gradient = LinearRegressionGradient()
        return ctx, kernel, GradientCompute(gradient, kernel), \
            WeightUpdate(kernel)

    def test_anchor_iteration_emits_plain_gradient(self):
        ctx, kernel, compute, _ = self.staged(1)  # fresh run: 1 anchors
        assert kernel.full_pass(1)
        grad_sum, count = compute.compute(self.X, self.y, ctx)
        assert count == 1
        assert grad_sum.shape == (2,)

    def test_stochastic_iteration_emits_pair(self):
        ctx, kernel, compute, update = self.staged(1)
        # Iteration 1 anchors (Update records the global anchor
        # iteration); iteration 2 is within the same anchor window.
        update.update(compute.compute(self.X, self.y, ctx), ctx)
        ctx.put("iter", 2)
        assert not kernel.full_pass(2)
        grad_sum, grad_bar_sum, count = compute.compute(self.X, self.y, ctx)
        assert count == 1
        # w_bar is the anchor point (zeros), w has moved off it.
        assert not np.array_equal(grad_sum, grad_bar_sum)

    def test_unanchored_context_anchors_immediately(self):
        # A segment entered without SVRG state (e.g. after a plan
        # switch) recomputes its anchor on entry, whatever the
        # iteration index.
        ctx, kernel, compute, _ = self.staged(2)
        assert kernel.full_pass(2)
        assert len(compute.compute(self.X, self.y, ctx)) == 2

    def test_update_anchor_sets_mu(self):
        ctx, kernel, _, update = self.staged(1)
        update.update((np.array([2.0, 0.0]), 1), ctx)
        np.testing.assert_allclose(kernel.state_dict()["mu"], [2.0, 0.0])
        assert kernel.state_dict()["last_anchor"] == 1

    def test_bundle_shares_one_kernel(self):
        kernel = SVRGUpdater(update_frequency=7)
        ops = default_operators(d=3, gradient=LinearRegressionGradient(),
                                batch_size=1, step_size=0.05,
                                updater=kernel)
        assert ops.compute.updater is kernel
        assert ops.update.updater is kernel
        # The kernel reads a numeric step as a constant.
        ctx = Context()
        ops.stage.stage(ctx)
        assert ctx.require("step")(100) == 0.05

    def test_bad_frequency(self):
        with pytest.raises(PlanError):
            SVRGUpdater(update_frequency=1)


class TestEndToEndOperatorLoop:
    def test_manual_loop_converges(self):
        """Drive the seven operators by hand, mirroring Figure 3(a)."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        w_star = np.array([1.0, -1.0, 0.5])
        y = X @ w_star
        ops = default_operators(
            d=3, gradient=LinearRegressionGradient(),
            step_size="constant:0.1", tolerance=1e-6, max_iter=3000,
        )
        ctx = Context()
        ops.stage.stage(ctx)
        X, y = ops.transform.transform(X, y, ctx)
        ops.converge.converge(ctx.require("weights"), ctx)
        for i in range(1, 3001):
            ctx.put("iter", i)
            partial = ops.compute.compute(X, y, ctx)
            w = ops.update.update(partial, ctx)
            delta = ops.converge.converge(w, ctx)
            if not ops.loop.should_continue(delta, ctx):
                break
        np.testing.assert_allclose(ctx.require("weights"), w_star, atol=1e-3)


def _kernel_algorithms():
    from repro.gd import registry

    return sorted(registry.ALGORITHMS)


class TestOneKernelTwoDrivers:
    """The point of the kernel contract: run_loop and the reference
    Compute -> Update operators drive the same class to the same model.

    Both see identical batches.  The operators re-scale each mean
    gradient to a sum-partial and back (``g * n / n``), which is exact
    when ``n`` is 1 or a power of two; any other batch size agrees to
    1e-12.
    """

    N, D, ITERATIONS = 128, 5, 60

    @pytest.mark.parametrize("algorithm", _kernel_algorithms())
    @pytest.mark.parametrize("batch_rows", (1, 32, 24))
    def test_same_weights_and_state(self, algorithm, batch_rows):
        from repro.gd import registry
        from repro.gd.base import Updater, run_loop
        from repro.gd.state import kernel_fields

        rng = np.random.default_rng(17)
        X = rng.normal(size=(self.N, self.D))
        y = np.where(X @ rng.normal(size=self.D) > 0, 1.0, -1.0)
        gradient = LogisticGradient()
        batches = [
            slice(j, j + 1) if batch_rows == 1
            else rng.choice(self.N, size=batch_rows, replace=False)
            for j in rng.integers(0, self.N, size=self.ITERATIONS)
        ]

        def kernel():
            return registry.updater_for(algorithm) or Updater()

        looped = kernel()
        result = run_loop(
            X, y, gradient, lambda i, rng: batches[i - 1],
            step_size=0.5, tolerance=0.0, max_iter=self.ITERATIONS,
            updater=looped,
        )

        operated = kernel()
        ops = default_operators(
            d=self.D, gradient=gradient, batch_size=batch_rows,
            step_size=0.5, tolerance=0.0, max_iter=self.ITERATIONS,
            updater=operated,
        )
        ctx = Context()
        ops.stage.stage(ctx)
        operated.reset(self.D)
        full_passes = 0
        for i in range(1, self.ITERATIONS + 1):
            ctx.put("iter", i)
            if operated.full_pass(i):
                full_passes += 1
                Xb, yb = X, y       # one partition holding every row
            else:
                Xb, yb = X[batches[i - 1]], y[batches[i - 1]]
            ops.update.update(ops.compute.compute(Xb, yb, ctx), ctx)

        weights = ctx.require("weights")
        if batch_rows == 24:
            np.testing.assert_allclose(weights, result.weights, rtol=1e-12)
        else:
            np.testing.assert_array_equal(weights, result.weights)
            assert kernel_fields(operated) == kernel_fields(looped)
        assert kernel_fields(operated).keys() == kernel_fields(looped).keys()
        if operated.state_namespace is not None:
            # SVRG's anchors and Arc's probes were part of the run.
            assert 1 < full_passes < self.ITERATIONS
