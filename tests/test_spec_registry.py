"""The AlgorithmSpec plugin seam: register(), kwargs policy, hooks.

The registry is the paper's "fully parameterized" search-space entry
point (Section 6): every layer consults one
:class:`~repro.gd.spec.AlgorithmSpec` instead of branching on names.
These tests pin the seam itself -- registration validation, the
``run_loop`` kwargs surface, the cost/speculation/plan-variant hooks,
the format-versioned ``OptimizerState``, and the one-kernel-per-algorithm
shape of the registry.
"""

import dataclasses
import logging
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.cluster.storage import DatasetStats
from repro.core.cost_model import CostModel
from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.core.plan_space import plans_for_algorithm
from repro.errors import PlanError
from repro.gd import registry as gd_registry
from repro.gd.base import Updater
from repro.gd.gradients import LogisticGradient
from repro.gd.registry import ALGORITHMS, info, register, run
from repro.gd.spec import AlgorithmSpec, CostTerms
from repro.gd.state import STATE_FORMAT, OptimizerState

BUILTIN = ("bgd", "mgd", "sgd", "svrg", "momentum", "adagrad", "adam")


@pytest.fixture
def tiny():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 4))
    w_star = rng.normal(size=4)
    y = np.where(X @ w_star > 0, 1.0, 0.0)
    return X, y, LogisticGradient()


def stats_for(n=100_000, d=50):
    return DatasetStats("x", "svm", n=n, d=d, density=1.0, is_sparse=False)


def _unregister(name):
    ALGORITHMS.pop(name, None)


class TestRegister:
    def test_register_returns_the_spec(self):
        spec = AlgorithmSpec("tmp_alg", 32, True, "test algorithm")
        try:
            assert register(spec) is spec
            assert info("tmp_alg") is spec
        finally:
            _unregister("tmp_alg")

    def test_duplicate_name_is_refused(self):
        with pytest.raises(PlanError, match="already registered"):
            register(AlgorithmSpec("bgd", None, False, "impostor"))

    def test_replace_true_overrides(self):
        try:
            register(AlgorithmSpec("tmp_alg", 32, True, "v1"))
            register(AlgorithmSpec("tmp_alg", 64, True, "v2"), replace=True)
            assert info("tmp_alg").default_batch_size == 64
        finally:
            _unregister("tmp_alg")

    def test_non_spec_argument_is_refused(self):
        with pytest.raises(PlanError, match="AlgorithmSpec"):
            register({"name": "dictionary"})

    def test_foreign_state_namespace_is_refused(self):
        spec = AlgorithmSpec(
            "tmp_alg", 32, True, "namespace thief",
            state_namespace="svrg",
            transfer_state=lambda payload, target, notes: None,
        )
        with pytest.raises(PlanError, match="already owned"):
            register(spec)

    def test_transfer_policy_requires_namespace(self):
        with pytest.raises(PlanError):
            AlgorithmSpec("tmp_alg", 32, True, "policy sans namespace",
                          transfer_state=lambda p, t, notes: None)

    def test_unknown_algorithm_message_lists_registry(self):
        with pytest.raises(PlanError, match="unknown GD algorithm"):
            info("simulated_annealing")


class TestDroppedKwargs:
    """No kwarg is dropped: ``registry.run`` forwards everything to
    ``run_loop``, so one outside its surface is ``run_loop``'s own
    ``TypeError`` for every algorithm."""

    @pytest.fixture(autouse=True)
    def _propagate_repro_logs(self):
        # configure_logging() (exercised elsewhere in the suite) turns
        # propagation off on the "repro" root logger; caplog captures at
        # the root handler, so restore propagation for these tests.
        logger = logging.getLogger("repro")
        saved = logger.propagate
        logger.propagate = True
        try:
            yield
        finally:
            logger.propagate = saved

    def test_kernel_arguments_are_not_run_kwargs(self, tiny):
        # Cadence knobs are constructor arguments of the kernels, not
        # part of registry.run's surface.
        X, y, gradient = tiny
        with pytest.raises(TypeError, match="update_frequency"):
            run("svrg", X, y, gradient, max_iter=3, tolerance=0.0,
                update_frequency=7)

    def test_accepted_kwargs_pass_silently(self, tiny, caplog):
        X, y, gradient = tiny
        with caplog.at_level(logging.WARNING, logger="repro.gd"):
            result = run("mgd", X, y, gradient, max_iter=3, tolerance=0.0,
                         step_size=0.05, record_loss=True)
        assert not [r for r in caplog.records if r.name == "repro.gd"]
        assert result.iterations == 3 and len(result.losses) == 3

    def test_run_loop_algorithms_default_to_loop_contract(self, tiny):
        X, y, gradient = tiny
        with pytest.raises(TypeError, match="alpha0"):
            run("adam", X, y, gradient, max_iter=3, tolerance=0.0,
                alpha0=0.5)


class TestCostTerms:
    def test_identity_by_default(self):
        assert CostTerms().is_identity()
        for name in BUILTIN:
            assert gd_registry.cost_terms(name).is_identity(), name

    def test_plugins_declare_corrections(self):
        assert not gd_registry.cost_terms("grad_avg").is_identity()
        assert not gd_registry.cost_terms("arc").is_identity()

    def test_invalid_terms_are_refused(self):
        with pytest.raises(PlanError):
            CostTerms(per_iteration_multiplier=0.0)
        with pytest.raises(PlanError):
            CostTerms(extra_update_cost_factor=-1.0)
        with pytest.raises(PlanError):
            CostTerms(full_pass_fraction=1.5)

    def test_builtin_costs_have_no_algorithm_phase(self):
        model = CostModel(ClusterSpec(jitter_sigma=0.0))
        stats = stats_for()
        for algorithm in ("bgd", "mgd", "sgd", "svrg"):
            for plan in plans_for_algorithm(algorithm):
                phases = model.per_iteration_cost(plan, stats)
                assert "algorithm" not in phases, plan

    def test_plugin_costs_show_algorithm_phase(self):
        model = CostModel(ClusterSpec(jitter_sigma=0.0))
        stats = stats_for()
        for algorithm in ("grad_avg", "arc"):
            plan = plans_for_algorithm(algorithm)[0]
            phases = model.per_iteration_cost(plan, stats)
            assert phases["algorithm"] > 0.0, algorithm

    def test_arc_prices_the_probe_passes(self):
        """Arc's periodic full passes make it pricier than plain SGD."""
        model = CostModel(ClusterSpec(jitter_sigma=0.0))
        stats = stats_for(n=1_000_000, d=50)
        arc = sum(model.per_iteration_cost(
            plans_for_algorithm("arc")[0], stats).values())
        sgd = sum(model.per_iteration_cost(
            plans_for_algorithm("sgd")[0], stats).values())
        assert arc > sgd

    def test_batch_estimates_match_scalar_with_corrections(self):
        model = CostModel(ClusterSpec(jitter_sigma=0.0))
        stats = stats_for()
        plans = []
        for algorithm in ("bgd", "mgd", "sgd", "grad_avg", "arc"):
            plans.extend(plans_for_algorithm(algorithm))
        batch = model.estimate_batch(plans, stats, [100] * len(plans))
        for i, plan in enumerate(plans):
            _, _, total_s, breakdown = model.estimate(plan, stats, 100)
            assert batch.total_s[i] == pytest.approx(total_s, rel=1e-9), plan
            assert batch.breakdown(i) == pytest.approx(breakdown), plan


class TestSpeculationOverrides:
    def test_default_is_empty(self):
        assert gd_registry.speculation_overrides("mgd") == {}

    def test_override_reaches_the_estimator(self, tiny):
        X, y, gradient = tiny
        spec = AlgorithmSpec(
            "tmp_spec_alg", 64, True, "speculation override probe",
            speculation_overrides={"max_speculation_iters": 7},
        )
        settings = SpeculationSettings(
            sample_size=200, speculation_tolerance=1e-12,
            time_budget_s=10.0, max_speculation_iters=50)
        try:
            register(spec)
            estimator = SpeculativeEstimator(settings, seed=11)
            base = estimator.estimate(X, y, gradient, "mgd",
                                      target_tolerance=1e-9, step_size=0.05,
                                      batch_size=64)
            boosted = estimator.estimate(X, y, gradient, "tmp_spec_alg",
                                         target_tolerance=1e-9,
                                         step_size=0.05, batch_size=64)
            assert base.speculation_iterations == 50
            assert boosted.speculation_iterations == 7
        finally:
            _unregister("tmp_spec_alg")


class TestPlanVariants:
    def test_default_variants_follow_stochasticity(self):
        bgd_plans = plans_for_algorithm("bgd")
        assert [(p.transform_mode, p.sampling) for p in bgd_plans] == [
            ("eager", None)]
        assert len(plans_for_algorithm("mgd")) == 5

    def test_spec_variants_win(self):
        spec = AlgorithmSpec(
            "tmp_variant_alg", 64, True, "restricted plan shape",
            plan_variants=(("eager", "shuffle"),),
        )
        try:
            register(spec)
            plans = plans_for_algorithm("tmp_variant_alg")
            assert [(p.transform_mode, p.sampling) for p in plans] == [
                ("eager", "shuffle")]
        finally:
            _unregister("tmp_variant_alg")

    def test_plugins_enumerate_like_paper_algorithms(self):
        for name in ("grad_avg", "arc"):
            plans = plans_for_algorithm(name)
            assert len(plans) == 5, name
            assert all(p.algorithm == name for p in plans)


class TestStateFormatMigration:
    def test_format_constant_is_two(self):
        assert STATE_FORMAT == 2

    def test_round_trip_is_format2(self):
        state = OptimizerState(iteration_offset=3,
                               algorithm_state={"arc": {"phase": 2}})
        payload = state.to_dict()
        assert payload["state_format"] == 2
        assert OptimizerState.from_dict(payload).algorithm_state == {
            "arc": {"phase": 2}}

    def test_newer_format_is_refused(self):
        with pytest.raises(PlanError, match="newer than supported"):
            OptimizerState.from_dict(
                {"state_format": STATE_FORMAT + 1, "iteration_offset": 0})

    def test_unowned_namespace_drops_with_note(self):
        state = OptimizerState(iteration_offset=5,
                               algorithm_state={"mystery": {"x": 1}})
        out = state.transfer_to("mgd")
        assert out.algorithm_state == {}
        assert any("mystery state dropped" in note for note in out.notes)


class TestRegistryShape:
    def test_the_zoo(self):
        for name in BUILTIN + ("grad_avg", "arc"):
            assert name in ALGORITHMS

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            info("bgd").default_batch_size = 5

    def test_core_algorithms_unchanged(self):
        assert gd_registry.CORE_ALGORITHMS == ("bgd", "mgd", "sgd")

    def test_selector_for_respects_fixed_batch(self):
        rng = np.random.default_rng(0)
        X = np.arange(300.0).reshape(100, 3)
        fixed = gd_registry.selector_for("sgd", 100, batch_size=32)
        assert X[fixed(1, rng)].shape == (1, 3)
        sized = gd_registry.selector_for("mgd", 100, batch_size=32)
        assert X[sized(1, rng)].shape == (32, 3)

    def test_single_row_selector_keeps_the_rng_stream(self):
        # One rng.integers(0, n) draw per iteration, returned as a
        # slice: the same rows an index-array gather would read.
        select = gd_registry.selector_for("sgd", 100)
        drawn = np.random.default_rng(9)
        reference = np.random.default_rng(9)
        for i in range(1, 20):
            j = int(reference.integers(0, 100))
            assert select(i, drawn) == slice(j, j + 1)


class TestOneKernelPerAlgorithm:
    def test_every_algorithm_is_a_step_kernel(self):
        fields = {f.name for f in dataclasses.fields(AlgorithmSpec)}
        assert not fields & {"driver", "accepted_kwargs",
                             "supports_executor"}
        assert all(spec.supports_executor for spec in ALGORITHMS.values())

    def test_spec_has_no_operator_factory(self):
        fields = {f.name for f in dataclasses.fields(AlgorithmSpec)}
        assert "make_operators" not in fields

    def test_executor_bundle_drives_the_registered_kernel(self):
        from repro.core.plans import TrainingSpec

        training = TrainingSpec(task="logreg")
        for name, spec in ALGORITHMS.items():
            ops = gd_registry.make_operators(
                plans_for_algorithm(name)[0], d=4, training=training)
            kernel = ops.update.updater
            assert ops.compute.updater is kernel, name
            assert type(kernel) is type(
                gd_registry.updater_for(name) or Updater()), name
            assert kernel.state_namespace == spec.state_namespace, name

    def test_importing_gd_does_not_import_core(self):
        probe = ("import sys, repro.gd; "
                 "sys.exit(any(m == 'repro.core' or "
                 "m.startswith('repro.core.') for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


class TestLoopLint:
    """``scripts/check_name_branching.py`` allows a GD loop only in
    ``run_loop`` and the plan executor, anywhere under ``src/repro``."""

    @staticmethod
    def lint():
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).parents[1] / "scripts"
                / "check_name_branching.py")
        module_spec = importlib.util.spec_from_file_location(
            "check_name_branching", path
        )
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        return module

    def test_the_library_has_two_gd_loops(self):
        assert self.lint().scan_loops() == []

    @pytest.mark.parametrize("header", [
        "for i in range(1, max_iter + 1):",
        "for i in range(1, training.max_iter + 1):",
        "for step in range(1, self.spec.max_iter + 1):",
    ])
    def test_a_loop_in_any_package_is_flagged(self, tmp_path, header):
        package = tmp_path / "baselines"
        package.mkdir()
        (package / "base.py").write_text(f"def train():\n    {header}\n")
        offenders = self.lint().scan_loops(str(tmp_path))
        assert [(lineno, line.strip()) for _, lineno, line in offenders] \
            == [(2, header)]
