"""Optimizer-state carry-over: resume equivalence and transfer policy.

The contract under test: ``run(N)`` is bit-identical to ``run(k)`` ->
export :class:`OptimizerState` -> ``resume(N - k)`` for same-algorithm
segments, at both the pure-math level (``run_loop``) and the
plan-executor level, across every registered step kernel; plus the
JSON round trip of the snapshot and the cross-algorithm transfer policy.

The randomized kill-point suites push the same contract through the
checkpoint substrate: snapshots exported on a cadence mid-run
(``state_every`` / executor ``checkpoint_every``), a seeded harness
that "kills" training at an arbitrary iteration -- including inside an
SVRG epoch and one iteration after a mid-flight plan switch -- and
durable service jobs resumed over json and sqlite stores.
"""

import json

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.core.executor import execute_plan
from repro.core.plan_space import plans_for_algorithm
from repro.core.plans import GDPlan, TrainingSpec
from repro.errors import PlanError
from repro.gd import registry as gd_registry
from repro.gd.base import (
    AdamUpdater,
    MomentumUpdater,
    full_batch_selector,
    run_loop,
)
from repro.gd.gradients import LogisticGradient
from repro.gd.state import OptimizerState
from repro.gd.step_size import OffsetStep, make_step_size, with_offset
from repro.gd.svrg import SVRGUpdater

from support import make_dataset

N_TOTAL = 60

#: The resume-equivalence matrix is *derived from the registry*, so
#: every registered step kernel -- including plugins -- is automatically
#: proven bit-identical on stop/resume through run_loop, with the
#: selector/kernel its spec implies.
RUN_LOOP_ALGORITHMS = sorted(gd_registry.ALGORITHMS)
SPLITS = (1, 5, 23, 50, 59)


def registry_selector(algorithm, n):
    """The selector the registry would hand run_loop (small batches so
    the 120-row test problem stays genuinely stochastic)."""
    return gd_registry.selector_for(algorithm, n, batch_size=32)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(120, 6))
    w_star = rng.normal(size=6)
    y = (X @ w_star > 0).astype(float) * 2 - 1
    return X, y, LogisticGradient()


def json_round_trip(state) -> OptimizerState:
    """Serialize/deserialize through actual JSON text, like a trace."""
    return OptimizerState.from_dict(json.loads(json.dumps(state.to_dict())))


class TestRunLoopResumeEquivalence:
    @pytest.mark.parametrize("algorithm", RUN_LOOP_ALGORITHMS)
    @pytest.mark.parametrize("k", SPLITS)
    def test_stop_and_resume_is_bit_identical(self, problem, algorithm, k):
        X, y, gradient = problem
        selector = registry_selector(algorithm, X.shape[0])

        def run(max_iter, w0=None, state=None, seed=5):
            return run_loop(
                X, y, gradient, selector,
                step_size=1.0,            # MLlib beta/sqrt(i): position matters
                tolerance=0.0,            # never converge: fixed-length runs
                max_iter=max_iter,
                w0=w0,
                updater=gd_registry.updater_for(algorithm),
                rng=np.random.default_rng(seed),
                state=state,
            )

        one_shot = run(N_TOTAL)
        first = run(k)
        # The snapshot survives real JSON (what a persisted trace holds).
        carried = json_round_trip(first.state)
        # A different seed proves the resume takes the *carried* stream.
        second = run(N_TOTAL - k, w0=first.weights, state=carried, seed=999)

        assert np.array_equal(one_shot.weights, second.weights)
        np.testing.assert_array_equal(
            one_shot.deltas, np.concatenate([first.deltas, second.deltas])
        )
        assert second.state.iteration_offset == N_TOTAL

    @pytest.mark.parametrize("k", SPLITS)
    def test_caller_supplied_updater_on_any_selector(self, problem, k):
        # The updater need not come from the algorithm's own spec:
        # buffers still carry across a resume on a full-batch selector.
        X, y, gradient = problem

        def run(max_iter, w0=None, state=None, seed=5):
            return run_loop(
                X, y, gradient, full_batch_selector,
                step_size=1.0, tolerance=0.0, max_iter=max_iter, w0=w0,
                updater=AdamUpdater(), rng=np.random.default_rng(seed),
                state=state,
            )

        one_shot = run(N_TOTAL)
        first = run(k)
        second = run(N_TOTAL - k, w0=first.weights,
                     state=json_round_trip(first.state), seed=999)
        assert np.array_equal(one_shot.weights, second.weights)

    def test_resume_without_state_restarts_the_schedule(self, problem):
        X, y, gradient = problem
        selector = registry_selector("bgd", X.shape[0])
        one_shot = run_loop(X, y, gradient, selector, step_size=1.0,
                            tolerance=0.0, max_iter=N_TOTAL)
        first = run_loop(X, y, gradient, selector, step_size=1.0,
                         tolerance=0.0, max_iter=23)
        legacy = run_loop(X, y, gradient, selector, step_size=1.0,
                          tolerance=0.0, max_iter=N_TOTAL - 23,
                          w0=first.weights)
        # Weights-only resume restarts beta/sqrt(i) at 1: not equivalent.
        assert not np.array_equal(one_shot.weights, legacy.weights)


def run_svrg(problem, update_frequency=7, **kwargs):
    """SVRG at a short anchor cadence: the kernel through run_loop."""
    X, y, gradient = problem
    return run_loop(
        X, y, gradient, registry_selector("svrg", X.shape[0]),
        updater=SVRGUpdater(update_frequency), step_size=0.05, **kwargs,
    )


class TestSVRGResumeEquivalence:
    @pytest.mark.parametrize("k", (5, 23, 50))
    def test_anchor_cadence_and_control_variate_survive(self, problem, k):
        def run(max_iter, w0=None, state=None, seed=5):
            return run_svrg(
                problem, tolerance=0.0, max_iter=max_iter, w0=w0,
                state=state, rng=np.random.default_rng(seed),
            )

        one_shot = run(N_TOTAL)
        first = run(k)
        second = run(N_TOTAL - k, w0=first.weights,
                     state=json_round_trip(first.state), seed=999)

        assert np.array_equal(one_shot.weights, second.weights)
        np.testing.assert_array_equal(
            one_shot.deltas, np.concatenate([first.deltas, second.deltas])
        )

    def test_entry_without_svrg_state_recomputes_anchor(self, problem):
        X, y, gradient = problem
        # A cross-algorithm transfer drops SVRG state: entering with only
        # an offset must anchor immediately at the carried weights.
        w0 = np.full(X.shape[1], 0.1)
        state = OptimizerState(iteration_offset=40)
        result = run_svrg(problem, tolerance=0.0, max_iter=3, w0=w0,
                          state=state)
        svrg_state = result.state.algorithm_state["svrg"]
        assert svrg_state["last_anchor"] == 41
        # The anchor was taken at the resumed weights, not at zero.
        np.testing.assert_allclose(
            np.asarray(svrg_state["w_bar"]), w0, atol=0.05
        )


def _executor_plans():
    """One representative plan per registered algorithm,
    rotating through the plan-space variants so every sampling strategy
    and both transform modes stay covered as the registry grows."""
    names = sorted(gd_registry.ALGORITHMS)
    plans = []
    for idx, name in enumerate(names):
        entry = gd_registry.ALGORITHMS[name]
        batch = 64 if entry.stochastic and not entry.batch_size_fixed else None
        variants = plans_for_algorithm(name, batch)
        plans.append(variants[idx % len(variants)])
    return plans


EXECUTOR_PLANS = _executor_plans()


class TestExecutorResumeEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(n_phys=600, d=8, task="logreg", seed=4)

    @pytest.mark.parametrize(
        "plan", EXECUTOR_PLANS, ids=[str(p) for p in EXECUTOR_PLANS]
    )
    def test_stop_and_resume_matches_one_shot(self, spec, dataset, plan):
        k = 23
        training = TrainingSpec(task="logreg", step_size=1.0,
                                tolerance=1e-12, max_iter=N_TOTAL, seed=3)
        one_shot = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan, training
        )

        first = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan,
            TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                         max_iter=k, seed=3),
        )
        second = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan,
            TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                         max_iter=N_TOTAL - k, seed=3),
            initial_weights=first.weights,
            # Dict form: what a PlanSegment/trace carries.
            initial_state=json.loads(json.dumps(first.state.to_dict())),
        )

        assert np.array_equal(one_shot.weights, second.weights)
        np.testing.assert_array_equal(
            one_shot.deltas, np.concatenate([first.deltas, second.deltas])
        )
        assert second.state.iteration_offset == N_TOTAL

    def test_exported_state_names_the_updater(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-12, max_iter=5,
                                seed=3)
        result = execute_plan(
            SimulatedCluster(spec, seed=0), dataset,
            GDPlan("momentum", "eager", "shuffle", 64), training,
        )
        assert result.state.updater == MomentumUpdater().name
        assert "v" in result.state.updater_buffers
        assert result.state.rng_state is not None
        # Converge's memory is the weights a resume already carries.
        assert "convergence" not in result.state.to_dict()


class TestOptimizerStateSerialization:
    def test_round_trip_preserves_every_field(self):
        state = OptimizerState(
            iteration_offset=123,
            updater="adam",
            updater_buffers={"m": [0.1, 0.2], "v": [0.3, 0.4]},
            algorithm_state={
                "svrg": {"w_bar": [1.0], "mu": [2.0], "last_anchor": 120},
            },
            rng_state=np.random.default_rng(3).bit_generator.state,
            sampler={"pid": 1, "sim_cursor": 9, "phys_order": [3, 1],
                     "phys_cursor": 1},
        )
        restored = json_round_trip(state)
        assert restored == state

    def test_convergence_memory_of_older_writers_is_dropped(self):
        payload = OptimizerState(iteration_offset=7).to_dict()
        payload["convergence"] = {"previous": [5.0, 6.0]}
        assert OptimizerState.from_dict(payload) == \
            OptimizerState(iteration_offset=7)

    def test_unknown_keys_are_tolerated(self):
        payload = OptimizerState(iteration_offset=7).to_dict()
        payload["from_the_future"] = {"x": 1}
        assert OptimizerState.from_dict(payload).iteration_offset == 7

    def test_newer_format_is_refused(self):
        payload = OptimizerState().to_dict()
        payload["state_format"] = 99
        with pytest.raises(PlanError):
            OptimizerState.from_dict(payload)


class TestTransferPolicy:
    def momentum_state(self):
        return OptimizerState(
            iteration_offset=200,
            updater=MomentumUpdater().name,
            updater_buffers={"v": [0.5, -0.5]},
            rng_state=np.random.default_rng(0).bit_generator.state,
            sampler={"pid": 0, "sim_cursor": 3, "phys_order": [1, 0],
                     "phys_cursor": 1},
        )

    def test_offset_and_rng_always_carry(self):
        out = self.momentum_state().transfer_to("adam")
        assert out.iteration_offset == 200
        assert out.rng_state is not None
        assert any("iteration offset 200 carried" in n for n in out.notes)

    def test_matching_updater_buffers_carry(self):
        out = self.momentum_state().transfer_to("momentum")
        assert out.updater_buffers == {"v": [0.5, -0.5]}
        assert any("buffers carried" in n for n in out.notes)

    def test_mismatched_updater_buffers_drop_with_note(self):
        out = self.momentum_state().transfer_to("adam")
        assert out.updater_buffers == {}
        assert any("buffers dropped" in n for n in out.notes)

    def test_svrg_anchor_recomputed_on_entry(self):
        state = OptimizerState(
            iteration_offset=90,
            algorithm_state={
                "svrg": {"w_bar": [1.0], "mu": [0.1], "last_anchor": 85},
            },
        )
        out = state.transfer_to("svrg")
        assert "svrg" not in out.algorithm_state
        assert any("anchor" in n for n in out.notes)

    def test_plugin_namespaces_route_through_spec_hooks(self):
        state = OptimizerState(
            iteration_offset=40,
            algorithm_state={"arc": {"phase": 2, "norm0": 1.5,
                                     "switched_at": 21, "last_probe": 39}},
        )
        out = state.transfer_to("mgd")
        assert out.algorithm_state == {}
        assert any("re-probed" in n for n in out.notes)

    def test_sampler_cursors_drop_on_plan_change(self):
        out = self.momentum_state().transfer_to("sgd")
        assert out.sampler is None
        assert any("sampler cursors dropped" in n for n in out.notes)


class TestConvergenceWinsOrdering:
    """A run that converges on its stopping iteration reports converged
    (run_loop and PlanExecutor agree; the executor documented this
    first)."""

    def test_run_loop_convergence_beats_callback_stop(self, problem):
        X, y, gradient = problem
        result = run_loop(
            X, y, gradient, full_batch_selector,
            step_size="constant:0.05", tolerance=1e50, max_iter=10,
            iteration_callback=lambda i, w, delta: True,
        )
        assert result.iterations == 1
        assert result.converged

    def test_svrg_convergence_beats_callback_stop(self, problem):
        result = run_svrg(
            problem, update_frequency=50, tolerance=1e50, max_iter=10,
            iteration_callback=lambda t, w, delta: True,
        )
        assert result.iterations == 1
        assert result.converged

    def test_callback_still_stops_unconverged_runs(self, problem):
        X, y, gradient = problem
        result = run_loop(
            X, y, gradient, full_batch_selector,
            step_size="constant:0.05", tolerance=1e-12, max_iter=100,
            iteration_callback=lambda i, w, delta: i >= 4,
        )
        assert result.iterations == 4
        assert not result.converged


def kill_point(label, low=1, high=N_TOTAL - 1, forbid=None):
    """Deterministic 'arbitrary' kill iteration for one scenario.

    Seeded from the scenario label (crc32: stable across processes,
    unlike ``hash``), so every run of the suite kills at the same --
    but not hand-picked -- iteration; ``forbid`` re-draws e.g. anchor
    boundaries.
    """
    import zlib

    rng = np.random.default_rng(zlib.crc32(label.encode()))
    for _ in range(100):
        k = int(rng.integers(low, high + 1))
        if forbid is None or not forbid(k):
            return k
    raise AssertionError("no admissible kill point")


class TestStateExportCadence:
    """gd-level ``state_every``/``state_callback``: mid-run snapshots
    that perturb nothing and each resume bit-identically."""

    @pytest.mark.parametrize("algorithm", RUN_LOOP_ALGORITHMS)
    def test_random_kill_resumes_bit_identically(self, problem, algorithm):
        X, y, gradient = problem
        selector = registry_selector(algorithm, X.shape[0])
        snapshots = {}

        def run(max_iter, w0=None, state=None, seed=5, capture=False):
            return run_loop(
                X, y, gradient, selector,
                step_size=1.0, tolerance=0.0, max_iter=max_iter,
                w0=w0, updater=gd_registry.updater_for(algorithm),
                rng=np.random.default_rng(seed), state=state,
                state_every=1 if capture else None,
                state_callback=(
                    (lambda i, w, s: snapshots.__setitem__(i, (w, s)))
                    if capture else None
                ),
            )

        plain = run(N_TOTAL)
        captured = run(N_TOTAL, capture=True)
        # Attaching the cadence hook is behaviour-preserving.
        assert np.array_equal(plain.weights, captured.weights)
        assert set(snapshots) == set(range(1, N_TOTAL))  # not the exit

        k = kill_point(f"run_loop/{algorithm}")
        w_k, state_k = snapshots[k]
        resumed = run(N_TOTAL - k, w0=w_k,
                      state=json_round_trip(state_k), seed=999)
        assert np.array_equal(plain.weights, resumed.weights)
        np.testing.assert_array_equal(
            plain.deltas, np.concatenate([plain.deltas[:k], resumed.deltas])
        )

    def test_svrg_kill_inside_an_epoch(self, problem):
        m = 7
        snapshots = {}

        def run(max_iter, w0=None, state=None, seed=5, capture=False):
            return run_svrg(
                problem, m,
                tolerance=0.0, max_iter=max_iter, w0=w0, state=state,
                rng=np.random.default_rng(seed),
                state_every=1 if capture else None,
                state_callback=(
                    (lambda i, w, s: snapshots.__setitem__(i, (w, s)))
                    if capture else None
                ),
            )

        plain = run(N_TOTAL)
        run(N_TOTAL, capture=True)
        # Kill strictly inside an epoch: not an anchor iteration (the
        # anchor fires when gt - last_anchor >= m, i.e. at 1, 1+m, ...).
        k = kill_point("svrg/epoch", low=2,
                       forbid=lambda i: (i - 1) % m == 0)
        w_k, state_k = snapshots[k]
        # genuinely mid-epoch
        assert state_k.algorithm_state["svrg"]["last_anchor"] < k
        resumed = run(N_TOTAL - k, w0=w_k,
                      state=json_round_trip(state_k), seed=999)
        assert np.array_equal(plain.weights, resumed.weights)
        # The resumed run must not have re-anchored early.
        assert resumed.state.algorithm_state["svrg"]["last_anchor"] == \
            plain.state.algorithm_state["svrg"]["last_anchor"]

    def test_snapshot_cadence_is_global_on_resume(self, problem):
        X, y, gradient = problem
        seen = []
        first = run_loop(X, y, gradient, full_batch_selector,
                         step_size=1.0, tolerance=0.0, max_iter=20)
        run_loop(X, y, gradient, full_batch_selector,
                 step_size=1.0, tolerance=0.0, max_iter=20,
                 w0=first.weights, state=first.state,
                 state_every=8,
                 state_callback=lambda i, w, s: seen.append(i))
        assert seen == [24, 32]  # global multiples, not local ones


class TestExecutorCheckpointCadence:
    """Executor-level ``checkpoint_every``: global-iteration cadence,
    behaviour-preserving, every exported snapshot resumes exactly."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(n_phys=600, d=8, task="logreg", seed=4)

    @pytest.mark.parametrize(
        "plan", EXECUTOR_PLANS, ids=[str(p) for p in EXECUTOR_PLANS]
    )
    def test_random_kill_resumes_bit_identically(self, spec, dataset, plan):
        training = TrainingSpec(task="logreg", step_size=1.0,
                                tolerance=1e-12, max_iter=N_TOTAL, seed=3)
        plain = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan, training
        )
        checkpoints = {}
        observed = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan, training,
            checkpoint_every=1,
            checkpoint_callback=(
                lambda i, w, s: checkpoints.__setitem__(i, (w, s))
            ),
        )
        assert np.array_equal(plain.weights, observed.weights)
        np.testing.assert_array_equal(plain.deltas, observed.deltas)

        k = kill_point(f"executor/{plan}")
        w_k, state_k = checkpoints[k]
        resumed = execute_plan(
            SimulatedCluster(spec, seed=0), dataset, plan,
            TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                         max_iter=N_TOTAL - k, seed=3),
            initial_weights=w_k,
            initial_state=json.loads(json.dumps(state_k.to_dict())),
        )
        assert np.array_equal(plain.weights, resumed.weights)
        np.testing.assert_array_equal(
            plain.deltas,
            np.concatenate([plain.deltas[:k], resumed.deltas]),
        )
        assert resumed.state.iteration_offset == N_TOTAL


class TestRandomKillJobs:
    """Service-level jobs: kill at a seeded arbitrary iteration, resume
    in a fresh service over a json and a sqlite store -- weights and the
    whole delta trajectory must match the uninterrupted job."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(n_phys=600, d=8, task="logreg", seed=4)

    @pytest.fixture(scope="class")
    def training(self):
        return TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                            max_iter=N_TOTAL, seed=3)

    def job(self, spec, dataset, training, path, job_id, plan, **kwargs):
        from repro.service import OptimizerService

        service = OptimizerService(spec=spec, seed=5, checkpoint_path=path)
        return service.train(
            dataset, training, fixed_iterations=N_TOTAL,
            algorithms=(plan.algorithm,),
            batch_sizes=(
                {plan.algorithm: plan.batch_size}
                if plan.batch_size is not None else None
            ),
            job_id=job_id, **kwargs,
        )

    @pytest.mark.parametrize("store", ["jobs.json", "jobs.db"])
    @pytest.mark.parametrize(
        "plan", EXECUTOR_PLANS, ids=[str(p) for p in EXECUTOR_PLANS]
    )
    def test_kill_and_resume_matches_uninterrupted(
        self, spec, dataset, training, tmp_path, plan, store
    ):
        from repro.runtime import JobBudget

        baseline = self.job(
            spec, dataset, training, str(tmp_path / ("base-" + store)),
            "u", plan,
        )
        assert baseline.job.status == "done"

        k = kill_point(f"job/{plan}/{store}")
        path = str(tmp_path / store)
        killed = self.job(
            spec, dataset, training, path, "victim", plan,
            checkpoint_every=10, budget=JobBudget(max_iterations=k),
        )
        assert killed.job.preempted
        assert killed.job.done_iterations == k

        resumed = self.job(spec, dataset, training, path, "victim", plan)
        assert resumed.job.resumed
        assert resumed.job.status == "done"
        assert np.array_equal(baseline.weights, resumed.weights)
        assert baseline.trace.all_deltas == resumed.trace.all_deltas


class TestPostSwitchKill:
    """Kill an adaptive job one iteration after a mid-flight plan
    switch; the resumed run must keep the switched-to plan, the
    transferred state, and the uninterrupted run's exact trajectory."""

    def scenario(self, spec, dataset, path, job_id, **kwargs):
        from repro.runtime import AdaptiveSettings, PerturbedCostModel
        from repro.service import OptimizerService

        # The fault: mgd's per-iteration cost under-estimated 20x, so
        # the optimizer mis-picks it; the monitor notices the true cost
        # after min_points iterations and switches to sgd.
        service = OptimizerService(
            spec=spec, seed=5,
            algorithms=("mgd", "sgd"),
            batch_sizes={"mgd": 256},
            cost_model=PerturbedCostModel(spec, {"mgd": 0.05}),
            checkpoint_path=path,
        )
        training = TrainingSpec(task="logreg", step_size=1.0,
                                tolerance=1e-12, max_iter=N_TOTAL, seed=3)
        settings = AdaptiveSettings(refit_every=5, min_points=5,
                                    max_switches=2)
        return service.train(
            dataset, training, fixed_iterations=N_TOTAL,
            adaptive=True, adaptive_settings=settings,
            job_id=job_id, **kwargs,
        )

    def test_kill_one_iteration_after_the_switch(self, spec, tmp_path):
        from repro.runtime import JobBudget

        dataset = make_dataset(n_phys=600, d=8, task="logreg", seed=4)
        baseline = self.scenario(
            spec, dataset, str(tmp_path / "base.json"), "u"
        )
        assert baseline.trace.switched, "scenario must force a switch"
        switch_at = baseline.trace.switches[0].iteration
        assert baseline.trace.segments[0].algorithm == "mgd"
        assert baseline.trace.segments[-1].algorithm == "sgd"

        path = str(tmp_path / "jobs.json")
        killed = self.scenario(
            spec, dataset, path, "victim",
            budget=JobBudget(max_iterations=switch_at + 1),
        )
        assert killed.job.preempted
        assert killed.job.done_iterations == switch_at + 1
        assert len(killed.trace.switches) == 1  # killed *after* switching

        resumed = self.scenario(spec, dataset, path, "victim")
        assert resumed.job.resumed
        assert resumed.job.status == "done"
        # The resumed lease continues the switched-to plan: no fresh
        # switch events, same final algorithm.
        assert len(resumed.trace.switches) == 1
        assert resumed.trace.segments[-1].algorithm == "sgd"
        # The post-switch transfer notes were persisted and re-imported.
        post_switch = resumed.trace.segments[-1]
        assert any("resumed from checkpoint" in note
                   for note in post_switch.state_transfer)
        assert np.array_equal(baseline.weights, resumed.weights)
        assert baseline.trace.all_deltas == resumed.trace.all_deltas


class TestOffsetStep:
    def test_continues_the_schedule(self):
        base = make_step_size(1.0)            # beta/sqrt(i)
        resumed = with_offset(1.0, 400)
        assert resumed.step(1) == base.step(401)

    def test_zero_offset_is_the_plain_schedule(self):
        assert with_offset("constant:0.5", 0).step(3) == 0.5
        assert not isinstance(with_offset(1.0, 0), OffsetStep)

    def test_offsets_compose(self):
        twice = with_offset(with_offset(1.0, 100), 50)
        assert twice.step(1) == make_step_size(1.0).step(151)

    def test_negative_offset_rejected(self):
        with pytest.raises(PlanError):
            OffsetStep(1.0, -1)
