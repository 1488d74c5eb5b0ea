"""Executor telemetry hooks and the runtime monitors."""

import numpy as np
import pytest

from repro.core.curve_fit import FittedCurve
from repro.core.executor import execute_plan
from repro.core.plans import GDPlan, TrainingSpec
from repro.errors import PlanError
from repro.runtime import (
    AdaptiveSettings,
    ConvergenceMonitor,
    TelemetryRecorder,
)

from support import make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(n_phys=300, d=8, task="logreg", spec=spec, seed=2)


@pytest.fixture
def training():
    return TrainingSpec(task="logreg", tolerance=1e-4, max_iter=40, seed=0)


def fresh_engine(spec):
    from repro.cluster import SimulatedCluster

    return SimulatedCluster(spec, seed=0)


class TestExecutorMonitorHook:
    def test_monitor_sees_every_iteration(self, spec, dataset, training):
        recorder = TelemetryRecorder()
        result = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), training,
            monitor=recorder,
        )
        assert recorder.iterations == result.iterations
        assert recorder.deltas == pytest.approx(list(result.deltas))
        # Clocks are monotone non-decreasing across records.
        clocks = [r.clock for r in recorder.records]
        assert clocks == sorted(clocks)

    def test_attaching_a_recorder_is_behaviour_preserving(
        self, spec, dataset, training
    ):
        bare = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), training
        )
        observed = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), training,
            monitor=TelemetryRecorder(),
        )
        assert np.array_equal(bare.weights, observed.weights)
        assert bare.sim_seconds == observed.sim_seconds
        assert bare.iterations == observed.iterations
        assert not observed.stopped_by_monitor

    def test_stop_request_is_honoured_gracefully(
        self, spec, dataset, training
    ):
        class StopAt:
            def __init__(self, at):
                self.at = at

            def on_iteration(self, iteration, delta, clock):
                return iteration >= self.at

        result = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), training,
            monitor=StopAt(7),
        )
        assert result.stopped_by_monitor
        assert result.iterations == 7
        assert not result.converged
        # Model state survives the stop.
        assert result.weights.shape == (dataset.stats.d,)
        assert np.any(result.weights != 0)

    def test_convergence_wins_over_stop_request(self, spec, dataset):
        class AlwaysStop:
            def on_iteration(self, iteration, delta, clock):
                return True

        training = TrainingSpec(
            task="logreg", tolerance=1e9, max_iter=40, seed=0
        )
        result = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), training,
            monitor=AlwaysStop(),
        )
        assert result.converged
        assert not result.stopped_by_monitor

    def test_initial_weights_resume_training(self, spec, dataset, training):
        # Constant step: resuming is then exactly equivalent to having
        # run straight through (schedules restart per segment by design).
        def spec_kwargs(max_iter):
            return TrainingSpec(task="logreg", tolerance=1e-4,
                                max_iter=max_iter, step_size="constant:0.1",
                                seed=0)

        first = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), spec_kwargs(10)
        )
        resumed = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), spec_kwargs(10),
            initial_weights=first.weights,
        )
        full = execute_plan(
            fresh_engine(spec), dataset, GDPlan("bgd"), spec_kwargs(20)
        )
        # 10 + 10 resumed iterations land where 20 straight ones do.
        assert np.allclose(resumed.weights, full.weights)
        # The caller's array is copied, not aliased.
        first.weights[:] = 0.0
        assert np.any(resumed.weights != 0)

    def test_initial_weights_shape_mismatch_raises(
        self, spec, dataset, training
    ):
        with pytest.raises(PlanError):
            execute_plan(
                fresh_engine(spec), dataset, GDPlan("bgd"), training,
                initial_weights=np.zeros(dataset.stats.d + 1),
            )


def feed(monitor, deltas, per_iteration_s=1.0):
    """Push a synthetic delta sequence through a monitor."""
    stopped = None
    for i, delta in enumerate(deltas, start=1):
        if monitor.on_iteration(i, delta, i * per_iteration_s):
            stopped = i
            break
    return stopped


class TestConvergenceMonitor:
    def settings(self, **overrides):
        base = dict(refit_every=5, min_points=5, divergence_factor=2.0,
                    cost_divergence_factor=2.0)
        base.update(overrides)
        return AdaptiveSettings(**base)

    def test_accurate_curve_does_not_trigger(self):
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=curve,
            predicted_iterations=1000,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        # Observed errors exactly on the speculated curve, cost as
        # predicted: nothing fires in 100 iterations.
        deltas = [1.0 / i for i in range(1, 101)]
        assert feed(monitor, deltas) is None
        assert not monitor.diverged

    def test_mis_speculated_curve_triggers(self):
        # Speculation promised 1/i decay; reality is stuck at ~0.5.
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=curve,
            predicted_iterations=1000,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        stopped = feed(monitor, [0.5] * 100)
        assert stopped is not None
        assert monitor.diverged
        assert monitor.curve_diverged
        assert "speculated curve" in monitor.reason

    def test_iteration_overrun_triggers(self):
        # Degenerate but confident curve; T(eps) said 10 iterations.
        curve = FittedCurve("inverse", (0.05,), 0.99, 50)
        monitor = ConvergenceMonitor(
            target_tolerance=5e-3,
            speculated_curve=curve,
            predicted_iterations=10,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        # Errors follow the promised curve closely enough not to fire the
        # error-space check, yet convergence never happens.
        stopped = feed(monitor, [0.05 / i for i in range(1, 101)])
        assert stopped is not None
        assert stopped > 2 * 10
        assert monitor.curve_diverged
        assert "past the speculated" in monitor.reason

    def test_cost_divergence_triggers_without_curve(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=None,
            predicted_iterations=None,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        # Observed 4 s/iteration vs predicted 1 s.
        stopped = feed(monitor, [1.0 / i for i in range(1, 101)],
                       per_iteration_s=4.0)
        assert stopped is not None
        assert monitor.diverged
        assert not monitor.curve_diverged
        assert "cost" in monitor.reason

    def test_accurate_cost_does_not_trigger(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=None,
            predicted_iterations=None,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        assert feed(monitor, [1.0 / i for i in range(1, 101)]) is None

    def test_min_points_gate(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=None,
            predicted_iterations=None,
            predicted_per_iteration_s=1.0,
            settings=self.settings(min_points=50),
        )
        # Diverged cost, but fewer than min_points observations.
        assert feed(monitor, [0.5] * 40, per_iteration_s=10.0) is None

    def test_lease_iterations_preempt_on_every_iteration(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3, settings=self.settings(min_points=50),
            lease_iterations=3,
        )
        # No refit is due, yet the budget stops iteration 3.
        assert feed(monitor, [0.5] * 40) == 3
        assert monitor.preempted and not monitor.diverged

    def test_lease_deadline_and_a_divergence_on_one_iteration(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3, predicted_per_iteration_s=1.0,
            settings=self.settings(), lease_deadline=0.0,
        )
        assert feed(monitor, [0.5] * 40, per_iteration_s=10.0) == 1
        assert monitor.preempted and not monitor.diverged
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3, predicted_per_iteration_s=1.0,
            settings=self.settings(), lease_iterations=5,
        )
        # Iteration 5 both diverges and spends the lease: both are said.
        assert feed(monitor, [0.5] * 40, per_iteration_s=10.0) == 5
        assert monitor.preempted and monitor.diverged

    def test_noisy_refit_is_discarded(self):
        curve = FittedCurve("inverse", (1.0,), 0.99, 50)
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=curve,
            predicted_iterations=10,
            predicted_per_iteration_s=1.0,
            settings=self.settings(),
        )
        rng = np.random.default_rng(0)
        # Pure noise: overrun fires eventually, but the garbage refit
        # must not be kept as a trusted curve.
        feed(monitor, list(rng.uniform(0.3, 0.7, size=100)))
        assert monitor.diverged
        assert monitor.refit_curve is None or \
            monitor.refit_curve.r2 >= monitor.settings.min_refit_r2


class TestMonitorIterationOffset:
    """Post-switch segments compare the error-space check at the global
    iteration, not the segment-local one (the speculated curve describes
    decay from scratch)."""

    def monitor(self, offset):
        # error(i) = 2/i^3 reaches the 1e-3 target around i = 13.
        curve = FittedCurve("power", (2.0, 3.0), 0.99, 50)
        return ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=curve,
            predicted_iterations=1000,
            predicted_per_iteration_s=1.0,
            settings=AdaptiveSettings(refit_every=8, min_points=8,
                                      divergence_factor=2.0),
            iteration_offset=offset,
        )

    def test_segment_local_indices_fire_spuriously(self):
        # Healthy post-switch plateau just above target: comparing it
        # against the from-scratch curve at *local* indices calls it a
        # 2x+ miss.  This is the pre-fix behaviour (offset 0 is correct
        # only for a first segment, which genuinely starts at scratch).
        stopped = feed(self.monitor(0), [3e-3] * 16)
        assert stopped == 16

    def test_global_indices_do_not_fire(self):
        # Offset by the 40 iterations already completed, the curve has
        # decayed below the target at every compared position; the
        # error-space check correctly stands down (the overrun check
        # owns the endgame).
        monitor = self.monitor(40)
        assert feed(monitor, [3e-3] * 40) is None
        assert not monitor.diverged

    def test_offset_does_not_blind_the_overrun_check(self):
        monitor = ConvergenceMonitor(
            target_tolerance=1e-3,
            speculated_curve=FittedCurve("power", (2.0, 3.0), 0.99, 50),
            predicted_iterations=10,   # remaining-budget prediction
            predicted_per_iteration_s=1.0,
            settings=AdaptiveSettings(refit_every=8, min_points=8,
                                      divergence_factor=2.0),
            iteration_offset=40,
        )
        stopped = feed(monitor, [3e-3] * 64)
        assert stopped is not None
        assert monitor.curve_diverged
        assert "past the speculated" in monitor.reason


class TestTraceForwardCompatibility:
    """Traces written by a newer format must load on older-shaped
    readers: unknown keys are ignored, not TypeErrors."""

    def segment_payload(self):
        return dict(
            plan="SGD-lazy-shuffle", algorithm="sgd",
            predicted_iterations=100, predicted_per_iteration_s=0.1,
            predicted_total_s=10.0, iterations=50, sim_seconds=5.0,
        )

    def test_plan_segment_tolerates_unknown_keys(self):
        from repro.runtime import PlanSegment

        payload = self.segment_payload()
        payload["a_future_field"] = {"nested": [1, 2]}
        segment = PlanSegment.from_dict(payload)
        assert segment.plan == "SGD-lazy-shuffle"
        assert segment.iterations == 50

    def test_plan_segment_drops_the_state_older_writers_stored(self):
        from repro.runtime import PlanSegment

        payload = self.segment_payload()
        payload["state"] = {"state_format": 2, "iteration_offset": 50}
        segment = PlanSegment.from_dict(payload)
        assert segment.iterations == 50
        assert "state" not in segment.to_dict()

    def test_switch_event_tolerates_unknown_keys(self):
        from repro.runtime import SwitchEvent

        event = SwitchEvent.from_dict({
            "iteration": 40, "from_plan": "a", "to_plan": "b",
            "reason": "because", "clock": 1.0,
            "carried_state_summary": "whatever a v3 writer adds",
        })
        assert event.iteration == 40

    def test_trace_round_trip_carries_format_and_state(self, spec,
                                                       dataset, training):
        from repro.runtime import TRACE_FORMAT, ExecutionTrace
        import json

        engine = fresh_engine(spec)
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        from repro.runtime import segment_from_result
        from repro.core.result import PlanCostEstimate

        estimate = PlanCostEstimate(
            plan=GDPlan("bgd"), estimated_iterations=10, one_time_s=1.0,
            per_iteration_s=0.1, total_s=2.0, breakdown={},
        )
        trace = ExecutionTrace(workload="w", cluster_signature="c",
                               tolerance=1e-3)
        trace.segments.append(segment_from_result(
            result, estimate, state_transfer=["offset carried"],
        ))
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["trace_format"] == TRACE_FORMAT
        # The state is stored once, by the checkpoint, not per segment.
        assert "state" not in payload["segments"][0]
        restored = ExecutionTrace.from_dict(payload)
        assert restored.segments[0].iterations == result.iterations
        assert restored.segments[0].state_transfer == ["offset carried"]
