"""The trial memo: Algorithm 1's trial never reads the target tolerance.

* exactness: an estimate cut from a memoised trial equals the one a
  fresh trial gives, field by field, for every algorithm, layout, task,
  target tolerance and iteration cap;
* keying: only what a trial reads separates two memo entries;
* what is never kept (budget stops) and what is (a divergence, a trace
  whose fit failed);
* the lane: two passes missing the same trial run it once, a pass that
  hits everything does not queue;
* the byte bound; and the sharing cases that used to be in-pass
  bookkeeping (MGD at a batch covering D' *is* BGD).

Nothing here sleeps: ordering comes from Events, counts from a spy on
``gd_registry.run``.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core import iterations
from repro.core.iterations import (
    SpeculationSettings,
    SpeculativeEstimator,
    TrialMemo,
)
from repro.core.optimizer import GDOptimizer
from repro.core.plans import TrainingSpec
from repro.errors import EstimationError
from repro.gd import registry as gd_registry
from repro.gd.gradients import task_gradient
from repro.obs import TraceRecorder
from repro.service import OptimizerService
from repro.service.frontend import Dispatcher
from repro.service.metrics import MetricsRegistry

from support import BlockingGradient, SpyLane, make_dataset

ALGORITHMS = tuple(gd_registry.ALGORITHMS)
TASKS = ("logreg", "linreg", "svm")
LAYOUTS = pytest.mark.parametrize(
    "sparse", (False, True), ids=("dense", "csr")
)
TARGETS = (0.5, 5e-2, 1e-2, 1e-3)
MAX_ITERS = (500, 2000)
#: Trials of 200 rows that end on e_s, on the cap or diverged, in ms.
SETTINGS = SpeculationSettings(sample_size=200, time_budget_s=60.0,
                               max_speculation_iters=300)
#: The same trials fitted with another curve family.
INVERSE = dataclasses.replace(SETTINGS, model="inverse")
SPEC = ClusterSpec(jitter_sigma=0.0)


def make_estimator(memo=None, settings=SETTINGS, **kwargs):
    return SpeculativeEstimator(
        settings, seed=5, memo=memo,
        context=None if memo is None else "one workload", **kwargs,
    )


def dataset_for(task="logreg", sparse=False, seed=9):
    return make_dataset(n_phys=600, d=12, task=task, sparse=sparse,
                        seed=seed, spec=SPEC)


def workload(task="logreg", sparse=False):
    dataset = dataset_for(task, sparse)
    return dataset.X, dataset.y, task_gradient(task)


def make_service(**kwargs):
    kwargs.setdefault("speculation", SETTINGS)
    return OptimizerService(spec=SPEC, seed=5, **kwargs)


def record(run):
    """An estimate, or the text of its EstimationError, as comparable
    fields (everything but the wall clock)."""
    try:
        estimate = run()
    except EstimationError as exc:
        return {"error": str(exc)}
    fields = dataclasses.asdict(estimate)
    del fields["speculation_wall_s"]
    fields["speculation_errors"] = estimate.speculation_errors.tolist()
    return fields


def speculation_spans(recorder, trace_id):
    """{algorithm: attributes} of one trace's ``speculation`` spans."""
    return {
        s["attributes"]["algorithm"]: s["attributes"]
        for s in recorder.spans(trace_id)
        if s["name"] == "speculation"
    }


@pytest.fixture
def ran(monkeypatch):
    """Names of the algorithms whose GD trial actually ran, in order."""
    names = []
    real_run = gd_registry.run
    monkeypatch.setattr(
        gd_registry, "run",
        lambda name, *a, **k: names.append(name) or real_run(name, *a, **k),
    )
    return names


# ----------------------------------------------------------------------
# (a) exactness
# ----------------------------------------------------------------------
@LAYOUTS
@pytest.mark.parametrize("task", TASKS)
class TestExactness:
    def test_estimate_from_the_memo_equals_a_fresh_trial(
        self, task, sparse, ran
    ):
        X, y, gradient = workload(task, sparse)
        warm = make_estimator(TrialMemo())
        warm.estimate_all(X, y, gradient, 0.03, algorithms=ALGORITHMS,
                          on_error="skip")
        first_touch = len(ran)
        outcomes = set()
        for target in TARGETS:
            for algorithm in ALGORITHMS:
                served = record(lambda: warm.estimate_all(
                    X, y, gradient, target, algorithms=(algorithm,)
                )[algorithm])
                assert len(ran) == first_touch, (algorithm, target)
                fresh = record(lambda: make_estimator().estimate_all(
                    X, y, gradient, target, algorithms=(algorithm,)
                )[algorithm])
                first_touch = len(ran)
                assert served == fresh, (algorithm, target)
                outcomes.add(
                    "error" if "error" in served
                    else "observed" if served["observed_directly"]
                    else "fitted"
                )
        # The matrix is not vacuous: it holds both kinds of estimate.
        assert {"observed", "fitted"} <= outcomes

    def test_report_from_the_memo_equals_a_first_touch(self, task, sparse):
        dataset = dataset_for(task, sparse)
        service = make_service(algorithms=ALGORITHMS)
        service.optimize(dataset, TrainingSpec(task=task, tolerance=0.03))
        for target in TARGETS:
            for max_iter in MAX_ITERS:
                training = TrainingSpec(task=task, tolerance=target,
                                        max_iter=max_iter)
                served = service.optimize(dataset, training)
                assert not served.cache_hit
                fresh = GDOptimizer(
                    SimulatedCluster(SPEC, seed=5),
                    estimator=make_estimator(), algorithms=ALGORITHMS,
                ).optimize(dataset, training)
                assert list(served.report.iteration_estimates) == \
                    list(fresh.iteration_estimates)
                for algorithm, estimate in \
                        served.report.iteration_estimates.items():
                    assert estimate.speculation_wall_s == 0.0
                    assert record(lambda: estimate) == record(
                        lambda: fresh.iteration_estimates[algorithm]
                    ), (algorithm, target)
                assert [
                    (str(c.plan), c.estimated_iterations, c.total_s,
                     c.feasible)
                    for c in served.report.candidates
                ] == [
                    (str(c.plan), c.estimated_iterations, c.total_s,
                     c.feasible)
                    for c in fresh.candidates
                ]
                assert str(served.chosen_plan) == str(fresh.chosen_plan)


def test_first_touch_runs_the_parents_trials_in_the_parents_order(ran):
    X, y, gradient = workload()
    make_estimator(TrialMemo()).estimate_all(
        X, y, gradient, 1e-3, algorithms=ALGORITHMS, on_error="skip"
    )
    # MGD's default batch covers all of D': it reads BGD's entry.
    assert ran == [a for a in ALGORITHMS if a != "mgd"]


def test_trial_gets_no_target(monkeypatch):
    X, y, gradient = workload()
    seen = []
    real_run = gd_registry.run
    monkeypatch.setattr(
        gd_registry, "run",
        lambda *a, **k: seen.append(k["tolerance"]) or real_run(*a, **k),
    )
    make_estimator().estimate(X, y, gradient, "bgd", 1e-3)
    assert seen == [0.0]


# ----------------------------------------------------------------------
# (b) keying
# ----------------------------------------------------------------------
class TestKeying:
    def test_one_trial_per_trial_key_over_many_requests(self, ran):
        dataset = dataset_for()
        service = make_service()
        requests = [
            dict(tolerance=1e-2),
            dict(tolerance=1e-3),
            dict(tolerance=0.2, max_iter=77),
            dict(tolerance=1e-2, max_iter=500),
            dict(tolerance=1e-2, time_budget_s=1e6),
        ]
        for request in requests:
            result = service.optimize(
                dataset, TrainingSpec(task="logreg", **request)
            )
            assert not result.cache_hit
        for subset in (("sgd",), ("mgd", "bgd")):
            service.optimize(
                dataset, TrainingSpec(task="logreg", tolerance=4e-3),
                algorithms=subset,
            )
        assert sorted(ran) == ["bgd", "sgd"]
        assert service.metrics.value("service.computed") == len(requests) + 2
        assert service.metrics.value("speculation.memo.misses") == 2
        assert service.metrics.value("speculation.memo.hits") == \
            3 * len(requests) + 3 - 2

    def test_a_genuine_minibatch_is_another_trial(self, ran):
        dataset = dataset_for()
        service = make_service()
        training = TrainingSpec(task="logreg", tolerance=1e-2)
        service.optimize(dataset, training)
        service.optimize(dataset, training, batch_sizes={"mgd": 32})
        assert ran == ["bgd", "sgd", "mgd"]

    @pytest.mark.parametrize("change", (
        dict(l2=0.1),
        dict(step_size=0.5),
        dict(step_size="constant:0.1"),
        dict(convergence="l2"),
    ), ids=lambda change: next(iter(change)))
    def test_what_a_trial_reads_misses(self, change, ran):
        dataset = dataset_for()
        service = make_service()
        service.optimize(dataset, TrainingSpec(task="logreg"))
        assert ran == ["bgd", "sgd"]
        service.optimize(dataset, TrainingSpec(task="logreg", **change))
        assert ran == ["bgd", "sgd"] * 2

    def test_other_data_misses(self, ran):
        service = make_service()
        training = TrainingSpec(task="logreg")
        service.optimize(dataset_for(seed=9), training)
        service.optimize(dataset_for(seed=10), training)
        assert ran == ["bgd", "sgd"] * 2

    def test_other_seed_or_settings_miss_in_a_shared_memo(self, ran):
        dataset = dataset_for()
        training = TrainingSpec(task="logreg")
        service = make_service()
        service.optimize(dataset, training)
        others = [
            OptimizerService(spec=SPEC, seed=6, speculation=SETTINGS),
            make_service(speculation=dataclasses.replace(
                SETTINGS, speculation_tolerance=0.04)),
            make_service(speculation=dataclasses.replace(
                SETTINGS, max_speculation_iters=299)),
            make_service(speculation=dataclasses.replace(
                SETTINGS, sample_size=199)),
            make_service(speculation=dataclasses.replace(
                SETTINGS, time_budget_s=59.0)),
        ]
        for other in others:
            other.trials = service.trials
            other.optimize(dataset, training)
        assert ran == ["bgd", "sgd"] * (1 + len(others))
        # The curve family and the cluster only re-fit and re-price.
        for other in (
            make_service(speculation=dataclasses.replace(
                SETTINGS, model="inverse")),
            OptimizerService(spec=ClusterSpec(jitter_sigma=0.0, n_nodes=2),
                             seed=5, speculation=SETTINGS),
        ):
            other.trials = service.trials
            other.optimize(dataset, training)
        assert len(ran) == 2 * (1 + len(others))

    def test_fixed_iterations_and_recosts_never_touch_the_memo(self, ran):
        dataset = dataset_for()
        service = make_service()
        service.optimize(dataset, TrainingSpec(task="logreg"),
                         fixed_iterations=50)
        assert len(service.trials) == 0 and ran == []

    def test_a_memo_needs_its_context(self):
        with pytest.raises(ValueError, match="both or neither"):
            SpeculativeEstimator(memo=TrialMemo())
        with pytest.raises(ValueError, match="both or neither"):
            SpeculativeEstimator(context="digest")


# ----------------------------------------------------------------------
# (c) what is kept
# ----------------------------------------------------------------------
class TestWhatIsKept:
    def test_budget_stopped_trial_runs_every_time(self, monkeypatch, ran):
        X, y, gradient = workload()
        # e_s is out of reach and the cap far away: only the wall-clock
        # budget (every look at the clock costs 10 ms) ends the trial.
        settings = SpeculationSettings(
            sample_size=200, speculation_tolerance=1e-12,
            time_budget_s=1.0, max_speculation_iters=100_000,
        )
        clock = [0.0]

        def tick():
            clock[0] += 0.01
            return clock[0]

        monkeypatch.setattr(time, "perf_counter", tick)
        memo = TrialMemo()
        estimator = make_estimator(memo, settings)
        for _ in range(2):
            [estimate] = estimator.estimate_all(
                X, y, gradient, 1e-3, algorithms=("bgd",)
            ).values()
            assert 5 <= estimate.speculation_iterations < 200
        assert ran == ["bgd", "bgd"]
        assert len(memo) == 0

    def test_divergence_is_run_once_and_raised_again(self, ran):
        dataset = dataset_for("linreg")
        # Features scaled far past the step size's stability limit.
        X, y, gradient = dataset.X * 50.0, dataset.y, task_gradient("linreg")
        estimator = make_estimator(TrialMemo())
        texts = []
        for target in (1e-3, 0.5):
            with pytest.raises(EstimationError, match="diverged") as raised:
                estimator.estimate_all(X, y, gradient, target,
                                       algorithms=("bgd",))
            texts.append(str(raised.value))
        assert ran == ["bgd"]
        assert texts[0] == texts[1]
        with pytest.raises(EstimationError, match="diverged") as fresh:
            make_estimator().estimate(X, y, gradient, "bgd", 1e-3)
        assert str(fresh.value) == texts[0]
        # A sharer is told about its own trial, as if it had run it.
        del ran[:]
        with pytest.raises(EstimationError,
                           match="speculation for mgd diverged"):
            estimator.estimate_all(X, y, gradient, 1e-3, algorithms=("mgd",))
        assert ran == []

    def test_failed_fit_keeps_the_trace(self, monkeypatch, ran):
        X, y, gradient = workload()
        fits = []

        def no_fit(errors, model="inverse"):
            fits.append(model)
            raise EstimationError("this family does not fit")

        monkeypatch.setattr(iterations, "fit_error_sequence", no_fit)
        estimator = make_estimator(TrialMemo())
        for _ in range(2):
            with pytest.raises(EstimationError, match="does not fit"):
                estimator.estimate_all(X, y, gradient, 1e-3,
                                       algorithms=("bgd",))
        # A larger target is read off the trace; it never needs the fit.
        [estimate] = estimator.estimate_all(
            X, y, gradient, 0.5, algorithms=("bgd",)
        ).values()
        assert estimate.observed_directly
        assert estimate.curve.model == "inverse"     # the placeholder
        assert ran == ["bgd"]
        assert fits == ["power"]                     # failed once, kept


# ----------------------------------------------------------------------
# (d) the lane
# ----------------------------------------------------------------------
class TestLane:
    def test_two_passes_missing_one_trial_run_it_once(self, monkeypatch):
        lane = SpyLane()
        monkeypatch.setattr(iterations, "_LANE", lane)
        X, y, _ = workload()
        gradient = BlockingGradient("logreg")
        runs = []
        real_run = gd_registry.run
        monkeypatch.setattr(
            gd_registry, "run",
            lambda name, *a, **k: runs.append(name) or real_run(
                name, *a, **k),
        )
        memo = TrialMemo()
        results = {}

        def request(name, target):
            results[name] = make_estimator(memo).estimate_all(
                X, y, gradient, target
            )

        first = threading.Thread(target=request, args=("first", 1e-3))
        second = threading.Thread(target=request, args=("second", 1e-2))
        first.start()
        assert lane.attempts.acquire(timeout=60)
        assert gradient.entered.wait(60)     # first holds the lane, mid-trial
        second.start()
        assert lane.attempts.acquire(timeout=60)  # second missed, queues
        gradient.release.set()
        first.join(60)
        second.join(60)
        assert not first.is_alive() and not second.is_alive()
        assert runs == ["bgd", "sgd"]
        assert gradient.max_active == 1
        for algorithm, estimate in results["first"].items():
            np.testing.assert_array_equal(
                estimate.speculation_errors,
                results["second"][algorithm].speculation_errors,
            )
            assert results["second"][algorithm].speculation_wall_s == 0.0

    def test_all_hit_pass_does_not_queue(self):
        X, y, gradient = workload()
        memo = TrialMemo()
        metrics = MetricsRegistry()
        recorder = TraceRecorder()
        make_estimator(memo).estimate_all(X, y, gradient, 1e-3)
        done = []

        def request():
            with recorder.trace("request") as root:
                make_estimator(memo, metrics=metrics).estimate_all(
                    X, y, gradient, 1e-2
                )
            done.append(root.trace_id)

        thread = threading.Thread(target=request)
        assert iterations._LANE.acquire(timeout=60)
        try:
            thread.start()
            thread.join(60)
            assert not thread.is_alive()
        finally:
            iterations._LANE.release()
        trials = speculation_spans(recorder, done[0])
        assert {a["memo"] for a in trials.values()} == {"hit"}
        assert len(trials) == 3
        assert "speculation_wait" not in {
            s["name"] for s in recorder.spans(done[0])
        }
        assert metrics.histogram_stats("speculation.lane_wait_s") is None
        assert metrics.value("speculation.memo.hits") == 3

    def test_all_hit_pass_draws_no_sample(self, monkeypatch):
        X, y, gradient = workload()
        memo = TrialMemo()
        make_estimator(memo).estimate_all(X, y, gradient, 1e-3)
        monkeypatch.setattr(
            SpeculativeEstimator, "take_sample",
            lambda *a, **k: pytest.fail("an all-hit pass drew D'"),
        )
        assert set(make_estimator(memo).estimate_all(
            X, y, gradient, 1e-2
        )) == {"bgd", "mgd", "sgd"}

    def test_missing_pass_draws_one_sample(self, monkeypatch):
        X, y, gradient = workload()
        draws = []
        real = SpeculativeEstimator.take_sample
        monkeypatch.setattr(
            SpeculativeEstimator, "take_sample",
            lambda self, *a, **k: draws.append(1) or real(self, *a, **k),
        )
        make_estimator(TrialMemo()).estimate_all(
            X, y, gradient, 1e-3, algorithms=ALGORITHMS, on_error="skip"
        )
        assert draws == [1]


# ----------------------------------------------------------------------
# (e) the bound
# ----------------------------------------------------------------------
class TestBound:
    def test_least_recently_used_trials_go_first(self, monkeypatch, ran):
        X, y, gradient = workload()
        metrics = MetricsRegistry()
        memo = TrialMemo(metrics=metrics)
        estimator = make_estimator(memo)
        algorithms = ("bgd", "sgd", "momentum")
        before = estimator.estimate_all(X, y, gradient, 1e-3,
                                        algorithms=algorithms)
        assert len(memo) == 3
        held = metrics.gauge_value("speculation.memo.bytes")
        # A trial is charged its (iteration, error) table, which every
        # estimate cut from it reports.
        assert held == sum(
            e.speculation_errors.nbytes + iterations._MEMO_ENTRY_BYTES
            for e in before.values()
        )
        # One byte short of room for one more trial.
        adam = make_estimator().estimate(X, y, gradient, "adam", 1e-3)
        limit = held + adam.speculation_errors.nbytes \
            + iterations._MEMO_ENTRY_BYTES - 1
        monkeypatch.setattr(iterations, "_MEMO_MAX_BYTES", limit)
        estimator.estimate_all(X, y, gradient, 1e-3, algorithms=("bgd",))
        del ran[:]
        estimator.estimate_all(X, y, gradient, 1e-3, algorithms=("adam",))
        assert ran == ["adam"]
        assert metrics.value("speculation.memo.evictions") == 1
        assert metrics.gauge_value("speculation.memo.bytes") <= limit
        assert metrics.gauge_value("speculation.memo.entries") == len(memo)
        # SGD was the least recently used: gone; BGD was just read: kept.
        del ran[:]
        again = estimator.estimate_all(X, y, gradient, 1e-3,
                                       algorithms=("bgd", "sgd"))
        assert ran == ["sgd"]
        assert record(lambda: again["sgd"]) == record(lambda: before["sgd"])

    def test_stored_arrays_are_read_only(self):
        X, y, gradient = workload()
        memo = TrialMemo()
        estimates = make_estimator(memo).estimate_all(X, y, gradient, 1e-3)
        for trial in memo._trials.values():
            assert not trial.errors.flags.writeable
            with pytest.raises(ValueError):
                trial.errors[0] = 0.0
        # An estimate reports its trial's observations: a write to them
        # raises, so it reaches neither the memo nor the next request.
        with pytest.raises(ValueError):
            estimates["bgd"].speculation_errors[:] = -1.0
        again = make_estimator(memo).estimate_all(X, y, gradient, 1e-3)
        assert again["bgd"].speculation_errors is \
            estimates["bgd"].speculation_errors
        assert (again["bgd"].speculation_errors[:, 1] > 0).all()


# ----------------------------------------------------------------------
# (f) sharing is a hit on the same trial_key
# ----------------------------------------------------------------------
class TestSharing:
    def test_mgd_is_bgd_on_a_1000_row_sample(self, ran):
        dataset = make_dataset(n_phys=3000, d=12, task="logreg", seed=9)
        recorder = TraceRecorder()
        estimator = SpeculativeEstimator(
            SpeculationSettings(max_speculation_iters=60), seed=5,
        )
        with recorder.trace("request") as root:
            estimates = estimator.estimate_all(
                dataset.X, dataset.y, task_gradient("logreg"), 1e-3,
                algorithms=("bgd", "mgd", "sgd"),
            )
        assert ran == ["bgd", "sgd"]
        assert estimates["mgd"].algorithm == "mgd"
        assert estimates["mgd"].speculation_wall_s == 0.0
        assert estimates["bgd"].speculation_wall_s > 0.0
        assert estimates["mgd"].estimated_iterations == \
            estimates["bgd"].estimated_iterations
        trials = speculation_spans(recorder, root.trace_id)
        assert trials["mgd"]["shared_with"] == "bgd"
        assert trials["mgd"]["memo"] == "hit"
        assert trials["bgd"]["memo"] == trials["sgd"]["memo"] == "miss"
        assert "shared_with" not in trials["bgd"]
        assert "shared_with" not in trials["sgd"]

    def test_a_later_request_for_the_same_algorithm_shares_with_nobody(self):
        X, y, gradient = workload()
        memo = TrialMemo()
        make_estimator(memo).estimate_all(X, y, gradient, 1e-3)
        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            make_estimator(memo).estimate_all(X, y, gradient, 1e-2)
        trials = speculation_spans(recorder, root.trace_id)
        assert "shared_with" not in trials["bgd"]
        assert trials["mgd"]["shared_with"] == "bgd"

    def test_sharer_gets_its_own_fit(self, ran):
        X, y, gradient = workload()
        memo = TrialMemo()
        [bgd] = make_estimator(memo).estimate_all(
            X, y, gradient, 1e-3, algorithms=("bgd",)).values()
        [mgd] = make_estimator(memo, INVERSE).estimate_all(
            X, y, gradient, 1e-3, algorithms=("mgd",)).values()
        assert ran == ["bgd"]
        assert bgd.curve.model == "power"
        assert mgd.curve.model == "inverse"
        # One trial, so one read-only table of observations.
        assert mgd.speculation_errors is bgd.speculation_errors
        assert not mgd.speculation_errors.flags.writeable

    def test_first_algorithms_failed_fit_does_not_poison_the_sharer(
        self, monkeypatch, ran
    ):
        X, y, gradient = workload()
        real_fit = iterations.fit_error_sequence

        def no_power_fit(errors, model="inverse"):
            if model == "power":
                raise EstimationError("no power law here")
            return real_fit(errors, model=model)

        monkeypatch.setattr(iterations, "fit_error_sequence", no_power_fit)
        memo = TrialMemo()
        with pytest.raises(EstimationError, match="no power law"):
            make_estimator(memo).estimate_all(X, y, gradient, 1e-3,
                                              algorithms=("bgd",))
        estimates = make_estimator(memo, INVERSE).estimate_all(
            X, y, gradient, 1e-3, algorithms=("mgd",))
        assert ran == ["bgd"]
        assert estimates["mgd"].curve.model == "inverse"


# ----------------------------------------------------------------------
# satellites: the report curve's family, observability
# ----------------------------------------------------------------------
def test_observed_directly_reports_the_algorithms_own_family():
    X, y, gradient = workload()
    exponential = dataclasses.replace(SETTINGS, model="exponential")
    for settings, family in ((SETTINGS, "power"),
                             (exponential, "exponential")):
        [estimate] = make_estimator(settings=settings).estimate_all(
            X, y, gradient, 0.5, algorithms=("bgd",)).values()
        assert estimate.observed_directly
        assert estimate.curve.model == family


class TestObservability:
    def test_counters_and_gauges_reach_the_metrics_verb(self):
        from repro.api import ML4all

        dispatcher = Dispatcher(ML4all(seed=7, speculation=SETTINGS))
        for line in ("adult epsilon=0.01", "adult epsilon=0.02 max_iter=99"):
            assert dispatcher.handle_line(line)["ok"]
        response = dispatcher.handle_line("metrics")
        counters = response["metrics"]["counters"]
        gauges = response["metrics"]["gauges"]
        assert counters["speculation.memo.misses"] == 2
        assert counters["speculation.memo.hits"] == 4
        assert "speculation.memo.evictions" not in counters
        assert gauges["speculation.memo.entries"] == 2
        assert gauges["speculation.memo.bytes"] > 0
        # A memo hit is still a computed plan, never a cache hit.
        assert counters["service.computed"] == 2
        assert "service.hits" not in counters
        for name in ("repro_speculation_memo_hits_total",
                     "repro_speculation_memo_misses_total",
                     "repro_speculation_memo_entries",
                     "repro_speculation_memo_bytes"):
            assert name in response["prometheus"]

    def test_a_request_served_from_the_memo_has_no_wait_span(self):
        from repro.api import ML4all

        dispatcher = Dispatcher(ML4all(seed=7, speculation=SETTINGS))
        first = dispatcher.handle_line("adult epsilon=0.01")
        second = dispatcher.handle_line("adult epsilon=0.02")
        spans = {
            response["trace_id"]: dispatcher.handle_line(
                f"trace {response['trace_id']}")["spans"]
            for response in (first, second)
        }
        names = [s["name"] for s in spans[first["trace_id"]]]
        assert names.count("speculation_wait") == 1
        names = [s["name"] for s in spans[second["trace_id"]]]
        assert names.count("speculation_wait") == 0
        assert names.count("speculation") == 3
        assert {s["attributes"]["memo"]
                for s in spans[second["trace_id"]]
                if s["name"] == "speculation"} == {"hit"}
        response = dispatcher.handle_line("metrics")
        assert response["metrics"]["histograms"][
            "speculation.lane_wait_s"]["count"] == 1
