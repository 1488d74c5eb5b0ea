"""The one-pass speculation contract of ``SpeculativeEstimator.estimate_all``.

* equivalence: ``estimate_all`` equals per-algorithm ``estimate`` on the
  same D', and both equal the error sequences pinned in
  ``golden/speculation_errors.json`` -- bit-for-bit where the trial's
  arithmetic is unchanged, to 1e-12 where a full-batch mini-batch trial
  now reads D' in place instead of gathering a permutation of it;
* the speculation lane admits one pass at a time, process-wide;
* full-batch selectors consume no RNG and resume bit-identically
  (which trials are the same computation, and what sharing one means,
  is ``test_speculation_memo.py``);
* a diverging trial stops early instead of burning the iteration cap.

The golden file pins the behaviour of the commit *before* the one-pass
change.  Regenerating it (``python tests/test_speculation_pass.py``)
re-pins to whatever the checked-out code does, so only do that on
purpose.
"""

import json
import pathlib
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.core import iterations
from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.errors import EstimationError
from repro.gd import registry as gd_registry
from repro.gd.base import full_batch_selector, make_minibatch_selector
from repro.gd.gradients import task_gradient
from repro.obs import TraceRecorder
from repro.service.metrics import MetricsRegistry

from support import BlockingGradient, SpyLane, make_dataset

GOLDEN = pathlib.Path(__file__).parent / "golden" / "speculation_errors.json"

ALGORITHMS = tuple(gd_registry.ALGORITHMS)
TASKS = ("logreg", "linreg", "svm")
SAMPLE = 200
TARGET = 1e-3
#: None = every algorithm's default batch (>= |D'| for the 1000-row
#: defaults, i.e. full-batch trials); 32 = genuine mini-batches.
BATCHES = (None, 32)


def make_estimator(**kwargs):
    return SpeculativeEstimator(
        SpeculationSettings(sample_size=SAMPLE, time_budget_s=60.0,
                            max_speculation_iters=40),
        seed=5, **kwargs,
    )


def workload(task, sparse):
    dataset = make_dataset(n_phys=600, d=12, task=task, sparse=sparse,
                           seed=9)
    return dataset.X, dataset.y, task_gradient(task)


def case_id(task, sparse, batch, algorithm):
    layout = "csr" if sparse else "dense"
    return f"{task}/{layout}/batch={batch}/{algorithm}"


def outcome(run):
    """An estimate (or its EstimationError) as a JSON-ready record."""
    try:
        estimate = run()
    except EstimationError:
        return {"failed": True}
    return {
        "errors": [float(e) for e in estimate.speculation_errors[:, 1]],
        "estimated_iterations": int(estimate.estimated_iterations),
        "speculation_iterations": int(estimate.speculation_iterations),
    }


def per_algorithm_outcomes(task, sparse, batch):
    """{algorithm: outcome} from one ``estimate`` call per algorithm."""
    X, y, gradient = workload(task, sparse)
    estimator = make_estimator()
    sample = estimator.take_sample(X, y)
    batch_sizes = gd_registry.batch_overrides(batch)
    return {
        algorithm: outcome(lambda: estimator.estimate(
            X, y, gradient, algorithm, TARGET,
            batch_size=batch_sizes.get(algorithm), sample=sample,
        ))
        for algorithm in ALGORITHMS
    }


def reads_sample_in_place(algorithm, batch):
    """True for a mini-batch algorithm whose batch covers all of D':
    the one class of trial whose float rounding the change may move."""
    spec = gd_registry.info(algorithm)
    key = gd_registry.trial_key(
        algorithm, SAMPLE, gd_registry.batch_overrides(batch).get(algorithm)
    )
    return (key is not None and key[0] == SAMPLE
            and spec.default_batch_size is not None)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("sparse", (False, True), ids=("dense", "csr"))
@pytest.mark.parametrize("task", TASKS)
class TestEquivalence:
    def test_estimate_all_equals_per_algorithm_estimate(
        self, task, sparse, batch
    ):
        X, y, gradient = workload(task, sparse)
        swept = make_estimator().estimate_all(
            X, y, gradient, TARGET, algorithms=ALGORITHMS,
            batch_sizes=gd_registry.batch_overrides(batch), on_error="skip",
        )
        alone = per_algorithm_outcomes(task, sparse, batch)
        assert set(swept) == {
            a for a, record in alone.items() if "failed" not in record
        }
        for algorithm, estimate in swept.items():
            assert outcome(lambda: estimate) == alone[algorithm], algorithm
            assert estimate.algorithm == algorithm

    def test_matches_the_parent_commit(self, task, sparse, batch, golden):
        for algorithm, record in per_algorithm_outcomes(
            task, sparse, batch
        ).items():
            name = case_id(task, sparse, batch, algorithm)
            pinned = golden[name]
            assert ("failed" in record) == ("failed" in pinned), name
            if "failed" in pinned:
                continue
            assert record["estimated_iterations"] == \
                pinned["estimated_iterations"], name
            assert record["speculation_iterations"] == \
                pinned["speculation_iterations"], name
            if reads_sample_in_place(algorithm, batch):
                np.testing.assert_allclose(
                    record["errors"], pinned["errors"], rtol=1e-12, atol=0,
                    err_msg=name,
                )
            else:
                assert record["errors"] == pinned["errors"], name


class TestSharedTrials:
    def test_genuine_minibatches_are_not_shared_with_full_batch(self):
        n = SAMPLE
        assert gd_registry.trial_key("mgd", n) == \
            gd_registry.trial_key("bgd", n)
        assert gd_registry.trial_key("mgd", n, 32) != \
            gd_registry.trial_key("bgd", n)
        # Different updater factories are different computations.
        assert gd_registry.trial_key("momentum", n) != \
            gd_registry.trial_key("mgd", n)
        # Fixed-batch SGD ignores the override, so it keeps its key.
        assert gd_registry.trial_key("sgd", n, 32) == \
            gd_registry.trial_key("sgd", n)


class TestLane:
    def test_one_pass_at_a_time(self, monkeypatch):
        lane = SpyLane()
        monkeypatch.setattr(iterations, "_LANE", lane)
        X, y, _ = workload("logreg", sparse=False)
        gradient = BlockingGradient("logreg")
        results = {}

        def request(name):
            results[name] = make_estimator().estimate_all(
                X, y, gradient, TARGET
            )

        first = threading.Thread(target=request, args=("first",))
        second = threading.Thread(target=request, args=("second",))
        first.start()
        assert lane.attempts.acquire(timeout=60)
        assert gradient.entered.wait(60)     # first holds the lane, mid-trial
        second.start()
        assert lane.attempts.acquire(timeout=60)  # second is at the lane
        gradient.release.set()
        first.join(60)
        second.join(60)
        assert not first.is_alive() and not second.is_alive()
        assert gradient.max_active == 1
        for algorithm, estimate in results["first"].items():
            np.testing.assert_array_equal(
                estimate.speculation_errors,
                results["second"][algorithm].speculation_errors,
            )

    def test_more_requests_than_cores_never_overlap(self):
        X, y, _ = workload("logreg", sparse=False)
        gradient = BlockingGradient("logreg")
        gradient.entered.set()               # nobody blocks: pure contention
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(
                make_estimator().estimate_all(X, y, gradient, TARGET)
            ))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gradient.max_active == 1
        assert len(results) == 6
        for other in results[1:]:
            for algorithm, estimate in results[0].items():
                np.testing.assert_array_equal(
                    estimate.speculation_errors,
                    other[algorithm].speculation_errors,
                )

    def test_wait_is_a_span_and_a_histogram(self):
        X, y, gradient = workload("logreg", sparse=False)
        metrics = MetricsRegistry()
        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            make_estimator(metrics=metrics).estimate_all(
                X, y, gradient, TARGET
            )
        names = [s["name"] for s in recorder.spans(root.trace_id)]
        assert names.count("speculation_wait") == 1
        assert metrics.histogram_stats("speculation.lane_wait_s")["count"] == 1
        assert "speculation_lane_wait_s" in metrics.render_prometheus()

    def test_lane_is_released_when_a_trial_fails(self):
        X, y, gradient = workload("logreg", sparse=False)
        with pytest.raises(EstimationError):
            make_estimator().estimate_all(X, y, gradient, target_tolerance=0)
        assert iterations._LANE.acquire(blocking=False)
        iterations._LANE.release()


class TestFullBatchSelector:
    def test_covering_batch_is_the_full_batch_selector(self):
        assert make_minibatch_selector(100, 100) is full_batch_selector
        assert make_minibatch_selector(100, 1000) is full_batch_selector
        assert make_minibatch_selector(100, 99) is not full_batch_selector
        assert gd_registry.selector_for("mgd", 100) is full_batch_selector
        assert gd_registry.selector_for("mgd", 100, 32) \
            is not full_batch_selector

    def test_consumes_no_rng(self):
        X, y, gradient = workload("logreg", sparse=False)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        gd_registry.run("mgd", X[:100], y[:100], gradient, max_iter=5,
                        rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("algorithm", ("mgd", "momentum", "adam"))
    def test_stop_and_resume_is_bit_identical(self, algorithm):
        X, y, gradient = workload("logreg", sparse=False)
        X, y = X[:100], y[:100]
        whole = gd_registry.run(algorithm, X, y, gradient, max_iter=30,
                                tolerance=0.0, rng=np.random.default_rng(1))
        head = gd_registry.run(algorithm, X, y, gradient, max_iter=12,
                               tolerance=0.0, rng=np.random.default_rng(1))
        tail = gd_registry.run(algorithm, X, y, gradient, max_iter=18,
                               tolerance=0.0, rng=np.random.default_rng(99),
                               w0=head.weights, state=head.state)
        np.testing.assert_array_equal(tail.weights, whole.weights)
        np.testing.assert_array_equal(
            np.concatenate([head.deltas, tail.deltas]), whole.deltas
        )


class CountingGradient:
    def __init__(self, task):
        self._inner = task_gradient(task)
        self.calls = 0

    def gradient(self, w, X, y):
        self.calls += 1
        return self._inner.gradient(w, X, y)


class TestDivergence:
    @pytest.mark.parametrize("algorithm", ("bgd", "svrg", "arc"))
    def test_diverging_trial_stops_early(self, algorithm):
        dataset = make_dataset(n_phys=600, d=12, task="linreg", seed=9)
        # Features scaled far past the step size's stability limit.
        X, y = dataset.X * 50.0, dataset.y
        gradient = CountingGradient("linreg")
        estimator = SpeculativeEstimator(
            SpeculationSettings(sample_size=SAMPLE, time_budget_s=60.0),
            seed=5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no overflow RuntimeWarning
            with pytest.raises(EstimationError, match="diverged"):
                estimator.estimate(X, y, gradient, algorithm, TARGET)
        cap = estimator.settings.max_speculation_iters
        assert gradient.calls < cap // 5


if __name__ == "__main__":
    records = {}
    for task in TASKS:
        for sparse in (False, True):
            for batch in BATCHES:
                for algorithm, record in per_algorithm_outcomes(
                    task, sparse, batch
                ).items():
                    records[case_id(task, sparse, batch, algorithm)] = record
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(     # one case per line
        f"{json.dumps(name)}: {json.dumps(record, sort_keys=True)}"
        for name, record in sorted(records.items())
    ) + "\n}\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
