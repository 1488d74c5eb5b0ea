"""CalibrationStore: learning, persistence, and the optimizer loop."""

import dataclasses

import pytest

from repro.api import ML4all
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core.cost_model import CostModel
from repro.core.optimizer import GDOptimizer
from repro.core.plans import TrainingSpec
from repro.errors import ReproError
from repro.runtime import (
    AdaptiveTrainer,
    CalibrationStore,
    Correction,
    PerturbedCostModel,
    PlanSegment,
    cluster_signature,
    workload_signature,
)
from repro.runtime import calibration
from repro.runtime.calibration import MAX_FACTOR, MIN_WORKLOAD_OBSERVATIONS
from repro.service import OptimizerService

from support import make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(n_phys=400, d=10, task="logreg", spec=spec, seed=3)


def segment(algorithm="bgd", predicted_per_iter=1.0, observed_per_iter=2.0,
            iterations=20, predicted_iterations=20, converged=True):
    return PlanSegment(
        plan=algorithm.upper(),
        algorithm=algorithm,
        predicted_iterations=predicted_iterations,
        predicted_per_iteration_s=predicted_per_iter,
        predicted_total_s=predicted_per_iter * predicted_iterations,
        iterations=iterations,
        sim_seconds=observed_per_iter * iterations,
        converged=converged,
    )


class TestStore:
    def test_identity_until_observed(self, spec):
        store = CalibrationStore()
        correction = store.correction("bgd", spec)
        assert correction.is_identity
        assert correction.cost_factor == 1.0
        assert correction.iterations_factor == 1.0
        assert store.version == 0

    def test_first_observation_replaces_the_prior(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=4.0)
        assert store.correction("bgd", spec).cost_factor == pytest.approx(4.0)

    def test_later_observations_are_smoothed(self, spec):
        store = CalibrationStore(alpha=0.5)
        store.observe("bgd", spec, cost_ratio=4.0)
        store.observe("bgd", spec, cost_ratio=2.0)
        assert store.correction("bgd", spec).cost_factor == pytest.approx(3.0)

    def test_ratios_are_clamped(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=1e9)
        assert store.correction("bgd", spec).cost_factor == MAX_FACTOR

    def test_fields_observed_independently(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        c = store.correction("bgd", spec)
        assert c.cost_observations == 1
        assert c.iterations_observations == 0
        assert c.iterations_factor == 1.0
        store.observe("bgd", spec, iterations_ratio=3.0)
        c = store.correction("bgd", spec)
        assert c.iterations_factor == pytest.approx(3.0)
        assert c.cost_factor == pytest.approx(2.0)

    def test_version_increments_per_update(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        store.observe("mgd", spec, cost_ratio=2.0)
        assert store.version == 2
        # A no-information observation does not bump the version.
        store.observe("sgd", spec)
        assert store.version == 2

    def test_keys_are_per_cluster(self, spec):
        store = CalibrationStore()
        other = spec.with_overrides(n_nodes=8)
        assert cluster_signature(spec) != cluster_signature(other)
        store.observe("bgd", spec, cost_ratio=2.0)
        assert store.correction("bgd", other).is_identity
        assert set(store.corrections_for(spec)) == {"bgd"}
        assert store.corrections_for(other) == {}


class TestTwoLevelKeys:
    """Workload-specific corrections with algorithm-level fallback."""

    def workloads(self, spec):
        from repro.cluster.storage import DatasetStats
        from repro.runtime import workload_signature

        a = DatasetStats(name="a", task="logreg", n=1000, d=10)
        b = DatasetStats(name="b", task="logreg", n=5000, d=40)
        assert workload_signature(a) != workload_signature(b)
        return workload_signature(a), workload_signature(b)

    def test_falls_back_to_algorithm_aggregate(self, spec):
        store = CalibrationStore()
        wa, wb = self.workloads(spec)
        store.observe("bgd", spec, cost_ratio=4.0, workload=wa)
        # One workload observation is below the threshold, but the
        # aggregate learned from it: both workloads see the aggregate.
        assert store.correction("bgd", spec, workload=wa).cost_factor == \
            pytest.approx(4.0)
        assert store.correction("bgd", spec, workload=wb).cost_factor == \
            pytest.approx(4.0)

    def test_workload_key_takes_over_with_enough_traces(self, spec):
        store = CalibrationStore(alpha=1.0)
        wa, wb = self.workloads(spec)
        # Workload a is consistently 4x; workload b is consistently 1.5x.
        for _ in range(MIN_WORKLOAD_OBSERVATIONS):
            store.observe("bgd", spec, cost_ratio=4.0, workload=wa)
        for _ in range(MIN_WORKLOAD_OBSERVATIONS):
            store.observe("bgd", spec, cost_ratio=1.5, workload=wb)
        assert store.correction("bgd", spec, workload=wa).cost_factor == \
            pytest.approx(4.0)
        assert store.correction("bgd", spec, workload=wb).cost_factor == \
            pytest.approx(1.5)
        # The anonymous lookup still sees the cross-workload aggregate
        # (alpha=1.0 makes it exactly the latest observation).
        aggregate = store.correction("bgd", spec).cost_factor
        assert 1.5 <= aggregate <= 4.0

    def test_anonymous_observation_feeds_aggregate_only(self, spec):
        store = CalibrationStore()
        wa, _ = self.workloads(spec)
        store.observe("bgd", spec, cost_ratio=2.0)
        assert store.correction("bgd", spec, workload=wa).cost_factor == \
            pytest.approx(2.0)  # fallback, no workload key exists

    def test_workload_keys_round_trip_through_json(self, spec):
        store = CalibrationStore()
        wa, _ = self.workloads(spec)
        for _ in range(MIN_WORKLOAD_OBSERVATIONS):
            store.observe("bgd", spec, cost_ratio=3.0, workload=wa)
        store.observe("bgd", spec, cost_ratio=1.0)  # aggregate only
        clone = CalibrationStore.from_dict(store.to_dict())
        assert clone.correction("bgd", spec, workload=wa).cost_factor == \
            pytest.approx(3.0)

    def test_corrections_for_excludes_workload_keys(self, spec):
        store = CalibrationStore()
        wa, _ = self.workloads(spec)
        store.observe("bgd", spec, cost_ratio=2.0, workload=wa)
        assert set(store.corrections_for(spec)) == {"bgd"}

    def test_state_digest_tracks_content_and_threshold(self, spec,
                                                       monkeypatch):
        wa, _ = self.workloads(spec)
        a = CalibrationStore()
        b = CalibrationStore()
        assert a.state_digest() == b.state_digest()  # both pristine
        a.observe("bgd", spec, cost_ratio=2.0, workload=wa)
        assert a.state_digest() != b.state_digest()
        b.observe("bgd", spec, cost_ratio=2.0, workload=wa)
        assert a.state_digest() == b.state_digest()  # same content again
        # The workload threshold changes which factors a lookup serves,
        # so it is part of the digest even with identical corrections.
        monkeypatch.setattr(calibration, "MIN_WORKLOAD_OBSERVATIONS",
                            MIN_WORKLOAD_OBSERVATIONS + 1)
        assert CalibrationStore.from_dict(a.to_dict()).state_digest() != \
            b.state_digest()

    def test_state_digest_is_pinned(self):
        """Persisted plan stamps carry these digests: a change to the
        digested payload would send every stored plan to a re-cost."""
        spec = ClusterSpec()
        store = CalibrationStore()
        assert store.state_digest() == "733794ee62f21eaa"
        store.observe("bgd", spec, cost_ratio=2.0, iterations_ratio=0.5,
                      workload="w1")
        store.observe("sgd", spec, cost_ratio=1.5)
        assert store.state_digest() == "a9ffa56f9bb41d59"


class TestManyClusters:
    def specs(self, spec, count):
        return [spec.with_overrides(n_nodes=2 + i) for i in range(count)]

    def test_every_cluster_keeps_its_corrections(self, spec):
        store = CalibrationStore()
        for s in self.specs(spec, 10):
            store.observe("bgd", s, cost_ratio=2.0)
        assert all(
            not store.correction("bgd", s).is_identity
            for s in self.specs(spec, 10)
        )


class TestRecordSegment:
    def test_cost_and_iterations_from_converged_segment(self, spec):
        store = CalibrationStore()
        assert store.record_segment(
            segment(observed_per_iter=3.0, iterations=40,
                    predicted_iterations=20), spec
        )
        c = store.correction("bgd", spec)
        assert c.cost_factor == pytest.approx(3.0)
        assert c.iterations_factor == pytest.approx(2.0)

    def test_unconverged_segment_teaches_cost_only(self, spec):
        store = CalibrationStore()
        store.record_segment(segment(converged=False), spec)
        c = store.correction("bgd", spec)
        assert c.cost_observations == 1
        assert c.iterations_observations == 0

    def test_trivial_segment_is_ignored(self, spec):
        store = CalibrationStore()
        assert not store.record_segment(segment(iterations=1), spec)
        assert store.version == 0


class TestPersistence:
    def test_round_trip(self, spec, tmp_path):
        path = tmp_path / "calibration.json"
        store = CalibrationStore(path=str(path))
        store.observe("bgd", spec, cost_ratio=4.0, iterations_ratio=1.5)
        store.save()

        restored = CalibrationStore.open(str(path))
        c = restored.correction("bgd", spec)
        assert c.cost_factor == pytest.approx(4.0)
        assert c.iterations_factor == pytest.approx(1.5)
        assert restored.version == store.version

    def test_open_missing_path_is_fresh(self, tmp_path):
        store = CalibrationStore.open(str(tmp_path / "nope.json"))
        assert store.observations == 0

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            CalibrationStore().save()

    def test_tcp_url_is_refused_on_open_and_save(self):
        with pytest.raises(ReproError, match="--checkpoint"):
            CalibrationStore.open("tcp://127.0.0.1:7700/cal")
        with pytest.raises(ReproError, match="local"):
            CalibrationStore().save("tcp://127.0.0.1:7700/cal")


class TestCalibrationRoundTrip:
    """predict -> trace -> corrected predict is closer to observed."""

    def test_corrected_estimate_closer_to_observed_cost(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-3,
                                max_iter=60, seed=0)
        store = CalibrationStore()
        # The cost model believes BGD is 4x cheaper than it is.
        model = PerturbedCostModel(spec, {"bgd": 0.25})

        def bgd_estimate():
            optimizer = GDOptimizer(
                SimulatedCluster(spec, seed=0),
                algorithms=("bgd",),
                cost_model=model,
                calibration=store,
            )
            return optimizer.optimize(
                dataset, training, fixed_iterations=60
            ).chosen

        before = bgd_estimate()
        trainer = AdaptiveTrainer(
            GDOptimizer(
                SimulatedCluster(spec, seed=0), algorithms=("bgd",),
                cost_model=model, calibration=store,
            ),
            calibration=store,
        )
        outcome = trainer.train(dataset, training, fixed_iterations=60)
        observed = outcome.trace.segments[0].observed_per_iteration_s
        after = bgd_estimate()

        err_before = abs(before.per_iteration_s - observed)
        err_after = abs(after.per_iteration_s - observed)
        assert err_after < err_before
        assert after.per_iteration_s == pytest.approx(observed, rel=0.35)
        assert "calibration:cost_factor" in after.breakdown

    def test_factors_stable_under_repeated_calibrated_runs(
        self, spec, dataset
    ):
        """Once learned, a correct factor must not decay: later runs
        observe ratio ~1 against *calibrated* predictions, and the
        composed absolute ratio keeps the store at the true factor
        (not its square root)."""
        training = TrainingSpec(task="logreg", tolerance=1e-3,
                                max_iter=60, seed=0)
        store = CalibrationStore()
        model = PerturbedCostModel(spec, {"bgd": 0.25})
        factors = []
        for _ in range(3):
            trainer = AdaptiveTrainer(
                GDOptimizer(
                    SimulatedCluster(spec, seed=0), algorithms=("bgd",),
                    cost_model=model, calibration=store,
                ),
                calibration=store,
            )
            trainer.train(dataset, training, fixed_iterations=60)
            factors.append(store.correction("bgd", spec).cost_factor)
        assert factors[0] == pytest.approx(4.0, rel=0.05)
        assert factors[-1] == pytest.approx(factors[0], rel=0.05)

    def test_segments_record_applied_factors(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-3,
                                max_iter=60, seed=0)
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=4.0)
        trainer = AdaptiveTrainer(
            GDOptimizer(
                SimulatedCluster(spec, seed=0), algorithms=("bgd",),
                calibration=store,
            ),
            calibration=store,
        )
        outcome = trainer.train(dataset, training, fixed_iterations=60)
        segment = outcome.trace.segments[0]
        assert segment.applied_cost_factor == pytest.approx(4.0)

    def test_identity_store_changes_nothing(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-3,
                                max_iter=60, seed=0)

        def report_with(calibration):
            return GDOptimizer(
                SimulatedCluster(spec, seed=0),
                calibration=calibration,
            ).optimize(dataset, training, fixed_iterations=60)

        plain = report_with(None)
        empty = report_with(CalibrationStore())
        assert [c.total_s for c in plain.candidates] == \
            [c.total_s for c in empty.candidates]
        assert plain.chosen_plan == empty.chosen_plan
        assert not empty.calibrated

    def test_report_flags_applied_corrections(self, spec, dataset):
        training = TrainingSpec(task="logreg", tolerance=1e-3,
                                max_iter=60, seed=0)
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.5)
        report = GDOptimizer(
            SimulatedCluster(spec, seed=0), calibration=store
        ).optimize(dataset, training, fixed_iterations=60)
        assert report.calibrated
        assert report.corrections["bgd"].cost_factor == pytest.approx(2.5)


ALL_ALGORITHMS = ("bgd", "mgd", "sgd", "svrg", "momentum", "adagrad", "adam",
                  "grad_avg", "arc")


class TestRegretUnderMisPricing:
    """The one correction layer earns its place: fed what a mis-priced
    model's own choices would observe, the calibrated ranking recovers
    (these are the EWMA arm of the 512-case protocol recorded in
    ARCHITECTURE "Cost corrections: one layer")."""

    def test_calibrated_ranking_recovers_the_truly_cheapest_plan(self, spec):
        # A simulated 2M-row workload: per-iteration costs actually
        # separate the algorithms (a tiny physical sample would be
        # iteration-overhead-dominated and nothing could recover it).
        dataset = make_dataset(n_phys=400, d=10, sim_n=2_000_000,
                               task="logreg", spec=spec, seed=3)
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        engine = SimulatedCluster(spec, seed=0)
        truth = GDOptimizer(engine).optimize(
            dataset, training, fixed_iterations=60
        )
        victim, factor = "bgd", 0.05
        assert truth.chosen_plan.algorithm != victim
        perturbed = PerturbedCostModel(spec, {victim: factor})

        def ranked(store):
            return GDOptimizer(
                engine, cost_model=perturbed, calibration=store
            ).optimize(dataset, training, fixed_iterations=60)

        empty = ranked(CalibrationStore())
        assert empty.chosen_plan.algorithm == victim

        # Eight traces of the victim's true price (observed/predicted =
        # 1/factor under the perturbed model).
        store = CalibrationStore()
        for _ in range(8):
            store.record_segment(
                segment(algorithm=victim, observed_per_iter=1.0 / factor),
                spec,
            )
        calibrated = ranked(store)
        assert calibrated.chosen_plan == truth.chosen_plan
        assert calibrated.corrections[victim].cost_factor == \
            pytest.approx(1.0 / factor)

        true_total = {str(c.plan): c.total_s for c in truth.candidates}
        best_total = min(true_total.values())
        assert true_total[str(calibrated.chosen_plan)] == best_total
        assert true_total[str(empty.chosen_plan)] > best_total

    def test_learning_from_its_own_choices_never_loses_to_analytic(self):
        """Every speculated algorithm as victim x {0.05, 0.2, 5, 20} on
        the four fast Table-2 datasets, 8 rounds of rank -> observe the
        chosen plan under the true model -> rank again.  Estimates are
        speculated once per dataset; no GD runs in the loop."""
        spec = ClusterSpec(jitter_sigma=0.0)
        system = ML4all(cluster_spec=spec, seed=7, algorithms=ALL_ALGORITHMS)
        counts = {}
        for name in ("adult", "covtype", "yearpred", "higgs"):
            dataset = system.load_dataset(name)
            training = TrainingSpec(task=dataset.stats.task, tolerance=1e-3,
                                    max_iter=100_000, seed=7)
            estimates = system.optimize(
                dataset, epsilon=1e-3, max_iter=100_000
            ).iteration_estimates

            def ranked(model, store):
                return GDOptimizer(
                    SimulatedCluster(spec, seed=7),
                    algorithms=ALL_ALGORITHMS, cost_model=model,
                    calibration=store,
                ).optimize(dataset, training, iteration_estimates=estimates)

            true = {str(c.plan): c
                    for c in ranked(CostModel(spec), None).candidates}
            best = min(c.total_s for c in true.values())
            cases = analytic_misses = calibrated_misses = 0
            for victim in estimates:
                for factor in (0.05, 0.2, 5.0, 20.0):
                    model = PerturbedCostModel(spec, {victim: factor})
                    analytic = true[str(ranked(model, None).chosen_plan)]
                    store = CalibrationStore()
                    for _ in range(8):
                        chosen = ranked(model, store).chosen
                        actual = true[str(chosen.plan)]
                        store.record_segment(PlanSegment(
                            plan=str(chosen.plan),
                            algorithm=chosen.plan.algorithm,
                            predicted_iterations=chosen.estimated_iterations,
                            predicted_per_iteration_s=chosen.per_iteration_s,
                            predicted_total_s=chosen.total_s,
                            applied_cost_factor=chosen.breakdown.get(
                                "calibration:cost_factor", 1.0),
                            iterations=actual.estimated_iterations,
                            sim_seconds=actual.total_s,
                            converged=True,
                            observed_per_iteration_s=actual.per_iteration_s,
                        ), spec, workload=workload_signature(dataset.stats))
                    calibrated = true[str(ranked(model, store).chosen_plan)]
                    assert calibrated.total_s <= analytic.total_s, \
                        (name, victim, factor)
                    cases += 1
                    analytic_misses += analytic.total_s > best
                    calibrated_misses += calibrated.total_s > best
            counts[name] = (cases, analytic_misses, calibrated_misses)
        # (cases, analytic picks a non-optimal plan, calibrated does).
        # What stays wrong is an over-priced true optimum: never chosen,
        # so never observed.
        assert counts == {
            "adult": (36, 0, 0),
            "covtype": (36, 5, 1),
            "yearpred": (28, 2, 0),
            "higgs": (36, 4, 2),
        }


class TestRemovedOptions:
    @pytest.mark.parametrize("argument", [
        "learned", "learned_path", "carry_state",
    ])
    def test_second_layer_options_are_type_errors_not_ignored(
        self, engine, argument
    ):
        for build in (
            lambda **kw: GDOptimizer(engine, **kw),
            lambda **kw: AdaptiveTrainer(GDOptimizer(engine), **kw),
            OptimizerService,
            ML4all,
        ):
            with pytest.raises(TypeError):
                build(**{argument: None})


class TestSerialization:
    def test_corrections_survive_dict_round_trip(self, spec):
        store = CalibrationStore()
        store.observe("mgd", spec, cost_ratio=2.0, iterations_ratio=0.5)
        clone = CalibrationStore.from_dict(store.to_dict())
        a = store.correction("mgd", spec)
        b = clone.correction("mgd", spec)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_summary_renders(self, spec):
        store = CalibrationStore()
        assert "empty" in store.summary()
        store.observe("sgd", spec, cost_ratio=3.0)
        assert "sgd@" in store.summary()


class TestNoOpObserveChurn:
    """Regression: a no-op observation must not churn stamped caches."""

    def test_nonpositive_ratios_leave_digest_and_version_alone(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        version = store.version
        digest = store.state_digest()
        store.observe("bgd", spec, cost_ratio=0.0)
        store.observe("bgd", spec, cost_ratio=-3.0, iterations_ratio=0.0)
        store.observe("bgd", spec, cost_ratio=None, iterations_ratio=-1.0)
        assert store.version == version
        assert store.state_digest() == digest

    def test_noop_observe_does_not_materialize_keys(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=0.0, workload="w1")
        assert store.state_digest() == CalibrationStore().state_digest()
        assert store.observations == 0

    def test_valid_observe_still_bumps(self, spec):
        store = CalibrationStore()
        digest = store.state_digest()
        store.observe("bgd", spec, cost_ratio=2.0)
        assert store.version == 1
        assert store.state_digest() != digest


class TestDigestServedStateProperty:
    """state_digest() changes iff the served corrections change."""

    def test_scripted_op_sequence(self, spec):
        from repro.cluster.storage import DatasetStats
        from repro.runtime import workload_signature

        wl = workload_signature(DatasetStats(
            name="w", task="classification", n=1000, d=5
        ))
        store = CalibrationStore()
        seen = [store.state_digest()]

        def step(changed_expected, **kwargs):
            store.observe("bgd", spec, **kwargs)
            digest = store.state_digest()
            if changed_expected:
                assert digest not in seen
            else:
                assert digest == seen[-1]
            seen.append(digest)

        step(False, cost_ratio=0.0)                   # no-op
        step(True, cost_ratio=2.0)                    # first real factor
        step(True, cost_ratio=2.0)                    # count moved (2)
        step(False, cost_ratio=None)                  # no-op again
        step(True, cost_ratio=3.0, workload=wl)       # wl key appears
        step(True, cost_ratio=3.0, workload=wl)       # wl count moved
        step(True, cost_ratio=3.0, workload=wl)       # wl crosses threshold

    def test_threshold_crossing_changes_served_correction(self, spec):
        from repro.cluster.storage import DatasetStats
        from repro.runtime import workload_signature

        wl = workload_signature(DatasetStats(
            name="w", task="classification", n=1000, d=5
        ))
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        for _ in range(MIN_WORKLOAD_OBSERVATIONS - 1):
            store.observe("bgd", spec, cost_ratio=8.0, workload=wl)
        # Below the threshold: the aggregate is still served.
        below = store.correction("bgd", spec, workload=wl)
        store.observe("bgd", spec, cost_ratio=8.0, workload=wl)
        above = store.correction("bgd", spec, workload=wl)
        assert above.cost_factor != below.cost_factor

    def test_same_served_state_same_digest_across_instances(self, spec):
        a = CalibrationStore()
        b = CalibrationStore()
        for store in (a, b):
            store.observe("bgd", spec, cost_ratio=2.0)
            store.observe("sgd", spec, iterations_ratio=0.5)
        assert a.state_digest() == b.state_digest()


def _storm_saver(path, seed, rounds):
    """Cross-process save-storm worker (module level: picklable)."""
    spec = ClusterSpec(jitter_sigma=0.0)
    for i in range(rounds):
        store = CalibrationStore(path=path)
        for alg in ("bgd", "mgd", "sgd"):
            store.observe(alg, spec, cost_ratio=float(seed + i + 1),
                          iterations_ratio=0.5)
        store.save()


class TestSaveStorm:
    """Regression: concurrent savers must never publish a torn file."""

    def test_cross_process_save_storm_keeps_the_file_parseable(
            self, tmp_path):
        import json
        import multiprocessing

        path = str(tmp_path / "calibration.json")
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_storm_saver, args=(path, seed, 20))
            for seed in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(worker.exitcode == 0 for worker in workers)
        with open(path) as handle:
            payload = json.load(handle)  # never torn
        restored = CalibrationStore.from_dict(payload, path=path)
        assert restored.observations > 0

    def test_unique_temp_names_per_writer(self, tmp_path, monkeypatch):
        import os as os_module

        path = str(tmp_path / "calibration.json")
        spec = ClusterSpec(jitter_sigma=0.0)
        store = CalibrationStore(path=path)
        store.observe("bgd", spec, cost_ratio=2.0)
        seen = []
        real_replace = os_module.replace

        def spy(src, dst):
            seen.append(src)
            return real_replace(src, dst)

        monkeypatch.setattr(
            "repro.runtime.calibration.os.replace", spy
        )
        store.save()
        store.save()
        assert len(seen) == 2
        # The temp name embeds the writer's identity, not a fixed
        # "{target}.tmp" two sibling processes would race on.
        assert all(s != f"{path}.tmp" for s in seen)
        assert all(str(os_module.getpid()) in s for s in seen)


class TestCorrectionForwardCompat:
    """Regression: additive fields must not brick older readers."""

    def test_from_dict_tolerates_unknown_keys(self):
        payload = {"cost_factor": 2.0, "cost_observations": 3,
                   "learned_residual_stats": {"rmse": 0.1}}
        correction = Correction.from_dict(payload)
        assert correction.cost_factor == 2.0
        assert correction.cost_observations == 3

    def test_store_round_trip_with_future_fields(self, spec):
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        payload = store.to_dict()
        for value in payload["corrections"].values():
            value["from_the_future"] = True
        restored = CalibrationStore.from_dict(payload)
        assert restored.correction("bgd", spec).cost_factor == \
            pytest.approx(2.0)

    def test_plan_entry_corrections_tolerate_future_fields(
            self, spec, dataset):
        from repro.service.serialize import entry_from_dict, entry_to_dict

        training = TrainingSpec(task="logreg", tolerance=1e-3, seed=0)
        store = CalibrationStore()
        store.observe("bgd", spec, cost_ratio=2.0)
        report = GDOptimizer(
            SimulatedCluster(spec, seed=0), calibration=store
        ).optimize(dataset, training, fixed_iterations=30)
        payload = entry_to_dict(report, store.version, store.state_digest())
        for value in payload["report"]["corrections"].values():
            value["from_the_future"] = True
        restored, _, _, _ = entry_from_dict(payload)
        assert restored.corrections["bgd"].cost_factor == pytest.approx(2.0)
