"""Persistent plan store: backends, serialization, warm restart, failure
modes (corruption, version mismatch, concurrent writers)."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.iterations import SpeculationSettings, SpeculativeEstimator
from repro.core.plans import TrainingSpec
from repro.gd import registry as gd_registry
from repro.service import (
    JsonFileBackend,
    MemoryBackend,
    OptimizerService,
    PlanStoreError,
    SqliteBackend,
    entry_from_dict,
    entry_to_dict,
    open_backend,
    report_from_dict,
    report_to_dict,
)
from repro.service.backends import STORE_FORMAT

from support import FaultyBackend, make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(
        n_phys=2000, d=20, task="logreg", spec=spec, seed=3,
        separability=1.2, hard_fraction=0.3, noise_scale=0.3,
        label_noise=0.02,
    )


@pytest.fixture
def training():
    return TrainingSpec(task="logreg", tolerance=1e-2, seed=1)


def make_service(spec, **kwargs):
    kwargs.setdefault("speculation", SpeculationSettings(
        sample_size=400, time_budget_s=0.5, max_speculation_iters=800
    ))
    return OptimizerService(spec=spec, seed=5, **kwargs)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------
class TestBackends:
    @pytest.mark.parametrize("factory", [
        lambda tmp: MemoryBackend(),
        lambda tmp: JsonFileBackend(str(tmp / "plans.json")),
        lambda tmp: SqliteBackend(str(tmp / "plans.db")),
    ], ids=["memory", "json", "sqlite"])
    def test_store_load_delete_clear(self, tmp_path, factory):
        backend = factory(tmp_path)
        assert backend.load() == {}
        backend.store("k1", {"a": 1})
        backend.store("k2", {"b": [1, 2]})
        backend.store("k1", {"a": 2})  # overwrite
        assert backend.load() == {"k1": {"a": 2}, "k2": {"b": [1, 2]}}
        assert len(backend) == 2
        backend.delete("k1")
        backend.delete("missing")  # no-op
        assert backend.load() == {"k2": {"b": [1, 2]}}
        assert backend.mutate_all(lambda entries: {}) == {}
        assert backend.load() == {}
        backend.close()

    def test_whole_store_writes_are_mutate_all_only(self):
        # The contract is what the service calls: no swap or wipe beside
        # mutate_all, and no non-atomic default for it in the base class.
        from repro.service.backends import CacheBackend
        from repro.service.remote import RemoteBackend

        for cls in (CacheBackend, MemoryBackend, JsonFileBackend,
                    SqliteBackend, RemoteBackend):
            assert not hasattr(cls, "replace"), cls
            assert not hasattr(cls, "clear"), cls
        with pytest.raises(NotImplementedError):
            CacheBackend().mutate_all(dict)

    def test_open_backend_picks_by_extension(self, tmp_path):
        assert isinstance(
            open_backend(str(tmp_path / "x.db")), SqliteBackend
        )
        assert isinstance(
            open_backend(str(tmp_path / "x.SQLITE")), SqliteBackend
        )
        assert isinstance(
            open_backend(str(tmp_path / "x.json")), JsonFileBackend
        )
        assert isinstance(
            open_backend(str(tmp_path / "x")), JsonFileBackend
        )

    def test_json_survives_process_restart(self, tmp_path):
        path = str(tmp_path / "plans.json")
        JsonFileBackend(path).store("k", {"v": 1})
        assert JsonFileBackend(path).load() == {"k": {"v": 1}}

    def test_sqlite_survives_process_restart(self, tmp_path):
        path = str(tmp_path / "plans.db")
        SqliteBackend(path).store("k", {"v": 1})
        assert SqliteBackend(path).load() == {"k": {"v": 1}}

    @pytest.mark.parametrize("content", [
        "", "{not json", '{"entries": {"k": {}}}',  # truncated / no format
        '[1, 2, 3]',                                # wrong container type
    ], ids=["empty", "garbage", "formatless", "list"])
    def test_corrupted_json_store_starts_cold(self, tmp_path, content):
        path = tmp_path / "plans.json"
        path.write_text(content)
        with pytest.warns(UserWarning, match="cold"):
            backend = JsonFileBackend(str(path))
        assert backend.load() == {}
        # The backend still works for writes after the cold start.
        backend.store("k", {"v": 1})
        assert JsonFileBackend(str(path)).load() == {"k": {"v": 1}}

    def test_json_future_format_version_starts_cold(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps(
            {"format": STORE_FORMAT + 1, "entries": {"k": {"v": 1}}}
        ))
        with pytest.warns(UserWarning, match="unsupported format"):
            backend = JsonFileBackend(str(path))
        assert backend.load() == {}

    def test_sqlite_on_non_database_file_disables_persistence(self, tmp_path):
        path = tmp_path / "plans.db"
        path.write_text("this is not a sqlite database")
        with pytest.warns(UserWarning):
            backend = SqliteBackend(str(path))
        assert backend.load() == {}
        backend.store("k", {"v": 1})  # silently dropped, never raises
        assert backend.load() == {}

    def test_concurrent_writers_never_interleave_partial_json(self, tmp_path):
        """Readers racing writers always see one complete JSON store."""
        path = str(tmp_path / "plans.json")
        backend = JsonFileBackend(path)
        stop = threading.Event()
        failures = []

        def writer(i):
            for n in range(25):
                backend.store(f"key-{i}-{n}", {"payload": "x" * 256, "n": n})

        def reader():
            while not stop.is_set():
                try:
                    with open(path) as handle:
                        payload = json.load(handle)
                    assert payload["format"] == STORE_FORMAT
                except FileNotFoundError:
                    pass
                except Exception as exc:  # interleaved / partial JSON
                    failures.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert failures == []
        assert len(backend.load()) == 100

    def test_json_get_sees_other_writers_despite_snapshot(self, tmp_path):
        """The parsed-snapshot cache is keyed on the file's stat
        identity, so point lookups still observe entries written by a
        sibling backend (a different 'process')."""
        path = str(tmp_path / "plans.json")
        a, b = JsonFileBackend(path), JsonFileBackend(path)
        a.store("k1", {"v": 1})
        assert b.get("k1") == {"v": 1}
        assert b.get("nope") is None   # snapshot now warm in b...
        a.store("k2", {"v": 2})
        assert b.get("k2") == {"v": 2}  # ...but invalidated by a's write

    def test_json_disjoint_writers_converge(self, tmp_path):
        """Two backend instances (two 'processes') over one JSON file:
        writes to disjoint keys must all survive, because every
        mutation re-reads the file before rewriting it."""
        path = str(tmp_path / "plans.json")
        a, b = JsonFileBackend(path), JsonFileBackend(path)
        a.store("from-a-1", {"v": 1})
        b.store("from-b-1", {"v": 2})
        a.store("from-a-2", {"v": 3})
        b.delete("from-b-1")
        merged = JsonFileBackend(path).load()
        assert merged == {"from-a-1": {"v": 1}, "from-a-2": {"v": 3}}

    def test_sqlite_concurrent_writers(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "plans.db"))

        def writer(i):
            for n in range(20):
                backend.store(f"key-{i}-{n}", {"n": n})

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(backend.load()) == 80


# ---------------------------------------------------------------------------
# fault injection (FaultyBackend wraps the real backends)
# ---------------------------------------------------------------------------
class TestFaultyBackend:
    @pytest.mark.parametrize("factory", [
        lambda tmp: MemoryBackend(),
        lambda tmp: JsonFileBackend(str(tmp / "plans.json")),
        lambda tmp: SqliteBackend(str(tmp / "plans.db")),
    ], ids=["memory", "json", "sqlite"])
    def test_abort_faults_leave_inner_untouched(self, tmp_path, factory):
        """timeout/reset fire *before* the operation: the wrapped real
        backend must not have seen the write, and the retry lands."""
        inner = factory(tmp_path)
        backend = FaultyBackend(inner, plan={
            "store": ["timeout", None, "reset", None],
        })
        with pytest.raises(TimeoutError):
            backend.store("k1", {"v": 1})
        assert inner.load() == {}
        backend.store("k1", {"v": 1})      # the retry
        with pytest.raises(ConnectionResetError):
            backend.store("k2", {"v": 2})
        backend.store("k2", {"v": 2})
        assert inner.load() == {"k1": {"v": 1}, "k2": {"v": 2}}
        assert backend.injected == [("store", "timeout"), ("store", "reset")]
        backend.close()

    @pytest.mark.parametrize("factory", [
        lambda tmp: JsonFileBackend(str(tmp / "plans.json")),
        lambda tmp: SqliteBackend(str(tmp / "plans.db")),
    ], ids=["json", "sqlite"])
    def test_fail_after_write_is_an_ambiguous_ack(self, tmp_path, factory):
        """fail_after_write raises *after* the mutation landed -- the
        caller cannot tell success from failure, exactly like a dropped
        TCP ack.  A blind retry must therefore be idempotent."""
        inner = factory(tmp_path)
        backend = FaultyBackend(inner, plan={
            "store": ["fail_after_write"],
            "update": ["fail_after_write"],
        })
        with pytest.raises(ConnectionResetError):
            backend.store("k", {"v": 1})
        assert inner.get("k") == {"v": 1}  # ...but it landed
        with pytest.raises(ConnectionResetError):
            backend.update("k", lambda cur: {"v": cur["v"] + 1})
        assert inner.get("k") == {"v": 2}  # the CAS applied too
        # A blind store retry of the same payload converges.
        backend.store("k", {"v": 2})
        assert inner.get("k") == {"v": 2}
        backend.close()

    def test_seeded_schedule_is_reproducible(self):
        """Two wrappers with the same seed inject the identical fault
        sequence over the identical operation sequence."""
        def hammer(backend):
            for n in range(60):
                try:
                    backend.store(f"k{n % 7}", {"n": n})
                except (TimeoutError, ConnectionResetError):
                    pass
                try:
                    backend.get(f"k{n % 5}")
                except (TimeoutError, ConnectionResetError):
                    pass
            return list(backend.injected)

        first = hammer(FaultyBackend(MemoryBackend(), seed=11, rate=0.3))
        second = hammer(FaultyBackend(MemoryBackend(), seed=11, rate=0.3))
        assert first == second
        assert first  # the schedule actually fired at this rate
        assert {kind for _, kind in first} <= set(FaultyBackend.KINDS)

    def test_service_survives_faulty_plan_store(
        self, spec, dataset, training
    ):
        """A flaky persistence layer degrades the service to in-memory
        caching -- same contract the ExplodingBackend test pins, but
        through the generic fault double with a real backend beneath."""
        inner = MemoryBackend()
        backend = FaultyBackend(inner, plan={"store": ["reset"]})
        service = make_service(spec, cache_backend=backend)
        with pytest.warns(UserWarning, match="plan store write failed"):
            result = service.optimize(dataset, training)
        assert not result.cache_hit
        assert inner.load() == {}          # the write really was lost
        # The in-memory cache still serves, and the *next* persistence
        # attempt (a fresh fingerprint) goes through cleanly.
        assert service.optimize(dataset, training).cache_hit
        other = TrainingSpec(task="logreg", tolerance=5e-3, seed=1)
        service.optimize(dataset, other)
        assert len(inner) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
class TestSerialization:
    def _report(self, spec, dataset, training):
        service = make_service(spec)
        return service.optimize(dataset, training).report

    def test_report_round_trip_preserves_decision(
        self, spec, dataset, training
    ):
        report = self._report(spec, dataset, training)
        # Through actual JSON text, like a backend would store it.
        restored = report_from_dict(
            json.loads(json.dumps(report_to_dict(report)))
        )
        assert restored.chosen_plan == report.chosen_plan
        assert restored.chosen.total_s == pytest.approx(
            report.chosen.total_s
        )
        assert len(restored.candidates) == len(report.candidates)
        assert [str(c.plan) for c in restored.ranking()] == \
            [str(c.plan) for c in report.ranking()]

    def test_speculation_artifacts_round_trip(self, spec, dataset, training):
        report = self._report(spec, dataset, training)
        restored = report_from_dict(
            json.loads(json.dumps(report_to_dict(report)))
        )
        assert set(restored.iteration_estimates) == \
            set(report.iteration_estimates)
        for alg, est in report.iteration_estimates.items():
            back = restored.iteration_estimates[alg]
            assert back.estimated_iterations == est.estimated_iterations
            assert back.curve.model == est.curve.model
            assert back.curve.params == pytest.approx(est.curve.params)
            np.testing.assert_allclose(
                back.speculation_errors, est.speculation_errors
            )
            # The restored curve is functional, not just data: re-costing
            # a stale entry queries it for T(epsilon).
            assert back.curve.iterations_for(training.tolerance) == \
                est.curve.iterations_for(training.tolerance)

    def test_entry_round_trip_keeps_calibration_stamp(
        self, spec, dataset, training
    ):
        report = self._report(spec, dataset, training)
        entry = entry_to_dict(report, calibration_version=7,
                              calibration_digest="abc123")
        restored, version, digest, written_at = entry_from_dict(
            json.loads(json.dumps(entry))
        )
        assert version == 7
        assert digest == "abc123"
        assert restored.chosen_plan == report.chosen_plan
        # The write stamp defaults to "now" and survives the round trip.
        assert written_at == pytest.approx(time.time(), abs=60)

    def test_stampless_entry_decodes_with_unknown_age(
        self, spec, dataset, training
    ):
        # Entries persisted before written_at existed (same format
        # version) must keep loading; they report no age and never
        # expire.
        report = self._report(spec, dataset, training)
        entry = entry_to_dict(report, calibration_version=1,
                              calibration_digest="abc")
        del entry["written_at"]
        _, _, _, written_at = entry_from_dict(entry)
        assert written_at is None

    def test_entry_format_mismatch_is_rejected(self, spec, dataset, training):
        report = self._report(spec, dataset, training)
        entry = entry_to_dict(report, calibration_version=0,
                              calibration_digest="abc123")
        entry["entry_format"] = 999
        with pytest.raises(PlanStoreError, match="format"):
            entry_from_dict(entry)

    def test_malformed_entry_is_rejected(self):
        with pytest.raises(PlanStoreError):
            entry_from_dict({"entry_format": 1, "calibration_version": 0,
                             "report": {"chosen": "nonsense"}})


# ---------------------------------------------------------------------------
# warm restart through the service
# ---------------------------------------------------------------------------
class TestWarmRestart:
    @pytest.mark.parametrize("name", ["plans.json", "plans.db"])
    def test_restarted_service_answers_from_the_store(
        self, spec, dataset, training, tmp_path, monkeypatch, name
    ):
        path = str(tmp_path / name)
        first = make_service(spec, cache_path=path)
        cold = first.optimize(dataset, training)
        assert not cold.cache_hit
        first.close()

        speculations = []
        original = SpeculativeEstimator.estimate_all

        def counting(self, *args, **kwargs):
            speculations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpeculativeEstimator, "estimate_all", counting)
        restarted = make_service(spec, cache_path=path)
        assert restarted.warm_loaded == 1
        warm = restarted.optimize(dataset, training)
        assert warm.cache_hit
        assert speculations == []  # warm restart: no re-speculation
        assert str(warm.chosen_plan) == str(cold.chosen_plan)
        assert warm.report.chosen.total_s == pytest.approx(
            cold.report.chosen.total_s
        )
        restarted.close()

    def test_stale_calibration_stamp_recosts_not_trusts(
        self, spec, dataset, training, tmp_path, monkeypatch
    ):
        """An entry persisted under old calibration must be re-priced
        from its stored speculation, not served as-is."""
        plans = str(tmp_path / "plans.json")
        calibration = str(tmp_path / "calibration.json")
        first = make_service(
            spec, cache_path=plans, calibration_path=calibration
        )
        cold = first.optimize(dataset, training)
        # The store learns *after* the entry was persisted.
        first.calibration.observe("bgd", spec, cost_ratio=3.0)
        first.save_calibration()
        first.close()

        speculations = []
        original = SpeculativeEstimator.estimate_all

        def counting(self, *args, **kwargs):
            speculations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpeculativeEstimator, "estimate_all", counting)
        restarted = make_service(
            spec, cache_path=plans, calibration_path=calibration
        )
        result = restarted.optimize(dataset, training)
        assert result.recalibrated
        assert not result.cache_hit
        assert speculations == []  # recost uses persisted speculation
        assert result.report.calibrated
        bgd = [c for c in result.report.candidates
               if c.plan.algorithm == "bgd"]
        cold_bgd = [c for c in cold.report.candidates
                    if c.plan.algorithm == "bgd"]
        assert bgd[0].per_iteration_s == pytest.approx(
            3.0 * cold_bgd[0].per_iteration_s, rel=1e-6
        )
        # The re-stamped entry is persisted: yet another restart hits.
        third = make_service(
            spec, cache_path=plans, calibration_path=calibration
        )
        assert third.optimize(dataset, training).cache_hit

    def test_same_version_different_state_is_not_trusted(
        self, spec, dataset, training, tmp_path
    ):
        """A dead process's calibration v-N stamp must not look current
        to a store that reached v-N through a *different* history --
        the stamp compares correction content, not counters."""
        plans = str(tmp_path / "plans.json")
        first = make_service(spec, cache_path=plans)
        # Price the entry under one v1 correction state...
        first.calibration.observe("bgd", spec, cost_ratio=3.0)
        first.optimize(dataset, training)
        assert first.calibration.version == 1
        first.close()

        # ...restart WITHOUT a persisted calibration store: the fresh
        # store learns something unrelated and also reaches v1.
        restarted = make_service(spec, cache_path=plans)
        restarted.calibration.observe("sgd", spec, cost_ratio=9.0)
        assert restarted.calibration.version == 1
        result = restarted.optimize(dataset, training)
        assert result.recalibrated     # re-costed, not blindly served
        assert not result.cache_hit

    def test_pristine_stores_share_stamps(
        self, spec, dataset, training, tmp_path
    ):
        """Every pristine store serves identity factors and digests
        identically: a calibration-free restart serves warm-loaded
        entries as plain hits."""
        plans = str(tmp_path / "plans.json")
        first = make_service(spec, cache_path=plans)
        first.optimize(dataset, training)
        first.close()
        restarted = make_service(spec, cache_path=plans)
        assert restarted.optimize(dataset, training).cache_hit

    def test_foreign_stamp_suffix_recosts_once_without_gd(
        self, spec, dataset, training, tmp_path, monkeypatch
    ):
        """A ``<calibration>+<learned>`` stamp -- what a server of the
        deleted learned-model layer wrote -- is simply stale: one
        re-cost from the persisted iteration estimates, then hits."""
        plans = str(tmp_path / "plans.json")
        first = make_service(spec, cache_path=plans)
        cold = first.optimize(dataset, training)
        first.close()
        backend = open_backend(plans)
        for key, payload in backend.load().items():
            payload["calibration_digest"] += "+3f2a9c0d1e4b5a67"
            backend.store(key, payload)
        backend.close()

        gd_runs = []
        original = gd_registry.run

        def counting(name, *args, **kwargs):
            gd_runs.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(gd_registry, "run", counting)
        restarted = make_service(spec, cache_path=plans)
        assert restarted.warm_loaded == 1
        result = restarted.optimize(dataset, training)
        assert result.recalibrated and not result.cache_hit
        assert gd_runs == []
        assert result.report.chosen == cold.report.chosen
        assert restarted.optimize(dataset, training).cache_hit
        restarted.close()
        # Re-stamped on disk too: the next restart is a plain hit.
        third = make_service(spec, cache_path=plans)
        assert third.optimize(dataset, training).cache_hit
        third.close()

    def test_evicted_entry_read_through_from_backend(
        self, spec, dataset, training, tmp_path, monkeypatch
    ):
        """An entry the tiny in-memory cache evicted is fetched from the
        persistent store instead of being re-speculated."""
        path = str(tmp_path / "plans.json")
        service = make_service(spec, cache_path=path, cache_size=1)
        first = service.optimize(dataset, training)
        other = TrainingSpec(task="logreg", tolerance=5e-3, seed=1)
        service.optimize(dataset, other)   # evicts the first entry
        assert first.fingerprint not in service.cache

        speculations = []
        original = SpeculativeEstimator.estimate_all

        def counting(self, *args, **kwargs):
            speculations.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpeculativeEstimator, "estimate_all", counting)
        again = service.optimize(dataset, training)
        assert again.cache_hit             # promoted from disk
        assert speculations == []
        assert str(again.chosen_plan) == str(first.chosen_plan)

    def test_store_answers_count_one_hit_and_no_compute(
        self, spec, dataset, training, tmp_path
    ):
        """The counters the benchmark audits: an answer from the plan
        store -- warm-loaded at startup, or read through because another
        process wrote it later -- is one hit, not a computation (nor a
        miss or a re-cost)."""
        path = str(tmp_path / "plans.db")
        writer = make_service(spec, cache_path=path)
        writer.optimize(dataset, training)
        reader = make_service(spec, cache_path=path)
        late = TrainingSpec(task="logreg", tolerance=5e-3, seed=1)
        writer.optimize(dataset, late)     # after the reader's startup
        writer.close()
        assert reader.warm_loaded == 1
        for request in (training, late):
            assert reader.optimize(dataset, request).cache_hit
        value = reader.metrics.value
        assert (value("service.requests"), value("service.hits"),
                value("service.misses"), value("service.computed"),
                value("service.recalibrated")) == (2, 2, 0, 0, 0)
        reader.close()

    def test_corrupted_store_file_falls_back_to_cold_start(
        self, spec, dataset, training, tmp_path
    ):
        path = tmp_path / "plans.json"
        path.write_text('{"format": 1, "entr')  # truncated mid-write
        with pytest.warns(UserWarning, match="cold"):
            service = make_service(spec, cache_path=str(path))
        assert service.warm_loaded == 0
        result = service.optimize(dataset, training)  # must not crash
        assert not result.cache_hit
        # And the store heals: the fresh entry is persisted and loadable.
        healed = make_service(spec, cache_path=str(path))
        assert healed.warm_loaded == 1

    def test_incompatible_entry_is_skipped_not_trusted(
        self, spec, dataset, training, tmp_path
    ):
        path = str(tmp_path / "plans.json")
        first = make_service(spec, cache_path=path)
        first.optimize(dataset, training)
        first.close()

        with open(path) as handle:
            payload = json.load(handle)
        (key,) = payload["entries"]
        payload["entries"][key]["entry_format"] = 999
        with open(path, "w") as handle:
            json.dump(payload, handle)

        with pytest.warns(UserWarning, match="skipping persisted plan"):
            restarted = make_service(spec, cache_path=path)
        assert restarted.warm_loaded == 0
        assert not restarted.optimize(dataset, training).cache_hit

    def test_memory_backend_exercises_write_through(
        self, spec, dataset, training
    ):
        backend = MemoryBackend()
        service = make_service(spec, cache_backend=backend)
        result = service.optimize(dataset, training)
        persisted = backend.load()
        assert set(persisted) == {result.fingerprint}
        report, version, digest, _ = entry_from_dict(
            persisted[result.fingerprint]
        )
        assert str(report.chosen_plan) == str(result.chosen_plan)
        assert version == service.calibration.version
        assert digest == service.calibration.state_digest()

    def test_persistence_failure_degrades_not_crashes(
        self, spec, dataset, training
    ):
        class ExplodingBackend(MemoryBackend):
            def store(self, key, entry):
                raise OSError("disk full")

        service = make_service(spec, cache_backend=ExplodingBackend())
        with pytest.warns(UserWarning, match="plan store write failed"):
            result = service.optimize(dataset, training)
        assert not result.cache_hit
        # The in-memory cache still works.
        assert service.optimize(dataset, training).cache_hit


# ---------------------------------------------------------------------------
# recalibration coalescing
# ---------------------------------------------------------------------------
class TestRecalibrationCoalescing:
    def test_concurrent_stale_requests_recost_once(
        self, spec, dataset, training
    ):
        service = make_service(spec)
        service.optimize(dataset, training)
        service.calibration.observe("bgd", spec, cost_ratio=2.0)

        # Slow every optimizer down so all threads overlap the recost.
        real_make = service._make_optimizer

        def slow_make(*args, **kwargs):
            optimizer = real_make(*args, **kwargs)
            real_optimize = optimizer.optimize

            def slow_optimize(*a, **kw):
                time.sleep(0.15)
                return real_optimize(*a, **kw)

            optimizer.optimize = slow_optimize
            return optimizer

        service._make_optimizer = slow_make

        barrier = threading.Barrier(6)
        results = []

        def request():
            barrier.wait()
            results.append(service.optimize(dataset, training))

        threads = [threading.Thread(target=request) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 6
        # Exactly one caller re-priced the entry; everyone else shared it.
        assert service.metrics.value("service.recalibrated") == 1
        assert service.metrics.value("service.coalesced") == 5
        assert all(r.recalibrated for r in results)
        reference = next(r for r in results if not r.coalesced).report
        assert all(r.report is reference for r in results)
