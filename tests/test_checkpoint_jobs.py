"""Durable training jobs: checkpoint store, leases, preemption, resume.

Covers the storage layer (JobCheckpoint round trips, corrupt-store
degradation, the backends' atomic update() CAS), the lease protocol
(double-run protection across threads sharing one store, expiry,
lost-lease writers), and the service-level job API (preempt -> resume
equivalence, crash simulation via a store that dies mid-write, restart
in a genuinely new process, idempotent re-submission of finished jobs).
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse as sp

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core import executor as executor_module
from repro.core.executor import execute_plan
from repro.core.plans import GDPlan, TrainingSpec
from repro.core.reference_ops import GradientCompute, default_operators
from repro.gd.gradients import CsrRows, take_rows
from repro.runtime import JobBudget
from repro.service import (
    CheckpointError,
    CheckpointStore,
    JobCheckpoint,
    JobLeaseError,
    JsonFileBackend,
    MemoryBackend,
    OptimizerService,
    SqliteBackend,
)
from repro.service.checkpoint import CHECKPOINT_FORMAT

from support import FaultyBackend, make_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent


def backend_for(tmp_path, kind):
    return {
        "memory": lambda: MemoryBackend(),
        "json": lambda: JsonFileBackend(str(tmp_path / "store.json")),
        "sqlite": lambda: SqliteBackend(str(tmp_path / "store.db")),
    }[kind]()


@pytest.fixture
def dataset(spec):
    return make_dataset(n_phys=600, d=8, task="logreg", spec=spec, seed=4)


@pytest.fixture
def training():
    # tolerance 1e-12 + fixed iterations: fixed-length deterministic runs.
    return TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                        max_iter=60, seed=3)


def make_service(spec, **kwargs):
    return OptimizerService(spec=spec, seed=5, **kwargs)


def run_job(spec, dataset, training, path, job_id, **kwargs):
    """One lease of a job on a fresh service instance (its own process
    stand-in: nothing shared but the store file)."""
    service = make_service(spec, checkpoint_path=path)
    return service.train(
        dataset, training, fixed_iterations=60, algorithms=("mgd",),
        job_id=job_id, **kwargs,
    )


# ---------------------------------------------------------------------------
# backend CAS
# ---------------------------------------------------------------------------
class TestBackendUpdate:
    @pytest.mark.parametrize("kind", ["memory", "json", "sqlite"])
    def test_update_read_modify_writes_one_entry(self, tmp_path, kind):
        backend = backend_for(tmp_path, kind)
        backend.store("k", {"n": 1})
        out = backend.update("k", lambda cur: {"n": cur["n"] + 1})
        assert out == {"n": 2}
        assert backend.get("k") == {"n": 2}
        # Missing key: fn sees None; returning a value inserts it.
        assert backend.update("new", lambda cur: {"was": cur}) == \
            {"was": None}
        # Returning None deletes.
        backend.update("k", lambda cur: None)
        assert backend.get("k") is None
        backend.close()

    @pytest.mark.parametrize("kind", ["memory", "json", "sqlite"])
    def test_update_raising_fn_aborts_the_mutation(self, tmp_path, kind):
        backend = backend_for(tmp_path, kind)
        backend.store("k", {"n": 1})

        def boom(cur):
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            backend.update("k", boom)
        assert backend.get("k") == {"n": 1}
        backend.close()

    @pytest.mark.parametrize("kind", ["memory", "json", "sqlite"])
    def test_mutate_all_is_one_atomic_rewrite(self, tmp_path, kind):
        backend = backend_for(tmp_path, kind)
        backend.store("keep", {"n": 1})
        backend.store("drop", {"n": 2})

        def fn(entries):
            assert entries == {"keep": {"n": 1}, "drop": {"n": 2}}
            return {"keep": entries["keep"], "new": {"n": 3}}

        assert backend.mutate_all(fn) == \
            {"keep": {"n": 1}, "new": {"n": 3}}
        assert backend.load() == {"keep": {"n": 1}, "new": {"n": 3}}
        backend.close()

    @pytest.mark.parametrize("kind", ["json", "sqlite"])
    def test_concurrent_updates_never_lose_increments(self, tmp_path, kind):
        backend = backend_for(tmp_path, kind)
        backend.store("counter", {"n": 0})

        def bump():
            for _ in range(25):
                backend.update(
                    "counter", lambda cur: {"n": cur["n"] + 1}
                )

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.get("counter") == {"n": 100}
        backend.close()


# ---------------------------------------------------------------------------
# checkpoint payloads
# ---------------------------------------------------------------------------
class TestJobCheckpoint:
    def checkpoint(self, **overrides):
        payload = dict(
            job_id="j1", status="running", fingerprint="abc",
            weights=[0.5, -1.0], state={"iteration_offset": 7},
            chosen={"plan": {"algorithm": "mgd"}}, trace={"segments": []},
            done_iterations=7, switches_left=2,
        )
        payload.update(overrides)
        return JobCheckpoint(**payload)

    def test_round_trip_through_real_json(self):
        checkpoint = self.checkpoint()
        restored = JobCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.to_dict()))
        )
        assert restored == checkpoint

    def test_future_format_is_refused(self):
        payload = self.checkpoint().to_dict()
        payload["checkpoint_format"] = CHECKPOINT_FORMAT + 1
        with pytest.raises(CheckpointError, match="format"):
            JobCheckpoint.from_dict(payload)

    def test_malformed_payload_is_refused(self):
        with pytest.raises(CheckpointError):
            JobCheckpoint.from_dict({"status": "running"})

    def test_resumable_needs_progress(self):
        assert self.checkpoint().resumable
        assert not self.checkpoint(weights=None).resumable
        assert not self.checkpoint(chosen=None).resumable


# ---------------------------------------------------------------------------
# the store: reads, corruption, leases
# ---------------------------------------------------------------------------
class TestCheckpointStore:
    @pytest.mark.parametrize("name", ["jobs.json", "jobs.db"])
    def test_save_load_survives_a_restart(self, tmp_path, name):
        path = str(tmp_path / name)
        store = CheckpointStore(path=path)
        checkpoint = JobCheckpoint(
            job_id="j", status="preempted", fingerprint="f",
            weights=[1.0, 2.0], state={"iteration_offset": 3},
            chosen={"plan": {}}, trace={"segments": []},
            done_iterations=3, switches_left=1,
        )
        store.save(checkpoint)
        store.close()
        reopened = CheckpointStore(path=path)
        restored = reopened.load("j")
        assert restored.weights == [1.0, 2.0]
        assert restored.status == "preempted"
        assert restored.written_at is not None
        assert reopened.pending() == {"j": restored}

    def test_corrupt_entry_degrades_to_fresh_job(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path / "jobs.json"))
        store.backend.store("j", {"checkpoint_format": "garbage"})
        with pytest.warns(UserWarning, match="treating the job as fresh"):
            assert store.load("j") is None
        # acquire() overwrites the corrupt entry with a fresh lease stub.
        with pytest.warns(UserWarning, match="treating the job as fresh"):
            assert store.acquire("j", "me") is None
        assert store.backend.get("j")["lease"]["owner"] == "me"

    def test_lease_blocks_second_owner(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path / "jobs.json"))
        store.acquire("j", "owner-a")
        with pytest.raises(JobLeaseError):
            store.acquire("j", "owner-b")
        # Re-entrant for the same owner, free after release.
        store.acquire("j", "owner-a")
        store.release("j", "owner-a")
        store.acquire("j", "owner-b")

    def test_expired_lease_is_reacquirable(self, tmp_path):
        clock = {"now": 1000.0}
        store = CheckpointStore(path=str(tmp_path / "jobs.json"),
                                lease_ttl_s=60.0,
                                clock=lambda: clock["now"])
        store.acquire("j", "owner-a")
        with pytest.raises(JobLeaseError):
            store.acquire("j", "owner-b")
        clock["now"] += 61.0
        store.acquire("j", "owner-b")  # the crashed owner's lease expired

    def test_save_refreshes_the_lease(self, tmp_path):
        clock = {"now": 1000.0}
        store = CheckpointStore(path=str(tmp_path / "jobs.json"),
                                lease_ttl_s=60.0,
                                clock=lambda: clock["now"])
        store.acquire("j", "owner-a")
        clock["now"] += 50.0
        store.save(JobCheckpoint(job_id="j", status="running",
                                 fingerprint="f"), owner="owner-a")
        clock["now"] += 50.0  # 100s after acquire, 50s after the save
        with pytest.raises(JobLeaseError):
            store.acquire("j", "owner-b")

    def test_zombie_writer_cannot_clobber_new_owner(self, tmp_path):
        clock = {"now": 1000.0}
        store = CheckpointStore(path=str(tmp_path / "jobs.json"),
                                lease_ttl_s=60.0,
                                clock=lambda: clock["now"])
        store.acquire("j", "owner-a")
        clock["now"] += 61.0
        store.acquire("j", "owner-b")  # took over the expired lease
        with pytest.raises(JobLeaseError, match="lost the lease"):
            store.save(JobCheckpoint(job_id="j", status="running",
                                     fingerprint="f"), owner="owner-a")

    def test_two_threads_cannot_double_run_a_job(self, tmp_path):
        store = CheckpointStore(path=str(tmp_path / "jobs.db"))
        outcomes = []

        def contend(owner):
            try:
                store.acquire("shared", owner)
                outcomes.append("leased")
            except JobLeaseError:
                outcomes.append("blocked")

        threads = [
            threading.Thread(target=contend, args=(f"owner-{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["blocked"] * 3 + ["leased"]

    @pytest.mark.parametrize("name", ["jobs.json", "jobs.db"])
    def test_concurrent_checkpointing_keeps_the_store_intact(
        self, tmp_path, name
    ):
        """Threads checkpointing distinct jobs against one shared store
        file (the advisory-flock / BEGIN IMMEDIATE path) must neither
        corrupt it nor drop each other's entries."""
        path = str(tmp_path / name)
        store = CheckpointStore(path=path)

        def work(job):
            for step in range(1, 11):
                store.save(JobCheckpoint(
                    job_id=job, status="running", fingerprint=job,
                    weights=[float(step)], state=None,
                    chosen={"plan": {}}, trace={"segments": []},
                    done_iterations=step,
                ), owner=f"owner-{job}")

        jobs = [f"job-{i}" for i in range(6)]
        threads = [threading.Thread(target=work, args=(j,)) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reopened = CheckpointStore(path=path)
        persisted = reopened.jobs()
        assert set(persisted) == set(jobs)
        for job in jobs:
            assert persisted[job].done_iterations == 10
            assert persisted[job].weights == [10.0]


# ---------------------------------------------------------------------------
# flaky storage under the lease protocol (FaultyBackend)
# ---------------------------------------------------------------------------
class TestFaultyCheckpointStore:
    @pytest.mark.parametrize("kind", ["json", "sqlite"])
    def test_timeout_on_acquire_leaves_no_lease_behind(self, tmp_path, kind):
        """An acquire that times out before the CAS ran must not have
        leased anything: the immediate retry gets the job."""
        inner = backend_for(tmp_path, kind)
        store = CheckpointStore(
            backend=FaultyBackend(inner, plan={"update": ["timeout"]})
        )
        with pytest.raises(TimeoutError):
            store.acquire("j", "owner-a")
        assert inner.get("j") is None      # nothing was written
        store.acquire("j", "owner-a")      # the retry leases cleanly
        assert inner.get("j")["lease"]["owner"] == "owner-a"

    def test_failed_release_leaves_the_lease_to_expire(self, tmp_path):
        """A release lost to the network keeps the lease on the books;
        the steal path (expiry) reclaims the job rather than any
        unlease-by-force."""
        clock = {"now": 1000.0}
        inner = backend_for(tmp_path, "json")
        store = CheckpointStore(
            backend=FaultyBackend(inner, plan={"update": [None, "reset"]}),
            lease_ttl_s=60.0, clock=lambda: clock["now"],
        )
        store.acquire("j", "owner-a")
        with pytest.raises(ConnectionResetError):
            store.release("j", "owner-a")
        assert inner.get("j")["lease"]["owner"] == "owner-a"  # still held
        with pytest.raises(JobLeaseError):
            store.acquire("j", "owner-b")
        clock["now"] += 61.0
        store.acquire("j", "owner-b")      # expiry, not force, frees it

    def test_ambiguous_checkpoint_ack_resumes_bit_identically(
        self, spec, dataset, training, tmp_path
    ):
        """The fail-after-write crash: the third cadence checkpoint
        lands but the writer dies believing it failed.  The resume must
        pick up from that checkpoint and end bit-identical -- the same
        guarantee the KillingStore test pins, but with the failure
        injected *under* the store, in the backend transport."""
        baseline = run_job(
            spec, dataset, training, str(tmp_path / "base.json"), "u"
        )
        path = str(tmp_path / "jobs.json")
        faulty = FaultyBackend(
            JsonFileBackend(path),
            # update #1 is the acquire; #2-#4 the cadence saves at
            # iterations 7/14/21; the last one lands then "fails".
            plan={"update": [None, None, None, "fail_after_write"]},
        )
        service = make_service(
            spec, checkpoint_store=CheckpointStore(backend=faulty)
        )
        with pytest.raises(ConnectionResetError):
            service.train(dataset, training, fixed_iterations=60,
                          algorithms=("mgd",), job_id="flaky",
                          checkpoint_every=7)
        assert ("update", "fail_after_write") in faulty.injected

        survivor = CheckpointStore(path=path).load("flaky")
        assert survivor.done_iterations == 21  # the ambiguous write landed
        resumed = run_job(spec, dataset, training, path, "flaky")
        assert resumed.job.resumed
        assert resumed.job.status == "done"
        assert np.array_equal(baseline.weights, resumed.weights)
        assert baseline.trace.all_deltas == resumed.trace.all_deltas


# ---------------------------------------------------------------------------
# service-level jobs
# ---------------------------------------------------------------------------
class TestServiceJobs:
    def test_job_needs_a_store(self, spec, dataset, training):
        service = make_service(spec)
        with pytest.raises(CheckpointError, match="checkpoint store"):
            service.train(dataset, training, job_id="j")

    @pytest.mark.parametrize("name", ["jobs.json", "jobs.db"])
    def test_preempt_resume_in_fresh_service_is_bit_identical(
        self, spec, dataset, training, tmp_path, name
    ):
        baseline = run_job(
            spec, dataset, training, str(tmp_path / ("base-" + name)), "u"
        )
        assert baseline.job.status == "done"

        path = str(tmp_path / name)
        first = run_job(spec, dataset, training, path, "sliced",
                        checkpoint_every=10,
                        budget=JobBudget(max_iterations=23))
        assert first.job.preempted
        assert first.job.done_iterations == 23
        assert first.result.stopped_by_monitor

        second = run_job(spec, dataset, training, path, "sliced")
        assert second.job.resumed
        assert second.job.status == "done"
        assert np.array_equal(baseline.weights, second.weights)
        assert baseline.trace.all_deltas == second.trace.all_deltas

    def test_resume_does_not_respeculate(self, spec, dataset, tmp_path):
        # Real speculation (no fixed_iterations) on the first lease; the
        # resume must restore the report from the checkpoint, not pay
        # for speculation again.
        from repro.core.iterations import (
            SpeculationSettings,
            SpeculativeEstimator,
        )

        training = TrainingSpec(task="logreg", tolerance=1e-6, max_iter=60,
                                seed=3)
        speculation = SpeculationSettings(
            sample_size=200, time_budget_s=0.5, max_speculation_iters=400
        )
        path = str(tmp_path / "jobs.json")
        first = OptimizerService(
            spec=spec, seed=5, speculation=speculation, checkpoint_path=path
        ).train(dataset, training, job_id="spec",
                budget=JobBudget(max_iterations=10))
        assert first.job.preempted

        calls = []
        original = SpeculativeEstimator.estimate_all

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        resumed_service = OptimizerService(
            spec=spec, seed=5, speculation=speculation, checkpoint_path=path
        )
        try:
            SpeculativeEstimator.estimate_all = counting
            second = resumed_service.train(dataset, training, job_id="spec")
        finally:
            SpeculativeEstimator.estimate_all = original
        assert second.job.status == "done"
        assert not calls  # zero speculation on resume
        assert second.optimization.cache_hit
        assert str(second.report.chosen_plan) == str(first.report.chosen_plan)

    def test_budget_dividing_the_job_exactly_still_finishes(
        self, spec, dataset, training, tmp_path
    ):
        """A lease whose budget runs out exactly on the job's final
        iteration has *finished* the job: it must stamp 'done', and the
        next submission must not run a 61st iteration."""
        baseline = run_job(
            spec, dataset, training, str(tmp_path / "base.json"), "u"
        )
        path = str(tmp_path / "jobs.json")
        outcome = None
        for lease in range(1, 4):  # 3 x 20 == the 60-iteration job
            outcome = run_job(spec, dataset, training, path, "exact",
                              budget=JobBudget(max_iterations=20))
            assert outcome.job.done_iterations == lease * 20
        assert not outcome.job.preempted
        assert outcome.job.status == "done"
        again = run_job(spec, dataset, training, path, "exact",
                        budget=JobBudget(max_iterations=20))
        assert again.job.already_done
        assert again.job.done_iterations == 60  # no 61st iteration
        assert np.array_equal(baseline.weights, outcome.weights)
        assert baseline.trace.all_deltas == outcome.trace.all_deltas

    def test_many_small_leases_equal_one_run(self, spec, dataset, training,
                                             tmp_path):
        baseline = run_job(
            spec, dataset, training, str(tmp_path / "base.json"), "u"
        )
        path = str(tmp_path / "sliced.json")
        leases = 0
        while True:
            outcome = run_job(spec, dataset, training, path, "sliced",
                              checkpoint_every=5,
                              budget=JobBudget(max_iterations=7))
            leases += 1
            if not outcome.job.preempted:
                break
            assert leases < 30, "job never finished"
        assert leases == 9  # ceil(60 / 7)
        assert np.array_equal(baseline.weights, outcome.weights)
        assert baseline.trace.all_deltas == outcome.trace.all_deltas

    def test_crash_between_checkpoints_resumes_from_last_one(
        self, spec, dataset, training, tmp_path
    ):
        """A hard kill (the store dies mid-write, taking the process
        with it) loses the work since the last checkpoint but nothing
        else: the resumed run replays it and ends bit-identical."""

        class Killed(RuntimeError):
            pass

        class KillingStore(CheckpointStore):
            def __init__(self, kill_after, **kwargs):
                super().__init__(**kwargs)
                self.saves = 0
                self.kill_after = kill_after

            def save(self, checkpoint, owner=None):
                super().save(checkpoint, owner=owner)
                self.saves += 1
                if self.saves >= self.kill_after:
                    raise Killed("simulated crash")

        baseline = run_job(
            spec, dataset, training, str(tmp_path / "base.json"), "u"
        )
        path = str(tmp_path / "jobs.json")
        killer = KillingStore(3, path=path)
        service = make_service(spec, checkpoint_store=killer)
        with pytest.raises(Killed):
            service.train(dataset, training, fixed_iterations=60,
                          algorithms=("mgd",), job_id="crashy",
                          checkpoint_every=7)

        survivor = CheckpointStore(path=path).load("crashy")
        assert survivor.status == "running"
        assert survivor.done_iterations == 21  # 3 cadence saves x 7
        assert survivor.lease is None  # the dying lease was released

        resumed = run_job(spec, dataset, training, path, "crashy")
        assert resumed.job.resumed
        assert np.array_equal(baseline.weights, resumed.weights)
        assert baseline.trace.all_deltas == resumed.trace.all_deltas

    def test_unusable_plan_entry_degrades_to_reoptimize(
        self, spec, dataset, training, tmp_path
    ):
        """A resume whose checkpointed pricing decision no longer
        decodes (future ENTRY_FORMAT, corruption) must still resume the
        training from the checkpoint -- bit-identically -- and fall
        back to re-optimizing for the report instead of serving None
        (which used to crash summary())."""
        baseline = run_job(
            spec, dataset, training, str(tmp_path / "base.json"), "u"
        )
        path = str(tmp_path / "jobs.json")
        run_job(spec, dataset, training, path, "hurt",
                budget=JobBudget(max_iterations=20))
        store = CheckpointStore(path=path)
        checkpoint = store.load("hurt")
        checkpoint.plan_entry["entry_format"] = 999
        store.save(checkpoint)

        with pytest.warns(UserWarning, match="re-optimizing"):
            resumed = run_job(spec, dataset, training, path, "hurt")
        assert resumed.job.status == "done"
        assert resumed.report is not None
        assert "done" in resumed.summary()  # the old crash site
        assert np.array_equal(baseline.weights, resumed.weights)
        assert baseline.trace.all_deltas == resumed.trace.all_deltas

    def test_resume_preserves_the_entry_stamp_and_age(
        self, spec, dataset, training, tmp_path
    ):
        """A resume must carry the checkpointed pricing entry verbatim:
        re-stamping it with the live calibration digest would mislabel
        stale pricing as current, and re-stamping written_at would
        rejuvenate an entry the disk-tier TTL should age out."""
        path = str(tmp_path / "jobs.json")
        run_job(spec, dataset, training, path, "stamped",
                budget=JobBudget(max_iterations=20))
        store = CheckpointStore(path=path)
        original = store.load("stamped").plan_entry
        original_digest = original["calibration_digest"]
        original_written = original["written_at"]

        resumed_service = make_service(spec, checkpoint_path=path)
        # The live calibration state drifts before the resume.
        resumed_service.calibration.observe("mgd", spec, cost_ratio=2.0)
        assert resumed_service.calibration.state_digest() != original_digest
        outcome = resumed_service.train(
            dataset, training, fixed_iterations=60, algorithms=("mgd",),
            job_id="stamped",
        )
        assert outcome.job.status == "done"
        final = CheckpointStore(path=path).load("stamped").plan_entry
        assert final["calibration_digest"] == original_digest
        assert final["written_at"] == original_written

    def test_resume_pins_the_checkpointed_adaptive_mode(
        self, spec, dataset, training, tmp_path
    ):
        path = str(tmp_path / "jobs.json")
        service = make_service(spec, checkpoint_path=path)
        service.train(dataset, training, fixed_iterations=60,
                      algorithms=("mgd",), job_id="modal", adaptive=True,
                      budget=JobBudget(max_iterations=20))
        assert CheckpointStore(path=path).load("modal").adaptive

        # Resuming with the flag forgotten: the job's own mode wins
        # (half-applying non-adaptive would keep the persisted switch
        # allowance monitoring while feeding no calibration).
        with pytest.warns(UserWarning, match="resuming with that mode"):
            outcome = run_job(spec, dataset, training, path, "modal")
        assert outcome.job.status == "done"
        assert outcome.adaptive is not None  # ran adaptively after all

    def test_finished_job_resubmission_is_idempotent(
        self, spec, dataset, training, tmp_path
    ):
        path = str(tmp_path / "jobs.json")
        first = run_job(spec, dataset, training, path, "once")
        again = run_job(spec, dataset, training, path, "once")
        assert again.job.already_done
        assert again.job.status == "done"
        assert np.array_equal(first.weights, again.weights)
        # Nothing executed: the fresh service never built an optimizer.
        assert again.trace.total_iterations == first.trace.total_iterations

    def test_job_id_is_bound_to_its_workload(self, spec, dataset, training,
                                             tmp_path):
        path = str(tmp_path / "jobs.json")
        run_job(spec, dataset, training, path, "bound",
                budget=JobBudget(max_iterations=10))
        other = TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                             max_iter=60, seed=99)
        with pytest.raises(CheckpointError, match="different workload"):
            run_job(spec, dataset, other, path, "bound")

    def test_concurrent_leases_of_one_job_do_not_double_run(
        self, spec, dataset, training, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "jobs.db")
        barrier = threading.Barrier(2)
        outcomes = []
        refused = threading.Event()
        real_acquire = CheckpointStore.acquire

        def acquire_and_hold(store, job_id, owner):
            # The winner keeps its lease until the sibling has been
            # refused: a 40-iteration lease can otherwise end before the
            # other thread even asks, and both would run in turn.
            checkpoint = real_acquire(store, job_id, owner)
            assert refused.wait(timeout=30)
            return checkpoint

        monkeypatch.setattr(CheckpointStore, "acquire", acquire_and_hold)

        def lease():
            barrier.wait()
            try:
                outcome = run_job(spec, dataset, training, path, "hot",
                                  budget=JobBudget(max_iterations=40))
                outcomes.append(("ran", outcome.job.done_iterations))
            except JobLeaseError:
                outcomes.append(("blocked", None))
                refused.set()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                # Anything else fails the test now, with its traceback,
                # instead of leaving the winner to wait out its 30 s.
                outcomes.append(("raised", exc))
                refused.set()

        threads = [threading.Thread(target=lease) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for kind, exc in outcomes:
            if kind == "raised":
                raise exc
        kinds = sorted(kind for kind, _ in outcomes)
        assert kinds == ["blocked", "ran"]
        # The blocked caller retries once the lease is free and finishes
        # the job from the winner's checkpoint.
        final = run_job(spec, dataset, training, path, "hot")
        assert final.job.status == "done"
        assert final.job.done_iterations == 60

    def test_lease_seconds_budget_preempts(self, spec, dataset, tmp_path):
        # A wall-clock budget so tight the first iteration exceeds it:
        # the lease must stop gracefully (not crash) with progress saved.
        training = TrainingSpec(task="logreg", step_size=1.0,
                                tolerance=1e-12, max_iter=60, seed=3)
        outcome = run_job(spec, dataset, training,
                          str(tmp_path / "jobs.json"), "slow",
                          budget=JobBudget(max_seconds=1e-9))
        assert outcome.job.preempted
        assert outcome.job.done_iterations >= 1


# ---------------------------------------------------------------------------
# resume in a genuinely new process (the acceptance scenario)
# ---------------------------------------------------------------------------
RESUME_SCRIPT = """
import sys

import numpy as np

from repro.cluster import ClusterSpec
from repro.core.plans import TrainingSpec
from repro.service import OptimizerService

from support import make_dataset

path, weights_out, deltas_out = sys.argv[1:4]
spec = ClusterSpec(jitter_sigma=0.0)
dataset = make_dataset(n_phys=600, d=8, task="logreg", spec=spec, seed=4)
training = TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                        max_iter=60, seed=3)
service = OptimizerService(spec=spec, seed=5, checkpoint_path=path)
outcome = service.train(dataset, training, fixed_iterations=60,
                        algorithms=("mgd",), job_id="xproc")
assert outcome.job.resumed, outcome.job
assert outcome.job.status == "done", outcome.job
np.save(weights_out, outcome.weights)
np.save(deltas_out, np.asarray(outcome.trace.all_deltas))
"""


class TestNewProcessResume:
    @pytest.mark.parametrize("name", ["jobs.json", "jobs.db"])
    def test_killed_job_resumes_bit_identically_across_processes(
        self, spec, dataset, training, tmp_path, name
    ):
        baseline = run_job(
            spec, dataset, training, str(tmp_path / ("b-" + name)), "u"
        )
        path = str(tmp_path / name)
        first = run_job(spec, dataset, training, path, "xproc",
                        checkpoint_every=10,
                        budget=JobBudget(max_iterations=31))
        assert first.job.preempted

        weights_out = str(tmp_path / "weights.npy")
        deltas_out = str(tmp_path / "deltas.npy")
        env = {
            "PYTHONPATH": (
                f"{REPO_ROOT / 'src'}:{REPO_ROOT / 'tests'}"
            ),
            "PATH": "/usr/bin:/bin",
        }
        proc = subprocess.run(
            [sys.executable, "-c", RESUME_SCRIPT, path, weights_out,
             deltas_out],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert np.array_equal(baseline.weights, np.load(weights_out))
        np.testing.assert_array_equal(
            np.asarray(baseline.trace.all_deltas), np.load(deltas_out)
        )


CRASH_AFTER_FINAL_SAVE = """
import os
import sys

from repro.cluster import ClusterSpec
from repro.core.plans import TrainingSpec
from repro.service import CheckpointStore, OptimizerService

from support import make_dataset

real_save = CheckpointStore.save


def save(self, checkpoint, owner=None):
    ended = real_save(self, checkpoint, owner=owner)
    if checkpoint.status in ("done", "preempted"):
        os._exit(17)  # the process dies: nothing after the save runs
    return ended


CheckpointStore.save = save
spec = ClusterSpec(jitter_sigma=0.0)
dataset = make_dataset(n_phys=600, d=8, task="logreg", spec=spec, seed=4)
training = TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                        max_iter=60, seed=3)
service = OptimizerService(spec=spec, seed=5, checkpoint_path=sys.argv[1])
service.train(dataset, training, fixed_iterations=60, algorithms=("mgd",),
              job_id="crash", checkpoint_every=10)
"""


class TestCrashAfterFinalSave:
    @pytest.mark.parametrize("name", ["jobs.json", "jobs.db"])
    def test_immediate_resubmission_returns_the_stored_outcome(
        self, spec, dataset, training, tmp_path, name
    ):
        """A process that dies right after writing a job's final
        checkpoint leaves no lease behind: the final save ended it, so
        re-submitting at once returns the outcome instead of waiting
        out ``lease_ttl_s`` behind a JobLeaseError."""
        path = str(tmp_path / name)
        env = {
            "PYTHONPATH": f"{REPO_ROOT / 'src'}:{REPO_ROOT / 'tests'}",
            "PATH": "/usr/bin:/bin",
        }
        proc = subprocess.run(
            [sys.executable, "-c", CRASH_AFTER_FINAL_SAVE, path],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 17, proc.stderr
        stored = CheckpointStore(path=path).load("crash")
        assert stored.status == "done"
        assert stored.lease is None

        again = run_job(spec, dataset, training, path, "crash")
        assert again.job.already_done
        baseline = run_job(
            spec, dataset, training, str(tmp_path / ("b-" + name)), "u"
        )
        assert np.array_equal(baseline.weights, again.weights)


# ---------------------------------------------------------------------------
# sparse jobs: the row gather changes no stored float
# ---------------------------------------------------------------------------
def scipy_rows(X, rows):
    return X[rows]


class TestSparseRowGather:
    @pytest.fixture
    def sparse_dataset(self, spec):
        return make_dataset(n_phys=600, d=12, task="logreg", spec=spec,
                            seed=4, sparse=True, density=0.5)

    @staticmethod
    def preempt_and_resume(spec, dataset, training, path, algorithm):
        kwargs = {"fixed_iterations": 60, "algorithms": (algorithm,),
                  "batch_sizes": {"mgd": 64}, "job_id": "sparse",
                  "checkpoint_every": 10}
        first = make_service(spec, checkpoint_path=path).train(
            dataset, training, budget=JobBudget(max_iterations=23), **kwargs
        )
        assert first.job.preempted
        second = make_service(spec, checkpoint_path=path).train(
            dataset, training, **kwargs
        )
        assert second.job.resumed and second.job.status == "done"
        return first, second

    @pytest.mark.parametrize("algorithm", ["sgd", "mgd", "svrg"])
    def test_preempted_and_resumed_jobs_equal_scipy_indexing(
        self, algorithm, spec, sparse_dataset, training, tmp_path,
        monkeypatch,
    ):
        gathered = []

        def counting(X, rows):
            out = take_rows(X, rows)
            gathered.append(type(out))
            return out

        monkeypatch.setattr(executor_module, "take_rows", counting)
        ours = self.preempt_and_resume(
            spec, sparse_dataset, training, str(tmp_path / "a.db"), algorithm
        )
        assert gathered and set(gathered) == {CsrRows}
        monkeypatch.setattr(executor_module, "take_rows", scipy_rows)
        theirs = self.preempt_and_resume(
            spec, sparse_dataset, training, str(tmp_path / "b.db"), algorithm
        )
        for mine, reference in zip(ours, theirs):
            assert mine.weights.tobytes() == reference.weights.tobytes()
            assert mine.trace.all_deltas == reference.trace.all_deltas
            assert mine.result.state.to_dict() \
                == reference.result.state.to_dict()
        stored = [CheckpointStore(path=str(tmp_path / f"{side}.db"))
                  .load("sparse") for side in "ab"]
        assert stored[0].weights == stored[1].weights
        assert stored[0].state == stored[1].state

    def test_custom_compute_still_receives_a_scipy_csr(
        self, spec, sparse_dataset, training
    ):
        seen = []

        class RecordingCompute(GradientCompute):
            def compute(self, X, y, context):
                seen.append(X)
                return super().compute(X, y, context)

        operators = default_operators(
            d=12, gradient=training.gradient(), batch_size=1,
            max_iter=training.max_iter, tolerance=training.tolerance,
        )
        operators.compute = RecordingCompute(training.gradient())
        for mode in ("lazy", "eager"):
            execute_plan(
                SimulatedCluster(spec, seed=5), sparse_dataset,
                GDPlan("sgd", mode, "shuffle"), training, operators,
            )
        assert seen
        assert all(isinstance(X, sp.csr_matrix) for X in seen)


# ---------------------------------------------------------------------------
# disk-tier TTL hygiene (ROADMAP item riding along with the job store)
# ---------------------------------------------------------------------------
class TestPlanStoreAging:
    def make(self, spec, **kwargs):
        from repro.core.iterations import SpeculationSettings

        kwargs.setdefault("speculation", SpeculationSettings(
            sample_size=200, time_budget_s=0.5, max_speculation_iters=400
        ))
        return OptimizerService(spec=spec, seed=5, **kwargs)

    def age_entry(self, path, seconds):
        backend = JsonFileBackend(path)
        entries = backend.load()
        for key, payload in entries.items():
            payload["written_at"] = time.time() - seconds
            backend.store(key, payload)
        return list(entries)

    def test_warm_load_ages_out_old_entries(self, spec, dataset, tmp_path):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        path = str(tmp_path / "plans.json")
        first = self.make(spec, cache_path=path)
        first.optimize(dataset, training)
        first.close()
        (key,) = self.age_entry(path, seconds=10_000)

        aged = self.make(spec, cache_path=path, store_ttl_s=3600)
        assert aged.warm_loaded == 0
        assert aged.metrics.value("service.expired_persisted") == 1
        # Aged out means *deleted*, not skipped: the disk tier no longer
        # holds the entry at all.
        assert JsonFileBackend(path).get(key) is None

        fresh = self.make(spec, cache_path=path, store_ttl_s=None)
        assert fresh.warm_loaded == 0  # gone for TTL-free readers too

    def test_read_through_ages_out_old_entries(self, spec, dataset,
                                               tmp_path):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        path = str(tmp_path / "plans.json")
        first = self.make(spec, cache_path=path)
        computed = first.optimize(dataset, training)
        first.close()
        self.age_entry(path, seconds=10_000)

        service = self.make(spec, cache_path=path, store_ttl_s=3600)
        # Not warm-loaded (aged), so this is a read-through miss; the
        # entry must not be served and the workload computes cold.
        result = service.optimize(dataset, training)
        assert not result.cache_hit
        assert not result.recalibrated
        assert str(result.chosen_plan) == str(computed.chosen_plan)

    def test_unstamped_entries_never_age(self, spec, dataset, tmp_path):
        training = TrainingSpec(task="logreg", tolerance=1e-2, seed=1)
        path = str(tmp_path / "plans.json")
        first = self.make(spec, cache_path=path)
        first.optimize(dataset, training)
        first.close()
        backend = JsonFileBackend(path)
        for key, payload in backend.load().items():
            del payload["written_at"]  # a pre-hygiene store
            backend.store(key, payload)

        service = self.make(spec, cache_path=path, store_ttl_s=1)
        assert service.warm_loaded == 1
        assert service.metrics.value("service.expired_persisted") == 0
