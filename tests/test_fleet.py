"""Fleet-scale serving: multi-worker drain, lease-steal races, chaos.

The contract under test: N ``repro worker`` processes pointed at one
shared checkpoint store coordinate through leases alone -- every
submitted job completes **exactly once** (machine-checked by the
lease-history audit), and the final weights and delta trajectories are
**bit-identical** to a single-worker baseline no matter which workers
ran which segments or how many of them were SIGKILLed mid-flight.

Layers covered here:

* the lease-steal race (two workers CAS for one expired lease, over
  SQLite *and* the remote ``tcp://`` backend: one winner, one clean
  refusal, zombie writes rejected);
* the in-process :class:`FleetWorker` loop (drain, steal+resume,
  heartbeats, progress/ETA derivation, the audit itself);
* the chaos suite: 3 worker subprocesses drain a 20-job store while a
  chaos controller SIGKILLs and replaces workers mid-drain.
"""

import itertools
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ML4all
from repro.runtime import ExecutionTrace
from repro.service import (
    CheckpointError,
    CheckpointStore,
    FleetWorker,
    JobCheckpoint,
    JobLeaseError,
    MemoryBackend,
    RemoteBackend,
    StoreServer,
    audit_lease_history,
    job_progress,
    read_heartbeats,
)
from repro.service.worker import heartbeat_key

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}

#: The chaos suite's fleet shape (ISSUE: 3 workers, 20 jobs).
CHAOS_JOBS = 20
CHAOS_WORKERS = 3
#: Iterations per job; long enough that SIGKILLs land mid-job.
JOB_ITERATIONS = 40


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """One deterministic CSV dataset shared by every fleet process.

    Submitting jobs by *file path* is what makes the descriptor
    re-issuable from any worker: the workload fingerprint hashes the
    file's content, so every process resolves the identical workload.
    """
    from repro.data import make_classification

    rng = np.random.default_rng(11)
    X, y, _ = make_classification(240, 6, rng=rng)
    path = tmp_path_factory.mktemp("data") / "fleet.csv"
    np.savetxt(path, np.column_stack([y, X]), delimiter=",")
    return str(path)


def descriptor(dataset_file, job_id, index=0, iterations=JOB_ITERATIONS):
    """A re-issuable job descriptor (the checkpointed request shape).

    Per-job seeds give every job its own trajectory, so the chaos
    suite's bit-identity check would catch cross-job contamination,
    not just wrong iteration counts.
    """
    return {
        "dataset": dataset_file, "task": "logreg", "step": 1.0,
        "epsilon": 1e-12, "max_iter": iterations,
        "fixed_iterations": iterations, "algorithm": "mgd",
        "seed": 3 + index, "checkpoint_every": 5, "job_id": job_id,
    }


def submit_jobs(store, dataset_file, count, iterations=JOB_ITERATIONS):
    ids = [f"fleet-{n:02d}" for n in range(count)]
    for n, job_id in enumerate(ids):
        store.submit(job_id, descriptor(dataset_file, job_id, index=n,
                                        iterations=iterations))
    return ids


def job_outcome(checkpoint):
    """(weights, deltas) of a finished job -- the bit-identity pair."""
    trace = ExecutionTrace.from_dict(checkpoint.trace)
    return list(checkpoint.weights), list(trace.all_deltas)


# ---------------------------------------------------------------------------
# the lease-steal race (satellite: exactly one winner, everywhere)
# ---------------------------------------------------------------------------
class TestLeaseStealRace:
    @pytest.fixture(params=["sqlite", "remote"])
    def fleet_stores(self, request, tmp_path):
        """Two CheckpointStore handles (two 'workers') over one shared
        backend, plus a shared fake clock -- over SQLite and over a
        live ``repro store`` server."""
        clock = {"now": 1000.0}
        tick = lambda: clock["now"]  # noqa: E731
        if request.param == "sqlite":
            path = str(tmp_path / "jobs.db")
            stores = [
                CheckpointStore(path=path, lease_ttl_s=60.0, clock=tick)
                for _ in range(2)
            ]
            yield stores, clock
            for store in stores:
                store.close()
        else:
            with StoreServer(backend=MemoryBackend()) as server:
                stores = [
                    CheckpointStore(
                        backend=RemoteBackend("127.0.0.1", server.port,
                                              namespace="jobs"),
                        lease_ttl_s=60.0, clock=tick,
                    )
                    for _ in range(2)
                ]
                yield stores, clock
                for store in stores:
                    store.close()

    def test_expired_lease_has_exactly_one_stealer(self, fleet_stores):
        (store_a, store_b), clock = fleet_stores
        store_a.acquire("j", "doomed")  # the peer that will "crash"
        clock["now"] += 61.0            # ...its lease expires

        barrier = threading.Barrier(2)
        outcomes = {}

        def contend(name, store):
            barrier.wait()
            try:
                store.acquire("j", name)
                outcomes[name] = "leased"
            except JobLeaseError as exc:
                # The loser's refusal is clean and explanatory, not a
                # crash or a partial lease.
                assert "refusing to double-run" in str(exc)
                outcomes[name] = "blocked"

        threads = [
            threading.Thread(target=contend, args=(name, store))
            for name, store in (("w1", store_a), ("w2", store_b))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes.values()) == ["blocked", "leased"]

        winner = next(n for n, out in outcomes.items() if out == "leased")
        persisted = store_b.backend.get("j")
        assert persisted["lease"]["owner"] == winner

        # The zombie's late write: "doomed" wakes up believing it still
        # owns the job.  The CAS under save() must reject it.
        with pytest.raises(JobLeaseError, match="lost the lease"):
            store_a.save(
                JobCheckpoint(job_id="j", status="running",
                              fingerprint="f", done_iterations=99),
                owner="doomed",
            )
        assert store_b.backend.get("j")["lease"]["owner"] == winner
        assert store_b.backend.get("j").get("done_iterations", 0) != 99

    def test_unexpired_lease_blocks_both_contenders(self, fleet_stores):
        (store_a, store_b), clock = fleet_stores
        store_a.acquire("j", "alive")
        clock["now"] += 30.0  # half the TTL: the owner is presumed live
        for store, name in ((store_a, "w1"), (store_b, "w2")):
            with pytest.raises(JobLeaseError):
                store.acquire("j", name)


# ---------------------------------------------------------------------------
# the in-process worker loop
# ---------------------------------------------------------------------------
class TestFleetWorker:
    def make_system(self, tmp_path, name="jobs.json"):
        return ML4all(seed=7, checkpoint_path=str(tmp_path / name))

    def test_worker_requires_a_checkpoint_store(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="checkpoint store"):
            FleetWorker(ML4all(seed=7))

    def test_drain_runs_every_queued_job_and_audits_clean(
        self, tmp_path, dataset_file
    ):
        system = self.make_system(tmp_path)
        store = system.service().checkpoints
        ids = submit_jobs(store, dataset_file, 3, iterations=25)
        worker = FleetWorker(system, worker_id="w-a", poll_s=0.05)
        totals = worker.run(drain=True)
        assert totals == {"done": 3, "failed": 0, "steals": 0}
        for job_id in ids:
            checkpoint = store.load(job_id)
            assert checkpoint.status == "done"
            assert checkpoint.done_iterations == 25
            assert audit_lease_history(checkpoint) == []
            # The audit trail names this worker on every lease.
            assert [r["worker"] for r in checkpoint.history] == ["w-a"]
        # The worker's parting heartbeat is in the shared store, and
        # the job listing is not confused by it.
        beats = read_heartbeats(store.backend.load(), now=time.time())
        assert [(b["worker"], b["status"], b["jobs_done"])
                for b in beats] == [("w-a", "stopped", 3)]
        assert set(store.jobs()) == set(ids)

    def test_drain_exits_after_a_pass_in_which_every_job_failed(
        self, tmp_path, dataset_file, monkeypatch
    ):
        """Nothing completed, no peer holds a lease: no event is left
        that could change the outcome, so re-claiming would only
        re-fail forever.  The totals keep ``failed``."""
        system = self.make_system(tmp_path)
        store = system.service().checkpoints
        ids = submit_jobs(store, dataset_file, 2, iterations=25)
        claimed = []

        def refusing(request, **kwargs):
            claimed.append(request["job_id"])
            raise CheckpointError("bound to another workload")

        monkeypatch.setattr(system, "train_request", refusing)
        ticks = itertools.count()
        worker = FleetWorker(system, worker_id="w-a", poll_s=0,
                             clock=lambda: float(next(ticks)))
        with pytest.warns(UserWarning, match="leaving its checkpoint"):
            totals = worker.run(drain=True, max_seconds=10_000)
        assert totals == {"done": 0, "failed": 2, "steals": 0}
        assert claimed == ids  # one pass, nothing re-claimed
        assert set(store.pending()) == set(ids)  # left for a retry

    def test_worker_steals_an_expired_lease_and_resumes(
        self, tmp_path, dataset_file
    ):
        # The doomed peer: runs the job partway (one 15-iteration
        # lease), then "crashes" holding a fresh lease.
        system = self.make_system(tmp_path)
        store = system.service().checkpoints
        submit_jobs(store, dataset_file, 1, iterations=30)
        partial = dict(descriptor(dataset_file, "fleet-00", iterations=30),
                       lease_iterations=15)
        system.service().worker_id = "w-dead"
        outcome = system.train_request(partial)
        assert outcome.job.preempted
        assert outcome.job.done_iterations == 15
        # It dies holding a lease that has already expired: taken on a
        # clock two minutes behind, a one-minute lease ran out a minute
        # ago.
        zombie = CheckpointStore(backend=store.backend, lease_ttl_s=60,
                                 clock=lambda: time.time() - 120)
        assert zombie.acquire("fleet-00", "zombie-owner") is not None

        stealer = FleetWorker(system, worker_id="w-thief", poll_s=0.05)
        totals = stealer.run(drain=True)
        assert totals["done"] == 1
        assert totals["steals"] == 1
        checkpoint = store.load("fleet-00")
        assert checkpoint.status == "done"
        assert checkpoint.done_iterations == 30
        assert audit_lease_history(checkpoint) == []
        # Two leases partitioned the range 0..30 exactly; the steal's
        # record names the thief.
        spans = [(r["start_iteration"], r["end_iteration"],
                  r["worker"]) for r in checkpoint.history]
        assert spans == [(0, 15, "w-dead"), (15, 30, "w-thief")]

    def test_progress_and_eta_derive_from_the_checkpoint(
        self, tmp_path, dataset_file
    ):
        system = self.make_system(tmp_path)
        store = system.service().checkpoints
        submit_jobs(store, dataset_file, 1, iterations=30)

        queued = job_progress(store.load("fleet-00"))
        assert queued["status"] == "queued"
        assert queued["eta_sim_seconds"] is None  # no trace yet

        partial = dict(descriptor(dataset_file, "fleet-00", iterations=30),
                       lease_iterations=10)
        system.service().worker_id = "w-a"
        system.train_request(partial)
        midway = job_progress(store.load("fleet-00"), now=time.time())
        assert midway["status"] == "preempted"
        assert midway["done_iterations"] == 10
        assert midway["remaining_iterations"] == 20
        assert midway["predicted_iterations"] == 30
        assert midway["per_iteration_s"] > 0.0
        assert midway["eta_sim_seconds"] == pytest.approx(
            20 * midway["per_iteration_s"]
        )
        assert midway["worker"] == "w-a"
        assert not midway["leased"]  # the lease was released cleanly

        FleetWorker(system, worker_id="w-b", poll_s=0.05).run(drain=True)
        finished = job_progress(store.load("fleet-00"))
        assert finished["status"] == "done"
        assert finished["remaining_iterations"] == 0
        assert finished["eta_sim_seconds"] == 0.0
        assert finished["leases"] == 2

    def test_audit_flags_gaps_overlaps_and_shortfalls(self):
        def checkpoint(history, done, status="done"):
            return JobCheckpoint(
                job_id="j", status=status, fingerprint="f",
                done_iterations=done, history=history,
            )

        span = lambda a, b, status="preempted": {  # noqa: E731
            "owner": "o", "worker": "w",
            "start_iteration": a, "end_iteration": b, "status": status,
        }
        clean = [span(0, 10), span(10, 30, "done")]
        assert audit_lease_history(checkpoint(clean, 30)) == []
        gap = audit_lease_history(
            checkpoint([span(0, 10), span(12, 30, "done")], 30)
        )
        assert any("gap" in p for p in gap)
        overlap = audit_lease_history(
            checkpoint([span(0, 10), span(5, 30, "done")], 30)
        )
        assert any("overlap" in p for p in overlap)
        short = audit_lease_history(
            checkpoint([span(0, 10, "done")], 30)
        )
        assert any("banked" in p for p in short)
        silent = audit_lease_history(checkpoint([], 30))
        assert any("no lease history" in p for p in silent)
        assert audit_lease_history(checkpoint([], 0, status="queued")) == []


# ---------------------------------------------------------------------------
# the chaos suite
# ---------------------------------------------------------------------------
def spawn_worker(checkpoint_ref, worker_id, log_path):
    log = open(log_path, "a")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--checkpoint", checkpoint_ref, "--drain",
         "--worker-id", worker_id, "--poll", "0.1",
         "--lease-ttl", "2", "--log-level", "warning"],
        stdout=log, stderr=subprocess.STDOUT, text=True, env=ENV,
    )


@pytest.fixture(scope="module")
def single_worker_baseline(tmp_path_factory, dataset_file):
    """The ground truth: one worker process drains all 20 jobs alone."""
    root = tmp_path_factory.mktemp("baseline")
    path = str(root / "jobs.db")
    store = CheckpointStore(path=path)
    ids = submit_jobs(store, dataset_file, CHAOS_JOBS)
    store.close()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "worker", "--checkpoint", path,
         "--drain", "--worker-id", "baseline", "--poll", "0.1",
         "--log-level", "warning"],
        capture_output=True, text=True, timeout=600, env=ENV,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    store = CheckpointStore(path=path)
    results = {}
    for job_id in ids:
        checkpoint = store.load(job_id)
        assert checkpoint.status == "done", (job_id, checkpoint.status)
        results[job_id] = job_outcome(checkpoint)
    store.close()
    return results


class TestChaosFleet:
    @pytest.mark.parametrize("kind", ["sqlite", "tcp"])
    def test_sigkilled_fleet_drains_exactly_once_bit_identically(
        self, tmp_path, dataset_file, single_worker_baseline, kind
    ):
        """3 workers drain 20 jobs; the chaos controller SIGKILLs two
        of them mid-drain (replacing each), so in-flight leases die and
        must be stolen.  Every job completes exactly once (lease-history
        audit) and every trajectory is bit-identical to the
        single-worker baseline."""
        server = None
        fleet = {}
        if kind == "sqlite":
            checkpoint_ref = str(tmp_path / "fleet.db")
        else:
            server = StoreServer(
                backend=MemoryBackend(), host="127.0.0.1"
            )
            checkpoint_ref = \
                f"tcp://127.0.0.1:{server.start()}/fleet"
        try:
            store = CheckpointStore(path=checkpoint_ref)
            ids = submit_jobs(store, dataset_file, CHAOS_JOBS)

            log = tmp_path / "workers.log"
            fleet = {
                n: spawn_worker(checkpoint_ref, f"w{n}", log)
                for n in range(CHAOS_WORKERS)
            }
            kill_thresholds = [3, 9]  # done-counts that trigger chaos
            killed = []
            # The controller leases the last job itself until both kills
            # have landed: however fast the fleet drains, it cannot
            # finish before the chaos happened.
            gate, gatekeeper = ids[-1], "chaos-controller"
            store.acquire(gate, gatekeeper)
            deadline = time.time() + 480
            done = 0
            while time.time() < deadline:
                jobs = store.jobs()
                done = sum(1 for job_id in ids
                           if job_id in jobs
                           and jobs[job_id].status == "done")
                if done == CHAOS_JOBS:
                    break
                victim = len(killed) % CHAOS_WORKERS
                # A victim dies only once it is up (its first heartbeat
                # is in the store): the survivors' roll call below
                # includes the killed workers' last beats.
                if kill_thresholds and done >= kill_thresholds[0] \
                        and store.backend.get(
                            heartbeat_key(f"w{victim}")) is not None:
                    kill_thresholds.pop(0)
                    proc = fleet[victim]
                    if proc.poll() is None:
                        proc.send_signal(signal.SIGKILL)
                        proc.wait()
                    killed.append(victim)
                    # The replacement keeps the fleet at full strength.
                    fleet[victim] = spawn_worker(
                        checkpoint_ref, f"w{victim}r", log
                    )
                    if not kill_thresholds:
                        store.release(gate, gatekeeper)
                # Wall-clock on purpose: the workers are other
                # processes, and the store is the only place their
                # progress shows, so the controller polls it.  The
                # pause bounds how often it reads; no assertion depends
                # on its length.
                time.sleep(0.02)

            # Drain-mode workers exit on their own once the store is
            # empty of work.
            for proc in fleet.values():
                assert proc.wait(timeout=120) == 0, log.read_text()
            assert done == CHAOS_JOBS, (
                f"only {done}/{CHAOS_JOBS} jobs finished before the "
                f"deadline\n{log.read_text()}"
            )
            assert len(killed) == 2  # the chaos actually happened

            final = CheckpointStore(path=checkpoint_ref)
            jobs = final.jobs()
            for job_id in ids:
                checkpoint = jobs[job_id]
                assert checkpoint.status == "done"
                assert checkpoint.done_iterations == JOB_ITERATIONS
                # Exactly once: the lease records partition 0..40 with
                # no gap (lost work) and no overlap (double-run).
                assert audit_lease_history(checkpoint) == [], job_id
                # Bit-identical to the lone-worker ground truth.
                weights, deltas = job_outcome(checkpoint)
                base_weights, base_deltas = single_worker_baseline[job_id]
                assert weights == base_weights, job_id
                assert deltas == base_deltas, job_id

            # The fleet's heartbeats ended up in the shared store (the
            # SIGKILLed workers' last beats too -- they could not say
            # goodbye, which is the point).
            beats = {
                beat["worker"]: beat
                for beat in read_heartbeats(final.backend.load())
            }
            replacements = {f"w{victim}r" for victim in killed}
            assert set(beats) == \
                {f"w{n}" for n in range(CHAOS_WORKERS)} | replacements
            survivors = {worker_id for worker_id, beat in beats.items()
                         if beat["status"] == "stopped"}
            # Clean exits said goodbye; the SIGKILLed two could not.
            assert replacements <= survivors
            assert len(survivors) == CHAOS_WORKERS
            final.close()
            store.close()
        finally:
            for proc in fleet.values():
                if proc.poll() is None:
                    proc.kill()
            if server is not None:
                server.stop()
