"""The checkpoint write path: one encode and one commit per durability
point, the same bytes as before.

* golden payloads: seeded durable jobs store, write for write, the JSON
  text pinned in ``golden/checkpoint_payloads.json`` (clock- and
  identity-dependent values masked), less each lease's final leased
  row: the pinning commit saved a lease's final checkpoint leased and
  then released it in a second write, whose row the final save now
  writes itself;
* cost: no ``dataclasses.asdict`` anywhere near a checkpoint, one
  ``json.dumps`` per ``save()``, an exact transaction count per job, and
  no write at all for an ``update`` that changes nothing;
* aliasing: nothing a caller still holds reaches into a stored entry;
* SQLite: WAL + ``synchronous=FULL``, a process killed mid-transaction
  loses only that transaction, cross-process check-and-set, a forked
  child gets its own connection;
* compatibility: store files written by the commit before this change
  (``golden/parent_jobs.db`` / ``.json``, a job preempted at iteration
  37) resume here, and a file written here reads back through a plain
  per-operation connection as that commit opened it.

The golden files pin the commit *before* the write path changed.
``python tests/test_checkpoint_write_path.py`` regenerates them from
whatever code is on ``PYTHONPATH``, so only do that on purpose.
"""

import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import sqlite3
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core.plans import TrainingSpec
from repro.gd.state import STATE_FORMAT, OptimizerState
from repro.runtime import AdaptiveSettings, JobBudget, PerturbedCostModel
from repro.runtime.trace import TRACE_FORMAT, ExecutionTrace, PlanSegment
from repro.service import (
    CheckpointStore,
    JobCheckpoint,
    JsonFileBackend,
    MemoryBackend,
    OptimizerService,
    SqliteBackend,
)
from repro.service.backends import STORE_FORMAT
from repro.service.checkpoint import CHECKPOINT_FORMAT

from support import make_dataset

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "checkpoint_payloads.json"
PARENT_STORES = {"sqlite": GOLDEN_DIR / "parent_jobs.db",
                 "json": GOLDEN_DIR / "parent_jobs.json"}

N_TOTAL = 60
KILL_AT = 37
#: Values that differ between two runs of the same code: wall clocks
#: and lease identities.
MASKED = frozenset({"written_at", "owner", "expires_at",
                    "optimizer_wall_s", "speculation_wall_s"})


def mask(value):
    """``value`` with every :data:`MASKED` key's value replaced, key
    order kept."""
    if isinstance(value, dict):
        return {k: "*" if k in MASKED and v is not None else mask(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [mask(v) for v in value]
    return value


def masked_text(text) -> str:
    """Stored JSON text, masked.  Decoding and re-encoding is the
    identity on these payloads (float reprs round-trip, key order is
    kept), which the golden test asserts too."""
    return json.dumps(mask(json.loads(text)))


def digest(text) -> dict:
    return {"bytes": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


class RowRecorder(SqliteBackend):
    """A SqliteBackend that keeps the raw row text after every
    ``update`` -- what the store file holds, not what the caller passed."""

    def __init__(self, path):
        super().__init__(path)
        self.rows = []

    def update(self, key, fn):
        entry = super().update(key, fn)
        conn = sqlite3.connect(self.path)
        try:
            row = conn.execute(
                "SELECT payload FROM plan_store WHERE fingerprint = ?",
                (key,),
            ).fetchone()
        finally:
            conn.close()
        self.rows.append(None if row is None else row[0])
        return entry


def make_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "json":
        return JsonFileBackend(str(tmp_path / "s.json"))
    return SqliteBackend(str(tmp_path / "s.db"))


def spec():
    return ClusterSpec(jitter_sigma=0.0)


def dataset():
    return make_dataset(n_phys=600, d=8, task="logreg", spec=spec(), seed=4)


def training():
    return TrainingSpec(task="logreg", step_size=1.0, tolerance=1e-12,
                        max_iter=N_TOTAL, seed=3)


def plain_service(**kwargs):
    return OptimizerService(spec=spec(), seed=5, **kwargs)


def switching_service(**kwargs):
    """mgd's per-iteration cost under-estimated 20x: the optimizer
    mis-picks it, the monitor notices and switches to sgd."""
    return OptimizerService(
        spec=spec(), seed=5, algorithms=("mgd", "sgd"),
        batch_sizes={"mgd": 256},
        cost_model=PerturbedCostModel(spec(), {"mgd": 0.05}),
        **kwargs,
    )


#: name -> (service factory, train kwargs, budgets of successive leases)
CASES = {
    "bgd": (plain_service, {"algorithms": ("bgd",)}, (None,)),
    "sgd": (plain_service, {"algorithms": ("sgd",)}, (KILL_AT, None)),
    "mgd": (plain_service, {"algorithms": ("mgd",),
                            "batch_sizes": {"mgd": 64}}, (KILL_AT, None)),
    "svrg": (plain_service, {"algorithms": ("svrg",)}, (KILL_AT, None)),
    "adaptive": (
        switching_service,
        {"adaptive": True,
         "adaptive_settings": AdaptiveSettings(refit_every=5, min_points=5,
                                               max_switches=2)},
        (None,),
    ),
}


def run_case(name, backend, job_id="job", leases=None, checkpoint_every=25):
    """Run the case's leases, each on a fresh service over ``backend``;
    returns the last lease's result."""
    factory, kwargs, budgets = CASES[name]
    result = None
    for budget in budgets if leases is None else budgets[:leases]:
        service = factory(checkpoint_store=CheckpointStore(backend=backend))
        result = service.train(
            dataset(), training(), fixed_iterations=N_TOTAL, job_id=job_id,
            checkpoint_every=checkpoint_every,
            budget=None if budget is None
            else JobBudget(max_iterations=budget),
            **kwargs,
        )
    return result


def record_case(name, directory, lease_ends=None) -> dict:
    """Every row text the case stored, in order, and its final trace;
    ``lease_ends``, a list, gains the index of each row with no lease
    (the row that ended a lease)."""
    recorder = RowRecorder(pathlib.Path(directory) / f"{name}.db")
    try:
        result = run_case(name, recorder)
    finally:
        recorder.close()
    for index, text in enumerate(recorder.rows):
        assert json.dumps(json.loads(text)) == text, name
        if lease_ends is not None and json.loads(text)["lease"] is None:
            lease_ends.append(index)
    rows = [masked_text(text) for text in recorder.rows]
    return {
        "plan": str(result.result.plan),
        "writes": [digest(row) for row in rows],
        # In full, so a mismatch shows as a text diff (it embeds the
        # final trace, which is therefore pinned by digest only).
        "last_checkpoint": rows[-1],
        "trace": digest(json.dumps(mask(result.trace.to_dict()))),
    }


# ---------------------------------------------------------------------------
# (a) golden payloads
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def without_final_leased_rows(parent_writes, lease_ends) -> list:
    """The pinned writes as this code makes them.  The commit that
    pinned them wrote each lease's final checkpoint leased and then a
    release row with the lease set to null; the final save now writes
    that release row itself.  ``lease_ends`` are the indices of the
    rows that end a lease in the new sequence, so deleting the row at
    each of them, in order, drops exactly the final leased rows."""
    writes = list(parent_writes)
    for end in lease_ends:
        del writes[end]
    return writes


class TestGoldenPayloads:
    def test_cases_cover_what_they_claim(self, golden):
        for name in ("sgd", "mgd"):
            assert "shuffle" in golden[name]["plan"]
            last = json.loads(golden[name]["last_checkpoint"])
            assert last["state"]["sampler"]["phys_order"]
        svrg = json.loads(golden["svrg"]["last_checkpoint"])
        assert svrg["state"]["algorithm_state"]["svrg"]["w_bar"]
        adaptive = json.loads(golden["adaptive"]["last_checkpoint"])["trace"]
        assert adaptive["switches"] and len(adaptive["segments"]) > 1
        resumed = json.loads(golden["mgd"]["last_checkpoint"])
        assert len(resumed["history"]) == 2

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stored_text_matches_the_parent_commit(
        self, name, golden, tmp_path
    ):
        lease_ends = []
        recorded = record_case(name, tmp_path, lease_ends)
        pinned = golden[name]
        leases = len(CASES[name][2])
        assert len(lease_ends) == leases
        assert len(pinned["writes"]) == len(recorded["writes"]) + leases
        expected = without_final_leased_rows(pinned["writes"], lease_ends)
        assert recorded["plan"] == pinned["plan"]
        for index, (ours, theirs) in enumerate(
            zip(recorded["writes"], expected)
        ):
            assert ours == theirs, f"{name}: stored row #{index} differs"
        assert recorded["last_checkpoint"] == pinned["last_checkpoint"]
        assert recorded["trace"] == pinned["trace"]

    def test_no_format_bump(self):
        assert (CHECKPOINT_FORMAT, STATE_FORMAT, TRACE_FORMAT,
                STORE_FORMAT) == (1, 2, 2, 1)


# ---------------------------------------------------------------------------
# (b) what a durability point costs
# ---------------------------------------------------------------------------
@pytest.fixture
def asdict_calls(monkeypatch):
    """Type names ``dataclasses.asdict`` was called on."""
    calls = []
    real = dataclasses.asdict

    def spy(obj, **kwargs):
        calls.append(type(obj).__name__)
        return real(obj, **kwargs)

    monkeypatch.setattr(dataclasses, "asdict", spy)
    return calls


@pytest.fixture
def dumps_per_save(monkeypatch):
    """``json.dumps`` calls made inside each ``CheckpointStore.save``."""
    counts, calls = [], [0]
    real_dumps, real_save = json.dumps, CheckpointStore.save

    def dumps(*args, **kwargs):
        calls[0] += 1
        return real_dumps(*args, **kwargs)

    def save(self, checkpoint, owner=None):
        before = calls[0]
        try:
            return real_save(self, checkpoint, owner=owner)
        finally:
            counts.append(calls[0] - before)

    monkeypatch.setattr(json, "dumps", dumps)
    monkeypatch.setattr(CheckpointStore, "save", save)
    return counts


def sqlite_statements(backend) -> list:
    """Every statement the backend's connection runs from now on."""
    statements = []
    backend._connection().set_trace_callback(statements.append)
    return statements


def count(statements, prefix) -> int:
    return sum(1 for s in statements if s.startswith(prefix))


class TestWriteCost:
    CHECKPOINT_TYPES = {"JobCheckpoint", "OptimizerState", "PlanSegment",
                        "SwitchEvent", "ExecutionTrace", "TrainerCheckpoint"}

    @pytest.mark.parametrize("name", ["mgd", "svrg", "adaptive"])
    def test_no_asdict_on_the_checkpoint_path(
        self, name, asdict_calls, tmp_path
    ):
        run_case(name, SqliteBackend(str(tmp_path / "jobs.db")))
        assert not self.CHECKPOINT_TYPES & set(asdict_calls)

    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_one_encode_per_save(self, kind, dumps_per_save, tmp_path):
        backend = make_backend(kind, tmp_path)
        run_case("adaptive", backend, checkpoint_every=10)
        assert len(dumps_per_save) >= 6
        assert set(dumps_per_save) == {1}

    def test_clean_job_transaction_count(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "jobs.db"))
        statements = sqlite_statements(backend)
        result = run_case("bgd", backend)
        assert result.job.status == "done"
        # acquire, saves at 25 / 50 / done(60); the last ends the lease.
        assert count(statements, "BEGIN IMMEDIATE") == 4
        assert count(statements, "COMMIT") == 4
        assert count(statements, "INSERT INTO plan_store") == 4
        assert count(statements, "ROLLBACK") == 0
        assert count(statements, "DELETE") == 0

    def test_resubmission_and_foreign_release_write_nothing(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "jobs.db"))
        store = CheckpointStore(backend=backend)
        first = store.submit("queued", {"dataset": "adult"})
        store.acquire("leased", "owner-a")
        statements = sqlite_statements(backend)
        again = store.submit("queued", {"dataset": "adult", "epsilon": 0.5})
        store.release("leased", "owner-b")
        store.release("missing", "owner-b")
        assert again.request == first.request == {"dataset": "adult"}
        assert count(statements, "BEGIN IMMEDIATE") == 3
        assert count(statements, "INSERT") == 0
        assert count(statements, "DELETE") == 0
        assert store.load("leased").lease["owner"] == "owner-a"

    @pytest.mark.parametrize("kind", ["memory", "json", "sqlite"])
    def test_update_returning_its_argument_is_not_a_write(
        self, kind, tmp_path, monkeypatch
    ):
        backend = make_backend(kind, tmp_path)
        backend.store("k", {"n": 1})
        writes = []
        real = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *a, **k: writes.append(a) or real(*a, **k)
        )
        monkeypatch.setattr(
            json, "dump", lambda *a, **k: writes.append(a)
        )
        assert backend.update("k", lambda cur: cur) == {"n": 1}
        assert backend.update("absent", lambda cur: cur) is None
        assert writes == []
        assert backend.update("k", lambda cur: {**cur, "n": 2}) == {"n": 2}
        assert len(writes) >= 1
        monkeypatch.undo()
        assert backend.get("k") == {"n": 2}
        backend.close()

    def test_sqlite_len_counts_rows_without_decoding(
        self, tmp_path, monkeypatch
    ):
        backend = SqliteBackend(str(tmp_path / "s.db"))
        for index in range(3):
            backend.store(f"k{index}", {"n": index})
        monkeypatch.setattr(
            json, "loads", lambda *a, **k: pytest.fail("decoded a row")
        )
        assert len(backend) == 3


# ---------------------------------------------------------------------------
# (c) aliasing
# ---------------------------------------------------------------------------
def live_checkpoint():
    """A checkpoint built, like the job layer's, from objects the
    caller goes on using."""
    state = OptimizerState(
        iteration_offset=10, updater="momentum(0.9)",
        updater_buffers={"v": [0.1, 0.2]}, rng_state={"state": {"s": 1}},
        notes=["carried"],
    )
    segment = PlanSegment(
        plan="MGD", algorithm="mgd", predicted_iterations=60,
        predicted_per_iteration_s=1.0, predicted_total_s=60.0,
        iterations=10, deltas=[0.5, 0.25], phase_seconds={"compute": 1.0},
        state=state.to_dict(), state_transfer=["note"],
    )
    trace = ExecutionTrace(workload="w", cluster_signature="c",
                           tolerance=1e-3, segments=[segment])
    lease_record = {"owner": "o", "worker": None, "start_iteration": 0,
                    "end_iteration": 10, "status": "running"}
    request = {"dataset": "adult"}
    checkpoint = JobCheckpoint(
        job_id="job", status="running", fingerprint="f",
        weights=[1.0, 2.0], state=state.to_dict(),
        chosen={"plan": {"algorithm": "mgd"}}, trace=trace.to_dict(),
        done_iterations=10, plan_entry={"report": {"x": [1]}},
        request=request, history=[lease_record],
    )
    return checkpoint, state, segment, trace, lease_record, request


class TestAliasing:
    @pytest.mark.parametrize("kind", ["memory", "json", "sqlite"])
    def test_live_objects_do_not_reach_a_stored_entry(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        store = CheckpointStore(backend=backend, clock=lambda: 100.0)
        checkpoint, state, segment, trace, lease_record, request = \
            live_checkpoint()
        store.save(checkpoint, owner="o")
        stored = copy.deepcopy(backend.get("job"))
        assert stored["history"][0]["status"] == "running"

        lease_record["status"] = "done"
        lease_record["end_iteration"] = 60
        segment.deltas.append(0.125)
        segment.phase_seconds["update"] = 2.0
        segment.state["notes"].append("mutated")
        trace.segments.append(segment)
        state.updater_buffers["v"].append(0.3)
        state.rng_state["state"]["s"] = 2
        checkpoint.weights.append(3.0)
        checkpoint.history.append({"owner": "x"})
        checkpoint.plan_entry["report"]["x"].append(2)
        request["dataset"] = "other"

        assert backend.get("job") == stored
        assert backend.load()["job"] == stored
        # ... and a reader cannot corrupt it either.
        backend.get("job")["weights"].append(9.0)
        if kind != "json":  # the JSON backend hands out its parsed snapshot
            assert backend.get("job") == stored
        backend.close()

    def test_each_checkpoint_of_a_job_keeps_its_own_lease_record(self):
        backend = MemoryBackend()
        seen = []
        real = backend.update

        def update(key, fn):
            entry = real(key, fn)
            seen.append(backend.get(key))
            return entry

        backend.update = update
        run_case("bgd", backend)
        ends = [entry["history"][-1]["end_iteration"]
                for entry in seen if entry["history"]]
        assert ends == [25, 50, 60]
        assert [e["history"][-1]["status"] for e in seen if e["history"]] \
            == ["running", "running", "done"]

    def test_memory_backend_rejects_what_json_cannot_carry(self):
        backend = MemoryBackend()
        with pytest.raises(TypeError):
            backend.store("k", {"weights": np.zeros(2)})
        with pytest.raises(TypeError):
            backend.update("k", lambda cur: {"when": object()})
        assert backend.get("k") is None and len(backend) == 0


# ---------------------------------------------------------------------------
# (d) SQLite: WAL, FULL, crash safety, cross-process CAS
# ---------------------------------------------------------------------------
def run_script(source, *args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in sys.path if p]
    )
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(source), *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


CRASH_SCRIPT = """
    import os, sys
    from repro.service import CheckpointStore, JobCheckpoint, SqliteBackend

    path, committed = sys.argv[1], int(sys.argv[2])
    backend = SqliteBackend(path)
    store = CheckpointStore(backend=backend)
    for index in range(committed):
        store.save(JobCheckpoint(job_id=f"job-{index}", status="running",
                                 fingerprint="f", weights=[float(index)]))
    # One more transaction: the row is written, the COMMIT never comes.
    with backend._transaction() as conn:
        conn.execute(backend._UPSERT, (f"job-{committed}", '{"torn": 1}'))
        conn.execute(backend._UPSERT, ("job-0", '{"torn": 1}'))
        os._exit(0)
"""

CAS_SCRIPT = """
    import sys
    from repro.service import SqliteBackend

    backend = SqliteBackend(sys.argv[1])
    for _ in range(int(sys.argv[2])):
        backend.update("counter", lambda cur: {"n": cur["n"] + 1})
    backend.close()
"""


class TestSqliteDurability:
    def test_journal_mode_and_synchronous(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "s.db"))
        conn = backend._connection()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        backend.store("k", {"n": 1})
        assert (tmp_path / "s.db-wal").exists()
        backend.close()
        # The last connection folds the log back into the main file.
        assert not (tmp_path / "s.db-wal").exists()
        assert SqliteBackend(str(tmp_path / "s.db")).get("k") == {"n": 1}

    def test_one_connection_reopened_after_close(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "s.db"))
        first = backend._connection()
        backend.store("k", {"n": 1})
        backend.update("k", lambda cur: {"n": 2})
        assert backend._connection() is first
        backend.close()
        assert backend.get("k") == {"n": 2}
        assert backend._connection() is not first
        backend.close()

    def test_killed_mid_transaction_loses_only_that_transaction(
        self, tmp_path
    ):
        path = tmp_path / "jobs.db"
        process = run_script(CRASH_SCRIPT, path, 5)
        _, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        backend = SqliteBackend(str(path))
        store = CheckpointStore(backend=backend)
        assert len(backend) == 5
        jobs = store.jobs()
        assert sorted(jobs) == [f"job-{i}" for i in range(5)]
        assert [jobs[f"job-{i}"].weights for i in range(5)] \
            == [[float(i)] for i in range(5)]
        conn = backend._connection()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        backend.close()

    def test_two_processes_never_lose_an_increment(self, tmp_path):
        path = tmp_path / "counter.db"
        backend = SqliteBackend(str(path))
        backend.store("counter", {"n": 0})
        processes = [run_script(CAS_SCRIPT, path, 200) for _ in range(2)]
        for process in processes:
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
        assert backend.get("counter") == {"n": 400}
        backend.close()

    def test_failed_transaction_leaves_the_connection_usable(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "s.db"))
        backend.store("k", {"n": 1})
        with pytest.raises(TypeError):
            backend.update("k", lambda cur: {"n": object()})
        with pytest.raises(TypeError):
            backend.mutate_all(lambda entries: {**entries, "bad": object()})
        assert not backend._connection().in_transaction
        assert backend.load() == {"k": {"n": 1}}
        assert backend.update("k", lambda cur: {"n": 2}) == {"n": 2}
        backend.close()

    def test_opening_a_file_another_connection_has_locked_waits(
        self, tmp_path, monkeypatch
    ):
        # A second opener of a fresh file used to find the WAL switch
        # "locked" and run with persistence disabled: two job leases
        # then never saw each other.
        path = str(tmp_path / "s.db")
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")  # still a rollback journal
        waits = []

        def release(seconds):
            waits.append(seconds)
            holder.execute("COMMIT")

        monkeypatch.setattr(time, "sleep", release)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = SqliteBackend(path)
        assert len(waits) == 1
        backend.store("k", {"n": 1})
        assert backend.get("k") == {"n": 1}
        assert backend._connection().execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        backend.close()
        holder.close()


# ---------------------------------------------------------------------------
# (e) fork
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_opens_its_own_connection(tmp_path):
    import multiprocessing

    backend = SqliteBackend(str(tmp_path / "s.db"))
    backend.store("counter", {"n": 1})
    parents = backend._connection()

    def child(queue):
        backend.update("counter", lambda cur: {"n": cur["n"] + 1})
        queue.put((backend._conn_pid == os.getpid(),
                   backend._conn is not parents))
        backend.close()

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    process = context.Process(target=child, args=(queue,))
    process.start()
    own_pid, own_connection = queue.get(timeout=60)
    process.join(timeout=60)
    assert not process.is_alive() and process.exitcode == 0
    assert own_pid and own_connection
    # The parent's connection is untouched and sees the child's commit.
    assert backend._connection() is parents
    assert backend.update("counter", lambda cur: {"n": cur["n"] + 1}) \
        == {"n": 3}
    backend.close()


# ---------------------------------------------------------------------------
# (f) store files cross the change in both directions
# ---------------------------------------------------------------------------
def half_done(backend, job_id="victim"):
    """Lease 1 of the mgd case: preempted at iteration KILL_AT."""
    result = run_case("mgd", backend, job_id=job_id, leases=1)
    assert result.job.preempted and result.job.done_iterations == KILL_AT
    return result


class TestStoreFileCompatibility:
    @pytest.fixture(scope="class")
    def uninterrupted(self):
        factory, kwargs, _ = CASES["mgd"]
        return factory(
            checkpoint_store=CheckpointStore(backend=MemoryBackend())
        ).train(dataset(), training(), fixed_iterations=N_TOTAL,
                job_id="whole", checkpoint_every=25, **kwargs)

    @pytest.mark.parametrize("kind", ["sqlite", "json"])
    def test_parent_written_store_resumes_here(
        self, kind, tmp_path, uninterrupted
    ):
        source = PARENT_STORES[kind]
        path = tmp_path / source.name
        shutil.copy(source, path)
        if kind == "sqlite":
            header = path.read_bytes()[:20]
            assert header[18:20] == b"\x01\x01", "a rollback-journal file"
        backend = SqliteBackend(str(path)) if kind == "sqlite" \
            else JsonFileBackend(str(path))
        before = CheckpointStore(backend=backend).load("victim")
        assert before.status == "preempted"
        assert before.done_iterations == KILL_AT

        factory, kwargs, _ = CASES["mgd"]
        resumed = factory(
            checkpoint_store=CheckpointStore(backend=backend)
        ).train(dataset(), training(), fixed_iterations=N_TOTAL,
                job_id="victim", checkpoint_every=25, **kwargs)
        assert resumed.job.resumed and resumed.job.status == "done"
        assert np.array_equal(resumed.result.weights,
                              uninterrupted.result.weights)
        assert resumed.trace.all_deltas == uninterrupted.trace.all_deltas
        history = CheckpointStore(backend=backend).load("victim").history
        assert [(h["start_iteration"], h["end_iteration"]) for h in history] \
            == [(0, KILL_AT), (KILL_AT, N_TOTAL)]
        backend.close()

    def test_store_written_here_reads_as_the_parent_opened_it(
        self, tmp_path
    ):
        path = tmp_path / "jobs.db"
        backend = SqliteBackend(str(path))
        half_done(backend)
        backend.close()

        def per_operation(sql, *args):
            # The parent's access pattern: a fresh default connection
            # per operation, no pragmas.
            conn = sqlite3.connect(str(path), timeout=30.0)
            try:
                with conn:
                    return conn.execute(sql, args).fetchall()
            finally:
                conn.close()

        assert per_operation(
            "SELECT value FROM meta WHERE key = 'format'"
        ) == [(str(STORE_FORMAT),)]
        (ours,), = per_operation(
            "SELECT payload FROM plan_store WHERE fingerprint = ?", "victim"
        )
        parent = sqlite3.connect(str(PARENT_STORES["sqlite"]))
        try:
            (theirs,), = parent.execute(
                "SELECT payload FROM plan_store WHERE fingerprint = 'victim'"
            ).fetchall()
        finally:
            parent.close()
        # The very text the parent wrote for the same half-done job, so
        # whatever the parent decodes from its own file it decodes here.
        assert masked_text(ours) == masked_text(theirs)
        payload = json.loads(ours)
        assert payload["checkpoint_format"] == 1
        assert payload["state"]["state_format"] == 2
        assert payload["trace"]["trace_format"] == 2
        # ... and the parent's per-operation writes land next to ours.
        per_operation(
            "INSERT INTO plan_store (fingerprint, payload) VALUES (?, ?)",
            "other", '{"n": 1}',
        )
        reopened = SqliteBackend(str(path))
        assert reopened.get("other") == {"n": 1}
        assert CheckpointStore(backend=reopened).load("victim").resumable
        reopened.close()


def regenerate() -> None:
    """Re-pin the golden payloads and the half-done store files to the
    code on PYTHONPATH."""
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(
            {name: record_case(name, directory) for name in sorted(CASES)},
            indent=1,
        ) + "\n")
    for kind, path in PARENT_STORES.items():
        for stale in (path, pathlib.Path(f"{path}.lock")):
            if stale.exists():
                stale.unlink()
        backend = SqliteBackend(str(path)) if kind == "sqlite" \
            else JsonFileBackend(str(path))
        half_done(backend)
        backend.close()
        lock = pathlib.Path(f"{path}.lock")
        if lock.exists():
            lock.unlink()


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN} and {sorted(map(str, PARENT_STORES.values()))}")
