"""The service front-end: wire parsing, dispatch, admission control.

Covers the protocol tier added above the split service: the shared
parse/dispatch path (structured errors instead of dead serve loops),
the concurrent socket server, and its admission policies -- load
shedding, per-tenant quotas, deadlines that preempt (not just reject)
-- plus the import-compatibility guarantees of the split itself.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ML4all
from repro.errors import ReproError
from repro.service import MetricsRegistry, frontend as frontend_module
from repro.service import lineserver as lineserver_module
from repro.service.frontend import (
    Dispatcher,
    SocketFrontend,
    parse_request_line,
    parse_wire_line,
)

from support import assert_split_invariant

FAST_LINE = "adult epsilon=0.05 fixed_iterations=40"


def connect(frontend):
    sock = socket.create_connection(("127.0.0.1", frontend.port), timeout=10)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def ask(handle, line):
    handle.write(line + "\n")
    handle.flush()
    return json.loads(handle.readline())


def wait_until(predicate, timeout=10.0) -> bool:
    """Poll ``predicate`` until it holds (True) or ``timeout`` seconds
    pass (False), for state that no event announces.  The pause between
    polls is this module's one sleep: it bounds how often the state is
    read, and no outcome depends on its length."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


# ---------------------------------------------------------------------------
# layering of the split
# ---------------------------------------------------------------------------

class TestImportCompat:
    def test_service_is_the_core_plus_jobs_layers(self):
        from repro.service import OptimizerService, core, jobs

        assert OptimizerService is core.OptimizerService
        assert issubclass(OptimizerService, jobs.TrainingJobs)

    def test_request_line_parsing_still_importable_from_cli(self):
        from repro.__main__ import iter_request_lines  # noqa: F401
        from repro.__main__ import parse_request_line as from_cli

        assert from_cli is parse_request_line


# ---------------------------------------------------------------------------
# wire parsing
# ---------------------------------------------------------------------------

class TestParseWireLine:
    def test_text_line_with_wire_keys(self):
        wire = parse_wire_line(
            "adult epsilon=0.01 deadline_s=2.5 tenant=t1 verb=train id=42"
        )
        assert wire.request == {"dataset": "adult", "epsilon": 0.01}
        assert wire.verb == "train"
        assert wire.tenant == "t1"
        assert wire.deadline_s == 2.5
        assert wire.id == "42"

    def test_json_line(self):
        wire = parse_wire_line(
            '{"dataset": "adult", "max_iter": 100, "tenant": "t2"}'
        )
        assert wire.request == {"dataset": "adult", "max_iter": 100}
        assert wire.verb is None
        assert wire.tenant == "t2"

    def test_bare_metrics_verb(self):
        for line in ("metrics", '{"verb": "metrics"}'):
            wire = parse_wire_line(line)
            assert wire.verb == "metrics"
            assert wire.request is None

    @pytest.mark.parametrize("line", [
        "{not json",
        '["a", "list"]',
        '{"dataset": "adult", "verb": "frobnicate"}',
        '{"dataset": "adult", "deadline_s": -1}',
        '{"dataset": "adult", "bogus_key": 1}',
        '{"epsilon": 0.01}',  # no dataset
        "epsilon=0.01",       # no dataset, text form
        "adult max_iter=notanint",
    ])
    def test_malformed_lines_raise_repro_error(self, line):
        with pytest.raises(ReproError):
            parse_wire_line(line)

    def test_wire_keys_never_reach_the_request(self):
        wire = parse_wire_line('{"dataset": "adult", "verb": "optimize"}')
        for key in ("verb", "tenant", "deadline_s", "id"):
            assert key not in wire.request


# ---------------------------------------------------------------------------
# dispatcher (protocol-independent half)
# ---------------------------------------------------------------------------

class TestDispatcher:
    @pytest.fixture(scope="class")
    def dispatcher(self):
        return Dispatcher(ML4all(seed=7))

    def test_optimize_response_shape(self, dispatcher):
        response = dispatcher.handle_line(FAST_LINE)
        assert response["ok"] is True
        assert response["verb"] == "optimize"
        assert response["dataset"] == "adult"
        assert response["lines"][0].startswith("adult: ")
        assert "plan" in response

    def test_bad_line_is_a_structured_error_not_an_exception(
        self, dispatcher
    ):
        before = dispatcher.metrics.value("frontend.bad_requests")
        response = dispatcher.handle_line("= broken =")
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "detail" in response
        assert dispatcher.metrics.value("frontend.bad_requests") == before + 1
        # and the dispatcher still serves afterwards
        assert dispatcher.handle_line(FAST_LINE)["ok"] is True

    def test_unknown_dataset_is_request_failed(self, dispatcher):
        response = dispatcher.handle_line("no_such_dataset epsilon=0.01")
        assert response["ok"] is False
        assert response["error"] == "request_failed"

    def test_metrics_verb_reports_all_layers(self, dispatcher):
        dispatcher.handle_line(FAST_LINE)
        response = dispatcher.handle_line("metrics")
        assert response["ok"] is True
        counters = response["metrics"]["counters"]
        assert counters["service.requests"] >= 1
        assert counters["frontend.served"] >= 1
        assert any(line.startswith("service.requests ")
                   for line in response["lines"])
        # Request latency is the root span's histogram.
        assert any(line.startswith("span.request count=")
                   for line in response["lines"])
        assert "timers" not in response["metrics"]

    def test_verb_train_forces_training(self, dispatcher):
        response = dispatcher.handle_line(FAST_LINE + " verb=train")
        assert response["ok"] is True
        assert response["verb"] == "train"
        assert response["iterations"] > 0
        assert response["preempted"] is False

    def test_deadline_preempts_plain_train(self, dispatcher):
        response = dispatcher.handle_line(
            "adult epsilon=0.000001 max_iter=5000 verb=train deadline_s=0.05"
        )
        assert response["ok"] is True
        assert response["preempted"] is True
        assert response["iterations"] < 5000


# ---------------------------------------------------------------------------
# socket front-end against the real optimizer
# ---------------------------------------------------------------------------

class TestSocketFrontend:
    def test_sixteen_thread_hammer_zero_dropped(self):
        system = ML4all(seed=7)
        dispatcher = Dispatcher(system)
        threads, per_thread = 16, 3
        with SocketFrontend(dispatcher, port=0, max_workers=8,
                            shed_after=threads * per_thread + 8) as frontend:
            results, errors = [], []

            def client(worker):
                try:
                    sock, handle = connect(frontend)
                    try:
                        for i in range(per_thread):
                            response = ask(
                                handle, f"{FAST_LINE} id={worker}-{i}"
                            )
                            results.append(response)
                    finally:
                        sock.close()
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

            workers = [
                threading.Thread(target=client, args=(n,))
                for n in range(threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert errors == []
            # zero dropped responses, all successful
            assert len(results) == threads * per_thread
            assert all(r["ok"] for r in results)
            # correlation ids survived the concurrency
            assert len({r["id"] for r in results}) == threads * per_thread
            assert (dispatcher.metrics.value("frontend.served")
                    == threads * per_thread)
            assert dispatcher.metrics.value("frontend.shed") == 0
            # one cold compute, everyone else warm/coalesced
            snapshot = dispatcher.metrics.snapshot()["counters"]
            assert snapshot["service.requests"] == threads * per_thread
            assert snapshot["service.computed"] == 1

    def test_deadline_bounded_train_preempts_with_resumable_checkpoint(
        self, tmp_path
    ):
        store = str(tmp_path / "jobs.json")
        system = ML4all(seed=7, checkpoint_path=store)
        dispatcher = Dispatcher(system)
        job = ('{"dataset": "adult", "epsilon": 1e-6, "max_iter": 2000, '
               '"job_id": "deadline-job", "checkpoint_every": 25')
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                first = ask(handle, job + ', "deadline_s": 0.3}')
                assert first["ok"] is True
                assert first["preempted"] is True
                assert first["job"]["status"] == "preempted"
                banked = first["job"]["done_iterations"]
                assert 0 < banked < 2000

                # The checkpoint on disk is resumable right now.
                checkpoint = system.service().checkpoints.load(
                    "deadline-job"
                )
                assert checkpoint is not None
                assert checkpoint.status == "preempted"
                assert checkpoint.resumable
                assert checkpoint.done_iterations == banked

                # Same request without the deadline: resumes and finishes.
                second = ask(handle, job + "}")
                assert second["ok"] is True
                assert second["preempted"] is False
                assert second["job"]["status"] == "done"
                assert second["job"]["resumed"] is True
                assert second["job"]["done_iterations"] > banked
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# admission control (deterministic, via a blocking stub dispatcher)
# ---------------------------------------------------------------------------

class _BlockingDispatcher:
    """Duck-typed dispatcher whose requests block until released --
    makes queue-occupancy tests deterministic instead of racing real
    optimizer work."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def handle(self, wire, remaining_s=None, queue_wait_s=None):
        if wire.verb == "metrics":
            return {"ok": True, "verb": "metrics",
                    "metrics": self.metrics.snapshot()}
        self.started.release()
        if not self.release.wait(timeout=30):
            return {"ok": False, "error": "internal", "detail": "stuck"}
        response = {"ok": True, "verb": "optimize"}
        if wire.id is not None:
            response["id"] = wire.id
        if remaining_s is not None:
            response["remaining_s"] = remaining_s
        return response


class TestAdmissionControl:
    def test_shed_when_over_capacity(self):
        stub = _BlockingDispatcher()
        with SocketFrontend(stub, port=0, max_workers=4,
                            shed_after=2) as frontend:
            sock, handle = connect(frontend)
            try:
                for i in range(2):
                    handle.write(f"adult id=a{i}\n")
                handle.flush()
                # both admitted requests are running before we overflow
                for _ in range(2):
                    assert stub.started.acquire(timeout=10)
                shed = ask(handle, "adult id=extra")
                assert shed["ok"] is False
                assert shed["error"] == "overloaded"
                assert shed["id"] == "extra"
                assert stub.metrics.value("frontend.shed") == 1

                stub.release.set()
                replies = [json.loads(handle.readline()) for _ in range(2)]
                assert all(r["ok"] for r in replies)
                assert {r["id"] for r in replies} == {"a0", "a1"}
            finally:
                sock.close()

    def test_per_tenant_quota_rejection(self):
        stub = _BlockingDispatcher()
        with SocketFrontend(stub, port=0, max_workers=8, shed_after=32,
                            max_inflight=2) as frontend:
            sock, handle = connect(frontend)
            try:
                for i in range(2):
                    handle.write(f"adult tenant=alice id=al{i}\n")
                handle.flush()
                for _ in range(2):
                    assert stub.started.acquire(timeout=10)
                # alice is at her quota; bob is not
                rejected = ask(handle, "adult tenant=alice id=al2")
                assert rejected["ok"] is False
                assert rejected["error"] == "quota_exceeded"
                assert "alice" in rejected["detail"]
                handle.write("adult tenant=bob id=bob0\n")
                handle.flush()
                assert stub.started.acquire(timeout=10)
                assert stub.metrics.value("frontend.quota_rejected") == 1

                stub.release.set()
                replies = [json.loads(handle.readline()) for _ in range(3)]
                assert {r["id"] for r in replies} == {"al0", "al1", "bob0"}
            finally:
                sock.close()

    def test_deadline_expires_while_queued(self, monkeypatch):
        # The front-end reads its deadlines off this clock; the test
        # moves it on instead of sleeping past one.
        skipped = [0.0]
        clock = types.SimpleNamespace(**vars(time))
        clock.monotonic = lambda: time.monotonic() + skipped[0]
        monkeypatch.setattr(frontend_module, "time", clock)
        stub = _BlockingDispatcher()
        with SocketFrontend(stub, port=0, max_workers=1,
                            shed_after=8) as frontend:
            sock, handle = connect(frontend)
            try:
                handle.write("adult id=holder\n")
                handle.flush()
                assert stub.started.acquire(timeout=10)
                # this one waits behind the holder past its deadline
                handle.write("adult id=late deadline_s=0.05\n")
                # (lines of one connection are handled in order: once
                # metrics has answered, late is queued)
                gauges = ask(handle, "metrics")["metrics"]["gauges"]
                assert gauges["frontend.queue_depth"] == 2
                skipped[0] = 0.3
                stub.release.set()
                replies = [json.loads(handle.readline()) for _ in range(2)]
                by_id = {r["id"]: r for r in replies}
                assert by_id["holder"]["ok"] is True
                assert by_id["late"]["ok"] is False
                assert by_id["late"]["error"] == "deadline_exceeded"
                assert stub.metrics.value(
                    "frontend.deadline_rejected"
                ) == 1
            finally:
                sock.close()

    def test_queued_deadline_shrinks_execution_budget(self):
        stub = _BlockingDispatcher()
        stub.release.set()  # no blocking: measure pass-through remaining
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                response = ask(handle, "adult id=d deadline_s=5")
                assert response["ok"] is True
                assert 0 < response["remaining_s"] <= 5
            finally:
                sock.close()

    def test_metrics_bypasses_admission(self):
        stub = _BlockingDispatcher()
        with SocketFrontend(stub, port=0, max_workers=2,
                            shed_after=1) as frontend:
            sock, handle = connect(frontend)
            try:
                handle.write("adult id=holder\n")
                handle.flush()
                assert stub.started.acquire(timeout=10)
                # saturated: a request sheds, but metrics still answers
                shed = ask(handle, "adult id=nope")
                assert shed["error"] == "overloaded"
                metrics = ask(handle, "metrics")
                assert metrics["ok"] is True
                assert metrics["metrics"]["counters"]["frontend.shed"] == 1
                stub.release.set()
                assert json.loads(handle.readline())["id"] == "holder"
            finally:
                sock.close()

    def test_malformed_line_gets_structured_error_and_connection_lives(
        self,
    ):
        stub = _BlockingDispatcher()
        stub.release.set()
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                bad = ask(handle, "{broken json")
                assert bad["ok"] is False
                assert bad["error"] == "bad_request"
                good = ask(handle, "adult id=after")
                assert good["ok"] is True
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# the train lane: trains one at a time, beside the pool
# ---------------------------------------------------------------------------

class _TrainLaneDispatcher(_BlockingDispatcher):
    """Trains block until released; anything else answers at once."""

    def trains(self, wire):
        return wire.verb == "train"

    def handle(self, wire, remaining_s=None, queue_wait_s=None):
        if self.trains(wire) or wire.verb == "metrics":
            return super().handle(wire, remaining_s, queue_wait_s)
        return {"ok": True, "verb": wire.verb or "optimize", "id": wire.id}


class TestTrainLane:
    """A train is Python under one GIL, so a ``SocketFrontend`` runs
    trains one at a time on a thread of their own, and the pool keeps
    answering everything else beside it; nothing a pooled request or a
    train waits for is ever queued behind it."""

    def test_trains_queue_on_one_thread_while_the_pool_answers(self):
        stub = _TrainLaneDispatcher()
        before = set(threading.enumerate())
        with SocketFrontend(stub, port=0) as frontend:
            trainer, trains = connect(frontend)
            watcher, watch = connect(frontend)
            try:
                trains.write("adult verb=train id=t1\n"
                             "adult verb=train id=t2\n")
                trains.flush()
                assert stub.started.acquire(timeout=10)
                # (lines of one connection are handled in order: once
                # metrics has answered, t2 is queued)
                gauges = ask(trains, "metrics")["metrics"]["gauges"]
                assert gauges["frontend.queue_depth"] == 2
                # While t1 holds the lane, jobs and an optimize that is
                # no hit are answered on the pool...
                assert ask(watch, "jobs")["verb"] == "jobs"
                assert ask(watch, "adult id=plain")["id"] == "plain"
                # ...and t2 has not started.
                assert not stub.started.acquire(blocking=False)
                lane = [t for t in set(threading.enumerate()) - before
                        if t.name.startswith("frontend-train")]
                assert len(lane) == 1
                stub.release.set()
                replies = [json.loads(trains.readline()) for _ in range(2)]
                assert [r["id"] for r in replies] == ["t1", "t2"]
            finally:
                stub.release.set()
                trainer.close()
                watcher.close()

    def test_first_touches_twins_recolds_and_trains_are_all_answered(self):
        """Four connections at once send a first touch, its twin, a
        re-cold of the same dataset and a train of the first touch's
        plan, three rounds over.  Whichever thread owns a key -- the
        loop, a pool worker or the train lane, never a request still
        queued -- every reply comes, and each key is computed once."""
        system = ML4all(seed=7)
        service = system.service()
        dispatcher = Dispatcher(system)
        assert dispatcher.handle_line(FAST_LINE)["ok"]  # adult is loaded
        rounds = [[f"adult epsilon=0.05 step={step}",
                   f"adult epsilon=0.05 step={step}",
                   f"adult epsilon=0.02 step={step}",
                   f"adult epsilon=0.05 step={step} verb=train"]
                  for step in (0.5, 0.7, 0.9)]
        replies, errors = [], []

        def client(n, frontend):
            try:
                sock, handle = connect(frontend)
                try:
                    for lines in rounds:
                        replies.append(ask(handle, lines[n]))
                finally:
                    sock.close()
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        with SocketFrontend(dispatcher, port=0) as frontend:
            clients = [threading.Thread(target=client, args=(n, frontend))
                       for n in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
        assert errors == []
        assert len(replies) == 12 and all(r["ok"] for r in replies)
        assert sum(r["verb"] == "train" for r in replies) == 3
        keys = {line for lines in rounds for line in lines[:3]}
        assert service.metrics.value("service.computed") == 1 + len(keys)

    def test_serve_runs_a_durable_train_and_jobs(
        self, tmp_path
    ):
        env = {**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src")}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen", "0",
             "--checkpoint", str(tmp_path / "jobs.db"),
             "--log-level", "warning"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("listening on "), server.stderr.read()
            port = int(banner.strip().rsplit(":", 1)[1])
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            handle = sock.makefile("rw", encoding="utf-8", newline="\n")
            try:
                trained = ask(handle, FAST_LINE + " verb=train job_id=j1")
                assert trained["ok"] and trained["job"]["status"] == "done"
                jobs = ask(handle, "jobs")
                assert jobs["ok"]
                assert [(job["job_id"], job["status"])
                        for job in jobs["jobs"]] == [("j1", "done")]
            finally:
                sock.close()
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.communicate()
        assert server.returncode == 0


# ---------------------------------------------------------------------------
# framing (malformed input at the wire boundary degrades, never hangs)
# ---------------------------------------------------------------------------

#: Lines the loop answers itself (so their replies come in order):
#: ``metrics``, and bad requests of every kind -- malformed and
#: non-object JSON, unknown verbs, bytes that decode to U+FFFD -- plus
#: blanks, which get no reply.
SPLIT_LINES = [
    b"metrics",
    b'{"verb": "metrics", "id": 7}',
    b"{broken json",
    b"[1, 2, 3]",
    b'"just a string"',
    b'{"verb": "explode", "dataset": "adult"}',
    b"adult epsilon=abc",
    b"trace",
    b"\xff\xfe adult epsilon=0.1",
    b'{"verb": "metrics", "id": "\xff"}',
    b"",
    b"   ",
]


class TestFraming:
    @pytest.fixture(scope="class")
    def frontend(self):
        patch = pytest.MonkeyPatch()
        patch.setattr(lineserver_module, "MAX_FRAME_BYTES", 1024)
        stub = _BlockingDispatcher()
        stub.release.set()
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            yield frontend
        patch.undo()

    def test_oversized_frame_gets_structured_error_then_close(
        self, frontend
    ):
        """Bytes streamed without a newline are not buffered without
        bound: past the cap the client gets frame_too_large and the
        connection closes; the server keeps serving others."""
        sock, handle = connect(frontend)
        try:
            sock.sendall(b"x" * 4096)
            reply = json.loads(handle.readline())
            assert reply["ok"] is False
            assert reply["error"] == "frame_too_large"
            assert handle.readline() == ""  # server hung up
        finally:
            sock.close()
        other, other_handle = connect(frontend)
        try:
            assert ask(other_handle, "adult id=after")["ok"] is True
        finally:
            other.close()

    def test_frame_at_the_cap_is_served(self, frontend):
        sock, handle = connect(frontend)
        try:
            line = "adult id=" + "a" * (1024 - len("adult id=") - 1)
            assert len(line) + 1 == 1024
            assert ask(handle, line)["ok"] is True
        finally:
            sock.close()

    def test_undecodable_bytes_get_bad_request_and_connection_lives(
        self, frontend
    ):
        sock, handle = connect(frontend)
        try:
            sock.sendall(b"\xff\xfe adult epsilon=0.1\n")
            bad = json.loads(handle.readline())
            assert bad["ok"] is False
            assert bad["error"] == "bad_request"
            assert ask(handle, "adult id=after")["ok"] is True
        finally:
            sock.close()
        other, other_handle = connect(frontend)
        try:
            assert ask(other_handle, "adult id=second")["ok"] is True
        finally:
            other.close()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(SPLIT_LINES), max_size=12),
       st.sampled_from([line for line in SPLIT_LINES if line.strip()]),
       st.data())
def test_replies_do_not_depend_on_how_the_stream_is_split(lines, final, data):
    def serve():
        stub = _BlockingDispatcher()
        stub.release.set()
        return SocketFrontend(stub, port=0, max_workers=1)

    assert_split_invariant(serve, lines, final, data)


# ---------------------------------------------------------------------------
# the event loop: what runs inline, what goes to the pool, who may stall it
# ---------------------------------------------------------------------------

LOOP_THREAD = "SocketFrontend-loop"


class _RecordingDispatcher(Dispatcher):
    """Real dispatcher that notes which thread handled each verb."""

    def __init__(self, system):
        super().__init__(system)
        self.threads = {}

    def handle(self, wire, **kwargs):
        self.threads.setdefault(wire.verb or "optimize", set()).add(
            threading.current_thread().name
        )
        return super().handle(wire, **kwargs)


def _gate_misses(service, at="optimize"):
    """Make every plan computation of ``service`` wait for the returned
    event when it reaches its optimizer's method ``at`` (``price``: after
    its trials ran); ``started`` counts the computations that did."""
    gate, started = threading.Event(), threading.Semaphore(0)
    make = service._make_optimizer

    def gated(*args, **kwargs):
        optimizer = make(*args, **kwargs)
        step = getattr(optimizer, at)

        def wait_then_step(*a, **k):
            started.release()
            assert gate.wait(timeout=30)
            return step(*a, **k)

        setattr(optimizer, at, wait_then_step)
        return optimizer

    service._make_optimizer = gated
    return gate, started


class TestEventLoop:
    def test_hit_is_answered_while_every_worker_is_held_by_a_miss(self):
        system = ML4all(seed=7)
        dispatcher = Dispatcher(system)
        assert dispatcher.handle_line(FAST_LINE)["ok"]  # primed: a hit now
        gate, started = _gate_misses(system.service())
        # First touches (a step no trial ran at) need a worker: their
        # trials run under the speculation lane.
        with SocketFrontend(dispatcher, port=0, max_workers=2,
                            shed_after=3) as frontend:
            busy, busy_handle = connect(frontend)
            other, other_handle = connect(frontend)
            try:
                for i in range(2):
                    busy_handle.write(
                        f"adult epsilon=0.05 step=0.{5 + i} id=miss{i}\n")
                busy_handle.flush()
                for _ in range(2):
                    assert started.acquire(timeout=10)
                # Both workers are stuck in a miss; the hit does not
                # queue behind them.
                other.settimeout(2)
                hit = ask(other_handle, FAST_LINE + " id=hit")
                assert hit["ok"] and hit["cache_hit"] and hit["id"] == "hit"
                # A third miss fills the admission bound: now the same
                # hit is shed, not answered.
                busy_handle.write("adult epsilon=0.05 step=0.7 id=miss2\n")
                # (lines of one connection are handled in order: once
                # metrics has answered, miss2 is admitted)
                gauges = ask(busy_handle, "metrics")["metrics"]["gauges"]
                assert gauges["frontend.queue_depth"] == 3
                shed = ask(other_handle, FAST_LINE + " id=shed")
                assert shed["error"] == "overloaded" and shed["id"] == "shed"
                gate.set()
                replies = [json.loads(busy_handle.readline())
                           for _ in range(3)]
                assert {r["id"] for r in replies} == {
                    "miss0", "miss1", "miss2"}
                assert all(r["ok"] and not r["cache_hit"] for r in replies)
            finally:
                gate.set()
                busy.close()
                other.close()

    def test_many_lines_in_one_segment_and_one_line_in_three(self):
        stub = _BlockingDispatcher()
        stub.release.set()
        with SocketFrontend(stub, port=0, max_workers=4,
                            shed_after=256) as frontend:
            sock, handle = connect(frontend)
            try:
                sock.sendall(b"".join(
                    f"adult id=burst{i}\n".encode() for i in range(100)
                ))
                replies = [json.loads(handle.readline()) for _ in range(100)]
                assert all(r["ok"] for r in replies)
                assert ({r["id"] for r in replies}
                        == {f"burst{i}" for i in range(100)})
                (conn,) = frontend._clients
                received = b""
                for part in (b"adu", b"lt id=sp"):
                    sock.sendall(part)
                    received += part
                    # read on its own before the next part is sent
                    assert wait_until(lambda: bytes(conn.inbuf) == received)
                sock.sendall(b"lit\n")
                assert json.loads(handle.readline())["id"] == "split"
                # ...and exactly one reply came of it.
                assert ask(handle, "adult id=next")["id"] == "next"
            finally:
                sock.close()

    def test_what_needs_no_io_gd_or_wait_runs_on_the_loop_thread(
        self, tmp_path
    ):
        # Without a plan store: a fixed_iterations pricing, a re-cold
        # (every trial memoised) and a stale entry's re-cost are
        # answered by the loop; the first touch that ran the trials was
        # not.
        system = ML4all(seed=7)
        service = system.service()
        dispatcher = _RecordingDispatcher(system)
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                assert ask(handle, FAST_LINE)["ok"]  # loads the dataset
                assert ask(handle, "adult epsilon=0.05 max_iter=50")["ok"]
                assert all(name.startswith("frontend_")
                           for name in dispatcher.threads.pop("optimize"))
                priced = ask(handle, "adult epsilon=0.05 fixed_iterations=42")
                recold = ask(handle, "adult epsilon=0.04 max_iter=50")
                assert not priced["cache_hit"] and not recold["cache_hit"]
                service.calibration.observe("bgd", service.spec,
                                            cost_ratio=2.0)
                recost = ask(handle, FAST_LINE)
                assert recost["recalibrated"]
                assert dispatcher.threads.pop("optimize") == {LOOP_THREAD}
                assert service.metrics.value("service.computed") == 4
                assert service.metrics.value("service.recalibrated") == 1
            finally:
                sock.close()

        # With one, every miss stays on the pool (read-through and
        # write-through are I/O), and so do enqueue and jobs; a train
        # runs on the train lane.
        system = ML4all(seed=7, cache_path=str(tmp_path / "plans.db"),
                        checkpoint_path=str(tmp_path / "jobs.db"))
        service = system.service(cache_size=1)
        dispatcher = _RecordingDispatcher(system)
        store_threads = set()
        store_get = service.backend.get

        def recording_get(key):
            store_threads.add(threading.current_thread().name)
            return store_get(key)

        service.backend.get = recording_get
        evicted = "adult epsilon=0.05 fixed_iterations=41"
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                assert ask(handle, evicted)["ok"]
                assert ask(handle, FAST_LINE)["ok"]  # evicts the first
                assert LOOP_THREAD not in dispatcher.threads["optimize"]
                computed = service.metrics.value("service.computed")
                dispatcher.threads.clear()
                store_threads.clear()

                hit = ask(handle, FAST_LINE)
                assert hit["cache_hit"]
                assert dispatcher.threads.pop("optimize") == {LOOP_THREAD}
                assert ask(handle, "metrics")["ok"]
                assert ask(handle, f"trace {hit['trace_id']}")["ok"]
                assert dispatcher.threads.pop("metrics") == {LOOP_THREAD}
                assert dispatcher.threads.pop("trace") == {LOOP_THREAD}

                # In sqlite but not in memory: read through on a worker.
                restored = ask(handle, evicted)
                assert restored["cache_hit"]
                assert service.metrics.value("service.computed") == computed
                assert store_threads and LOOP_THREAD not in store_threads
                assert ask(handle, FAST_LINE + " verb=train")["ok"]
                assert ask(handle, FAST_LINE + " verb=enqueue job_id=j1")["ok"]
                assert ask(handle, "jobs")["jobs"][0]["job_id"] == "j1"
                assert set(dispatcher.threads) == {
                    "optimize", "train", "enqueue", "jobs"}
                for verb, names in dispatcher.threads.items():
                    lane = "frontend-train_" if verb == "train" else "frontend_"
                    assert all(n.startswith(lane) for n in names), verb
            finally:
                sock.close()
                service.close()

    def test_a_recold_whose_key_a_worker_owns_waits_on_the_pool(self):
        """The loop never waits: a re-cold of a key a gated worker is
        computing coalesces on another worker, and a hit on a third
        connection is answered meanwhile."""
        system = ML4all(seed=7)
        service = system.service()
        dispatcher = _RecordingDispatcher(system)
        assert dispatcher.handle_line(FAST_LINE)["ok"]  # primed: a hit now
        dispatcher.threads.clear()
        gate, started = _gate_misses(service, at="price")
        line = "adult epsilon=0.03 step=0.5"
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            first, first_handle = connect(frontend)
            twin, twin_handle = connect(frontend)
            other, other_handle = connect(frontend)
            try:
                first_handle.write(line + " id=owner\n")
                first_handle.flush()
                assert started.acquire(timeout=10)  # trials in, key owned
                # The owner's miss is counted; the next one is the twin's.
                twin_missed = threading.Event()
                inc = service.metrics.inc

                def noting_inc(name, value=1):
                    total = inc(name, value)
                    if name == "service.misses":
                        twin_missed.set()
                    return total

                service.metrics.inc = noting_inc
                twin_handle.write(line + " id=twin\n")
                twin_handle.flush()
                other.settimeout(5)
                hit = ask(other_handle, FAST_LINE + " id=hit")
                assert hit["cache_hit"] and hit["id"] == "hit"
                # Release the owner only once the twin's miss is counted,
                # i.e. it found the owner's computation and waits on it.
                assert twin_missed.wait(timeout=10)
                gate.set()
                owner = json.loads(first_handle.readline())
                coalesced = json.loads(twin_handle.readline())
                assert owner["ok"] and not owner["coalesced"]
                assert coalesced["coalesced"]
                assert coalesced["plan"] == owner["plan"]
                assert service.metrics.value("service.computed") == 2
                # The hit on the loop; owner and twin on a worker each.
                assert dispatcher.threads["optimize"] == {
                    LOOP_THREAD, "frontend_0", "frontend_1"}
            finally:
                gate.set()
                for sock in (first, twin, other):
                    sock.close()

    def test_a_recold_whose_trial_is_evicted_after_resolve_runs_it_on_a_worker(
        self, monkeypatch
    ):
        import numpy as np

        from repro.core.iterations import SpeculativeEstimator, _Trial

        system = ML4all(seed=7)
        service = system.service()
        dispatcher = _RecordingDispatcher(system)
        assert dispatcher.handle_line("adult epsilon=0.05 max_iter=50")["ok"]
        trial_threads = []
        run_trial = SpeculativeEstimator._run_trial

        def recording_run_trial(self, *args, **kwargs):
            trial_threads.append(threading.current_thread().name)
            return run_trial(self, *args, **kwargs)

        monkeypatch.setattr(SpeculativeEstimator, "_run_trial",
                            recording_run_trial)
        resolve = service.resolve

        def resolve_then_evict(request):
            resolved = resolve(request)
            assert resolved.inline  # every trial was memoised...
            # ...until one the size of the whole memo pushes them out.
            service.trials.put(("filler",),
                               _Trial("bgd", np.zeros(1 << 20), 0))
            return resolved

        service.resolve = resolve_then_evict
        misses = service.metrics.value("speculation.memo.misses")
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                reply = ask(handle, "adult epsilon=0.02 max_iter=50")
            finally:
                sock.close()
        assert reply["ok"] and not reply["cache_hit"]
        assert service.metrics.value("speculation.memo.evictions") >= 2
        assert service.metrics.value("speculation.memo.misses") > misses
        assert trial_threads and LOOP_THREAD not in trial_threads
        assert all(n.startswith("frontend_") for n in trial_threads)
        # Declined by the loop before it touched the request, then
        # answered by a worker.
        assert dispatcher.threads["optimize"] >= {LOOP_THREAD}
        assert service.metrics.value("frontend.requests") == 2
        assert reply["plan"] == str(ML4all(seed=7).optimize(
            "adult", epsilon=0.02, max_iter=50).chosen_plan)

    def test_the_loop_thread_never_takes_the_speculation_lane(
        self, monkeypatch
    ):
        from repro.core import iterations

        class RecordingLock:
            def __init__(self):
                self.lock, self.takers = threading.Lock(), []

            def acquire(self, *args, **kwargs):
                self.takers.append(threading.current_thread().name)
                return self.lock.acquire(*args, **kwargs)

            def release(self):
                self.lock.release()

        lane = RecordingLock()
        monkeypatch.setattr(iterations, "_LANE", lane)
        system = ML4all(seed=7)
        dispatcher = _RecordingDispatcher(system)
        lines = [
            FAST_LINE,                            # loads adult: a worker
            "adult epsilon=0.05 max_iter=50",     # first touch: a worker
            "adult epsilon=0.01 max_iter=60",     # re-cold: the loop
            "adult epsilon=0.05 fixed_iterations=70",
            "adult epsilon=0.05 step=0.5",        # first touch again
            "adult epsilon=0.02 step=0.5",        # re-cold again
        ]
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                replies = [ask(handle, line) for line in lines]
            finally:
                sock.close()
        assert all(r["ok"] and not r["cache_hit"] for r in replies)
        assert LOOP_THREAD in dispatcher.threads["optimize"]
        assert len(lane.takers) == 2
        assert all(n.startswith("frontend_") for n in lane.takers)

    def test_shared_memos_hold_under_interleaving(self, monkeypatch):
        """The loop reads the trial memo, the plan cache and the
        fingerprint memo while workers write them.  Six clients and up
        to four workers on two cores, a thread switch offered every
        microsecond, both memos bounded small enough to evict all
        along: every fingerprint is computed once, every plan is the
        sequential one, and both memos keep their books."""
        import random

        from repro.core import iterations
        from repro.service import core

        monkeypatch.setattr(core, "_FINGERPRINT_MEMO_SIZE", 16)
        monkeypatch.setattr(iterations, "_MEMO_MAX_BYTES", 4096)
        # First touches (three steps per dataset, trials evicted all
        # along) among re-colds, some of them sent by two clients at
        # once.
        lines = [f"{dataset} epsilon={epsilon} max_iter={max_iter} "
                 f"step={step}"
                 for dataset in ("adult", "covtype")
                 for step in (0.5, 1.0, 2.0)
                 for epsilon in (0.05, 0.02, 0.01, 0.005)
                 for max_iter in (60, 70, 80, 90, 100)]
        system = ML4all(seed=7)
        service = system.service(cache_size=len(lines))
        replies, sent = [], set()
        deadline = time.monotonic() + 4.0

        def client(seed, frontend):
            order = random.Random(seed).sample(lines, 60)
            sock, handle = connect(frontend)
            try:
                for line in order:
                    if time.monotonic() > deadline:
                        break
                    sent.add(line)
                    replies.append((line, ask(handle, line)))
            finally:
                sock.close()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SocketFrontend(Dispatcher(system), port=0,
                                max_workers=4) as frontend:
                clients = [threading.Thread(target=client, args=(n, frontend))
                           for n in range(6)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)

        assert replies and all(reply["ok"] for _, reply in replies)
        assert service.metrics.value("service.computed") == len(sent)
        reference = Dispatcher(ML4all(seed=7))
        plans = {line: reference.handle_line(line)["plan"] for line in sent}
        assert all(reply["plan"] == plans[line] for line, reply in replies)
        trials = service.trials
        assert service.metrics.value("speculation.memo.evictions") > 0
        assert trials._nbytes == sum(
            trials._cost(trial) for trial in trials._trials.values())
        assert len(service._fingerprints) <= 16

    def test_the_loop_thread_never_hashes_a_dataset(self, monkeypatch):
        """A dataset loaded for a request that needs no content digest
        is hashed then and there, not by the loop when the first
        speculating request for it is resolved."""
        from repro.cluster.storage import PartitionedDataset

        hashed_on = []
        digest = PartitionedDataset.content_digest

        def recording_digest(dataset):
            if dataset._content_digest is None:
                hashed_on.append(threading.current_thread().name)
            return digest(dataset)

        monkeypatch.setattr(PartitionedDataset, "content_digest",
                            recording_digest)
        with SocketFrontend(Dispatcher(ML4all(seed=7)), port=0,
                            max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                assert ask(handle, FAST_LINE)["ok"]
                assert ask(handle, "adult epsilon=0.05 max_iter=50")["ok"]
            finally:
                sock.close()
        assert hashed_on and LOOP_THREAD not in hashed_on

    def test_stop_with_requests_in_flight(self):
        stub = _BlockingDispatcher()
        frontend = SocketFrontend(stub, port=0, max_workers=2, shed_after=16)
        frontend.start()
        clients = [connect(frontend) for _ in range(3)]
        try:
            for n, (_, handle) in enumerate(clients):
                for i in range(2):
                    handle.write(f"adult id=c{n}-{i}\n")
                handle.flush()
            for _ in range(2):  # two running, four queued behind them
                assert stub.started.acquire(timeout=10)
            stopper = threading.Thread(target=frontend.stop)
            stopper.start()
            stub.release.set()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            for sock, _ in clients:
                sock.settimeout(2)
                try:
                    while sock.recv(65536):
                        pass  # replies that beat the close, then EOF
                except ConnectionResetError:
                    pass
            assert stub.metrics.gauge_value("frontend.queue_depth") == 0
            assert [t.name for t in threading.enumerate()
                    if t.name == LOOP_THREAD
                    or t.name.startswith("frontend_")] == []
        finally:
            stub.release.set()
            for sock, _ in clients:
                sock.close()

    def test_one_loop_thread_whatever_the_number_of_connections(self):
        stub = _BlockingDispatcher()
        stub.release.set()
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            clients = [connect(frontend) for _ in range(12)]
            try:
                for n, (_, handle) in enumerate(clients):
                    assert ask(handle, f"adult id=c{n}")["ok"]
                own = [t.name for t in threading.enumerate()
                       if t.name == LOOP_THREAD
                       or t.name.startswith("frontend")]
                assert own.count(LOOP_THREAD) == 1
                assert len(own) <= 1 + 2
            finally:
                for sock, _ in clients:
                    sock.close()

    def test_client_that_never_reads_is_dropped_not_waited_for(
        self, monkeypatch
    ):
        """A client that pipelines requests and never reads used to
        wedge the server for everyone: every pool worker ended up
        blocked in flush() under that connection's write lock."""
        monkeypatch.setattr(lineserver_module, "MAX_FRAME_BYTES", 65536)
        stub = _BlockingDispatcher()
        stub.release.set()
        with SocketFrontend(stub, port=0, max_workers=4,
                            shed_after=64) as frontend:
            flood = socket.socket()
            flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            flood.connect(("127.0.0.1", frontend.port))
            flood.settimeout(2)
            line = ("adult id=" + "x" * 4000 + "\n").encode()
            try:
                for _ in range(60):  # ~12 MB of replies nobody reads
                    flood.sendall(line * 50)
            except OSError:
                pass  # the server hung up on us (or stopped reading)
            sock, handle = connect(frontend)
            try:
                sock.settimeout(1)
                replies = []

                def served():
                    replies.append(ask(handle, "adult id=bystander"))
                    return replies[-1]["ok"]

                assert wait_until(served)
                # still digesting the backlog meanwhile: shed, but
                # answering
                assert all(r["error"] == "overloaded" for r in replies[:-1])
                assert replies[-1]["id"] == "bystander"
                counters = ask(handle, "metrics")["metrics"]["counters"]
                assert counters["frontend.slow_client_closed"] == 1
            finally:
                sock.close()
                flood.close()

    def test_line_the_loop_cannot_handle_costs_one_connection_only(
        self, monkeypatch
    ):
        """Whatever a line raises on the loop thread -- here a JSON
        document nested past the recursion limit, then a parser bug --
        the other connections keep being served."""
        stub = _BlockingDispatcher()
        stub.release.set()
        parse = frontend_module.parse_wire_line

        def buggy_parse(line):
            if line.startswith("boom"):
                raise RuntimeError("parser bug")
            return parse(line)

        monkeypatch.setattr(frontend_module, "parse_wire_line", buggy_parse)
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            other, other_handle = connect(frontend)
            try:
                deep = ask(handle, '{"a":' + "[" * 100_000)
                assert deep["error"] == "bad_request"
                assert ask(handle, "adult id=same")["id"] == "same"
                broken = ask(handle, "boom")
                assert broken["error"] == "internal"
                assert "parser bug" in broken["detail"]
                assert handle.readline() == ""  # hung up on, after the reply
                assert ask(other_handle, "adult id=other")["id"] == "other"
                counters = ask(other_handle, "metrics")["metrics"]["counters"]
                assert counters["frontend.internal_errors"] == 1
                assert frontend._thread.is_alive()
            finally:
                sock.close()
                other.close()

    @pytest.mark.parametrize("goodbye", ["quit", "half-close"])
    def test_replies_owed_at_quit_or_eof_are_still_sent(self, goodbye):
        stub = _BlockingDispatcher()
        with SocketFrontend(stub, port=0, max_workers=2) as frontend:
            sock, handle = connect(frontend)
            try:
                handle.write("adult id=queued0\nadult id=queued1\n")
                if goodbye == "quit":
                    handle.write("quit\nadult id=ignored\n")
                handle.flush()
                if goodbye == "half-close":
                    sock.shutdown(socket.SHUT_WR)
                for _ in range(2):
                    assert stub.started.acquire(timeout=10)
                # the loop has seen the goodbye before anything is owed
                assert wait_until(lambda: any(
                    conn.hangup for conn in list(frontend._clients)))
                stub.release.set()
                replies = [json.loads(line) for line in handle]  # to EOF
                assert sorted(r["id"] for r in replies) == [
                    "queued0", "queued1"]
            finally:
                stub.release.set()
                sock.close()

    def test_enqueue_then_disconnect_still_stores_the_job(self, tmp_path):
        """Fire-and-forget: the job a client enqueued (last line without
        a newline) is stored although the client is gone before a
        worker gets to it."""
        system = ML4all(seed=7, checkpoint_path=str(tmp_path / "jobs.db"))
        service = system.service()
        with SocketFrontend(Dispatcher(system), port=0,
                            max_workers=1) as frontend:
            sock = socket.create_connection(("127.0.0.1", frontend.port))
            sock.sendall((FAST_LINE + " verb=enqueue job_id=j1\n"
                          + FAST_LINE + " verb=enqueue job_id=j2").encode())
            sock.close()
            assert wait_until(
                lambda: len(service.checkpoints.backend.load()) == 2)
            assert sorted(service.checkpoints.backend.load()) == ["j1", "j2"]
            # ...and the loop closed its end once both were done.
            assert wait_until(lambda: not frontend._clients)
        service.close()


def test_serving_imports_no_asyncio():
    """Server start-up time is a benchmark metric: the loop is built on
    ``selectors``, which ``socket`` loads anyway."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.__main__, sys; "
         "print('asyncio' in sys.modules, 'selectors' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src")},
    )
    assert out.stdout.split() == ["False", "True"]
