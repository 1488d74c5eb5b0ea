"""The fleet's network boundary: ``repro store`` wire protocol and the
remote ``CacheBackend``.

Covers the URL scheme, the full
CacheBackend contract spoken over TCP (including namespace isolation and
server-restart persistence), the protocol's failure frames (malformed
input, oversized frames, CAS conflicts, idempotent txn replay,
mid-stream disconnects), client retry over a flaky server backend
(FaultyBackend underneath the live server), a 16-client concurrent CAS
storm with a monotone-version audit, and a genuinely separate
``python -m repro store`` process.
"""

import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (
    CheckpointStore,
    JsonFileBackend,
    MemoryBackend,
    RemoteBackend,
    RemoteStoreError,
    StoreServer,
    open_backend,
    open_remote_backend,
    parse_store_url,
)
from repro.service.remote import WIRE_FORMAT

from support import FaultyBackend, assert_split_invariant

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def server():
    with StoreServer(backend=MemoryBackend()) as live:
        yield live


@pytest.fixture
def backend(server):
    remote = RemoteBackend("127.0.0.1", server.port, namespace="t",
                           backoff_s=0.001)
    yield remote
    remote.close()


class RawClient:
    """A bare protocol speaker: one socket, JSON lines by hand.

    Tests use it where the shape of the *frames* is the subject --
    RemoteBackend would paper over exactly the malformations and replays
    under test.
    """

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.reader = self.sock.makefile("rb")
        self.writer = self.sock.makefile("wb")

    def send_raw(self, data):
        self.writer.write(data)
        self.writer.flush()

    def recv(self):
        raw = self.reader.readline()
        if not raw:
            return None  # server closed the connection
        return json.loads(raw.decode("utf-8"))

    def call(self, **frame):
        self.send_raw(json.dumps(frame).encode("utf-8") + b"\n")
        return self.recv()

    def close(self):
        for handle in (self.reader, self.writer, self.sock):
            try:
                handle.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# URL scheme
# ---------------------------------------------------------------------------
class TestStoreUrls:
    def test_single_endpoint_with_namespace(self):
        assert parse_store_url("tcp://db.example:7500/plans") == \
            ([("db.example", 7500)], "plans")

    def test_namespace_defaults(self):
        assert parse_store_url("tcp://h:1")[1] == "default"
        assert parse_store_url("tcp://h:1/")[1] == "default"

    @pytest.mark.parametrize("url", [
        "file:///x", "tcp://", "tcp:///ns", "tcp://hostonly/ns",
        "tcp://h:notaport/ns", "tcp://h:1/bad:ns", "tcp://h:1/-leading",
        "tcp://h:1/" + "n" * 65, "tcp://h:70000/ns", "tcp://h:-1/ns",
        "tcp://h:0/ns", "tcp://a:1,b:2/ns", "tcp://h:1/ns\n",
    ])
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(ValueError):
            parse_store_url(url)

    def test_open_remote_backend_picks_client_shape(self):
        single = open_remote_backend("tcp://127.0.0.1:9/ns")
        assert isinstance(single, RemoteBackend)
        assert single.namespace == "ns"
        with pytest.raises(ValueError, match="exactly one store"):
            open_remote_backend("tcp://127.0.0.1:9,127.0.0.1:10/ns")

    def test_open_backend_dispatches_tcp_urls(self):
        assert isinstance(
            open_backend("tcp://127.0.0.1:9/ns"), RemoteBackend
        )


# ---------------------------------------------------------------------------
# the CacheBackend contract over TCP
# ---------------------------------------------------------------------------
class TestRemoteBackendContract:
    def test_store_load_delete_clear(self, backend):
        assert backend.load() == {}
        backend.store("k1", {"a": 1})
        backend.store("k2", {"b": [1, 2]})
        backend.store("k1", {"a": 2})
        assert backend.load() == {"k1": {"a": 2}, "k2": {"b": [1, 2]}}
        assert len(backend) == 2
        assert backend.get("k1") == {"a": 2}
        assert backend.get("missing") is None
        backend.delete("k1")
        backend.delete("missing")  # no-op
        assert backend.load() == {"k2": {"b": [1, 2]}}
        assert backend.mutate_all(lambda entries: {}) == {}
        assert backend.load() == {}

    def test_update_is_the_cas_primitive(self, backend):
        backend.store("k", {"n": 1})
        assert backend.update("k", lambda cur: {"n": cur["n"] + 1}) == \
            {"n": 2}
        assert backend.update("new", lambda cur: {"was": cur}) == \
            {"was": None}
        backend.update("k", lambda cur: None)  # None deletes
        assert backend.get("k") is None

    def test_update_raising_fn_aborts_the_mutation(self, backend):
        backend.store("k", {"n": 1})

        def boom(cur):
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            backend.update("k", boom)
        assert backend.get("k") == {"n": 1}

    def test_replace_and_mutate_all(self, backend):
        backend.store("keep", {"n": 1})
        backend.store("drop", {"n": 2})
        out = backend.mutate_all(
            lambda entries: {"keep": entries["keep"], "new": {"n": 3}}
        )
        assert out == {"keep": {"n": 1}, "new": {"n": 3}}
        assert backend.load() == {"keep": {"n": 1}, "new": {"n": 3}}
        backend.mutate_all(lambda entries: {"only": {"n": 4}})
        assert backend.load() == {"only": {"n": 4}}

    def test_namespaces_do_not_leak(self, server):
        plans = RemoteBackend("127.0.0.1", server.port, namespace="plans")
        jobs = RemoteBackend("127.0.0.1", server.port, namespace="jobs")
        plans.store("k", {"tier": "plan"})
        jobs.store("k", {"tier": "job"})
        assert plans.load() == {"k": {"tier": "plan"}}
        assert jobs.load() == {"k": {"tier": "job"}}
        jobs.mutate_all(lambda entries: {})
        assert plans.get("k") == {"tier": "plan"}  # replace is ns-scoped
        plans.close()
        jobs.close()

    def test_ping_reports_the_protocol(self, backend):
        pong = backend.ping()
        assert pong["wire_format"] == WIRE_FORMAT
        assert pong["server"] == "repro-store"
        assert "shard" not in pong

    def test_data_survives_a_server_restart(self, tmp_path):
        path = str(tmp_path / "store.json")
        with StoreServer(path=path) as first:
            client = RemoteBackend("127.0.0.1", first.port, namespace="ns")
            client.store("k", {"v": 1})
            client.close()
        with StoreServer(path=path) as second:
            client = RemoteBackend("127.0.0.1", second.port, namespace="ns")
            try:
                assert client.get("k") == {"v": 1}
                # Inherited entries re-enter version history at 1: a CAS
                # cycle read-modify-writes them like any other entry.
                assert client.update("k", lambda cur: {"v": cur["v"] + 1}) \
                    == {"v": 2}
            finally:
                client.close()

    def test_unreachable_store_degrades_load_but_fails_update(self):
        # Grab a port nothing listens on.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        dead = RemoteBackend("127.0.0.1", port, retries=1,
                             backoff_s=0.001, timeout_s=0.5)
        with pytest.warns(UserWarning, match="starting cold"):
            assert dead.load() == {}
        assert dead.get("k") is None
        with pytest.raises(RemoteStoreError, match="unreachable"):
            dead.store("k", {"v": 1})
        with pytest.raises(RemoteStoreError):
            dead.update("k", lambda cur: {"v": 1})
        dead.close()

    def test_client_reconnects_after_the_server_drops_it(
        self, server, backend
    ):
        backend.store("k", {"v": 1})
        # The server tears down every live connection (deploy restart,
        # idle reaper): the pooled client socket is now dead...
        for casualty in list(server._clients):
            casualty.sock.shutdown(socket.SHUT_RDWR)
        # ...and the next call must retry on a fresh connection.
        assert backend.get("k") == {"v": 1}


# ---------------------------------------------------------------------------
# failure frames, straight protocol
# ---------------------------------------------------------------------------
#: Lines of every kind a store stream may carry: valid frames, malformed
#: and non-object JSON, unknown ops, bytes that decode to U+FFFD, blanks.
SPLIT_LINES = [
    b'{"op": "ping"}',
    b'{"op": "put", "key": "k", "ns": "t", "value": {"n": 1}}',
    b'{"op": "get", "key": "k", "ns": "t"}',
    b'{"op": "cas", "key": "k", "ns": "t", "value": 2, "expect": 1}',
    b'{"op": "delete", "key": "k", "ns": "t"}',
    b'{"op": "scan", "ns": "t"}',
    b'{"op": "get", "key": "k", "ns": "t", "pad": "\xff\xfe"}',
    b"this is not json",
    b'{"op": "get", "key"',
    b"[1, 2, 3]",
    b"42",
    b'{"op": "explode"}',
    b'{"op": 7}',
    b"\xff\xfe{}",
    b"",
    b"   ",
]

#: Values that break careless coercions: non-finite and fractional
#: floats, bools posing as ints, null, empty and long strings.
HOSTILE = st.sampled_from([
    float("inf"), float("-inf"), float("nan"), 1.5, -1, True, False, None,
    "", "x" * 4096,
])

#: Any JSON value a frame field may carry, nested ones included.
JSON_VALUES = st.recursive(
    HOSTILE | st.integers() | st.floats() | st.text(max_size=16),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)

#: One well-formed frame per op the store answers, plus unknown ops.
FRAME_TEMPLATES = [
    {"op": "ping"},
    {"op": "get", "ns": "t", "key": "k"},
    {"op": "put", "ns": "t", "key": "k", "value": 1},
    {"op": "delete", "ns": "t", "key": "k"},
    {"op": "cas", "ns": "t", "key": "k", "value": 2, "expect": 0,
     "txn": "x"},
    {"op": "scan", "ns": "t"},
    {"op": "replace", "ns": "t", "entries": {"k": 3}, "expect_ns": 0},
    {"op": "jobs", "ns": "t"},
    {"op": "explode"},
]


@st.composite
def store_frames(draw):
    """A template frame with up to two fields dropped or replaced by
    arbitrary JSON values."""
    frame = dict(draw(st.sampled_from(FRAME_TEMPLATES)))
    for field in draw(st.lists(st.sampled_from(sorted(frame)), max_size=2,
                               unique=True)):
        if draw(st.booleans()):
            del frame[field]
        else:
            frame[field] = draw(JSON_VALUES)
    return frame


class TestWireProtocol:
    def test_malformed_frames_get_structured_errors(self, server):
        client = RawClient(server.port)
        try:
            client.send_raw(b"this is not json\n")
            assert client.recv()["error"] == "bad_frame"
            client.send_raw(b"[1, 2, 3]\n")
            assert client.recv()["error"] == "bad_frame"
            assert client.call(op="explode")["error"] == "bad_request"
            # Job progress is the front-end's `jobs` verb, not a store op.
            assert client.call(op="jobs")["error"] == "bad_request"
            assert client.call(op=7)["error"] == "bad_request"
            assert client.call(op="get")["error"] == "bad_request"  # no key
            assert client.call(op="get", key="")["error"] == "bad_request"
            assert client.call(op="get", key="k", ns="bad:ns")["error"] \
                == "bad_request"
            assert client.call(
                op="replace", entries=[1, 2]
            )["error"] == "bad_request"
            # A whole namespace is only rewritten by replace.
            assert client.call(op="clear")["error"] == "bad_request"
            # The connection survived every malformed frame.
            assert client.call(op="ping")["ok"]
        finally:
            client.close()

    def test_deeply_nested_frame_is_a_bad_frame(self, server):
        # Far under the frame cap, far over the JSON decoder's depth.
        client = RawClient(server.port)
        try:
            client.send_raw(b'{"op":"ping","x":' + b"[" * 100_000 + b"\n")
            response = client.recv()
            assert response["error"] == "bad_frame"
            assert "invalid JSON frame" in response["detail"]
            assert client.call(op="ping")["ok"]  # same connection
        finally:
            client.close()

    def test_oversized_frame_closes_the_connection(self, tmp_path):
        with StoreServer(backend=MemoryBackend(),
                         max_frame_bytes=2048) as small:
            client = RawClient(small.port)
            try:
                response = client.call(
                    op="put", key="big", ns="t", value="x" * 4096
                )
                assert response["error"] == "frame_too_large"
                assert client.recv() is None  # server hung up
            finally:
                client.close()
            # A well-behaved client on the same server is unaffected,
            # and the oversized put never landed.
            survivor = RemoteBackend("127.0.0.1", small.port, namespace="t",
                                     retries=0)
            try:
                assert survivor.load() == {}
            finally:
                survivor.close()

    def test_oversized_value_surfaces_as_a_store_error(self):
        with StoreServer(backend=MemoryBackend(),
                         max_frame_bytes=2048) as small:
            fat = RemoteBackend("127.0.0.1", small.port, retries=1,
                                backoff_s=0.001,
                                max_frame_bytes=small.max_frame_bytes)
            try:
                with pytest.raises(RemoteStoreError):
                    fat.store("big", {"blob": "x" * 4096})
            finally:
                fat.close()

    def test_mid_stream_disconnect_leaves_the_server_serving(self, server):
        rude = RawClient(server.port)
        rude.send_raw(b'{"op": "put", "key": "half')  # no newline, ever
        rude.close()
        polite = RawClient(server.port)
        try:
            assert polite.call(op="ping")["ok"]
            assert server.frames_served >= 1
        finally:
            polite.close()

    def test_client_that_never_reads_is_dropped(self, server):
        """A client that pipelines reads and never takes the replies is
        disconnected once a frame cap of them piles up, and nobody else
        waits on it."""
        value = "x" * 65536
        seeder = RawClient(server.port)
        try:
            assert seeder.call(op="put", key="big", ns="t", value=value)["ok"]
        finally:
            seeder.close()
        flood = socket.socket()
        flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        flood.connect(("127.0.0.1", server.port))
        flood.settimeout(2)
        get = json.dumps({"op": "get", "key": "big", "ns": "t"}).encode()
        gets = 400  # ~26 MB of replies nobody reads
        try:
            flood.sendall((get + b"\n") * gets)
            bystander = RawClient(server.port)
            bystander.sock.settimeout(2)
            try:
                assert bystander.call(op="ping")["ok"]
            finally:
                bystander.close()
            # Reading now finds what had left the server before it hung
            # up, then the end of the stream -- never all the replies.
            received = 0
            try:
                while chunk := flood.recv(1 << 20):
                    received += len(chunk)
            except ConnectionResetError:
                pass
            assert received < gets * len(value)
        finally:
            flood.close()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from(SPLIT_LINES), max_size=12),
           st.sampled_from([line for line in SPLIT_LINES if line.strip()]),
           st.data())
    def test_replies_do_not_depend_on_how_the_stream_is_split(
        self, lines, final, data
    ):
        assert_split_invariant(
            lambda: StoreServer(backend=MemoryBackend()), lines, final, data
        )

    def test_cas_conflict_and_txn_replay(self, server):
        client = RawClient(server.port)
        try:
            put = client.call(op="put", key="k", ns="t", value={"n": 1})
            assert put["ok"] and put["version"] == 1
            # Wrong expectation: structured conflict, current version.
            stale = client.call(op="cas", key="k", ns="t",
                                value={"n": 9}, expect=0)
            assert stale == {"ok": False, "error": "cas_conflict",
                             "version": 1, "expect": 0}
            # Right expectation applies...
            win = client.call(op="cas", key="k", ns="t",
                              value={"n": 2}, expect=1, txn="t-1")
            assert win["ok"] and win["version"] == 2
            # ...and the *same* transaction retried (the client never saw
            # the ack) replays as applied instead of double-applying.
            replay = client.call(op="cas", key="k", ns="t",
                                 value={"n": 2}, expect=1, txn="t-1")
            assert replay["ok"] and replay.get("replayed")
            assert replay["version"] == 2
            assert client.call(op="get", key="k", ns="t")["value"] == {"n": 2}
        finally:
            client.close()

    def test_version_history_survives_deletion(self, server):
        client = RawClient(server.port)
        try:
            assert client.call(op="put", key="k", ns="t",
                               value=1)["version"] == 1
            assert client.call(op="delete", key="k", ns="t")["version"] == 2
            assert client.call(op="put", key="k", ns="t",
                               value=2)["version"] == 3
            # A CAS from before the delete still loses: the counter
            # never restarted at 1.
            stale = client.call(op="cas", key="k", ns="t", value=9, expect=1)
            assert stale["error"] == "cas_conflict"
            missing = client.call(op="delete", key="nope", ns="t")
            assert missing["ok"] and not missing["deleted"]
        finally:
            client.close()


    def test_non_integer_versions_and_empty_keys_are_bad_requests(
        self, server
    ):
        client = RawClient(server.port)
        try:
            for literal in (b"1e999", b"Infinity", b"NaN", b"1.5"):
                for frame in (
                    b'{"op": "cas", "key": "k", "ns": "t", "value": 1, '
                    b'"expect": ' + literal + b"}",
                    b'{"op": "replace", "ns": "t", "entries": {}, '
                    b'"expect_ns": ' + literal + b"}",
                ):
                    client.send_raw(frame + b"\n")
                    assert client.recv()["error"] == "bad_request", frame
            # No per-key op could reach an entry stored under "".
            assert client.call(op="replace", ns="t",
                               entries={"": 1, "k": 2})["error"] \
                == "bad_request"
            assert client.call(op="scan", ns="t")["entries"] == {}
        finally:
            client.close()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(store_frames() | JSON_VALUES, min_size=1, max_size=8))
    @example([{"op": "cas", "key": "k", "value": 1,
               "expect": float("inf")}])
    @example([{"op": "replace", "entries": {}, "expect_ns": float("inf")}])
    def test_fuzzed_frames_never_read_as_store_faults(self, frames):
        store = StoreServer(backend=MemoryBackend())
        for frame in frames:
            reply = store._handle_frame(json.dumps(frame))
            assert reply["ok"] is True or reply["error"] in {
                "bad_frame", "bad_request", "cas_conflict",
            }, (frame, reply)
        assert store._handle_frame('{"op": "ping"}')["ok"]


# ---------------------------------------------------------------------------
# retry over a genuinely flaky server backend
# ---------------------------------------------------------------------------
class TestClientRetry:
    def test_transient_server_fault_is_retried_to_success(self):
        faulty = FaultyBackend(MemoryBackend(), plan={
            "store": ["timeout", None],
        })
        with StoreServer(backend=faulty) as flaky:
            client = RemoteBackend("127.0.0.1", flaky.port, namespace="t",
                                   backoff_s=0.001)
            try:
                client.store("k", {"v": 1})  # attempt 1 fails server-side
                assert client.get("k") == {"v": 1}
            finally:
                client.close()
        assert ("store", "timeout") in faulty.injected

    def test_ambiguous_server_write_converges_on_retry(self):
        # The server backend applies the write, then "fails": the client
        # sees server_error, retries the same idempotent put, and the
        # store ends correct with no duplicate entry.
        faulty = FaultyBackend(MemoryBackend(), plan={
            "store": ["fail_after_write", None],
        })
        with StoreServer(backend=faulty) as flaky:
            client = RemoteBackend("127.0.0.1", flaky.port, namespace="t",
                                   backoff_s=0.001)
            try:
                client.store("k", {"v": 1})
                assert client.load() == {"k": {"v": 1}}
            finally:
                client.close()

    def test_retry_budget_exhaustion_raises(self):
        faulty = FaultyBackend(MemoryBackend(), plan={
            "store": ["timeout"] * 8,
        })
        with StoreServer(backend=faulty) as flaky:
            client = RemoteBackend("127.0.0.1", flaky.port, namespace="t",
                                   retries=2, backoff_s=0.001)
            try:
                with pytest.raises(RemoteStoreError, match="unreachable"):
                    client.store("k", {"v": 1})
            finally:
                client.close()


# ---------------------------------------------------------------------------
# the 16-client CAS storm
# ---------------------------------------------------------------------------
class TestConcurrentStorm:
    def test_sixteen_clients_contending_on_one_key(self, server):
        """16 raw-protocol clients CAS-increment one counter.  Every
        increment must land exactly once, and the applied versions --
        collected across all clients -- must form one strictly monotone,
        gapless sequence: the audit that proves the version counter is
        an honest serialization order."""
        clients, increments = 16, 8
        applied = [[] for _ in range(clients)]
        barrier = threading.Barrier(clients)

        def storm(slot):
            client = RawClient(server.port)
            try:
                barrier.wait()
                done = 0
                while done < increments:
                    seen = client.call(op="get", key="counter", ns="t")
                    value = seen["value"] or 0
                    outcome = client.call(
                        op="cas", key="counter", ns="t", value=value + 1,
                        expect=seen["version"],
                        txn=f"storm-{slot}-{done}",
                    )
                    if outcome.get("ok"):
                        applied[slot].append(outcome["version"])
                        done += 1
                    else:
                        assert outcome["error"] == "cas_conflict"
            finally:
                client.close()

        threads = [threading.Thread(target=storm, args=(slot,))
                   for slot in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = clients * increments
        final = RawClient(server.port)
        try:
            assert final.call(op="get", key="counter",
                              ns="t")["value"] == total
        finally:
            final.close()
        # Per client the versions are strictly increasing...
        for versions in applied:
            assert versions == sorted(versions)
            assert len(set(versions)) == len(versions)
        # ...and globally they are one gapless serialization order.
        merged = sorted(v for versions in applied for v in versions)
        assert merged == list(range(1, total + 1))

    def test_remote_backend_update_storm_loses_no_increment(self, server):
        def bump():
            client = RemoteBackend("127.0.0.1", server.port, namespace="t",
                                   backoff_s=0.001)
            try:
                for _ in range(10):
                    client.update(
                        "counter",
                        lambda cur: {"n": (cur or {"n": 0})["n"] + 1},
                    )
            finally:
                client.close()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        audit = RemoteBackend("127.0.0.1", server.port, namespace="t")
        try:
            assert audit.get("counter") == {"n": 80}
        finally:
            audit.close()


# ---------------------------------------------------------------------------
# a genuinely separate store process
# ---------------------------------------------------------------------------
class TestStoreProcess:
    def test_live_repro_store_process(self, tmp_path):
        path = str(tmp_path / "fleet.json")
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "store", "--path", path,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on 127.0.0.1:"), banner
            port = int(banner.rsplit(":", 1)[1])

            client = RemoteBackend("127.0.0.1", port, namespace="jobs")
            try:
                assert client.ping()["wire_format"] == WIRE_FORMAT
                client.store("k", {"v": 1})
                assert client.update("k", lambda cur: {"v": cur["v"] + 1}) \
                    == {"v": 2}
                # The checkpoint layer speaks through the same URL with
                # zero call-site changes.
                store = CheckpointStore(
                    path=f"tcp://127.0.0.1:{port}/checkpoints"
                )
                store.submit("j1", {"dataset": "whatever"})
                assert "j1" in store.pending()
            finally:
                client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        # The store process persisted everything to its backing file,
        # namespaced so the tiers cannot collide.
        persisted = JsonFileBackend(path).load()
        assert persisted["jobs::k"] == {"v": 2}
        assert persisted["checkpoints::j1"]["status"] == "queued"
