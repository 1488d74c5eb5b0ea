"""The fleet's network boundary: ``repro store`` wire protocol and the
remote ``CacheBackend``.

Covers the URL scheme and fingerprint-range shard map, the full
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

from repro.service import (
    CheckpointStore,
    JsonFileBackend,
    MemoryBackend,
    RemoteBackend,
    RemoteStoreError,
    ShardedBackend,
    StoreServer,
    open_backend,
    open_remote_backend,
    parse_store_url,
    shard_index,
)
from repro.service.remote import WIRE_FORMAT, shard_point

from support import FaultyBackend

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
# URL scheme and shard map
# ---------------------------------------------------------------------------
class TestStoreUrls:
    def test_single_endpoint_with_namespace(self):
        assert parse_store_url("tcp://db.example:7500/plans") == \
            ([("db.example", 7500)], "plans")

    def test_namespace_defaults(self):
        assert parse_store_url("tcp://h:1")[1] == "default"
        assert parse_store_url("tcp://h:1/")[1] == "default"

    def test_multi_endpoint_shard_set(self):
        endpoints, namespace = parse_store_url(
            "tcp://a:1,b:2 , c:3/jobs"
        )
        assert endpoints == [("a", 1), ("b", 2), ("c", 3)]
        assert namespace == "jobs"

    @pytest.mark.parametrize("url", [
        "file:///x", "tcp://", "tcp:///ns", "tcp://hostonly/ns",
        "tcp://h:notaport/ns", "tcp://h:1/bad:ns", "tcp://h:1/-leading",
        "tcp://h:1/" + "n" * 65,
    ])
    def test_malformed_urls_are_rejected(self, url):
        with pytest.raises(ValueError):
            parse_store_url(url)

    def test_open_remote_backend_picks_client_shape(self):
        single = open_remote_backend("tcp://127.0.0.1:9/ns")
        assert isinstance(single, RemoteBackend)
        assert single.namespace == "ns"
        fleet = open_remote_backend("tcp://127.0.0.1:9,127.0.0.1:10/ns")
        assert isinstance(fleet, ShardedBackend)
        assert len(fleet.shards) == 2

    def test_open_backend_dispatches_tcp_urls(self):
        assert isinstance(
            open_backend("tcp://127.0.0.1:9/ns"), RemoteBackend
        )

    def test_shard_map_covers_the_range(self):
        # Hex fingerprints partition by leading 32 bits...
        assert shard_point("00000000abc") == 0
        assert shard_point("ffffffff123") == 0xFFFFFFFF
        assert shard_index("00000000abc", 4) == 0
        assert shard_index("ffffffff123", 4) == 3
        # ...non-hex keys (job ids) still land on exactly one shard.
        for key in ("job-7", "worker!w-a", "anything"):
            owners = {shard_index(key, 4) for _ in range(3)}
            assert len(owners) == 1
            assert 0 <= owners.pop() < 4

    def test_shard_map_spreads_fingerprints(self):
        import hashlib

        keys = [hashlib.sha256(str(n).encode()).hexdigest()
                for n in range(200)]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[shard_index(key, 4)] += 1
        assert all(count > 20 for count in counts)  # no starved shard


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
        with server._clients_lock:
            casualties = list(server._clients)
        for casualty in casualties:
            casualty.shutdown(socket.SHUT_RDWR)
        # ...and the next call must retry on a fresh connection.
        assert backend.get("k") == {"v": 1}


# ---------------------------------------------------------------------------
# failure frames, straight protocol
# ---------------------------------------------------------------------------
class TestWireProtocol:
    def test_malformed_frames_get_structured_errors(self, server):
        client = RawClient(server.port)
        try:
            client.send_raw(b"this is not json\n")
            assert client.recv()["error"] == "bad_frame"
            client.send_raw(b"[1, 2, 3]\n")
            assert client.recv()["error"] == "bad_frame"
            assert client.call(op="explode")["error"] == "bad_request"
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

    def test_wrong_shard_keys_are_refused_not_stored(self):
        with StoreServer(backend=MemoryBackend(), shard=(0, 2)) as left:
            client = RawClient(left.port)
            try:
                foreign = "ffffffff-key"  # top of the range: shard 1's
                response = client.call(op="put", key=foreign, ns="t",
                                       value=1)
                assert response["error"] == "wrong_shard"
                assert response["shard"] == 1
                local = client.call(op="put", key="00000000-key", ns="t",
                                    value=1)
                assert local["ok"]
            finally:
                client.close()

    def test_shard_bounds_are_validated(self):
        with pytest.raises(ValueError, match="shard index"):
            StoreServer(backend=MemoryBackend(), shard=(2, 2))


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
# sharded namespaces end to end
# ---------------------------------------------------------------------------
class TestShardedBackend:
    def test_keys_land_on_their_owning_shard_only(self):
        with StoreServer(backend=MemoryBackend(), shard=(0, 2)) as left, \
                StoreServer(backend=MemoryBackend(), shard=(1, 2)) as right:
            fleet = open_remote_backend(
                f"tcp://127.0.0.1:{left.port},127.0.0.1:{right.port}/ns"
            )
            try:
                keys = [f"job-{n}" for n in range(24)]
                for key in keys:
                    fleet.store(key, {"key": key})
                assert set(fleet.load()) == set(keys)
                assert len(fleet) == 24
                # Each store holds exactly its own range, nothing else.
                held = [
                    {ikey.split("::", 1)[1]
                     for ikey in shard.backend.load()}
                    for shard in (left, right)
                ]
                for index, own in enumerate(held):
                    assert own == {key for key in keys
                                   if shard_index(key, 2) == index}
                    assert own  # the split actually used both shards
                # Point ops route; CAS stays single-shard-atomic.
                fleet.update("job-0", lambda cur: {**cur, "touched": True})
                assert fleet.get("job-0")["touched"]
                fleet.delete("job-1")
                assert fleet.get("job-1") is None
                fleet.mutate_all(lambda entries: {"job-2": {"kept": True}})
                assert fleet.load() == {"job-2": {"kept": True}}
            finally:
                fleet.close()


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
