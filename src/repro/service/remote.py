"""The fleet layer's network boundary: a remote ``CacheBackend``.

Everything the single-box service persists -- plan entries, job
checkpoints, leases -- goes through the :class:`CacheBackend` interface,
so the way to share state across machines is to put *that interface* on
the wire, not to invent a new storage model.  Two halves:

* :class:`StoreServer` -- the ``repro store`` process: a line-protocol
  TCP server over any local backend (memory / JSON / SQLite), on the
  same :class:`~repro.service.lineserver.LineServer` loop as the request
  front-end.  One JSON object per line in, one out, every frame answered
  on the loop thread in arrival order.  Ops mirror the backend contract
  (``get``/``put``/``delete``/``scan``/``replace``) plus the
  two things a *network* RMW needs that a callback cannot provide:
  per-key **versions** and a ``cas`` op (put-if-version, with a client
  transaction id so a retried CAS whose first attempt actually landed is
  recognized as applied instead of double-applied).  A ``jobs`` op
  reports per-job progress/ETA and worker heartbeats straight from the
  stored checkpoints.
* :class:`RemoteBackend` -- the client: implements the full
  :class:`CacheBackend` contract over that protocol, with
  retry/timeout/exponential backoff on transport faults.
  :meth:`RemoteBackend.update` runs the caller's ``fn`` locally inside
  a versioned-CAS loop, so job leases arbitrate exactly as they do over
  flock/SQLite -- the losing writer re-reads the winner's completed
  write, and ``fn``'s own refusals (:class:`JobLeaseError`) propagate
  untouched.

Keys are partitioned into **namespaces** (one server can hold a plan
store, a checkpoint store and a calibration blob without key
collisions), and a namespace can be **range-sharded** across N store
processes by fingerprint prefix (:func:`shard_index`);
:class:`ShardedBackend` routes per-key ops to the owning shard.

:func:`open_remote_backend` parses the ``tcp://host:port/namespace``
scheme (``host:port,host:port,.../ns`` for a shard set) that
:func:`~repro.service.backends.open_backend` dispatches here, so
``--cache``, ``--checkpoint`` and calibration paths point at shared
state with zero call-site changes.

**Durability contract.**  Same as every backend: :meth:`load` never
raises (an unreachable store warns and returns ``{}`` -- the service
starts cold), while :meth:`update` *does* raise after retries are
exhausted, because leases and checkpoints must not silently lose their
durability guarantee.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import time
import uuid
import warnings

from repro.service.backends import STORE_FORMAT, CacheBackend, open_backend
from repro.service.lineserver import MAX_FRAME_BYTES, LineServer

#: Protocol version spoken by StoreServer/RemoteBackend; a client can
#: check it via ``ping``.  Bump on incompatible frame changes.
WIRE_FORMAT = 1

#: Namespace the URL form ``tcp://host:port`` (no path) maps to.
DEFAULT_NAMESPACE = "default"

#: Client defaults: per-call socket timeout, transport retry attempts,
#: and the exponential backoff between them.
DEFAULT_TIMEOUT_S = 10.0
DEFAULT_RETRIES = 4
DEFAULT_BACKOFF_S = 0.05
MAX_BACKOFF_S = 1.0

#: CAS attempts before update() gives up (contention, not failure --
#: each attempt re-reads the current value, so livelock would need a
#: writer storm sustained past this count).
MAX_CAS_ATTEMPTS = 64

_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Separator between namespace and key inside the server's flat inner
#: backend.  Namespaces cannot contain ``:`` (see the regex), so
#: splitting at the first occurrence is unambiguous.
_NS_SEP = "::"

#: Server errors the client retries (transient by construction: the
#: faulty-backend window passes, the next attempt may succeed).  Frame
#: and protocol errors are deterministic -- retrying them only hides
#: the bug -- and ``cas_conflict`` is contention, handled by the CAS
#: loop, not the transport layer.
_RETRYABLE_ERRORS = {"server_error"}


class RemoteStoreError(RuntimeError):
    """A remote store call failed past the client's retry budget."""


# ----------------------------------------------------------------------
# fingerprint-range sharding
# ----------------------------------------------------------------------
def shard_point(key) -> int:
    """Map a store key onto the 32-bit fingerprint range.

    Workload fingerprints are hex digests, so their leading 8 hex chars
    *are* a uniform point in ``[0, 2^32)`` -- range-partitioning on it
    splits the fingerprint space into contiguous slabs.  Non-hex keys
    (job ids, heartbeat records) are hashed onto the same range so every
    key has exactly one owner shard.
    """
    head = str(key)[:8].lower()
    if len(head) == 8 and all(c in "0123456789abcdef" for c in head):
        return int(head, 16)
    digest = hashlib.sha1(str(key).encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


def shard_index(key, count) -> int:
    """The shard (``0..count-1``) owning ``key`` under a ``count``-way
    range split of the fingerprint space."""
    count = max(1, int(count))
    return min(count - 1, (shard_point(key) * count) >> 32)


# ----------------------------------------------------------------------
# URL scheme
# ----------------------------------------------------------------------
def parse_store_url(url):
    """``tcp://host:port[,host:port...][/namespace]`` ->
    ``([(host, port), ...], namespace)``."""
    text = str(url)
    if not text.startswith("tcp://"):
        raise ValueError(f"not a tcp:// store URL: {url!r}")
    rest = text[len("tcp://"):]
    hosts_part, _, namespace = rest.partition("/")
    namespace = namespace or DEFAULT_NAMESPACE
    if not _NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"invalid store namespace {namespace!r}: expected 1-64 chars "
            "of [A-Za-z0-9._-] starting with a letter or digit"
        )
    endpoints = []
    for part in hosts_part.split(","):
        host, sep, port = part.strip().rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"store endpoint {part!r} must look like host:port"
            )
        try:
            endpoints.append((host, int(port)))
        except ValueError:
            raise ValueError(
                f"store endpoint {part!r} has a non-numeric port"
            ) from None
    if not endpoints:
        raise ValueError(f"store URL {url!r} names no endpoints")
    return endpoints, namespace


def open_remote_backend(url, **options) -> CacheBackend:
    """A :class:`RemoteBackend` (or, for a multi-endpoint URL, a
    :class:`ShardedBackend`) for one ``tcp://`` store URL."""
    endpoints, namespace = parse_store_url(url)
    if len(endpoints) == 1:
        host, port = endpoints[0]
        return RemoteBackend(host, port, namespace=namespace, **options)
    return ShardedBackend([
        RemoteBackend(host, port, namespace=namespace, **options)
        for host, port in endpoints
    ])


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class StoreServer(LineServer):
    """``repro store``: a line-protocol TCP server over a local backend,
    answering every frame on the loop thread in arrival order.

    All mutations serialize under one lock, which is what makes the
    ``cas`` op an honest check-and-set: the version check and the write
    are one critical section.  Versions start at 1 for entries that
    already exist in the underlying file and increase by exactly 1 per
    mutation (puts, CAS writes, deletes alike), so an audit that reads
    versions across a write storm must see a strictly monotone sequence
    per key.  Deleted keys keep their version counter -- a reused key
    resumes counting instead of restarting at 1, so stale CAS attempts
    from before the delete still lose.

    ``shard=(index, count)`` makes the server *refuse* keys outside its
    fingerprint range (``wrong_shard``) instead of silently holding
    strays a sibling shard would never find.
    """

    def __init__(self, backend=None, path=None, host="127.0.0.1", port=0,
                 shard=None, max_frame_bytes=MAX_FRAME_BYTES, clock=None):
        if backend is None:
            from repro.service.backends import MemoryBackend

            backend = open_backend(path) if path else MemoryBackend()
        super().__init__(host, port, max(1024, int(max_frame_bytes)))
        self.backend = backend
        self.shard = None
        if shard is not None:
            index, count = int(shard[0]), int(shard[1])
            if not 0 <= index < count:
                raise ValueError(f"shard index {index} not in 0..{count - 1}")
            self.shard = (index, count)
        self._clock = clock or time.time
        self._lock = threading.Lock()
        #: Per internal key: mutation counter (monotone, survives
        #: deletes for the server's lifetime).
        self._versions = {}
        #: Per internal key: last applied CAS transaction id, so a
        #: client retrying a CAS that actually landed (fail-after-write)
        #: gets "applied" instead of a double-apply.
        self._applied_txns = {}
        #: Per namespace: whole-namespace mutation counter backing the
        #: optimistic ``replace`` (mutate_all) path.
        self._ns_versions = {}
        self.frames_served = 0

    def stop(self) -> None:
        """Stop serving, then close the backing store."""
        super().stop()
        self.backend.close()

    def _handle_line(self, conn, line) -> None:
        # The protocol has no correlation id: every frame is answered
        # here, on the loop thread, in arrival order.
        self._send(conn, self._handle_frame(line))

    # -- frame dispatch --------------------------------------------------
    def _handle_frame(self, line) -> dict:
        self.frames_served += 1
        try:
            frame = json.loads(line)
        except (ValueError, RecursionError) as exc:  # malformed / too deep
            return {"ok": False, "error": "bad_frame",
                    "detail": f"invalid JSON frame: {exc}"}
        if not isinstance(frame, dict):
            return {"ok": False, "error": "bad_frame",
                    "detail": "frame must be a JSON object"}
        op = frame.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None:
            return {"ok": False, "error": "bad_request",
                    "detail": f"unknown op {op!r}"}
        try:
            return handler(frame)
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": "bad_request",
                    "detail": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # noqa: BLE001 - the store must live
            return {"ok": False, "error": "server_error",
                    "detail": f"{type(exc).__name__}: {exc}"}

    # -- key plumbing ----------------------------------------------------
    @staticmethod
    def _namespace(frame) -> str:
        namespace = frame.get("ns", DEFAULT_NAMESPACE)
        if not isinstance(namespace, str) or not _NAMESPACE_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        return namespace

    @staticmethod
    def _key(frame) -> str:
        key = frame["key"]
        if not isinstance(key, str) or not key:
            raise ValueError(f"key must be a non-empty string, got {key!r}")
        return key

    def _wrong_shard(self, key):
        if self.shard is None:
            return None
        index, count = self.shard
        owner = shard_index(key, count)
        if owner == index:
            return None
        return {
            "ok": False, "error": "wrong_shard",
            "detail": (
                f"key {key!r} belongs to shard {owner}/{count}, "
                f"this store is shard {index}/{count}"
            ),
            "shard": owner,
        }

    def _ikey(self, namespace, key) -> str:
        return f"{namespace}{_NS_SEP}{key}"

    def _version(self, ikey) -> int:
        version = self._versions.get(ikey)
        if version is None:
            # An entry inherited from the underlying file (written
            # before this server existed) starts its history at 1.
            # Mutating ops must call this *before* touching the backend
            # (see _bump), or the key's own first write would be
            # mistaken for an inherited entry.
            version = 1 if self.backend.get(ikey) is not None else 0
            self._versions[ikey] = version
        return version

    def _bump(self, namespace, ikey) -> int:
        # Assumes the pre-mutation version is already cached: every
        # mutating op snapshots _version(ikey) before writing, so the
        # write itself cannot shift the baseline.
        version = self._version(ikey) + 1
        self._versions[ikey] = version
        self._ns_versions[namespace] = self._ns_versions.get(namespace, 0) + 1
        return version

    def _ns_entries(self, namespace) -> dict:
        prefix = f"{namespace}{_NS_SEP}"
        return {
            ikey[len(prefix):]: value
            for ikey, value in self.backend.load().items()
            if ikey.startswith(prefix)
        }

    # -- ops -------------------------------------------------------------
    def _op_ping(self, frame) -> dict:
        return {
            "ok": True, "server": "repro-store",
            "wire_format": WIRE_FORMAT, "store_format": STORE_FORMAT,
            "backend": self.backend.name,
            **({"shard": list(self.shard)} if self.shard else {}),
        }

    def _op_get(self, frame) -> dict:
        namespace, key = self._namespace(frame), self._key(frame)
        rejected = self._wrong_shard(key)
        if rejected is not None:
            return rejected
        with self._lock:
            value = self.backend.get(self._ikey(namespace, key))
            version = self._version(self._ikey(namespace, key))
        return {"ok": True, "value": value, "version": version}

    def _op_put(self, frame) -> dict:
        namespace, key = self._namespace(frame), self._key(frame)
        rejected = self._wrong_shard(key)
        if rejected is not None:
            return rejected
        with self._lock:
            ikey = self._ikey(namespace, key)
            self._version(ikey)  # snapshot pre-write history
            self.backend.store(ikey, frame["value"])
            return {"ok": True, "version": self._bump(namespace, ikey)}

    def _op_delete(self, frame) -> dict:
        namespace, key = self._namespace(frame), self._key(frame)
        rejected = self._wrong_shard(key)
        if rejected is not None:
            return rejected
        with self._lock:
            ikey = self._ikey(namespace, key)
            self._version(ikey)  # snapshot pre-delete history
            existed = self.backend.get(ikey) is not None
            if existed:
                self.backend.delete(ikey)
                self._bump(namespace, ikey)
            return {"ok": True, "deleted": existed,
                    "version": self._version(ikey)}

    def _op_cas(self, frame) -> dict:
        """Put-if-version: the network form of ``CacheBackend.update``.

        ``expect`` is the version the client read (0 for "absent with no
        history"); ``value: null`` deletes.  ``txn`` makes retries after
        a lost response idempotent: if this exact transaction already
        applied, the reply says so instead of double-applying.
        """
        namespace, key = self._namespace(frame), self._key(frame)
        rejected = self._wrong_shard(key)
        if rejected is not None:
            return rejected
        expect = int(frame.get("expect", 0))
        txn = frame.get("txn")
        with self._lock:
            ikey = self._ikey(namespace, key)
            if txn is not None and self._applied_txns.get(ikey) == txn:
                return {"ok": True, "version": self._version(ikey),
                        "applied": True, "replayed": True}
            current = self._version(ikey)
            if current != expect:
                return {"ok": False, "error": "cas_conflict",
                        "version": current, "expect": expect}
            if frame.get("value") is None:
                if self.backend.get(ikey) is not None:
                    self.backend.delete(ikey)
            else:
                self.backend.store(ikey, frame["value"])
            version = self._bump(namespace, ikey)
            if txn is not None:
                self._applied_txns[ikey] = txn
            return {"ok": True, "version": version, "applied": True}

    def _op_scan(self, frame) -> dict:
        namespace = self._namespace(frame)
        with self._lock:
            return {
                "ok": True,
                "entries": self._ns_entries(namespace),
                "ns_version": self._ns_versions.get(namespace, 0),
            }

    def _op_replace(self, frame) -> dict:
        """Swap a whole namespace.  With ``expect_ns`` it is the
        optimistic whole-store CAS behind the client's ``mutate_all`` --
        a concurrent writer bumps the namespace version and the replace
        loses cleanly instead of discarding the writer's entry."""
        namespace = self._namespace(frame)
        entries = frame.get("entries")
        if not isinstance(entries, dict):
            raise ValueError("replace needs an 'entries' object")
        expect_ns = frame.get("expect_ns")
        with self._lock:
            current = self._ns_versions.get(namespace, 0)
            if expect_ns is not None and int(expect_ns) != current:
                return {"ok": False, "error": "cas_conflict",
                        "ns_version": current, "expect": int(expect_ns)}
            for key in self._ns_entries(namespace):
                if key not in entries:
                    ikey = self._ikey(namespace, key)
                    self._version(ikey)  # snapshot pre-delete history
                    self.backend.delete(ikey)
                    self._bump(namespace, ikey)
            for key, value in entries.items():
                ikey = self._ikey(namespace, str(key))
                self._version(ikey)  # snapshot pre-write history
                self.backend.store(ikey, value)
                self._bump(namespace, ikey)
            return {"ok": True,
                    "ns_version": self._ns_versions.get(namespace, 0)}

    def _op_jobs(self, frame) -> dict:
        """Per-job progress/ETA and worker heartbeats for a namespace,
        decoded straight from the stored checkpoints -- the store is
        where the fleet's shared truth lives, so it can answer without
        any worker being up."""
        from repro.service.worker import job_progress_records

        namespace = self._namespace(frame)
        with self._lock:
            entries = self._ns_entries(namespace)
        jobs, workers = job_progress_records(entries, now=self._clock())
        return {"ok": True, "jobs": jobs, "workers": workers}


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
class RemoteBackend(CacheBackend):
    """The full :class:`CacheBackend` contract over one ``repro store``.

    One pooled connection, guarded by a lock (callers on many threads
    serialize; the store's critical sections are tiny).  Transport
    faults -- timeouts, resets, a store restarting -- are retried with
    exponential backoff and a fresh connection per attempt;
    deterministic protocol errors are not.

    :meth:`update` is a versioned-CAS loop: read value+version, run the
    caller's ``fn`` locally, write back if-version-unchanged, retry on
    conflict from the winner's value.  Each CAS carries a transaction
    id, so a retry after a lost response cannot double-apply ``fn``.
    """

    name = "remote"

    def __init__(self, host, port, namespace=DEFAULT_NAMESPACE,
                 timeout_s=DEFAULT_TIMEOUT_S, retries=DEFAULT_RETRIES,
                 backoff_s=DEFAULT_BACKOFF_S,
                 max_frame_bytes=MAX_FRAME_BYTES, sleep=None):
        if not _NAMESPACE_RE.match(namespace):
            raise ValueError(f"invalid store namespace {namespace!r}")
        self.host = host
        self.port = int(port)
        self.namespace = namespace
        self.path = f"tcp://{host}:{port}/{namespace}"
        self.timeout_s = float(timeout_s)
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.max_frame_bytes = int(max_frame_bytes)
        self._sleep = sleep or time.sleep
        self._lock = threading.Lock()
        self._sock = self._reader = None

    # -- transport -------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        self._reader = self._sock.makefile("rb")

    def _disconnect(self) -> None:
        for handle in (self._reader, self._sock):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._sock = self._reader = None

    def _roundtrip(self, payload) -> dict:
        self._connect()
        self._sock.sendall(payload)
        raw = self._reader.readline(self.max_frame_bytes + 1)
        if not raw:
            raise ConnectionResetError("store closed the connection")
        response = json.loads(raw.decode("utf-8"))
        if not isinstance(response, dict):
            raise ValueError(f"non-object response: {response!r}")
        return response

    def _call(self, frame) -> dict:
        """One store op with transport retry/backoff.

        Returns the response for ``ok`` responses and ``cas_conflict``
        (the CAS loop's signal, not a failure); raises
        :class:`RemoteStoreError` for anything else once the retry
        budget is spent.
        """
        payload = json.dumps(
            {**frame, "ns": self.namespace}, default=str
        ).encode("utf-8") + b"\n"
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(min(
                    MAX_BACKOFF_S, self.backoff_s * (2 ** (attempt - 1))
                ))
            try:
                with self._lock:
                    response = self._roundtrip(payload)
            except (OSError, ValueError) as exc:
                with self._lock:
                    self._disconnect()
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if response.get("ok") or response.get("error") == "cas_conflict":
                return response
            if response.get("error") in _RETRYABLE_ERRORS:
                last_error = response.get("detail", response.get("error"))
                continue
            raise RemoteStoreError(
                f"store {self.path} refused {frame.get('op')!r}: "
                f"{response.get('error')}: {response.get('detail')}"
            )
        raise RemoteStoreError(
            f"store {self.path} unreachable after "
            f"{self.retries + 1} attempt(s) ({frame.get('op')!r}): "
            f"{last_error}"
        )

    # -- CacheBackend ----------------------------------------------------
    def load(self) -> dict:
        try:
            response = self._call({"op": "scan"})
        except RemoteStoreError as exc:
            warnings.warn(
                f"remote store {self.path} is unreachable ({exc}); "
                "starting cold", stacklevel=3,
            )
            return {}
        entries = response.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    def get(self, key):
        try:
            return self._call({"op": "get", "key": key}).get("value")
        except RemoteStoreError:
            return None

    def get_versioned(self, key) -> tuple:
        """``(value, version)`` -- the read half of a CAS cycle."""
        response = self._call({"op": "get", "key": key})
        return response.get("value"), int(response.get("version", 0))

    def store(self, key, entry) -> None:
        self._call({"op": "put", "key": key, "value": entry})

    def update(self, key, fn):
        for _ in range(MAX_CAS_ATTEMPTS):
            value, version = self.get_versioned(key)
            entry = fn(value)
            if entry is value:
                return entry  # unchanged: nothing to put to the vote
            response = self._call({
                "op": "cas", "key": key, "value": entry,
                "expect": version, "txn": uuid.uuid4().hex,
            })
            if response.get("ok"):
                return entry
            # cas_conflict: a concurrent writer won; re-read and re-run
            # fn on the winner's value -- exactly the flock/IMMEDIATE
            # serialization order, just optimistic.
        raise RemoteStoreError(
            f"store {self.path}: update({key!r}) lost "
            f"{MAX_CAS_ATTEMPTS} consecutive CAS races; giving up"
        )

    def mutate_all(self, fn) -> dict:
        for _ in range(MAX_CAS_ATTEMPTS):
            response = self._call({"op": "scan"})
            entries = response.get("entries") or {}
            ns_version = int(response.get("ns_version", 0))
            entries = dict(fn(dict(entries)))
            outcome = self._call({
                "op": "replace", "entries": entries,
                "expect_ns": ns_version,
            })
            if outcome.get("ok"):
                return entries
        raise RemoteStoreError(
            f"store {self.path}: mutate_all lost "
            f"{MAX_CAS_ATTEMPTS} consecutive namespace races; giving up"
        )

    def delete(self, key) -> None:
        self._call({"op": "delete", "key": key})

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def ping(self) -> dict:
        """The store's identity frame (reachability check)."""
        return self._call({"op": "ping"})

    def __len__(self) -> int:
        return len(self.load())


class ShardedBackend(CacheBackend):
    """Route one namespace across N stores by fingerprint range.

    Per-key ops (get/put/delete/update) go to the owning shard, so CAS
    atomicity is exactly the single-shard guarantee.  Whole-store reads
    merge every shard's scan; ``mutate_all`` partitions the entries back
    out.  The whole-store paths are atomic per shard, not
    across shards -- compaction over a live sharded store can interleave
    with writers on *other* shards, which is safe because entries never
    move between shards (the range map is a pure function of the key).
    """

    name = "sharded"

    def __init__(self, shards):
        if not shards:
            raise ValueError("ShardedBackend needs at least one shard")
        self.shards = list(shards)
        self.path = ",".join(
            getattr(shard, "path", None) or "?" for shard in self.shards
        )

    def _shard(self, key) -> CacheBackend:
        return self.shards[shard_index(key, len(self.shards))]

    def load(self) -> dict:
        entries = {}
        for shard in self.shards:
            entries.update(shard.load())
        return entries

    def get(self, key):
        return self._shard(key).get(key)

    def store(self, key, entry) -> None:
        self._shard(key).store(key, entry)

    def update(self, key, fn):
        return self._shard(key).update(key, fn)

    def mutate_all(self, fn) -> dict:
        # One optimistic RMW per shard: fn sees and returns the full
        # merged map, but each shard only swaps its own range, so a
        # lost race on shard k retries shard k alone.
        count = len(self.shards)
        merged = {}
        for index, shard in enumerate(self.shards):
            def shard_slice(entries, index=index):
                whole = dict(self.load())
                whole.update(entries)
                kept = fn(whole)
                return {
                    key: value for key, value in kept.items()
                    if shard_index(key, count) == index
                }
            merged.update(shard.mutate_all(shard_slice))
        return merged

    def delete(self, key) -> None:
        self._shard(key).delete(key)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)
