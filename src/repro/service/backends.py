"""Pluggable persistence backends for the optimizer's plan store.

The in-memory :class:`~repro.service.cache.PlanCache` makes repeated
workloads cheap *within* one process; a :class:`CacheBackend` makes them
cheap *across* processes: the service writes every cached decision
through to the backend and reloads it on startup, so a restarted
``repro serve --cache plans.json`` answers previously seen workloads
without re-speculating.

Three backends ship:

* :class:`MemoryBackend` -- a dict; the explicit "no persistence"
  backend (useful in tests and as the null object);
* :class:`JsonFileBackend` -- one human-readable JSON file; every
  mutation re-reads the file, applies the change, and rewrites it
  atomically (``tmp`` + ``os.replace``), so concurrent writers and a
  crashed process can never leave a half-written file in place, and
  writers on disjoint keys converge instead of clobbering each other;
* :class:`SqliteBackend` -- a SQLite database (stdlib ``sqlite3``), one
  row per fingerprint; per-entry writes and SQLite's own file locking
  make it the right choice for large stores or multi-process writers.

:func:`open_backend` picks by file extension (``.db`` / ``.sqlite`` /
``.sqlite3`` -> SQLite, anything else -> JSON); a fourth, the
network-boundary :class:`~repro.service.remote.RemoteBackend`, is
selected by the ``tcp://host:port/namespace`` scheme and speaks this
same interface to a shared ``repro store`` process.

**Durability contract.**  Backends are best-effort by design: a backend
that cannot read its file (corrupted, truncated, wrong format version)
returns an *empty* mapping from :meth:`load` -- the service starts cold
instead of crashing -- and write errors surface as warnings, never as
request failures.  The store-level ``format`` field
(:data:`STORE_FORMAT`) guards the container layout; each entry
additionally carries its own ``entry_format`` (see
:mod:`repro.service.serialize`) so single incompatible entries are
skipped without discarding the rest.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import warnings

#: Format version of the persisted store *container* (file / table
#: layout).  A mismatch discards the whole store -- cold start, never a
#: misread.  Entry payloads are versioned separately.
STORE_FORMAT = 1

_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")
#: How long a SQLite connection waits for another connection's lock.
_BUSY_TIMEOUT_S = 30.0


def open_backend(path):
    """Backend for ``path``: ``tcp://host:port/namespace`` for a remote
    ``repro store``, SQLite for ``.db``/``.sqlite*``, anything else JSON."""
    text = str(path)
    if text.startswith("tcp://"):
        # Imported lazily: the remote module builds on this one.
        from repro.service.remote import open_remote_backend

        return open_remote_backend(text)
    if text.lower().endswith(_SQLITE_SUFFIXES):
        return SqliteBackend(path)
    return JsonFileBackend(path)


class CacheBackend:
    """Interface every plan-store backend implements.

    Keys are workload fingerprints (hex strings); values are the
    JSON-ready entry dicts of :func:`repro.service.serialize.entry_to_dict`.
    Implementations must be thread-safe and must never raise out of
    :meth:`load` for unreadable state -- return ``{}`` and warn instead.
    """

    #: Human-readable backend name for stats/log lines.
    name = "none"
    #: Where the backend persists (None for in-memory backends).
    path = None

    def load(self) -> dict:
        """All persisted entries as ``{fingerprint: entry_dict}``."""
        raise NotImplementedError

    def get(self, key):
        """One persisted entry, or None.  Default implementation goes
        through :meth:`load`; backends with cheap point lookups
        (SQLite) override it."""
        return self.load().get(key)

    def store(self, key, entry) -> None:
        """Persist one entry (insert or overwrite)."""
        raise NotImplementedError

    def update(self, key, fn):
        """Atomic read-modify-write of one entry.

        ``fn`` receives the current entry (or None) and returns the new
        one (None deletes); the returned entry is also this method's
        return value.  Raising out of ``fn`` aborts the mutation, and
        returning *the very object it was handed* means "no change":
        nothing is written (so ``fn`` must build a new dict rather than
        edit the one it received in place).  This
        is the check-and-set primitive job leases are built on
        (:class:`~repro.service.checkpoint.CheckpointStore`), so
        implementations must hold their cross-process exclusion --
        the JSON advisory flock, SQLite's ``BEGIN IMMEDIATE`` -- around
        the whole read+apply+write, not just the write.  The base
        implementation composes :meth:`get`/:meth:`store` and is only
        atomic against writers sharing this object.
        """
        current = self.get(key)
        entry = fn(current)
        if entry is None:
            self.delete(key)
        elif entry is not current:
            self.store(key, entry)
        return entry

    def mutate_all(self, fn) -> dict:
        """Atomic whole-store read-modify-write: replace the contents
        with ``fn(entries)`` and return them.  Like :meth:`update` this
        must hold the backend's cross-process exclusion around the whole
        read+apply+write -- compacting a *live* store must not discard
        checkpoints or leases a concurrent writer lands mid-way.
        """
        raise NotImplementedError

    def delete(self, key) -> None:
        """Drop one entry (missing keys are a no-op)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (file handles, connections)."""

    def __len__(self) -> int:
        return len(self.load())


class MemoryBackend(CacheBackend):
    """Dict-backed backend: survives nothing, but exercises the full
    write-through path (tests swap it in to observe what would be
    persisted).

    Entries are held as their encoded JSON text -- encoded on write,
    decoded on read, exactly like a row of :class:`SqliteBackend` -- so
    what a test reads back is what a file would hold: a payload JSON
    cannot carry fails here, not first in production, and no caller can
    reach into a stored entry through a reference it kept.
    """

    name = "memory"

    def __init__(self):
        self._data = {}
        self._lock = threading.Lock()

    def _decoded(self) -> dict:
        return {key: json.loads(text) for key, text in self._data.items()}

    def load(self) -> dict:
        with self._lock:
            return self._decoded()

    def get(self, key):
        with self._lock:
            text = self._data.get(key)
        return None if text is None else json.loads(text)

    def store(self, key, entry) -> None:
        text = json.dumps(entry)
        with self._lock:
            self._data[key] = text

    def update(self, key, fn):
        with self._lock:
            text = self._data.get(key)
            current = None if text is None else json.loads(text)
            entry = fn(current)
            if entry is None:
                self._data.pop(key, None)
            elif entry is not current:
                self._data[key] = json.dumps(entry)
            return entry

    def mutate_all(self, fn) -> dict:
        with self._lock:
            entries = dict(fn(self._decoded()))
            self._data = {
                key: json.dumps(entry) for key, entry in entries.items()
            }
            return entries

    def delete(self, key) -> None:
        with self._lock:
            self._data.pop(key, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class JsonFileBackend(CacheBackend):
    """One JSON file holding the whole store.

    Every mutation **re-reads the file, applies the change, and rewrites
    it** through a temporary sibling and an atomic ``os.replace``, under
    a process-wide lock.  Two consequences:

    * two threads (or a thread racing a crash) can never interleave
      partial JSON -- the file on disk is always one complete, parseable
      store;
    * concurrent *processes* writing disjoint keys converge: mutations
      take an advisory ``flock`` on a ``.lock`` sidecar (where the
      platform provides ``fcntl``), so each read-modify-write starts
      from the other writer's latest complete snapshot and nothing is
      wiped by a stale in-memory copy.  On platforms without ``fcntl``
      the lock degrades to best-effort (last writer wins inside the
      read-to-replace window) -- prefer :class:`SqliteBackend` there
      for multi-process use.

    Read-modify-write is O(store size) per put, which is the right trade
    for the human-readable format; SQLite is the choice once the store
    grows past what that tolerates.
    """

    name = "json"

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        #: Last parsed entries + the stat identity of the file they came
        #: from, so read paths skip re-parsing an unchanged store.
        self._snapshot = None
        self._snapshot_token = None
        self._read_cached()  # validate/warn a pre-existing file up front

    @contextlib.contextmanager
    def _file_lock(self):
        """Advisory cross-process lock around one read-modify-write.

        A no-op where ``fcntl`` is unavailable; the sidecar (not the
        store file itself) is locked because the store file is replaced,
        not rewritten in place -- locking an inode about to be swapped
        out would protect nothing.
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(f"{self.path}.lock", "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- file I/O --------------------------------------------------------
    def _read(self, warn=True) -> dict:
        """Current on-disk entries ({} for missing/unreadable/alien
        files).  ``warn=False`` on the mutation paths: the unreadable
        store was already reported at construction/load, and the
        rewrite about to happen heals it."""
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            if warn:
                warnings.warn(
                    f"plan store {self.path!r} is unreadable ({exc}); "
                    "starting cold", stacklevel=3,
                )
            return {}
        if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
            if warn:
                warnings.warn(
                    f"plan store {self.path!r} has unsupported format "
                    f"{payload.get('format') if isinstance(payload, dict) else '?'!r}"
                    f" (supported: {STORE_FORMAT}); starting cold",
                    stacklevel=3,
                )
            return {}
        entries = payload.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    def _stat_token(self):
        """Identity of the current on-disk file.  ``os.replace`` always
        produces a new inode, so any completed write -- ours or another
        process's -- changes the token."""
        try:
            stat = os.stat(self.path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_mtime_ns, stat.st_size)

    def _read_cached(self, warn=True) -> dict:
        """Current entries, re-parsing only when the file changed (lock
        held by callers).  Point lookups on a miss-heavy workload must
        not pay a full-store ``json.load`` per request."""
        token = self._stat_token()
        if self._snapshot is None or token != self._snapshot_token:
            self._snapshot = self._read(warn=warn)
            self._snapshot_token = token
        return self._snapshot

    def _write(self, entries) -> None:
        payload = {"format": STORE_FORMAT, "entries": entries}
        tmp = f"{self.path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.path)
        self._snapshot = entries
        self._snapshot_token = self._stat_token()

    # -- CacheBackend ----------------------------------------------------
    def load(self) -> dict:
        with self._lock:
            return dict(self._read_cached())

    def get(self, key):
        with self._lock:
            return self._read_cached().get(key)

    @staticmethod
    def _own(entry):
        """A private copy of a caller's entry, made through its JSON
        text.  The parsed snapshot outlives the call, so it must not
        alias objects the caller may go on mutating -- and an entry JSON
        cannot carry fails here, before the file is touched."""
        return json.loads(json.dumps(entry))

    def store(self, key, entry) -> None:
        with self._lock, self._file_lock():
            entries = dict(self._read_cached(warn=False))
            entries[key] = self._own(entry)
            self._write(entries)

    def update(self, key, fn):
        # The whole read+apply+write runs under the advisory flock, so
        # two processes CAS-ing the same key (job leases) serialize: the
        # loser reads the winner's completed write, never a stale copy.
        with self._lock, self._file_lock():
            entries = dict(self._read_cached(warn=False))
            current = entries.get(key)
            entry = fn(current)
            if entry is current:
                return entry
            if entry is None:
                entries.pop(key, None)
            else:
                entries[key] = self._own(entry)
            self._write(entries)
            return entry

    def mutate_all(self, fn) -> dict:
        with self._lock, self._file_lock():
            entries = dict(fn(dict(self._read_cached(warn=False))))
            self._write(self._own(entries))
            return entries

    def delete(self, key) -> None:
        with self._lock, self._file_lock():
            entries = dict(self._read_cached(warn=False))
            if entries.pop(key, None) is not None:
                self._write(entries)


class SqliteBackend(CacheBackend):
    """SQLite-backed store: one row per fingerprint.

    Entries are stored as JSON text in a ``plan_store`` table; the
    container format version lives in a ``meta`` table and is checked on
    open -- a mismatch empties the store (cold start) rather than
    risking a misread.

    The backend keeps **one connection per process**, opened on first
    use and closed by :meth:`close`; every operation runs on it under
    the object's lock, so threads sharing the backend take turns and
    SQLite's own file locking arbitrates between processes.  The file is
    in ``journal_mode=WAL`` with ``synchronous=FULL``: a mutation that
    has returned is on disk (one fsync of the write-ahead log per
    commit), and a process killed mid-transaction leaves the last
    committed state.  A live store therefore has ``-wal`` and ``-shm``
    siblings; they are folded back into the main file when the last
    connection closes.  A connection must not cross a ``fork``: a
    backend used in a child process opens its own.
    """

    name = "sqlite"

    _UPSERT = (
        "INSERT INTO plan_store (fingerprint, payload) VALUES (?, ?) "
        "ON CONFLICT (fingerprint) DO UPDATE SET payload = excluded.payload"
    )

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = None
        self._conn_pid = None
        try:
            with self._transaction() as conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS plan_store "
                    "(fingerprint TEXT PRIMARY KEY, payload TEXT NOT NULL)"
                )
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = 'format'"
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO meta (key, value) VALUES ('format', ?)",
                        (str(STORE_FORMAT),),
                    )
                elif row[0] != str(STORE_FORMAT):
                    warnings.warn(
                        f"plan store {self.path!r} has unsupported format "
                        f"{row[0]!r} (supported: {STORE_FORMAT}); "
                        "discarding its entries", stacklevel=3,
                    )
                    conn.execute("DELETE FROM plan_store")
                    conn.execute(
                        "UPDATE meta SET value = ? WHERE key = 'format'",
                        (str(STORE_FORMAT),),
                    )
            self._broken = False
        except sqlite3.Error as exc:
            warnings.warn(
                f"plan store {self.path!r} could not be opened ({exc}); "
                "persistence disabled for this run", stacklevel=3,
            )
            self._broken = True

    def _connection(self):
        """This process's connection, opened on first use (callers hold
        the lock).  Transactions are explicit (``isolation_level=None``:
        a lone statement commits itself)."""
        self._park_inherited()
        if self._conn is None:
            conn = sqlite3.connect(
                self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None,
                check_same_thread=False,
            )
            try:
                self._enable_wal(conn)
                conn.execute("PRAGMA synchronous=FULL")
            except sqlite3.Error:
                conn.close()
                raise
            self._conn, self._conn_pid = conn, os.getpid()
        return self._conn

    @staticmethod
    def _enable_wal(conn) -> None:
        """``PRAGMA journal_mode=WAL``, waiting out another connection.

        The switch needs a lock SQLite does not wait for: while another
        connection to a still rollback-journal file holds one (a second
        process or thread opening the same new file), it fails at once
        with "database is locked", busy timeout or not -- about 1 in 100
        two-thread opens of a fresh file."""
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.001)

    def _park_inherited(self) -> None:
        """Forget a connection that came through a ``fork``.  It is the
        parent's: the child may neither use it nor close it (closing
        runs SQLite's last-connection cleanup under the parent), so it
        is parked where no finalizer reaches it while the child runs."""
        if self._conn is not None and self._conn_pid != os.getpid():
            _INHERITED.append(self._conn)
            self._conn = None

    @contextlib.contextmanager
    def _transaction(self):
        """The connection inside ``BEGIN IMMEDIATE`` -- the write lock
        is taken *before* any read, so two processes check-and-setting
        one key serialize instead of both reading the old value.
        Commits on success, rolls back when the body raises."""
        with self._lock:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            try:
                yield conn
                conn.execute("COMMIT")
            except BaseException:
                # The connection outlives this call: never leave it
                # inside a transaction (a failed COMMIT may or may not
                # have rolled back by itself).
                if conn.in_transaction:
                    conn.execute("ROLLBACK")
                raise

    @staticmethod
    def _decode_rows(rows) -> dict:
        entries = {}
        for key, text in rows:
            try:
                entries[key] = json.loads(text)
            except ValueError:
                continue  # one bad row must not poison the rest
        return entries

    def load(self) -> dict:
        if self._broken:
            return {}
        try:
            with self._lock:
                rows = self._connection().execute(
                    "SELECT fingerprint, payload FROM plan_store"
                ).fetchall()
        except sqlite3.Error as exc:
            warnings.warn(
                f"plan store {self.path!r} is unreadable ({exc}); "
                "starting cold", stacklevel=3,
            )
            return {}
        return self._decode_rows(rows)

    def get(self, key):
        if self._broken:
            return None
        try:
            with self._lock:
                row = self._connection().execute(
                    "SELECT payload FROM plan_store WHERE fingerprint = ?",
                    (key,),
                ).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def store(self, key, entry) -> None:
        if self._broken:
            return
        text = json.dumps(entry)
        with self._lock:
            self._connection().execute(self._UPSERT, (key, text))

    def update(self, key, fn):
        """Check-and-set in one ``BEGIN IMMEDIATE`` transaction.  A
        broken store degrades to calling ``fn(None)`` without
        persistence -- callers get an answer, not a crash."""
        if self._broken:
            return fn(None)
        with self._transaction() as conn:
            row = conn.execute(
                "SELECT payload FROM plan_store WHERE fingerprint = ?",
                (key,),
            ).fetchone()
            current = None
            if row is not None:
                try:
                    current = json.loads(row[0])
                except ValueError:
                    pass  # a corrupt row reads as absent
            entry = fn(current)
            if entry is None:
                if row is not None:
                    conn.execute(
                        "DELETE FROM plan_store WHERE fingerprint = ?",
                        (key,),
                    )
            elif entry is not current:
                conn.execute(self._UPSERT, (key, json.dumps(entry)))
        return entry

    def mutate_all(self, fn) -> dict:
        """Whole-store RMW in one ``BEGIN IMMEDIATE`` transaction, so a
        concurrent writer's checkpoint/lease cannot land between the
        read and the rewrite and be silently discarded."""
        if self._broken:
            return dict(fn({}))
        with self._transaction() as conn:
            entries = dict(fn(self._decode_rows(conn.execute(
                "SELECT fingerprint, payload FROM plan_store"
            ).fetchall())))
            conn.execute("DELETE FROM plan_store")
            conn.executemany(
                "INSERT INTO plan_store (fingerprint, payload) VALUES (?, ?)",
                [(key, json.dumps(entry)) for key, entry in entries.items()],
            )
        return entries

    def delete(self, key) -> None:
        if self._broken:
            return
        with self._lock:
            self._connection().execute(
                "DELETE FROM plan_store WHERE fingerprint = ?", (key,)
            )

    def close(self) -> None:
        """Close this process's connection (the next operation, if any,
        opens a new one)."""
        with self._lock:
            self._park_inherited()
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __len__(self) -> int:
        if self._broken:
            return 0
        try:
            with self._lock:
                return self._connection().execute(
                    "SELECT COUNT(*) FROM plan_store"
                ).fetchone()[0]
        except sqlite3.Error:
            return 0


#: Connections a forked child found open on a backend it inherited;
#: referenced forever so they are never closed from the child.
_INHERITED = []
