"""The one TCP line server: ``repro serve --listen``
(:class:`~repro.service.frontend.SocketFrontend`) and ``repro store``
(:class:`~repro.service.remote.StoreServer`) differ only in how they
answer a line."""

from __future__ import annotations

import collections
import json
import selectors
import socket
import threading

#: Cap on one protocol frame (request or response line), shared by the
#: store server, its clients and the request front-end.  It also caps
#: the replies a connection may leave unread.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Most bytes the loop takes from one socket per readiness event.
_RECV_BYTES = 16384


class _Connection:
    """One client socket: the loop thread reads it, any thread may send
    on it (under ``lock``), and only the loop thread closes it."""

    __slots__ = ("sock", "inbuf", "outbuf", "lock", "events", "pending",
                 "hangup", "closed")

    def __init__(self, sock):
        self.sock = sock
        #: Received bytes after the last complete line (loop thread only).
        self.inbuf = bytearray()
        #: Reply bytes the socket would not take yet (sent by the loop).
        self.outbuf = bytearray()
        self.lock = threading.Lock()
        #: What the selector watches the socket for (0: unregistered).
        self.events = 0
        #: Lines handed to another thread and not answered yet.
        self.pending = 0
        #: Read no more; close once nothing is pending or unsent.
        self.hangup = False
        #: Send no more (reset, slow client, stopping); drop what's queued.
        self.closed = False


class LineServer:
    """JSON lines in and out of every client socket on one event-loop
    thread (non-blocking, ``selectors``).

    A line over ``max_frame_bytes`` gets ``frame_too_large`` and closes
    the connection (past the cap the next line boundary is unknowable);
    undecodable bytes reach :meth:`_handle_line` as U+FFFD; no thread
    blocks in ``send``; a client leaving more than the cap of replies
    unread is disconnected, one that half-closes gets all it is owed.
    """

    _thread = None

    #: Registry to count ``frontend.*`` framing events in, or None.
    metrics = None

    def __init__(self, host="127.0.0.1", port=0, max_frame_bytes=None):
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes or MAX_FRAME_BYTES
        self._stop = threading.Event()
        #: Open connections (loop thread only).
        self._clients = set()
        #: Connections another thread left unsent bytes or a close for;
        #: a byte down the socketpair interrupts ``select``.
        self._attention = collections.deque()

    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind, listen and serve on the loop thread; returns the bound
        port.  A bind failure raises :class:`OSError`, starting nothing."""
        self._listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self.port = self._listener.getsockname()[1]
        self._wake_recv, self._wake_send = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_recv, self._wake_send):
            sock.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_recv, selectors.EVENT_READ)
        self._thread = threading.Thread(
            target=self._loop, name=f"{type(self).__name__}-loop",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Stop accepting and close every connection."""
        self._stop.set()
        if self._thread is not None:
            self._wake()
            self._thread.join(timeout=5.0)

    def wait(self) -> None:
        """Block until the server is stopped."""
        while not self._stop.wait(timeout=0.5):
            pass

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    # -- the loop thread -------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                for key, events in self._selector.select():
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        else:
                            self._attend()
                        continue
                    if events & selectors.EVENT_WRITE:
                        self._settle(conn)
                    if events & selectors.EVENT_READ and not conn.closed:
                        self._read(conn)
        finally:
            for conn in list(self._clients):
                conn.closed = True
                self._settle(conn)
            self._selector.close()
            for sock in (self._listener, self._wake_recv, self._wake_send):
                sock.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # BlockingIOError: the backlog is drained
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._clients.add(conn)
            self._settle(conn)

    def _attend(self) -> None:
        """Settle the connections flagged since the last wake-up."""
        try:
            self._wake_recv.recv(4096)
        except OSError:
            pass
        while self._attention:
            self._settle(self._attention.popleft())

    def _settle(self, conn) -> None:
        """Send what ``conn`` has buffered, then close it if it is
        finished or else watch its socket for what it needs now: input
        unless hung up, room for the rest of ``outbuf``."""
        if conn not in self._clients:
            return
        with conn.lock:  # no other thread is mid-send on a closing socket
            try:
                if conn.outbuf and not conn.closed:
                    del conn.outbuf[:conn.sock.send(conn.outbuf)]
            except BlockingIOError:
                pass
            except OSError:
                conn.closed = True  # peer reset
            if conn.hangup and not conn.outbuf and not conn.pending:
                conn.closed = True  # every reply it was owed has left
            events = 0 if conn.closed else (
                (0 if conn.hangup else selectors.EVENT_READ)
                | (selectors.EVENT_WRITE if conn.outbuf else 0)
            )
            if events != conn.events:
                if conn.events:
                    self._selector.unregister(conn.sock)
                if events:
                    self._selector.register(conn.sock, events, conn)
                conn.events = events
            if conn.closed:
                conn.outbuf.clear()
                self._clients.discard(conn)
                conn.sock.close()

    def _hang_up(self, conn) -> None:
        """Read no more from ``conn``; close it once its replies left."""
        conn.hangup = True
        self._settle(conn)

    def _read(self, conn) -> None:
        try:
            chunk = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""  # connection torn down mid-read
        cap = self.max_frame_bytes
        buffer = conn.inbuf
        scanned = len(buffer)
        buffer += chunk
        if chunk and buffer.find(b"\n", scanned) < 0:
            lines = []  # no line completed yet
        else:
            lines = bytes(buffer).split(b"\n")
            # What follows the last newline waits for its own -- except
            # at EOF, where it is served as readline() would serve it.
            conn.inbuf = bytearray(lines.pop() if chunk else b"")
        for raw in lines:
            oversized = len(raw) > cap
            if oversized:
                break
            # Undecodable bytes reach the handler as U+FFFD and come
            # back as a structured error, not a dropped socket.
            line = raw.decode("utf-8", errors="replace").strip()
            try:
                if line:
                    self._handle_line(conn, line)
            except Exception as exc:  # noqa: BLE001 - the loop must live
                self._count("frontend.internal_errors")
                self._send(conn, {"ok": False, "error": "internal",
                                  "detail": f"{type(exc).__name__}: {exc}"})
                self._hang_up(conn)
            if conn.closed or conn.hangup:
                return
        else:
            oversized = len(conn.inbuf) > cap
            if chunk and not oversized:
                return  # the connection stays open for more
        if oversized:
            # Past the cap the next line boundary is unknowable: reject
            # and close instead of buffering without bound.
            self._count("frontend.bad_requests")
            self._send(conn, {
                "ok": False, "error": "frame_too_large",
                "detail": f"frame exceeds {cap} bytes; closing connection",
            })
        self._hang_up(conn)

    # -- any thread ------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # full: the loop has wake-ups pending already

    def _flag(self, conn) -> None:
        """Have the loop thread settle ``conn``."""
        self._attention.append(conn)
        self._wake()

    def _count(self, name) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _encode(self, response) -> bytes:
        """One reply frame: ``response`` as a JSON line."""
        return json.dumps(response, default=str).encode() + b"\n"

    def _send(self, conn, response) -> None:
        """Encode ``response`` and send it without ever blocking: what
        the socket does not take now is left to the loop thread."""
        payload = self._encode(response)
        with conn.lock:
            if conn.closed:
                return  # client went away; nothing to tell it
            try:
                if not conn.outbuf:
                    payload = payload[conn.sock.send(payload):]
            except BlockingIOError:
                pass
            except OSError:
                conn.closed = True  # peer reset
            if not payload:
                return
            if (conn.outbuf and len(conn.outbuf) + len(payload)
                    > self.max_frame_bytes and not conn.closed):
                # The client is not reading its replies: holding more
                # for it would grow without bound.
                self._count("frontend.slow_client_closed")
                conn.closed = True
            if not conn.closed:
                conn.outbuf += payload
        self._flag(conn)

    # ------------------------------------------------------------------
    def _handle_line(self, conn, line) -> None:
        """Answer one non-empty, stripped line on the loop thread, which
        must not block: reply with :meth:`_send`, end the connection with
        :meth:`_hang_up`, and count a line handed to another thread in
        ``conn.pending`` until that thread calls :meth:`_flag`."""
        raise NotImplementedError
