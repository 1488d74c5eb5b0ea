"""Load generation: the server under test and the two loop drivers.

The load comes from this one process, over at most two TCP connections
driven by at most two threads (the box has two cores; the server gets
the other one).  A *closed* loop sends a connection's next request when
the previous reply arrives; the *open* loop sends on a fixed schedule
whatever the server does, and times every request from when it was due.
"""

from __future__ import annotations

import dataclasses
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Flags every benchmark server gets (a workload may override
#: --cache-size by repeating it; argparse keeps the last).
BASE_FLAGS = ("--cache-size", "256", "--shed-after", "64",
              "--log-level", "warning")

#: A reply slower than this is counted as unanswered.
REPLY_TIMEOUT_S = 60.0

#: Re-issues of one leased job before it counts as failed.
MAX_LEASES = 10

#: How often a timed closed loop reads the machine's stolen CPU time
#: (100 ticks on two cores: a 1% resolution).
MARK_INTERVAL_S = 0.5


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


class ServerProcess:
    """``python -m repro serve --listen 0 ...`` as a child process."""

    def __init__(self, flags, workdir):
        self.stderr_path = os.path.join(workdir, "server.stderr")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._stderr = open(self.stderr_path, "a")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen", "0",
             *BASE_FLAGS, *flags],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True,
            cwd=ROOT,
        )
        banner = self.process.stdout.readline()
        if not banner.startswith("listening on "):
            self.stop()
            raise BenchError(
                f"server did not start (said {banner!r}); stderr: "
                + self.stderr_tail()
            )
        self.port = int(banner.strip().rsplit(":", 1)[1])
        self.pid = self.process.pid

    def stderr_tail(self, limit=2000) -> str:
        try:
            with open(self.stderr_path) as handle:
                return handle.read()[-limit:]
        except OSError:
            return ""

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Connection:
    """One client connection speaking the JSON-lines protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REPLY_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")

    def request(self, line) -> dict:
        self.sock.sendall(line.encode() + b"\n")
        reply = self._reader.readline()
        if not reply:
            raise BenchError(f"server closed the connection on {line!r}")
        return json.loads(reply)

    def close(self) -> None:
        try:
            self._reader.close()
            self.sock.close()
        except OSError:
            pass


@dataclasses.dataclass
class Sample:
    """One finished operation as the generator saw it."""

    op: object
    start: float
    end: float
    #: The final reply (None when the server never answered).
    reply: dict | None
    #: Requests it took (leases of one job) and the slowest of them.
    requests: int = 1
    slowest_request: float = 0.0
    #: Open loop only: when it was due, which phase it belongs to and
    #: when that phase began.
    due: float | None = None
    phase: str | None = None
    origin: float | None = None

    @property
    def ok(self) -> bool:
        return bool(self.reply and self.reply.get("ok"))


def run_op(connection, op) -> Sample:
    """One closed-loop operation; a leased job is re-issued until the
    server reports it done."""
    start = sent = time.perf_counter()
    requests = 0
    slowest = 0.0
    reply = None
    try:
        while requests < MAX_LEASES:
            reply = connection.request(op.line)
            requests += 1
            now = time.perf_counter()
            slowest, sent = max(slowest, now - sent), now
            if not (op.leased and reply.get("ok")
                    and reply["job"]["status"] != "done"):
                break
        else:
            reply = {"ok": False, "error": "bench_lease_limit"}
    except (OSError, ValueError, BenchError):
        reply = None
    return Sample(op, start, time.perf_counter(), reply, requests, slowest)


def machine_ticks() -> tuple:
    """``(all, stolen)`` CPU jiffies of the machine so far: how much of
    the time this VM wanted the hypervisor gave to someone else."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return sum(fields), fields[7]


def closed_loop(port, streams, seconds=None, marks=None) -> list:
    """Drive one connection per op stream, each on its own thread, for
    ``seconds`` (or until a finite stream ends).

    Returns the samples per connection.  An operation in flight at the
    deadline is allowed to finish (a durable job must not be left
    half-leased) and is kept in the sample.  When ``marks`` is a list,
    the waiting main thread appends ``(time, all ticks, stolen ticks)``
    to it every MARK_INTERVAL_S.
    """
    connections = [Connection(port) for _ in streams]
    results = [[] for _ in streams]
    barrier = threading.Barrier(len(streams))

    def drive(index):
        connection, out = connections[index], results[index]
        barrier.wait()
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        for op in streams[index]:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            sample = run_op(connection, op)
            out.append(sample)
            if sample.reply is None:
                return  # connection is gone; the rest would all fail

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(streams))]
    give_up = (time.perf_counter() + (seconds or 0)
               + REPLY_TIMEOUT_S * MAX_LEASES)
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            if marks is not None:
                marks.append((time.perf_counter(), *machine_ticks()))
            thread.join(timeout=MARK_INTERVAL_S)
            if time.perf_counter() > give_up:
                raise BenchError("closed-loop driver did not finish")
    if marks is not None:
        marks.append((time.perf_counter(), *machine_ticks()))
    for connection in connections:
        connection.close()
    return results


def _drive_open(sock, arrivals, origin, phase, out) -> None:
    """Send ``arrivals`` (due offsets from ``origin``) on one pipelined
    connection and collect replies until all are in."""
    pending = {}
    buffer = b""
    index = 0
    give_up = origin + arrivals[-1][0] + REPLY_TIMEOUT_S if arrivals else 0
    while index < len(arrivals) or pending:
        now = time.perf_counter()
        if index < len(arrivals) and origin + arrivals[index][0] <= now:
            due_offset, rid, op = arrivals[index]
            index += 1
            sent = time.perf_counter()
            sock.sendall(f"{op.line} id={rid}\n".encode())
            pending[rid] = Sample(op, sent, 0.0, None,
                                  due=origin + due_offset, phase=phase,
                                  origin=origin)
            continue
        if now > give_up:
            break  # what is still pending stays unanswered
        wait = (origin + arrivals[index][0] - now
                if index < len(arrivals) else 0.5)
        readable, _, _ = select.select([sock], [], [], max(0.0, wait))
        if not readable:
            continue
        chunk = sock.recv(65536)
        arrived = time.perf_counter()
        if not chunk:
            break
        buffer += chunk
        *lines, buffer = buffer.split(b"\n")
        for raw in lines:
            reply = json.loads(raw)
            sample = pending.pop(str(reply.get("id")), None)
            if sample is not None:
                sample.end, sample.reply = arrived, reply
                sample.slowest_request = arrived - sample.start
                out.append(sample)
    for sample in pending.values():
        sample.end = time.perf_counter()
        out.append(sample)


def open_loop_phase(connections, phase) -> list:
    """Run one phase of the arrival schedule over the given pipelined
    connections (one thread each); returns its samples in due order.
    The phase ends when every reply is in, so the next one starts on an
    empty queue."""
    per_connection = [[] for _ in connections]
    for i, (due, connection, op) in enumerate(phase["arrivals"]):
        per_connection[connection].append((due, f"{phase['name']}-{i}", op))
    results = [[] for _ in connections]
    origin = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=_drive_open,
            args=(conn.sock, per_connection[i], origin, phase["name"],
                  results[i]),
            daemon=True,
        )
        for i, conn in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=phase["length_s"] + 2 * REPLY_TIMEOUT_S)
        if thread.is_alive():
            raise BenchError("open-loop driver did not finish")
    samples = [s for out in results for s in out]
    samples.sort(key=lambda s: s.due)
    return samples
