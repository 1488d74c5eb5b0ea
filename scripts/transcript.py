#!/usr/bin/env python
"""A golden transcript: the benchmark's request streams answered
in-process, every answer pinned.

At one seed it replays, through ``scripts/replay.py`` (the service's
``Dispatcher.handle_line`` on the system each workload's server flags
build, stores under a temporary directory), the set-up ops and then

* the first 200 ``cold_core`` lines,
* the first 60 ``cold_extended`` lines,
* 40 ``train_durable`` jobs, a leased one re-sent until it is ``done``,

each connection's stream taken in turn, as ``scripts/durable_breakdown.py``
does.  It records every line with its replies -- wall-time text,
``wall_s`` and ``trace_id`` masked -- and, because replies round their
numbers, pins from the stores afterwards each job's final weights
(sha256 of their float64 bytes) and simulated seconds (``float.hex()``)
and a sha256 of each plan entry: the plan store's rows, or, without a
store, the in-memory entry each optimize line resolves to (its wall
times and ``written_at`` masked).

    PYTHONPATH=src python scripts/transcript.py --seed 1

rewrites ``tests/golden/transcript.json``; ``tests/test_transcript.py``
replays its lines and compares every answer.  A change that moves an
answer regenerates the golden in its own diff and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "transcript.json")

#: workload -> ops replayed (a ``train_durable`` op is one durable job).
COUNTS = {"cold_core": 200, "cold_extended": 60, "train_durable": 40}

_WALL_TEXT = re.compile(r"\[(\w+), \d+(?:\.\d+)? ms\]")
MASK = "<masked>"


def mask(value):
    """``value`` (a reply or a plan entry) with what varies from run to
    run masked: the ``[source, X ms]`` wall-time text, every ``*wall_s``
    field, ``trace_id`` and ``written_at``."""
    if isinstance(value, dict):
        return {key: MASK if key.endswith("wall_s")
                or key in ("trace_id", "written_at") else mask(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [mask(item) for item in value]
    if isinstance(value, str):
        return _WALL_TEXT.sub(rf"[\1, {MASK}]", value)
    return value


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry_digest(entry) -> str:
    return _sha256(json.dumps(mask(entry), sort_keys=True).encode())


def plan_entries(dispatcher, lines) -> dict:
    """fingerprint -> sha256 of each plan entry: the plan store's rows,
    or the in-memory entry each of ``lines`` resolves to."""
    from repro.service.frontend import parse_wire_line
    from repro.service.serialize import entry_to_dict

    service = dispatcher.system.service()
    if service.backend is not None:
        rows = service.backend.load()
    else:
        rows = {}
        for line in lines:
            resolved = dispatcher.resolve(parse_wire_line(line))
            if resolved is not None and resolved.entry is not None:
                entry = resolved.entry
                rows[resolved.fingerprint] = entry_to_dict(
                    entry.report, entry.calibration_version,
                    entry.calibration_digest)
    return {key: _entry_digest(rows[key]) for key in sorted(rows)}


def job_pins(dispatcher, job_ids) -> dict:
    """job id -> its stored status, final weights sha256 and simulated
    seconds as ``float.hex()``."""
    import numpy as np

    from repro.runtime import ExecutionTrace

    checkpoints = dispatcher.system.service().checkpoints
    pins = {}
    for job_id in sorted(job_ids):
        checkpoint = checkpoints.load(job_id)
        pins[job_id] = {
            "status": checkpoint.status,
            "weights_sha256": _sha256(
                np.asarray(checkpoint.weights, dtype=float).tobytes()),
            "sim_seconds": ExecutionTrace.from_dict(
                checkpoint.trace).sim_seconds.hex(),
        }
    return pins


def transcribe(flags, setup, ops) -> dict:
    """Replay one workload -- ``setup`` lines, then ``ops`` as
    ``(line, leased)`` pairs -- on a fresh system over a fresh temporary
    directory, and return its record."""
    from replay import build_dispatcher, send

    with tempfile.TemporaryDirectory() as workdir:
        dispatcher = build_dispatcher(flags, workdir)
        try:
            def exchange(line, leased=False):
                return {"line": line, "leased": leased,
                        "replies": mask(send(dispatcher, line, leased))}

            record = {
                "server_flags": list(flags),
                "setup": [exchange(line) for line in setup],
                "ops": [exchange(line, leased) for line, leased in ops],
            }
            record["plan_entries"] = plan_entries(
                dispatcher, [op["line"] for op in record["ops"]])
            record["jobs"] = job_pins(dispatcher, {
                reply["job"]["job_id"] for op in record["ops"]
                for reply in op["replies"] if "job" in reply})
        finally:
            dispatcher.system.service().close()
    return record


def workload_ops(name, seed) -> tuple:
    """(server flags, set-up lines, ``(line, leased)`` ops) of one bench
    workload: its streams' ops, connection 0 and 1 in turn."""
    import workloads

    streams = [workloads.stream(name, seed, c) for c in (0, 1)]
    ops = [next(streams[index % 2]) for index in range(COUNTS[name])]
    return (workloads.WORKLOADS[name].server_flags,
            [op.line for op in workloads.setup_ops(name, seed)],
            [(op.line, op.leased) for op in ops])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default=GOLDEN)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    golden = {
        "seed": args.seed,
        "workloads": {name: transcribe(*workload_ops(name, args.seed))
                      for name in COUNTS},
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
