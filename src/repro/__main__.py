"""Command-line entry point: queries, batch/serve modes, calibration.

Legacy one-shot queries (unchanged):

    python -m repro "run classification on adult having epsilon 0.01;"
    python -m repro --file queries.ml4all
    echo "run svm on svm1;" | python -m repro -

Batch mode -- a file of request lines through serve's dispatcher on
``--workers`` threads (a mixed file trains and optimizes on one pool,
answered in file order):

    python -m repro batch requests.txt --workers 8

Serve mode -- a line-oriented request loop on stdin (one response per
request; repeated workloads hit the warm plan cache):

    printf 'adult epsilon=0.01\\nadult epsilon=0.01\\n' | python -m repro serve

Both batch and serve accept ``--train``, ``--adaptive``,
``--calibration PATH`` and ``--cache PATH`` (see their ``--help``).

Calibrate mode -- run one workload repeatedly under the adaptive
runtime and persist what the traces taught the calibration store:

    python -m repro calibrate adult --epsilon 0.01 --runs 3 \\
        --store calibration.json

Train mode -- one durable, preemptible training job: progress is
checkpointed to ``--checkpoint`` on a cadence and at every graceful
stop, ``--max-iterations``/``--max-seconds`` bound this lease, and
re-running the same command resumes the job bit-identically (a finished
job returns its stored outcome):

    python -m repro train adult epsilon=0.01 \\
        --job-id nightly --checkpoint jobs.json --max-iterations 200

Cache mode -- inspect or compact a plan-store / checkpoint-store file:

    python -m repro cache plans.json
    python -m repro cache jobs.json --compact --drop-done-jobs

Trace mode -- pretty-print one stored request trace (a server started
with ``--trace-dir`` writes one ``<trace_id>.jsonl`` per request; the
``trace_id`` rides every response):

    python -m repro trace 4f2e... --trace-dir traces/

Fleet mode -- share state across machines and drain jobs with a
worker pool:

    python -m repro store --path shared.db --port 7700
    python -m repro worker --checkpoint tcp://127.0.0.1:7700/jobs --drain

``repro store`` serves a local store file over a line protocol;
``tcp://host:port/namespace`` then works anywhere ``--cache`` /
``--checkpoint`` take a path (``--calibration`` is a local JSON file and
refuses a ``tcp://`` URL).  A ``repro serve``
request line with ``verb=enqueue`` parks a durable job in the shared
store instead of running it, and any ``repro worker`` pointed at the
same store claims it (the ``jobs`` verb reports fleet progress).

All optimizing modes accept ``--algorithms NAME,NAME,...`` (any
registered GD algorithms); the set is part of a durable job's workload
fingerprint, so ``train`` and ``worker`` must be given the set the job
was started with to resume it.

Request lines are ``<dataset> [key=value ...]`` with the keys of
:meth:`ML4all.optimize` (``task``, ``epsilon``, ``max_iter``,
``time_budget``, ``algorithm``, ``batch``, ``step``, ``convergence``,
``l2``, ``fixed_iterations``, ``seed``) plus the durable-job keys
(``job_id``, ``checkpoint_every``, ``lease_iterations``,
``lease_seconds`` -- a line naming a ``job_id`` always trains).  Blank
lines and ``#`` comments are skipped.  With ``--checkpoint``, a
restarted ``repro serve`` finishes the store's in-flight jobs on
startup instead of waiting to be asked (and instead of re-speculating
them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import ML4all
from repro.errors import ReproError
from repro.service.checkpoint import JobLeaseError
from repro.service.worker import claimable_jobs

# Request-line parsing lives with the rest of the protocol code in the
# service front-end; re-exported here because the CLI is its historical
# home (tests and user code import it from repro.__main__).
from repro.service.frontend import (  # noqa: F401  (re-exports)
    Dispatcher,
    SocketFrontend,
    WireRequest,
    iter_request_lines,
    parse_request_line,
    train_lines,
)


#: Flags several subcommands take, declared once: dest spelling ->
#: ``add_argument`` keywords.  :func:`_add_flags` attaches them by name,
#: so a flag's type, default and metavar cannot drift between
#: subcommands (``train`` and ``worker`` once lacked ``--algorithms``,
#: and a job a 9-algorithm server started could not be resumed by the
#: fleet).
_SHARED_FLAGS = {
    "seed": dict(type=int, default=7, help="RNG seed (default 7)"),
    "algorithms": dict(
        metavar="NAMES",
        help="comma-separated GD algorithms the optimizer enumerates (any "
             "registered name, e.g. bgd,mgd,sgd,grad_avg,arc; default: the "
             "paper's core bgd,mgd,sgd)",
    ),
    "calibration": dict(
        metavar="PATH",
        help="load/persist the calibration store at PATH (a restarted "
             "server starts calibrated)",
    ),
    "cache": dict(
        metavar="PATH",
        help="persist the plan store at PATH (.db/.sqlite -> SQLite, else "
             "JSON); a restarted server answers previously seen workloads "
             "without re-speculating",
    ),
    "checkpoint": dict(
        metavar="PATH",
        help="persist training-job checkpoints at PATH (same extension "
             "rules as --cache); request lines with job_id= become durable "
             "jobs, and a restarted server finishes the store's in-flight "
             "jobs on startup",
    ),
    "log_level": dict(
        default="info", metavar="LEVEL",
        help="logging level for the repro logger tree "
             "(debug/info/warning/error; default info)",
    ),
    "log_json": dict(
        action="store_true",
        help="emit log records as JSON lines on stderr instead of "
             "human-readable text",
    ),
    "trace_dir": dict(
        metavar="DIR",
        help="persist request traces as JSON-lines files under DIR (one "
             "<trace_id>.jsonl per trace, plus slow_requests.jsonl); read "
             "them back with 'repro trace'",
    ),
}


def _add_flags(parser, *names, **reworded):
    """Attach shared flags to ``parser`` by name, in the order given.

    A keyword argument names a flag too and carries the
    ``add_argument`` keywords this subcommand words for its own context
    (its help line, ``required=True``); everything else comes from
    :data:`_SHARED_FLAGS`.
    """
    for name in (*names, *reworded):
        parser.add_argument(
            "--" + name.replace("_", "-"),
            **{**_SHARED_FLAGS[name], **reworded.get(name, {})},
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run ML4all declarative queries on the simulated "
                    "cluster.  Subcommands: 'batch FILE' optimizes many "
                    "requests through the plan cache; 'serve' answers "
                    "request lines from stdin.",
    )
    parser.add_argument(
        "query", nargs="?",
        help="query text, or '-' to read from stdin",
    )
    parser.add_argument("--file", help="read queries from a file")
    _add_flags(parser, "seed", "algorithms")
    return parser


def _parse_algorithms(text):
    """Validate a ``--algorithms`` value against the registry.

    Returns a tuple of names, or None when the flag was not given (the
    caller then keeps :data:`~repro.gd.registry.CORE_ALGORITHMS`).
    """
    if text is None:
        return None
    from repro.gd import registry as gd_registry

    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise ReproError("--algorithms needs at least one algorithm name")
    for name in names:
        gd_registry.info(name)  # raises PlanError for unknown names
    return names


def _ml4all_kwargs(args) -> dict:
    """ML4all() keyword arguments from the shared flags a subcommand
    declared (every subcommand builds its system through this)."""
    kwargs = {"seed": args.seed}
    algorithms = _parse_algorithms(getattr(args, "algorithms", None))
    if algorithms is not None:
        kwargs["algorithms"] = algorithms
    for flag in ("calibration", "cache", "checkpoint"):
        if hasattr(args, flag):
            kwargs[f"{flag}_path"] = getattr(args, flag)
    return kwargs


def _build_system(args):
    """The subcommand's ML4all, its service built, from the shared
    flags; None after printing an ``error:`` line."""
    try:
        system = ML4all(**_ml4all_kwargs(args))
        system.service(cache_size=getattr(args, "cache_size", None))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return system


def _service_parser(prog, description):
    parser = argparse.ArgumentParser(prog=prog, description=description)
    _add_flags(parser, "seed", "algorithms")
    parser.add_argument("--workers", type=int, default=None,
                        help="max concurrent optimize() computations "
                             "(serve --listen: threads for what is not "
                             "a cache hit, default 8)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="plan cache capacity (default 256)")
    parser.add_argument("--train", action="store_true",
                        help="execute each chosen plan on a per-request "
                             "engine clone (not just optimize)")
    parser.add_argument("--adaptive", action="store_true",
                        help="train under the adaptive runtime: telemetry, "
                             "mid-flight re-optimization, calibration "
                             "(implies --train)")
    _add_flags(parser, "calibration", "cache", "checkpoint", "log_level",
               "log_json")
    return parser


def _refuse_nonpositive(args, *names) -> bool:
    """Print an ``error:`` line and return True when one of the numeric
    flags ``names`` (argparse dests) is set to zero or less."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value <= 0:
            print(f"error: --{name.replace('_', '-')} must be positive, "
                  f"got {value:g}", file=sys.stderr)
            return True
    return False


def _refuse_bad_port(port, flag) -> bool:
    """Like :func:`_refuse_nonpositive`, for a TCP port flag."""
    if port is not None and not 0 <= port <= 65535:
        print(f"error: {flag} must be a port in 0-65535, got {port}",
              file=sys.stderr)
        return True
    return False


def _serve_until_stopped(server, host, port, note="") -> bool:
    """Serve until interrupted; False after one ``error:`` line when
    ``server`` cannot listen on ``host:port``."""
    try:
        port = server.start()
    except OSError as exc:
        print(f"error: cannot listen on {host}:{port}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        server.stop()
        return False
    print(f"listening on {host}:{port}{note}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return True


def _configure_obs(args):
    """Install the structured-logging setup from shared CLI flags."""
    from repro.obs import configure_logging

    configure_logging(level=args.log_level, json_lines=args.log_json)


def _save_calibration(system, args):
    if args.calibration:
        system.save_calibration(args.calibration)


def batch_main(argv) -> int:
    parser = _service_parser(
        "python -m repro batch",
        "Run a file of optimize() requests through the OptimizerService.",
    )
    parser.add_argument("requests", help="request file, or '-' for stdin")
    parser.add_argument("--repeat", type=int, default=1,
                        help="serve the request list N times (default 1; "
                             ">1 demonstrates the warm plan cache)")
    args = parser.parse_args(argv)
    if _refuse_nonpositive(args, "cache_size", "workers", "repeat"):
        return 2

    _configure_obs(args)
    system = _build_system(args)
    if system is None:
        return 2
    try:
        if args.requests == "-":
            requests = list(iter_request_lines(sys.stdin))
        else:
            with open(args.requests) as handle:
                requests = list(iter_request_lines(handle))
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not requests:
        print("error: no requests found", file=sys.stderr)
        return 2
    requests = requests * args.repeat
    # Each line goes through serve's dispatcher: --train/--adaptive
    # train everything, a line naming a durable job always trains, and
    # the rest only optimize -- all on one pool, answered in file
    # order.  Repeated leases of one job (--repeat, or duplicate job_id
    # lines) run in sequence: concurrently they would contend for the
    # job's lease.
    dispatcher = Dispatcher(system, train=args.train, adaptive=args.adaptive)
    job_ids = [r["job_id"] for r in requests if "job_id" in r]
    workers = (1 if len(job_ids) != len(set(job_ids))
               else min(args.workers or 8, len(requests)))
    start = time.perf_counter()
    with ThreadPoolExecutor(workers, thread_name_prefix="batch") as pool:
        responses = list(pool.map(
            dispatcher.handle,
            [WireRequest(verb=None, request=r) for r in requests],
        ))
    elapsed = time.perf_counter() - start

    for response in responses:
        for line in response.get("lines", ()):
            print(line)
        if not response["ok"]:
            print(f"error: {response['detail']}", file=sys.stderr)
    if not all(response["ok"] for response in responses):
        return 1
    rate = len(requests) / elapsed if elapsed > 0 else float("inf")
    verbs = {response["verb"] for response in responses}
    verb = verbs.pop() if len(verbs) == 1 else "request"
    print(f"{len(requests)} requests in {elapsed:.3f}s "
          f"({rate:.1f} {verb}/s)")
    print(system.service().stats_summary())
    _save_calibration(system, args)
    return 0


def _finish_pending_jobs(system, service) -> int:
    """Resume the checkpoint store's in-flight jobs at server startup.

    A job whose process died mid-lease sits in the store as
    ``running``/``preempted`` with banked progress and -- when it came
    through the CLI -- the request line that started it.  A restarted
    server re-issues exactly those (:func:`claimable_jobs`).
    """
    if service.checkpoints is None:
        return 0
    finished = 0
    for job_id, checkpoint, request in claimable_jobs(service.checkpoints):
        print(f"# resuming in-flight job {job_id!r} from iteration "
              f"{checkpoint.done_iterations}")
        try:
            (result,) = system.train_many(
                [request], max_workers=1, adaptive=bool(checkpoint.adaptive)
            )
        except JobLeaseError as exc:
            # Typically our own predecessor's unexpired lease after a
            # hard kill: it expires lease_ttl_s after its last
            # checkpoint write, so say when to try again.
            print(f"# job {job_id!r} is still leased ({exc}); "
                  "restart after the lease expires to resume it",
                  file=sys.stderr)
            continue
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            continue
        for out in train_lines(request, result):
            print(out)
        finished += 1
    return finished


def serve_main(argv) -> int:
    parser = _service_parser(
        "python -m repro serve",
        "Answer optimize() request lines from stdin until EOF, or -- "
        "with --listen -- serve JSON lines over TCP with admission "
        "control (load shedding, per-tenant quotas, deadlines).",
    )
    parser.add_argument("--listen", metavar="PORT", type=int, default=None,
                        help="serve a TCP line protocol on PORT instead of "
                             "stdin (0 picks a free port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface for --listen (default 127.0.0.1)")
    parser.add_argument("--shed-after", type=int, default=64,
                        help="admission bound: reject new requests with a "
                             "structured 'overloaded' response while this "
                             "many are queued or running (default 64)")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="per-tenant inflight quota; over-quota "
                             "requests get a structured 'quota_exceeded' "
                             "response (default: no quota)")
    _add_flags(parser, "trace_dir")
    parser.add_argument("--slow-request-s", type=float, default=None,
                        metavar="SECONDS",
                        help="log a WARNING (and count obs.slow_requests) "
                             "for any request slower than SECONDS")
    args = parser.parse_args(argv)
    if (_refuse_nonpositive(args, "cache_size", "workers", "shed_after",
                            "max_inflight")
            or _refuse_bad_port(args.listen, "--listen")):
        return 2

    _configure_obs(args)
    from repro.obs import TraceRecorder, get_logger

    system = _build_system(args)
    if system is None:
        return 2
    service = system.service()
    tracer = TraceRecorder(
        trace_dir=args.trace_dir,
        metrics=service.metrics,
        slow_threshold_s=args.slow_request_s,
    )
    dispatcher = Dispatcher(system, train=args.train, adaptive=args.adaptive,
                            tracer=tracer)
    log = get_logger("serve")
    served = failed = 0
    served += _finish_pending_jobs(system, service)

    if args.listen is not None:
        frontend = SocketFrontend(
            dispatcher, host=args.host, port=args.listen,
            max_workers=args.workers or 8,
            shed_after=args.shed_after, max_inflight=args.max_inflight,
        )
        if not _serve_until_stopped(frontend, args.host, args.listen):
            return 1
        print(service.stats_summary())
        _save_calibration(system, args)
        return 0

    for line in sys.stdin:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        response = dispatcher.handle_line(line)
        if response.get("ok"):
            served += 1
            for out in response.get("lines", []):
                print(out)
        else:
            # Structured error on stdout (machine-readable, same shape
            # as the socket protocol) plus a structured log record on
            # stderr; the loop always continues.
            failed += 1
            print(json.dumps(response))
            detail = response.get("detail", response.get("error"))
            log.warning(
                "request error: %s", detail,
                extra={
                    "kind": response.get("error"),
                    **({"trace_id": response["trace_id"]}
                       if response.get("trace_id") else {}),
                },
            )
        sys.stdout.flush()
    print(service.stats_summary())
    _save_calibration(system, args)
    return 0 if failed == 0 or served > 0 else 1


def train_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro train",
        description="Run one durable, preemptible training job.  "
                    "Progress is checkpointed to --checkpoint on a "
                    "cadence and at every graceful stop; re-running the "
                    "same command resumes a killed or preempted job "
                    "bit-identically, and a finished job returns its "
                    "stored outcome without retraining.",
    )
    parser.add_argument("request", nargs="+",
                        help="<dataset> [key=value ...] (same keys as "
                             "batch/serve request lines)")
    parser.add_argument("--job-id", required=True,
                        help="durable job identity within the store")
    _add_flags(parser, checkpoint=dict(
        required=True,
        help="checkpoint store (.db/.sqlite -> SQLite, else JSON)",
    ))
    parser.add_argument("--checkpoint-every", type=int, default=25,
                        help="persist every N training iterations "
                             "(default 25)")
    parser.add_argument("--max-iterations", type=int, default=None,
                        help="preemption budget: at most N iterations "
                             "this lease, then stop gracefully")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="preemption budget: at most S wall seconds "
                             "this lease")
    parser.add_argument("--adaptive", action="store_true",
                        help="train under the adaptive runtime")
    _add_flags(parser, "algorithms", seed=dict(help=None),
               calibration=dict(help=None), cache=dict(help=None))
    args = parser.parse_args(argv)
    # A zero cadence would fail only after the job's lease stub is
    # written, leaving a job every restarted server reports in flight.
    if _refuse_nonpositive(args, "checkpoint_every", "max_iterations",
                           "max_seconds"):
        return 2

    try:
        request = parse_request_line(" ".join(args.request))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = _build_system(args)
    if system is None:
        return 2
    request["job_id"] = args.job_id
    request["checkpoint_every"] = args.checkpoint_every
    if args.max_iterations is not None:
        request["lease_iterations"] = args.max_iterations
    if args.max_seconds is not None:
        request["lease_seconds"] = args.max_seconds

    try:
        (result,) = system.train_many([request], max_workers=1,
                                      adaptive=args.adaptive)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in train_lines(request, result):
        print(line)
    progress = system.service().checkpoints.load(args.job_id)
    if progress is not None and progress.status == "preempted":
        print(f"job {args.job_id!r} preempted at iteration "
              f"{progress.done_iterations}; re-run the same command to "
              "resume")
    print(system.service().stats_summary())
    _save_calibration(system, args)
    return 0


def trace_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Pretty-print one stored request trace: reassemble "
                    "the JSON-lines span records a server wrote under "
                    "--trace-dir into the request's span tree.",
    )
    parser.add_argument("trace",
                        help="a trace id (resolved under --trace-dir) or "
                             "a path to a .jsonl trace file")
    _add_flags(parser, trace_dir=dict(
        default=".",
        help="directory holding <trace_id>.jsonl files "
             "(default: current directory)",
    ))
    parser.add_argument("--json", action="store_true",
                        help="print the nested span tree as JSON instead "
                             "of text lines")
    args = parser.parse_args(argv)

    from repro.obs import assemble_tree, render_tree
    from repro.obs.recorder import load_trace, valid_trace_id

    if os.path.exists(args.trace):
        path = args.trace
    elif valid_trace_id(args.trace):
        path = os.path.join(
            args.trace_dir, args.trace.replace(":", "_") + ".jsonl"
        )
    else:
        print(f"error: {args.trace!r} is neither a trace file nor a "
              "valid trace id", file=sys.stderr)
        return 2
    if not os.path.exists(path):
        print(f"error: no trace at {path!r} (wrong --trace-dir?)",
              file=sys.stderr)
        return 1
    try:
        spans = load_trace(path)
    except (OSError, ValueError) as exc:
        print(f"error: unreadable trace {path!r}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"error: {path!r} holds no spans", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(assemble_tree(spans), indent=2, default=str))
    else:
        for line in render_tree(spans):
            print(line)
        total = sum(
            s.get("duration_s", 0.0) for s in spans
            if s.get("parent_id") is None
        )
        print(f"{len(spans)} spans, {total * 1e3:.2f}ms across "
              f"{sum(1 for s in spans if s.get('parent_id') is None)} "
              "root span(s)")
    return 0


def cache_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect (entry counts, formats, ages, job statuses) "
                    "and optionally compact a plan-store or "
                    "checkpoint-store file.",
    )
    parser.add_argument("path", help="store file (.db/.sqlite -> SQLite, "
                                     "else JSON)")
    parser.add_argument("--compact", action="store_true",
                        help="rewrite the store, dropping undecodable / "
                             "outdated-format entries (and whatever the "
                             "options below select)")
    parser.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                        help="with --compact: also drop plan entries "
                             "written longer than SECONDS ago")
    parser.add_argument("--drop-done-jobs", action="store_true",
                        help="with --compact: also drop checkpoints of "
                             "finished jobs")
    args = parser.parse_args(argv)
    if not args.compact and (args.ttl is not None or args.drop_done_jobs):
        print("error: --ttl and --drop-done-jobs need --compact",
              file=sys.stderr)
        return 2
    # A non-positive TTL would age out every plan entry.
    if _refuse_nonpositive(args, "ttl"):
        return 2

    if not args.path.startswith("tcp://") and not os.path.exists(args.path):
        print(f"error: no store at {args.path!r}", file=sys.stderr)
        return 1
    from repro.service import compact_store, inspect_store

    report = inspect_store(args.path)
    print(f"{report['path']} ({report['backend']} backend): "
          f"{report['entries']} entries")
    for kind, label in (("plans", "plan entries"),
                        ("jobs", "job checkpoints")):
        bucket = report[kind]
        if not bucket["count"]:
            continue
        line = f"  {label}: {bucket['count']}"
        formats = ", ".join(
            f"format {fmt} x{n}"
            for fmt, n in sorted(bucket["formats"].items())
        )
        line += f" ({formats})"
        if bucket["ages_s"]:
            line += (f", age {min(bucket['ages_s']):.0f}s"
                     f"..{max(bucket['ages_s']):.0f}s")
        if kind == "jobs" and bucket["statuses"]:
            line += ", " + ", ".join(
                f"{status}: {n}"
                for status, n in sorted(bucket["statuses"].items())
            )
        print(line)
    if report["unknown"]:
        print(f"  unknown entries: {report['unknown']}")
    if args.compact:
        outcome = compact_store(args.path, ttl_s=args.ttl,
                                drop_done_jobs=args.drop_done_jobs)
        print(f"compacted: kept {outcome['kept']}, "
              f"dropped {outcome['dropped']}")
    return 0


def store_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description="Serve a shared key-value store over TCP: the "
                    "fleet's network boundary.  Point the --cache/"
                    "--checkpoint paths of servers and workers at "
                    "tcp://HOST:PORT/NAMESPACE and they share state "
                    "through this process.",
    )
    parser.add_argument("--path", default=None, metavar="PATH",
                        help="backing store file (.db/.sqlite -> SQLite, "
                             "else JSON); default: in-memory (state dies "
                             "with the process)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (default 0: pick a free one)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="serve shard I of an N-way fingerprint-range "
                             "split (0-based); keys owned by a sibling "
                             "shard are refused, clients route via "
                             "tcp://h0:p0,h1:p1,.../ns")
    _add_flags(parser, log_level=dict(help=None), log_json=dict(help=None))
    args = parser.parse_args(argv)
    if _refuse_bad_port(args.port, "--port"):
        return 2

    _configure_obs(args)
    shard = None
    if args.shard:
        index, sep, count = args.shard.partition("/")
        try:
            if not sep:
                raise ValueError(args.shard)
            shard = (int(index), int(count))
        except ValueError:
            print(f"error: --shard expects I/N (e.g. 0/3), got "
                  f"{args.shard!r}", file=sys.stderr)
            return 2
    from repro.service.remote import StoreServer

    try:
        server = StoreServer(path=args.path, host=args.host,
                             port=args.port, shard=shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shard_note = f" (shard {args.shard})" if shard else ""
    if not _serve_until_stopped(server, args.host, args.port, shard_note):
        return 1
    print(f"{server.frames_served} frames served")
    return 0


def worker_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Drain durable training jobs from a shared "
                    "checkpoint store.  Claims pending/queued jobs "
                    "under the store's leases, steals expired-lease "
                    "jobs from crashed peers, and resumes them "
                    "bit-identically from their checkpoints.  Run N of "
                    "these against one store (tcp://... or a shared "
                    "file) and they coordinate through the leases "
                    "alone.",
    )
    _add_flags(parser, checkpoint=dict(
        required=True,
        help="the shared checkpoint store: tcp://HOST:PORT/NAMESPACE of a "
             "'repro store', or a local/shared file path",
    ))
    parser.add_argument("--drain", action="store_true",
                        help="exit once no claimable jobs remain "
                             "(default: keep polling for new work)")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity stamped into lease-history "
                             "records and heartbeats (default: random)")
    parser.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="seconds between store polls when idle "
                             "(default 0.5)")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        metavar="S",
                        help="lease time-to-live override: how long "
                             "after a crashed peer's last checkpoint "
                             "write its jobs become stealable")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="exit after S seconds even without --drain")
    _add_flags(
        parser, "algorithms",
        trace_dir=dict(
            help="persist job traces as JSON-lines files under DIR; jobs "
                 "enqueued through a traced server join their submitting "
                 "request's trace id",
        ),
        seed=dict(
            help="RNG seed; must match the submitting server's for "
                 "bit-identical plans (default 7)",
        ),
        cache=dict(help=None), calibration=dict(help=None),
        log_level=dict(help=None), log_json=dict(help=None),
    )
    args = parser.parse_args(argv)
    # A lease written already expired is stealable while its job runs;
    # a zero poll rewrites the heartbeat in a hot loop.
    if _refuse_nonpositive(args, "lease_ttl", "poll", "max_seconds"):
        return 2

    _configure_obs(args)
    from repro.obs import TraceRecorder
    from repro.service.worker import FleetWorker

    system = _build_system(args)
    if system is None:
        return 2
    service = system.service()
    if args.lease_ttl is not None:
        service.checkpoints.lease_ttl_s = float(args.lease_ttl)
    tracer = TraceRecorder(trace_dir=args.trace_dir,
                           metrics=service.metrics)
    try:
        worker = FleetWorker(system, worker_id=args.worker_id,
                             poll_s=args.poll, tracer=tracer)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker {worker.worker_id} draining {args.checkpoint}",
          flush=True)
    try:
        totals = worker.run(drain=args.drain,
                            max_seconds=args.max_seconds)
    except KeyboardInterrupt:
        totals = {"done": worker.jobs_done, "failed": worker.jobs_failed,
                  "steals": worker.steals}
    print(f"worker {worker.worker_id}: {totals['done']} job(s) done, "
          f"{totals['steals']} stolen, {totals['failed']} failed")
    _save_calibration(system, args)
    return 0 if totals["failed"] == 0 else 1


def calibrate_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro calibrate",
        description="Run one workload repeatedly under the adaptive "
                    "runtime and persist the learned cost/iteration "
                    "correction factors.",
    )
    parser.add_argument("dataset", help="registry name or dataset file")
    parser.add_argument("--task", default=None)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--max-iter", type=int, default=1000)
    parser.add_argument("--runs", type=int, default=3,
                        help="adaptive training runs (default 3)")
    _add_flags(parser, seed=dict(help=None))
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="calibration store JSON: loaded when present, "
                             "saved afterwards")
    parser.add_argument("--perturb", action="append", default=[],
                        metavar="ALG=FACTOR",
                        help="deliberately mis-scale the cost model for one "
                             "algorithm (repeatable; shows calibration "
                             "correcting a known fault)")
    args = parser.parse_args(argv)
    if _refuse_nonpositive(args, "runs"):
        return 2

    from repro.gd.registry import ALGORITHMS

    factors = {}
    for item in args.perturb:
        alg, sep, value = item.partition("=")
        try:
            if not sep:
                raise ValueError(item)
            factors[alg] = float(value)
        except ValueError:
            print(f"error: --perturb expects ALG=FACTOR, got {item!r}",
                  file=sys.stderr)
            return 2
        if alg not in ALGORITHMS:
            # A typo here would silently calibrate an unperturbed model.
            print(f"error: --perturb names unknown algorithm {alg!r}; "
                  f"expected one of {sorted(ALGORITHMS)}", file=sys.stderr)
            return 2

    from repro.runtime import PerturbedCostModel
    from repro.service import OptimizerService

    system = ML4all(calibration_path=args.store, **_ml4all_kwargs(args))
    try:
        dataset = system.load_dataset(args.dataset, task=args.task)
        before = system.calibration.summary()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("before:", before)

    # One service prices every run and learns into the system's store.
    service = OptimizerService(
        spec=system.spec, seed=system.seed, speculation=system.speculation,
        cost_model=(
            PerturbedCostModel(system.spec, factors) if factors else None
        ),
        calibration=system.calibration,
    )
    for run in range(args.runs):
        training = system._training_spec(
            dataset, args.task, args.epsilon, args.max_iter, None, None,
            None, 0.0, args.seed + run,
        )
        try:
            outcome = service.train(dataset, training, adaptive=True)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"run {run + 1}: {outcome.trace.summary()}")
        for switch in outcome.trace.switches:
            print(f"  switched {switch.from_plan} -> {switch.to_plan} "
                  f"at iteration {switch.iteration}: {switch.reason}")

    print("after:", system.calibration.summary())
    if args.store:
        system.save_calibration(args.store)
        print(f"calibration store saved to {args.store}")
    return 0


def query_main(args) -> int:
    if args.file:
        try:
            with open(args.file) as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    elif args.query == "-":
        text = sys.stdin.read()
    elif args.query:
        text = args.query
    else:
        build_parser().print_help()
        return 2

    try:
        system = ML4all(**_ml4all_kwargs(args))
        session = system.query(text)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = session.last_result
    if hasattr(result, "result"):
        if result.report is not None:
            print(result.report.summary())
        print(result.result.summary())
    elif isinstance(result, dict) and "mse" in result:
        print(f"predictions computed; MSE vs ground truth: "
              f"{result['mse']:.4f}")
    else:
        print(result)
    return 0


_SUBCOMMANDS = {
    "batch": batch_main,
    "serve": serve_main,
    "calibrate": calibrate_main,
    "train": train_main,
    "cache": cache_main,
    "trace": trace_main,
    "store": store_main,
    "worker": worker_main,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    return query_main(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
