#!/usr/bin/env python3
"""The repo benchmark: five socket-level workloads against the real
``repro serve`` process, with an outside-in layer budget.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of stdout is the result
        object BENCHMARK.json describes (--trace 0: end-to-end metrics
        from the server as a child process; --trace 1: per-layer metrics
        from an in-process replay with timing wrappers installed)
    python3 bench/run.py --seed N [--repeat K] [--output FILE]
        every workload, end to end (K times) and traced, as one result set
    python3 bench/run.py --list | --selftest | --regenerate-golden
    python3 bench/run.py --compare A.json B.json

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import (  # noqa: E402
    backlog_growing,
    generator_lag,
    latencies_from_due,
    percentile,
    samples_beyond,
    MIN_SAMPLES_BEYOND,
)

RESULTS_DIR = os.path.join(ROOT, "bench_results")

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json.
E2E = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("plan_regret_ratio", "ratio"),
)

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Open loop: p90-from-due limit, failure share limit and generator lag
#: limit behind ``max_rate_in_slo_rps`` and the validity check.
SLO_TAIL_MS = 200.0
SLO_FAILED_SHARE = 0.01
MAX_LAG_P95_MS = 5.0

#: Intervals of the timed section with more of the machine's CPU time
#: stolen than this are left out of the estimates (see quiet_intervals).
MAX_STOLEN_SHARE = 0.10

#: Requests of the 1- vs 2-connection round-trip probe (warm_hits).
PROBE_REQUESTS = 1000


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def server_flags(workload, directory) -> list:
    return [flag.format(dir=directory) for flag in workload.server_flags]


def send_all(port, ops) -> list:
    """Send ops one after another on one connection; their samples."""
    (samples,) = loadgen.closed_loop(port, [iter(ops)])
    return samples


def scrape(port) -> dict:
    """The server's own ``metrics`` verb."""
    (sample,) = send_all(port, [workloads.Op("metrics", "metrics")])
    if not sample.ok:
        raise loadgen.BenchError("the metrics verb did not answer")
    return sample.reply["metrics"]


def wrong_answers(samples, first_plan, require_hit=False) -> list:
    """Messages for replies that are not ok, carry no plan, name a plan
    that differs from the first answer for the same workload, or (when
    required) did not come from the cache.  ``first_plan`` accumulates
    ``{key: plan}`` across calls."""
    problems = []
    for op, reply in ((s.op, s.reply) for s in samples):
        if not reply or not reply.get("ok") or not reply.get("plan"):
            detail = (reply or {}).get("detail") or (reply or {}).get("error")
            problems.append(f"{op.line!r}: no answer ({detail})")
            continue
        expected = first_plan.setdefault(op.key, reply["plan"])
        if reply["plan"] != expected:
            problems.append(
                f"{op.line!r}: plan {reply['plan']} differs from first "
                f"answer {expected}"
            )
        elif require_hit and not reply.get("cache_hit"):
            problems.append(f"{op.line!r}: expected a cache hit")
        elif op.job_id and reply["job"]["status"] != "done":
            problems.append(f"{op.line!r}: job ended {reply['job']}")
    return problems


def counter_problems(snapshot, keys) -> list:
    """The server's own counters must agree with what was sent: one
    computation per distinct workload, a hit (or coalesced wait) for
    every repeat."""
    counters = snapshot["counters"]
    computed = counters.get("service.computed", 0)
    repeats = (counters.get("service.hits", 0)
               + counters.get("service.coalesced", 0))
    distinct = len(set(keys))
    problems = []
    if computed != distinct:
        problems.append(f"service.computed={computed}, generator sent "
                        f"{distinct} distinct workloads")
    if repeats != len(keys) - distinct:
        problems.append(f"service.hits+coalesced={repeats}, generator sent "
                        f"{len(keys) - distinct} repeats")
    return problems


def budget_problems(snapshot, samples) -> list:
    """No speculative trial may run into its wall-clock budget: then
    iteration counts, and with them the plan, would depend on the
    machine.  Proven when the server's 1 s histogram bucket holds every
    trial, or when no single request took as long as the budget (a trial
    is shorter than the request it serves)."""
    from repro.core.iterations import SpeculationSettings

    budget = SpeculationSettings().time_budget_s
    histogram = snapshot["histograms"].get("span.speculation")
    if not histogram or histogram["buckets"]["1"] == histogram["count"]:
        return []
    slowest = max(s.slowest_request for s in samples)
    if slowest < budget:
        return []
    return [f"{histogram['count'] - histogram['buckets']['1']} speculative "
            f"trials ran longer than 1 s and a request took {slowest:.2f} s: "
            f"a trial may have hit its {budget:g} s budget"]


def quality(port, golden, space, library, seed, recheck_all) -> tuple:
    """Ask the six quality queries; ``(regret, samples, problems)``."""
    samples = send_all(port, workloads.quality_ops())
    chosen = {
        checks.query_name(ds, eps): (sample.reply or {}).get("plan")
        for (ds, eps), sample in zip(workloads.QUALITY_QUERIES, samples)
    }
    try:
        regret = checks.plan_regret(golden, chosen, space)
    except KeyError as exc:
        return float("nan"), samples, [str(exc.args[0])]
    # A third of the queries per run (all of them in a full result
    # set): three consecutive seeds re-execute the whole table.
    queries = [q for i, q in enumerate(workloads.QUALITY_QUERIES)
               if recheck_all or i % 3 == seed % 3]
    return regret, samples, checks.stale_entries(golden, library, chosen,
                                                 space, queries)


def tail_note(count, q) -> str:
    beyond = samples_beyond(count, q)
    if beyond < MIN_SAMPLES_BEYOND:
        return (f"only {beyond:.1f} of {count} samples beyond p{q} "
                f"(rule: {MIN_SAMPLES_BEYOND})")
    return ""


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def quiet_intervals(marks, info) -> list:
    """``[(from, to)]`` of the timed section in which the hypervisor
    left this VM its CPUs.

    The box is a shared VM: stolen time sits near 1% for tens of minutes
    and then at 20-35% (README.md), in bursts of seconds or for minutes,
    and a warm hit takes twice as long meanwhile.  Intervals with more
    than MAX_STOLEN_SHARE stolen are left out of the estimates -- unless
    that would leave less than half the section, in which case nothing
    is left out and the run says it was disturbed throughout.
    """
    spans = [
        (t0, t1, (stolen1 - stolen0) / max(1, all1 - all0))
        for (t0, all0, stolen0), (t1, all1, stolen1) in zip(marks, marks[1:])
    ]
    total = marks[-1][0] - marks[0][0]
    info["stolen_share"] = ((marks[-1][2] - marks[0][2])
                            / max(1, marks[-1][1] - marks[0][1]))
    quiet = [(t0, t1) for t0, t1, share in spans
             if share <= MAX_STOLEN_SHARE]
    info["disturbed_share"] = 1.0 - sum(t1 - t0 for t0, t1 in quiet) / total
    if info["disturbed_share"] > 0.5:
        return [(marks[0][0], marks[-1][0])]
    return quiet


def closed_loop_estimates(results, quiet, tail) -> tuple:
    """``(throughput, p50 ms, tail ms, latency samples)`` of a timed
    closed loop over its ``quiet`` intervals.

    Throughput is, per connection, the ok operations that ended in a
    quiet interval over the quiet time between the connection's first
    send and last reply, summed over connections.  With nothing left
    out that is count over busy span, which unlike a count over a fixed
    interval does not quantise when a run holds a few dozen operations.
    """
    throughput, latencies = 0.0, []
    for out in (out for out in results if out):
        first, last = out[0].start, out[-1].end
        spans = [(max(t0, first), min(t1, last)) for t0, t1 in quiet]
        kept = [s for s in out if s.ok
                and any(t0 < s.end <= t1 for t0, t1 in spans)]
        if kept:
            throughput += len(kept) / sum(t1 - t0 for t0, t1 in spans
                                          if t1 > t0)
            latencies += [(s.end - s.start) * 1e3 for s in kept]
    if not latencies:
        return 0.0, float("nan"), float("nan"), 0
    return (throughput, percentile(latencies, 50),
            percentile(latencies, tail), len(latencies))


def measure(name, seed, seconds, recheck_all=False) -> dict:
    """One end-to-end run of one workload against a server process.

    Set-up runs SETUP_REPEATS times from nothing (``setup_s`` is the
    median); the last server is warmed up for WARMUP_S and measured.
    """
    workload = workloads.WORKLOADS[name]
    golden = checks.load_golden()
    library = checks.Library()
    space = (library.all_plans if "--algorithms" in workload.server_flags
             else library.core_plans)
    base = os.path.join(RESULTS_DIR, f"tmp-{os.getpid()}-{name}")
    shutil.rmtree(base, ignore_errors=True)
    problems, first_plan, info = {}, {}, {}
    setups = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            directory = os.path.join(base, f"setup{attempt}")
            os.makedirs(directory)
            started = time.perf_counter()
            server = loadgen.ServerProcess(
                server_flags(workload, directory), directory)
            sent = send_all(server.port, workloads.setup_ops(name, seed))
            setups.append(time.perf_counter() - started)
        regret, asked, problems["golden"] = quality(
            server.port, golden, space, library, seed, recheck_all)
        sent += asked

        # ``mixed_open`` spends half its time in the closed loop that
        # gives its bounded metrics and half in the open-loop phases.
        closed_s = seconds if workload.loop == "closed" else seconds / 2
        streams = [workloads.stream(name, seed, c)
                   for c in range(workload.connections)]
        sent += [s for out in loadgen.closed_loop(
            server.port, streams, workloads.WARMUP_S) for s in out]
        marks = []
        cpu_before = server.cpu_seconds()
        results = loadgen.closed_loop(server.port, streams, closed_s, marks)
        cpu_s = server.cpu_seconds() - cpu_before
        samples = [s for out in results for s in out]
        done = sum(1 for s in samples if s.ok)
        throughput, p50, tail, counted = closed_loop_estimates(
            results, quiet_intervals(marks, info), workload.tail)
        if workload.loop == "open":
            samples += open_loop(server.port, workload, seed, seconds, info)

        snapshot = scrape(server.port)
        rss_mb = server.peak_rss_mb()
        server.stop()

        problems["untimed"] = wrong_answers(sent, first_plan)
        problems["answers"] = wrong_answers(
            samples, first_plan, require_hit=name == "warm_hits")
        problems["budget"] = budget_problems(snapshot, sent + samples)
        problems["counters"] = counter_problems(
            snapshot, [s.op.key for s in sent + samples if s.ok])
        if name == "train_durable":
            finished = [s for s in sent + samples if s.ok and s.op.job_id]
            problems["durable"], weights = checks.audit_store(
                os.path.join(directory, "jobs.db"), finished)
            problems["durable"] += checks.audit_weights(
                finished, weights, seed, library)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(base, ignore_errors=True)

    notes = [tail_note(counted, workload.tail)] if counted \
        else ["no ok operation"]
    if info["disturbed_share"] > 0.5:
        notes.append(
            f"{info['stolen_share']:.0%} of the machine's CPU time was "
            "stolen during the timed section and no quiet half was left: "
            "nothing was excluded, expect slow numbers")
    if not info.get("open.valid", True):
        notes.append(
            f"open-loop numbers are void: generator lag p95 "
            f"{info['open.generator_lag_p95_ms']:.1f} ms >= "
            f"{MAX_LAG_P95_MS} ms, the schedule was not kept")
    metrics = {
        "setup_s": percentile(setups, 50),
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "server_cpu_ms_per_op": (cpu_s * 1e3 / done if done
                                 else float("nan")),
        "server_peak_rss_mb": rss_mb,
        "plan_regret_ratio": regret,
    }
    info.update({
        "tail_percentile": workload.tail,
        "latency_samples": counted,
        "setup_samples": len(setups),
        "setups_s": setups,
        "requests_sent": sum(s.requests for s in samples),
        "server_cpu_s": cpu_s,
        "failed_share": (len(problems["answers"]) / len(samples)
                         if samples else 1.0),
    })
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "correct": not any(problems.values()),
        "attempted": len(samples),
        "failed": len(problems["answers"]),
        "metrics": metrics,
        "info": info,
        "notes": [note for note in notes if note],
        "problems": {k: v for k, v in problems.items() if v},
    }


def open_loop(port, workload, seed, seconds, info) -> list:
    """The open-loop half of ``mixed_open``: three fixed-rate phases,
    one after another.  Fills ``info`` with the per-rate numbers (none
    of them bounded: twelve seconds of open loop on this box do not
    repeat within 25%, see README.md) and returns the samples."""
    connections = [loadgen.Connection(port)
                   for _ in range(workload.connections)]
    samples, in_slo = [], []
    try:
        for phase in workloads.open_schedule(seed, seconds, workload.name):
            sent = loadgen.open_loop_phase(connections, phase)
            samples += sent
            done = [s for s in sent if s.ok]
            if not done:
                continue
            from_due = [v * 1e3 for v in latencies_from_due(
                [s.due for s in done], [s.end for s in done])]
            key = phase["name"]
            # A phase holds 60-160 arrivals: p90 leaves 6-16 beyond
            # it, and nothing higher is worth printing.
            info[f"open.latency_p50_ms_{key}"] = percentile(from_due, 50)
            info[f"open.latency_p90_ms_{key}"] = percentile(from_due, 90)
            info[f"open.samples_{key}"] = len(done)
            info[f"open.goodput_{key}"] = len(done) / (
                max(s.end for s in done) - done[0].origin)
            if (percentile(from_due, 90) <= SLO_TAIL_MS
                    and 1.0 - len(done) / len(sent) <= SLO_FAILED_SHARE
                    and not backlog_growing(from_due, 90)):
                in_slo.append(phase["rate"])
    finally:
        for connection in connections:
            connection.close()
    lag_p95 = percentile(generator_lag([s.due for s in samples],
                                       [s.start for s in samples]), 95) * 1e3
    info["open.generator_lag_p95_ms"] = lag_p95
    info["open.max_rate_in_slo_rps"] = max(in_slo, default=0)
    # A generator that ran late did not offer the schedule: the
    # open-loop numbers of this run are void (the bounded metrics come
    # from the closed loop and stand).
    info["open.valid"] = lag_p95 < MAX_LAG_P95_MS
    return samples


# ----------------------------------------------------------------------
# traced
# ----------------------------------------------------------------------
def traced_ops(name, seed, seconds) -> list:
    """The fixed prefix of the workload the traced replay sends."""
    count = max(8, round(workloads.WORKLOADS[name].traced_rate * seconds))
    return list(itertools.islice(workloads.stream(name, seed, 0), count))


def replay(name, seed, ops, directory, recorder=None) -> dict:
    """Set up an in-process server and send ``ops`` over one loopback
    connection, one at a time.  Without a recorder (wrappers off) it
    instead probes the warm round trip over one and two connections."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(directory)
    server = tracing.InProcessServer(server_flags(workload, directory))
    try:
        sent = send_all(server.port, workloads.setup_ops(name, seed))
        if recorder is None:
            out = {"samples": sent}
            for connections in (1, 2):
                probe = loadgen.closed_loop(server.port, [
                    itertools.islice(itertools.cycle(ops), PROBE_REQUESTS)
                    for _ in range(connections)
                ])
                out["samples"] += [s for o in probe for s in o]
                out[f"roundtrip_{connections}conn_us"] = percentile(
                    [(s.end - s.start) * 1e6 for o in probe for s in o], 50)
            return out
        recorder.clear()  # the budget covers the replay, not set-up
        started = time.perf_counter()
        (samples,) = loadgen.closed_loop(server.port, [iter(ops)])
        elapsed = time.perf_counter() - started
        spans = list(recorder.spans)
        return {
            "samples": sent + samples,
            "roundtrips": [(s.start, s.end) for s in samples],
            "elapsed": elapsed,
            "spans": spans,
            "evictions": server.service.cache.stats().evictions,
            "snapshot": scrape(server.port),
        }
    finally:
        server.stop()


def obs_cost_us(requests=2000) -> float:
    """What the dispatcher's always-on tracing costs one warm hit: a
    root trace plus the two child spans a hit opens."""
    from repro.obs import TraceRecorder, span
    from repro.service.metrics import MetricsRegistry

    tracer = TraceRecorder(metrics=MetricsRegistry())
    started = time.perf_counter()
    for _ in range(requests):
        with tracer.trace("request", verb="optimize", dataset="adult",
                          tenant="default") as root:
            with span("fingerprint"):
                pass
            with span("cache_lookup") as lookup:
                lookup.set("hit", True)
                lookup.set("stale", False)
            root.set("ok", True)
    return (time.perf_counter() - started) / requests * 1e6


def measure_traced(name, seed, seconds) -> dict:
    """The per-layer run: the workload's prefix replayed in-process
    with the wrapper table installed."""
    ops = traced_ops(name, seed, seconds)
    base = os.path.join(RESULTS_DIR, f"tmp-{os.getpid()}-{name}-trace")
    shutil.rmtree(base, ignore_errors=True)
    recorder = tracing.Recorder()
    problems = {}
    try:
        with tracing.Installed(recorder) as installed:
            traced = replay(name, seed, ops, os.path.join(base, "on"),
                            recorder)
            try:
                installed.check_called(name)
            except tracing.WrapperTargetError as exc:
                problems["wrappers"] = [str(exc)]
        plain = (replay(name, seed, ops, os.path.join(base, "off"))
                 if name == "warm_hits" else {"samples": []})
    finally:
        shutil.rmtree(base, ignore_errors=True)
    spans = traced["spans"]
    # Wall time of a cold replay is bimodal on the seed (the speculation
    # pool's GIL hand-offs, README.md), so a second pass with wrappers
    # off cannot resolve the wrappers' cost; price the spans instead.
    wrapper_s = len(spans) * tracing.wrapper_cost_s()

    layer_of = {row[2]: row[0] for row in tracing.TABLE}
    metrics, rows, shares = layers.derive(spans, traced["roundtrips"],
                                          layer_of)
    counters = traced["snapshot"]["counters"]
    admission = traced["snapshot"]["histograms"].get("span.admission")
    metrics.update({
        "frontend.roundtrip_1conn_us": plain.get("roundtrip_1conn_us", 0.0),
        "frontend.roundtrip_2conn_us": plain.get("roundtrip_2conn_us", 0.0),
        "frontend.shed": counters.get("frontend.shed", 0),
        "frontend.deadline_rejected":
            counters.get("frontend.deadline_rejected", 0),
        "frontend.admission_wait_us": (
            admission["sum_s"] / admission["count"] * 1e6
            if admission and admission["count"] else 0.0),
        "cache.evictions": traced["evictions"],
        "obs.trace_us_per_request": obs_cost_us(),
        "bench.trace_overhead_ratio":
            traced["elapsed"] / (traced["elapsed"] - wrapper_s),
    })
    first_plan = {}
    problems["answers"] = wrong_answers(traced["samples"], first_plan)
    problems["answers"] += wrong_answers(plain["samples"], first_plan)
    if metrics["iterations.budget_stops"]:
        problems["budget"] = [
            f"{metrics['iterations.budget_stops']} speculative trials hit "
            "their wall-clock budget"]
    if name == "warm_hits" and metrics["iterations.estimate_all_ms"]:
        problems["speculation"] = ["warm_hits speculated"]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, f"trace-{name}.jsonl")
    with open(trace_path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 1,
        "correct": not any(problems.values()),
        "attempted": len(ops),
        "failed": len(problems["answers"]),
        "metrics": {spec[0]: metrics[spec[0]] for spec in layers.SPECS},
        "rows": rows,
        "shares": shares,
        "info": {"spans": len(spans), "trace_file": trace_path,
                 "traced_s": traced["elapsed"], "wrapper_s": wrapper_s},
        "notes": [],
        "problems": {k: v for k, v in problems.items() if v},
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def units_of(result) -> dict:
    return dict(E2E) if not result["trace"] else {
        spec[0]: spec[1] for spec in layers.SPECS}


def report(result) -> None:
    """Every metric by name with its unit; timings with sample counts."""
    name = result["workload"]
    units = units_of(result)
    print(f"== {name} (seed {result['seed']}, {result['seconds']}s, "
          f"trace {result['trace']}) ==")
    if result["trace"]:
        detail = {row[0]: row for row in result["rows"]}
        for metric, value in result["metrics"].items():
            line = f"{name} {metric} = {value:.6g} {units[metric]}"
            if metric in detail:
                _m, _p50, p95, count = detail[metric]
                line += f"  (p95 {p95:.6g}, n={count})"
            print(line)
        print(f"{name} share of client round trip by layer:")
        for layer, share in sorted(result["shares"].items(),
                                   key=lambda item: -item[1]):
            print(f"    {layer:24s} {share:7.2%}")
    else:
        info = result["info"]
        counts = {"setup_s": info["setup_samples"],
                  "latency_p50_ms": info["latency_samples"],
                  "latency_tail_ms": info["latency_samples"]}
        for metric, value in result["metrics"].items():
            line = f"{name} {metric} = {value:.6g} {units[metric]}"
            if metric == "latency_tail_ms":
                line += f"  (p{info['tail_percentile']})"
            if metric in counts:
                line += f"  (n={counts[metric]})"
            print(line)
        for key in sorted(info):
            print(f"{name} info.{key} = {info[key]}")
    print(f"{name} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for note in result["notes"]:
        print(f"{name} note: {note}")
    for check, messages in result["problems"].items():
        for message in messages[:5]:
            print(f"{name} CHECK FAILED [{check}]: {message}")
        if len(messages) > 5:
            print(f"{name} CHECK FAILED [{check}]: ... and "
                  f"{len(messages) - 5} more")


def contract_line(result) -> str:
    units = units_of(result)
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    })


def full_run(seed, seconds, repeat, trace, output) -> int:
    """Every workload as one result set (what --compare reads)."""
    record = {"schema": 1, "seed": seed, "seconds": seconds,
              "workloads": {}}
    failed = False
    for name in workloads.WORKLOADS:
        entry = record["workloads"][name] = {"runs": [], "trace": None}
        if trace in (None, 0):
            for _ in range(repeat):
                result = measure(name, seed, seconds, recheck_all=True)
                report(result)
                failed |= not result["correct"]
                entry["runs"].append({
                    key: result[key] for key in
                    ("metrics", "info", "attempted", "failed", "correct")
                })
        if trace in (None, 1):
            result = measure_traced(name, seed, seconds)
            report(result)
            failed |= not result["correct"]
            entry["trace"] = {"metrics": result["metrics"],
                              "shares": result["shares"],
                              "correct": result["correct"]}
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"result set written to {output}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None)
    parser.add_argument("--repeat", type=int, default=1,
                        help="end-to-end runs per workload in a result set")
    parser.add_argument("--output", default=None,
                        help="result-set file (default "
                             "bench_results/run-seed<N>.json)")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--regenerate-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__main__.py")):
        print(f"error: {ROOT}/src/repro is missing -- the benchmark drives "
              "the repository's own server", file=sys.stderr)
        return 2
    if args.list:
        print("\n".join(workloads.describe(args.seed, args.seconds)))
        return 0
    if args.selftest:
        import selftest
        return selftest.main()
    if args.regenerate_golden:
        checks.regenerate_golden()
        return 0
    if args.workload is None:
        output = args.output or os.path.join(
            RESULTS_DIR, f"run-seed{args.seed}.json")
        return full_run(args.seed, args.seconds, args.repeat, args.trace,
                        output)
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    report(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    except (loadgen.BenchError, tracing.WrapperTargetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
