"""``run.py --selftest``: the benchmark's own arithmetic and wiring,
checked without starting a server (a few seconds)."""

from __future__ import annotations

import json
import os

import checks
import compare
import layers
import loadgen
import run
import stats
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50.5
    assert stats.percentile(values, 0) == 1 and stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0
    # "at least ten samples beyond": 200 samples carry a p95, 199 do not.
    assert stats.samples_beyond(200, 95) >= stats.MIN_SAMPLES_BEYOND
    assert stats.samples_beyond(199, 95) < stats.MIN_SAMPLES_BEYOND
    assert stats.samples_beyond(40, 75) >= stats.MIN_SAMPLES_BEYOND
    assert "only 9.8 of 39" in run.tail_note(39, 75)
    assert run.tail_note(40, 75) == ""
    # Every workload's fixed tail percentile is one its nominal sample
    # supports (mixed_open's closed-loop half is half the run).
    for workload in workloads.WORKLOADS.values():
        seconds = 6 if workload.loop == "open" else 12
        count = round(workload.nominal_rate * seconds)
        assert stats.samples_beyond(count, workload.tail) >= \
            stats.MIN_SAMPLES_BEYOND, (workload.name, count)
    assert abs(stats.quartile_spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
               - 5.5 / 14.5) < 1e-12


def check_self_time():
    # A 10 s root; two children on two threads overlap for 2 s
    # ([1,5] and [3,8]); a grandchild [4,5] sits in the second.
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0, "thread": 1},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0, "thread": 2},
        {"id": 3, "parent": 1, "start": 3.0, "end": 8.0, "thread": 3},
        {"id": 4, "parent": 3, "start": 4.0, "end": 5.0, "thread": 3},
    ]
    assert stats.union_length([(1, 5), (3, 8), (9, 9.5)]) == 7.5
    own = stats.self_times(spans)
    assert own == {1: 3.0, 2: 4.0, 3: 4.0, 4: 1.0}, own
    shared = stats.attributed_times(spans)
    # Children cover 7 s of wall with 9 s of duration: scaled by 7/9,
    # so the tree sums to the root's 10 s.
    assert abs(sum(shared.values()) - 10.0) < 1e-12, shared
    assert abs(shared[2] - 4.0 * 7 / 9) < 1e-12
    assert abs(shared[4] - 1.0 * 7 / 9) < 1e-12
    # A child that outlives its parent is clipped, not subtracted whole.
    clipped = stats.self_times([
        {"id": 1, "parent": None, "start": 0.0, "end": 2.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
    ])
    assert clipped[1] == 1.0


def check_open_loop_arithmetic():
    # Due every 10 ms; the server stalls 35 ms on the first request, so
    # the ones queued behind it are late although each is served fast.
    due = [0.000, 0.010, 0.020, 0.030]
    sent = [0.000, 0.010, 0.0215, 0.030]
    done = [0.035, 0.036, 0.037, 0.038]
    latency = stats.latencies_from_due(due, done)
    assert [round(v, 3) for v in latency] == [0.035, 0.026, 0.017, 0.008]
    lag = stats.generator_lag(due, sent)
    assert [round(v, 4) for v in lag] == [0.0, 0.0, 0.0015, 0.0]
    steady = [0.010] * 40
    growing = [0.010 + 0.002 * i for i in range(40)]
    assert not stats.backlog_growing(steady)
    assert stats.backlog_growing(growing)


def check_quiet_estimates():
    # 4 s, one connection, an op every 100 ms -- except in the second
    # second, which the hypervisor took 30% of: ops take 200 ms there.
    marks = [(0.0, 0, 0), (1.0, 200, 2), (2.0, 400, 62), (3.0, 600, 64),
             (4.0, 800, 66)]
    edges = ([i / 10 for i in range(11)] + [1.2, 1.4, 1.6, 1.8]
             + [2 + i / 10 for i in range(21)])
    samples = [loadgen.Sample(None, start, end, {"ok": True})
               for start, end in zip(edges, edges[1:])]
    info = {}
    quiet = run.quiet_intervals(marks, info)
    assert quiet == [(0.0, 1.0), (2.0, 3.0), (3.0, 4.0)], quiet
    assert abs(info["disturbed_share"] - 0.25) < 1e-12
    assert abs(info["stolen_share"] - 66 / 800) < 1e-12
    rate, p50, tail, count = run.closed_loop_estimates([samples], quiet, 95)
    assert count == 30 and abs(rate - 10.0) < 1e-9, (count, rate)
    assert abs(p50 - 100.0) < 1e-6 and abs(tail - 100.0) < 1e-6
    # Disturbed for more than half the section: nothing is left out.
    noisy = [(t, ticks, ticks // 4) for t, ticks, _ in marks]
    assert run.quiet_intervals(noisy, info) == [(0.0, 4.0)]
    assert info["disturbed_share"] == 1.0
    rate, _p50, _tail, count = run.closed_loop_estimates(
        [samples], [(0.0, 4.0)], 95)
    assert count == len(samples) and abs(rate - len(samples) / 4) < 1e-9


def check_streams():
    for name in workloads.WORKLOADS:
        first = workloads.stream_bytes(name, 1)
        assert first == workloads.stream_bytes(name, 1), name
        assert first != workloads.stream_bytes(name, 2), name
    phases = workloads.open_schedule(1, 12)
    assert [p["name"] for p in phases] == [n for n, _ in workloads.RATES]
    for phase in phases:
        assert len(phase["arrivals"]) == round(phase["rate"] * 2)
        assert all(0 <= due < 2 for due, _conn, _op in phase["arrivals"])
    ids = [op.job_id for op in _take(workloads.stream("train_durable", 1, 0),
                                     50)]
    assert len(set(ids)) == 50


def _take(iterator, count):
    return [next(iterator) for _ in range(count)]


def check_wrapper_table():
    for _layer, target, _name, _expect, _extract in tracing.TABLE:
        tracing.resolve(target)
    try:
        tracing.resolve("repro.service.frontend:Dispatcher.handel")
    except tracing.WrapperTargetError as exc:
        assert "handel" in str(exc)
    else:
        raise AssertionError("a renamed target resolved")
    # Installing and removing leaves the modules as they were.
    import repro.service.backends as backends
    import repro.service.frontend as frontend
    before = (frontend.parse_wire_line, frontend.json, backends.json,
              frontend.Dispatcher.handle)
    recorder = tracing.Recorder()
    with tracing.Installed(recorder):
        frontend.parse_wire_line("adult epsilon=0.1")
        assert frontend.json.loads("[1]") == [1]
    assert before == (frontend.parse_wire_line, frontend.json,
                      backends.json, frontend.Dispatcher.handle)
    assert [s["name"] for s in recorder.spans] == ["frontend.parse"]
    assert tracing.wrapper_cost_s(2000) < 1e-4


def check_registry_and_golden():
    from repro.gd import registry

    capable = sorted(name for name, spec in registry.ALGORITHMS.items()
                     if spec.supports_executor)
    assert capable == workloads.ALL_ALGORITHMS.split(","), capable
    golden = checks.load_golden()
    library = checks.Library()
    assert len(library.all_plans) == 41 and len(library.core_plans) == 11
    for dataset, epsilon in workloads.QUALITY_QUERIES:
        table = golden["queries"][checks.query_name(dataset, epsilon)]
        assert sorted(table) == sorted(library.all_plans)
    best = {checks.query_name(ds, eps):
            checks.best_plan(golden, checks.query_name(ds, eps),
                             library.all_plans)
            for ds, eps in workloads.QUALITY_QUERIES}
    assert checks.plan_regret(golden, best, library.all_plans) == 1.0
    assert checks.plan_regret(golden, best, library.core_plans) <= 1.0
    try:
        checks.plan_regret(golden, dict(best, **{"adult@0.01": "NOPE"}),
                           library.all_plans)
    except KeyError as exc:
        assert "NOPE" in str(exc)
    else:
        raise AssertionError("an unknown plan was priced")


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS.values() if w.bounded]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.E2E)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.SPECS)
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    emitted = {name for name, _unit, _better in layers.SPECS}
    assert set(layers.EXACT_COUNTS) <= emitted


def check_compare():
    assert compare.verdict([10.0], [10.9], 0.10, "lower") == "ok"
    assert compare.verdict([10.0], [11.1], 0.10, "lower") == "regressed"
    assert compare.verdict([10.0], [8.9], 0.10, "higher") == "regressed"
    assert compare.verdict([10.0], [12.0], 0.10, "higher") == "ok"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert compare.verdict(noisy, [10.5] * 5, 0.10, "lower") == "unresolved"
    # Wide spread, yet every B run beats every A run: resolved.
    assert compare.verdict(noisy, [5.0, 6.0, 7.0], 0.10, "lower") == "ok"


CHECKS = (check_percentiles, check_self_time, check_open_loop_arithmetic,
          check_quiet_estimates, check_streams, check_wrapper_table, check_registry_and_golden,
          check_benchmark_json, check_compare)


def main() -> int:
    for check in CHECKS:
        check()
        print(f"selftest: {check.__name__} ok")
    print(f"selftest: {len(CHECKS)} checks passed")
    return 0
