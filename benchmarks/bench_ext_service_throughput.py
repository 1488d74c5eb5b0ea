"""Benchmark: OptimizerService throughput -- first touch, re-cold, warm,
and warm restart.

Extension benchmark (not a paper figure): measures optimize() requests
per second through the serving layer, in the tiers a request can land
in.  A *first-touch* cold request pays speculation plus plan costing; a
*re-cold* request is a new fingerprint over data the service already
speculated on (another tolerance: Algorithm 1's trial never reads it),
fitted from the trial memo and costed, no GD run; a *warm* request is
answered from the plan cache keyed by the workload fingerprint; a
*warm-restart* request is answered by a freshly constructed service
that loaded a disk-backed plan store (``cache_path``) written by a
previous service instance -- the across-process analogue of the warm
cache.  The acceptance bar is a >= 10x speedup over first-touch cold for
both warm paths, with re-cold in between.
"""

import os
import tempfile
import time

from _helpers import run_once

from repro.api import ML4all
from repro.cluster import ClusterSpec
from repro.core.iterations import SpeculationSettings
from repro.core.plans import TrainingSpec
from repro.experiments.report import Table
from repro.service import OptimizerService


def _measure():
    spec = ClusterSpec(jitter_sigma=0.0)
    system = ML4all(cluster_spec=spec, seed=7)
    dataset = system.load_dataset("adult")
    rows = []

    for tolerance in (0.05, 0.01, 0.005):
        # A fresh service per row: its first request is a first touch
        # (the trial memo is as empty as the plan cache).
        service = OptimizerService(
            spec=spec,
            seed=7,
            speculation=SpeculationSettings(
                sample_size=500, time_budget_s=1.0,
                max_speculation_iters=1000,
            ),
        )
        training = TrainingSpec(task="logreg", tolerance=tolerance, seed=7)

        t0 = time.perf_counter()
        cold = service.optimize(dataset, training)
        cold_s = time.perf_counter() - t0
        assert not cold.cache_hit

        warm_runs = 50
        t0 = time.perf_counter()
        for _ in range(warm_runs):
            warm = service.optimize(dataset, training)
            assert warm.cache_hit
        warm_s = (time.perf_counter() - t0) / warm_runs

        # New tolerances, same data, same service: every plan is
        # computed (never a cache hit), none runs a trial.
        recold_runs = 10
        trials_run = service.metrics.value("speculation.memo.misses")
        t0 = time.perf_counter()
        for i in range(recold_runs):
            recold = service.optimize(dataset, TrainingSpec(
                task="logreg", tolerance=tolerance * (0.9 - 0.01 * i),
                seed=7,
            ))
            assert not recold.cache_hit
        recold_s = (time.perf_counter() - t0) / recold_runs
        assert service.metrics.value("speculation.memo.misses") == trials_run

        rows.append({
            "epsilon": tolerance,
            "chosen_plan": str(cold.chosen_plan),
            "cold_ms": cold_s * 1e3,
            "recold_ms": recold_s * 1e3,
            "warm_ms": warm_s * 1e3,
            "speedup": cold_s / warm_s,
            "warm_optimize_per_s": 1.0 / warm_s,
        })

    stats = service.cache_stats()
    table = Table(
        experiment="ext_service_throughput",
        title="OptimizerService throughput: first touch vs. re-cold vs. "
              "warm plan cache",
        columns=["epsilon", "chosen_plan", "cold_ms", "recold_ms",
                 "warm_ms", "speedup", "warm_optimize_per_s"],
        rows=rows,
        notes=[
            "cold = first touch: speculation + plan costing on "
            "a fresh service; re-cold = a new tolerance on the same data "
            "and service (trial memo hit: fit + costing, no GD run); "
            "warm = plan-cache hit",
            stats.summary(),
        ],
    )
    return [table, _measure_restart()]


def _measure_restart():
    """Warm restart: a new service instance over a disk-backed store."""
    spec = ClusterSpec(jitter_sigma=0.0)
    speculation = SpeculationSettings(
        sample_size=500, time_budget_s=1.0, max_speculation_iters=1000
    )
    system = ML4all(cluster_spec=spec, seed=7)
    dataset = system.load_dataset("adult")
    training = TrainingSpec(task="logreg", tolerance=0.01, seed=7)
    rows = []

    with tempfile.TemporaryDirectory() as tmp:
        for backend in ("json", "db"):
            path = os.path.join(tmp, f"plans.{backend}")

            first = OptimizerService(
                spec=spec, seed=7, speculation=speculation, cache_path=path
            )
            t0 = time.perf_counter()
            cold = first.optimize(dataset, training)
            cold_s = time.perf_counter() - t0
            assert not cold.cache_hit
            first.close()

            # A brand-new service (fresh caches, same store path):
            # construction loads the persisted entry, the request is
            # answered without re-speculation.
            t0 = time.perf_counter()
            restarted = OptimizerService(
                spec=spec, seed=7, speculation=speculation, cache_path=path
            )
            load_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = restarted.optimize(dataset, training)
            warm_s = time.perf_counter() - t0
            restarted.close()

            rows.append({
                "backend": restarted.backend.name,
                "chosen_plan": str(warm.chosen_plan),
                "cold_ms": cold_s * 1e3,
                "store_load_ms": load_s * 1e3,
                "warm_restart_ms": warm_s * 1e3,
                "speedup": cold_s / warm_s,
                "cache_hit": warm.cache_hit,
                "warm_loaded": restarted.warm_loaded,
            })

    return Table(
        experiment="ext_service_throughput",
        title="Warm restart: fresh service over a persistent plan store",
        columns=["backend", "chosen_plan", "cold_ms", "store_load_ms",
                 "warm_restart_ms", "speedup", "cache_hit", "warm_loaded"],
        rows=rows,
        notes=[
            "cold = first-ever request (speculation + costing), written "
            "through to the plan store; warm restart = a NEW "
            "OptimizerService constructed over the same store answers "
            "the same request from persisted state, no re-speculation",
        ],
    )


def test_service_throughput(benchmark, emit):
    tables = run_once(benchmark, _measure)
    emit(tables, "ext_service_throughput")
    table = tables[0]

    assert len(table.rows) == 3
    for row in table.rows:
        # Acceptance bar: a warm plan-cache optimize() is >= 10x faster
        # than a cold one (in practice the gap is 2-4 orders of
        # magnitude; 10x keeps CI noise out of the assertion).
        assert row["speedup"] >= 10.0, row
        assert row["warm_optimize_per_s"] > 100.0, row
        # Re-cold sits between the two: it skips the trials a first
        # touch runs and still computes the plan a hit looks up.
        assert row["warm_ms"] <= row["recold_ms"] < row["cold_ms"], row

    restart = tables[1]
    assert len(restart.rows) == 2
    for row in restart.rows:
        # Acceptance bar: a restarted service over a disk-backed store
        # answers a previously seen request from persisted state
        # (cache hit, no re-speculation) >= 10x faster than cold --
        # warm-restart ~= warm-cache.
        assert row["cache_hit"], row
        assert row["warm_loaded"] == 1, row
        assert row["speedup"] >= 10.0, row
