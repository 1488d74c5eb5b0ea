#!/usr/bin/env python
"""Append service-layer performance points to ``BENCH_service.json``.

The performance trajectory ROADMAP asks for: every run appends one
machine-readable record per scenario -- git hash, UTC timestamp,
scenario name, ops/s plus scenario-specific extras -- so regressions in
the serving path show up as a time series across commits rather than as
a one-off table.

Scenarios (mirroring ``benchmarks/bench_ext_service_throughput.py`` and
``benchmarks/bench_ext_adaptive.py``):

* ``service_cold_optimize``   -- first touch: speculation + costing on
  a fresh service;
* ``service_recold_optimize`` -- new tolerances on the same data and
  service: trial-memo hits (fit + costing, no GD run);
* ``service_warm_optimize``   -- plan-cache hits;
* ``service_warm_restart``    -- a fresh service warm-loading a
  disk-backed plan store;
* ``frontend_socket``         -- concurrent clients through the
  admission-controlled socket front-end;
* ``extended_space_cold`` / ``extended_space_warm`` -- optimize() over
  the *full* registered plan space (every executor-capable algorithm,
  plugins included), cold and through the plan cache;
* ``adaptive_train``          -- adaptive runtime vs one-shot under a
  perturbed cost model (``--skip-adaptive`` to omit; it is the slow
  one).

    python scripts/bench_trajectory.py --output BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from datetime import datetime, timezone

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)


def git_hash() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def scenario_service_throughput() -> list:
    """First-touch / re-cold / warm / warm-restart optimize() rates."""
    from repro.api import ML4all
    from repro.cluster import ClusterSpec
    from repro.core.iterations import SpeculationSettings
    from repro.core.plans import TrainingSpec
    from repro.service import OptimizerService

    spec = ClusterSpec(jitter_sigma=0.0)
    speculation = SpeculationSettings(
        sample_size=500, time_budget_s=1.0, max_speculation_iters=1000
    )
    system = ML4all(cluster_spec=spec, seed=7)
    dataset = system.load_dataset("adult")
    training = TrainingSpec(task="logreg", tolerance=0.01, seed=7)

    # The three in-memory tiers on a service without a store (a JSON
    # store rewrites its file on every new plan, which would be most of
    # a re-cold request).
    service = OptimizerService(spec=spec, seed=7, speculation=speculation)
    t0 = time.perf_counter()
    cold = service.optimize(dataset, training)
    cold_s = time.perf_counter() - t0
    assert not cold.cache_hit

    warm_runs = 50
    t0 = time.perf_counter()
    for _ in range(warm_runs):
        assert service.optimize(dataset, training).cache_hit
    warm_s = (time.perf_counter() - t0) / warm_runs

    recold_runs = 10
    t0 = time.perf_counter()
    for i in range(recold_runs):
        assert not service.optimize(dataset, TrainingSpec(
            task="logreg", tolerance=0.009 - 0.0001 * i, seed=7,
        )).cache_hit
    recold_s = (time.perf_counter() - t0) / recold_runs
    trials_run = service.metrics.value("speculation.memo.misses")

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "plans.json")
        first = OptimizerService(
            spec=spec, seed=7, speculation=speculation, cache_path=store
        )
        first.optimize(dataset, training)
        first.close()

        restarted = OptimizerService(
            spec=spec, seed=7, speculation=speculation, cache_path=store
        )
        t0 = time.perf_counter()
        for _ in range(warm_runs):
            assert restarted.optimize(dataset, training).cache_hit
        restart_s = (time.perf_counter() - t0) / warm_runs
        warm_loaded = restarted.warm_loaded
        restarted.close()

    return [
        {"scenario": "service_cold_optimize", "ops_per_s": 1.0 / cold_s,
         "cold_ms": cold_s * 1e3},
        {"scenario": "service_recold_optimize", "ops_per_s": 1.0 / recold_s,
         "recold_ms": recold_s * 1e3, "speedup_vs_cold": cold_s / recold_s,
         "trials_run": trials_run},
        {"scenario": "service_warm_optimize", "ops_per_s": 1.0 / warm_s,
         "warm_ms": warm_s * 1e3, "speedup_vs_cold": cold_s / warm_s},
        {"scenario": "service_warm_restart", "ops_per_s": 1.0 / restart_s,
         "warm_loaded": warm_loaded,
         "speedup_vs_cold": cold_s / restart_s},
    ]


def scenario_frontend_socket(threads=8, per_thread=5) -> list:
    """Concurrent clients through the admission-controlled front-end."""
    from repro.api import ML4all
    from repro.service.frontend import Dispatcher, SocketFrontend

    dispatcher = Dispatcher(ML4all(seed=7))
    line = "adult epsilon=0.05 fixed_iterations=60"
    responses = []

    def client(worker, port):
        sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        handle = sock.makefile("rw", encoding="utf-8", newline="\n")
        try:
            for i in range(per_thread):
                handle.write(f"{line} id={worker}-{i}\n")
                handle.flush()
                responses.append(json.loads(handle.readline()))
        finally:
            sock.close()

    with SocketFrontend(dispatcher, port=0, max_workers=8,
                        shed_after=threads * per_thread + 8) as frontend:
        # one cold request up front so the timed section is steady-state
        client("warmup", frontend.port)
        responses.clear()
        start = time.perf_counter()
        workers = [
            threading.Thread(target=client, args=(n, frontend.port))
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        elapsed = time.perf_counter() - start

    total = threads * per_thread
    answered = len(responses)
    served = sum(1 for r in responses if r.get("ok"))
    assert answered == total, f"dropped {total - answered} responses"
    return [{
        "scenario": "frontend_socket",
        "ops_per_s": total / elapsed,
        "threads": threads,
        "requests": total,
        "ok": served,
    }]


def scenario_extended_space() -> list:
    """Cold + warm optimize() over the *full* registered plan space.

    The service scenarios above run the paper's core bgd/mgd/sgd space
    (11 plans); this one asks the optimizer to enumerate every
    registered executor-capable algorithm -- the adaptive-direction
    variants, SVRG, and the plugin algorithms (grad_avg, arc) -- so the
    trajectory tracks how speculation + vectorized costing scale with
    the plan-space size the paper's Section 6 parameterization allows.
    """
    from repro.api import ML4all
    from repro.cluster import ClusterSpec
    from repro.core.iterations import SpeculationSettings
    from repro.core.plan_space import enumerate_plans
    from repro.core.plans import TrainingSpec
    from repro.gd import registry as gd_registry
    from repro.service import OptimizerService

    spec = ClusterSpec(jitter_sigma=0.0)
    algorithms = tuple(sorted(
        name for name, algo_spec in gd_registry.ALGORITHMS.items()
        if algo_spec.supports_executor
    ))
    n_plans = len(enumerate_plans(algorithms))
    speculation = SpeculationSettings(
        sample_size=500, time_budget_s=0.5, max_speculation_iters=1000
    )
    system = ML4all(cluster_spec=spec, seed=7)
    dataset = system.load_dataset("adult")
    training = TrainingSpec(task="logreg", tolerance=0.01, seed=7)

    service = OptimizerService(spec=spec, seed=7, speculation=speculation)
    t0 = time.perf_counter()
    cold = service.optimize(dataset, training, algorithms=algorithms)
    cold_s = time.perf_counter() - t0
    assert not cold.cache_hit

    warm_runs = 50
    t0 = time.perf_counter()
    for _ in range(warm_runs):
        assert service.optimize(
            dataset, training, algorithms=algorithms
        ).cache_hit
    warm_s = (time.perf_counter() - t0) / warm_runs
    service.close()

    chosen = cold.report.chosen_plan
    return [
        {"scenario": "extended_space_cold", "ops_per_s": 1.0 / cold_s,
         "cold_ms": cold_s * 1e3, "algorithms": len(algorithms),
         "plans": n_plans, "chosen": str(chosen)},
        {"scenario": "extended_space_warm", "ops_per_s": 1.0 / warm_s,
         "warm_ms": warm_s * 1e3, "plans": n_plans,
         "speedup_vs_cold": cold_s / warm_s},
    ]


def scenario_adaptive_train() -> list:
    """Adaptive runtime vs one-shot mis-pick (perturbed cost model)."""
    from repro.experiments import ExperimentContext
    from repro.experiments.registry import run_experiment

    start = time.perf_counter()
    tables = run_experiment("ext_adaptive", ExperimentContext.from_env())
    elapsed = time.perf_counter() - start
    table = tables[0]
    one_shot = table.row_for(mode="one-shot perturbed")
    adaptive = table.row_for(mode="adaptive perturbed")
    return [{
        "scenario": "adaptive_train",
        "ops_per_s": 1.0 / elapsed,
        "wall_s": elapsed,
        "adaptive_sim_s": adaptive["sim_s"],
        "one_shot_sim_s": one_shot["sim_s"],
        "switches": adaptive["switches"],
    }]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_service.json"))
    parser.add_argument("--skip-adaptive", action="store_true",
                        help="skip the (slow) adaptive-runtime scenario")
    parser.add_argument("--threads", type=int, default=8,
                        help="client threads for the socket scenario")
    args = parser.parse_args(argv)

    stamp = {
        "git_hash": git_hash(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    records = []
    records += scenario_service_throughput()
    records += scenario_frontend_socket(threads=args.threads)
    records += scenario_extended_space()
    if not args.skip_adaptive:
        records += scenario_adaptive_train()
    records = [{**stamp, **record} for record in records]
    if not records:
        # A run that appends nothing is a broken run, not a quiet one --
        # CI keys off this exit code.
        print("error: no benchmark records produced", file=sys.stderr)
        return 1

    history = []
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                history = json.load(handle)
            if not isinstance(history, list):
                raise ValueError("trajectory file must hold a JSON array")
        except (OSError, ValueError) as exc:
            print(f"warning: starting a fresh trajectory "
                  f"({args.output}: {exc})", file=sys.stderr)
            history = []
    history.extend(records)
    with open(args.output, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")

    for record in records:
        print(f"{record['scenario']}: {record['ops_per_s']:.2f} ops/s")
    print(f"{len(records)} record(s) appended to {args.output} "
          f"({len(history)} total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
