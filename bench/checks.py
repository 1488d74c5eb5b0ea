"""Answer checks that need the library in this process: the golden
plan-cost table (plan regret, staleness re-check) and the post-run
audit of durable jobs (done exactly once, weights bit-identical to an
uninterrupted in-process run)."""

from __future__ import annotations

import json
import math
import os
import random

from workloads import (
    ALL_ALGORITHMS,
    QUALITY_MAX_ITER,
    QUALITY_QUERIES,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_costs.json")
GOLDEN_SEED = 7

#: Durable jobs whose final weights are compared per run.
WEIGHT_CHECKS = 5


def query_name(dataset, epsilon) -> str:
    return f"{dataset}@{epsilon:g}"


class Library:
    """Lazily loaded datasets and plan objects (imports ``repro``)."""

    def __init__(self):
        from repro.api import ML4all
        from repro.core.plan_space import enumerate_plans

        self._new_system = lambda: ML4all(seed=GOLDEN_SEED)
        self._loader = self._new_system()
        self._datasets = {}
        self.core_plans = [str(p) for p in enumerate_plans()]
        self._plans = {
            str(p): p
            for p in enumerate_plans(tuple(ALL_ALGORITHMS.split(",")))
        }
        self.all_plans = list(self._plans)

    def dataset(self, name):
        if name not in self._datasets:
            self._datasets[name] = self._loader.load_dataset(name)
        return self._datasets[name]

    def executed_cost(self, dataset, epsilon, plan) -> float:
        """Simulated seconds of actually running ``plan`` -- on a fresh
        seed-7 engine, so the cluster's jitter stream starts at the same
        point every time and the number repeats exactly."""
        result = self._new_system().execute_plan(
            self.dataset(dataset), self._plans[plan], epsilon=epsilon,
            max_iter=QUALITY_MAX_ITER,
        )
        return float(result.sim_seconds)

    def train_weights(self, dataset, epsilon, max_iter):
        return self._new_system().train(
            self.dataset(dataset), epsilon=epsilon, max_iter=max_iter,
        ).weights


def regenerate_golden(path=GOLDEN_PATH) -> dict:
    """Execute every plan of the 41-plan space on each quality query."""
    library = Library()
    queries = {}
    for dataset, epsilon in QUALITY_QUERIES:
        name = query_name(dataset, epsilon)
        queries[name] = {
            plan: library.executed_cost(dataset, epsilon, plan)
            for plan in library.all_plans
        }
        best = min(queries[name], key=queries[name].get)
        print(f"{name}: best {best} {queries[name][best]:.4f}s simulated")
    golden = {
        "seed": GOLDEN_SEED,
        "max_iter": QUALITY_MAX_ITER,
        "algorithms": ALL_ALGORITHMS.split(","),
        "unit": "simulated seconds of execute_plan on a fresh engine",
        "queries": queries,
    }
    with open(path, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return golden


def load_golden(path=GOLDEN_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def plan_regret(golden, chosen, space) -> float:
    """Geometric mean over the quality queries of executed cost of the
    chosen plan / the cheapest executed cost within ``space``.

    ``chosen`` maps query name -> plan string the server answered.
    Raises KeyError naming the plan when it is not in the table."""
    logs = []
    for dataset, epsilon in QUALITY_QUERIES:
        name = query_name(dataset, epsilon)
        table = golden["queries"][name]
        if chosen[name] not in table:
            raise KeyError(
                f"plan {chosen[name]!r} chosen for {name} is not in "
                "golden_costs.json; run --regenerate-golden"
            )
        best = min(table[plan] for plan in space if plan in table)
        logs.append(math.log(table[chosen[name]] / best))
    return math.exp(sum(logs) / len(logs))


def best_plan(golden, name, space) -> str:
    table = golden["queries"][name]
    return min((plan for plan in space if plan in table), key=table.get)


def stale_entries(golden, library, chosen, space, queries) -> list:
    """Re-execute the chosen and the golden-best plan of each listed
    query; returns a message per table entry that no longer matches."""
    problems = []
    for dataset, epsilon in queries:
        name = query_name(dataset, epsilon)
        for plan in {chosen[name], best_plan(golden, name, space)}:
            now = library.executed_cost(dataset, epsilon, plan)
            then = golden["queries"][name][plan]
            if not math.isclose(now, then, rel_tol=1e-9):
                problems.append(
                    f"golden_costs.json is stale: {name} {plan} executes "
                    f"in {now!r}s simulated, table says {then!r}; run "
                    "python3 bench/run.py --regenerate-golden"
                )
    return problems


# ----------------------------------------------------------------------
def audit_store(store_path, samples) -> tuple:
    """``(problems, {job_id: final weights})`` for the jobs the
    generator saw finish on one server.

    Each must be ``done`` in a freshly opened store, with a lease
    history that chains from iteration 0 to the end without gap or
    overlap and holds exactly one ``done`` record.
    """
    from repro.service.checkpoint import CheckpointStore

    problems, weights = [], {}
    store = CheckpointStore(path=store_path)
    try:
        for sample in samples:
            job_id = sample.op.job_id
            checkpoint = store.load(job_id)
            if checkpoint is None or checkpoint.status != "done":
                problems.append(
                    f"{job_id}: store says "
                    f"{checkpoint.status if checkpoint else 'missing'}"
                )
                continue
            at, done = 0, 0
            for record in checkpoint.history:
                if record["start_iteration"] != at:
                    break
                at = record["end_iteration"]
                done += record["status"] == "done"
            if at != checkpoint.done_iterations or done != 1:
                problems.append(
                    f"{job_id}: lease history reaches {at} with {done} done "
                    f"records, checkpoint at {checkpoint.done_iterations}"
                )
            weights[job_id] = checkpoint.weights
    finally:
        store.close()
    return problems, weights


def audit_weights(samples, weights, seed, library) -> list:
    """WEIGHT_CHECKS seeded jobs (leased ones first) must hold weights
    bit-identical to an uninterrupted in-process ``ML4all(seed=7).train``."""
    import numpy as np

    audited = sorted((s for s in samples if s.op.job_id in weights),
                     key=lambda s: s.op.job_id)
    random.Random(f"weights:{seed}").shuffle(audited)
    leased = [s for s in audited if s.op.leased][:WEIGHT_CHECKS - 2]
    plain = [s for s in audited if not s.op.leased]
    problems = []
    for sample in (leased + plain)[:WEIGHT_CHECKS]:
        dataset, eps_token, iter_token = sample.op.key.split()
        expected = library.train_weights(
            dataset, float(eps_token.split("=")[1]),
            int(iter_token.split("=")[1]),
        )
        if not np.array_equal(np.asarray(weights[sample.op.job_id]),
                              expected):
            problems.append(
                f"{sample.op.job_id}: final weights differ from an "
                "uninterrupted in-process run"
            )
    return problems
