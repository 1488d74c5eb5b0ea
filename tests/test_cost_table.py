"""The priced candidate table, pinned to the last bit.

``golden/cost_table.json`` holds what :meth:`CostModel.estimate_batch`
prices for every registry dataset (paper scale), under three cluster
specs (the default, a 1 KB cache, a single node) and over three plan
spaces (the paper's 11-plan core space, the 41-plan registered space,
and that space with MGD at batch 100): ``one_time_s``,
``per_iteration_s``, ``total_s`` and ``breakdown(i)`` of every plan,
plus one block priced by ``PerturbedCostModel({"sgd": 0.25})``.

Rows are compared with ``==`` (JSON float ``repr`` round-trips
exactly), breakdowns in key order: the order is the order the
per-iteration sum is taken in, so it is part of the price.  A plan that
appears in two spaces is one row, so the test also pins that a plan's
price does not depend on what else is priced with it.

The table was generated before the batch path became a loop over the
per-plan formulas.  A change that edits a cost formula on purpose (the
plan-quality work in ROADMAP.md, which reconciles the sampler and
transform terms with the executor, is expected to) regenerates it with
``python tests/test_cost_table.py``, which prices with whatever code is
on ``PYTHONPATH``; so only do that on purpose.
"""

import json
import pathlib

import pytest

from repro.cluster import ClusterSpec
from repro.core.cost_model import CostModel
from repro.core.plan_space import enumerate_plans
from repro.data import datasets
from repro.gd.registry import CORE_ALGORITHMS
from repro.runtime import PerturbedCostModel

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cost_table.json"

#: Iteration count per algorithm, in registration order.  Any fixed
#: counts do; distinct ones make a row priced with another plan's count
#: show.
ITERATIONS = {"bgd": 120, "mgd": 950, "sgd": 4_000, "svrg": 700,
              "momentum": 2_500, "adagrad": 1_800, "adam": 1_300,
              "arc": 400, "grad_avg": 900}
SPACES = {
    "core": enumerate_plans(CORE_ALGORITHMS),
    "registered": enumerate_plans(tuple(ITERATIONS)),
    "registered_mgd100": enumerate_plans(tuple(ITERATIONS), {"mgd": 100}),
}
CLUSTERS = {
    "default": ClusterSpec(),
    "cache_1kb": ClusterSpec(cache_bytes=1024),
    "single_node": ClusterSpec(n_nodes=1, slots_per_node=1),
}
PERTURBATION = {"sgd": 0.25}
PERTURBED = "default/perturbed sgd=0.25"


def plan_key(plan) -> str:
    if plan.batch_size is None:
        return str(plan)
    return f"{plan} batch={plan.batch_size}"


def priced(model, stats, plans) -> dict:
    """plan key -> [one_time_s, per_iteration_s, total_s, breakdown]."""
    batch = model.estimate_batch(
        plans, stats, [ITERATIONS[plan.algorithm] for plan in plans]
    )
    return {
        plan_key(plan): [float(batch.one_time_s[i]),
                         float(batch.per_iteration_s[i]),
                         float(batch.total_s[i]),
                         batch.breakdown(i)]
        for i, plan in enumerate(plans)
    }


def price_table() -> dict:
    """The whole table, priced by the code on ``PYTHONPATH``."""
    table = {}
    for name in datasets.names():
        stats = datasets.REGISTRY[name].stats()
        for cluster, spec in CLUSTERS.items():
            rows = {}
            for plans in SPACES.values():
                rows.update(priced(CostModel(spec), stats, plans))
            table[f"{name}/{cluster}"] = rows
        table[f"{name}/{PERTURBED}"] = priced(
            PerturbedCostModel(CLUSTERS["default"], PERTURBATION), stats,
            SPACES["registered"],
        )
    return table


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_rows_match(rows, pinned, where):
    for key, (one_time_s, per_iteration_s, total_s, breakdown) in rows.items():
        row = pinned[key]
        assert [one_time_s, per_iteration_s, total_s] == row[:3], (where, key)
        assert list(breakdown.items()) == list(row[3].items()), (where, key)


def test_table_covers_what_it_claims(golden):
    keys = {plan_key(plan) for plans in SPACES.values() for plan in plans}
    assert len(keys) == 46  # 41 registered plans + 5 MGD plans at batch 100
    for name in datasets.names():
        for cluster in CLUSTERS:
            assert set(golden[f"{name}/{cluster}"]) == keys
        perturbed = golden[f"{name}/{PERTURBED}"]
        assert len(perturbed) == 41
        assert perturbed["SGD-lazy-shuffle"] != \
            golden[f"{name}/default"]["SGD-lazy-shuffle"]
        assert perturbed["BGD"] == golden[f"{name}/default"]["BGD"]


@pytest.mark.parametrize("name", datasets.names())
def test_prices_match_the_pinned_table(golden, name):
    stats = datasets.REGISTRY[name].stats()
    for cluster, spec in CLUSTERS.items():
        for space, plans in SPACES.items():
            assert_rows_match(priced(CostModel(spec), stats, plans),
                              golden[f"{name}/{cluster}"],
                              (name, cluster, space))
    assert_rows_match(
        priced(PerturbedCostModel(CLUSTERS["default"], PERTURBATION), stats,
               SPACES["registered"]),
        golden[f"{name}/{PERTURBED}"], (name, PERTURBED),
    )


def regenerate() -> None:
    """Re-pin the table to the code on PYTHONPATH, one row per line."""
    blocks = []
    for block, rows in price_table().items():
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}"
                           for key, row in rows.items())
        blocks.append(f"{json.dumps(block)}: {{\n{lines}\n}}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}")
