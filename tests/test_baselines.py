"""Unit tests for the baseline systems."""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.baselines import (
    BismarckBaseline,
    MLlibBaseline,
    SystemMLBaseline,
    run_spark_direct,
)
from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core.plans import GDPlan, TrainingSpec

from support import make_dataset

GOLDEN = pathlib.Path(__file__).parent / "golden" / "baseline_cells.json"
SYSTEMS = (MLlibBaseline, SystemMLBaseline, BismarckBaseline)


@pytest.fixture
def dataset(spec):
    return make_dataset(n_phys=1000, d=10, sim_n=200_000, task="linreg",
                        spec=spec, noise=0.01, seed=2)


@pytest.fixture
def training():
    return TrainingSpec(task="linreg", step_size="constant:0.1",
                        tolerance=1e-4, max_iter=300, seed=1)


class TestMLlib:
    def test_runs_and_converges(self, spec, dataset, training):
        engine = SimulatedCluster(spec, seed=0)
        result = MLlibBaseline().train(engine, dataset, training, "bgd")
        assert result.ok
        assert result.converged
        assert result.sim_seconds > 0
        assert result.weights is not None

    def test_slower_than_ml4all_bgd(self, spec, dataset, training):
        from repro.core.executor import execute_plan

        e1 = SimulatedCluster(spec, seed=0)
        mllib = MLlibBaseline().train(e1, dataset, training, "bgd")
        e2 = SimulatedCluster(spec, seed=0)
        ml4all = execute_plan(e2, dataset, GDPlan("bgd"), training)
        # treeAggregate barriers + JVM cpu factor + Bernoulli make MLlib
        # strictly slower per iteration; iterations match (same math).
        assert mllib.sim_seconds / max(mllib.iterations, 1) > \
            ml4all.sim_seconds / max(ml4all.iterations, 1)

    def test_sgd_scans_everything_every_iteration(self, spec, dataset,
                                                  training):
        engine = SimulatedCluster(spec, seed=0)
        result = MLlibBaseline().train(engine, dataset, training, "sgd")
        rows = engine.metrics.phase("compute").rows_processed
        # Bernoulli sampling reads all simulated rows per iteration.
        assert rows >= dataset.stats.n * result.iterations * 0.9

    def test_lineage_recompute_when_cache_too_small(self, dataset, training):
        tiny = ClusterSpec(jitter_sigma=0.0, cache_bytes=1024 ** 2)
        big = ClusterSpec(jitter_sigma=0.0)
        t_tiny = MLlibBaseline().train(
            SimulatedCluster(tiny, seed=0), dataset, training, "bgd"
        )
        t_big = MLlibBaseline().train(
            SimulatedCluster(big, seed=0), dataset, training, "bgd"
        )
        assert t_tiny.sim_seconds > t_big.sim_seconds * 2

    def test_timeout_cell(self, spec, dataset, training):
        engine = SimulatedCluster(spec, seed=0)
        result = MLlibBaseline().train(
            engine, dataset, training, "bgd", time_limit_s=0.5
        )
        assert result.failed == "timeout"
        assert result.cell().startswith(">")


class TestSystemML:
    def test_conversion_charged_separately(self, spec, dataset, training):
        engine = SimulatedCluster(spec, seed=0)
        result = SystemMLBaseline().train(engine, dataset, training, "bgd")
        assert result.ok
        assert result.conversion_s > 0
        assert result.conversion_s < result.sim_seconds

    def test_oom_on_large_dense(self, spec, training):
        ds = make_dataset(n_phys=500, d=100, sim_n=50_000_000, spec=spec,
                          task="linreg", seed=1)
        assert ds.stats.binary_bytes > SystemMLBaseline.oom_dense_bytes
        engine = SimulatedCluster(spec, seed=0)
        result = SystemMLBaseline().train(engine, ds, training, "bgd")
        assert result.failed == "OOM"
        assert result.cell() == "OOM"

    def test_sparse_data_not_oomed(self, spec, training):
        ds = make_dataset(n_phys=500, d=1000, sim_n=50_000_000,
                          density=0.001, sparse=True, spec=spec,
                          task="logreg", seed=1)
        training = TrainingSpec(task="logreg", tolerance=1e-4, max_iter=5,
                                seed=1)
        engine = SimulatedCluster(spec, seed=0)
        result = SystemMLBaseline().train(engine, ds, training, "bgd")
        assert result.ok

    def test_local_mode_fast_for_small_data(self, spec, dataset, training):
        """Paper: SystemML beats everyone on small data (local mode)."""
        engine = SimulatedCluster(spec, seed=0)
        sysml = SystemMLBaseline().train(engine, dataset, training, "bgd")
        engine2 = SimulatedCluster(spec, seed=0)
        mllib = MLlibBaseline().train(engine2, dataset, training, "bgd")
        assert sysml.sim_seconds < mllib.sim_seconds


class TestBismarck:
    def test_runs_small_data(self, spec, dataset, training):
        engine = SimulatedCluster(spec, seed=0)
        result = BismarckBaseline().train(engine, dataset, training, "mgd",
                                          batch_size=100)
        assert result.ok

    def test_oom_high_dimensional_batch(self, spec, training):
        # batch units x d x 8 bytes > 2 GB driver memory.
        ds = make_dataset(n_phys=200, d=50_000, sim_n=200_000,
                          density=0.001, sparse=True, spec=spec,
                          task="logreg", seed=1)
        training = TrainingSpec(task="logreg", tolerance=1e-4, max_iter=5,
                                seed=1)
        engine = SimulatedCluster(spec, seed=0)
        result = BismarckBaseline().train(engine, ds, training, "mgd",
                                          batch_size=10_000)
        assert result.failed == "OOM"

    def test_oom_full_batch_large_n(self, spec, training):
        ds = make_dataset(n_phys=500, d=100, sim_n=5_000_000, spec=spec,
                          task="linreg", seed=1)
        engine = SimulatedCluster(spec, seed=0)
        result = BismarckBaseline().train(engine, ds, training, "bgd")
        assert result.failed == "OOM"

    def test_oom_happens_before_any_simulated_work(self, spec, training):
        ds = make_dataset(n_phys=500, d=100, sim_n=5_000_000, spec=spec,
                          task="linreg", seed=1)
        engine = SimulatedCluster(spec, seed=0)
        result = BismarckBaseline().train(engine, ds, training, "bgd")
        assert result.sim_seconds == 0.0


class TestSparkDirect:
    def test_matches_ml4all_within_dispatch_overhead(self, spec, dataset,
                                                     training):
        from repro.core.executor import execute_plan

        plan = GDPlan("mgd", "eager", "shuffle", 100)
        e1 = SimulatedCluster(spec, seed=0)
        spark = run_spark_direct(e1, dataset, plan, training)
        e2 = SimulatedCluster(spec, seed=0)
        ml4all = execute_plan(e2, dataset, plan, training)
        assert ml4all.iterations == spark.iterations
        overhead = (ml4all.sim_seconds - spark.sim_seconds) \
            / max(spark.sim_seconds, 1e-9)
        assert 0 <= overhead < 0.05

    def test_engine_spec_restored_after_run(self, spec, dataset, training):
        engine = SimulatedCluster(spec, seed=0)
        original = engine.spec
        run_spark_direct(engine, dataset, GDPlan("bgd"), training)
        assert engine.spec is original


def pinned_cells():
    """{system/algorithm[/limit]: cell} for the core algorithms on the
    fixture workload, with and without a simulated-time limit."""
    spec = ClusterSpec(jitter_sigma=0.0)
    dataset = make_dataset(n_phys=1000, d=10, sim_n=200_000, task="linreg",
                           spec=spec, noise=0.01, seed=2)
    training = TrainingSpec(task="linreg", step_size="constant:0.1",
                            tolerance=1e-4, max_iter=300, seed=1)
    cells = {}
    for system in SYSTEMS:
        for algorithm in ("bgd", "mgd", "sgd"):
            for limit in (None, 2.0):
                result = system().train(
                    SimulatedCluster(spec, seed=0), dataset, training,
                    algorithm, time_limit_s=limit,
                )
                name = f"{result.system}/{algorithm}"
                cells[name if limit is None else f"{name}/limit"] = {
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "failed": result.failed,
                    "sim_seconds": result.sim_seconds,
                    "weights_sha256": hashlib.sha256(
                        result.weights.tobytes()
                    ).hexdigest(),
                }
    return cells


class TestSharedLoop:
    """The baselines drive :func:`~repro.gd.base.run_loop`: the same
    math as ML4all, charged by each system's strategy."""

    def test_core_cells_match_the_pinned_results(self):
        golden = json.loads(GOLDEN.read_text())
        assert pinned_cells() == golden

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_svrg_runs_its_kernel_at_the_executor_step(
        self, spec, dataset, training, system
    ):
        from repro.gd.base import run_loop
        from repro.gd.svrg import SVRGUpdater

        baseline = system()
        charged = []
        charge = baseline.charge_iteration

        def record(engine, state, iteration, sim_batch):
            charged.append(sim_batch)
            charge(engine, state, iteration, sim_batch)

        baseline.charge_iteration = record
        result = baseline.train(SimulatedCluster(spec, seed=0), dataset,
                                training, "svrg")
        n = dataset.n_phys
        expected = run_loop(
            dataset.X, dataset.y, training.gradient(),
            lambda i, rng: rng.choice(n, size=1, replace=False),
            step_size=SVRGUpdater.constant_step,
            tolerance=training.tolerance, max_iter=training.max_iter,
            convergence=training.convergence, updater=SVRGUpdater(),
            rng=np.random.default_rng(training.seed),
        )
        assert result.iterations == expected.iterations
        assert np.array_equal(result.weights, expected.weights)
        # Anchor passes (every 50th iteration from the first) scan the
        # whole dataset; the iterations between them read one unit.
        full = dataset.stats.n
        assert charged == [full if i % 50 == 1 else 1
                           for i in range(1, result.iterations + 1)]


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(     # one cell per line
        f"{json.dumps(name)}: {json.dumps(cell, sort_keys=True)}"
        for name, cell in sorted(pinned_cells().items())
    ) + "\n}\n")
    print(f"wrote {GOLDEN}")
