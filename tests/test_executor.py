"""Integration tests for the plan executor on the simulated cluster."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.core.executor import execute_plan
from repro.core.plans import GDPlan, TrainingSpec
from repro.errors import PlanError

from support import make_dataset


@pytest.fixture
def dataset(spec):
    return make_dataset(
        n_phys=800, d=8, task="linreg", spec=spec, seed=4, noise=0.01,
    )


@pytest.fixture
def training():
    return TrainingSpec(task="linreg", step_size="constant:0.1",
                        tolerance=1e-5, max_iter=2000, seed=1)


class TestExecution:
    def test_bgd_converges_with_real_math(self, engine, dataset, training):
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert result.converged
        # Weights actually solve the regression problem.
        pred = dataset.X @ result.weights
        mse = float(np.mean((pred - dataset.y) ** 2))
        assert mse < 0.01

    def test_simulated_time_positive_and_matches_clock(self, engine,
                                                       dataset, training):
        t0 = engine.clock
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert result.sim_seconds == pytest.approx(engine.clock - t0)

    def test_deltas_recorded_per_iteration(self, engine, dataset, training):
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert len(result.deltas) == result.iterations

    def test_phase_seconds_cover_plan_phases(self, engine, dataset, training):
        result = execute_plan(
            engine, dataset, GDPlan("sgd", "lazy", "shuffle"), training
        )
        assert "sample" in result.phase_seconds
        assert "compute" in result.phase_seconds
        assert "transform" in result.phase_seconds  # lazy per-iteration
        assert "loop" in result.phase_seconds

    def test_eager_charges_transform_once(self, engine, dataset, training):
        result = execute_plan(
            engine, dataset, GDPlan("mgd", "eager", "shuffle", 50), training
        )
        assert result.phase_seconds.get("transform", 0) > 0

    def test_max_iter_cap(self, engine, dataset):
        training = TrainingSpec(task="linreg", tolerance=1e-15, max_iter=7,
                                seed=1)
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert result.iterations == 7
        assert not result.converged

    def test_time_budget_stops_run(self, engine, dataset):
        training = TrainingSpec(task="linreg", tolerance=1e-15, max_iter=5000,
                                time_budget_s=0.5, seed=1)
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert result.timed_out
        assert result.iterations < 5000

    def test_all_eleven_plans_execute(self, engine, dataset, training):
        from repro.core.plan_space import enumerate_plans

        for plan in enumerate_plans(batch_sizes={"mgd": 50}):
            engine.reset()
            result = execute_plan(engine, dataset, plan, training)
            assert result.iterations >= 1
            assert result.sim_seconds > 0

    def test_lazy_bgd_rejected(self, engine, dataset, training):
        plan = GDPlan("sgd", "lazy", "shuffle")
        object.__setattr__(plan, "algorithm", "bgd")  # corrupt a plan
        with pytest.raises(PlanError):
            execute_plan(engine, dataset, plan, training)

    def test_same_seed_same_result(self, spec, dataset, training):
        r1 = execute_plan(SimulatedCluster(spec, seed=2), dataset,
                          GDPlan("sgd", "eager", "random"), training)
        r2 = execute_plan(SimulatedCluster(spec, seed=2), dataset,
                          GDPlan("sgd", "eager", "random"), training)
        np.testing.assert_array_equal(r1.weights, r2.weights)
        assert r1.iterations == r2.iterations

    def test_distributed_bgd_aggregates_over_network(self, spec, training):
        ds = make_dataset(n_phys=1000, d=8, sim_n=1_000_000, spec=spec,
                          task="linreg", noise=0.01, seed=4,
                          block_bytes=4 * 1024 * 1024)
        assert ds.n_partitions > 1
        engine = SimulatedCluster(spec, seed=0)
        result = execute_plan(engine, ds, GDPlan("bgd"), training)
        assert result.metrics["update"]["network_bytes"] > 0

    def test_local_bgd_no_network(self, engine, dataset, training):
        assert dataset.n_partitions == 1
        result = execute_plan(engine, dataset, GDPlan("bgd"), training)
        assert result.metrics.get("update", {}).get("network_bytes", 0) == 0

    def test_mix_plan_ships_weights_not_batches(self, spec, training):
        """Data-local compute: network per iteration ~ 2 weight vectors,
        far below the sampled batch's bytes."""
        ds = make_dataset(n_phys=1000, d=8, sim_n=1_000_000, spec=spec,
                          task="linreg", noise=0.01, seed=4,
                          block_bytes=4 * 1024 * 1024)
        engine = SimulatedCluster(spec, seed=0)
        training_short = TrainingSpec(task="linreg", tolerance=1e-15,
                                      max_iter=20, seed=1)
        result = execute_plan(
            engine, ds, GDPlan("mgd", "eager", "shuffle", 500),
            training_short,
        )
        update_bytes = result.metrics["update"]["network_bytes"]
        batch_bytes = 500 * ds.stats.bytes_per_row("binary")
        assert update_bytes <= 20 * 3 * ds.stats.weight_vector_bytes
        assert update_bytes < batch_bytes * 20


class TestSVRGPlan:
    def test_svrg_via_executor(self, engine, dataset):
        training = TrainingSpec(task="linreg", tolerance=1e-5,
                                max_iter=600, seed=1)
        plan = GDPlan("svrg", "eager", "shuffle")
        result = execute_plan(engine, dataset, plan, training)
        assert result.iterations >= 1
        # Anchor iterations perform full scans: compute phase must have
        # processed more rows than iterations alone would (spot check).
        assert result.metrics["compute"]["rows_processed"] > \
            result.iterations

    def test_svrg_reaches_low_loss(self, engine, dataset):
        from repro.gd.gradients import LinearRegressionGradient

        training = TrainingSpec(task="linreg", tolerance=1e-6,
                                max_iter=800, seed=1)
        result = execute_plan(
            engine, dataset, GDPlan("svrg", "eager", "shuffle"), training
        )
        g = LinearRegressionGradient()
        assert g.loss(result.weights, dataset.X, dataset.y) < \
            g.loss(np.zeros(8), dataset.X, dataset.y) / 5


def _digest(value) -> str:
    return hashlib.sha256(value).hexdigest()[:16]


def _pins(result) -> dict:
    """What a run charged and learned, to the bit."""
    return {
        "iterations": result.iterations,
        "sim_seconds": result.sim_seconds.hex(),
        "phase_seconds": {phase: seconds.hex() for phase, seconds
                          in sorted(result.phase_seconds.items())},
        "metrics": _digest(json.dumps(result.metrics,
                                      sort_keys=True).encode()),
        "weights": _digest(result.weights.tobytes()),
    }


def _pinned_runs() -> dict:
    """Each executor path on the default (jittered) cluster: a CSR SGD
    lazy-shuffle plan, then dense multi-partition SGD, MGD, BGD and
    SVRG plans, then the CSR plan stopped at 60 and resumed."""
    spec = ClusterSpec()
    csr = make_dataset(n_phys=600, d=40, sim_n=60_000, spec=spec,
                       sparse=True, density=0.3, seed=3)
    dense = make_dataset(n_phys=800, d=8, sim_n=1_000_000, spec=spec,
                         task="linreg", noise=0.01, seed=4,
                         block_bytes=4 * 1024 * 1024)
    assert csr.n_partitions == 1 and dense.n_partitions > 1
    logreg = TrainingSpec(task="logreg", tolerance=1e-9, max_iter=300,
                          seed=1)
    linreg = TrainingSpec(task="linreg", tolerance=1e-9, max_iter=300,
                          seed=1)
    runs = {}
    for name, data, plan, training in (
        ("sgd_csr", csr, GDPlan("sgd", "lazy", "shuffle"), logreg),
        ("sgd_dense", dense, GDPlan("sgd", "lazy", "shuffle"), linreg),
        ("mgd_dense", dense, GDPlan("mgd", "eager", "random", 50), linreg),
        ("bgd_dense", dense, GDPlan("bgd"), linreg),
        ("svrg_dense", dense, GDPlan("svrg", "eager", "shuffle"), linreg),
    ):
        runs[name] = _pins(execute_plan(
            SimulatedCluster(spec, seed=5), data, plan, training))
    engine = SimulatedCluster(spec, seed=5)
    plan = GDPlan("sgd", "lazy", "shuffle")
    first = execute_plan(engine, csr, plan, dataclasses.replace(
        logreg, max_iter=60, tolerance=1e-12))
    runs["sgd_csr_resumed"] = _pins(execute_plan(
        engine, csr, plan, dataclasses.replace(logreg, max_iter=240),
        initial_weights=first.weights, initial_state=first.state))
    return runs


class TestJitteredRunsArePinned:
    """Simulated seconds, phase seconds, metrics and weights of jittered
    runs, to the bit: what the executor and the engine charge must not
    drift when their bookkeeping changes.  The values were recorded
    before the jitter stream was buffered and the executor's
    per-iteration constants hoisted."""

    PINNED = {
        "sgd_csr": {
            "iterations": 300,
            "sim_seconds": "0x1.82dc5dc274c6ep+2",
            "phase_seconds": {
                "compute": "0x1.ac6834c46afdfp-15",
                "converge": "0x1.78c6169a080ecp-11",
                "loop": "0x1.80e8d9b358edap+2",
                "sample": "0x1.dc826e4e88d87p-6",
                "stage": "0x1.01e2925b69804p-19",
                "transform": "0x1.0c99b85a61ce0p-11",
                "update": "0x1.f85f26b804876p-14",
            },
            "metrics": "5c0d215ac3f7cd7c",
            "weights": "2fdd4eeb4f522923",
        },
        "sgd_dense": {
            "iterations": 300,
            "sim_seconds": "0x1.b2f395e8e7c29p+3",
            "phase_seconds": {
                "compute": "0x1.490bc615d3521p-17",
                "converge": "0x1.47602b43da7c0p-11",
                "loop": "0x1.80ad222bebdecp+2",
                "sample": "0x1.e138f4998e43bp+2",
                "stage": "0x1.01e2925b69804p-19",
                "transform": "0x1.97514b06a8bbfp-14",
                "update": "0x1.fa88c49173fcap-5",
            },
            "metrics": "4cc70a5e872c3bb5",
            "weights": "f52eb20aa3b59063",
        },
        "mgd_dense": {
            "iterations": 300,
            "sim_seconds": "0x1.c3499deb1e187p+3",
            "phase_seconds": {
                "compute": "0x1.fecad79e1c797p-12",
                "converge": "0x1.46ea23e93edddp-11",
                "loop": "0x1.80b5f48ad56edp+2",
                "sample": "0x1.f4b0709de424fp+2",
                "stage": "0x1.01e2925b69804p-19",
                "transform": "0x1.a553e2b9969f9p-3",
                "update": "0x1.f7fe8611c8368p-5",
            },
            "metrics": "fd13078baa20587f",
            "weights": "60a1b94befceda70",
        },
        "bgd_dense": {
            "iterations": 22,
            "sim_seconds": "0x1.96285c92148d4p+0",
            "phase_seconds": {
                "compute": "0x1.de347d675ab5fp-1",
                "converge": "0x1.7d742bce3de77p-15",
                "loop": "0x1.c297eea4ffa3dp-2",
                "stage": "0x1.01e2925b69804p-19",
                "transform": "0x1.a553e2b9969f9p-3",
                "update": "0x1.ba8ab94a8d759p-8",
            },
            "metrics": "33dcfc182f17b6c9",
            "weights": "2aa02f3bce2b513a",
        },
        "svrg_dense": {
            "iterations": 300,
            "sim_seconds": "0x1.be67db77ed5afp+3",
            "phase_seconds": {
                "compute": "0x1.03381eb5b56d1p-2",
                "converge": "0x1.47ed2cf84b2e4p-11",
                "loop": "0x1.841d3a620076bp+2",
                "sample": "0x1.d74d0757bc222p+2",
                "stage": "0x1.01e2925b69804p-19",
                "transform": "0x1.a553e2b9969f9p-3",
                "update": "0x1.fe865e3cddd4ep-5",
            },
            "metrics": "63df884808a888f6",
            "weights": "53643cf871012d83",
        },
        "sgd_csr_resumed": {
            "iterations": 240,
            "sim_seconds": "0x1.35eeb34879d84p+2",
            "phase_seconds": {
                "compute": "0x1.578ef80e67e56p-15",
                "converge": "0x1.2edd1ee817952p-11",
                "loop": "0x1.35dad565607a5p+2",
                "sample": "0x1.6d8658e5cd600p-14",
                "stage": "0x1.03ae6d49344e4p-19",
                "transform": "0x1.acce0baa5f2a8p-12",
                "update": "0x1.9256ab1bc1d50p-14",
            },
            "metrics": "8d346890f2d0391c",
            "weights": "2fdd4eeb4f522923",
        },
    }

    @pytest.fixture(scope="class")
    def runs(self):
        return _pinned_runs()

    def test_runs_match_the_pinned_values(self, runs):
        assert runs == self.PINNED

    def test_a_resumed_run_learns_the_uninterrupted_weights(self, runs):
        assert runs["sgd_csr_resumed"]["weights"] == \
            runs["sgd_csr"]["weights"]
