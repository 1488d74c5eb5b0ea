"""Unit tests for the simulated cluster engine."""

import copy

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster

from support import make_dataset


@pytest.fixture
def ds(spec):
    return make_dataset(n_phys=200, d=10, spec=spec)


class TestClock:
    def test_charge_advances_clock(self, engine):
        engine.charge(1.5, "compute")
        assert engine.clock == pytest.approx(1.5)

    def test_charge_negative_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.charge(-1, "compute")

    def test_charge_records_phase(self, engine):
        engine.charge(0.5, "compute")
        engine.charge(0.25, "sample")
        assert engine.metrics.phase("compute").sim_seconds == pytest.approx(0.5)
        assert engine.metrics.phase("sample").sim_seconds == pytest.approx(0.25)

    def test_reset(self, engine, ds):
        engine.charge(1.0, "compute")
        engine.cache.insert(ds)
        engine.reset()
        assert engine.clock == 0.0
        assert engine.metrics.total_seconds == 0.0
        assert engine.cache.used_bytes == 0

    def test_jitter_disabled_is_deterministic(self, spec):
        a = SimulatedCluster(spec, seed=1)
        b = SimulatedCluster(spec, seed=2)
        a.charge(1.0, "x")
        b.charge(1.0, "x")
        assert a.clock == b.clock == 1.0

    def test_jitter_enabled_perturbs(self):
        spec = ClusterSpec(jitter_sigma=0.2)
        engine = SimulatedCluster(spec, seed=3)
        engine.charge(1.0, "x")
        assert engine.clock != 1.0
        assert 0.3 < engine.clock < 3.0


class TestScan:
    def test_scan_charges_time(self, engine, ds):
        seconds = engine.scan(ds, phase="compute")
        assert seconds > 0
        assert engine.clock == pytest.approx(seconds, rel=0.01)

    def test_scan_cpu_scales_with_rows(self, spec):
        engine = SimulatedCluster(spec, seed=0)
        small = make_dataset(n_phys=100, d=10, spec=spec)
        big = make_dataset(n_phys=100, d=10, sim_n=100_000, spec=spec)
        t_small = engine.scan(small, "compute", cpu_per_row_s=1e-6)
        t_big = engine.scan(big, "compute", cpu_per_row_s=1e-6)
        assert t_big > t_small * 10

    def test_second_scan_cheaper_due_to_cache(self, engine, ds):
        first = engine.scan(ds, phase="compute")
        second = engine.scan(ds, phase="compute")
        assert second < first

    def test_scan_without_cache_stays_on_disk(self, engine, ds):
        engine.scan(ds, phase="compute", cache=False)
        assert engine.cache.cached_fraction(ds) == 0.0

    def test_distributed_scan_launches_job(self, spec):
        engine = SimulatedCluster(spec, seed=0)
        ds = make_dataset(n_phys=500, d=10, sim_n=500_000, spec=spec,
                          block_bytes=64 * 1024)
        assert ds.n_partitions > 1
        engine.scan(ds, phase="compute")
        assert engine.metrics.phase("compute").jobs == 1

    def test_local_scan_no_job(self, engine, ds):
        assert ds.n_partitions == 1
        engine.scan(ds, phase="compute")
        assert engine.metrics.phase("compute").jobs == 0

    def test_wave_parallelism_bounds_time(self, spec):
        # cap partitions in one wave should cost ~one partition's time.
        engine = SimulatedCluster(spec, seed=0)
        ds = make_dataset(n_phys=spec.cap * 8, d=10, sim_n=640_000,
                          spec=spec, block_bytes=32 * 1024)
        p = ds.n_partitions
        t = engine.scan(ds, phase="compute", cache=False)
        per_partition = spec.sequential_read_s(
            ds.partitions[0].sim_bytes, in_memory=False
        )
        waves = -(-p // spec.cap)
        assert t == pytest.approx(waves * per_partition, rel=0.3)

    def test_partition_subset_scan(self, spec):
        engine = SimulatedCluster(spec, seed=0)
        ds = make_dataset(n_phys=500, d=10, sim_n=500_000, spec=spec,
                          block_bytes=64 * 1024)
        t_one = engine.scan(ds, phase="x", partitions=[0], cache=False)
        engine2 = SimulatedCluster(spec, seed=0)
        t_all = engine2.scan(ds, phase="x", cache=False)
        assert t_one < t_all


class TestOtherPrimitives:
    def test_sequential_read_fractional_pages(self, engine, ds):
        t = engine.sequential_read(ds, nbytes=100, phase="sample")
        # far less than a full page's disk read plus seek
        assert t < engine.spec.seek_disk_s + engine.spec.page_io_disk_s

    def test_sequential_read_new_segment_seeks(self, engine, ds):
        t_cont = engine.sequential_read(ds, 1000, "sample")
        t_seek = engine.sequential_read(ds, 1000, "sample", new_segment=True)
        assert t_seek > t_cont

    def test_random_access_costs_per_seek(self, engine, ds):
        t1 = engine.random_access(ds, n_accesses=1, bytes_each=100,
                                  phase="sample")
        t100 = engine.random_access(ds, n_accesses=100, bytes_each=100,
                                    phase="sample")
        assert t100 == pytest.approx(100 * t1, rel=0.05)

    def test_random_access_cheaper_in_memory(self, engine, ds):
        t_disk = engine.random_access(ds, 10, 100, "sample")
        engine.cache.insert(ds)
        t_mem = engine.random_access(ds, 10, 100, "sample")
        assert t_mem < t_disk

    def test_shuffle_partition(self, engine, ds):
        t = engine.shuffle_partition(ds, 0, phase="sample")
        assert t > 0
        assert engine.metrics.phase("sample").rows_processed == \
            ds.partitions[0].sim_rows

    def test_aggregate_records_network(self, engine):
        engine.aggregate(16, 800, phase="update")
        m = engine.metrics.phase("update")
        assert m.network_bytes == 16 * 800
        assert m.packets >= 1

    def test_tree_aggregate_more_expensive_for_many_partials(self, spec):
        a = SimulatedCluster(spec, seed=0)
        b = SimulatedCluster(spec, seed=0)
        t_flat = a.aggregate(64, 8000, phase="update", tree=False)
        t_tree = b.aggregate(64, 8000, phase="update", tree=True)
        # treeAggregate adds per-level barriers (job overheads).
        assert t_tree > t_flat

    def test_collect(self, engine):
        t = engine.collect(1_000_000, "sample")
        assert t > 0
        assert engine.metrics.phase("sample").network_bytes == 1_000_000

    def test_broadcast(self, engine):
        t = engine.broadcast_weights(800, "update")
        assert t > 0

    def test_job_overhead(self, engine, spec):
        engine.job("compute")
        assert engine.clock == pytest.approx(spec.job_overhead_s)
        assert engine.metrics.phase("compute").jobs == 1

    def test_write_dataset(self, engine, ds):
        t = engine.write_dataset(ds, "conversion")
        assert t > 0
        assert engine.metrics.phase("conversion").pages_disk > 0

    def test_metrics_summary_renders(self, engine, ds):
        engine.scan(ds, "compute")
        text = engine.metrics.summary()
        assert "compute" in text
        assert "TOTAL" in text


class TestJitterStream:
    """Every jittered charge multiplies by the next value of one
    stream: ``np.exp(rng.normal(0, sigma))`` drawn from the engine's
    generator, in charge order, one value per scalar charge and one per
    partition of a scan, whatever ``jitter_sigma`` is at the time (a
    zero sigma draws nothing)."""

    SEED = 11

    def _ops(self, spec):
        """A seeded mix of scalar charges, local and distributed scans
        and sigma changes."""
        local = make_dataset(n_phys=200, d=10, spec=spec)
        # Five equal partitions in one wave: the scan charges a job
        # overhead, then one partition's time times the largest of its
        # five factors.
        wide = make_dataset(n_phys=400, d=10, sim_n=60_000, spec=spec,
                            block_bytes=1024 * 1024)
        assert wide.n_partitions == 5 <= spec.cap
        assert len({(p.sim_rows, p.sim_bytes)
                    for p in wide.partitions}) == 1
        picks = np.random.default_rng(5).integers(0, 10, size=1500)
        sigmas = iter([0.2, 0.0, 0.05, 0.3] * 10)
        ops = []
        for index, pick in enumerate(picks):
            if index % 250 == 249:
                ops.append(("sigma", next(sigmas)))
            elif pick == 0:
                ops.append(("scan", wide))
            elif pick == 1:
                ops.append(("scan", local))
            else:
                ops.append(("charge", 0.25 * (1 + pick)))
        return ops

    @staticmethod
    def _apply(engine, op):
        kind, arg = op
        if kind == "sigma":
            engine.spec = engine.spec.with_overrides(jitter_sigma=arg)
        elif kind == "charge":
            engine.charge(arg, "x")
        else:
            engine.scan(arg, "compute", cache=False)

    @staticmethod
    def _recording(engine):
        """Record every duration ``engine`` charges to its clock."""
        charged = []
        charge = engine.charge

        def recorder(seconds, phase, jitter=True):
            charged.append(charge(seconds, phase, jitter))
            return charged[-1]
        engine.charge = recorder
        return charged

    def test_charges_and_scans_read_one_stream_across_sigma_changes(self):
        spec = ClusterSpec(jitter_sigma=0.1)
        engine = SimulatedCluster(spec, seed=self.SEED)
        twin = SimulatedCluster(spec.with_overrides(jitter_sigma=0.0))
        charged, unjittered = self._recording(engine), self._recording(twin)
        rng = np.random.default_rng(self.SEED)

        def factor():
            sigma = engine.spec.jitter_sigma
            return float(np.exp(rng.normal(0.0, sigma))) if sigma > 0 \
                else 1.0

        for op in self._ops(spec):
            self._apply(engine, op)
            if op[0] == "sigma":
                continue
            self._apply(twin, op)
            if op[0] == "charge":
                expected = [op[1] * factor()]
            else:
                overhead, base = unjittered[-2:]
                first = overhead * factor()
                expected = [first, base * max(
                    factor() for _ in range(op[1].n_partitions))]
            assert charged[-len(expected):] == expected, op
        assert len(charged) == len(unjittered)

    def test_a_copy_taken_mid_stream_continues_identically(self):
        engine = SimulatedCluster(ClusterSpec(jitter_sigma=0.1),
                                  seed=self.SEED)
        ops = self._ops(engine.spec)
        for op in ops[:37]:
            self._apply(engine, op)
        clone = copy.deepcopy(engine)
        for op in ops[37:]:
            self._apply(engine, op)
            self._apply(clone, op)
            assert clone.clock == engine.clock, op
        assert clone.metrics.snapshot() == engine.metrics.snapshot()
