"""Unit tests for the three sampling strategies (Section 6)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, make_sampler
from repro.cluster.sampling import SAMPLER_NAMES
from repro.errors import PlanError

from support import make_dataset


@pytest.fixture
def multi_ds(spec):
    return make_dataset(n_phys=1000, d=10, sim_n=100_000, spec=spec,
                        block_bytes=64 * 1024)


@pytest.fixture
def engine(spec):
    return SimulatedCluster(spec, seed=0)


class TestSamplerFactory:
    def test_known_names(self, engine, multi_ds):
        for name in SAMPLER_NAMES:
            sampler = make_sampler(name, engine, multi_ds, 10)
            assert sampler.name == name

    def test_unknown_name(self, engine, multi_ds):
        with pytest.raises(PlanError):
            make_sampler("reservoir", engine, multi_ds, 10)

    def test_zero_batch_rejected(self, engine, multi_ds):
        with pytest.raises(PlanError):
            make_sampler("bernoulli", engine, multi_ds, 0)


class TestBernoulli:
    def test_scans_whole_dataset(self, engine, multi_ds):
        sampler = make_sampler("bernoulli", engine, multi_ds, 100)
        before = engine.clock
        draw = sampler.draw()
        assert engine.clock > before
        # Full scan => every partition touched.
        assert len(draw.partitions) == multi_ds.n_partitions
        assert engine.metrics.phase("sample").rows_processed >= \
            multi_ds.stats.n

    def test_sample_size_poisson_around_batch(self, engine, multi_ds):
        sampler = make_sampler("bernoulli", engine, multi_ds, 400)
        sizes = [sampler.draw().sim_size for _ in range(30)]
        assert 300 < np.mean(sizes) < 500

    def test_indices_within_bounds(self, engine, multi_ds):
        sampler = make_sampler("bernoulli", engine, multi_ds, 50)
        draw = sampler.draw()
        assert draw.indices.min() >= 0
        assert draw.indices.max() < multi_ds.n_phys

    def test_sgd_sized_sample_never_empty(self, engine, multi_ds):
        sampler = make_sampler("bernoulli", engine, multi_ds, 1)
        for _ in range(20):
            draw = sampler.draw()
            assert draw.sim_size >= 1
            assert len(draw.indices) >= 1


class TestRandomPartition:
    def test_touches_one_partition(self, engine, multi_ds):
        sampler = make_sampler("random", engine, multi_ds, 10)
        draw = sampler.draw()
        assert len(draw.partitions) == 1

    def test_indices_inside_chosen_partition(self, engine, multi_ds):
        sampler = make_sampler("random", engine, multi_ds, 10)
        for _ in range(10):
            draw = sampler.draw()
            part = multi_ds.partitions[draw.partitions[0]]
            assert np.all(draw.indices >= part.phys_lo)
            assert np.all(draw.indices < part.phys_hi)

    def test_charges_per_row_seeks(self, engine, multi_ds):
        sampler = make_sampler("random", engine, multi_ds, 100)
        sampler.draw()
        assert engine.metrics.phase("sample").seeks >= 100

    def test_cheaper_than_bernoulli_on_large_data(self, spec, multi_ds):
        e1 = SimulatedCluster(spec, seed=0)
        e2 = SimulatedCluster(spec, seed=0)
        make_sampler("bernoulli", e1, multi_ds, 10).draw()
        make_sampler("random", e2, multi_ds, 10).draw()
        assert e2.clock < e1.clock

    def test_covers_partitions_over_time(self, engine, multi_ds):
        sampler = make_sampler("random", engine, multi_ds, 5)
        seen = {sampler.draw().partitions[0] for _ in range(100)}
        assert len(seen) > multi_ds.n_partitions / 3


class TestShuffledPartition:
    def test_first_draw_pays_shuffle(self, spec, multi_ds):
        e1 = SimulatedCluster(spec, seed=0)
        sampler = make_sampler("shuffle", e1, multi_ds, 10)
        t_first_before = e1.clock
        sampler.draw()
        first_cost = e1.clock - t_first_before
        t2 = e1.clock
        sampler.draw()
        second_cost = e1.clock - t2
        assert second_cost < first_cost

    def test_sequential_draws_stay_in_partition(self, engine, multi_ds):
        sampler = make_sampler("shuffle", engine, multi_ds, 10)
        first = sampler.draw()
        second = sampler.draw()
        assert first.partitions == second.partitions

    def test_exhaustion_triggers_new_partition_shuffle(self, engine, multi_ds):
        part_rows = multi_ds.partitions[0].sim_rows
        batch = max(1, part_rows // 3)
        sampler = make_sampler("shuffle", engine, multi_ds, batch)
        pids = [sampler.draw().partitions[0] for _ in range(20)]
        # Eventually the cursor exhausts a partition and a new one is
        # picked (with 20 draws of 1/3-partition batches it must).
        assert len(set(pids)) > 1

    def test_no_repeats_until_wraparound(self, engine, spec):
        # Un-replicated dataset: physical rows == simulated rows, so the
        # permutation cursor must not repeat rows across draws.
        ds = make_dataset(n_phys=500, d=5, spec=spec)
        sampler = make_sampler("shuffle", engine, ds, 10)
        draw1 = sampler.draw()
        draw2 = sampler.draw()
        overlap = set(draw1.indices) & set(draw2.indices)
        assert not overlap

    def test_cheapest_per_draw_of_all(self, spec, multi_ds):
        costs = {}
        for name in SAMPLER_NAMES:
            engine = SimulatedCluster(spec, seed=0)
            sampler = make_sampler(name, engine, multi_ds, 100)
            sampler.draw()  # warmup (shuffle pays its prep here)
            before = engine.clock
            for _ in range(10):
                sampler.draw()
            costs[name] = engine.clock - before
        # The steady-state cursor read is the cheapest mechanism of the
        # three; Bernoulli-vs-random ordering depends on cache residency
        # (Section 8.6 observes Bernoulli winning on small datasets).
        assert costs["shuffle"] < costs["random"]
        assert costs["shuffle"] < costs["bernoulli"]

    def test_bernoulli_worst_on_large_uncached_data(self, spec):
        # A dataset far larger than the cache: every Bernoulli draw
        # re-reads everything from disk, random touches one partition.
        small_cache = spec.with_overrides(cache_bytes=1024 ** 2)
        ds = make_dataset(n_phys=1000, d=10, sim_n=10_000_000,
                          spec=small_cache)
        costs = {}
        for name in SAMPLER_NAMES:
            engine = SimulatedCluster(small_cache, seed=0)
            sampler = make_sampler(name, engine, ds, 100)
            sampler.draw()
            before = engine.clock
            for _ in range(5):
                sampler.draw()
            costs[name] = engine.clock - before
        assert costs["bernoulli"] > costs["random"]
        assert costs["bernoulli"] > costs["shuffle"]


class TestShuffleState:
    """A shuffle sampler's state stores the generator state its
    permutation was drawn from; a restore re-derives the permutation."""

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 400),
           draws=st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_a_restore_rederives_the_permutation(self, seed, batch, draws):
        spec = ClusterSpec(jitter_sigma=0.0)
        ds = make_dataset(n_phys=1000, d=10, sim_n=100_000, spec=spec,
                          block_bytes=64 * 1024)
        engine = SimulatedCluster(spec, seed=0)
        sampler = make_sampler("shuffle", engine, ds, batch,
                               rng=np.random.default_rng(seed))
        for _ in range(draws):
            sampler.draw()
        state = json.loads(json.dumps(sampler.state_dict()))
        assert "phys_order" not in state
        restored = make_sampler("shuffle", engine, ds, batch,
                                rng=np.random.default_rng(seed + 1))
        restored.load_state(state)
        if draws == 0:
            assert state == {} and restored._phys_order is None
            return
        assert restored._phys_order.dtype == sampler._phys_order.dtype
        assert np.array_equal(restored._phys_order, sampler._phys_order)
        assert restored.state_dict() == state
        # The restore leaves the shared stream alone.
        assert restored.rng.bit_generator.state == \
            np.random.default_rng(seed + 1).bit_generator.state

    def test_an_older_payload_with_the_order_itself_still_loads(
        self, engine, multi_ds
    ):
        sampler = make_sampler("shuffle", engine, multi_ds, 10)
        sampler.draw()
        older = dict(sampler.state_dict())
        del older["order_rng"]
        older["phys_order"] = sampler._phys_order.tolist()
        restored = make_sampler("shuffle", engine, multi_ds, 10)
        restored.load_state(older)
        assert np.array_equal(restored._phys_order, sampler._phys_order)
        # With no generator state to stand for it, the order is stored
        # whole again -- until the next partition is shuffled.
        assert restored.state_dict() == older
        assert [restored.draw().indices.tolist() for _ in range(3)] == \
            [sampler.draw().indices.tolist() for _ in range(3)]


class TestPhysicalScaling:
    def test_physical_batch_capped_by_phys_rows(self, spec):
        ds = make_dataset(n_phys=50, d=5, sim_n=50_000, spec=spec)
        engine = SimulatedCluster(spec, seed=0)
        sampler = make_sampler("bernoulli", engine, ds, 1000)
        draw = sampler.draw()
        assert draw.sim_size > 500       # simulated batch at paper scale
        assert len(draw.indices) <= 50   # physical rows available
