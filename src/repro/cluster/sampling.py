"""Sampling strategies for stochastic GD plans (Section 6, Figure 4).

The paper's optimizer considers three physical implementations of the
``Sample`` operator:

* **Bernoulli** -- scan *every* partition, include each data unit with
  probability m/n (what MLlib does).  Cheap per row but reads the whole
  dataset every iteration.
* **Random-partition** -- pick one partition at random, then fetch m data
  units at random positions inside it.  Skips most of the data but pays a
  random access (seek) per sampled unit.
* **Shuffled-partition** -- permute one randomly-picked partition *once*,
  then serve samples sequentially from the permuted order, re-shuffling a
  fresh partition only when the current one is exhausted.  Near-sequential
  cost per iteration, at the price of partition-local (possibly biased)
  samples.

Each strategy both charges the :class:`~repro.cluster.engine.SimulatedCluster`
for the IO it would perform *and* returns physical row indices for the real
math.  The returned ``sim_size`` is the number of simulated data units the
sample stands for (used for CPU cost accounting by the caller).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import PlanError

#: Registry of sampler names used by plans and the declarative language.
SAMPLER_NAMES = ("bernoulli", "random", "shuffle")


@dataclasses.dataclass
class SampleDraw:
    """Result of one sampling call."""

    #: Physical row indices to run the math on.
    indices: np.ndarray
    #: Number of *simulated* data units this sample stands for.
    sim_size: int
    #: Partitions touched (for diagnostics).
    partitions: tuple = ()


def make_sampler(name, engine, dataset, batch_size, rng=None):
    """Instantiate a sampler by registry name."""
    rng = rng if rng is not None else engine.rng
    for cls in (BernoulliSampler, RandomPartitionSampler,
                ShuffledPartitionSampler):
        if cls.name == name:
            return cls(engine, dataset, batch_size, rng)
    raise PlanError(
        f"unknown sampler {name!r}; expected one of {SAMPLER_NAMES}"
    )


class _SamplerBase:
    """Common state shared by all sampling strategies."""

    name = "base"

    def __init__(self, engine, dataset, batch_size, rng):
        if batch_size < 1:
            raise PlanError("sample batch size must be >= 1")
        self.engine = engine
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.rng = rng

    # Helpers -----------------------------------------------------------
    def _physical_size(self, sim_size):
        """Physical rows standing in for ``sim_size`` simulated units.

        The statistical quantity that drives convergence is the
        *absolute* batch size (gradient noise scales with 1/sqrt(b)), so
        the physical batch matches the simulated one, capped by the
        physical rows available.
        """
        return max(1, min(int(sim_size), self.dataset.n_phys))

    def _physical_batch(self, lo, hi, size):
        """Draw ``size`` physical rows from [lo, hi).

        Draws without replacement when possible; tops up with replacement
        when the physical slice is smaller than the requested batch (the
        physical data is a scaled-down stand-in for the simulated rows).
        """
        span = hi - lo
        if span <= 0:
            raise PlanError("partition has no physical rows")
        if size <= span:
            return lo + self.rng.choice(span, size=size, replace=False)
        base = lo + self.rng.permutation(span)
        extra = lo + self.rng.integers(0, span, size=size - span)
        return np.concatenate([base, extra])

    def draw(self) -> SampleDraw:  # pragma: no cover - interface
        raise NotImplementedError

    # -- carry-over hooks ------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-ready snapshot of sampler-internal cursors ({} if none).

        The RNG stream is *not* part of it -- the executor snapshots the
        shared RNG once for the whole run (samplers draw from it).
        """
        return {}

    def load_state(self, payload) -> None:
        """Restore cursors captured by :meth:`state_dict`."""


class BernoulliSampler(_SamplerBase):
    """Full-scan Bernoulli sampling (the MLlib mechanism).

    The inclusion test is charged for every simulated row.  The realised
    sample size is Poisson-distributed around the requested batch size --
    including the possibility of an *empty* sample, in which case the scan
    is repeated (the paper discusses MLlib's mitigation of exactly this).
    """

    name = "bernoulli"

    def draw(self) -> SampleDraw:
        engine, ds = self.engine, self.dataset
        spec = engine.spec
        attempts = 0
        size = 0
        while size == 0:
            engine.scan(ds, phase="sample", cpu_per_row_s=spec.sample_test_s)
            size = int(self.rng.poisson(self.batch_size))
            attempts += 1
            if attempts >= 8 and size == 0:
                # Pathological only for batch sizes << 1; give up gracefully.
                size = 1
        phys = min(self._physical_size(size), ds.n_phys)
        indices = self._physical_batch(0, ds.n_phys, phys)
        return SampleDraw(indices, sim_size=size,
                          partitions=tuple(range(ds.n_partitions)))


class RandomPartitionSampler(_SamplerBase):
    """Random partition, then random data units inside it."""

    name = "random"

    def draw(self) -> SampleDraw:
        engine, ds = self.engine, self.dataset
        pid = int(self.rng.integers(0, ds.n_partitions))
        part = ds.partitions[pid]
        size = min(self.batch_size, part.sim_rows)
        row_bytes = ds.stats.bytes_per_row(ds.representation)
        engine.random_access(
            ds, n_accesses=size, bytes_each=int(np.ceil(row_bytes)), phase="sample"
        )
        indices = self._physical_batch(
            part.phys_lo, part.phys_hi, self._physical_size(size)
        )
        return SampleDraw(indices, sim_size=size, partitions=(pid,))


class ShuffledPartitionSampler(_SamplerBase):
    """Shuffle one partition once; then serve samples sequentially.

    Maintains a cursor over the current partition's simulated rows and a
    permutation of its physical rows.  When fewer simulated rows remain
    than the batch requires, a new random partition is shuffled (paper:
    "Whenever there are not enough data units left in the partition to
    sample, it randomly selects a second partition and shuffles it").

    The permutation is not part of :meth:`state_dict`: the generator
    state it was drawn from (``order_rng``, ~150 bytes against 8 per
    physical row) re-derives it.
    """

    name = "shuffle"

    def __init__(self, engine, dataset, batch_size, rng):
        super().__init__(engine, dataset, batch_size, rng)
        self._pid = None
        self._sim_cursor = 0
        self._order_rng = None
        self._phys_order = None
        self._phys_cursor = 0

    def _load_new_partition(self):
        ds = self.dataset
        self._pid = int(self.rng.integers(0, ds.n_partitions))
        self.engine.shuffle_partition(ds, self._pid, phase="sample")
        self._sim_cursor = 0
        self._order_rng = self.rng.bit_generator.state
        self._phys_order = self._permutation(self.rng)
        self._phys_cursor = 0

    def _permutation(self, rng):
        part = self.dataset.partitions[self._pid]
        return part.phys_lo + rng.permutation(part.phys_rows)

    def _next_physical(self, size):
        """Next ``size`` physical rows from the permuted order (wrapping;
        a view of the order, not to be written, when it does not wrap)."""
        rows, start = len(self._phys_order), self._phys_cursor
        self._phys_cursor = (start + size) % rows
        if start + size <= rows:
            return self._phys_order[start:start + size]
        return self._phys_order[(start + np.arange(size)) % rows]

    def draw(self) -> SampleDraw:
        ds = self.dataset
        new_segment = False
        if self._pid is None:
            self._load_new_partition()
            new_segment = True
        part = ds.partitions[self._pid]
        if self._sim_cursor + self.batch_size > part.sim_rows:
            self._load_new_partition()
            part = ds.partitions[self._pid]
            new_segment = True
        size = min(self.batch_size, part.sim_rows)
        row_bytes = ds.stats.bytes_per_row(ds.representation)
        self.engine.sequential_read(
            ds, nbytes=size * row_bytes, phase="sample", new_segment=new_segment
        )
        self._sim_cursor += size
        indices = self._next_physical(self._physical_size(size))
        return SampleDraw(indices, sim_size=size, partitions=(self._pid,))

    def state_dict(self):
        if self._pid is None:
            return {}
        payload = {"pid": int(self._pid),
                   "sim_cursor": int(self._sim_cursor)}
        if self._order_rng is not None:
            payload["order_rng"] = self._order_rng
        else:  # restored from an older payload: no state stands for it
            payload["phys_order"] = [int(v) for v in self._phys_order]
        payload["phys_cursor"] = int(self._phys_cursor)
        return payload

    def load_state(self, payload):
        if not payload or "pid" not in payload:
            return
        self._pid = int(payload["pid"])
        self._sim_cursor = int(payload["sim_cursor"])
        self._order_rng = payload.get("order_rng")
        if self._order_rng is None:
            self._phys_order = np.asarray(payload["phys_order"],
                                          dtype=np.int64)
        else:
            rng = np.random.Generator(type(self.rng.bit_generator)(0))
            rng.bit_generator.state = self._order_rng
            self._phys_order = self._permutation(rng)
        self._phys_cursor = int(payload["phys_cursor"])


class FullScanSampler(_SamplerBase):
    """Degenerate "sampler" returning the whole dataset (BGD plans).

    Exists so the executor can treat BGD uniformly; it charges nothing
    itself because the Compute scan already pays for reading the data.
    """

    name = "full"

    def draw(self) -> SampleDraw:
        ds = self.dataset
        return SampleDraw(
            np.arange(ds.n_phys),
            sim_size=ds.stats.n,
            partitions=tuple(range(ds.n_partitions)),
        )
