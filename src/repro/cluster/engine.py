"""Wave-based execution engine for the simulated cluster.

:class:`SimulatedCluster` is the stand-in for the paper's Spark/HDFS
testbed.  Callers (the GD plan executor, the samplers, the baseline
systems) invoke storage/compute/network primitives; each primitive

* advances a **simulated clock** using the :class:`ClusterSpec` cost
  constants, modelling waves of parallel partitions, cache hits vs disk
  reads, stragglers (via seeded log-normal jitter) and per-job overheads,
  and
* records :class:`~repro.cluster.metrics.MetricsRecorder` counters so the
  harness can explain plan costs.

The engine charges costs only -- the actual numeric work (gradients,
updates) is performed by the caller on the physical numpy arrays.  This
split is what makes the reproduction honest: convergence behaviour is
real, execution time is simulated from the same micro-events the paper's
cost model reasons about.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.cache import CacheManager
from repro.cluster.hardware import ClusterSpec
from repro.cluster.metrics import MetricsRecorder
from repro.cluster import network


class SimulatedCluster:
    """A simulated Spark-like cluster with a global simulated clock."""

    def __init__(self, spec=None, seed=0):
        self.spec = spec or ClusterSpec()
        self.cache = CacheManager(self.spec.cache_bytes)
        self.metrics = MetricsRecorder()
        self.clock = 0.0
        self._rng = np.random.default_rng(seed)
        #: The jitter stream: standard normals drawn ahead, their
        #: factors ``exp(sigma * z)`` for ``_factor_sigma``, and how many
        #: of them charges have used.
        self._normals = np.empty(0)
        self._factors = []
        self._factor_sigma = None
        self._used = 0

    # ------------------------------------------------------------------
    # clock & bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the clock and metrics; drop the cache."""
        self.clock = 0.0
        self.metrics = MetricsRecorder()
        self.cache.clear()

    @property
    def rng(self) -> np.random.Generator:
        """The generator of the jitter stream.

        Jitter draws it ahead in blocks, so another reader sees values
        past those the charges so far have used, and moves the jitter
        of every later charge.  Samplers get a generator of their own
        (the plan executor passes ``make_sampler(rng=)``).
        """
        return self._rng

    def _jitter(self, size) -> list:
        """The next ``size`` factors ``exp(normal(0, sigma))``, for a
        positive ``jitter_sigma``.

        One stream, bit-identical to one ``rng.normal(0, sigma)`` per
        factor: the generator yields the same normals in blocks as one
        at a time, and ``normal(0, sigma)`` is ``sigma`` times a
        standard normal.  Blocks start small (a computed optimize
        charges a fresh engine three times) and double up to 4096.
        """
        sigma, used = self.spec.jitter_sigma, self._used
        if used + size > len(self._factors) or sigma != self._factor_sigma:
            rest = self._normals[used:]
            if len(rest) < size:
                block = min(4096, max(4, 2 * len(self._normals)))
                drawn = self._rng.standard_normal(
                    max(block, size - len(rest)))
                rest = np.concatenate([rest, drawn]) if len(rest) else drawn
            self._normals, self._factor_sigma, used = rest, sigma, 0
            self._factors = np.exp(sigma * rest).tolist()
        self._used = used + size
        return self._factors[used:used + size]

    def charge(self, seconds, phase, jitter=True) -> float:
        """Advance the clock by ``seconds`` (optionally jittered)."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if jitter and self.spec.jitter_sigma > 0:
            seconds *= self._jitter(1)[0]
        self.clock += seconds
        self.metrics.record_time(phase, seconds)
        return seconds

    # ------------------------------------------------------------------
    # runtime primitives
    # ------------------------------------------------------------------
    def job(self, phase) -> None:
        """Charge the launch overhead of one distributed job."""
        self.metrics.phase(phase).jobs += 1
        self.charge(self.spec.job_overhead_s, phase)

    def local_op(self, phase, seconds=None) -> None:
        """Charge a driver-local operator invocation."""
        self.charge(self.spec.local_overhead_s + (seconds or 0.0), phase)

    # ------------------------------------------------------------------
    def _partition_io_seconds(self, part_bytes, cached_fraction):
        """IO seconds to read ``part_bytes`` given a cached fraction."""
        spec = self.spec
        mem_bytes = part_bytes * cached_fraction
        disk_bytes = part_bytes - mem_bytes
        seconds = mem_bytes / spec.page_bytes * spec.page_io_mem_s
        seconds += disk_bytes / spec.page_bytes * spec.page_io_disk_s
        seconds += spec.seek_disk_s if disk_bytes > 0 else spec.seek_mem_s
        return seconds

    def scan(
        self,
        dataset,
        phase,
        cpu_per_row_s=0.0,
        partitions=None,
        cache=True,
        memory_overhead=1.0,
        distributed=None,
    ):
        """Scan ``dataset`` (or a subset of its partitions) once.

        Models Spark's wave execution: partitions are processed ``cap`` at
        a time; each wave costs the maximum of its partitions' (jittered)
        IO + CPU times; waves are sequential.  Returns the charged seconds.

        ``cpu_per_row_s`` is charged per *simulated* row.  When ``cache``
        is true the dataset is (re-)inserted into the cluster cache after
        the scan, with ``memory_overhead`` inflating its in-memory
        footprint (JVM object overhead for some baselines).
        """
        spec = self.spec
        parts = dataset.partitions if partitions is None else [
            dataset.partitions[pid] for pid in partitions
        ]
        if not parts:
            return 0.0
        if distributed is None:
            distributed = len(dataset.partitions) > 1
        if distributed:
            self.job(phase)
        else:
            self.local_op(phase)

        cached_fraction = self.cache.cached_fraction(dataset)
        io = np.array(
            [self._partition_io_seconds(p.sim_bytes, cached_fraction) for p in parts]
        )
        cpu = np.array([p.sim_rows * cpu_per_row_s for p in parts], dtype=float)
        times = io + cpu
        if spec.jitter_sigma > 0:
            times *= self._jitter(len(parts))

        cap = spec.cap
        n_waves = math.ceil(len(parts) / cap)
        wave_seconds = 0.0
        for w in range(n_waves):
            wave_seconds += float(times[w * cap:(w + 1) * cap].max())
        self.charge(wave_seconds, phase, jitter=False)

        m = self.metrics.phase(phase)
        total_bytes = sum(p.sim_bytes for p in parts)
        mem_bytes = int(total_bytes * cached_fraction)
        m.pages_mem += spec.pages_in(mem_bytes) if mem_bytes else 0
        m.pages_disk += (
            spec.pages_in(total_bytes - mem_bytes) if total_bytes > mem_bytes else 0
        )
        m.seeks += len(parts)
        m.cpu_seconds += float(cpu.sum())
        m.rows_processed += int(sum(p.sim_rows for p in parts))

        if cache and partitions is None:
            self.cache.insert(dataset, memory_overhead=memory_overhead)
        self.cache.touch(dataset)
        return wave_seconds

    def sequential_read(self, dataset, nbytes, phase, new_segment=False):
        """Sequential read of ``nbytes`` from one partition of ``dataset``.

        Used by the shuffled-partition sampler: after the one-time shuffle,
        every sample is a cursor advance.  Fractional pages are allowed so
        a 1-row SGD read does not get rounded up to a full page each
        iteration (the cursor shares pages across iterations).
        """
        spec = self.spec
        in_memory = self.cache.cached_fraction(dataset) > 0.999
        page_io = spec.page_io_mem_s if in_memory else spec.page_io_disk_s
        seconds = nbytes / spec.page_bytes * page_io
        if new_segment:
            seconds += spec.seek_mem_s if in_memory else spec.seek_disk_s
            self.metrics.phase(phase).seeks += 1
        m = self.metrics.phase(phase)
        if in_memory:
            m.pages_mem += max(1, round(nbytes / spec.page_bytes))
        else:
            m.pages_disk += max(1, round(nbytes / spec.page_bytes))
        return self.charge(seconds, phase)

    def random_access(self, dataset, n_accesses, bytes_each, phase):
        """``n_accesses`` random point reads of ``bytes_each`` bytes.

        Used by the random-partition sampler, whose weakness is exactly
        "the large number of random accesses" (Section 6).
        """
        spec = self.spec
        in_memory = self.cache.cached_fraction(dataset) > 0.999
        seek = spec.seek_mem_s if in_memory else spec.seek_disk_s
        page_io = spec.page_io_mem_s if in_memory else spec.page_io_disk_s
        pages_per_access = spec.pages_in(bytes_each)
        seconds = n_accesses * (seek + pages_per_access * page_io)
        m = self.metrics.phase(phase)
        m.seeks += n_accesses
        if in_memory:
            m.pages_mem += n_accesses * pages_per_access
        else:
            m.pages_disk += n_accesses * pages_per_access
        return self.charge(seconds, phase)

    def shuffle_partition(self, dataset, pid, phase):
        """Read, permute and rewrite one partition (shuffled-partition prep)."""
        spec = self.spec
        part = dataset.partitions[pid]
        cached_fraction = self.cache.cached_fraction(dataset)
        read_s = self._partition_io_seconds(part.sim_bytes, cached_fraction)
        cpu_s = part.sim_rows * spec.shuffle_per_row_s
        # The permuted copy is written back to executor memory.
        write_s = part.sim_bytes / spec.page_bytes * spec.page_io_mem_s
        m = self.metrics.phase(phase)
        m.rows_processed += part.sim_rows
        m.cpu_seconds += cpu_s
        m.pages_mem += spec.pages_in(part.sim_bytes)
        return self.charge(read_s + cpu_s + write_s, phase)

    # ------------------------------------------------------------------
    def aggregate(self, n_partials, vector_bytes, phase, tree=False, depth=2):
        """Aggregate ``n_partials`` partial vectors at the driver (Update)."""
        if tree:
            seconds, nbytes = network.tree_aggregate(
                self.spec, n_partials, vector_bytes, depth=depth
            )
        else:
            seconds, nbytes = network.reduce_to_driver(
                self.spec, n_partials, vector_bytes
            )
        m = self.metrics.phase(phase)
        m.network_bytes += nbytes
        m.packets += self.spec.packets_in(nbytes) if nbytes else 0
        return self.charge(seconds, phase)

    def collect(self, nbytes, phase):
        """Ship ``nbytes`` (e.g. a sampled batch) to the driver."""
        seconds = self.spec.transfer_s(nbytes)
        m = self.metrics.phase(phase)
        m.network_bytes += nbytes
        m.packets += self.spec.packets_in(nbytes)
        return self.charge(seconds, phase)

    def broadcast_weights(self, vector_bytes, phase):
        """Broadcast the model vector to every node for the next iteration."""
        seconds, nbytes = network.broadcast(
            self.spec, self.spec.n_nodes, vector_bytes
        )
        m = self.metrics.phase(phase)
        m.network_bytes += nbytes
        return self.charge(seconds, phase)

    def write_dataset(self, dataset, phase):
        """Write a full dataset (e.g. SystemML binary-block conversion)."""
        spec = self.spec
        nbytes = dataset.total_bytes
        # Disk-write the bytes spread across the available parallel writers.
        writers = min(spec.cap, max(1, dataset.n_partitions))
        seconds = (
            dataset.n_partitions * spec.seek_disk_s
            + nbytes / spec.page_bytes * spec.page_io_disk_s
        ) / writers
        self.metrics.phase(phase).pages_disk += spec.pages_in(nbytes)
        return self.charge(seconds, phase)
