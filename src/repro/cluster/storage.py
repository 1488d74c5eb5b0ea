"""Partitioned dataset storage: the simulated HDFS layer.

A :class:`PartitionedDataset` pairs

* **physical data** -- the numpy / scipy arrays the math actually runs on,
  typically a ~100x scaled-down sample of the paper's dataset, and
* **simulated statistics** -- the row count and byte sizes of the *paper
  scale* dataset, restored through a ``sim_replication`` factor.

The byte model distinguishes a ``text`` representation (the raw CSV /
LIBSVM file the Transform operator parses) from the ``binary``
representation produced by Transform; lazy-transformation plans read text
bytes inside the loop, eager plans pay the parse once (Section 6).

Partitions are HDFS-like blocks.  Each partition knows its simulated row
span and byte size *and* the physical row slice standing in for it, so
partition-local sampling (random-partition, shuffled-partition) sees the
same row-order skew as the paper's storage layout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math

import numpy as np
from scipy import sparse as sp

from repro.cluster.hardware import DOUBLE_BYTES, SPARSE_ENTRY_BYTES, ClusterSpec
from repro.errors import PlanError

_dataset_ids = itertools.count(1)

#: Average text characters used to serialise one dense feature ("0.12345,").
TEXT_BYTES_PER_DENSE_VALUE = 8
#: Average text characters for one sparse "index:value" entry.
TEXT_BYTES_PER_SPARSE_ENTRY = 12
#: Text characters for the label and the line terminator.
TEXT_BYTES_PER_ROW_BASE = 4


def text_bytes_per_row(d, density, is_sparse) -> float:
    """Average raw-text bytes of one data unit."""
    if is_sparse:
        nnz = max(1.0, d * density)
        return TEXT_BYTES_PER_ROW_BASE + nnz * TEXT_BYTES_PER_SPARSE_ENTRY
    return TEXT_BYTES_PER_ROW_BASE + d * TEXT_BYTES_PER_DENSE_VALUE


def binary_bytes_per_row(d, density, is_sparse) -> float:
    """Average parsed (binary) bytes of one data unit."""
    if is_sparse:
        nnz = max(1.0, d * density)
        return DOUBLE_BYTES + nnz * SPARSE_ENTRY_BYTES
    return DOUBLE_BYTES + d * DOUBLE_BYTES


@dataclasses.dataclass(frozen=True)
class DatasetStats:
    """Simulated (paper-scale) statistics of a dataset.

    These are the quantities Table 1 of the paper feeds into the cost
    model: n (#data units), d (#features), byte sizes, and the storage
    layout derived from them.
    """

    name: str
    task: str
    n: int
    d: int
    density: float = 1.0
    is_sparse: bool = False
    #: Optional overrides so registry datasets can match the exact file
    #: sizes of the paper's Table 2 (text encodings vary per dataset).
    row_text_bytes: float | None = None
    row_binary_bytes: float | None = None

    @property
    def nnz_per_row(self) -> float:
        """Average number of non-zero features per data unit."""
        if self.is_sparse:
            return max(1.0, self.d * self.density)
        return float(self.d)

    @property
    def text_bytes(self) -> int:
        return int(self.n * self.bytes_per_row("text"))

    @property
    def binary_bytes(self) -> int:
        return int(self.n * self.bytes_per_row("binary"))

    def bytes_for(self, representation) -> int:
        """Total bytes of the dataset in ``"text"`` or ``"binary"`` form."""
        if representation == "text":
            return self.text_bytes
        if representation == "binary":
            return self.binary_bytes
        raise PlanError(f"unknown representation {representation!r}")

    def bytes_per_row(self, representation) -> float:
        if representation == "text":
            if self.row_text_bytes is not None:
                return self.row_text_bytes
            return text_bytes_per_row(self.d, self.density, self.is_sparse)
        if representation == "binary":
            if self.row_binary_bytes is not None:
                return self.row_binary_bytes
            return binary_bytes_per_row(self.d, self.density, self.is_sparse)
        raise PlanError(f"unknown representation {representation!r}")

    @property
    def weight_vector_bytes(self) -> int:
        """Bytes of one model vector (dense, d doubles)."""
        return self.d * DOUBLE_BYTES


@dataclasses.dataclass(frozen=True)
class Partition:
    """One HDFS-like block of a partitioned dataset."""

    pid: int
    #: Simulated data units stored in this block.
    sim_rows: int
    #: Simulated bytes of this block in the dataset's *current* representation.
    sim_bytes: int
    #: Physical row slice [phys_lo, phys_hi) standing in for this block.
    phys_lo: int
    phys_hi: int

    @property
    def phys_rows(self) -> int:
        return self.phys_hi - self.phys_lo


class PartitionedDataset:
    """A dataset laid out as HDFS-like partitions on the simulated cluster.

    Parameters
    ----------
    X, y:
        Physical feature matrix (ndarray or CSR) and labels.
    stats:
        Paper-scale :class:`DatasetStats`.  ``stats.n`` may exceed
        ``X.shape[0]``; the ratio is the ``sim_replication`` factor.
    spec:
        Cluster description; supplies the HDFS block size.
    representation:
        ``"text"`` for a raw (un-parsed) file, ``"binary"`` once
        transformed.  Eager transformation produces a *new*
        PartitionedDataset via :meth:`as_binary`.
    """

    def __init__(self, X, y, stats, spec=None, representation="text"):
        spec = spec or ClusterSpec()
        n_phys = X.shape[0]
        if n_phys == 0:
            raise PlanError("cannot partition an empty dataset")
        if y.shape[0] != n_phys:
            raise PlanError(
                f"X has {n_phys} rows but y has {y.shape[0]} labels"
            )
        if stats.n < n_phys:
            raise PlanError(
                f"simulated row count {stats.n} is smaller than the physical "
                f"row count {n_phys}; sim_replication must be >= 1"
            )
        self.dataset_id = next(_dataset_ids)
        self.X = X
        self.y = y
        self.stats = stats
        self.spec = spec
        self.representation = representation
        #: Bytes of the dataset in its representation (the cache reads
        #: it on every sample).
        self.total_bytes = stats.bytes_for(representation)
        self.partitions = self._build_partitions()
        self._binary_form = None
        self._content_digest = None

    # ------------------------------------------------------------------
    @property
    def n_phys(self) -> int:
        return self.X.shape[0]

    @property
    def sim_replication(self) -> float:
        """How many simulated rows each physical row stands for."""
        return self.stats.n / self.n_phys

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.X)

    def _build_partitions(self):
        total_bytes = self.total_bytes
        block = self.spec.hdfs_block_bytes
        n_parts = max(1, math.ceil(total_bytes / block))
        # A block cannot hold fewer than one physical row; clamp so every
        # partition has at least one physical row to run real math on.
        n_parts = min(n_parts, self.n_phys)
        sim_rows_total = self.stats.n
        partitions = []
        for pid in range(n_parts):
            sim_lo = pid * sim_rows_total // n_parts
            sim_hi = (pid + 1) * sim_rows_total // n_parts
            phys_lo = pid * self.n_phys // n_parts
            phys_hi = (pid + 1) * self.n_phys // n_parts
            sim_rows = sim_hi - sim_lo
            sim_bytes = int(
                sim_rows * self.stats.bytes_per_row(self.representation)
            )
            partitions.append(
                Partition(pid, sim_rows, sim_bytes, phys_lo, phys_hi)
            )
        return partitions

    # ------------------------------------------------------------------
    def rows(self, indices):
        """Physical feature rows / labels for the given physical indices."""
        return self.X[indices], self.y[indices]

    def partition_rows(self, pid):
        """All physical rows of partition ``pid``."""
        part = self.partitions[pid]
        idx = np.arange(part.phys_lo, part.phys_hi)
        return idx

    def as_binary(self) -> "PartitionedDataset":
        """The same data after Transform: binary representation.

        Physical arrays are shared (parsing is deterministic); only the
        byte model and partition layout change.  The binary form is
        memoized so repeated calls return the *same* dataset identity --
        cache residency established by one plan execution is then visible
        to the next one, like a persisted RDD.
        """
        if self.representation == "binary":
            return self
        if self._binary_form is None:
            self._binary_form = PartitionedDataset(
                self.X, self.y, self.stats, self.spec,
                representation="binary",
            )
        return self._binary_form

    def content_digest(self) -> str:
        """Digest of the physical arrays (memoized).

        Distinguishes datasets whose *statistics* coincide but whose
        data differ -- anything data-dependent (e.g. speculative
        iteration estimates) must key on this, not just on ``stats``.
        """
        if self._content_digest is None:
            digest = hashlib.sha256()
            if sp.issparse(self.X):
                csr = self.X.tocsr()
                digest.update(csr.data.tobytes())
                digest.update(csr.indices.tobytes())
                digest.update(csr.indptr.tobytes())
            else:
                digest.update(np.ascontiguousarray(self.X).tobytes())
            digest.update(np.ascontiguousarray(self.y).tobytes())
            self._content_digest = digest.hexdigest()
        return self._content_digest

    def describe(self) -> str:
        return (
            f"{self.stats.name}: task={self.stats.task} n={self.stats.n:,} "
            f"(physical {self.n_phys:,}) d={self.stats.d} "
            f"density={self.stats.density:g} repr={self.representation} "
            f"bytes={self.total_bytes:,} partitions={self.n_partitions}"
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<PartitionedDataset {self.describe()}>"
