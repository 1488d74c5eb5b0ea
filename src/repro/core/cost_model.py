"""The GD cost model (Section 7: Table 1 and formulas 3-9).

The optimizer estimates every candidate plan as

    total = one_time + T x per_iteration        (formulas 7-9)

where T comes from the iterations estimator and the per-iteration cost is
assembled from per-operator costs:

    c_op(D) = c_IO(D) + c_NT(D) + c_CPU(D, op)   (formula 6)

"Transform, Compute, Sample, Converge, and Loop involve only IO and CPU
costs ... Stage may incur only CPU cost ... Update is the only operator
that involves network transfers" (Section 7.1).

The model is deliberately *coarser* than the execution engine: it assumes
the loop representation is fully cached iff it fits the cluster cache,
ignores jitter/stragglers and cache dynamics.  The resulting estimation
error against the engine is what Figure 7 measures (paper: <= 17%).

The formulas are written once, per plan (``CostModel._plan_costs``).
:meth:`CostModel.estimate_batch`, the call the optimizer prices a plan
space with, computes the text and binary layouts once and runs every
plan through them, once per (dataset, plan space) since only T varies
between requests; :meth:`CostModel.estimate` prices a single plan.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np

from repro.errors import PlanError
from repro.gd import registry as gd_registry


@dataclasses.dataclass(frozen=True)
class DatasetLayout:
    """Derived Table 1 quantities for one dataset representation.

    n       #data units in D
    p       #partitions of D:        p(D) = ceil(|D|_b / |P|_b)
    k       #data units per partition: k = ceil(n * |P|_b / |D|_b)
    waves   w(D) = p / cap
    """

    n: int
    d: int
    nnz_per_row: float
    bytes_total: int
    bytes_per_row: float
    p: int
    k: int

    @property
    def partition_bytes(self) -> int:
        return int(math.ceil(self.bytes_total / self.p))


def layout_for(spec, stats, representation) -> DatasetLayout:
    """Compute the Table 1 layout of ``stats`` in the given representation."""
    bytes_total = stats.bytes_for(representation)
    p = max(1, math.ceil(bytes_total / spec.hdfs_block_bytes))
    k = max(1, math.ceil(stats.n / p))
    return DatasetLayout(
        n=stats.n,
        d=stats.d,
        nnz_per_row=stats.nnz_per_row,
        bytes_total=bytes_total,
        bytes_per_row=stats.bytes_per_row(representation),
        p=p,
        k=k,
    )


# ---------------------------------------------------------------------------
# formulas 3-5
# ---------------------------------------------------------------------------

def io_cost(spec, layout, in_memory=False) -> float:
    """Formula 3: wave-parallel cost of reading a dataset once.

    full waves x (SK + |P|_b/|page|_b x pageIO) + the last partial wave.
    """
    page_io = spec.page_io_mem_s if in_memory else spec.page_io_disk_s
    seek = spec.seek_mem_s if in_memory else spec.seek_disk_s
    full_waves = layout.p // spec.cap
    remaining = layout.p - full_waves * spec.cap
    per_partition = seek + layout.partition_bytes / spec.page_bytes * page_io
    cost = full_waves * per_partition
    if remaining:
        cost += per_partition
    return cost


def cpu_cost(spec, layout, cpu_per_unit) -> float:
    """Formula 4: wave-parallel CPU cost of processing every data unit."""
    full_waves = layout.p // spec.cap
    remaining = layout.p - full_waves * spec.cap
    cost = full_waves * layout.k * cpu_per_unit
    if remaining:
        cost += layout.k * cpu_per_unit
    return cost


def network_cost(spec, nbytes) -> float:
    """Formula 5: |D|_b / |packet|_b packets through the switch."""
    return spec.transfer_s(nbytes)


# ---------------------------------------------------------------------------
# per-operator CPU constants
# ---------------------------------------------------------------------------

def transform_cpu_per_unit(spec, layout) -> float:
    return spec.transform_base_s + spec.transform_per_nnz_s * layout.nnz_per_row


def compute_cpu_per_unit(spec, layout) -> float:
    return spec.compute_base_s + spec.compute_per_nnz_s * layout.nnz_per_row


def update_cpu(spec, layout) -> float:
    return spec.update_per_dim_s * layout.d


def converge_cpu(spec, layout) -> float:
    return spec.converge_per_dim_s * layout.d


# ---------------------------------------------------------------------------
# the plan cost model
# ---------------------------------------------------------------------------

#: Plan spaces a CostModel keeps the prices of, least recently used out.
_PRICE_MEMO_SIZE = 64


class CostModel:
    """Assembles formulas 3-9 into per-plan cost estimates.  One model
    may serve many requests and threads: it memoises the prices of the
    plan spaces it priced last (:meth:`estimate_batch`)."""

    def __init__(self, spec):
        self.spec = spec
        self._prices = {}  # in order of use
        self._prices_lock = threading.Lock()

    # -- helpers --------------------------------------------------------
    def _fits_cache(self, nbytes) -> bool:
        return nbytes <= self.spec.cache_bytes

    def _weight_bytes(self, layout) -> int:
        return layout.d * 8

    def _layouts(self, stats) -> tuple:
        """The (text, binary) layouts every formula reads."""
        return (layout_for(self.spec, stats, "text"),
                layout_for(self.spec, stats, "binary"))

    @staticmethod
    def _algorithm_terms(algorithm):
        """The algorithm's CostTerms, or None when they are the identity
        (or the algorithm is unregistered -- custom operator bundles)."""
        spec = gd_registry.ALGORITHMS.get(algorithm)
        if spec is None or spec.cost.is_identity():
            return None
        return spec.cost

    # -- the per-plan formulas ------------------------------------------
    def _plan_costs(self, plan, text, binary) -> tuple:
        """``(one_time, per_iteration)`` breakdowns {phase: seconds} of
        one plan, priced on the dataset's text and binary layouts.

        One-time costs are Stage and, for eager plans, Transform.  When
        the algorithm's registered spec declares non-identity
        :class:`~repro.gd.spec.CostTerms`, their correction lands in an
        extra ``"algorithm"`` per-iteration phase: the per-iteration
        multiplier scales the shape-derived base,
        ``extra_update_cost_factor`` adds multiples of the Update CPU
        cost, and ``full_pass_fraction`` re-prices that fraction of a
        stochastic plan's iterations at the full-batch per-iteration cost
        (SVRG-style anchor passes).
        """
        spec = self.spec
        # Stage: driver-local parameter initialisation.
        one_time = {"stage": spec.local_overhead_s}
        if plan.transform_mode == "eager":
            cost = io_cost(spec, text, in_memory=False)
            cost += cpu_cost(spec, text, transform_cpu_per_unit(spec, text))
            # Parsed units are written into executor cache memory.
            cost += binary.bytes_total / spec.page_bytes * spec.page_io_mem_s \
                / spec.cap
            if text.p > 1:
                cost += spec.job_overhead_s
            one_time["transform"] = cost

        if plan.is_stochastic:
            # The representation read inside the loop: lazy plans sample
            # raw text units; eager plans sample parsed binary units.
            per_iter = self._stochastic_iteration(
                plan, text if plan.transform_mode == "lazy" else binary
            )
        else:
            per_iter = self._full_batch_iteration(binary)
        terms = self._algorithm_terms(plan.algorithm)
        if terms is not None:
            base = sum(per_iter.values())
            correction = base * (terms.per_iteration_multiplier - 1.0)
            correction += terms.extra_update_cost_factor * update_cpu(spec, binary)
            if terms.full_pass_fraction > 0.0 and plan.is_stochastic:
                full = sum(self._full_batch_iteration(binary).values())
                correction += terms.full_pass_fraction * max(0.0, full - base)
            per_iter["algorithm"] = correction
        return one_time, per_iter

    def _full_batch_iteration(self, binary) -> dict:
        """Formula 7's T-multiplied term: Compute + Update + Converge + Loop."""
        spec = self.spec
        cached = self._fits_cache(binary.bytes_total)
        distributed = binary.p > 1

        breakdown = {}
        compute = io_cost(spec, binary, in_memory=cached)
        compute += cpu_cost(spec, binary, compute_cpu_per_unit(spec, binary))
        if distributed:
            compute += spec.job_overhead_s
        breakdown["compute"] = compute

        update = update_cpu(spec, binary)
        if distributed:
            update += network_cost(spec, binary.p * self._weight_bytes(binary))
            update += network_cost(spec, self._weight_bytes(binary)) * math.ceil(
                math.log2(max(2, spec.n_nodes))
            )  # weight broadcast for the next iteration
        breakdown["update"] = update
        breakdown["converge"] = converge_cpu(spec, binary) + spec.local_overhead_s
        breakdown["loop"] = spec.loop_s + spec.iteration_overhead_s
        return breakdown

    def _stochastic_iteration(self, plan, loop_layout) -> dict:
        spec = self.spec
        m = plan.effective_batch_size
        cached = (
            plan.transform_mode == "eager"
            and self._fits_cache(loop_layout.bytes_total)
        )
        distributed = loop_layout.p > 1

        local_parallelism = spec.slots_per_node if distributed else 1
        breakdown = {}
        breakdown["sample"] = self._sample_cost(
            plan, loop_layout, m, cached, distributed
        )

        if plan.transform_mode == "lazy":
            breakdown["transform"] = (
                m * transform_cpu_per_unit(spec, loop_layout)
                / local_parallelism
            )

        if plan.sampling == "bernoulli" and distributed:
            # Gradient computed where the sampled units live; partials
            # aggregated at the driver (the paper's distributed MGD path).
            compute = m * compute_cpu_per_unit(spec, loop_layout) / spec.cap
            update = update_cpu(spec, loop_layout)
            update += network_cost(
                spec, loop_layout.p * self._weight_bytes(loop_layout)
            )
            update += network_cost(spec, self._weight_bytes(loop_layout))
        else:
            # Mix-based plan (Appendix D): the gradient is computed
            # data-locally on the sampled partition's executor; the model
            # travels out and the partial gradient travels back.
            compute = m * compute_cpu_per_unit(spec, loop_layout) \
                / local_parallelism
            update = update_cpu(spec, loop_layout)
            if distributed:
                update += 2 * network_cost(
                    spec, self._weight_bytes(loop_layout)
                )
        breakdown["compute"] = compute
        breakdown["update"] = update
        breakdown["converge"] = converge_cpu(spec, loop_layout) + spec.local_overhead_s
        breakdown["loop"] = spec.loop_s + spec.iteration_overhead_s
        return breakdown

    def _sample_cost(self, plan, layout, m, cached, distributed) -> float:
        """Per-iteration cost of the chosen sampling strategy."""
        spec = self.spec
        if plan.sampling == "bernoulli":
            # Full scan with an inclusion test per unit; expected number
            # of scans accounts for possibly-empty Poisson(m) samples.
            retry = 1.0 / (1.0 - math.exp(-m)) if m < 50 else 1.0
            cost = io_cost(spec, layout, in_memory=cached)
            cost += cpu_cost(spec, layout, spec.sample_test_s)
            if distributed:
                cost += spec.job_overhead_s
            return retry * cost

        page_io = spec.page_io_mem_s if cached else spec.page_io_disk_s
        seek = spec.seek_mem_s if cached else spec.seek_disk_s
        batch_bytes = m * layout.bytes_per_row
        cost = 0.0
        if plan.sampling == "random":
            pages_each = spec.pages_in(int(math.ceil(layout.bytes_per_row)))
            cost += m * (seek + pages_each * page_io)
        elif plan.sampling == "shuffle":
            # One-partition shuffle amortised over the k/m iterations it
            # serves, plus the sequential cursor read of the batch.
            shuffle = seek + layout.partition_bytes / spec.page_bytes * page_io
            shuffle += layout.k * spec.shuffle_per_row_s
            shuffle += layout.partition_bytes / spec.page_bytes * spec.page_io_mem_s
            iterations_served = max(1.0, layout.k / m)
            cost += shuffle / iterations_served
            cost += batch_bytes / spec.page_bytes * page_io
        else:  # pragma: no cover - plans validate sampling names
            raise PlanError(f"unknown sampling {plan.sampling!r}")
        if distributed:
            # One Spark job per iteration drives the data-local sample.
            cost += spec.job_overhead_s
        return cost

    # -- totals (formulas 7-9) ------------------------------------------
    def one_time_cost(self, plan, stats) -> dict:
        """Costs paid once, before the loop (Stage; eager Transform)."""
        return self._plan_costs(plan, *self._layouts(stats))[0]

    def per_iteration_cost(self, plan, stats) -> dict:
        """Per-iteration breakdown {phase: seconds} for a plan (see
        :meth:`_plan_costs` for the ``"algorithm"`` phase)."""
        return self._plan_costs(plan, *self._layouts(stats))[1]

    def estimate(self, plan, stats, iterations) -> tuple:
        """(one_time_s, per_iteration_s, total_s, breakdown).

        ``breakdown`` maps ``"one_time:<phase>"`` and ``"iter:<phase>"``
        to seconds.
        """
        one_time, per_iter = self._plan_costs(plan, *self._layouts(stats))
        one_time_s, per_iter_s, breakdown = _summed(one_time, per_iter)
        return one_time_s, per_iter_s, one_time_s + iterations * per_iter_s, \
            breakdown

    def estimate_batch(self, plans, stats, iterations) -> "BatchCostEstimate":
        """:meth:`estimate` for every plan of a plan space.

        ``iterations`` is a per-plan sequence of iteration counts (the
        T(epsilon) estimates).  The text and binary layouts are computed
        once; each plan then goes through the same per-plan formulas as
        :meth:`estimate`, so prices and rankings are identical to it.

        Those prices are memoised (thread-safe, LRU) under all the
        formulas read -- ``stats``, the plans and each plan's *registered*
        algorithm spec, so re-registering one re-prices it; a call only
        computes ``one_time + iterations x per_iteration``.
        """
        plans = tuple(plans)
        iters = np.asarray(list(iterations), dtype=float)
        if iters.shape != (len(plans),):
            raise PlanError(
                f"estimate_batch needs one iteration count per plan "
                f"({len(plans)} plans, iterations shape {iters.shape})"
            )
        specs = tuple(gd_registry.ALGORITHMS.get(p.algorithm) for p in plans)
        # The entry holds the specs, so their ids are not reused meanwhile.
        key = (stats, plans, tuple(map(id, specs)))
        with self._prices_lock:
            entry = self._prices.pop(key, None)
            if entry is not None:
                self._prices[key] = entry
        if entry is None:
            text, binary = self._layouts(stats)
            rows = [_summed(*self._plan_costs(plan, text, binary))
                    for plan in plans]
            prices = [np.array([row[i] for row in rows], dtype=float)
                      for i in (0, 1)]
            for array in prices:
                array.flags.writeable = False
            entry = (specs, *prices, tuple(row[2] for row in rows))
            with self._prices_lock:
                self._prices[key] = entry
                if len(self._prices) > _PRICE_MEMO_SIZE:
                    del self._prices[next(iter(self._prices))]
        _, one_time_s, per_iteration_s, breakdowns = entry
        return BatchCostEstimate(plans, iters, one_time_s, per_iteration_s,
                                 one_time_s + iters * per_iteration_s,
                                 breakdowns)


def _summed(one_time, per_iter) -> tuple:
    """(one_time_s, per_iteration_s, breakdown) of one plan's phases."""
    breakdown = {f"one_time:{k}": v for k, v in one_time.items()}
    breakdown.update({f"iter:{k}": v for k, v in per_iter.items()})
    return sum(one_time.values()), sum(per_iter.values()), breakdown


@dataclasses.dataclass
class BatchCostEstimate:
    """:meth:`CostModel.estimate` results for many plans.

    Arrays are indexed by plan position; ``breakdowns`` holds each plan's
    breakdown dict (``"one_time:<phase>"`` / ``"iter:<phase>"`` keys).
    ``one_time_s``, ``per_iteration_s`` and ``breakdowns`` may be the
    model's memo: replace them, never write into them.
    """

    plans: tuple
    iterations: np.ndarray
    one_time_s: np.ndarray
    per_iteration_s: np.ndarray
    total_s: np.ndarray
    breakdowns: tuple

    def __len__(self) -> int:
        return len(self.plans)

    def breakdown(self, i) -> dict:
        """Plan ``i``'s breakdown, as a new dict the caller may extend."""
        return dict(self.breakdowns[i])

    def argmin(self) -> int:
        """Index of the cheapest plan."""
        return int(np.argmin(self.total_s))
