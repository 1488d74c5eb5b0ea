"""The :class:`AlgorithmSpec` plugin interface of the GD algorithm zoo.

The paper's search space "is fully parameterized based on the number of
GD algorithms ... there could be tens of GD algorithms that the user
might want to evaluate" (Section 6).  An :class:`AlgorithmSpec` bundles
everything the system needs to know about one algorithm into one
declarative object, so a new algorithm is one step-kernel class (a
:class:`~repro.gd.base.Updater`) plus one
:func:`~repro.gd.registry.register` call:

===========================  ============================================
spec field                   consumed by
===========================  ============================================
``make_updater``             both drivers of the step kernel: ``run_loop``
                             (``registry.run``: speculation, baselines)
                             and the reference Compute/Update operators
                             (``core.executor.PlanExecutor``)
``state_namespace``          ``OptimizerState.algorithm_state`` keying
``transfer_state``           ``OptimizerState.transfer_to`` (plan switch)
``cost``                     ``core.cost_model.CostModel`` (both paths)
``speculation_overrides``    ``core.iterations.SpeculativeEstimator``
``plan_variants``            ``core.plan_space.plans_for_algorithm``
===========================  ============================================

See ``docs/ARCHITECTURE.md`` ("Adding a GD algorithm") for the
walkthrough and ``repro.gd.grad_avg`` / ``repro.gd.arc`` for two
algorithms expressed purely through this interface.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import PlanError


@dataclasses.dataclass(frozen=True)
class CostTerms:
    """Per-algorithm correction terms for the Section 7 cost model.

    The paper's formulas price a plan by its *shape* (sampling,
    transformation, distribution); algorithms whose iterations do more
    than one gradient/update express that here.  The defaults are the
    exact identity -- every paper algorithm keeps its historical cost
    bit-for-bit -- and the cost model skips the correction entirely when
    :meth:`is_identity` holds, so registering a spec with default terms
    is provably behaviour-preserving.
    """

    #: Scales the whole per-iteration cost (1.0 = unchanged).
    per_iteration_multiplier: float = 1.0
    #: Extra Update work per iteration, as a multiple of the plan's
    #: Update CPU cost (e.g. 1.0 for one additional weight-sized vector
    #: op, like maintaining a running gradient average).
    extra_update_cost_factor: float = 0.0
    #: Fraction of iterations that are *full-batch* passes on an
    #: otherwise stochastic plan (SVRG-style anchors, Arc GD's periodic
    #: full-gradient probes).  Those iterations are priced at the
    #: full-batch per-iteration cost instead of the stochastic one.
    full_pass_fraction: float = 0.0

    def __post_init__(self):
        if self.per_iteration_multiplier <= 0:
            raise PlanError("per_iteration_multiplier must be positive")
        if self.extra_update_cost_factor < 0:
            raise PlanError("extra_update_cost_factor must be >= 0")
        if not 0.0 <= self.full_pass_fraction <= 1.0:
            raise PlanError("full_pass_fraction must be in [0, 1]")

    def is_identity(self) -> bool:
        return (
            self.per_iteration_multiplier == 1.0
            and self.extra_update_cost_factor == 0.0
            and self.full_pass_fraction == 0.0
        )


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the system needs to know about one GD algorithm.

    The first four fields describe the algorithm; everything after them
    is the plugin surface, each field defaulting to "vanilla GD on the
    batch the first fields imply".
    """

    name: str
    #: None -> full batch; 1 -> single sample; other -> default mini-batch.
    default_batch_size: int | None
    #: Whether the algorithm reads a per-iteration sample (enables the
    #: Sample operator and the lazy-transformation/data-skipping plans).
    stochastic: bool
    description: str

    #: Every algorithm is a step kernel, so the plan executor runs all
    #: of them.  A class constant, not a field: nothing can opt out.
    supports_executor: typing.ClassVar[bool] = True

    #: When True, ``batch_size`` overrides are ignored (SGD is
    #: single-sample *by definition*; an override would silently turn it
    #: into MGD).
    batch_size_fixed: bool = False

    # -- kernel seam (run_loop and the reference Compute/Update) --------
    #: Zero-arg factory for a fresh :class:`~repro.gd.base.Updater`, the
    #: algorithm's step kernel (None -> vanilla GD).  A factory, not an
    #: instance: kernels are stateful and never shared across runs.
    make_updater: object = None

    # -- state seam -----------------------------------------------------
    #: Key under :attr:`OptimizerState.algorithm_state` that this
    #: algorithm's private state (anchors, phase markers, ...) lives in
    #: -- the kernel class's own ``state_namespace``; None for
    #: algorithms whose whole state is the generic snapshot (offset,
    #: updater buffers, RNG, sampler cursors).
    state_namespace: str | None = None
    #: Cross-plan transfer hook ``transfer_state(payload, target_algorithm,
    #: notes) -> payload | None``, consulted by
    #: :meth:`OptimizerState.transfer_to` for this spec's namespace on a
    #: plan switch.  Return the payload (or a reduced one) to carry it,
    #: None to drop it; append human-readable decisions to ``notes``.
    #: None drops the namespace with a generic note.
    transfer_state: object = None

    # -- optimizer seams ------------------------------------------------
    #: Cost-model correction terms (identity by default; see
    #: :class:`CostTerms`).
    cost: CostTerms = CostTerms()
    #: Per-algorithm :class:`~repro.core.iterations.SpeculationSettings`
    #: field overrides (e.g. a longer time budget for slow-start
    #: algorithms); empty dict = the estimator's own settings, verbatim.
    speculation_overrides: dict = dataclasses.field(default_factory=dict)
    #: ``(transform_mode, sampling)`` pairs the plan space enumerates
    #: for this algorithm; None = the Figure 5 defaults (one eager plan
    #: for full-batch algorithms, the five stochastic variants
    #: otherwise).
    plan_variants: tuple | None = None

    def __post_init__(self):
        if not self.name:
            raise PlanError("algorithm specs need a non-empty name")
        if self.transfer_state is not None and self.state_namespace is None:
            raise PlanError(
                f"algorithm {self.name!r} declares a transfer_state hook "
                "without a state_namespace to apply it to"
            )
