"""Gradient-descent algorithm substrate (pure numpy reference math)."""

from repro.gd.base import (
    AdaGradUpdater,
    AdamUpdater,
    GDRunResult,
    MomentumUpdater,
    Updater,
    full_batch_selector,
    make_minibatch_selector,
    run_loop,
)
from repro.gd.bgd import bgd
from repro.gd.convergence import (
    ConvergenceCriterion,
    L1WeightDelta,
    L2WeightDelta,
    make_convergence,
)
from repro.gd.gradients import (
    Gradient,
    HingeGradient,
    L2Regularized,
    LinearRegressionGradient,
    LogisticGradient,
    named_gradient,
    task_gradient,
)
from repro.gd.mgd import mgd
from repro.gd.registry import ALGORITHMS, CORE_ALGORITHMS, info, run
from repro.gd.sgd import sgd
from repro.gd.state import STATE_FORMAT, OptimizerState, capture_rng, restore_rng
from repro.gd.step_size import (
    ConstantStep,
    InverseSqrtStep,
    InverseSquaredStep,
    InverseStep,
    OffsetStep,
    StepSize,
    make_step_size,
    with_offset,
)
from repro.gd.spec import AlgorithmSpec, CostTerms
from repro.gd.svrg import SVRGUpdater

# Plugin algorithms: importing the module is the registration (each ends
# in a register() call against the spec seams above).
from repro.gd.arc import ArcUpdater
from repro.gd.grad_avg import GradientAveragingUpdater

__all__ = [
    "AdaGradUpdater",
    "AdamUpdater",
    "GDRunResult",
    "MomentumUpdater",
    "Updater",
    "full_batch_selector",
    "make_minibatch_selector",
    "run_loop",
    "bgd",
    "ConvergenceCriterion",
    "L1WeightDelta",
    "L2WeightDelta",
    "make_convergence",
    "Gradient",
    "HingeGradient",
    "L2Regularized",
    "LinearRegressionGradient",
    "LogisticGradient",
    "named_gradient",
    "task_gradient",
    "mgd",
    "ALGORITHMS",
    "CORE_ALGORITHMS",
    "info",
    "run",
    "sgd",
    "STATE_FORMAT",
    "OptimizerState",
    "capture_rng",
    "restore_rng",
    "ConstantStep",
    "InverseSqrtStep",
    "InverseSquaredStep",
    "InverseStep",
    "OffsetStep",
    "StepSize",
    "make_step_size",
    "with_offset",
    "SVRGUpdater",
    "AlgorithmSpec",
    "CostTerms",
    "ArcUpdater",
    "GradientAveragingUpdater",
]
