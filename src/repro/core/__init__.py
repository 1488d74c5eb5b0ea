"""The paper's primary contribution: the cost-based GD optimizer.

Maps to the architecture of Figure 2: the GD abstraction (``operators``,
``reference_ops``), the iterations estimator (``iterations``,
``curve_fit``), the plan space (``plans``, ``plan_space``), the cost model
(``cost_model``) and the planner itself (``optimizer``), executing through
``executor`` on the simulated cluster.
"""

from repro.core.context import Context
from repro.core.cost_model import CostModel, DatasetLayout, layout_for
from repro.core.curve_fit import (
    FittedCurve,
    fit_error_sequence,
    fit_exponential,
    fit_inverse,
    fit_power,
)
from repro.core.executor import PlanExecutor, execute_plan
from repro.core.iterations import (
    IterationsEstimate,
    SpeculationSettings,
    SpeculativeEstimator,
)
from repro.core.operators import (
    Compute,
    Converge,
    GDOperators,
    Loop,
    Operator,
    Sample,
    Stage,
    Transform,
    Update,
)
from repro.core.optimizer import GDOptimizer
from repro.core.plan_space import (
    STOCHASTIC_VARIANTS,
    enumerate_plans,
    plans_for_algorithm,
    space_size,
)
from repro.core.plans import GDPlan, TrainingSpec
from repro.core.reference_ops import (
    DefaultStage,
    FixedSizeSample,
    GradientCompute,
    L1Converge,
    ParseTransform,
    ToleranceLoop,
    WeightUpdate,
    default_operators,
)
from repro.core.result import OptimizationReport, PlanCostEstimate, TrainResult
from repro.core.tuning import CostBasedTuner, TuningCandidate, TuningReport

__all__ = [
    "Context",
    "CostModel",
    "DatasetLayout",
    "layout_for",
    "FittedCurve",
    "fit_error_sequence",
    "fit_exponential",
    "fit_inverse",
    "fit_power",
    "PlanExecutor",
    "execute_plan",
    "IterationsEstimate",
    "SpeculationSettings",
    "SpeculativeEstimator",
    "Compute",
    "Converge",
    "GDOperators",
    "Loop",
    "Operator",
    "Sample",
    "Stage",
    "Transform",
    "Update",
    "GDOptimizer",
    "STOCHASTIC_VARIANTS",
    "enumerate_plans",
    "plans_for_algorithm",
    "space_size",
    "GDPlan",
    "TrainingSpec",
    "DefaultStage",
    "FixedSizeSample",
    "GradientCompute",
    "L1Converge",
    "ParseTransform",
    "ToleranceLoop",
    "WeightUpdate",
    "default_operators",
    "OptimizationReport",
    "PlanCostEstimate",
    "TrainResult",
    "CostBasedTuner",
    "TuningCandidate",
    "TuningReport",
]
