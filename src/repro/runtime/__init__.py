"""Adaptive runtime: telemetry, calibration, mid-flight re-optimization.

The one-shot optimizer of the paper never looks back at a running plan;
this package adds the feedback loop:

* :mod:`~repro.runtime.trace` -- structured :class:`ExecutionTrace`
  telemetry recorded from plan executions;
* :mod:`~repro.runtime.telemetry` -- executor monitors (pure recording,
  and the divergence-detecting :class:`ConvergenceMonitor`);
* :mod:`~repro.runtime.calibration` -- the :class:`CalibrationStore` of
  learned per-(algorithm, cluster) correction factors, persisted to disk;
* :mod:`~repro.runtime.adaptive` -- the :class:`AdaptiveTrainer` that
  re-runs plan selection over the remaining error budget and switches
  plans without losing model state;
* :mod:`~repro.runtime.perturb` -- controlled cost-model fault injection
  for evaluating all of the above.
"""

from repro.runtime.adaptive import (
    AdaptiveResult,
    AdaptiveTrainer,
    JobBudget,
    TrainerCheckpoint,
    remaining_iterations,
)
from repro.runtime.calibration import (
    CalibrationStore,
    Correction,
    cluster_signature,
    workload_signature,
)
from repro.runtime.perturb import PerturbedCostModel
from repro.runtime.telemetry import (
    AdaptiveSettings,
    ConvergenceMonitor,
    TelemetryRecorder,
)
from repro.gd.state import OptimizerState
from repro.runtime.trace import (
    TRACE_FORMAT,
    ExecutionTrace,
    IterationRecord,
    PlanSegment,
    SwitchEvent,
    segment_from_result,
)

__all__ = [
    "AdaptiveResult",
    "AdaptiveSettings",
    "AdaptiveTrainer",
    "CalibrationStore",
    "ConvergenceMonitor",
    "Correction",
    "ExecutionTrace",
    "IterationRecord",
    "JobBudget",
    "OptimizerState",
    "PerturbedCostModel",
    "PlanSegment",
    "TRACE_FORMAT",
    "SwitchEvent",
    "TelemetryRecorder",
    "TrainerCheckpoint",
    "cluster_signature",
    "remaining_iterations",
    "segment_from_result",
    "workload_signature",
]
