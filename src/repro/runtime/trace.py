"""Structured execution telemetry: the :class:`ExecutionTrace`.

The adaptive runtime records what a training run *actually did* -- per
iteration simulated time, per-phase cost, and the observed error curve --
next to what the optimizer *predicted* it would do.  The trace is the
currency of the whole subsystem: the calibration store consumes traces to
learn correction factors, the mid-flight re-optimizer consumes the live
prefix of one to decide whether the speculated convergence curve still
holds, and users inspect them to see why a plan was switched.

Traces are plain data (JSON round-trippable) so they can be persisted
next to the calibration store and shipped between processes.
"""

from __future__ import annotations

import dataclasses
import json

from repro.gd.state import field_dict, known_fields

#: Format version of one serialized ExecutionTrace.  Version 2 added
#: optimizer-state carry-over: segments record the transfer-policy notes
#: applied at entry (``state_transfer``).  The state itself is not in
#: the trace -- a checkpoint stores it once, at its top level -- so a
#: segment's ``state`` key, which earlier format-2 writers added, is
#: dropped on read.  Readers tolerate unknown keys (via
#: :func:`~repro.gd.state.known_fields`), so newer traces degrade
#: gracefully when read by older code (the new fields are simply
#: ignored) and older traces load with the new fields defaulted.
TRACE_FORMAT = 2


@dataclasses.dataclass(frozen=True)
class IterationRecord:
    """One observed training iteration."""

    #: 1-based iteration index within its plan segment.
    iteration: int
    #: Convergence delta (the error-curve observation) after the update.
    delta: float
    #: Simulated cluster clock at the end of the iteration.
    clock: float


@dataclasses.dataclass
class PlanSegment:
    """One contiguous run of a single plan within a training run.

    A one-shot run has exactly one segment; every mid-flight plan switch
    starts a new one.  Predicted quantities are the optimizer's
    cost-model view at the moment the segment was chosen; observed
    quantities come from the executor telemetry.
    """

    plan: str
    algorithm: str
    predicted_iterations: int
    predicted_per_iteration_s: float
    predicted_total_s: float
    #: Calibration factors already baked into the predictions above.
    #: Observed/predicted ratios are *relative* to these; composing them
    #: back in recovers the absolute observed/base-model factor (without
    #: this, a calibrated store would see ratio ~1 on every later run
    #: and decay its learned factors toward the square root of the true
    #: mis-estimate).
    applied_cost_factor: float = 1.0
    applied_iterations_factor: float = 1.0
    iterations: int = 0
    sim_seconds: float = 0.0
    converged: bool = False
    stopped_by_monitor: bool = False
    #: Mean simulated seconds per loop iteration, measured from the
    #: telemetry clock gaps so one-time costs (Stage, eager Transform)
    #: are excluded -- the predicted_per_iteration_s it is compared
    #: against is per-iteration-only too.  0 when telemetry could not
    #: measure it (fewer than 2 iterations observed).
    observed_per_iteration_s: float = 0.0
    #: Observed (iteration, delta) error curve of this segment.
    deltas: list = dataclasses.field(default_factory=list)
    #: Simulated seconds per phase, for this segment only.
    phase_seconds: dict = dataclasses.field(default_factory=dict)
    #: Transfer-policy notes applied when this segment's entry state was
    #: derived from the previous segment (empty for the first segment).
    state_transfer: list = dataclasses.field(default_factory=list)
    #: True for the in-flight prefix of a segment captured by a mid-run
    #: checkpoint: the run was still inside this segment when the
    #: snapshot was taken, so its totals are not final.  A resume keeps
    #: the prefix -- it is the crashed process's genuinely executed
    #: history -- and continues with new segments after it.  (Additive
    #: format-2 field; older readers drop it.)
    partial: bool = False

    @property
    def effective_per_iteration_s(self) -> float:
        """Observed per-iteration cost, falling back to the crude
        whole-segment mean (which includes one-time costs) only when
        telemetry could not measure clock gaps."""
        if self.observed_per_iteration_s > 0:
            return self.observed_per_iteration_s
        if self.iterations <= 0:
            return 0.0
        return self.sim_seconds / self.iterations

    @property
    def cost_ratio(self) -> float:
        """Observed / predicted per-iteration cost (1.0 when unknown)."""
        if self.predicted_per_iteration_s <= 0 or self.iterations <= 0:
            return 1.0
        return self.effective_per_iteration_s / self.predicted_per_iteration_s

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "PlanSegment":
        return cls(**known_fields(cls, payload))


@dataclasses.dataclass
class SwitchEvent:
    """One mid-flight plan switch decision."""

    #: Global iteration index (across segments) at which the switch fired.
    iteration: int
    from_plan: str
    to_plan: str
    #: Human-readable divergence diagnosis from the convergence monitor.
    reason: str
    #: Simulated clock at the switch.
    clock: float

    def to_dict(self) -> dict:
        return field_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "SwitchEvent":
        return cls(**known_fields(cls, payload))


@dataclasses.dataclass
class ExecutionTrace:
    """Everything one (possibly adaptive) training run observed."""

    workload: str
    cluster_signature: str
    tolerance: float
    segments: list = dataclasses.field(default_factory=list)
    switches: list = dataclasses.field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.segments)

    @property
    def sim_seconds(self) -> float:
        return sum(s.sim_seconds for s in self.segments)

    @property
    def converged(self) -> bool:
        return bool(self.segments) and self.segments[-1].converged

    @property
    def switched(self) -> bool:
        return bool(self.switches)

    @property
    def all_deltas(self) -> list:
        """The run's full error sequence: per-segment deltas
        concatenated in execution order (the trajectory resume-
        equivalence checks compare bit-for-bit)."""
        return [d for segment in self.segments for d in segment.deltas]

    def with_partial(self, segment) -> "ExecutionTrace":
        """A checkpointable snapshot: this trace's completed segments
        plus one in-flight ``partial`` segment.  The segment lists are
        copied, so mutating the live trace afterwards does not reach
        into an already-written checkpoint."""
        return ExecutionTrace(
            workload=self.workload,
            cluster_signature=self.cluster_signature,
            tolerance=self.tolerance,
            segments=list(self.segments) + [segment],
            switches=list(self.switches),
        )

    def summary(self) -> str:
        plans = " -> ".join(s.plan for s in self.segments) or "(no segments)"
        status = "converged" if self.converged else "not converged"
        return (
            f"{self.workload}: {plans}, {self.total_iterations} iterations, "
            f"{status}, {self.sim_seconds:.2f}s simulated, "
            f"{len(self.switches)} switch(es)"
        )

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "trace_format": TRACE_FORMAT,
            "workload": self.workload,
            "cluster_signature": self.cluster_signature,
            "tolerance": self.tolerance,
            "segments": [s.to_dict() for s in self.segments],
            "switches": [s.to_dict() for s in self.switches],
        }

    @classmethod
    def from_dict(cls, payload) -> "ExecutionTrace":
        return cls(
            workload=payload["workload"],
            cluster_signature=payload["cluster_signature"],
            tolerance=payload["tolerance"],
            segments=[PlanSegment.from_dict(s) for s in payload["segments"]],
            switches=[SwitchEvent.from_dict(s) for s in payload["switches"]],
        )

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path) -> "ExecutionTrace":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def segment_from_result(result, estimate,
                        observed_per_iteration_s=None,
                        state_transfer=None) -> PlanSegment:
    """Build a :class:`PlanSegment` from a TrainResult + PlanCostEstimate.

    ``observed_per_iteration_s`` should come from the telemetry
    monitor's clock gaps (one-time costs excluded); without it the
    segment falls back to the whole-run mean.  ``state_transfer`` lists
    the carry/drop notes of the transfer that produced this segment's
    entry state.
    """
    breakdown = estimate.breakdown or {}
    return PlanSegment(
        plan=str(result.plan),
        algorithm=result.plan.algorithm,
        predicted_iterations=int(estimate.estimated_iterations),
        predicted_per_iteration_s=float(estimate.per_iteration_s),
        predicted_total_s=float(estimate.total_s),
        applied_cost_factor=float(
            breakdown.get("calibration:cost_factor", 1.0)
        ),
        applied_iterations_factor=float(
            breakdown.get("calibration:iterations_factor", 1.0)
        ),
        iterations=int(result.iterations),
        sim_seconds=float(result.sim_seconds),
        converged=bool(result.converged),
        stopped_by_monitor=bool(result.stopped_by_monitor),
        observed_per_iteration_s=float(observed_per_iteration_s or 0.0),
        deltas=[float(d) for d in result.deltas],
        phase_seconds={k: float(v) for k, v in result.phase_seconds.items()},
        state_transfer=list(state_transfer or []),
    )
