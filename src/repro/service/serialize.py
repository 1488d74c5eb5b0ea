"""JSON-serializable form of cached optimizer decisions.

The plan cache's value is everything a later process needs to *not*
repeat work: the chosen plan, the full candidate ranking, and -- most
importantly -- the speculation artifacts (fitted error curves and the
raw ``(iteration, error)`` observations behind them).  With those
persisted, a restarted service can

* serve a previously seen workload without touching the optimizer at
  all (fresh entry), or
* re-cost it from the persisted :class:`IterationsEstimate` objects when
  the calibration store moved on (stale entry) -- calibrated estimates
  without ever re-running speculative GD trials.

Everything here is plain-JSON (dicts, lists, floats, strings), so any
:class:`~repro.service.backends.CacheBackend` can store entries as text.
Numpy arrays (the speculation error observations) become nested lists
and are restored as ``float`` arrays.

**Versioning.**  Every entry carries ``entry_format``
(:data:`ENTRY_FORMAT`).  Deserialization refuses entries written by a
different format version -- the caller treats them like any other
unreadable entry and falls back to computing fresh.  The calibration
stamp (``calibration_digest``) is orthogonal: a readable entry whose
stamp no longer matches the live calibration state is *re-costed*, not
discarded.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.curve_fit import FittedCurve
from repro.core.iterations import IterationsEstimate
from repro.core.plans import GDPlan
from repro.core.result import OptimizationReport, PlanCostEstimate
from repro.errors import ReproError
from repro.runtime.calibration import Correction

#: Format version of one serialized plan-store entry.  Bump whenever the
#: payload shape changes incompatibly; old entries are then skipped at
#: load time (cold compute for those workloads, never a wrong answer).
#:
#: Version 2 coincides with the optimizer-state carry-over runtime
#: (``runtime.trace.TRACE_FORMAT`` 2): adaptive executions now continue
#: step schedules and updater buffers across plan switches, so the
#: iteration/cost predictions cached by format-1 services were priced
#: against restart semantics -- serving them would feed the calibration
#: loop observed/predicted ratios computed under a different execution
#: model.  Old entries cold-compute once and re-enter at format 2.
ENTRY_FORMAT = 2


class PlanStoreError(ReproError):
    """A persisted plan-store entry could not be decoded."""


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------
def plan_to_dict(plan) -> dict:
    return {
        "algorithm": plan.algorithm,
        "transform_mode": plan.transform_mode,
        "sampling": plan.sampling,
        "batch_size": plan.batch_size,
    }


def curve_to_dict(curve) -> dict:
    return {
        "model": curve.model,
        "params": [float(p) for p in curve.params],
        "r2": float(curve.r2),
        "n_points": int(curve.n_points),
    }


def estimate_to_dict(estimate) -> dict:
    return {
        "algorithm": estimate.algorithm,
        "target_tolerance": float(estimate.target_tolerance),
        "estimated_iterations": int(estimate.estimated_iterations),
        "curve": curve_to_dict(estimate.curve),
        "speculation_errors": np.asarray(
            estimate.speculation_errors, dtype=float
        ).tolist(),
        "speculation_iterations": int(estimate.speculation_iterations),
        "speculation_wall_s": float(estimate.speculation_wall_s),
        "observed_directly": bool(estimate.observed_directly),
    }


def candidate_to_dict(candidate) -> dict:
    return {
        "plan": plan_to_dict(candidate.plan),
        "estimated_iterations": int(candidate.estimated_iterations),
        "one_time_s": float(candidate.one_time_s),
        "per_iteration_s": float(candidate.per_iteration_s),
        "total_s": float(candidate.total_s),
        "breakdown": {k: float(v) for k, v in candidate.breakdown.items()},
        "feasible": bool(candidate.feasible),
    }


def report_to_dict(report) -> dict:
    """Serialize one :class:`OptimizationReport` to plain JSON types."""
    return {
        "chosen": candidate_to_dict(report.chosen),
        "candidates": [candidate_to_dict(c) for c in report.candidates],
        "iteration_estimates": (
            None if report.iteration_estimates is None else {
                alg: estimate_to_dict(est)
                for alg, est in report.iteration_estimates.items()
            }
        ),
        "optimizer_wall_s": float(report.optimizer_wall_s),
        "speculation_sim_s": float(report.speculation_sim_s),
        "corrections": (
            None if report.corrections is None else {
                alg: dataclasses.asdict(c)
                for alg, c in report.corrections.items()
            }
        ),
    }


def entry_to_dict(report, calibration_version, calibration_digest,
                  written_at=None) -> dict:
    """One persisted plan-store entry: report + its pricing stamp.

    The stamp is the calibration store's *state digest* at pricing time
    (:meth:`CalibrationStore.state_digest`): unlike the version counter
    it is comparable across store lifetimes and across processes, so a
    restarted (or sibling) service recognises exactly whether the entry
    was priced under the correction factors it currently serves.  The
    version rides along for human inspection of the store file.

    ``written_at`` (unix seconds, default: now) is what
    ``repro cache --compact --ttl`` ages entries out by.  It is an
    additive format-2 field -- entries written before it existed decode
    with ``written_at=None`` and are treated as un-ageable.
    """
    return {
        "entry_format": ENTRY_FORMAT,
        "calibration_version": int(calibration_version),
        "calibration_digest": str(calibration_digest),
        "written_at": float(time.time() if written_at is None else written_at),
        "report": report_to_dict(report),
    }


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------
def plan_from_dict(payload) -> GDPlan:
    return GDPlan(
        algorithm=payload["algorithm"],
        transform_mode=payload["transform_mode"],
        sampling=payload["sampling"],
        batch_size=payload["batch_size"],
    )


def curve_from_dict(payload) -> FittedCurve:
    return FittedCurve(
        model=payload["model"],
        params=tuple(float(p) for p in payload["params"]),
        r2=float(payload["r2"]),
        n_points=int(payload["n_points"]),
    )


def estimate_from_dict(payload) -> IterationsEstimate:
    return IterationsEstimate(
        algorithm=payload["algorithm"],
        target_tolerance=float(payload["target_tolerance"]),
        estimated_iterations=int(payload["estimated_iterations"]),
        curve=curve_from_dict(payload["curve"]),
        speculation_errors=np.asarray(
            payload["speculation_errors"], dtype=float
        ),
        speculation_iterations=int(payload["speculation_iterations"]),
        speculation_wall_s=float(payload["speculation_wall_s"]),
        observed_directly=bool(payload["observed_directly"]),
    )


def candidate_from_dict(payload) -> PlanCostEstimate:
    return PlanCostEstimate(
        plan=plan_from_dict(payload["plan"]),
        estimated_iterations=int(payload["estimated_iterations"]),
        one_time_s=float(payload["one_time_s"]),
        per_iteration_s=float(payload["per_iteration_s"]),
        total_s=float(payload["total_s"]),
        breakdown=dict(payload["breakdown"]),
        feasible=bool(payload["feasible"]),
    )


def report_from_dict(payload) -> OptimizationReport:
    estimates = payload["iteration_estimates"]
    corrections = payload["corrections"]
    return OptimizationReport(
        chosen=candidate_from_dict(payload["chosen"]),
        candidates=[candidate_from_dict(c) for c in payload["candidates"]],
        iteration_estimates=(
            None if estimates is None else {
                alg: estimate_from_dict(est)
                for alg, est in estimates.items()
            }
        ),
        optimizer_wall_s=float(payload["optimizer_wall_s"]),
        speculation_sim_s=float(payload["speculation_sim_s"]),
        corrections=(
            None if corrections is None else {
                alg: Correction.from_dict(c)
                for alg, c in corrections.items()
            }
        ),
    )


def entry_from_dict(payload) -> tuple:
    """Decode one entry; returns ``(report, calibration_version,
    calibration_digest, written_at)`` where ``written_at`` is None for
    entries persisted before the stamp existed (compaction never ages
    them out).

    Raises :class:`PlanStoreError` on a format-version mismatch or any
    structural problem -- the caller skips the entry (cold compute),
    it never trusts a partially decoded one.
    """
    try:
        fmt = payload["entry_format"]
        if fmt != ENTRY_FORMAT:
            raise PlanStoreError(
                f"plan-store entry format {fmt!r} != supported "
                f"{ENTRY_FORMAT}; entry ignored"
            )
        written_at = payload.get("written_at")
        return (
            report_from_dict(payload["report"]),
            int(payload["calibration_version"]),
            str(payload["calibration_digest"]),
            None if written_at is None else float(written_at),
        )
    except PlanStoreError:
        raise
    except Exception as exc:
        raise PlanStoreError(
            f"malformed plan-store entry: {exc}"
        ) from exc
