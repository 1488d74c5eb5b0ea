"""Step-size schedules.

The paper fixes the step size to MLlib's hard-coded schedule beta/sqrt(i)
with beta = 1 across all systems and algorithms (Section 8.1), but the
iterations estimator is explicitly demonstrated on other adaptive
schedules as well (Appendix E, Figures 15-16: 1/sqrt(i), 1/i, 1/i^2).
"""

from __future__ import annotations

import math

from repro.errors import PlanError


class StepSize:
    """Interface: step(i) -> alpha_i for 1-based iteration i."""

    name = "base"

    def step(self, i) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, i) -> float:
        return self.step(i)


class ConstantStep(StepSize):
    """alpha_i = alpha."""

    def __init__(self, alpha=1.0):
        if alpha <= 0:
            raise PlanError("step size must be positive")
        self.alpha = float(alpha)
        self.name = f"constant({alpha:g})"

    def step(self, i):
        return self.alpha


class InverseSqrtStep(StepSize):
    """alpha_i = beta / sqrt(i) -- MLlib's default, used in all experiments."""

    def __init__(self, beta=1.0):
        if beta <= 0:
            raise PlanError("step size must be positive")
        self.beta = float(beta)
        self.name = f"1/sqrt(i) (beta={beta:g})"

    def step(self, i):
        return self.beta / math.sqrt(i)


class InverseStep(StepSize):
    """alpha_i = beta / i (Figure 15(b), 16)."""

    def __init__(self, beta=1.0):
        if beta <= 0:
            raise PlanError("step size must be positive")
        self.beta = float(beta)
        self.name = f"1/i (beta={beta:g})"

    def step(self, i):
        return self.beta / i


class InverseSquaredStep(StepSize):
    """alpha_i = beta / i^2 (Figure 15(c))."""

    def __init__(self, beta=1.0):
        if beta <= 0:
            raise PlanError("step size must be positive")
        self.beta = float(beta)
        self.name = f"1/i^2 (beta={beta:g})"

    def step(self, i):
        return self.beta / (i * i)


class OffsetStep(StepSize):
    """Resume wrapper: evaluates a schedule at ``i + offset``.

    A training segment that resumes after ``offset`` completed global
    iterations keeps counting locally from 1; wrapping its schedule in
    an :class:`OffsetStep` makes ``step(1)`` continue the decay at
    global iteration ``offset + 1`` instead of restarting at the
    schedule's (largest) first step -- for the MLlib default that
    restart would be a full ``beta/sqrt(1)`` step capable of undoing
    hundreds of iterations of progress.
    """

    def __init__(self, base, offset):
        if offset < 0:
            raise PlanError("iteration offset must be >= 0")
        self.base = make_step_size(base)
        self.offset = int(offset)
        self.name = f"{self.base.name} @+{self.offset}"

    def step(self, i):
        return self.base.step(i + self.offset)


def with_offset(spec, offset=0) -> StepSize:
    """Schedule for a resumed segment: ``spec`` shifted by ``offset``.

    ``offset=0`` returns the plain schedule (no wrapper in the fresh
    path); an already-wrapped schedule composes (offsets add).
    """
    base = make_step_size(spec)
    if not offset:
        return base
    if isinstance(base, OffsetStep):
        return OffsetStep(base.base, base.offset + int(offset))
    return OffsetStep(base, offset)


_FACTORIES = {
    "constant": ConstantStep,
    "inv_sqrt": InverseSqrtStep,
    "1/sqrt(i)": InverseSqrtStep,
    "inv": InverseStep,
    "1/i": InverseStep,
    "inv_sq": InverseSquaredStep,
    "1/i^2": InverseSquaredStep,
}


def make_step_size(spec=1.0):
    """Build a step schedule from a flexible spec.

    * a number       -> MLlib schedule ``beta/sqrt(i)`` with that beta
      (this is what the language's ``step 1`` means);
    * a `StepSize`   -> returned unchanged;
    * a name         -> one of constant / inv_sqrt / inv / inv_sq, with
      an optional ``name:beta`` suffix (e.g. ``"1/i:0.5"``).
    """
    if isinstance(spec, StepSize):
        return spec
    if isinstance(spec, (int, float)):
        return InverseSqrtStep(beta=float(spec))
    if isinstance(spec, str):
        name, _, beta_str = spec.partition(":")
        name = name.strip().lower()
        if name not in _FACTORIES:
            raise PlanError(
                f"unknown step-size schedule {name!r}; expected one of "
                f"{sorted(set(_FACTORIES))}"
            )
        beta = float(beta_str) if beta_str else 1.0
        return _FACTORIES[name](beta)
    raise PlanError(f"cannot build a step size from {spec!r}")
