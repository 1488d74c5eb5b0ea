"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Simulated platform failures (e.g. a baseline system
running out of memory on the simulated cluster, as SystemML does in the
paper's Section 8.4) are modelled as exceptions too, because the benchmark
harness needs to record them as "failed" cells exactly like the paper does.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class QueryError(ReproError):
    """A declarative query could not be parsed or validated."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            location += f", column {column})" if column is not None else ")"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PlanError(ReproError):
    """A GD plan is malformed or cannot be executed."""


class ConstraintError(ReproError):
    """A user constraint (time / epsilon / max_iter) cannot be satisfied.

    Mirrors the paper's behaviour: "If the system cannot satisfy any of
    these constraints, it informs the user which constraint she has to
    revisit" (Appendix A).
    """

    def __init__(self, constraint, message):
        super().__init__(f"constraint '{constraint}' cannot be satisfied: {message}")
        self.constraint = constraint


class EstimationError(ReproError):
    """The speculation-based iterations estimator could not produce a fit."""


class SimulatedPlatformError(ReproError):
    """Base class for failures of the *simulated* execution platform."""


class SimulatedOutOfMemory(SimulatedPlatformError):
    """The simulated system exceeded its memory budget.

    The paper reports SystemML failing "with out of memory exceptions" on
    the dense synthetic datasets and the Bismarck abstraction failing for
    rcv1 (many features) and svm1 (many points).  Baselines raise this so
    the harness can record the failure.
    """

    def __init__(self, system, needed_bytes, budget_bytes):
        super().__init__(
            f"{system}: simulated allocation of {needed_bytes} bytes exceeds "
            f"memory budget of {budget_bytes} bytes"
        )
        self.system = system
        self.needed_bytes = needed_bytes
        self.budget_bytes = budget_bytes


class SimulatedTimeout(SimulatedPlatformError):
    """A run exceeded its (simulated) wall-clock budget.

    The paper stops MLlib/SystemML runs after 3 hours in several
    experiments; the harness uses this exception to record those cells.
    """

    def __init__(self, system, elapsed_s, budget_s):
        super().__init__(
            f"{system}: simulated time {elapsed_s:.1f}s exceeded budget {budget_s:.1f}s"
        )
        self.system = system
        self.elapsed_s = elapsed_s
        self.budget_s = budget_s


class DataFormatError(ReproError):
    """An input file (e.g. LIBSVM text) could not be parsed."""
