"""The step kernel every GD algorithm is, and the loop that drives it.

An :class:`Updater` is one algorithm's whole mathematics: which
iterations are full passes, where the gradient is evaluated, how the
mean gradients become the next weights, and the private state that has
to survive a stop.  :func:`run_loop` drives a kernel as pure numpy --
no simulated cluster -- for (a) the speculation-based iterations
estimator, which runs GD on a small sample under a wall-clock budget
(Algorithm 1), (b) the baselines, which charge their simulated cluster
from its per-iteration callback, and (c) ground truth in tests; the
plan executor drives the *same* kernel through the reference Compute /
Update operators while charging the simulated clock.

The loop follows the paper's operator semantics:

    Stage    -> w0 = 0, iteration counter, step size state
    Sample   -> ``batch_selector(i, rng)`` picks the data units
                (skipped on the kernel's full passes)
    Compute  -> mean task gradient over the batch, at each of the
                kernel's points
    Update   -> w <- kernel.apply(w, alpha_i, gradients, i)
    Converge -> delta = criterion(w_old, w_new)   (L1 by default)
    Loop     -> stop when delta < tolerance or i = max_iter
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import PlanError
from repro.gd.convergence import make_convergence
from repro.gd.gradients import take_rows
from repro.gd.state import (
    OptimizerState,
    capture_rng,
    kernel_fields,
    load_kernel,
    restore_rng,
)
from repro.gd.step_size import ConstantStep, make_step_size, with_offset


@dataclasses.dataclass
class GDRunResult:
    """Outcome of one pure-math GD run."""

    weights: np.ndarray
    iterations: int
    converged: bool
    #: delta_i for each completed iteration (the error sequence the
    #: iterations estimator fits; Algorithm 1 line 7).
    deltas: np.ndarray
    elapsed_s: float
    losses: np.ndarray | None = None
    #: Carry-over snapshot at exit (schedule position, updater buffers,
    #: RNG stream); feed it back as ``state=`` to resume bit-identically.
    state: OptimizerState | None = None

    @property
    def final_delta(self) -> float:
        return float(self.deltas[-1]) if len(self.deltas) else float("inf")


class Updater:
    """One GD algorithm's step kernel: the whole per-algorithm contract.

    The defaults are vanilla GD -- every iteration reads the sampled
    batch, takes the gradient at ``w`` and steps along it.  Direction
    variants (momentum, AdaGrad, Adam) override :meth:`direction` only;
    algorithms with a cadence of full passes or a second evaluation
    point (SVRG, Arc GD) override :meth:`full_pass`, :meth:`points` and
    :meth:`apply`.  The paper's abstraction supports all of them because
    Update is a UDF ("Our abstraction allows the implementation of any
    GD algorithm regardless of the step size and other hyperparameters",
    Section 4.4).

    Both drivers -- :func:`run_loop` and the reference Compute/Update
    operators inside the plan executor -- hold one kernel instance per
    run and call, for each *global* iteration ``i`` (1-based; resumed
    segments pass ``offset + local_i``): :meth:`full_pass`, then
    :meth:`points`, then :meth:`apply`.  Only :meth:`apply` may change
    the kernel's state.
    """

    name = "vanilla"
    #: Key under ``OptimizerState.algorithm_state`` that holds this
    #: kernel's :meth:`state_dict` (the owning spec's
    #: ``state_namespace``); None stores it as ``updater_buffers``,
    #: restored only into a kernel of the same ``name``.
    state_namespace = None
    #: Set by constant-step algorithms (SVRG's analysis assumes one,
    #: matching [15]'s usage): a *number* as ``step_size`` then means a
    #: constant, not the MLlib ``beta/sqrt(i)`` default, and the plan
    #: executor trains at this constant instead of the run's step.
    constant_step = None

    def reset(self, d) -> None:
        """Prepare state for a d-dimensional problem."""

    def schedule(self, step_size):
        """The step schedule a run's ``step_size`` means to this kernel."""
        if self.constant_step is not None \
                and isinstance(step_size, (int, float)):
            return ConstantStep(step_size)
        return make_step_size(step_size)

    def full_pass(self, i) -> bool:
        """Whether iteration ``i`` reads the whole dataset, not a sample."""
        return False

    def points(self, w, i) -> tuple:
        """Where iteration ``i`` needs the batch's mean gradient."""
        return (w,)

    def apply(self, w, alpha, grads, i) -> np.ndarray:
        """New weights from the mean gradients at :meth:`points`."""
        return w - alpha * self.direction(grads[0], i)

    def direction(self, grad, i) -> np.ndarray:
        """Update direction for iteration ``i`` (Adam's bias correction
        is why it sees the global count)."""
        return grad

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the internal state ({} if none)."""
        return {}

    def load_state(self, buffers) -> None:
        """Restore state captured by :meth:`state_dict` (after reset)."""


class MomentumUpdater(Updater):
    """Polyak momentum: v <- gamma v + grad; direction v."""

    def __init__(self, gamma=0.9):
        if not 0.0 <= gamma < 1.0:
            raise PlanError("momentum gamma must be in [0, 1)")
        self.gamma = float(gamma)
        self.name = f"momentum({gamma:g})"
        self._v = None

    def reset(self, d):
        self._v = np.zeros(d)

    def direction(self, grad, i):
        self._v = self.gamma * self._v + grad
        return self._v

    def state_dict(self):
        return {} if self._v is None else {"v": self._v.tolist()}

    def load_state(self, buffers):
        if "v" in buffers:
            self._v = np.asarray(buffers["v"], dtype=float)


class AdaGradUpdater(Updater):
    """AdaGrad: per-coordinate scaling by accumulated squared gradients."""

    def __init__(self, eps=1e-8):
        self.eps = float(eps)
        self.name = "adagrad"
        self._acc = None

    def reset(self, d):
        self._acc = np.zeros(d)

    def direction(self, grad, i):
        self._acc += grad * grad
        return grad / (np.sqrt(self._acc) + self.eps)

    def state_dict(self):
        return {} if self._acc is None else {"acc": self._acc.tolist()}

    def load_state(self, buffers):
        if "acc" in buffers:
            self._acc = np.asarray(buffers["acc"], dtype=float)


class AdamUpdater(Updater):
    """Adam with bias correction."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.name = "adam"
        self._m = None
        self._v = None

    def reset(self, d):
        self._m = np.zeros(d)
        self._v = np.zeros(d)

    def direction(self, grad, i):
        self._m = self.beta1 * self._m + (1 - self.beta1) * grad
        self._v = self.beta2 * self._v + (1 - self.beta2) * grad * grad
        m_hat = self._m / (1 - self.beta1 ** i)
        v_hat = self._v / (1 - self.beta2 ** i)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        if self._m is None:
            return {}
        return {"m": self._m.tolist(), "v": self._v.tolist()}

    def load_state(self, buffers):
        if "m" in buffers:
            self._m = np.asarray(buffers["m"], dtype=float)
        if "v" in buffers:
            self._v = np.asarray(buffers["v"], dtype=float)


def full_batch_selector(i, rng):
    """BGD: every iteration touches the whole dataset."""
    return slice(None)


def make_minibatch_selector(n, batch_size):
    """Uniform mini-batch selector of ``batch_size`` rows (SGD: size 1).

    A batch covering all ``n`` rows is :func:`full_batch_selector`:
    drawing n of n without replacement is the whole set, so there is no
    permutation to draw (no RNG consumed) and no rows to gather.  A
    single row is a slice, not an index array: for dense ``X``,
    ``X[j:j + 1]`` is a view where ``X[[j]]`` is a fancy-index gather
    (CSR rows go through :func:`~repro.gd.gradients.take_rows`).
    """
    if batch_size < 1:
        raise PlanError("batch size must be >= 1")
    if batch_size >= n:
        return full_batch_selector
    if batch_size == 1:
        def select(i, rng):
            j = rng.integers(0, n)
            return slice(j, j + 1)
    else:
        def select(i, rng):
            return rng.choice(n, size=batch_size, replace=False)

    return select


def run_loop(
    X,
    y,
    gradient,
    batch_selector,
    step_size=1.0,
    tolerance=1e-3,
    max_iter=1000,
    convergence="l1",
    w0=None,
    updater=None,
    rng=None,
    record_loss=False,
    time_budget_s=None,
    iteration_callback=None,
    state=None,
    state_every=None,
    state_callback=None,
):
    """Drive one step kernel (``updater``; vanilla GD by default) over
    in-memory data; returns :class:`GDRunResult`.

    ``step_size`` is read through the kernel's
    :meth:`~Updater.schedule`.  On the kernel's full passes the selector
    is not consulted (no RNG consumed) and ``X, y`` are read in place.

    ``time_budget_s`` stops the loop once the *wall-clock* budget is
    consumed (Algorithm 1 uses this during speculation).
    ``iteration_callback(i, w, delta)`` is invoked after each iteration
    (the baselines charge their simulated cluster and check their
    simulated time limit there); returning True stops the loop early --
    but convergence always wins:
    a run that reaches the tolerance on its stopping iteration reports
    ``converged=True`` (the same ordering as
    :class:`~repro.core.executor.PlanExecutor`).

    ``state`` resumes a stopped run from its exported
    :class:`~repro.gd.state.OptimizerState`: the step schedule and the
    kernel continue at global iteration ``state.iteration_offset + 1``
    (never back at 1), the kernel's own state (direction buffers,
    SVRG's anchor, Arc's phase) is restored when the snapshot holds it
    -- a kernel entered without it starts fresh, so SVRG re-anchors and
    Arc re-probes on its first iteration -- and the RNG stream picks up
    exactly where it left off.  Together with ``w0`` set to the stopped
    run's weights this makes stop-and-resume bit-identical to an
    uninterrupted run.  Every run exports a fresh snapshot in
    ``GDRunResult.state``.

    ``state_every``/``state_callback`` export snapshots *mid-run*, on a
    cadence of global iterations, without perturbing the run:
    ``state_callback(global_iteration, weights_copy, OptimizerState)``
    fires whenever the loop passes a multiple of ``state_every`` and
    keeps going -- the checkpoint substrate of preemptible training
    (resuming from any snapshot reproduces the remaining iterations
    bit-identically).  Iterations the loop *exits* on are not exported
    here; the final ``GDRunResult.state`` covers them.
    """
    n, d = X.shape
    if n == 0:
        raise PlanError("cannot train on an empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    updater = updater or Updater()
    updater.reset(d)
    offset = 0
    if state is not None:
        offset = int(state.iteration_offset)
        restore_rng(rng, state.rng_state)
        load_kernel(updater, state)
    step = with_offset(updater.schedule(step_size), offset)
    criterion = make_convergence(convergence)

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=float).copy()
    if w.shape != (d,):
        raise PlanError(f"w0 must have shape ({d},), got {w.shape}")

    def snapshot(completed) -> OptimizerState:
        return OptimizerState(
            iteration_offset=offset + completed,
            rng_state=capture_rng(rng),
            **kernel_fields(updater),
        )

    deltas = []
    losses = [] if record_loss else None
    converged = False
    start = time.perf_counter()
    iterations = 0

    # Full-batch runs read X, y in place: X[slice(None)] would build a
    # fresh view (a whole new matrix, for CSR) every iteration.
    in_place = batch_selector is full_batch_selector

    for i in range(1, max_iter + 1):
        gi = offset + i
        if in_place or updater.full_pass(gi):
            Xb, yb = X, y
        else:
            batch = batch_selector(gi, rng)
            Xb, yb = take_rows(X, batch), y[batch]
        grads = [gradient.gradient(p, Xb, yb) for p in updater.points(w, gi)]
        w_new = updater.apply(w, step.step(i), grads, gi)
        delta = criterion.delta(w, w_new)
        w = w_new
        deltas.append(delta)
        if record_loss:
            losses.append(gradient.loss(w, X, y))
        iterations = i
        stop_requested = (
            iteration_callback is not None
            and iteration_callback(i, w, delta)
        )
        if delta < tolerance:
            converged = True
            break
        if stop_requested:
            break
        if time_budget_s is not None and time.perf_counter() - start > time_budget_s:
            break
        if (state_every is not None and state_callback is not None
                and i < max_iter
                and (offset + i) % state_every == 0):
            state_callback(offset + i, w.copy(), snapshot(i))

    return GDRunResult(
        weights=w,
        iterations=iterations,
        converged=converged,
        deltas=np.asarray(deltas),
        elapsed_s=time.perf_counter() - start,
        losses=np.asarray(losses) if record_loss else None,
        state=snapshot(iterations),
    )
