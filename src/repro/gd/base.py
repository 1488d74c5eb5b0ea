"""The canonical gradient-descent loop shared by all GD variants.

This is the *mathematical* reference implementation: pure numpy, no
simulated cluster.  It is used (a) by the speculation-based iterations
estimator, which runs GD on a small sample under a wall-clock budget
(Algorithm 1), (b) as ground truth in tests, and (c) by the plan executor,
which performs the same per-iteration math while charging the simulated
clock through engine primitives.

The loop follows the paper's operator semantics:

    Stage    -> w0 = 0, iteration counter, step size state
    Sample   -> ``batch_selector(i, rng)`` picks the data units
    Compute  -> mean task gradient over the batch
    Update   -> w <- w - alpha_i * direction(grad)
    Converge -> delta = criterion(w_old, w_new)   (L1 by default)
    Loop     -> stop when delta < tolerance or i = max_iter
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import PlanError
from repro.gd.convergence import make_convergence
from repro.gd.state import OptimizerState, capture_rng, restore_rng
from repro.gd.step_size import make_step_size, with_offset


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
    """Direction strategy: maps the raw gradient to an update direction.

    Vanilla GD uses the gradient itself.  Adaptive variants (momentum,
    AdaGrad, Adam) keep internal state -- the paper's abstraction supports
    them because Update is a UDF ("Our abstraction allows the
    implementation of any GD algorithm regardless of the step size and
    other hyperparameters", Section 4.4).
    """

    name = "vanilla"

    def reset(self, d) -> None:
        """Prepare state for a d-dimensional problem."""

    def direction(self, grad, i) -> np.ndarray:
        """Update direction for *global* iteration ``i`` (1-based).

        Resumed segments pass ``offset + local_i`` so stateful variants
        (notably Adam's bias correction) continue where they left off.
        """
        return grad

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the internal buffers ({} if none)."""
        return {}

    def load_state(self, buffers) -> None:
        """Restore buffers captured by :meth:`state_dict` (after reset)."""


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
    permutation to draw (no RNG consumed) and no rows to gather.
    """
    if batch_size < 1:
        raise PlanError("batch size must be >= 1")
    if batch_size >= n:
        return full_batch_selector

    def select(i, rng):
        if batch_size == 1:
            return np.array([rng.integers(0, n)])
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
    """Run the canonical GD loop; returns :class:`GDRunResult`.

    ``time_budget_s`` stops the loop once the *wall-clock* budget is
    consumed (Algorithm 1 uses this during speculation).
    ``iteration_callback(i, w, delta)`` is invoked after each iteration;
    returning True stops the loop early -- but convergence always wins:
    a run that reaches the tolerance on its stopping iteration reports
    ``converged=True`` (the same ordering as
    :class:`~repro.core.executor.PlanExecutor`).

    ``state`` resumes a stopped run from its exported
    :class:`~repro.gd.state.OptimizerState`: the step schedule and the
    updater continue at global iteration ``state.iteration_offset + 1``
    (never back at 1), matching updater buffers are restored, and the
    RNG stream picks up exactly where it left off -- together with
    ``w0`` set to the stopped run's weights this makes stop-and-resume
    bit-identical to an uninterrupted run.  Every run exports a fresh
    snapshot in ``GDRunResult.state``.

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
    offset = 0
    if state is not None:
        offset = int(state.iteration_offset)
        restore_rng(rng, state.rng_state)
    step = with_offset(step_size, offset)
    criterion = make_convergence(convergence)
    updater = updater or Updater()
    updater.reset(d)
    if state is not None and state.updater_buffers \
            and state.updater == updater.name:
        updater.load_state(state.updater_buffers)

    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=float).copy()
    if w.shape != (d,):
        raise PlanError(f"w0 must have shape ({d},), got {w.shape}")

    def snapshot(completed) -> OptimizerState:
        return OptimizerState(
            iteration_offset=offset + completed,
            updater=updater.name,
            updater_buffers=updater.state_dict(),
            rng_state=capture_rng(rng),
        )

    deltas = []
    losses = [] if record_loss else None
    converged = False
    start = time.perf_counter()
    iterations = 0

    # Full-batch runs read X, y in place: X[slice(None)] would build a
    # fresh view (a whole new matrix, for CSR) every iteration.
    in_place = batch_selector is full_batch_selector
    Xb, yb = X, y

    for i in range(1, max_iter + 1):
        if not in_place:
            batch = batch_selector(offset + i, rng)
            Xb, yb = X[batch], y[batch]
        grad = gradient.gradient(w, Xb, yb)
        w_new = w - step.step(i) * updater.direction(grad, offset + i)
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
