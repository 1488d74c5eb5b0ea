"""Uniform access to the GD algorithm zoo.

The paper's search space "is fully parameterized based on the number of GD
algorithms ... there could be tens of GD algorithms that the user might
want to evaluate" (Section 6).  This registry is that parameterization
point: every algorithm -- the three fundamental variants the optimizer
enumerates by default (BGD / MGD / SGD), the Appendix C acceleration
SVRG, the adaptive-direction variants, and any plugin registered at
runtime -- is one step kernel behind one
:class:`~repro.gd.spec.AlgorithmSpec`, and every layer of the system
(kernel construction, state transfer, costing, speculation, plan
enumeration) consults the spec instead of branching on the algorithm's
name.

:func:`register` is the plugin entry point; ``repro.gd.grad_avg`` and
``repro.gd.arc`` register themselves through it at import time.
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.gd.base import (
    AdaGradUpdater,
    AdamUpdater,
    MomentumUpdater,
    Updater,
    make_minibatch_selector,
    full_batch_selector,
    run_loop,
)
from repro.gd.spec import AlgorithmSpec, CostTerms
from repro.gd.svrg import SVRGUpdater


def _svrg_transfer(payload, target_algorithm, notes):
    """Cross-plan policy: anchors never survive a switch."""
    notes.append("svrg anchor dropped: anchor and mu are "
                 "recomputed on segment entry")
    return None


ALGORITHMS = {}


def spec_for_namespace(namespace):
    """The spec owning one ``algorithm_state`` namespace, or None."""
    for spec in ALGORITHMS.values():
        if spec.state_namespace == namespace:
            return spec
    return None


def register(spec, replace=False) -> AlgorithmSpec:
    """Register one :class:`AlgorithmSpec`; returns it for chaining.

    ``replace=True`` allows re-registering an existing name (tests,
    notebooks); otherwise a duplicate name -- or a duplicate
    ``state_namespace`` claimed by a different algorithm -- is refused.
    """
    if not isinstance(spec, AlgorithmSpec):
        raise PlanError(
            f"register() takes an AlgorithmSpec, not {type(spec).__name__}"
        )
    if spec.name in ALGORITHMS and not replace:
        raise PlanError(
            f"GD algorithm {spec.name!r} is already registered; pass "
            "replace=True to override it"
        )
    if spec.state_namespace is not None:
        owner = spec_for_namespace(spec.state_namespace)
        if owner is not None and owner.name != spec.name:
            raise PlanError(
                f"state namespace {spec.state_namespace!r} is already "
                f"owned by algorithm {owner.name!r}"
            )
    ALGORITHMS[spec.name] = spec
    return spec


register(AlgorithmSpec("bgd", None, False, "batch gradient descent"))
register(AlgorithmSpec("mgd", 1000, True, "mini-batch gradient descent"))
register(AlgorithmSpec(
    "sgd", 1, True, "stochastic gradient descent",
    # SGD is single-sample by definition; a batch_size override would
    # silently turn it into MGD.
    batch_size_fixed=True,
))
register(AlgorithmSpec(
    "svrg", 1, True, "stochastic variance-reduced gradient (Appendix C)",
    batch_size_fixed=True,
    make_updater=SVRGUpdater,
    state_namespace=SVRGUpdater.state_namespace,
    transfer_state=_svrg_transfer,
))
register(AlgorithmSpec(
    "momentum", 1000, True, "MGD with Polyak momentum",
    make_updater=MomentumUpdater,
))
register(AlgorithmSpec(
    "adagrad", 1000, True, "MGD with AdaGrad scaling",
    make_updater=AdaGradUpdater,
))
register(AlgorithmSpec(
    "adam", 1000, True, "MGD with Adam direction",
    make_updater=AdamUpdater,
))

#: The variants the cost-based optimizer enumerates by default (Figure 5).
CORE_ALGORITHMS = ("bgd", "mgd", "sgd")


def info(name) -> AlgorithmSpec:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise PlanError(
            f"unknown GD algorithm {name!r}; expected one of {sorted(ALGORITHMS)}"
        ) from None


def updater_for(name):
    """A fresh step kernel for the algorithm (None for vanilla GD)."""
    spec = ALGORITHMS.get(name)
    if spec is None or spec.make_updater is None:
        return None
    return spec.make_updater()


def cost_terms(name) -> CostTerms:
    """The algorithm's cost-model correction terms (identity by default)."""
    return info(name).cost


def speculation_overrides(name) -> dict:
    """Per-algorithm SpeculationSettings field overrides ({} = none)."""
    return info(name).speculation_overrides


def batch_rows(spec, n, batch_size):
    """Rows one iteration of the algorithm reads out of ``n``."""
    if spec.default_batch_size is None:
        return n
    if spec.batch_size_fixed or batch_size is None:
        return spec.default_batch_size
    return batch_size


def selector_for(name, n, batch_size=None):
    """The :func:`run_loop` batch selector the algorithm uses."""
    spec = info(name)
    if spec.default_batch_size is None:
        return full_batch_selector
    return make_minibatch_selector(n, batch_rows(spec, n, batch_size))


def trial_key(name, n, batch_size=None):
    """Identity of the computation :func:`run` performs on ``n`` rows.

    Two algorithms with equal keys run the same GD loop -- same rows
    per iteration, same kernel factory, same speculation overrides --
    so under one seed they produce the same error sequence and the
    estimator runs that trial once.  Derived from spec fields only.
    """
    spec = info(name)
    return (
        min(batch_rows(spec, n, batch_size), n),
        spec.make_updater,
        tuple(sorted(spec.speculation_overrides.items())),
    )


def batch_overrides(batch) -> dict:
    """Per-algorithm batch_sizes for a user-requested mini-batch size.

    A ``batch=`` request applies to every registered algorithm that
    actually takes a tunable mini-batch (``default_batch_size`` set and
    not ``batch_size_fixed``); full-batch algorithms and fixed-batch
    ones (SGD's single sample, SVRG/Arc inner loops) keep their
    semantics.  Returns ``{}`` for ``batch=None``.
    """
    if batch is None:
        return {}
    return {
        name: int(batch)
        for name, spec in ALGORITHMS.items()
        if spec.default_batch_size is not None and not spec.batch_size_fixed
    }


def training_step(kernel, training):
    """The step size a run trains ``kernel`` at: the kernel's own
    constant when it declares one, else ``training.step_size``.

    The plan executor and the baselines both train at it.  Known gap
    (docs/ARCHITECTURE.md): speculation runs SVRG and Arc at
    ``training.step_size`` (:func:`run`'s step_size, read as a
    constant).
    """
    if kernel.constant_step is not None:
        return kernel.constant_step
    return training.step_size


def make_operators(plan, d, training, iteration_offset=0):
    """The executor's operator bundle for one plan: the reference
    operators driving the algorithm's step kernel."""
    from repro.core.reference_ops import default_operators

    kernel = updater_for(plan.algorithm) or Updater()
    return default_operators(
        d=d,
        gradient=training.gradient(),
        batch_size=plan.effective_batch_size,
        step_size=training_step(kernel, training),
        tolerance=training.tolerance,
        max_iter=training.max_iter,
        convergence=training.convergence,
        updater=kernel,
        iteration_offset=iteration_offset,
    )


def run(name, X, y, gradient, batch_size=None, **kwargs):
    """Run any registered algorithm on in-memory data (pure math).

    ``kwargs`` are :func:`~repro.gd.base.run_loop`'s (``step_size``,
    ``tolerance``, ``max_iter``, ``rng``, ``time_budget_s``, ...); an
    unknown one is ``run_loop``'s own ``TypeError``.
    """
    selector = selector_for(name, X.shape[0], batch_size)
    updater = updater_for(name)
    if updater is not None:
        kwargs["updater"] = updater
    return run_loop(X, y, gradient, selector, **kwargs)
