"""Enumeration of the GD plan search space (Figure 5).

Combining transformation and sampling choices yields, for the three core
algorithms, exactly 11 plans:

    BGD : eager                                  (1 plan)
    MGD : eager x {bernoulli, random, shuffle}
          lazy  x {random, shuffle}              (5 plans)
    SGD : same five                              (5 plans)

"Our search space size is fully parameterized based on the number of GD
algorithms and optimizations that need to be evaluated" (Section 6):
passing extra registered stochastic algorithms (svrg, momentum, ...)
grows the space by five plans each.
"""

from __future__ import annotations

from repro.core.plans import GDPlan
from repro.gd import registry as gd_registry

#: The (transform_mode, sampling) combinations valid for stochastic plans.
STOCHASTIC_VARIANTS = (
    ("eager", "bernoulli"),
    ("eager", "random"),
    ("eager", "shuffle"),
    ("lazy", "random"),
    ("lazy", "shuffle"),
)


def plans_for_algorithm(algorithm, batch_size=None):
    """All valid plans for one algorithm.

    A spec may pin its own ``plan_variants`` (``(transform_mode,
    sampling)`` pairs); otherwise the Figure 5 defaults apply -- one
    eager plan for full-batch algorithms, the five stochastic variants
    for stochastic ones.
    """
    info = gd_registry.info(algorithm)
    variants = info.plan_variants
    if variants is None:
        variants = STOCHASTIC_VARIANTS if info.stochastic else (("eager", None),)
    return [
        GDPlan(algorithm, mode, sampling, batch_size)
        for mode, sampling in variants
    ]


#: (algorithms, batch sizes, ids of their registered specs) -> (the
#: specs, plans) of the spaces enumerated; emptied when it reaches 64.
_SPACES = {}


def enumerate_plans(algorithms=gd_registry.CORE_ALGORITHMS, batch_sizes=None):
    """The full search space for the given algorithms.

    ``batch_sizes`` optionally maps algorithm name -> batch size override
    (e.g. ``{"mgd": 10_000}``).  Plans are built once per registered spec.
    """
    batch_sizes = batch_sizes or {}
    algorithms = tuple(algorithms)
    specs = tuple(map(gd_registry.ALGORITHMS.get, algorithms))
    key = (algorithms, tuple(map(batch_sizes.get, algorithms)),
           tuple(map(id, specs)))
    entry = _SPACES.get(key)
    if entry is None:
        entry = specs, [plan for algorithm in algorithms
                        for plan in plans_for_algorithm(
                            algorithm, batch_sizes.get(algorithm))]
        if len(_SPACES) >= 64:
            _SPACES.clear()
        _SPACES[key] = entry
    return list(entry[1])


def space_size(algorithms=gd_registry.CORE_ALGORITHMS) -> int:
    """Number of plans the optimizer will cost for these algorithms."""
    return len(enumerate_plans(algorithms))
