"""Workload fingerprints for the optimizer plan cache.

The cost model's view of a workload is fully determined by the dataset
*statistics* (Table 1 quantities), the training spec and the cluster
spec -- not by the physical arrays.  Two optimize() calls whose
``(DatasetStats, TrainingSpec, ClusterSpec)`` triples match therefore
walk the exact same search space, and with a fixed iteration count they
reach the exact same decision, so the second call can be answered from
a cache keyed by a digest of that triple.  When speculation runs, the
T(epsilon) estimates come from GD trials on the *actual* data; the
service then mixes the dataset's content digest into the key (see
:meth:`OptimizerService.fingerprint`).

Fingerprints are deterministic **across processes** (no memory
addresses, no hash randomization -- everything goes through
:func:`freeze` and SHA-256), which is what makes the persistent plan
store (:mod:`repro.service.backends`) sound: a restarted service
recomputes the same key for the same workload and finds the persisted
entry.
"""

from __future__ import annotations

import dataclasses
import hashlib


def freeze(value, as_field=False):
    """Deterministic, hashable canonical form of a config value.

    Dataclasses become ``(class name, sorted (field, value) pairs)``;
    mappings and sequences recurse; plain objects (e.g. step-size
    schedules) become ``(class name, sorted instance attributes)`` and
    functions/classes their qualified name -- never the default
    ``repr``, whose embedded memory address would make equal configs
    fingerprint differently (and, worse, recycled addresses make
    *different* configs collide).

    ``as_field`` freezes a dataclass field as ``dataclasses.asdict``
    left it (which persisted fingerprints digested): a dataclass in it,
    even in a list, tuple or dict, is its bare field pairs.

    A mapping's keys freeze as ``str(key)``; keys that print alike
    (``'0'`` and ``0``) also carry their type name, so two such entries
    neither merge nor get their values compared by the sort.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = _frozen_fields(value)
        return fields if as_field else (type(value).__name__, fields)
    if isinstance(value, dict):
        names = [str(k) for k in value]
        clash = len(set(names)) < len(names)
        return tuple(sorted(
            (name, type(k).__name__, freeze(v, as_field))
            if clash and names.count(name) > 1
            else (name, freeze(v, as_field))
            for name, (k, v) in zip(names, value.items())
        ))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v, as_field) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((freeze(v) for v in value), key=repr))
    if callable(value) and hasattr(value, "__qualname__"):
        # Functions and classes: identity is the qualified name.
        return (getattr(value, "__module__", ""), value.__qualname__)
    state = getattr(value, "__dict__", None)
    if state is not None and type(value).__repr__ is object.__repr__:
        # Plain objects without a meaningful repr: canonicalize their
        # attribute state (covers the StepSize schedule classes).
        return (
            type(value).__name__,
            tuple(sorted((k, freeze(v)) for k, v in state.items())),
        )
    return repr(value)


def _frozen_fields(value, skip=()):
    """Sorted ``(field, frozen value)`` pairs of a dataclass instance."""
    return tuple(sorted(
        (field.name, freeze(getattr(value, field.name), as_field=True))
        for field in dataclasses.fields(value) if field.name not in skip
    ))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def memo_key(*parts):
    """Hashable stand-in for config values, equal only when their
    :func:`freeze` forms print alike; None when that cannot be told
    without freezing them.

    A dataclass contributes its class and instance state, a tuple its
    items, anything else itself -- and every leaf must be a plain
    scalar, kept beside its type: ``1``, ``1.0`` and ``True`` compare
    and hash alike but freeze (so fingerprint) differently.  A leaf of
    any other type -- a step-size schedule object hashes by identity,
    which is no identity across requests -- yields None.  (``0.0`` and
    ``-0.0`` do share a slot: one workload, whichever spelling came
    first.)
    """
    key = []
    for part in parts:
        if type(part) is tuple:
            values = part
        elif hasattr(part, "__dataclass_fields__"):
            values = tuple(vars(part).values())
        else:
            values = (part,)
        types = tuple(map(type, values))
        if not _SCALARS.issuperset(types):
            return None
        key.append((type(part), values, types))
    return tuple(key)


def workload_parts(stats, spec, **extra) -> tuple:
    """The canonical text of a workload's payload around its training
    spec, as ``(head, tail)``: what a service's requests share.

    ``repr`` of the 4-tuple payload is ``"(" + a + ", " + b + ", " + c
    + ", " + d + ")"``, so ``head + repr(freeze(training)) + tail`` is
    the same text, byte for byte -- and a caller that keeps the parts
    per value renders only the training spec per request.
    """
    extra = tuple(sorted((k, freeze(v)) for k, v in extra.items()))
    return (f"({freeze(stats)!r}, ",
            f", {freeze(spec)!r}, {extra!r})")


def workload_fingerprint(stats, training, spec, parts=None, **extra) -> str:
    """Digest of one optimization workload.

    ``stats``/``training``/``spec`` are the cache identity mandated by
    the cost model; ``extra`` lets callers mix in anything else that
    changes the optimizer's answer (algorithm set, batch-size overrides,
    fixed iteration counts, speculation settings, seeds).  ``parts`` is
    :func:`workload_parts` of the same values, when the caller kept it.
    """
    head, tail = parts or workload_parts(stats, spec, **extra)
    text = head + repr(freeze(training)) + tail
    return hashlib.sha256(text.encode()).hexdigest()


def trial_context_digest(data_digest, gradient, step_size, convergence,
                         seed, speculation) -> str:
    """Digest of what a speculative trial reads besides its algorithm.

    Algorithm 1 runs GD on a sample of the data until the *speculation*
    tolerance, the iteration cap or the budget; the desired tolerance
    only enters when the fitted curve is evaluated.  So a trial is
    determined by the data (``data_digest``: D' is a seeded draw from
    it), the task gradient, the step, the convergence criterion, the
    estimator ``seed`` and the ``speculation`` settings apart from the
    curve family -- and by nothing else a request carries: not its
    tolerance, ``max_iter``, time budget or algorithm set, not the
    cluster, the ``DatasetStats`` or the pricing state.  Together with
    :func:`repro.gd.registry.trial_key` (which algorithms run the same
    loop, under which per-algorithm setting overrides) it keys the
    service's :class:`~repro.core.iterations.TrialMemo`.
    """
    payload = (
        data_digest,
        freeze(gradient),
        freeze(step_size),
        convergence,
        seed,
        _frozen_fields(speculation, skip=("model",)),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()
