"""The :class:`OptimizerState`: everything a GD run is besides its weights.

The paper's premise for cheap mid-flight plan switches is that "the model
state survives" the switch -- but the model state is more than the weight
vector.  The MLlib step schedule ``beta/sqrt(i)`` has a *position*;
momentum/AdaGrad/Adam keep direction buffers; Adam's bias correction
depends on the global iteration count; SVRG owns an anchor point and its
full-batch gradient; the sampler and the driver RNG have streams mid-way
through.  Restarting any of these at a switch silently re-runs the early,
large-step regime of the schedule -- a giant ``beta/sqrt(1)`` step that
can undo hundreds of iterations of progress and poisons the telemetry the
calibration loop learns from.

:class:`OptimizerState` is the JSON-round-trippable snapshot of all of
it.  Both drivers of a step kernel -- :func:`~repro.gd.base.run_loop`
and :class:`~repro.core.executor.PlanExecutor` -- export one on every
exit (graceful stops included) and import one on resume, so

    run(N iterations)  ==  run(k) -> snapshot -> resume(N - k)

holds **bit-identically** for same-algorithm segments.

**Cross-algorithm transfer policy** (:meth:`OptimizerState.transfer_to`),
applied by the adaptive trainer when a switch changes the plan:

* the **iteration offset always carries** -- the schedule position is part
  of the optimizer's state, not a per-plan detail: a resumed segment
  continues at global iteration ``k + 1``, never restarts at 1;
* **updater buffers carry when the target updater matches** the one that
  wrote them, and are dropped with a recorded ``state_transfer`` note
  otherwise (an AdaGrad accumulator means nothing to Adam);
* **SVRG recomputes its anchor on segment entry** -- anchor/``mu`` are
  dropped so the first iteration of the new segment takes a fresh
  full-batch gradient at the carried weights;
* **sampler cursors are dropped** on a plan change (they are positions
  inside a specific plan's sampling strategy), while the **RNG stream
  carries** so a switched run never replays the sample sequence it
  already consumed.

The weight vector itself is *not* duplicated here: every caller already
carries it (``TrainResult.weights`` / ``initial_weights``).  Neither is
the Converge operator's previous-weights memory: its delta is taken
between successive iterates, so the previous iterate of a resume *is*
the resumed weights, and the executor primes Converge from them.
"""

from __future__ import annotations

import dataclasses

from repro.errors import PlanError

#: Format version of one serialized OptimizerState snapshot.  Bump when
#: the payload shape changes incompatibly; readers refuse newer formats
#: (resume from an unreadable snapshot would be silently wrong).
#: Format 2: namespaced ``algorithm_state`` dict keyed by each spec's
#: ``state_namespace``.
STATE_FORMAT = 2

#: Canonical updater name of vanilla (buffer-free) gradient descent.
VANILLA = "vanilla"


def known_fields(cls, payload) -> dict:
    """Subset of ``payload`` limited to ``cls``'s declared dataclass
    fields.

    The forward-compatibility rule shared by every JSON-round-tripped
    dataclass in the carry-over/trace stack: a payload written by a
    newer format must degrade to its readable subset on older-shaped
    readers, never raise ``TypeError`` at construction -- and a payload
    written before a field was deleted (e.g. a format-2 state's
    ``convergence``) loses the deleted key the same way.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in payload.items() if k in known}


def field_dict(obj) -> dict:
    """``obj``'s dataclass fields as ``{name: value}`` in declaration
    order, values shared, not copied.

    The ``to_dict`` of every dataclass on the checkpoint path: their
    values are already plain JSON data and the dict is encoded to text a
    moment later, so ``dataclasses.asdict`` -- which deep-copies every
    float of every nested list on the way -- did the encoder's walk
    twice.  The result shares its leaves with ``obj``; whoever keeps it
    past the next mutation of ``obj`` copies what it needs.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def capture_rng(rng) -> dict | None:
    """JSON-serializable snapshot of a numpy Generator's stream position.

    The bit-generator state dict contains only strings and (arbitrary
    precision) ints, which JSON round-trips exactly.
    """
    if rng is None:
        return None
    return dict(rng.bit_generator.state)


def restore_rng(rng, payload) -> None:
    """Put ``rng`` exactly where :func:`capture_rng` observed it."""
    if payload is not None:
        rng.bit_generator.state = payload


def kernel_fields(kernel) -> dict:
    """The :class:`OptimizerState` fields holding one step kernel's
    state: under its ``state_namespace`` when it has one, as named
    ``updater_buffers`` otherwise."""
    payload = kernel.state_dict()
    if kernel.state_namespace is None:
        return {"updater": kernel.name, "updater_buffers": payload}
    return {"updater": kernel.name,
            "algorithm_state": {kernel.state_namespace: payload}
            if payload else {}}


def load_kernel(kernel, state) -> None:
    """Restore into ``kernel`` what :func:`kernel_fields` stored for it
    in ``state``; a snapshot holding nothing of its leaves it fresh."""
    if kernel.state_namespace is not None:
        payload = state.algorithm_state.get(kernel.state_namespace)
    elif state.updater == kernel.name:
        payload = state.updater_buffers
    else:
        payload = None
    if payload:
        kernel.load_state(payload)


@dataclasses.dataclass
class OptimizerState:
    """JSON-round-trippable snapshot of a GD run's non-weight state.

    All array-valued fields hold plain lists (not numpy arrays), so
    ``to_dict`` is a shallow affair -- one new dict over the same field
    values (:func:`field_dict`), nothing copied -- and ``json.dumps``
    works on it directly.  That is safe because a snapshot's leaves are
    never written to after it is built: exporters fill it with fresh
    ``tolist()`` output, importers copy into their own arrays, and
    :meth:`transfer_to` builds new containers around the values it
    carries.
    """

    #: Global iterations already completed: a resumed segment's local
    #: iteration ``i`` runs the schedule/updater at ``offset + i``.
    iteration_offset: int = 0
    #: Canonical name of the updater that owns ``updater_buffers``
    #: (e.g. ``"momentum(0.9)"``, ``"adam"``, ``"vanilla"``).
    updater: str = VANILLA
    #: Updater buffers by buffer name (momentum velocity, AdaGrad
    #: accumulator, Adam moments), as nested float lists.
    updater_buffers: dict = dataclasses.field(default_factory=dict)
    #: Per-algorithm private state, keyed by each registered spec's
    #: ``state_namespace`` (e.g. ``{"svrg": {"w_bar": [...], "mu": [...],
    #: "last_anchor": int}}``).  Algorithms without private state never
    #: appear here; the owning spec's ``transfer_state`` hook decides
    #: what survives a plan switch.
    algorithm_state: dict = dataclasses.field(default_factory=dict)
    #: numpy bit-generator state of the driver RNG (sample draws), or
    #: None when the run had no stochastic component.
    rng_state: dict | None = None
    #: Plan-specific sampler cursors (e.g. the shuffled-partition
    #: sampler's permutation + position), or None.
    sampler: dict | None = None
    #: Transfer-policy notes: what the last :meth:`transfer_to` carried
    #: and what it dropped (human-readable, recorded into the trace).
    notes: list = dataclasses.field(default_factory=list)

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict:
        payload = field_dict(self)
        payload["state_format"] = STATE_FORMAT
        return payload

    @classmethod
    def from_dict(cls, payload) -> "OptimizerState":
        """Decode a snapshot; tolerant of unknown keys (newer writers may
        add fields), strict about newer format versions."""
        fmt = payload.get("state_format", STATE_FORMAT)
        if fmt > STATE_FORMAT:
            raise PlanError(
                f"optimizer-state format {fmt} is newer than supported "
                f"{STATE_FORMAT}; refusing to resume from it"
            )
        return cls(**known_fields(cls, payload))

    # -- transfer policy -------------------------------------------------
    def transfer_to(self, algorithm) -> "OptimizerState":
        """State to hand the next plan segment when the plan *changes*.

        Returns a new :class:`OptimizerState`; ``notes`` on the result
        records every carry/drop decision (the adaptive trainer writes
        them into the segment's ``state_transfer`` field).  Same-plan
        continuations should pass the state through untouched instead --
        this method implements the *cross-plan* policy.
        """
        # local import: registry imports gd.base, which imports this module
        from repro.gd.registry import spec_for_namespace, updater_for

        target = updater_for(algorithm)
        target_name = target.name if target is not None else VANILLA
        notes = [f"iteration offset {self.iteration_offset} carried: "
                 f"schedule resumes at global iteration "
                 f"{self.iteration_offset + 1}"]

        buffers = {}
        if self.updater_buffers:
            if self.updater == target_name:
                buffers = self.updater_buffers
                notes.append(f"{self.updater} buffers carried "
                             f"(target updater matches)")
            else:
                notes.append(f"{self.updater} buffers dropped: target "
                             f"updater is {target_name}")
        carried_state = {}
        for namespace, payload in self.algorithm_state.items():
            if payload is None:
                continue
            owner = spec_for_namespace(namespace)
            if owner is not None and owner.transfer_state is not None:
                kept = owner.transfer_state(payload, algorithm, notes)
                if kept is not None:
                    carried_state[namespace] = kept
            else:
                notes.append(f"{namespace} state dropped on plan switch "
                             "(no transfer policy registered)")
        if self.sampler is not None:
            notes.append("sampler cursors dropped (plan-specific); "
                         "rng stream carried")
        return OptimizerState(
            iteration_offset=self.iteration_offset,
            updater=target_name,
            updater_buffers=buffers,
            algorithm_state=carried_state,
            rng_state=self.rng_state,
            sampler=None,
            notes=notes,
        )
