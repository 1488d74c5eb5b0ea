"""Phase-aware Arc GD (arXiv 2512.06737), as a pure registry plugin.

Arc GD runs stochastic GD in two phases separated by a gradient-norm
arc.  Every ``probe_every`` iterations it takes a *full-batch* gradient
probe; the first probe's norm becomes the baseline ``norm0``, and once a
probe's norm falls to ``switch_threshold * norm0`` the algorithm
switches from phase 1 (constant step, fast descent through the
high-gradient region) to phase 2 (``alpha / sqrt(t - t_switch + 1)``
decay, annealing into the flat region).  Probe iterations are
productive -- they step along the full gradient, like SVRG's anchor
passes -- so the probes buy both the phase signal and a variance-free
step.

The module is the whole plugin: :class:`ArcUpdater`, the step kernel
both drivers run (speculation and the baselines through
:func:`~repro.gd.base.run_loop`, real training through the reference
operators of the plan executor, which prices the probes as full-batch
passes), and one :func:`~repro.gd.registry.register` call whose spec
adds the cross-plan ``transfer_state`` policy and
``CostTerms(full_pass_fraction=1/probe_every)`` so the optimizer prices
the periodic full passes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.gd.base import Updater
from repro.gd.registry import register
from repro.gd.spec import AlgorithmSpec, CostTerms

#: Default cadence of full-batch gradient probes.
DEFAULT_PROBE_EVERY = 20


class ArcUpdater(Updater):
    """Probe cadence, phase bookkeeping and the two-phase step rule.

    The cadence cursor is the *global* iteration of the last probe, like
    SVRG's anchor: resumed runs keep the probe schedule, the phase, the
    gradient-norm baseline and the switch iteration, and a kernel
    entered without Arc state (after a cross-algorithm switch) re-probes
    and re-baselines on its first iteration.  The run's step ``alpha_i``
    is the phase-1 step and the phase-2 numerator; a *number* means a
    constant, as for SVRG.
    """

    state_namespace = "arc"
    constant_step = 0.05

    def __init__(self, probe_every=DEFAULT_PROBE_EVERY, switch_threshold=0.5):
        if probe_every < 2:
            raise PlanError("probe_every must be >= 2")
        if not 0.0 < switch_threshold < 1.0:
            raise PlanError("switch_threshold must be in (0, 1)")
        self.m = int(probe_every)
        self.threshold = float(switch_threshold)
        self.reset(None)

    def reset(self, d):
        self._phase = 1
        self._norm0 = self._switched_at = self._last_probe = None

    def full_pass(self, i):
        return self._last_probe is None or i - self._last_probe >= self.m

    def apply(self, w, alpha, grads, i):
        g = grads[0]
        if self.full_pass(i):
            self._last_probe = i
            norm = float(np.linalg.norm(g))
            if self._norm0 is None:
                self._norm0 = norm
            elif self._phase == 1 and norm <= self.threshold * self._norm0:
                self._phase = 2
                self._switched_at = i
        if self._phase == 2:
            alpha = alpha / np.sqrt(i - self._switched_at + 1)
        return w - alpha * g

    def state_dict(self):
        return {
            "phase": self._phase,
            "norm0": self._norm0,
            "switched_at": self._switched_at,
            "last_probe": self._last_probe,
        }

    def load_state(self, buffers):
        self._phase = int(buffers["phase"])
        self._norm0 = buffers.get("norm0")
        self._switched_at = buffers.get("switched_at")
        self._last_probe = buffers.get("last_probe")


def _arc_transfer(payload, target_algorithm, notes):
    """Cross-plan policy: the norm baseline is plan-specific; re-probe."""
    notes.append("arc phase dropped: gradient-norm baseline is re-probed "
                 "on segment entry")
    return None


register(AlgorithmSpec(
    "arc", 1, True,
    "phase-aware Arc GD with full-batch gradient probes (arXiv 2512.06737)",
    batch_size_fixed=True,
    make_updater=ArcUpdater,
    state_namespace=ArcUpdater.state_namespace,
    transfer_state=_arc_transfer,
    cost=CostTerms(full_pass_fraction=1.0 / DEFAULT_PROBE_EVERY),
))
