"""Stochastic variance-reduced gradient (SVRG), Appendix C / Algorithm 2.

SVRG mixes BGD with SGD: every ``update_frequency`` iterations it computes
a full-batch gradient ``mu`` at an anchor point ``w_bar``, and in between
it takes SGD steps whose variance is reduced by the control variate
``grad_i(w) - grad_i(w_bar) + mu``.  The paper expresses it in the
seven-operator abstraction by "flattening" the nested loops with an
if-else on the iteration counter (Listing 8); :class:`SVRGUpdater` is
exactly that if-else, as a step kernel both drivers run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.gd.base import Updater


class SVRGUpdater(Updater):
    """Anchor passes every ``update_frequency`` *global* iterations.

    The cadence cursor is the global iteration of the last anchor, so a
    resumed run keeps the anchor schedule, ``w_bar`` and ``mu`` -- no
    early re-anchor inside an epoch -- while a kernel entered without
    SVRG state (a fresh run, or a cross-algorithm plan switch) anchors
    on its first iteration, at the carried weights.  For fresh runs this
    is the paper's ``(i % m) - 1 == 0`` schedule.
    """

    state_namespace = "svrg"
    constant_step = 0.05

    def __init__(self, update_frequency=50):
        if update_frequency < 2:
            raise PlanError("update_frequency must be >= 2")
        self.m = int(update_frequency)
        self._w_bar = self._mu = self._last_anchor = None

    def reset(self, d):
        self._w_bar = np.zeros(d)
        self._mu = np.zeros(d)
        self._last_anchor = None

    def full_pass(self, i):
        return self._last_anchor is None or i - self._last_anchor >= self.m

    def points(self, w, i):
        return (w,) if self.full_pass(i) else (w, self._w_bar)

    def apply(self, w, alpha, grads, i):
        if self.full_pass(i):
            self._w_bar = w.copy()
            self._mu = grads[0]
            self._last_anchor = i
            return w - alpha * self._mu
        g_w, g_bar = grads
        return w - alpha * (g_w - g_bar + self._mu)

    def state_dict(self):
        if self._w_bar is None:
            return {}
        return {
            "w_bar": self._w_bar.tolist(),
            "mu": self._mu.tolist(),
            "last_anchor": self._last_anchor,
        }

    def load_state(self, buffers):
        self._w_bar = np.asarray(buffers["w_bar"], dtype=float)
        self._mu = np.asarray(buffers["mu"], dtype=float)
        self._last_anchor = buffers.get("last_anchor")
