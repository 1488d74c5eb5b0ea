"""Benchmark: adaptive runtime vs one-shot under a perturbed cost model.

Extension benchmark (not a paper figure).  The cost model is perturbed
to under-estimate one algorithm by >= 2x, making the one-shot optimizer
mis-pick it; the acceptance bars are:

* adaptive training converges to the target epsilon with lower total
  simulated cost than the one-shot mis-pick;
* the repeated service request is answered from re-costed cached
  speculation (one optimization computed for two requests) and does not
  need any mid-flight switch.
"""

import re

from _helpers import run_once

from repro.experiments.registry import run_experiment


def test_adaptive_vs_one_shot(benchmark, ctx, emit):
    tables = run_once(benchmark, lambda: run_experiment("ext_adaptive", ctx))
    emit(tables, "ext_adaptive")
    table = tables[0]

    one_shot = table.row_for(mode="one-shot perturbed")
    adaptive = table.row_for(mode="adaptive perturbed")
    repeat = table.row_for(mode="calibrated repeat")

    # The monitor must notice the mis-pick and switch at least once.
    assert adaptive["switches"] >= 1
    # Adaptive training beats riding the mis-picked plan to the end.
    assert adaptive["sim_s"] < one_shot["sim_s"]
    # The calibrated repeat needs no switching: the corrected cost model
    # picks a sound plan up front, and cheaper than the mis-pick.
    assert repeat["switches"] == 0
    assert repeat["sim_s"] < one_shot["sim_s"]
    # The experiment's own note records the no-re-speculation property.
    assert any("recalibrated from cached speculation" in note
               for note in table.notes)


def test_switch_heavy_state_carryover(benchmark, ctx, emit):
    """Switch-heavy momentum/adam scenario: the full optimizer state is
    carried across mid-flight switches, so the run converges instead of
    paying a beta/sqrt(1) schedule restart (and zeroed updater buffers)
    on every switch."""
    tables = run_once(
        benchmark, lambda: run_experiment("ext_adaptive_switch", ctx)
    )
    emit(tables, "ext_adaptive_switch")
    table = tables[0]

    carried = table.row_for(mode="state carried")

    # The mis-pick must actually be noticed: the run switches, and still
    # reaches the target (a restarted schedule rides the iteration cap).
    assert carried["switches"] >= 1
    assert carried["converged"]
    # The resumed segment's first step size is continuous -- it picks up
    # the beta/sqrt(i) schedule at global k+1, not beta/sqrt(1).
    continuity = next(
        note for note in table.notes if "step size continuous" in note
    )
    resumed_at = int(re.search(r"beta/sqrt\((\d+)\)", continuity).group(1))
    assert resumed_at > 1
    # The transfer policy is recorded in the trace.
    assert any(note.startswith("state transfer:") for note in table.notes)
