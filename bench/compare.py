"""``run.py --compare A.json B.json``: one row per (workload, end-to-end
metric) of two result sets, judged against the bounds BENCHMARK.json
fixes.

A is the base.  A metric *regressed* when B's median is worse than A's
by more than its bound; it is *unresolved*, not unchanged, when either
side's own run-to-run spread (quartile distance over median, three or
more runs) is wider than the bound -- unless every run of B reads better
than every run of A.  Exact counts of the traced run are listed as
``same`` / ``changed``; informational numbers carry no verdict.
"""

from __future__ import annotations

import json
import math
import os
import statistics

from layers import EXACT_COUNTS
from stats import quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Informational end-to-end numbers of mixed_open (no bound).
INFO_KEYS = (*(f"open.latency_p90_ms_{rate}"
               for rate in ("r_low", "r_mid", "r_high")),
             "open.max_rate_in_slo_rps", "open.generator_lag_p95_ms",
             "failed_share")


def load_bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def verdict(a_values, b_values, bound, better) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(a_values), statistics.median(b_values)
    if any(math.isnan(v) for v in (a, b)):
        return "regressed"
    spreads = [quartile_spread(values)
               for values in (a_values, b_values) if len(values) >= 3]
    if any(spread > bound for spread in spreads):
        all_better = (max(sign * v for v in b_values)
                      < min(sign * v for v in a_values))
        if not all_better:
            return "unresolved"
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    return "regressed" if worse_by > bound else "ok"


def _values(entry, section, key) -> list:
    return [run[section][key] for run in entry["runs"]
            if key in run[section]]


def main(path_a, path_b) -> int:
    with open(path_a) as handle:
        set_a = json.load(handle)
    with open(path_b) as handle:
        set_b = json.load(handle)
    bounds = load_bounds()
    print(f"base A = {path_a} (seed {set_a['seed']}, {set_a['seconds']}s)")
    print(f"     B = {path_b} (seed {set_b['seed']}, {set_b['seconds']}s)")
    header = (f"{'workload':14s} {'metric':30s} {'A':>12s} {'B':>12s} "
              f"{'B/A':>7s} {'bound':>6s}  verdict")
    print(header)
    regressed = False
    for name, entry_a in set_a["workloads"].items():
        entry_b = set_b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:14s} missing from B")
            regressed = True
            continue
        for metric, (bound, better) in bounds.items():
            a_values = _values(entry_a, "metrics", metric)
            b_values = _values(entry_b, "metrics", metric)
            if not a_values or not b_values:
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            outcome = verdict(a_values, b_values, bound, better)
            regressed |= outcome == "regressed"
            print(f"{name:14s} {metric:30s} {a:12.5g} {b:12.5g} "
                  f"{b / a if a else float('nan'):7.3f} {bound:6.3f}  "
                  f"{outcome}  (n={len(a_values)}/{len(b_values)}, "
                  f"{better} is better)")
        for key in INFO_KEYS:
            a_values = _values(entry_a, "info", key)
            b_values = _values(entry_b, "info", key)
            if a_values and b_values:
                a = statistics.median(a_values)
                b = statistics.median(b_values)
                print(f"{name:14s} {key:30s} {a:12.5g} {b:12.5g} "
                      f"{b / a if a else float('nan'):7.3f} {'-':>6s}  info")
        for section in ("attempted", "failed"):
            a = statistics.median(run[section] for run in entry_a["runs"])
            b = statistics.median(run[section] for run in entry_b["runs"])
            print(f"{name:14s} {section:30s} {a:12.5g} {b:12.5g} "
                  f"{'':7s} {'-':>6s}  info")
        if any(run["failed"] for run in entry_b["runs"]) and not any(
                run["failed"] for run in entry_a["runs"]):
            print(f"{name:14s} operations fail in B that did not in A: "
                  "regressed")
            regressed = True
        if entry_a.get("trace") and entry_b.get("trace"):
            for key in EXACT_COUNTS:
                a = entry_a["trace"]["metrics"].get(key)
                b = entry_b["trace"]["metrics"].get(key)
                if a or b:
                    print(f"{name:14s} {key:30s} {a:12.5g} {b:12.5g} "
                          f"{'':7s} {'-':>6s}  "
                          f"{'same' if a == b else 'changed'}")
    print("verdict:", "regressed" if regressed else "no regression")
    return 1 if regressed else 0
