"""Per-layer metrics derived from one traced replay.

Timings are medians over the calls of the replay (p95 and the call
count go to the printed table and the trace file); counts are exact and
repeat bit-for-bit for one (seed, seconds).  A layer the workload does
not reach reports 0.
"""

from __future__ import annotations

from stats import attributed_times, percentile, self_times
from workloads import ALL_ALGORITHMS

ALGORITHMS = tuple(ALL_ALGORITHMS.split(","))

_PER_ALGORITHM = (
    ("iterations.estimate_ms.{}", "ms", "lower"),
    ("iterations.spec_iters.{}", "count", "lower"),
    ("gd.us_per_iter.{}", "us", "lower"),
)

#: (name, unit, better) of every per-layer metric, in report order.
SPECS = (
    ("frontend.parse_us", "us", "lower"),
    ("frontend.dispatch_self_us", "us", "lower"),
    ("frontend.encode_us", "us", "lower"),
    ("frontend.response_bytes", "bytes", "lower"),
    ("frontend.handoff_us", "us", "lower"),
    ("frontend.roundtrip_1conn_us", "us", "lower"),
    ("frontend.roundtrip_2conn_us", "us", "lower"),
    ("frontend.shed", "count", "lower"),
    ("frontend.deadline_rejected", "count", "lower"),
    ("frontend.admission_wait_us", "us", "lower"),
    ("fingerprint.us", "us", "lower"),
    ("fingerprint.content_digest_us", "us", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("calibration.digest_us", "us", "lower"),
    ("iterations.estimate_all_ms", "ms", "lower"),
    ("iterations.share_of_request", "ratio", "lower"),
    ("iterations.failed_fits", "count", "lower"),
    ("iterations.budget_stops", "count", "lower"),
    ("iterations.take_sample_us", "us", "lower"),
    ("iterations.pool_efficiency", "ratio", "higher"),
    *((template.format(alg), unit, better)
      for template, unit, better in _PER_ALGORITHM for alg in ALGORITHMS),
    ("curve_fit.fit_us", "us", "lower"),
    ("plan_space.enumerate_us", "us", "lower"),
    ("plan_space.plans", "count", "lower"),
    ("cost_model.estimate_batch_us", "us", "lower"),
    ("cost_model.us_per_plan", "us", "lower"),
    ("optimizer.choice_self_us", "us", "lower"),
    ("serialize.encode_us", "us", "lower"),
    ("serialize.decode_us", "us", "lower"),
    ("serialize.entry_bytes", "bytes", "lower"),
    ("backends.sqlite.store_ms", "ms", "lower"),
    ("backends.sqlite.get_ms", "ms", "lower"),
    ("backends.sqlite.update_ms", "ms", "lower"),
    ("executor.run_ms", "ms", "lower"),
    ("executor.us_per_iter", "us", "lower"),
    ("executor.iterations", "count", "lower"),
    ("jobs.train_self_ms", "ms", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.saves_per_job", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("obs.trace_us_per_request", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.accounted_ratio", "ratio", "higher"),
    ("bench.traced_requests", "count", "higher"),
)

#: Counts that must be identical between two runs of one commit.
EXACT_COUNTS = (
    "plan_space.plans", "executor.iterations", "checkpoint.saves_per_job",
    "iterations.failed_fits", "iterations.budget_stops",
    "bench.traced_requests",
    *(f"iterations.spec_iters.{alg}" for alg in ALGORITHMS),
)


def _ancestor_named(span, by_id, name):
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return parent
        parent = by_id.get(parent["parent"])
    return None


def derive(spans, roundtrips, layer_of) -> tuple:
    """``(metrics, table rows, layer shares)`` from the replay's spans
    and the client's ``(start, end)`` per request, in order.

    ``layer_of`` maps span name -> layer (from the wrapper table).
    """
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    shared = attributed_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name, scale, where=None, own_time=False):
        return [
            (own[s["id"]] if own_time else s["end"] - s["start"]) * scale
            for s in by_name.get(name, ()) if where is None or where(s)
        ]

    rows = []

    def timing(metric, name, scale, **kwargs):
        values = durations(name, scale, **kwargs)
        if not values:
            return 0.0
        rows.append((metric, percentile(values, 50),
                     percentile(values, 95), len(values)))
        return percentile(values, 50)

    def attribute(name, key, where=None):
        return [s[key] for s in by_name.get(name, ())
                if key in s and (where is None or where(s))]

    def median_attr(metric, name, key, where=None):
        values = attribute(name, key, where)
        if not values:
            return 0.0
        rows.append((metric, percentile(values, 50),
                     percentile(values, 95), len(values)))
        return percentile(values, 50)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    US, MS = 1e6, 1e3
    m = {}
    m["frontend.parse_us"] = timing("frontend.parse_us",
                                    "frontend.parse", US)
    m["frontend.dispatch_self_us"] = timing(
        "frontend.dispatch_self_us", "frontend.handle", US, own_time=True)
    m["frontend.encode_us"] = timing("frontend.encode_us",
                                     "frontend.encode", US)
    m["frontend.response_bytes"] = median_attr(
        "frontend.response_bytes", "frontend.encode", "bytes")

    # Server-side time of each request = the root spans that start
    # inside the client's round-trip window (one sequential client, so
    # windows do not overlap); the rest of the round trip is handoff:
    # socket, admission, the pool hop.
    roots = sorted((s for s in spans if s["parent"] is None),
                   key=lambda s: s["start"])
    handoffs, cursor = [], 0
    for start, end in roundtrips:
        while cursor < len(roots) and roots[cursor]["start"] < start:
            cursor += 1
        inside = 0.0
        while cursor < len(roots) and roots[cursor]["start"] < end:
            inside += roots[cursor]["end"] - roots[cursor]["start"]
            cursor += 1
        handoffs.append(max(0.0, (end - start) - inside) * US)
    if handoffs:
        rows.append(("frontend.handoff_us", percentile(handoffs, 50),
                     percentile(handoffs, 95), len(handoffs)))
    m["frontend.handoff_us"] = percentile(handoffs, 50) if handoffs else 0.0

    m["fingerprint.us"] = timing("fingerprint.us", "fingerprint", US)
    m["fingerprint.content_digest_us"] = timing(
        "fingerprint.content_digest_us", "fingerprint.content_digest", US)
    m["cache.get_us"] = timing("cache.get_us", "cache.get", US)
    m["cache.put_us"] = timing("cache.put_us", "cache.put", US)
    hits = attribute("cache.get", "hit")
    m["cache.hit_ratio"] = ratio(sum(hits), len(hits))
    m["calibration.digest_us"] = timing("calibration.digest_us",
                                        "calibration.digest", US)

    total_roundtrip = sum(end - start for start, end in roundtrips)
    estimate_all = durations("iterations.estimate_all", 1.0)
    m["iterations.estimate_all_ms"] = timing(
        "iterations.estimate_all_ms", "iterations.estimate_all", MS)
    m["iterations.share_of_request"] = ratio(sum(estimate_all),
                                             total_roundtrip)
    trials = by_name.get("iterations.estimate", ())
    m["iterations.failed_fits"] = sum(1 for s in trials if "error" in s)
    m["iterations.budget_stops"] = sum(
        1 for s in trials if s.get("budget_stop"))
    m["iterations.take_sample_us"] = timing(
        "iterations.take_sample_us", "iterations.take_sample", US)
    m["iterations.pool_efficiency"] = ratio(
        sum(durations("iterations.estimate", 1.0)), sum(estimate_all))
    for alg in ALGORITHMS:
        def of(s, alg=alg):
            return s.get("algorithm") == alg
        m[f"iterations.estimate_ms.{alg}"] = timing(
            f"iterations.estimate_ms.{alg}", "iterations.estimate", MS,
            where=of)
        m[f"iterations.spec_iters.{alg}"] = sum(
            attribute("iterations.estimate", "spec_iters", of))
        m[f"gd.us_per_iter.{alg}"] = ratio(
            sum(durations("gd.run", US, where=of)),
            sum(attribute("gd.run", "iterations", of)))

    m["curve_fit.fit_us"] = timing("curve_fit.fit_us", "curve_fit.fit", US)
    m["plan_space.enumerate_us"] = timing(
        "plan_space.enumerate_us", "plan_space.enumerate", US)
    m["plan_space.plans"] = median_attr(
        "plan_space.plans", "plan_space.enumerate", "plans")
    m["cost_model.estimate_batch_us"] = timing(
        "cost_model.estimate_batch_us", "cost_model.estimate_batch", US)
    m["cost_model.us_per_plan"] = ratio(
        sum(durations("cost_model.estimate_batch", US)),
        sum(attribute("cost_model.estimate_batch", "plans")))
    m["optimizer.choice_self_us"] = timing(
        "optimizer.choice_self_us", "optimizer.optimize", US, own_time=True)

    m["serialize.encode_us"] = timing(
        "serialize.encode_us", "serialize.entry_to_dict", US)
    m["serialize.decode_us"] = timing(
        "serialize.decode_us", "serialize.entry_from_dict", US)
    m["serialize.entry_bytes"] = median_attr(
        "serialize.entry_bytes", "backends.json_dumps", "bytes",
        lambda s: _ancestor_named(s, by_id, "backends.sqlite.store"))
    m["backends.sqlite.store_ms"] = timing(
        "backends.sqlite.store_ms", "backends.sqlite.store", MS)
    m["backends.sqlite.get_ms"] = timing(
        "backends.sqlite.get_ms", "backends.sqlite.get", MS)
    m["backends.sqlite.update_ms"] = timing(
        "backends.sqlite.update_ms", "backends.sqlite.update", MS)

    m["executor.run_ms"] = timing("executor.run_ms", "executor.run", MS)
    executed = sum(attribute("executor.run", "iterations"))
    m["executor.iterations"] = executed
    m["executor.us_per_iter"] = ratio(
        sum(durations("executor.run", US)), executed)
    m["jobs.train_self_ms"] = timing(
        "jobs.train_self_ms", "jobs.train", MS, own_time=True)
    m["checkpoint.save_ms"] = timing(
        "checkpoint.save_ms", "checkpoint.save", MS)
    m["checkpoint.load_ms"] = timing(
        "checkpoint.load_ms", "checkpoint.load", MS,
        where=lambda s: s.get("resumed"))
    fresh_jobs = sum(1 for s in by_name.get("checkpoint.load", ())
                     if not s.get("resumed"))
    m["checkpoint.saves_per_job"] = ratio(
        len(by_name.get("checkpoint.save", ())), fresh_jobs)
    m["checkpoint.bytes"] = median_attr(
        "checkpoint.bytes", "backends.json_dumps", "bytes",
        lambda s: _ancestor_named(s, by_id, "checkpoint.save"))

    attributed = sum(shared.values())
    m["bench.accounted_ratio"] = ratio(
        attributed + sum(handoffs) / US, total_roundtrip)
    m["bench.traced_requests"] = len(roundtrips)

    shares = {}
    for span in spans:
        layer = layer_of.get(span["name"], span["name"])
        shares[layer] = shares.get(layer, 0.0) + shared[span["id"]]
    shares["(handoff)"] = sum(handoffs) / US
    shares = {layer: ratio(value, total_roundtrip)
              for layer, value in shares.items()}
    return m, rows, shares
