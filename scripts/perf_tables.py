#!/usr/bin/env python
"""Generated performance tables in the repo's markdown docs.

A block between the two markers

    <!-- perf-tables docs/perf/NAME.json -->
    <!-- /perf-tables -->

holds what ``render`` makes of the named result set (the file
``python3 bench/run.py --repeat N --output PATH`` writes; the path is
relative to the repository root):

1. per workload, the median over the set's runs of each end-to-end
   metric ``BENCHMARK.json`` lists, and n, the number of runs;
2. per workload, the traced replay's share of the round trip
   (``trace.shares``) of every layer at or above 1 %.

Usage::

    python scripts/perf_tables.py     # re-render every block in place

It rewrites README.md and docs/*.md.  ``scripts/check_docs.py`` renders
each block the same way and fails on any difference, so a number edited
by hand, or a marker naming a set that is not committed, fails CI.  A
change that records a new result set commits it under docs/perf/ and
points the marker at it.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OPEN = "<!-- perf-tables "
BLOCK_RE = re.compile(
    r"^<!-- perf-tables (\S+) -->\n(.*?)^<!-- /perf-tables -->$",
    re.M | re.S,
)

#: Layers under this share of a replay's round trip are left out.
MIN_SHARE = 0.01


class PerfTablesError(Exception):
    """A block that cannot be rendered: a missing, unreadable or
    malformed result set, or a marker without its closing marker."""


def end_to_end_metrics() -> list:
    """``(name, unit)`` of each end-to-end metric, in BENCHMARK.json's
    order."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec["end_to_end"]]


def _number(value) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def _median(runs, name):
    values = [run["metrics"][name] for run in runs
              if run["metrics"].get(name) is not None]
    return statistics.median(values) if values else None


def _row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def render(result_set, set_path) -> str:
    """The two tables of one result set, as markdown."""
    metrics = end_to_end_metrics()
    workloads = result_set["workloads"]
    lines = [
        f"End to end: medians of the n runs per workload in "
        f"`{set_path}` (seed {result_set['seed']}, "
        f"{result_set['seconds']} s per run).",
        "",
        _row(["workload", "n"] + [f"`{name}` ({unit})"
                                  for name, unit in metrics]),
        _row(["---"] * (len(metrics) + 2)),
    ]
    for workload, entry in workloads.items():
        runs = entry["runs"]
        cells = [f"`{workload}`", str(len(runs))]
        for name, _ in metrics:
            value = _median(runs, name)
            cell = "" if value is None else _number(value)
            if name == "latency_tail_ms" and cell:
                cell += f" (p{runs[0]['info']['tail_percentile']})"
            cells.append(cell)
        lines.append(_row(cells))

    layers = []
    for entry in workloads.values():
        for layer, share in entry["trace"]["shares"].items():
            if share >= MIN_SHARE and layer not in layers:
                layers.append(layer)
    lines += [
        "",
        f"Traced replay: each layer's share of the round trip, where it "
        f"is at least {MIN_SHARE:.0%} (`trace.shares`).",
        "",
        _row(["layer"] + [f"`{workload}`" for workload in workloads]),
        _row(["---"] * (len(workloads) + 1)),
    ]
    for layer in layers:
        cells = [f"`{layer}`"]
        for entry in workloads.values():
            share = entry["trace"]["shares"].get(layer, 0.0)
            cells.append(f"{share:.1%}" if share >= MIN_SHARE else "")
        lines.append(_row(cells))
    lines.append(_row(
        ["replay `correct`"]
        + ["yes" if entry["trace"]["correct"] else "no"
           for entry in workloads.values()]
    ))
    return "\n".join(lines) + "\n"


def render_set(set_path) -> str:
    """``render`` of the result set at ``set_path`` (repo-relative)."""
    try:
        with open(os.path.join(REPO_ROOT, set_path)) as handle:
            result_set = json.load(handle)
        return render(result_set, set_path)
    except (OSError, ValueError) as exc:
        raise PerfTablesError(f"result set {set_path}: {exc}") from exc
    except (KeyError, TypeError, IndexError) as exc:
        raise PerfTablesError(
            f"result set {set_path} is not a bench/run.py result set "
            f"(no {exc})"
        ) from exc


def blocks(text) -> list:
    """``(set_path, body)`` of every block in one markdown text."""
    found = [(m.group(1), m.group(2)) for m in BLOCK_RE.finditer(text)]
    if text.count(OPEN) != len(found):
        raise PerfTablesError("a perf-tables marker has no closing marker")
    return found


def fill(text) -> str:
    """``text`` with every block re-rendered from its result set."""
    blocks(text)
    return BLOCK_RE.sub(
        lambda m: (f"{OPEN}{m.group(1)} -->\n{render_set(m.group(1))}"
                   "<!-- /perf-tables -->"),
        text,
    )


def documents() -> list:
    """The markdown files that may hold blocks: README.md, docs/*.md."""
    return [os.path.join(REPO_ROOT, "README.md")] + sorted(
        glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))
    )


def main() -> int:
    for path in documents():
        with open(path) as handle:
            text = handle.read()
        try:
            fresh = fill(text)
        except PerfTablesError as exc:
            print(f"error: {path}: {exc}")
            return 1
        if fresh != text:
            with open(path, "w") as handle:
                handle.write(fresh)
            print(f"rewrote {os.path.relpath(path, REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
