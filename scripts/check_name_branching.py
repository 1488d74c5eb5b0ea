#!/usr/bin/env python
"""Fail when library code branches on GD algorithm *names*, or grows a
second pure-math GD loop.

The AlgorithmSpec plugin layer (``repro/gd/spec.py``) made the
algorithm seam declarative: step kernels, cost terms, state namespaces
and plan variants all hang off the registered spec.
Code like ``if plan.algorithm == "svrg":`` re-opens that seam -- a new
plugin would silently miss the branch -- so this lint greps the library
for literal name comparisons and membership tests and fails on any hit.

An algorithm is a step kernel (``repro.gd.base.Updater``) driven by
``run_loop``; a library module with its own ``for ... in range(1,
max_iter + 1)`` loop (or ``range(1, training.max_iter + 1)``) is a
forked copy of the loop tail (convergence-wins ordering, wall budget,
snapshot cadence).  Only ``gd/base.py`` (``run_loop``) and
``core/executor.py`` (the plan executor's accounted loop) may hold
one.

Allowed:

* ``repro/gd/`` registration modules (a spec naturally names itself);
* comparisons between two runtime values (``a.algorithm ==
  b.algorithm``) -- no literal, no match;
* tests, experiments and scripts (asserting on a *chosen* name is
  reporting, not dispatch).

    python scripts/check_name_branching.py
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)
LIBRARY_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: Directories whose modules may name algorithms literally: the specs
#: themselves live here, and naming yourself is not branching.
ALLOWED_PREFIXES = (
    os.path.join("src", "repro", "gd") + os.sep,
    os.path.join("src", "repro", "experiments") + os.sep,
)

#: ``<something>algorithm == "name"`` / ``!=`` (either operand order)
#: and ``algorithm in ("name", ...)`` membership tests.
PATTERNS = (
    re.compile(r"algorithm\s*[=!]=\s*[\"']"),
    re.compile(r"[\"']\s*[=!]=\s*\w*\.?algorithm\b"),
    re.compile(r"algorithm\s+(not\s+)?in\s+[\[(]\s*[\"']"),
)


#: The GD loop header -- ``range(1, max_iter + 1)`` or
#: ``range(1, <obj>.max_iter + 1)`` -- and the two modules that may have
#: it: ``run_loop`` and the plan executor's accounted loop.
LOOP_PATTERN = re.compile(
    r"for\s+\w+\s+in\s+range\(\s*1\s*,\s*(\w+\.)*max_iter\s*\+\s*1\s*\)"
)
LOOP_MODULES = (
    os.path.join("src", "repro", "gd", "base.py"),
    os.path.join("src", "repro", "core", "executor.py"),
)


def scan_loops(root=LIBRARY_ROOT) -> list:
    """Return (relpath, lineno, line) GD loops outside ``LOOP_MODULES``."""
    offenders = []
    for dirpath, _dirnames, filenames in sorted(os.walk(root)):
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, REPO_ROOT)
            if not filename.endswith(".py") or rel in LOOP_MODULES:
                continue
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    if LOOP_PATTERN.search(line.split("#", 1)[0]):
                        offenders.append((rel, lineno, line.rstrip()))
    return offenders


def scan(root=LIBRARY_ROOT) -> list:
    """Return (relpath, lineno, line) offenders under ``root``."""
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, REPO_ROOT)
            if rel.startswith(ALLOWED_PREFIXES):
                continue
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    code = line.split("#", 1)[0]
                    if any(p.search(code) for p in PATTERNS):
                        offenders.append((rel, lineno, line.rstrip()))
    return offenders


def main() -> int:
    failed = False
    for offenders, message in (
        (scan(), "GD algorithm name-branching found (route through the "
                 "AlgorithmSpec registry instead):"),
        (scan_loops(), "GD loop outside run_loop and the plan executor "
                       "(write a step kernel and let run_loop drive it):"),
    ):
        if offenders:
            failed = True
            print(message, file=sys.stderr)
            for rel, lineno, line in offenders:
                print(f"  {rel}:{lineno}: {line.strip()}", file=sys.stderr)
    if failed:
        return 1
    print("no algorithm name-branching outside the registry seam; "
          "run_loop and the plan executor are the only GD loops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
