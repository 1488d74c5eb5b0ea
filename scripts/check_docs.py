#!/usr/bin/env python
"""Documentation checker: snippets must run, intra-repo links must
resolve, generated tables must match their data.

Three checks over the repo's markdown documentation:

1. every fenced ``python`` code block is executed in a subprocess (with
   ``PYTHONPATH=src``) and must exit cleanly -- docs that drift from the
   API fail CI instead of lying to readers;
2. every relative markdown link ``[text](target)`` must point at an
   existing file or directory, and its ``#anchor``, if any, at a heading
   of the markdown file it names (or of the page itself), spelled as
   GitHub spells heading anchors (external URLs are skipped);
3. every perf-tables block must equal what ``scripts/perf_tables.py``
   renders from the result set its marker names.

Usage::

    python scripts/check_docs.py                 # README.md + docs/*.md
    python scripts/check_docs.py README.md docs/ARCHITECTURE.md

Exit status is the number of failed checks (0 = everything holds).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(REPO_ROOT, "scripts")
if SCRIPTS not in sys.path:
    sys.path.append(SCRIPTS)

import perf_tables  # noqa: E402

#: ```python ... ``` fenced blocks (the tag must be exactly "python";
#: bash/text/untagged blocks are documentation, not test cases).
FENCE_RE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.M | re.S)
#: [text](target) markdown links, excluding images' inner brackets.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced code blocks of any language: a ``#`` line in one is code.
ANY_FENCE_RE = re.compile(r"^(```|~~~).*?^\1[ \t]*$", re.M | re.S)
#: ATX headings (``#`` to ``######``, then the title).
HEADING_RE = re.compile(r"^#{1,6}[ \t]+(.+?)(?:[ \t]+#+)?[ \t]*$", re.M)

_EXTERNAL = ("http://", "https://", "mailto:")


def python_snippets(text):
    """All ``python``-tagged fenced code blocks in one markdown text."""
    return [match.group(1) for match in FENCE_RE.finditer(text)]


def relative_links(text):
    """All link targets that should resolve inside the repository, as
    ``(path, anchor)``: path "" is the page itself, anchor "" none."""
    return [target.partition("#")[::2] for target in LINK_RE.findall(text)
            if not target.startswith(_EXTERNAL)]


def heading_anchors(text) -> set:
    """The anchors GitHub gives the headings of one markdown text: the
    title's text lower-cased, everything but letters, digits, ``_``,
    ``-`` and spaces dropped, spaces made ``-``; a repeated one gets
    ``-1``, ``-2``, ...  Lines inside fenced code are not headings."""
    anchors, seen = set(), {}
    for title in HEADING_RE.findall(ANY_FENCE_RE.sub("", text)):
        title = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", title)  # link text
        slug = re.sub(r"[^\w\- ]", "", title.lower()).replace(" ", "-")
        anchors.add(f"{slug}-{seen[slug]}" if slug in seen else slug)
        seen[slug] = seen.get(slug, 0) + 1
    return anchors


def check_snippets(path, text) -> list:
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for index, code in enumerate(python_snippets(text), start=1):
        label = f"{path} snippet #{index}"
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, cwd=REPO_ROOT,
                timeout=300,
            )
        except subprocess.TimeoutExpired:
            failures.append(f"{label}: timed out after 300s")
            continue
        if proc.returncode != 0:
            failures.append(
                f"{label}: exited {proc.returncode}\n"
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        else:
            print(f"ok: {label}")
    return failures


def check_links(path, text) -> list:
    failures = []
    base = os.path.dirname(os.path.abspath(path))
    anchors = {}  # markdown file -> its heading anchors
    for target, anchor in relative_links(text):
        link = f"{target}#{anchor}" if anchor else target
        resolved = (os.path.normpath(os.path.join(base, target)) if target
                    else os.path.abspath(path))
        if not os.path.exists(resolved):
            failures.append(f"{path}: broken link -> {link}")
            continue
        if anchor and resolved.endswith(".md"):
            if resolved not in anchors:
                page = text
                if target:
                    with open(resolved) as handle:
                        page = handle.read()
                anchors[resolved] = heading_anchors(page)
            if anchor not in anchors[resolved]:
                failures.append(f"{path}: broken anchor -> {link}")
                continue
        print(f"ok: {path} link {link}")
    return failures


def check_perf_tables(path, text) -> list:
    failures = []
    try:
        for set_path, body in perf_tables.blocks(text):
            if body == perf_tables.render_set(set_path):
                print(f"ok: {path} perf tables of {set_path}")
            else:
                failures.append(
                    f"{path}: the perf tables of {set_path} differ from "
                    "the set; run python scripts/perf_tables.py"
                )
    except perf_tables.PerfTablesError as exc:
        failures.append(f"{path}: {exc}")
    return failures


def main(argv=None) -> int:
    files = list(sys.argv[1:] if argv is None else argv)
    if not files:
        files = perf_tables.documents()
    failures = []
    for path in files:
        with open(path) as handle:
            text = handle.read()
        failures += check_links(path, text)
        failures += check_perf_tables(path, text)
        failures += check_snippets(path, text)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    total = len(failures)
    print(f"{len(files)} file(s) checked, {total} failure(s)")
    return min(total, 99)


if __name__ == "__main__":
    raise SystemExit(main())
