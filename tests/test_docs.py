"""The documentation suite holds: links resolve, snippets run, the
generated performance tables match their result set.

Runs the same checker CI uses (``scripts/check_docs.py``), so drift
between the documented API and the real one fails tier-1 locally, not
just in the docs CI job.
"""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "scripts", "check_docs.py")
README = os.path.join(REPO_ROOT, "README.md")
ARCHITECTURE = os.path.join(REPO_ROOT, "docs", "ARCHITECTURE.md")


def checker_module():
    import importlib.util

    module_spec = importlib.util.spec_from_file_location(
        "check_docs", CHECKER
    )
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


class TestDocsExist:
    def test_readme_covers_the_required_ground(self):
        with open(README) as handle:
            text = handle.read()
        for required in ("pip install -e .", "repro serve", "repro batch",
                         "repro calibrate", "--cache", "Figure 8"):
            assert required in text, f"README.md lost {required!r}"

    def test_architecture_covers_the_pipeline_and_formats(self):
        with open(ARCHITECTURE) as handle:
            text = handle.read()
        for required in ("repro.lang", "cost model", "entry_format",
                         "calibration_version", "plan_store", "two-level"):
            assert required.lower() in text.lower(), \
                f"ARCHITECTURE.md lost {required!r}"


class TestLinks:
    @pytest.mark.parametrize("path", [README, ARCHITECTURE])
    def test_intra_repo_links_resolve(self, path):
        module = checker_module()
        with open(path) as handle:
            failures = module.check_links(path, handle.read())
        assert failures == []

    def test_checker_flags_broken_links(self, tmp_path):
        module = checker_module()
        page = tmp_path / "page.md"
        page.write_text("# x\n[gone](no/such/file.py) [ok](page.md) "
                        "[ext](https://example.com) [anchor](#x)")
        failures = module.check_links(str(page), page.read_text())
        assert len(failures) == 1
        assert "no/such/file.py" in failures[0]

    def test_checker_flags_anchors_no_heading_carries(self, tmp_path):
        module = checker_module()
        (tmp_path / "other.md").write_text(
            "# Other page\n## `repro serve` & friends\n")
        page = tmp_path / "page.md"
        page.write_text(
            "# Page\n## Twice\n## Twice\n"
            "```python\n# fenced comment\n```\n"
            "[self](#page) [second](#twice-1) "
            "[there](other.md#repro-serve--friends) [file](other.md)\n"
            "[gone](#no-such-heading) [third](#twice-2) "
            "[code](#fenced-comment) [elsewhere](other.md#page)\n")
        failures = module.check_links(str(page), page.read_text())
        assert [f.rsplit(" -> ", 1)[1] for f in failures] == [
            "#no-such-heading", "#twice-2", "#fenced-comment",
            "other.md#page"]


class TestPerfTables:
    """ARCHITECTURE's performance tables are a render of one committed
    result set: a number edited by hand, or a marker naming a set that
    is not there, fails the check."""

    def architecture(self):
        with open(ARCHITECTURE) as handle:
            return handle.read()

    def test_the_committed_tables_equal_a_fresh_render(self):
        module = checker_module()
        text = self.architecture()
        assert module.perf_tables.blocks(text)
        assert module.check_perf_tables(ARCHITECTURE, text) == []

    def test_a_hand_edited_digit_fails(self):
        module = checker_module()
        text = self.architecture()
        (set_path, body), *_ = module.perf_tables.blocks(text)
        cell = re.search(r"^\| `\w+` \| \d+ \| (\d)", body, re.M)
        digit = str((int(cell.group(1)) + 1) % 10)
        edited = body[:cell.start(1)] + digit + body[cell.end(1):]
        failures = module.check_perf_tables(
            ARCHITECTURE, text.replace(body, edited)
        )
        assert len(failures) == 1
        assert set_path in failures[0]

    def test_a_marker_naming_a_missing_set_fails(self):
        module = checker_module()
        page = ("<!-- perf-tables docs/perf/no-such-set.json -->\n"
                "<!-- /perf-tables -->\n")
        failures = module.check_perf_tables("page.md", page)
        assert len(failures) == 1
        assert "no-such-set.json" in failures[0]

    def test_a_marker_without_its_end_fails(self):
        module = checker_module()
        text = self.architecture().replace("<!-- /perf-tables -->", "")
        failures = module.check_perf_tables(ARCHITECTURE, text)
        assert len(failures) == 1
        assert "closing marker" in failures[0]


@pytest.mark.slow
class TestSnippets:
    """Execute every documented python snippet (the heavyweight check)."""

    @pytest.mark.parametrize("path", [README, ARCHITECTURE],
                             ids=["readme", "architecture"])
    def test_snippets_run(self, path):
        result = subprocess.run(
            [sys.executable, CHECKER, path],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=600,
        )
        assert result.returncode == 0, (
            f"doc snippets failed:\n{result.stdout}\n{result.stderr}"
        )

    def test_snippet_extraction_sees_the_fences(self):
        module = checker_module()
        with open(README) as handle:
            snippets = module.python_snippets(handle.read())
        assert len(snippets) >= 3  # quickstart, query, persistence
        assert any("cache_path" in s for s in snippets)
